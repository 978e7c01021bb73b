"""Record the certificate constants the correctness gate compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs every config seed of ``workloads.POOL`` once under the default threads
(worker A) and once single-threaded (worker B), and writes
``perfbench/reference.json``: per workload and config seed, the constants of
the default-thread call and the summary sha256 of both.  Run it at the
commit whose outputs are the reference, and only there.
"""

import json
import sys

import run
import workloads


def record(workload):
    out = {}
    for cs in workloads.POOL:
        replies = {}
        for name in ("A", "B"):
            w = run.Worker(name, workload, cs)
            try:
                replies[name] = w.request({"cmd": "call", "config_seed": cs},
                                          run.RUN_LIMIT_S)
            finally:
                w.close()
            if "error" in replies[name]:
                raise run.BenchError(replies[name]["error"])
        a, b = replies["A"]["outcome"], replies["B"]["outcome"]
        ref = {"constants": a["constants"],
               "sha256": {"default": a["sha256"], "1thread": b["sha256"]}}
        for outcome in (a, b):
            problems = run.gate(outcome, ref)
            if problems:
                raise run.BenchError(f"{workload} config seed {cs}: {problems}")
        out[str(cs)] = ref
        print(workload, cs, a["constants"], flush=True)
    return out


def main(argv):
    names = argv or list(workloads.WORKLOADS)
    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in names:
        ref[name] = record(name)
        run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
