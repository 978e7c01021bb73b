"""relaxstab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload full_small --seed 1 --seconds 60 \\
        --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts worker processes (``worker.py``) and drives them in a
closed loop, one call at a time:

* ``A``: the program's default threads (2 sweep threads, OpenBLAS default);
* ``B``: ``RELAXSTAB_THREADS=1 OPENBLAS_NUM_THREADS=1``;
* ``C`` (``--trace 1`` only): default threads with the spans of
  ``tracing.py`` installed.

Each worker's k-th call uses the k-th config seed of the run.  The worker
with the fewest calls goes next, as long as its last call, repeated, would
end within ``--seconds``; ties rotate, so no worker is always first or
always the one the deadline cuts.  Every call passes the correctness gate
or counts as failed.  Human-readable lines go first; the last line of stdout
is the result object.  Details (environment, samples, gate results) go to
``.bench_out/``.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 5            # extra start-to-ready samples beside A and B
RUN_LIMIT_S = 170.0         # the whole run must end within 180 s
THREAD_VARS = ("RELAXSTAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Correctness gate: each certificate constant must match the value recorded
# in reference.json (by make_reference.py) for the same config seed, within
# |x - ref| <= ATOL + RTOL |ref|.  Thread count changes the last digit or two; a refactor that
# reorders floating-point sums may move more, a wrong result moves far more.
RTOL = 1e-6
ATOL = 1e-12


class BenchError(Exception):
    """A run that cannot produce a result."""


def environment_of(name):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if name == "B":
        env.update(RELAXSTAB_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


class Worker:
    """A worker process and its line protocol, with timeouts."""

    def __init__(self, name, workload, config_seed, trace=False, spans=None,
                 setup_only=False):
        self.name = name
        work = OUT / f"work-{name}"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--config-seed", str(config_seed),
               "--work-dir", str(work)]
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
        if setup_only:
            cmd.append("--setup-only")
        OUT.mkdir(exist_ok=True)
        self.log = open(OUT / f"worker-{name}.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, env=environment_of(name), cwd=str(ROOT))
        self._buf = b""
        try:
            msg = self.receive(60.0)
            self.setup_s = time.perf_counter() - t0
            if "ready" not in msg:
                raise BenchError(f"worker {name} failed to start: {msg}")
        except BenchError:
            self.close()
            raise
        self.ready = msg["ready"]

    def receive(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise BenchError(f"worker {self.name} timed out")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"worker {self.name} exited "
                                     f"(code {self.proc.wait()})")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, obj, timeout):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()
        return self.receive(timeout)

    def close(self, timeout=20.0):
        """Ask the worker to quit and wait for it; kill it if it hangs."""
        try:
            self.proc.stdin.write(b'{"cmd": "quit"}\n')
            self.proc.stdin.close()
        except OSError:
            pass                        # the worker has already exited
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def gate(outcome, ref):
    """Problems with one call's outcome against its reference (empty: ok)."""
    problems = []
    if outcome["exit_code"] != 0:
        problems.append(f"exit code {outcome['exit_code']}")
    problems += [f"{path} is {value!r}"
                 for path, value in outcome["passed"].items() if value is not True]
    for key, expected in ref["constants"].items():
        got = outcome["constants"].get(key)
        if not isinstance(got, (int, float)) or not (
                abs(got - expected) <= ATOL + RTOL * abs(expected)):
            problems.append(f"{key} = {got!r}, reference {expected!r}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def loadavg():
    return os.getloadavg()[0]


def next_worker(workers, done, last, left):
    """The worker to call next, or None when the run is over.

    Every worker makes its first call.  After that a worker is eligible
    only if its last call, repeated, would end within the ``left`` seconds;
    of the eligible workers the one with the fewest calls goes next, and
    ties rotate from round to round so that no worker always goes first or
    is always the one the deadline cuts.
    """
    fits = [w for w in workers if w.name not in last or last[w.name] <= left]
    if not fits:
        return None
    fewest = min(done[w.name] for w in fits)
    shift = fewest % len(workers)
    order = workers[shift:] + workers[:shift]
    return next(w for w in order if w in fits and done[w.name] == fewest)


def measure(workload, seed, seconds, trace):
    """Run the workload for ``seconds``; returns the run record."""
    t_start = time.monotonic()
    reference = json.loads(REFERENCE.read_text())[workload]
    seeds = workloads.config_seeds(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "config_seeds": [],
              "environment": {"nproc": len(os.sched_getaffinity(0)),
                              "cpu_count": os.cpu_count(),
                              "loadavg_1min_start": loadavg()},
              "calls": []}
    workers = []
    try:
        for name in ("A", "B"):
            workers.append(Worker(name, workload, seeds[0]))
        if trace:
            workers.append(Worker("C", workload, seeds[0], trace=True,
                                  spans=OUT / f"spans-{tag}.json"))
        else:
            for i in range(SETUP_PROBES):
                probe = Worker(f"setup{i}", workload, seeds[0],
                               setup_only=True)
                record.setdefault("setup_probe_s", []).append(probe.setup_s)
                probe.close()
        record["environment"]["worker"] = {
            w.name: w.ready["environment"] for w in workers}
        record["setup_s"] = [w.setup_s for w in workers[:2]] + \
            record.get("setup_probe_s", [])
        if trace:
            record["profile_solve_s"] = workers[2].ready["profile_solve_s"]

        deadline = time.monotonic() + seconds
        last = {}
        done = {w.name: 0 for w in workers}
        while True:
            now = time.monotonic()
            w = next_worker(workers, done, last, deadline - now)
            if w is None:
                break
            # the k-th calls of all workers share a config seed; the traced
            # run keeps one config seed so that its counts repeat
            k = done[w.name]
            cs = seeds[0] if trace else seeds[k % len(seeds)]
            if k == len(record["config_seeds"]):
                record["config_seeds"].append(cs)
            call = {"worker": w.name, "config_seed": cs}
            try:
                reply = w.request({"cmd": "call", "config_seed": cs},
                                  RUN_LIMIT_S - (now - t_start))
            except (BenchError, OSError) as exc:
                # a crashed or hung worker fails the call and ends the run
                call["problems"] = [f"worker {w.name}: {exc}"]
                record["calls"].append(call)
                break
            last[w.name] = time.monotonic() - now
            done[w.name] += 1
            if "error" in reply:
                call["problems"] = [reply["error"]]
            else:
                ref = reference[str(cs)]
                mode = "1thread" if w.name == "B" else "default"
                call.update(wall_s=reply["wall_s"], rss_mb=reply["rss_mb"],
                            problems=gate(reply["outcome"], ref),
                            sha256_match=(reply["outcome"]["sha256"]
                                          == ref["sha256"][mode]),
                            constants=reply["outcome"]["constants"])
                if "layers" in reply:
                    call["layers"] = reply["layers"]
            record["calls"].append(call)
    finally:
        for w in workers:
            w.close()
    record["environment"]["loadavg_1min_end"] = loadavg()
    return record


def walls(record, worker):
    return [c["wall_s"] for c in record["calls"]
            if c["worker"] == worker and "wall_s" in c]


def first_call_rss(record):
    """Peak RSS of A and B through set-up and their first call.

    Later peaks depend on when the cycle collector frees the previous call's
    fields (each field and its BVP operator refer to each other).
    """
    firsts = {}
    for c in record["calls"]:
        if "rss_mb" in c and c["worker"] in "AB":
            firsts.setdefault(c["worker"], c["rss_mb"])
    return list(firsts.values())


def end_to_end(record):
    """Metric -> (value, unit, samples, statistic).

    Wall times report the median call of the run.  On a shared machine
    other tenants slow calls down by up to 80 %, in phases from seconds to
    minutes; with five or more calls per worker the median of a run varied
    less from run to run than its fastest call (see NOTES.md).
    """
    a, b = walls(record, "A"), walls(record, "B")
    rss = first_call_rss(record)
    if not a or not b or len(rss) < 2:
        raise BenchError("no timed call completed")
    return {
        "wall_s": (statistics.median(a), "s", a, "median"),
        "wall_s_1thread": (statistics.median(b), "s", b, "median"),
        "setup_s": (statistics.median(record["setup_s"]), "s",
                    record["setup_s"], "median"),
        "peak_rss_mb": (max(rss), "MiB", rss, "max"),
    }


def per_layer(record, units):
    traced = [c["layers"] for c in record["calls"] if "layers" in c]
    a, b, c = walls(record, "A"), walls(record, "B"), walls(record, "C")
    if not traced or not a or not b:
        raise BenchError("no traced call completed")
    out = {}
    for key in units:
        values = [t[key] for t in traced if key in t]
        if values:
            mean = sum(values) / len(values)
            same = all(v == values[0] for v in values)
            out[key] = values[0] if same else mean
    out["resolvent.parallel_speedup"] = statistics.median(b) / \
        statistics.median(a)
    out["trace.overhead_s"] = statistics.median(c) - statistics.median(a)
    out["profile.solve_s"] = record["profile_solve_s"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relaxstab" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'relaxstab'} "
              "is missing; run from the root of a relaxstab checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(record, units)
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in units.items()}
        else:
            e2e = end_to_end(record)
            for name, (value, unit, samples, how) in e2e.items():
                q1, q3 = quartiles(samples)
                print(f"{name}: {value:.6g} {unit} ({how} of {len(samples)};"
                      f" quartiles {q1:.6g} .. {q3:.6g};"
                      f" min {min(samples):.6g})")
            metrics = {m["name"]: {"value": e2e[m["name"]][0],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(record["calls"])
    failed = sum(1 for c in record["calls"] if c["problems"])
    for c in record["calls"]:
        for problem in c["problems"]:
            print(f"FAILED {c['worker']} config_seed={c['config_seed']}: "
                  f"{problem}")
    matches = [c["sha256_match"] for c in record["calls"]
               if "sha256_match" in c]
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} "
          f"calls); summary sha256 equal to reference in "
          f"{sum(matches)} of {len(matches)} (information only)")
    env = record["environment"]
    print(f"environment: nproc={env['nproc']} cpu_count={env['cpu_count']} "
          f"load {env['loadavg_1min_start']:.2f} -> "
          f"{env['loadavg_1min_end']:.2f}")
    record["metrics"] = metrics
    path = OUT / f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
