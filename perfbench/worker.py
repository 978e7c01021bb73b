"""One benchmark worker process: set-up, then timed calls on request.

The parent (``run.py``) starts the worker with the thread environment under
test and talks to it over stdin/stdout, one JSON object per line:

* on start the worker sets up (imports, config validation, system, profile,
  grid) and sends ``{"ready": ...}``; the parent times start-to-ready;
* ``{"cmd": "call", "config_seed": n}`` runs one timed call and answers with
  its wall time, the outcome the correctness gate checks and, in a traced
  worker, the call's per-layer numbers;
* ``{"cmd": "quit"}`` (or end of input) writes the recorded spans of a
  traced worker and exits.

Every reply to a call carries the process's peak resident memory so far.

Everything the program prints goes to stderr, which the parent sends to a
log file, so stdout carries only the protocol.

    python3 perfbench/worker.py --workload sweep_front --config-seed 3 \\
        --work-dir .bench_out/work [--trace] [--spans FILE] [--setup-only]
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _environment():
    import numpy
    import scipy
    from relaxstab import resolvent
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "RELAXSTAB_THREADS": os.environ.get("RELAXSTAB_THREADS"),
        "sweep_threads": resolvent.worker_count(),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config-seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(obj):
        proto.write(json.dumps(obj) + "\n")

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import relaxstab
    src = (ROOT / "src").resolve()
    if src not in Path(relaxstab.__file__).resolve().parents:
        send({"error": f"imported relaxstab from {relaxstab.__file__}"})
        return 2
    import tracing
    import workloads

    tracer = None
    entry = contextlib.nullcontext
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.span
    with entry("setup"):
        wl = workloads.Workload(args.workload, args.work_dir,
                                workloads.make_config(args.workload,
                                                      args.config_seed))
    ready = {"environment": _environment(), "rss_mb": _peak_rss_mb(),
             "relaxstab": str(Path(relaxstab.__file__).resolve().parent)}
    all_spans = []
    if tracer is not None:
        spans, _ = tracer.drain()
        all_spans.extend(spans)
        ready["profile_solve_s"] = sum(
            t1 - t0 for _, name, t0, t1, _ in spans
            if name.startswith("profile.solve_profile"))
    send({"ready": ready})
    if args.setup_only:
        return 0

    for line in sys.stdin:
        req = json.loads(line)
        if req["cmd"] == "quit":
            break
        config = workloads.make_config(args.workload, req["config_seed"])
        try:
            wall, outcome = wl.call(config, entry)
        except Exception:
            if tracer is not None:
                tracer.drain()
            send({"error": traceback.format_exc()})
            continue
        reply = {"wall_s": wall, "outcome": outcome, "rss_mb": _peak_rss_mb()}
        if tracer is not None:
            spans, counts = tracer.drain()
            all_spans.extend(spans)
            reply["layers"] = tracing.layer_metrics(spans, counts)
        send(reply)

    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            json.dump([{"id": sid, "name": name, "start": t0, "end": t1,
                        "parent": parent}
                       for sid, name, t0, t1, parent in all_spans], fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
