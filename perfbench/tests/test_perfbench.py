"""Tests of the benchmark itself (not of relaxstab).

    python3 -m pytest -q perfbench/tests

The last two tests run the benchmark on real workloads (about a minute).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTED = ("_calls", "_evals", "_columns", "_computed", "lu_per_point")


def _all_metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def test_metric_names_and_units():
    names = [m["name"] for m in _all_metrics()] + \
        [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in _all_metrics():
        assert UNIT.fullmatch(m["unit"]), m


def test_every_per_layer_metric_is_produced():
    produced = set(tracing.layer_metrics([], {}))
    produced |= {"resolvent.parallel_speedup", "trace.overhead_s",
                 "profile.solve_s"}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced


def test_self_times_add_up_with_parallel_children():
    # root 0..10 with a child 1..9 that fans out to two threads (2..6, 3..8)
    spans = [(1, "cli.main", 0.0, 10.0, 0),
             (2, "resolvent.run_sweep", 1.0, 9.0, 1),
             (3, "resolvent.lu_factor", 2.0, 6.0, 2),
             (4, "resolvent.lu_factor", 3.0, 8.0, 2),
             (5, "cli.main", 12.0, 13.0, 0)]
    own = tracing.self_times(spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own.values()) == pytest.approx(11.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)        # 1..2 and 8..9
    assert own[3] + own[4] == pytest.approx(6.0)


def test_scheduler_balances_calls_and_rotates_first_worker():
    class W:
        def __init__(self, name):
            self.name = name

    workers = [W("A"), W("B")]
    cost = {"A": 8.5, "B": 7.5}
    done, last, order, left = {"A": 0, "B": 0}, {}, [], 60.0
    while (w := run.next_worker(workers, done, last, left)) is not None:
        order.append(w.name)
        left -= cost[w.name]
        last[w.name] = cost[w.name]
        done[w.name] += 1
    # rounds alternate which worker goes first; the deadline cuts A, the
    # slower one, so B still gets its call
    assert order == ["A", "B", "B", "A", "A", "B", "B"]
    assert sum(cost[n] for n in order) <= 60.0


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gate_passes_reference_and_fails_perturbed_reference():
    w = run.Worker("A", "sweep_front", 5)
    try:
        reply = w.request({"cmd": "call", "config_seed": 5}, 120)
    finally:
        w.close()
    ref = json.loads(run.REFERENCE.read_text())["sweep_front"]["5"]
    assert run.gate(reply["outcome"], ref) == []
    for key, value in ref["constants"].items():
        bad = {"constants": dict(ref["constants"]), "sha256": ref["sha256"]}
        bad["constants"][key] = value * (1 + 1e-4)
        problems = run.gate(reply["outcome"], bad)
        assert len(problems) == 1 and problems[0].startswith(key)
    broken = dict(reply["outcome"], exit_code=3)
    assert run.gate(broken, ref) == ["exit code 3"]


def test_traced_runs_repeat_counts_and_self_times_add_up():
    first = _run("sweep_front", 7, 1)
    second = _run("sweep_front", 7, 1)
    assert first["correct"] and second["correct"]
    counted = [k for k in first["metrics"] if k.endswith(COUNTED)]
    assert "resolvent.lu_factor_calls" in counted
    for key in counted:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["resolvent.lu_factor_calls"]["value"] > 0

    spans = json.loads((run.OUT / "spans-sweep_front-seed7-trace1.json")
                       .read_text())
    spans = [(s["id"], s["name"], s["start"], s["end"], s["parent"])
             for s in spans]
    call_spans = [s for s in spans if s[1] == "cli.main"]
    own = tracing.self_times(spans)
    assert min(own.values()) >= 0
    wall = sum(t1 - t0 for _, _, t0, t1, parent in spans if parent == 0)
    assert sum(own.values()) == pytest.approx(wall, rel=1e-9)
    assert call_spans
