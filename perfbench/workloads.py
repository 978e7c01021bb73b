"""Workload definitions: generated configs, the timed call and its outputs.

Each workload turns a *config seed* into the inputs the program sees (a
config dict) and runs one timed call on them.  ``Workload.call`` returns the
wall time of the call together with everything the correctness gate needs:
the exit status, every ``passed`` flag, the certificate constants and the
sha256 of the summary the call produced.

This module is imported by the worker process after ``src/`` of the checkout
has been put on ``sys.path``; only the stdlib is imported at module level.
"""

import hashlib
import json
import os
import random
import time

# The travelling front shared by all workloads: Jin-Xin relaxation of Burgers
# with a = 2 and endstates u = 1 -> 0 (the acceptance suite's front).
FRONT = {
    "system": {"name": "jin_xin", "params": {"a": 2.0}},
    "profile": {"endstates": [[1.0, 0.5], [0.0, 0.0]], "n_points": 801},
    "norms": {"s": 1, "alpha": 0.0},
}

# The config of tests/test_acceptance.py::test_criterion_10_determinism.
CRITERION_10 = {
    "schema_version": 1, "seed": 321,
    **FRONT,
    "domain": {"length": 45.0, "n_nodes": 97},
    "hypotheses": {"eta_min": 10.0, "theta_req": 0.0},
    "resolvent": {"trials": 3,
                  "grid": {"re_lambda": 0.5, "im_max": 10.0, "n_im": 4,
                           "real_ray": {"min": 0.3, "max": 100.0, "n": 5}}},
    "dichotomy": {"lambda": [2.0, 0.0], "pairs": 8},
    "symmetrizer": {"theta_req": 0.0, "energy_trials": 8},
    "simulation": {"t_final": 8.0, "L_sim": 40.0, "n_points": 321,
                   "tau_c": 1.5},
}

# full_small: the criterion-10 config on a domain of length 20 instead of 45,
# at the same node spacing.  Every stage and every module still runs, and the
# dichotomy is still most of the call, but a call takes about 4 s instead of
# 7.6 s on one thread.  A run of 60 s then holds five to seven calls per
# worker instead of two or three, so the median call of a run varies less
# from run to run on a shared machine.
FULL_SMALL = json.loads(json.dumps(CRITERION_10))
FULL_SMALL["domain"] = {"length": 20.0, "n_nodes": 43}

SWEEP_FRONT = {
    "schema_version": 1, "seed": 0,
    **FRONT,
    "domain": {"length": 50.0, "n_nodes": 161},
    "resolvent": {"trials": 4,
                  "grid": {"re_lambda": 0.5, "im_max": 60.0, "n_im": 24,
                           "real_ray": {"min": 0.3, "max": 1000.0, "n": 8}}},
}

# Config seeds a run draws from.  The reference file holds the certificate
# constants of every one of them, so the gate can be exact per input.
POOL = tuple(range(16))


def _initial_data(config_seed):
    """Seeded Gaussian initial data of the simulate stage."""
    rng = random.Random(f"initial-data:{config_seed}")
    return {"amplitude": 1e-3 * (0.75 + 0.5 * rng.random()),
            "width": 3.0 * (0.85 + 0.3 * rng.random())}


def make_config(workload, config_seed):
    """The config the program sees for one call (a fresh dict)."""
    if workload == "full_small":
        # The program seed stays at the criterion-10 value: it draws the
        # random dichotomy pairs, and the number of propagator windows they
        # cover (most of the run) varies from seed to seed, by 26 %
        # (quartile distance) on the criterion-10 domain.  The config seed
        # varies the simulated initial data.
        cfg = json.loads(json.dumps(FULL_SMALL))
        cfg["simulation"].update(_initial_data(config_seed))
    elif workload == "sweep_front":
        cfg = json.loads(json.dumps(SWEEP_FRONT))
        cfg["seed"] = config_seed
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return cfg


PIPELINE = {"full_small": "full", "sweep_front": "resolvent-sweep"}
WORKLOADS = tuple(PIPELINE)


def config_seeds(workload, seed):
    """The run's sequence of config seeds: a permutation of ``POOL``."""
    rng = random.Random(f"{workload}:{seed}")
    return rng.sample(POOL, len(POOL))


class Workload:
    """One workload inside a worker process: set-up, then timed calls."""

    def __init__(self, name, work_dir, first_config):
        from relaxstab import cli, profile, resolvent, systems
        self.name = name
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        # set-up covers config validation, the system, the profile and the
        # grid, so that the timed calls find every module imported and warm;
        # the CLI rebuilds them inside each call
        config = cli.RunConfig.from_dict(first_config)
        sc = config.section("system")
        system = systems.make_system(sc["name"], sc.get("params"))
        pc = config.section("profile")
        profile.solve_profile_jinxin(
            system.params["a"], pc["endstates"][0][0],
            pc["endstates"][1][0], n_points=pc["n_points"])
        dc = config.section("domain")
        resolvent.CollocationGrid(n_nodes=dc["n_nodes"], length=dc["length"])

    def call(self, config, root_span):
        """Run one timed CLI call; returns ``(wall_s, outcome)``.

        ``root_span`` is a context-manager factory that wraps exactly the
        timed region (a no-op when tracing is off).
        """
        from relaxstab import cli
        path = os.path.join(self.work_dir, "config.json")
        out = os.path.join(self.work_dir, "out")
        with open(path, "w") as fh:
            json.dump(config, fh)
        summary_path = os.path.join(out, "summary.json")
        if os.path.exists(summary_path):
            os.remove(summary_path)
        argv = ["run", "--config", path, "--pipeline", PIPELINE[self.name],
                "--out", out]
        with root_span("cli.main"):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        with open(summary_path, "rb") as fh:
            raw = fh.read()
        summary = json.loads(raw)
        return wall, {"exit_code": code,
                      "passed": _passed_flags(summary),
                      "constants": cli_constants(summary),
                      "sha256": hashlib.sha256(raw).hexdigest()}


def _passed_flags(node, path="$"):
    """Every ``passed`` field of a JSON tree, keyed by its path."""
    flags = {}
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{path}.{key}"
            if key == "passed":
                flags[sub] = value
            else:
                flags.update(_passed_flags(value, sub))
    return flags


def cli_constants(summary):
    """Certificate constants the gate checks, from a CLI ``summary.json``."""
    res = summary["results"]
    out = {}
    if "resolvent_sweep" in res:
        sw = res["resolvent_sweep"]
        out.update({"sweep.C": sw["constants"]["C"],
                    "sweep.C_pdamp": sw["constants"]["C_pdamp"],
                    "sweep.agreement": sw["agreement"],
                    "sweep.absorption_exponent": sw["absorption_exponent"]})
    if "dichotomy" in res:
        out.update({"dichotomy.theta": res["dichotomy"]["constants"]["theta"],
                    "dichotomy.C": res["dichotomy"]["constants"]["C"]})
    if "symmetrizer" in res:
        out["symmetrizer.theta_measured"] = \
            res["symmetrizer"]["theta_measured"]
    if "simulate" in res:
        sim = res["simulate"]
        out.update({"damping.C": sim["damping"]["C"],
                    "integrated_slack": sim["integrated_slack"],
                    "short_time_C": sim["short_time_C"]})
    return out
