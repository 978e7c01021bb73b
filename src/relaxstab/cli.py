"""Config-driven command line: pipelines, reports, machine-readable output.

Exit codes: 0 all requested certificates pass, 2 usage/config error,
3 numeric failure inside a pipeline, 4 a certificate was refuted.

A run is reproducible from its config file and seed; JSON summaries carry no
timestamps and are byte-identical across repeated runs.
"""

import argparse
import csv
import json
import os
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from . import dichotomy as dich
from . import model
from . import profile as prof
from . import resolvent as res
from . import symmetrizer as symm
from . import timedomain as td
from .errors import CompatibilityError, ConfigError, RelaxstabError
from .systems import make_system

__all__ = ["RunConfig", "run", "report", "main", "PIPELINES"]

SCHEMA_VERSION = 1
PIPELINES = ("hypotheses", "profile", "resolvent-sweep", "dichotomy",
             "symmetrizer", "simulate", "full")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "system", "profile"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer"},
        "system": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"type": "string"},
                           "params": {"type": "object"}},
        },
        "profile": {
            "type": "object",
            "required": ["endstates"],
            "properties": {
                "endstates": {"type": "array", "minItems": 2, "maxItems": 2},
                "speed": {"type": ["number", "null"]},
                "L": {"type": ["number", "null"]},
                "n_points": {"type": "integer", "minimum": 8},
                "tol_end": {"type": "number"},
            },
        },
        "domain": {
            "type": "object",
            "properties": {"length": {"type": "number"},
                           "n_nodes": {"type": "integer", "minimum": 8}},
        },
        "norms": {
            "type": "object",
            "properties": {"s": {"type": "integer", "minimum": 0},
                           "alpha": {"type": "number"}},
        },
        "hypotheses": {"type": "object"},
        "resolvent": {"type": "object"},
        "dichotomy": {"type": "object"},
        "symmetrizer": {"type": "object"},
        "simulation": {"type": "object"},
    },
}


@dataclass
class RunConfig:
    """Validated run configuration (see ``CONFIG_SCHEMA``)."""

    raw: dict
    seed: int = 0

    @classmethod
    def from_dict(cls, data):
        import jsonschema
        try:
            jsonschema.validate(data, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            path = "$" + "".join(f"[{p!r}]" for p in exc.absolute_path)
            raise ConfigError(f"config invalid at {path}: {exc.message}") from None
        return cls(raw=data, seed=int(data.get("seed", 0)))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def section(self, name, default=None):
        return self.raw.get(name, default or {})


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Runner:
    def __init__(self, config, out_dir, verbose=False):
        self.cfg = config
        self.out = out_dir
        self.verbose = verbose
        os.makedirs(out_dir, exist_ok=True)
        sys_cfg = config.section("system")
        self.system = make_system(sys_cfg["name"], sys_cfg.get("params"))
        self.summary = {"schema_version": SCHEMA_VERSION,
                        "config": config.raw, "results": {}}
        self._profile = None
        self._dichotomy = None       # (field, DichotomyData) once computed
        self._theta_cert = None

    def log(self, msg):
        if self.verbose:
            print(msg)

    # -- pipeline pieces -------------------------------------------------
    def profile(self):
        pc = self.cfg.section("profile")
        w_minus = np.asarray(pc["endstates"][0], dtype=float)
        w_plus = np.asarray(pc["endstates"][1], dtype=float)
        if self.system.name == "jin_xin":
            p = prof.solve_profile_jinxin(
                self.system.params["a"], w_minus[0], w_plus[0],
                L=pc.get("L"), n_points=pc.get("n_points", 2001),
                tol_end=pc.get("tol_end", 1e-8))
        else:
            p = prof.solve_profile_shooting(
                self.system, w_minus, w_plus, pc["speed"],
                L=pc.get("L", 50.0), n_points=pc.get("n_points", 2001),
                tol=pc.get("tol_end", 1e-8))
        self._profile = p
        prof.save_profile(p, os.path.join(self.out, "profile.csv"))
        self.summary["results"]["profile"] = {
            "speed": p.speed, "decay_rate": p.decay_rate,
            "end_error": p.end_error, "length": p.length, "passed": True}
        return True

    def get_profile(self):
        if self._profile is None:
            self.profile()
        return self._profile

    def hypotheses(self):
        hc = self.cfg.section("hypotheses")
        rep = model.run_hypotheses(self.system, self.get_profile(),
                                   eta_min=hc.get("eta_min", 10.0),
                                   theta_req=hc.get("theta_req", 0.0))
        payload = rep.to_dict()
        _write_json(os.path.join(self.out, "hypotheses.json"), payload)
        self.summary["results"]["hypotheses"] = payload
        return rep.passed

    def _geom(self):
        dc = self.cfg.section("domain")
        return res.CollocationGrid(n_nodes=dc.get("n_nodes", 161),
                                   length=dc.get("length", 50.0))

    def _frequency_grid(self):
        rc = self.cfg.section("resolvent")
        gc = rc.get("grid", {})
        pts = []
        re0 = gc.get("re_lambda", 0.5)
        for tau in np.linspace(0.0, gc.get("im_max", 30.0),
                               gc.get("n_im", 16)):
            pts.append(res.FrequencyPoint(np.zeros(self.system.d - 1),
                                          complex(re0, tau)))
        ray = gc.get("real_ray", {})
        for lam in np.geomspace(ray.get("min", 0.1), ray.get("max", 1000.0),
                                ray.get("n", 12)):
            pts.append(res.FrequencyPoint(np.zeros(self.system.d - 1),
                                          complex(lam, 0.0)))
        return pts

    def resolvent_sweep(self):
        rc = self.cfg.section("resolvent")
        nc = self.cfg.section("norms")
        geom = self._geom()
        p = self.get_profile()

        def family(fp):
            return res.assemble_G(self.system, p, fp, geom=geom)

        repq = res.verify_equivalence(
            family, nc.get("s", 1), self._frequency_grid(),
            gamma_star=rc.get("gamma_star", -0.25),
            trials=rc.get("trials", 6), seed=self.cfg.seed,
            threads=rc.get("threads"))
        sweep = repq.sweep
        with open(os.path.join(self.out, "sweep.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re_lambda", "im_lambda", "eta", "hfres_gain",
                             "pdamp_gain", "absorption", "hfres_pass",
                             "pdamp_pass"])
            for row in sweep.rows():
                writer.writerow([repr(row["re_lambda"]), repr(row["im_lambda"]),
                                 ";".join(repr(v) for v in row["eta"]),
                                 repr(row["hfres_gain"]), repr(row["pdamp_gain"]),
                                 repr(row["absorption"]),
                                 int(row["hfres_pass"]), int(row["pdamp_pass"])])
        passed = (repq.agreement == 1.0
                  and bool(np.all(sweep.hfres_pass | ~np.isfinite(sweep.hfres_gain))))
        payload = {
            "constants": sweep.constants, "method": sweep.method,
            "agreement": repq.agreement, "n_flagged": repq.n_flagged,
            "bounded_ratio": repq.bounded_ratio,
            "absorption_exponent": repq.absorption_exponent,
            "passed": passed,
        }
        _write_json(os.path.join(self.out, "sweep.json"), payload)
        self.summary["results"]["resolvent_sweep"] = payload
        return passed

    def _field_at(self, lam):
        geom = self._geom()
        fp = res.FrequencyPoint(np.zeros(self.system.d - 1), lam)
        return res.assemble_G(self.system, self.get_profile(), fp, geom=geom)

    def dichotomy(self):
        dc = self.cfg.section("dichotomy")
        lam = complex(*dc.get("lambda", [2.0, 0.0]))
        field = self._field_at(lam)
        data = dich.propagate_subspaces(field, seed=self.cfg.seed)
        chk = dich.verify_dichotomy(data, field,
                                    sample_pairs=dc.get("pairs", 50),
                                    tol=dc.get("tol", 1e-6),
                                    seed=self.cfg.seed)
        payload = {
            "ranks": list(data.ranks), "constants": data.constants,
            "block_residual": data.block_residual,
            "worst_commute": chk.worst_commute,
            "worst_decay_log_excess": chk.worst_decay,
            "passed": chk.passed,
        }
        _write_json(os.path.join(self.out, "dichotomy.json"), payload)
        if dc.get("dump_frames"):
            dich.frames_to_csv(data, os.path.join(self.out, "frames.csv"))
        self.summary["results"]["dichotomy"] = payload
        self._dichotomy = (field, data)
        return chk.passed

    def symmetrizer(self):
        sc = self.cfg.section("symmetrizer")
        if self._dichotomy is None:
            self.dichotomy()
        field, data = self._dichotomy
        forms = symm.lyapunov_Q(data.grid, data.lambda_plus, data.lambda_minus)
        S = symm.assemble_symmetrizer(data.frame, forms)
        cert = symm.verify_symmetrizer(S, field,
                                       theta_req=sc.get("theta_req", 0.0),
                                       energy_trials=sc.get("energy_trials", 50),
                                       seed=self.cfg.seed)
        payload = cert.to_dict()
        _write_json(os.path.join(self.out, "symmetrizer.json"), payload)
        if sc.get("dump_field"):
            symm.field_to_csv(S, os.path.join(self.out,
                                              "symmetrizer_field.csv"))
        self.summary["results"]["symmetrizer"] = payload
        self._theta_cert = cert.theta_measured
        return cert.passed

    def simulate(self):
        mc = self.cfg.section("simulation")
        nc = self.cfg.section("norms")
        p = self.get_profile()
        v0 = td.gaussian_initial_data(
            np.ones(self.system.n), amplitude=mc.get("amplitude", 1e-3),
            width=mc.get("width", 3.0))
        sim, trace, hist = td.run_simulation(
            self.system, p, v0, t_final=mc.get("t_final", 12.0),
            L_sim=mc.get("L_sim", 50.0), n_points=mc.get("n_points", 601),
            mode=mc.get("mode", "linearized"), s=nc.get("s", 1),
            alpha=nc.get("alpha", 0.0), sample_every=mc.get("sample_every", 5),
            store_history=True)
        td.trace_to_csv(trace, os.path.join(self.out, "trace.csv"),
                        config=self.cfg.raw)
        fit = td.verify_classical_damping(trace)
        slack = (td.verify_integrated_damping(trace, fit.eta, max(1.0, fit.C))
                 if fit.feasible else -np.inf)
        short = td.verify_short_time(trace)
        theta = self._theta_cert if self._theta_cert else mc.get("theta", 0.3)
        cuts = td.CutoffPair(tau_c=mc.get("tau_c", 2.0),
                             T=float(trace.times[-1]))
        trunc = td.truncation_pipeline(hist, cuts, gamma=-abs(theta) / 2.0,
                                       s=nc.get("s", 1),
                                       alpha=nc.get("alpha", 0.0))
        passed = bool(fit.passed and slack >= 0 and not short.refuted
                      and trunc.passed and sim.boundary_ok())
        payload = {
            "damping": {"eta": fit.eta, "C": fit.C, "feasible": fit.feasible},
            "integrated_slack": slack,
            "short_time_C": short.C_short,
            "truncation": trunc.to_dict(),
            "boundary_ok": sim.boundary_ok(),
            "passed": passed,
        }
        _write_json(os.path.join(self.out, "simulate.json"), payload)
        self.summary["results"]["simulate"] = payload
        return passed

    def full(self):
        ok = self.profile()
        for step_fn in (self.hypotheses, self.resolvent_sweep, self.dichotomy,
                        self.symmetrizer, self.simulate):
            ok = step_fn() and ok
        return ok

    def finish(self):
        self.summary["passed"] = all(
            r.get("passed", True) for r in self.summary["results"].values())
        _write_json(os.path.join(self.out, "summary.json"), self.summary)
        return self.summary["passed"]


def run(config, pipeline="full", out_dir="out", verbose=False):
    """Execute a pipeline; returns the process exit code."""
    try:
        runner = _Runner(config, out_dir, verbose=verbose)
    except (ConfigError, KeyError, RelaxstabError) as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 2
    name_map = {
        "hypotheses": runner.hypotheses,
        "profile": runner.profile,
        "resolvent-sweep": runner.resolvent_sweep,
        "dichotomy": runner.dichotomy,
        "symmetrizer": runner.symmetrizer,
        "simulate": runner.simulate,
        "full": runner.full,
    }
    if pipeline not in name_map:
        print(f"usage error: unknown pipeline {pipeline!r}; "
              f"choose from {PIPELINES}", file=_sys.stderr)
        return 2
    try:
        passed = name_map[pipeline]()
        runner.finish()
    except ConfigError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 2
    except RelaxstabError as exc:
        print(f"numeric failure in {pipeline}: {exc}", file=_sys.stderr)
        return 3
    if not passed:
        print(f"certificate refuted in pipeline {pipeline!r} "
              f"(see {out_dir}/summary.json)", file=_sys.stderr)
        return 4
    return 0


def report(paths):
    """Merge JSON summaries of prior runs into one table.

    Raises :class:`CompatibilityError` on schema-version mismatch and
    :class:`ConfigError` on an empty path list.
    """
    if not paths:
        raise ConfigError("report needs at least one summary path")
    merged = {}
    version = None
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        v = data.get("schema_version")
        if version is None:
            version = v
        elif v != version:
            raise CompatibilityError(
                f"summary {path} has schema_version {v}, expected {version}")
        keep = ("passed", "theta_measured", "c0_measured", "chf_theta",
                "constants", "eta", "agreement", "damping",
                "integrated_slack", "absorption_exponent")
        merged[str(path)] = {
            "passed": data.get("passed"),
            "results": {k: {kk: vv for kk, vv in r.items() if kk in keep}
                        for k, r in data.get("results", {}).items()},
        }
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="relaxstab",
        description="Stability diagnostics for traveling waves of "
                    "hyperbolic relaxation systems")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute a pipeline from a config file")
    runp.add_argument("--config", required=True)
    runp.add_argument("--pipeline", default="full",
                      help=f"one of {', '.join(PIPELINES)}")
    runp.add_argument("--out", default="out")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--verbose", action="store_true")
    repp = sub.add_parser("report", help="merge summaries of prior runs")
    repp.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            config = RunConfig.from_file(args.config)
        except ConfigError as exc:
            print(f"usage error: {exc}", file=_sys.stderr)
            return 2
        if args.seed is not None:
            config.raw["seed"] = args.seed
            config.seed = args.seed
        return run(config, pipeline=args.pipeline, out_dir=args.out,
                   verbose=args.verbose)
    if args.command == "report":
        try:
            merged = report(args.paths)
        except (ConfigError, CompatibilityError) as exc:
            print(f"usage error: {exc}", file=_sys.stderr)
            return 2
        print(json.dumps(_jsonable(merged), indent=2, sort_keys=True))
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
