"""Config-driven command line: pipelines, reports, machine-readable output.

Exit codes: 0 all requested certificates pass, 2 usage/config error,
3 numeric failure inside a pipeline, 4 a certificate was refuted.

A run is reproducible from its config file and seed; JSON summaries carry no
timestamps and are byte-identical across repeated runs.
"""

import argparse
import functools
import json
import math
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dichotomy as dich
from . import model
from . import profile as prof
from . import resolvent as res
from . import symmetrizer as symm
from . import timedomain as td
from .errors import CompatibilityError, ConfigError, RelaxstabError
from .systems import make_system
from .tables import write_csv, write_matrix_field

__all__ = ["RunConfig", "run", "report", "main", "PIPELINES"]

SCHEMA_VERSION = 1
# each names the _Runner method that runs it, with "-" for "_"
PIPELINES = ("hypotheses", "profile", "resolvent-sweep", "dichotomy",
             "symmetrizer", "simulate", "full")

REQUIRED = object()      # default of a key every config must give
# decay rate theta of the truncation check when no symmetrizer certified one
SIMULATION_THETA = 0.3

# Every config key the CLI reads: dotted path -> (type, default), plus the
# smallest allowed value of a count.  A type is a name in _TYPES, with "?"
# when null is allowed too, or a tuple of the allowed values.
OPTIONS = {
    "schema_version": ((SCHEMA_VERSION,), REQUIRED),
    "seed": ("integer", 0, 0),
    "system.name": ("string", REQUIRED),
    "system.params": ("object?", None),
    "profile.endstates": ("endstates", REQUIRED),
    "profile.speed": ("number?", None),       # required for a shooting profile
    "profile.L": ("positive?", None),         # null: chosen by the solver
    "profile.n_points": ("integer", 2001, 8),
    "domain.length": ("positive", 50.0),
    "domain.n_nodes": ("integer", 161, 8),
    "norms.s": ("integer", 1, 0),
    "norms.alpha": ("number", 0.0),
    "hypotheses.eta_min": ("positive", 10.0),
    "hypotheses.theta_req": ("number", 0.0),
    "resolvent.gamma_star": ("number", -0.25),
    "resolvent.trials": ("integer", 6, 1),
    "resolvent.grid.re_lambda": ("number", 0.5),
    "resolvent.grid.im_max": ("number", 30.0),
    "resolvent.grid.n_im": ("integer", 16, 1),
    "resolvent.grid.real_ray.min": ("positive", 0.1),
    "resolvent.grid.real_ray.max": ("positive", 1000.0),
    "resolvent.grid.real_ray.n": ("integer", 12, 1),
    "dichotomy.lambda": ("complex", (2.0, 0.0)),
    "dichotomy.pairs": ("integer", 50, 1),
    "dichotomy.dump_frames": ("boolean", False),
    "symmetrizer.theta_req": ("number", 0.0),
    "symmetrizer.energy_trials": ("integer", 50, 1),
    "symmetrizer.dump_field": ("boolean", False),
    "simulation.amplitude": ("number", 1e-3),
    "simulation.width": ("positive", 3.0),
    "simulation.t_final": ("positive", 12.0),
    "simulation.L_sim": ("positive", 50.0),
    "simulation.n_points": ("integer", 601, 8),
    "simulation.tau_c": ("positive", 2.0),
}


def _is_number(v):
    # JSON allows no NaN or infinity, but Python's reader does
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or math.isfinite(v)))


# type name -> (test, what the message says is expected)
_TYPES = {
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool),
                "an integer"),
    "number": (_is_number, "a finite number"),
    "positive": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "complex": (lambda v: isinstance(v, list) and len(v) == 2
                and all(map(_is_number, v)), "[re, im], two numbers"),
    "endstates": (lambda v: isinstance(v, list) and len(v) == 2
                  and all(isinstance(w, list) and all(map(_is_number, w))
                          for w in v), "two state vectors of numbers"),
}


def _option_tree():
    """``OPTIONS`` as nested sections: ``{"resolvent": {"grid": ...}}``."""
    tree = {}
    for path, spec in OPTIONS.items():
        *sections, key = path.split(".")
        node = tree
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = spec
    return tree


def _check_value(spec, value, where):
    kind, _, *least = spec
    if isinstance(kind, tuple):
        ok = any(type(value) is type(c) and value == c for c in kind)
        expected = "one of " + ", ".join(json.dumps(c) for c in kind)
    else:
        test, expected = _TYPES[kind.rstrip("?")]
        ok = test(value) or (kind.endswith("?") and value is None)
        expected += " or null" if kind.endswith("?") else ""
    if not ok:
        raise ConfigError(f"config invalid at {where}: expected {expected}, "
                          f"got {value!r}")
    if least and value < least[0]:
        raise ConfigError(f"config invalid at {where}: must be at least "
                          f"{least[0]}, got {value}")


def _filled(data, tree, path):
    """``data`` checked against ``tree``, with every default filled in."""
    if not isinstance(data, dict):
        raise ConfigError(f"config invalid at {path or 'top level'}: "
                          f"expected an object, got {data!r}")
    for key in data:
        if key not in tree:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"config invalid at {where}: unknown key")
    out = {}
    for key, spec in tree.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _filled(data.get(key, {}), spec, where)
        elif key in data:
            _check_value(spec, data[key], where)
            out[key] = data[key]
        elif spec[1] is REQUIRED:
            raise ConfigError(f"config invalid at {where}: required key "
                              f"missing")
        else:
            out[key] = spec[1]
    return out


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} file {path} is not readable JSON: "
                          f"{exc}") from None


@dataclass
class RunConfig:
    """A run configuration checked against ``OPTIONS``.

    ``raw`` is the dict as given, echoed by the outputs; ``section(name)``
    returns that section with every default filled in.
    """

    raw: dict
    seed: int = 0
    options: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, data):
        options = _filled(data, _option_tree(), "")
        return cls(raw=data, seed=options["seed"], options=options)

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(_load_json(path, "config"))

    def section(self, name):
        return self.options[name]


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
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_stages(config, pipeline):
    """Reject the values that the stages of ``pipeline`` cannot take, before
    any stage runs: checks that need no computation, made only for the
    stages that the pipeline reaches."""
    if pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {pipeline!r}; choose from "
                          f"{PIPELINES}")
    stages = {"full": PIPELINES,
              "symmetrizer": ("dichotomy",)}.get(pipeline, (pipeline,))
    if "resolvent-sweep" in stages:
        rc = config.section("resolvent")
        gc = rc["grid"]
        if gc["re_lambda"] < res.GAMMA_FLOOR:
            raise ConfigError(f"config invalid at resolvent.grid.re_lambda: "
                              f"must be at least gamma_floor = "
                              f"{res.GAMMA_FLOOR}, got {gc['re_lambda']}")
        lowest = min(gc["re_lambda"], gc["real_ray"]["min"])
        if rc["gamma_star"] >= lowest:
            raise ConfigError(f"config invalid at resolvent.gamma_star: must "
                              f"lie below every Re lambda of the grid, "
                              f"{lowest}, got {rc['gamma_star']}")
    if "dichotomy" in stages:
        lam = complex(*config.section("dichotomy")["lambda"])
        if lam.real < res.GAMMA_FLOOR:
            raise ConfigError(f"config invalid at dichotomy.lambda: Re lambda "
                              f"must be at least gamma_floor = "
                              f"{res.GAMMA_FLOOR}, got {lam.real}")
    if "simulate" in stages:
        s = config.section("norms")["s"]
        if s > td.MAX_ENERGY_ORDER:
            raise ConfigError(f"config invalid at norms.s: the simulation's "
                              f"discrete energies support s <= "
                              f"{td.MAX_ENERGY_ORDER}, got {s}")


def _stage(fn):
    """Mark a pipeline stage: with ``--verbose`` every run of it prints its
    name, wall time and verdict to stderr."""
    name = fn.__name__.replace("_", "-")

    @functools.wraps(fn)
    def timed(self):
        t0 = time.perf_counter()
        passed = fn(self)
        self.log(f"{name}: {time.perf_counter() - t0:.3f} s, "
                 f"{'passed' if passed else 'failed'}")
        return passed
    return timed


class _Runner:
    def __init__(self, config, out_dir, verbose=False):
        res.worker_count()       # reject a bad RELAXSTAB_THREADS up front
        self.cfg = config
        self.out = out_dir
        self.verbose = verbose
        sys_cfg = config.section("system")
        self.system = make_system(sys_cfg["name"], sys_cfg["params"])
        os.makedirs(out_dir, exist_ok=True)
        self.summary = {"schema_version": SCHEMA_VERSION,
                        "config": config.raw, "results": {}}
        self._profile = None
        self._dichotomy = None       # (field, DichotomyData) once computed
        self._theta_cert = None

    def log(self, msg):
        if self.verbose:
            print(msg, file=_sys.stderr)

    # -- pipeline pieces -------------------------------------------------
    @_stage
    def profile(self):
        pc = self.cfg.section("profile")
        w_minus = np.asarray(pc["endstates"][0], dtype=float)
        w_plus = np.asarray(pc["endstates"][1], dtype=float)
        if w_minus.size != self.system.n or w_plus.size != self.system.n:
            raise ConfigError(f"config invalid at profile.endstates: "
                              f"{self.system.name} has {self.system.n} "
                              f"components per state")
        if self.system.name == "jin_xin":
            p = prof.solve_profile_jinxin(
                self.system.params["a"], w_minus[0], w_plus[0],
                L=pc["L"], n_points=pc["n_points"])
        elif pc["speed"] is None:
            raise ConfigError("config invalid at profile.speed: a shooting "
                              "profile needs the wave speed")
        else:
            p = prof.solve_profile_shooting(
                self.system, w_minus, w_plus, pc["speed"], L=pc["L"],
                n_points=pc["n_points"])
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

    @_stage
    def hypotheses(self):
        hc = self.cfg.section("hypotheses")
        rep = model.run_hypotheses(self.system, self.get_profile(),
                                   eta_min=hc["eta_min"],
                                   theta_req=hc["theta_req"])
        payload = rep.to_dict()
        _write_json(os.path.join(self.out, "hypotheses.json"), payload)
        self.summary["results"]["hypotheses"] = payload
        return rep.passed

    @functools.cached_property
    def _geom(self):
        """The run's collocation grid, built once: the sweep and the
        dichotomy share it, and with it the wave coefficients it memoizes."""
        dc = self.cfg.section("domain")
        return res.CollocationGrid(n_nodes=dc["n_nodes"], length=dc["length"])

    def _frequency_grid(self):
        gc = self.cfg.section("resolvent")["grid"]
        pts = []
        for tau in np.linspace(0.0, gc["im_max"], gc["n_im"]):
            pts.append(res.FrequencyPoint(np.zeros(self.system.d - 1),
                                          complex(gc["re_lambda"], tau)))
        ray = gc["real_ray"]
        for lam in np.geomspace(ray["min"], ray["max"], ray["n"]):
            pts.append(res.FrequencyPoint(np.zeros(self.system.d - 1),
                                          complex(lam, 0.0)))
        return pts

    @_stage
    def resolvent_sweep(self):
        rc = self.cfg.section("resolvent")
        nc = self.cfg.section("norms")
        geom = self._geom
        p = self.get_profile()

        def family(fp):
            return res.assemble_G(self.system, p, fp, geom=geom)

        sweep = res.verify_equivalence(
            family, nc["s"], self._frequency_grid(),
            gamma_star=rc["gamma_star"], trials=rc["trials"],
            seed=self.cfg.seed)
        pts = sweep.points
        rows = zip([fp.lam.real for fp in pts], [fp.lam.imag for fp in pts],
                   [";".join(repr(float(v)) for v in fp.eta) for fp in pts],
                   sweep.hfres_gain, sweep.pdamp_gain, sweep.absorption,
                   sweep.hfres_pass.astype(int).tolist(),
                   sweep.pdamp_pass.astype(int).tolist())
        write_csv(os.path.join(self.out, "sweep.csv"),
                  ["re_lambda", "im_lambda", "eta", "hfres_gain",
                   "pdamp_gain", "absorption", "hfres_pass", "pdamp_pass"],
                  rows)
        # a flagged (singular-set) point has no gain and fails hfres_pass
        passed = sweep.agreement == 1.0 and bool(np.all(sweep.hfres_pass))
        flagged = [{"re_lambda": pts[i].lam.real, "im_lambda": pts[i].lam.imag,
                    "eta": pts[i].eta, "message": msg}
                   for i, msg in sweep.flagged]
        payload = {
            "constants": sweep.constants, "method": sweep.method,
            "agreement": sweep.agreement, "n_flagged": sweep.n_flagged,
            "flagged": flagged,
            "bounded_ratio": sweep.bounded_ratio,
            "absorption_exponent": sweep.absorption_exponent,
            "passed": passed,
        }
        _write_json(os.path.join(self.out, "sweep.json"), payload)
        self.summary["results"]["resolvent_sweep"] = payload
        return passed

    def _field_at(self, lam):
        geom = self._geom
        fp = res.FrequencyPoint(np.zeros(self.system.d - 1), lam)
        return res.assemble_G(self.system, self.get_profile(), fp, geom=geom)

    @_stage
    def dichotomy(self):
        dc = self.cfg.section("dichotomy")
        field = self._field_at(complex(*dc["lambda"]))
        data = dich.propagate_subspaces(field, seed=self.cfg.seed)
        # pairs of their own: with the fit's seed the verifier would check
        # the fit's first pairs, and its decay check could not fail
        chk = dich.verify_dichotomy(data, field, sample_pairs=dc["pairs"],
                                    seed=self.cfg.seed + 1)
        payload = {
            "ranks": list(data.ranks), "constants": data.constants,
            "block_residual": data.block_residual,
            "worst_commute": chk.worst_commute,
            "worst_decay_log_excess": chk.worst_decay,
            "passed": chk.passed,
        }
        _write_json(os.path.join(self.out, "dichotomy.json"), payload)
        if dc["dump_frames"]:
            write_matrix_field(os.path.join(self.out, "frames.csv"), "T",
                               data.grid, data.frame)
        self.summary["results"]["dichotomy"] = payload
        self._dichotomy = (field, data)
        return chk.passed

    @_stage
    def symmetrizer(self):
        sc = self.cfg.section("symmetrizer")
        if self._dichotomy is None:
            self.dichotomy()
        field, data = self._dichotomy
        forms = symm.lyapunov_Q(data.grid, data.lambda_plus, data.lambda_minus)
        S = symm.assemble_symmetrizer(data.frame, forms)
        cert = symm.verify_symmetrizer(S, field,
                                       theta_req=sc["theta_req"],
                                       energy_trials=sc["energy_trials"],
                                       seed=self.cfg.seed)
        payload = asdict(cert)
        _write_json(os.path.join(self.out, "symmetrizer.json"), payload)
        if sc["dump_field"]:
            write_matrix_field(os.path.join(self.out,
                                            "symmetrizer_field.csv"), "S",
                               S.grid, S.S)
        self.summary["results"]["symmetrizer"] = payload
        self._theta_cert = cert.theta_measured
        return cert.passed

    @_stage
    def simulate(self):
        mc = self.cfg.section("simulation")
        nc = self.cfg.section("norms")
        p = self.get_profile()
        v0 = td.gaussian_initial_data(
            np.ones(self.system.n), amplitude=mc["amplitude"],
            width=mc["width"])
        sim, trace, hist = td.run_simulation(
            self.system, p, v0, t_final=mc["t_final"], L_sim=mc["L_sim"],
            n_points=mc["n_points"], s=nc["s"], alpha=nc["alpha"],
            store_history=True)
        td.trace_to_csv(trace, os.path.join(self.out, "trace.csv"),
                        config=self.cfg.raw)
        fit = td.verify_classical_damping(trace)
        slack = (td.verify_integrated_damping(trace, fit.eta, max(1.0, fit.C))
                 if fit.feasible else -np.inf)
        short = td.verify_short_time(trace)
        theta = self._theta_cert if self._theta_cert else SIMULATION_THETA
        cuts = td.CutoffPair(tau_c=mc["tau_c"],
                             T=float(trace.times[-1]))
        trunc = td.truncation_pipeline(hist, cuts, gamma=-abs(theta) / 2.0,
                                       s=nc["s"], alpha=nc["alpha"])
        passed = bool(fit.passed and slack >= 0 and not short.refuted
                      and trunc.passed and sim.boundary_ok())
        payload = {
            "damping": {"eta": fit.eta, "C": fit.C, "feasible": fit.feasible},
            "integrated_slack": slack,
            "short_time_C": short.C_short,
            "truncation": asdict(trunc),
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
            r["passed"] for r in self.summary["results"].values())
        _write_json(os.path.join(self.out, "summary.json"), self.summary)
        return self.summary["passed"]


def run(config, pipeline="full", out_dir="out", verbose=False):
    """Execute a pipeline; returns the process exit code."""
    try:
        _check_stages(config, pipeline)
        runner = _Runner(config, out_dir, verbose=verbose)
    except RelaxstabError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 2
    try:
        passed = getattr(runner, pipeline.replace("-", "_"))()
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
        data = _load_json(path, "summary")
        if not isinstance(data, dict):
            raise ConfigError(f"summary {path} is not a JSON object")
        v = data.get("schema_version")
        if version is None:
            version = v
        elif v != version:
            raise CompatibilityError(
                f"summary {path} has schema_version {v}, expected {version}")
        results = data.get("results", {})
        if not (isinstance(results, dict)
                and all(isinstance(r, dict) for r in results.values())):
            raise ConfigError(f"summary {path}: results is not an object of "
                              f"JSON objects")
        keep = ("passed", "theta_measured", "c0_measured", "chf_theta",
                "constants", "eta", "agreement", "damping",
                "integrated_slack", "absorption_exponent")
        merged[str(path)] = {
            "passed": data.get("passed"),
            "results": {k: {kk: vv for kk, vv in r.items() if kk in keep}
                        for k, r in results.items()},
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
            if args.seed is not None:
                config = RunConfig.from_dict({**config.raw,
                                              "seed": args.seed})
        except ConfigError as exc:
            print(f"usage error: {exc}", file=_sys.stderr)
            return 2
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
