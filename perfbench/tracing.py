"""Spans and counters installed from outside the program.

``install(tracer)`` replaces module attributes of ``relaxstab`` with wrappers
that record a span (name, start, end, parent) around every call into the
public functions of the traced modules, plus a few scipy entry points and
methods that the per-layer metrics need.  Nothing inside the package is
edited; the wrappers only exist in a traced worker process.

Spans are kept in memory per thread and written out when the run ends.
Calls made from the sweep's thread pool get the span that was open on the
main thread as their parent, so the spans of one call form one tree.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager

MODULES = ("profile", "model", "resolvent", "dichotomy", "symmetrizer",
           "timedomain")
# The benchmark opens a "cli.main" span around each call into the CLI entry
# point.  Its self time is the glue outside the library spans: config
# handling, JSON and CSV writing, the CLI's own code.


class Tracer:
    """In-memory span and counter store, safe for the sweep thread pool."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._main = self._state()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {"stack": [], "spans": [], "counts": {}}
            with self._lock:
                self._states.append(st)
        return st

    def count(self, key, amount=1):
        counts = self._state()["counts"]
        counts[key] = counts.get(key, 0) + amount

    @contextmanager
    def span(self, name):
        st = self._state()
        sid = next(self._ids)
        if st["stack"]:
            parent = st["stack"][-1]
        else:
            main = self._main["stack"]
            parent = main[-1] if main else 0
        st["stack"].append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st["stack"].pop()
            st["spans"].append((sid, name, t0, t1, parent))

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` counts work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def drain(self):
        """Remove and return the spans and counts recorded so far."""
        spans, counts = [], {}
        with self._lock:
            for st in self._states:
                spans.extend(st["spans"])
                st["spans"] = []
                for key, value in st["counts"].items():
                    counts[key] = counts.get(key, 0) + value
                st["counts"] = {}
        spans.sort(key=lambda s: (s[2], s[0]))
        return spans, counts


def _after_ivp(module):
    def after(tracer, args, sol):
        tracer.count(f"{module}.ivp_calls")
        tracer.count(f"{module}.rhs_evals", int(sol.nfev))
    return after


def _after_lu_factor(tracer, args, result):
    n = args[0].shape[0]
    tracer.count("resolvent.lu_factor_calls")
    tracer.count("resolvent.lu_gflop_computed", 8.0 / 3.0 * n ** 3 / 1e9)


def _after_lu_solve(tracer, args, result):
    n = args[0][0].shape[0]
    cols = 1 if args[1].ndim == 1 else args[1].shape[1]
    tracer.count("resolvent.solve_columns", cols)
    tracer.count("resolvent.solve_gflop_computed", 8.0 * n ** 2 * cols / 1e9)


def _after_assemble(tracer, args, field):
    tracer.count("resolvent.assemble_calls")
    tracer.count(f"frequency:{field.fp.eta.tolist()}:{field.fp.lam!r}")


def _after_zero_order(tracer, args, result):
    tracer.count("model.zero_order_matrix_calls")


AFTER = {"resolvent.assemble_G": _after_assemble,
         "model.zero_order_matrix": _after_zero_order}


def install(tracer):
    """Wrap the traced modules' public functions and the counted entry points."""
    mods = {m: importlib.import_module(f"relaxstab.{m}") for m in MODULES}
    wrapped = {}
    for mname, mod in mods.items():
        for fname in getattr(mod, "__all__", ()):
            fn = getattr(mod, fname, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{mname}.{fname}"
                wrapped[fn] = tracer.wrap(name, fn, AFTER.get(name))
    # patch every binding, including `from .model import zero_order_matrix`
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])

    # scipy entry points, replaced in the module that calls them
    for mname in ("dichotomy", "symmetrizer"):
        setattr(mods[mname], "solve_ivp",
              tracer.wrap(f"{mname}.solve_ivp", mods[mname].solve_ivp,
                          _after_ivp(mname)))
    res = mods["resolvent"]
    setattr(res, "lu_factor", tracer.wrap("resolvent.lu_factor", res.lu_factor,
                                        _after_lu_factor))
    setattr(res, "lu_solve", tracer.wrap("resolvent.lu_solve", res.lu_solve,
                                       _after_lu_solve))

    # Methods.  Only the first G_at of a field (the PCHIP cache build) gets a
    # span: a span on every G_at call would inflate the dichotomy by half.
    # flux_jacs is counted, not timed, for the same reason.
    field_cls = res.ResolventOperatorField
    g_at = field_cls.G_at
    build = tracer.wrap("resolvent.G_at_build", g_at)

    def G_at(self, x):
        if self._interp is None:
            return build(self, x)
        return g_at(self, x)

    setattr(field_cls, "G_at", G_at)
    spec = mods["model"].SystemSpec
    flux_jacs = spec.flux_jacs

    def counted_flux_jacs(self, w):
        tracer.count("model.flux_jacs_calls")
        return flux_jacs(self, w)

    setattr(spec, "flux_jacs", counted_flux_jacs)


def module_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Wall-clock self time of every span, keyed by span id.

    At each instant the elapsed time goes to the innermost open spans (open
    spans with no open child).  When the sweep's threads run two such spans
    at once the instant is split evenly between them, so self times are
    never negative and add up to the wall time covered by the root spans.
    """
    parent = {sid: par for sid, _, _, _, par in spans}
    events = []
    for sid, _, t0, t1, _ in spans:
        events.append((t0, 1, sid))
        events.append((t1, 0, -sid))    # at a tie, inner spans close first
    events.sort()
    own = dict.fromkeys(parent, 0.0)
    open_children = dict.fromkeys(parent, 0)
    is_open, leaves = set(), set()
    prev = None
    for t, is_start, key in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        prev = t
        sid = key if is_start else -key
        par = parent[sid]
        if is_start:
            is_open.add(sid)
            leaves.add(sid)
            if par in is_open:
                open_children[par] += 1
                leaves.discard(par)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if par in is_open:
                open_children[par] -= 1
                if open_children[par] == 0:
                    leaves.add(par)
    return own


# per-layer metric -> span names whose summed duration it reports
BUSY = {
    "dichotomy.propagate_s": ("dichotomy.propagate_subspaces",),
    "dichotomy.verify_s": ("dichotomy.verify_dichotomy",),
    "dichotomy.block_diagonalize_s": ("dichotomy.block_diagonalize",),
    "dichotomy.ivp_s": ("dichotomy.solve_ivp",),
    "symmetrizer.lyapunov_s": ("symmetrizer.lyapunov_Q",),
    "symmetrizer.verify_s": ("symmetrizer.verify_symmetrizer",),
    "symmetrizer.energy_check_s": ("symmetrizer.energy_estimate_check",),
    "resolvent.assemble_s": ("resolvent.assemble_G",),
    "resolvent.lu_factor_s": ("resolvent.lu_factor",),
    "resolvent.solve_s": ("resolvent.lu_solve",),
    "resolvent.gain_s": ("resolvent.estimate_resolvent_gain",),
    "resolvent.G_at_build_s": ("resolvent.G_at_build",),
    "model.hypotheses_s": ("model.run_hypotheses",),
    "timedomain.make_sim_s": ("timedomain.make_sim",),
    "timedomain.step_s": ("timedomain.step",),
    "timedomain.energy_s": ("timedomain.measure_energy",),
    "timedomain.checks_s": ("timedomain.verify_classical_damping",
                            "timedomain.verify_integrated_damping",
                            "timedomain.verify_short_time",
                            "timedomain.truncation_pipeline"),
}
COUNTS = ("dichotomy.ivp_calls", "dichotomy.rhs_evals",
          "symmetrizer.ivp_calls", "symmetrizer.rhs_evals",
          "resolvent.assemble_calls", "resolvent.lu_factor_calls",
          "resolvent.solve_columns", "resolvent.lu_gflop_computed",
          "resolvent.solve_gflop_computed", "model.flux_jacs_calls",
          "model.zero_order_matrix_calls")


def layer_metrics(spans, counts):
    """Per-layer numbers of one traced call from its spans and counters.

    Times named ``*_s`` other than ``*.self_s`` are summed span durations,
    added over the sweep's threads where they run in parallel; ``*.self_s``
    is wall-clock self time, so the self times add up to the call's wall
    time (``wall_s`` here).
    """
    busy = {}
    for _, name, t0, t1, _ in spans:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
    out = {key: sum(busy.get(n, 0.0) for n in names)
           for key, names in BUSY.items()}
    out.update({key: counts.get(key, 0) for key in COUNTS})
    out["timedomain.step_calls"] = sum(
        1 for s in spans if s[1] == "timedomain.step")
    points = sum(1 for key in counts if key.startswith("frequency:"))
    out["resolvent.lu_per_point"] = (
        counts.get("resolvent.lu_factor_calls", 0) / points if points else 0.0)
    own = self_times(spans)
    for module in ("cli",) + MODULES:
        out[f"{module}.self_s"] = 0.0
    for sid, name, _, _, _ in spans:
        key = f"{module_of(name)}.self_s"
        out[key] = out.get(key, 0.0) + own[sid]
    out["wall_s"] = sum(t1 - t0 for _, _, t0, t1, parent in spans
                        if parent == 0)
    return out
