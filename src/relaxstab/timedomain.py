"""One-dimensional semidiscrete simulator for perturbations about a wave.

Integrates (in the co-moving frame, phase modulation set to zero)

    v_t = -(A_1(wbar [+ v]) - s*I) v_x - E(x) v + f,

with characteristic-wise second-order upwind-biased differences in space and
classical fourth-order Runge-Kutta in time.  Perturbations are assumed to
vanish at the domain ends (zero ghost values); the domain must be sized so
outgoing signals decay before reaching the boundary.

Energy functionals are discrete weighted Sobolev sums

    E = sum_{k <= s} |alpha * d^k v|^2_{L2,grid},   alpha = exp(a*x),

and the verifiers below fit/check the differential damping inequality, its
Gronwall-integrated version, the short-time bound, and the time-weighted
space-time inequality obtained from temporal cutoffs.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import CertificateError, InstabilityError, StepError
from .model import zero_order_matrix
from .tables import write_csv

__all__ = [
    "SimState",
    "EnergyTrace",
    "SimHistory",
    "CutoffPair",
    "DampingFit",
    "ShortTimeFit",
    "TruncationReport",
    "make_sim",
    "step",
    "measure_energy",
    "run_simulation",
    "verify_classical_damping",
    "verify_integrated_damping",
    "verify_short_time",
    "truncation_pipeline",
    "gaussian_initial_data",
    "trace_to_csv",
]

BLOWUP_CAP = 1e6
CFL = 0.7                 # Courant number a step may not exceed
# end-node amplitude, relative to the peak, that SimState.boundary_ok allows
BOUNDARY_TOL = 1e-2
# verify_classical_damping: N_ETA candidate rates, geometric in [1e-4, ETA_MAX]
ETA_MAX = 10.0
N_ETA = 200
C_CAP = 50.0              # cap on the damping constant C
DAMPING_SLACK = 1e-9      # allowed violation where L2 + f vanishes, relative
TRUNCATION_CAP = 1e8      # cap on every truncation_pipeline constant


@dataclass(eq=False)
class SimState:
    """Perturbation state plus the frozen spatial-operator data."""

    grid: np.ndarray
    dx: float
    v: np.ndarray                # (m, n)
    t: float
    mode: str                    # "linearized" | "nonlinear"
    sys: object
    profile: object
    wbar: np.ndarray             # (m, n) wave samples
    wbar_p: np.ndarray           # (m, n) wave derivative samples
    E_nodes: np.ndarray          # (m, n, n)
    conv_cache: tuple = None     # (mu, R, Rinv) frozen for linearized mode

    def boundary_ok(self):
        peak = max(float(np.max(np.abs(self.v))), 1e-300)
        edge = max(float(np.max(np.abs(self.v[:2]))),
                   float(np.max(np.abs(self.v[-2:]))))
        return edge <= BOUNDARY_TOL * peak

    def replace(self, **kw):
        from dataclasses import replace as _replace
        return _replace(self, **kw)


def _comoving_A1(sys, speed, states):
    """Co-moving ``A_1 - s*I`` at a stack of states."""
    return sys.flux_jacs(states)[:, 0] - speed * np.eye(sys.n)


def _char_decomposition(A):
    """Eigendecomposition of a stack of co-moving convection matrices.

    The convection spectrum must be real.
    """
    mu, R = np.linalg.eig(A)
    if np.max(np.abs(mu.imag)) > 1e-8 * (1.0 + np.max(np.abs(mu.real))):
        raise StepError("convection matrix lost real spectrum")
    return mu.real, R.real, np.linalg.inv(R.real)


def make_sim(sys, profile, v0, L_sim=50.0, n_points=1001, mode="linearized"):
    """Set up a simulation on a uniform grid with initial data ``v0``.

    ``v0`` is either an ``(m, n)`` array or a callable ``x -> (n,)``.
    """
    if mode not in ("linearized", "nonlinear"):
        raise ValueError("mode must be 'linearized' or 'nonlinear'")
    grid = np.linspace(-L_sim, L_sim, n_points)
    dx = grid[1] - grid[0]
    wbar, wbar_p = profile.sample_many(grid)
    E = zero_order_matrix(sys, wbar, wbar_p)
    if callable(v0):
        v = np.array([np.atleast_1d(v0(x)) for x in grid], dtype=float)
    else:
        v = np.array(v0, dtype=float)
    if v.shape != (n_points, sys.n):
        raise ValueError(f"v0 must have shape {(n_points, sys.n)}")
    conv_cache = None
    if mode == "linearized":
        conv_cache = _char_decomposition(
            _comoving_A1(sys, profile.speed, wbar))
    return SimState(grid=grid, dx=dx, v=v, t=0.0, mode=mode, sys=sys,
                    profile=profile, wbar=wbar, wbar_p=wbar_p, E_nodes=E,
                    conv_cache=conv_cache)


def gaussian_initial_data(direction, amplitude=1e-3, center=0.0, width=3.0):
    direction = np.asarray(direction, dtype=float)

    def v0(x):
        return amplitude * np.exp(-((x - center) / width) ** 2) * direction

    return v0


def _biased_derivatives(v, dx):
    """Second-order one-sided stacks with zero ghost values."""
    m = v.shape[0]
    pad = np.zeros((2, v.shape[1]))
    vp = np.vstack([pad, v, pad])
    i = np.arange(2, m + 2)
    bwd = (3.0 * vp[i] - 4.0 * vp[i - 1] + vp[i - 2]) / (2.0 * dx)
    fwd = (-3.0 * vp[i] + 4.0 * vp[i + 1] - vp[i + 2]) / (2.0 * dx)
    return bwd, fwd


def _split_convection(sim, v, decomposition):
    """Characteristic-split upwind transport term ``-(A - sI) v_x`` from the
    eigendecomposition ``(mu, R, Rinv)`` of ``A - sI``."""
    mu, R, Rinv = decomposition
    bwd, fwd = _biased_derivatives(v, sim.dx)
    # characteristic variables, upwinded per sign
    cb = np.einsum("xij,xj->xi", Rinv, bwd)
    cf = np.einsum("xij,xj->xi", Rinv, fwd)
    dchar = np.where(mu > 0, cb, cf) * mu
    conv = np.einsum("xij,xj->xi", R, dchar)
    return -conv, float(np.max(np.abs(mu)))


def _rhs(sim, v, forcing, t):
    """Semidiscrete right-hand side.

    Linearized: ``-(A(wbar)-sI) v_x - E v``.  Nonlinear: the exact quadratic
    source is kept, ``-(A(wbar+v)-sI) (v_x + wbar') + r(wbar+v)``, which
    vanishes at ``v = 0`` by the profile equation and linearizes to the
    linearized operator.
    """
    if sim.mode == "nonlinear":
        states = sim.wbar + v
        A1 = _comoving_A1(sim.sys, sim.profile.speed, states)
        conv, speed = _split_convection(sim, v, _char_decomposition(A1))
        source = np.array([sim.sys.relax(w) for w in states])
        rhs = conv + (-np.matmul(A1, sim.wbar_p[:, :, None])[:, :, 0]
                      + source)
    else:
        conv, speed = _split_convection(sim, v, sim.conv_cache)
        rhs = conv - np.einsum("xij,xj->xi", sim.E_nodes, v)
    if forcing is not None:
        rhs = rhs + (forcing(t) if callable(forcing) else forcing)
    return rhs, speed


def step(sim, dt, forcing=None):
    """One classical Runge-Kutta step; returns the advanced state.

    Raises :class:`StepError` when ``dt`` exceeds the ``CFL`` limit and
    :class:`InstabilityError` on blowup.
    """
    k1, speed = _rhs(sim, sim.v, forcing, sim.t)
    if dt > CFL * sim.dx / max(speed, 1e-300):
        raise StepError(f"CFL violation: dt = {dt:.3g} > "
                        f"{CFL * sim.dx / speed:.3g} (max speed {speed:.3g})")
    k2, _ = _rhs(sim, sim.v + 0.5 * dt * k1, forcing, sim.t + 0.5 * dt)
    k3, _ = _rhs(sim, sim.v + 0.5 * dt * k2, forcing, sim.t + 0.5 * dt)
    k4, _ = _rhs(sim, sim.v + dt * k3, forcing, sim.t + dt)
    v_new = sim.v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(v_new)) or np.max(np.abs(v_new)) > BLOWUP_CAP:
        raise InstabilityError(f"solution blew up at t = {sim.t + dt:.4g}")
    return sim.replace(v=v_new, t=sim.t + dt)


_FD_CACHE = {}


def _fd1(m, dx, periodic):
    key = (m, round(dx, 14), periodic)
    if key not in _FD_CACHE:
        from .grids import fd_matrix
        _FD_CACHE[key] = fd_matrix(m, dx, periodic=periodic)
    return _FD_CACHE[key]


def measure_energy(sim_or_grid, v=None, s=1, alpha=0.0, periodic=False):
    """Discrete weighted Sobolev energy and weighted L2, both squared.

    ``alpha`` is the exponent of the weight ``exp(alpha*x)``.  Difference
    stacks are centered with one-sided closures (or periodic wrap) and
    support ``s <= 3``.
    """
    if v is None:
        grid, v = sim_or_grid.grid, sim_or_grid.v
    else:
        grid = np.asarray(sim_or_grid)
        v = np.atleast_2d(v)
    if s > 3:
        raise ValueError("discrete energies support s <= 3")
    m = grid.size
    dx = grid[1] - grid[0]
    wgt = np.exp(alpha * grid)[:, None]
    l2 = float(np.sum(np.abs(wgt * v) ** 2) * dx)
    total = l2
    D = _fd1(m, dx, periodic)
    dv = v
    for _ in range(s):
        dv = D @ dv
        total += float(np.sum(np.abs(wgt * dv) ** 2) * dx)
    return total, l2


@dataclass(eq=False)
class EnergyTrace:
    """Sampled energy functionals of one run."""

    times: np.ndarray
    E_values: np.ndarray         # |v|^2_{H^s_alpha}
    L2_values: np.ndarray        # |v|^2_{L2_alpha}
    f_values: np.ndarray         # |f|^2_{H^s_alpha}
    meta: dict = dfield(default_factory=dict)


@dataclass(eq=False)
class SimHistory:
    """Stored trajectory for time-integrated checks."""

    times: np.ndarray
    frames: np.ndarray           # (K, m, n)
    f_frames: np.ndarray         # (K, m, n) (zeros when unforced)
    grid: np.ndarray
    mode: str
    meta: dict = dfield(default_factory=dict)


def run_simulation(sys, profile, v0, t_final, L_sim=50.0, n_points=1001,
                   mode="linearized", s=1, alpha=0.0, forcing=None,
                   sample_every=5, store_history=False):
    """March to ``t_final`` recording an energy trace (and optional history).

    The time step is 0.9 of the ``CFL`` limit at the initial state, shortened
    to divide ``t_final`` evenly.
    """
    sim = make_sim(sys, profile, v0, L_sim=L_sim, n_points=n_points, mode=mode)
    _, speed = _rhs(sim, sim.v, None, 0.0)
    dt = CFL * sim.dx / speed * 0.9
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps

    times, Es, L2s, Fs = [], [], [], []
    frames, fframes = [], []

    def record(state):
        E, L2 = measure_energy(state, s=s, alpha=alpha)
        fval = 0.0
        if forcing is not None:
            fnow = forcing(state.t) if callable(forcing) else forcing
            fval = measure_energy(state.grid, fnow, s=s, alpha=alpha)[0]
        times.append(state.t)
        Es.append(E)
        L2s.append(L2)
        Fs.append(fval)
        if store_history:
            frames.append(state.v.copy())
            fnow = (np.zeros_like(state.v) if forcing is None
                    else (forcing(state.t) if callable(forcing) else forcing))
            fframes.append(np.array(fnow, dtype=float))

    record(sim)
    for k in range(n_steps):
        sim = step(sim, dt, forcing=forcing)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            record(sim)

    trace = EnergyTrace(times=np.asarray(times), E_values=np.asarray(Es),
                        L2_values=np.asarray(L2s), f_values=np.asarray(Fs),
                        meta={"s": s, "alpha": alpha, "dt": dt,
                              "dx": sim.dx, "mode": mode,
                              "L_sim": L_sim, "n_points": n_points})
    history = None
    if store_history:
        history = SimHistory(times=np.asarray(times),
                             frames=np.asarray(frames),
                             f_frames=np.asarray(fframes),
                             grid=sim.grid, mode=mode,
                             meta=dict(trace.meta))
    return sim, trace, history


@dataclass(frozen=True)
class DampingFit:
    feasible: bool
    eta: float
    C: float
    refuted_at: int = -1         # witness sample index when infeasible

    @property
    def passed(self):
        return self.feasible and self.eta > 0


def verify_classical_damping(trace):
    """Largest feasible decay rate in ``dE/dt <= -eta E + C (L2 + f)``.

    Central differences of the sampled energy are tested against the
    inequality at every interior sample; for each of ``N_ETA`` candidate
    rates up to ``ETA_MAX`` the minimal verifying ``C`` is computed and
    capped at ``C_CAP``.  Returns the maximal feasible ``eta`` or a
    refutation carrying the witness sample.
    """
    t = trace.times
    if t.size < 5:
        raise ValueError("trace too short to difference; sample more densely")
    idx = np.arange(1, t.size - 1)
    Edot = (trace.E_values[idx + 1] - trace.E_values[idx - 1]) / (
        t[idx + 1] - t[idx - 1])
    E = trace.E_values[idx]
    g = trace.L2_values[idx] + trace.f_values[idx]
    scale = max(float(np.max(E)), 1e-300)

    best = None
    for eta in np.geomspace(1e-4, ETA_MAX, N_ETA):
        need = Edot + eta * E
        hard = g <= 1e-14 * scale
        if np.any(need[hard] > DAMPING_SLACK * scale):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            Creq = np.where(~hard & (need > 0), need / np.maximum(g, 1e-300), 0.0)
        C = float(np.max(Creq))
        if C <= C_CAP:
            best = (float(eta), C)
    if best is None:
        witness = int(idx[int(np.argmax(Edot + 1e-4 * E))])
        return DampingFit(feasible=False, eta=0.0, C=np.inf,
                          refuted_at=witness)
    return DampingFit(feasible=True, eta=best[0], C=best[1])


def verify_integrated_damping(trace, eta, C):
    """Minimal slack in the Gronwall-integrated damping bound.

    Checks ``E(T) <= C e^{-eta T} E(0) + C int_0^T e^{-eta(T-t)} (L2 + f)``
    at every trace sample ``T`` and returns the worst (signed) slack,
    normalized by the initial energy scale.
    """
    t = trace.times
    g = trace.L2_values + trace.f_values
    scale = max(float(np.max(trace.E_values)), 1e-300)
    worst = np.inf
    for iT in range(t.size):
        T = t[iT]
        wgt = np.exp(-eta * (T - t[:iT + 1]))
        integral = np.trapezoid(wgt * g[:iT + 1], t[:iT + 1]) if iT > 0 else 0.0
        rhs = C * np.exp(-eta * T) * trace.E_values[0] + C * integral
        worst = min(worst, (rhs - trace.E_values[iT]) / scale)
    return float(worst)


@dataclass(frozen=True)
class ShortTimeFit:
    C_short: float
    refuted: bool


def verify_short_time(trace, cap=1e8):
    """Smallest ``C`` with ``E(t) <= C (E(0) + int_0^t f)`` along the trace."""
    t = trace.times
    acc = np.concatenate([[0.0], np.cumsum(
        0.5 * (trace.f_values[1:] + trace.f_values[:-1]) * np.diff(t))])
    denom = trace.E_values[0] + acc
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0, trace.E_values / np.maximum(denom, 1e-300),
                          np.where(trace.E_values > 0, np.inf, 0.0))
    C = float(np.max(ratios))
    return ShortTimeFit(C_short=C, refuted=not np.isfinite(C) or C > cap)


def _smootherstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smootherstep_d(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u ** 2 * (1.0 + u * (-2.0 + u)), 0.0)


@dataclass(frozen=True)
class CutoffPair:
    """C^2 temporal ramps: 0 -> 1 over [0, tau_c], 1 -> 0 over [T-tau_c, T]."""

    tau_c: float
    T: float

    def chi1(self, t):
        return _smootherstep(np.asarray(t, dtype=float) / self.tau_c)

    def chiT(self, t):
        return 1.0 - _smootherstep(
            (np.asarray(t, dtype=float) - (self.T - self.tau_c)) / self.tau_c)

    def product(self, t):
        return self.chi1(t) * self.chiT(t)

    def product_d(self, t):
        t = np.asarray(t, dtype=float)
        d1 = _smootherstep_d(t / self.tau_c) / self.tau_c
        dT = -_smootherstep_d(
            (t - (self.T - self.tau_c)) / self.tau_c) / self.tau_c
        return d1 * self.chiT(t) + self.chi1(t) * dT


@dataclass(frozen=True)
class TruncationReport:
    """Measured constants of the time-weighted truncation inequalities."""

    C2_weighted: float        # time-weighted space-time bound for the cut field
    C2_plateau: float         # same bound restricted to the cutoff plateau
    C_front: float            # initial-window bound
    C_tail: float             # final-window bound
    C_assembled: float        # assembled integrated-damping constant
    gamma: float
    tau_c: float
    passed: bool

    def to_dict(self):
        return {k: getattr(self, k) for k in
                ("C2_weighted", "C2_plateau", "C_front", "C_tail",
                 "C_assembled", "gamma", "tau_c", "passed")}


def _weighted_integral(t, values, weight):
    return float(np.trapezoid(weight * values, t))


def truncation_pipeline(history, cutoffs, gamma, s=1, alpha=0.0):
    """Verify the time-weighted inequalities for a cutoff trajectory.

    Forms ``vt = chi1(t) chiT(t) v`` and its forcing
    ``ft = (chi1 chiT)' v + chi1 chiT f`` (valid for linearized histories,
    where the spatial operator commutes with scalar time cutoffs), then
    measures the constants in:

    * the weighted space-time bound
      ``int e^{2 gamma (T-t)} |vt|^2_{H^s} <= C2 int e^{2 gamma (T-t)}
      (|ft|^2 + |vt|^2_{L2})``,
    * its restriction to the plateau where ``vt = v``,
    * the initial- and final-window bounds, and
    * the assembled integrated damping estimate with ``eta = -2 gamma``.

    It passes when every constant is finite and at most ``TRUNCATION_CAP``.

    A nonlinear history raises :class:`CertificateError`.
    """
    if history.mode != "linearized":
        raise CertificateError(
            "truncation pipeline requires a linearized history")
    t = history.times
    if t.size < 5:
        raise ValueError("history too short")
    if not np.all(np.isfinite(history.frames)):
        raise ValueError("history contains non-finite frames")
    T = float(t[-1])
    chi = cutoffs.product(t)
    chi_d = cutoffs.product_d(t)

    K = t.size
    hs_vt = np.empty(K)
    l2_vt = np.empty(K)
    hs_ft = np.empty(K)
    hs_v = np.empty(K)
    l2_v = np.empty(K)
    hs_f = np.empty(K)
    for kk in range(K):
        vt = chi[kk] * history.frames[kk]
        ft = chi_d[kk] * history.frames[kk] + chi[kk] * history.f_frames[kk]
        hs_vt[kk], l2_vt[kk] = measure_energy(history.grid, vt, s=s, alpha=alpha)
        hs_ft[kk] = measure_energy(history.grid, ft, s=s, alpha=alpha)[0]
        hs_v[kk], l2_v[kk] = measure_energy(history.grid, history.frames[kk],
                                            s=s, alpha=alpha)
        hs_f[kk] = measure_energy(history.grid, history.f_frames[kk], s=s,
                                  alpha=alpha)[0]

    wgt = np.exp(2.0 * gamma * (T - t))

    def ratio(lhs, rhs):
        if lhs <= 1e-28 and rhs <= 1e-28:
            return 0.0
        return lhs / max(rhs, 1e-300)

    lhs_w = _weighted_integral(t, hs_vt, wgt)
    rhs_w = _weighted_integral(t, hs_ft + l2_vt, wgt)
    C2_weighted = ratio(lhs_w, rhs_w)

    plateau = (t >= cutoffs.tau_c) & (t <= T - cutoffs.tau_c)
    lhs_p = _weighted_integral(t[plateau], hs_v[plateau], wgt[plateau])
    C2_plateau = ratio(lhs_p, rhs_w)

    tau = cutoffs.tau_c
    front = t <= tau
    lhs_f = _weighted_integral(t[front], hs_v[front], np.ones(front.sum()))
    rhs_f = hs_v[0] + _weighted_integral(t[front], hs_f[front],
                                         np.ones(front.sum()))
    C_front = ratio(lhs_f, rhs_f)

    tail = t >= T - tau
    mid = (t >= T - 2 * tau) & (t <= T - tau)
    tail_rhs = (_weighted_integral(t[mid], hs_v[mid], np.ones(mid.sum()))
                + _weighted_integral(t[t >= T - 2 * tau],
                                     hs_f[t >= T - 2 * tau],
                                     np.ones((t >= T - 2 * tau).sum())))
    C_tail = ratio(_weighted_integral(t[tail], hs_v[tail],
                                      np.ones(tail.sum())), tail_rhs)

    eta = -2.0 * gamma
    wgt_e = np.exp(-eta * (T - t))
    rhs_a = (np.exp(-eta * T) * hs_v[0]
             + _weighted_integral(t, l2_v + hs_f, wgt_e))
    C_assembled = ratio(hs_v[-1], rhs_a)

    vals = [C2_weighted, C2_plateau, C_front, C_tail, C_assembled]
    passed = all(np.isfinite(c) and c <= TRUNCATION_CAP for c in vals)
    return TruncationReport(C2_weighted=C2_weighted, C2_plateau=C2_plateau,
                            C_front=C_front, C_tail=C_tail,
                            C_assembled=C_assembled, gamma=float(gamma),
                            tau_c=float(cutoffs.tau_c), passed=passed)


def trace_to_csv(trace, path, config=None):
    """Write a trace as CSV with the run configuration echoed as JSON."""
    import json as _json
    write_csv(path, ["t", "E", "L2", "f"],
              zip(trace.times, trace.E_values, trace.L2_values,
                  trace.f_values))
    header = {"meta": trace.meta}
    if config is not None:
        header["config"] = config
    with open(str(path) + ".json", "w") as fh:
        _json.dump(header, fh, indent=2, sort_keys=True)
