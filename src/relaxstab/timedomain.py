"""One-dimensional semidiscrete simulator for perturbations about a wave.

Integrates the linearized equation (in the co-moving frame, phase
modulation set to zero)

    v_t = -(A_1(wbar) - s*I) v_x - E(x) v + f,

with characteristic-wise second-order upwind-biased differences in space and
classical fourth-order Runge-Kutta in time.  Perturbations are assumed to
vanish at the domain ends (zero ghost values); the domain must be sized so
outgoing signals decay before reaching the boundary.

The operator is frozen: :func:`make_sim` builds it once as a 5-point
stencil per node (the upwind split of ``A_1 - sI`` with ``-E`` folded in),
and every stage applies it in one contraction over a sliding window.

Energy functionals are discrete weighted Sobolev sums

    E = sum_{k <= s} |alpha * d^k v|^2_{L2,grid},   alpha = exp(a*x),

taken by :func:`measure_energy` of one field or a stack of fields, and the
verifiers below fit/check the differential damping inequality, its
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
SHORT_TIME_CAP = 1e8      # verify_short_time refutes a larger C
MAX_ENERGY_ORDER = 3      # highest Sobolev order of measure_energy


@dataclass(eq=False)
class SimState:
    """Perturbation state plus the frozen linearized operator."""

    grid: np.ndarray
    dx: float
    v: np.ndarray                # (m, n)
    t: float
    stencil: np.ndarray          # (m, n, 5n) linearized operator, see _rhs
    speed: float                 # its largest characteristic speed

    def boundary_ok(self):
        peak = max(float(np.max(np.abs(self.v))), 1e-300)
        edge = max(float(np.max(np.abs(self.v[:2]))),
                   float(np.max(np.abs(self.v[-2:]))))
        return edge <= BOUNDARY_TOL * peak

    def replace(self, **kw):
        from dataclasses import replace as _replace
        return _replace(self, **kw)


def _char_decomposition(A):
    """Eigendecomposition of a stack of co-moving convection matrices.

    The convection spectrum must be real.
    """
    mu, R = np.linalg.eig(A)
    if np.max(np.abs(mu.imag)) > 1e-8 * (1.0 + np.max(np.abs(mu.real))):
        raise StepError("convection matrix lost real spectrum")
    return mu.real, R.real, np.linalg.inv(R.real)


def make_sim(sys, profile, v0, L_sim=50.0, n_points=1001):
    """Set up a simulation on a uniform grid with initial data ``v0``,
    a callable ``x -> (n,)``."""
    grid = np.linspace(-L_sim, L_sim, n_points)
    dx = grid[1] - grid[0]
    wbar, wbar_p = profile.sample_many(grid)
    E = zero_order_matrix(sys, wbar, wbar_p)
    v = np.array([np.atleast_1d(v0(x)) for x in grid], dtype=float)
    if v.shape != (n_points, sys.n):
        raise ValueError(f"v0 must have shape {(n_points, sys.n)}")
    mu, R, Rinv = _char_decomposition(
        sys.flux_jacs(wbar)[:, 0] - profile.speed * np.eye(sys.n))
    return SimState(grid=grid, dx=dx, v=v, t=0.0,
                    stencil=_upwind_stencil(mu, R, Rinv, E, dx),
                    speed=float(np.max(np.abs(mu))))


def gaussian_initial_data(direction, amplitude=1e-3, center=0.0, width=3.0):
    direction = np.asarray(direction, dtype=float)

    def v0(x):
        return amplitude * np.exp(-((x - center) / width) ** 2) * direction

    return v0


def _upwind_stencil(mu, R, Rinv, E, dx):
    """The linearized right-hand side ``-(A - sI) v_x - E v`` as a 5-point
    stencil per node, ``(m, n, 5n)``, from the eigendecomposition
    ``A - sI = R diag(mu) Rinv`` at each node.

    Block ``k`` of node ``x`` multiplies ``v[x + k - 2]``.  Characteristics
    with ``mu > 0`` take the second-order backward difference
    ``(3v_x - 4v_{x-1} + v_{x-2}) / 2dx``, the others the forward one
    ``(-3v_x + 4v_{x+1} - v_{x+2}) / 2dx``.
    """
    up = mu > 0
    scale = -1.0 / (2.0 * dx)
    Mb = np.einsum("xij,xj,xjk->xik", R, np.where(up, mu, 0.0), Rinv) * scale
    Mf = np.einsum("xij,xj,xjk->xik", R, np.where(up, 0.0, mu), Rinv) * scale
    S = np.stack([Mb, -4.0 * Mb, 3.0 * (Mb - Mf) - E, 4.0 * Mf, -Mf], axis=2)
    return S.reshape(S.shape[0], S.shape[1], -1)


def _apply_stencil(stencil, v):
    """``stencil`` (:func:`_upwind_stencil`) applied to ``v`` ``(m, n)``
    with zero ghost values."""
    m, n = v.shape
    vp = np.zeros((m + 4) * n)
    vp[2 * n: -2 * n] = v.ravel()
    # row x views vp[x*n : (x+5)*n], the values at nodes x-2 .. x+2
    windows = np.ndarray((m, 5 * n), buffer=vp,
                         strides=(n * vp.itemsize, vp.itemsize))
    return np.einsum("xip,xp->xi", stencil, windows)


def _rhs(sim, v, forcing):
    """Semidiscrete right-hand side ``-(A(wbar)-sI) v_x - E v + f`` with a
    fixed ``(m, n)`` forcing ``f``, from the stencil frozen by
    :func:`make_sim`."""
    rhs = _apply_stencil(sim.stencil, v)
    if forcing is not None:
        rhs = rhs + forcing
    return rhs


def step(sim, dt, forcing=None):
    """One classical Runge-Kutta step; returns the advanced state.

    Raises :class:`StepError` when ``dt`` exceeds the ``CFL`` limit and
    :class:`InstabilityError` on blowup.
    """
    if dt > CFL * sim.dx / max(sim.speed, 1e-300):
        raise StepError(f"CFL violation: dt = {dt:.3g} > "
                        f"{CFL * sim.dx / sim.speed:.3g} "
                        f"(max speed {sim.speed:.3g})")
    k1 = _rhs(sim, sim.v, forcing)
    k2 = _rhs(sim, sim.v + 0.5 * dt * k1, forcing)
    k3 = _rhs(sim, sim.v + 0.5 * dt * k2, forcing)
    k4 = _rhs(sim, sim.v + dt * k3, forcing)
    v_new = sim.v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(v_new)) or np.max(np.abs(v_new)) > BLOWUP_CAP:
        raise InstabilityError(f"solution blew up at t = {sim.t + dt:.4g}")
    return sim.replace(v=v_new, t=sim.t + dt)


def _difference(v, dx):
    """Second-order first differences of ``v`` along its grid axis (``-2``):
    centered in the interior, one-sided 3-point closures at the ends."""
    d = np.empty_like(v)
    d[..., 1:-1, :] = 0.5 * (v[..., 2:, :] - v[..., :-2, :])
    d[..., 0, :] = (-1.5 * v[..., 0, :] + 2.0 * v[..., 1, :]
                    - 0.5 * v[..., 2, :])
    d[..., -1, :] = (0.5 * v[..., -3, :] - 2.0 * v[..., -2, :]
                     + 1.5 * v[..., -1, :])
    return d / dx


def measure_energy(grid, v, s=1, alpha=0.0):
    """Discrete weighted Sobolev energy and weighted L2, both squared.

    ``v`` is one field ``(m, n)`` or a stack ``(K, m, n)`` on ``grid``; the
    results are scalars or ``(K,)`` arrays.  ``alpha`` is the exponent of
    the weight ``exp(alpha*x)``.  Differences are centered with one-sided
    closures and support ``s <= MAX_ENERGY_ORDER``.
    """
    if s > MAX_ENERGY_ORDER:
        raise ValueError(f"discrete energies support s <= {MAX_ENERGY_ORDER}")
    dx = grid[1] - grid[0]
    wgt = np.exp(alpha * grid)[:, None]
    l2 = np.sum(np.abs(wgt * v) ** 2, axis=(-2, -1)) * dx
    total = l2
    dv = v
    for _ in range(s):
        dv = _difference(dv, dx)
        total = total + np.sum(np.abs(wgt * dv) ** 2, axis=(-2, -1)) * dx
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


def run_simulation(sys, profile, v0, t_final, L_sim=50.0, n_points=1001,
                   s=1, alpha=0.0, forcing=None, sample_every=5,
                   store_history=False):
    """March to ``t_final`` recording an energy trace (and optional history).

    The time step is 0.9 of the ``CFL`` limit, shortened
    to divide ``t_final`` evenly.  ``forcing`` is a fixed ``(m, n)`` array.
    """
    sim = make_sim(sys, profile, v0, L_sim=L_sim, n_points=n_points)
    if forcing is not None and np.shape(forcing) != sim.v.shape:
        raise ValueError(f"forcing must have shape {sim.v.shape}")
    dt = CFL * sim.dx / sim.speed * 0.9
    n_steps = int(np.ceil(t_final / dt))
    dt = t_final / n_steps

    times, frames = [sim.t], [sim.v]
    for k in range(n_steps):
        sim = step(sim, dt, forcing=forcing)
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            times.append(sim.t)
            frames.append(sim.v)
    times, frames = np.asarray(times), np.asarray(frames)
    E, L2 = measure_energy(sim.grid, frames, s=s, alpha=alpha)
    F = np.zeros(times.size)
    if forcing is not None:
        F[:] = measure_energy(sim.grid, forcing, s=s, alpha=alpha)[0]

    trace = EnergyTrace(times=times, E_values=E, L2_values=L2, f_values=F,
                        meta={"s": s, "alpha": alpha, "dt": dt,
                              "dx": sim.dx, "mode": "linearized",
                              "L_sim": L_sim, "n_points": n_points})
    history = None
    if store_history:
        f_frames = np.zeros_like(frames)
        if forcing is not None:
            f_frames[:] = forcing
        history = SimHistory(times=times, frames=frames, f_frames=f_frames,
                             grid=sim.grid)
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


def _check_energy(trace):
    """Raise :class:`CertificateError` for a trace no verifier can judge:
    a non-finite energy sample, which no comparison would reject, or an
    energy that is zero at every sample, which every bound would fit."""
    t = trace.times
    bad = np.flatnonzero(~np.isfinite(trace.E_values))
    if bad.size:
        raise CertificateError(
            f"energy sample {int(bad[0])} (t = {t[bad[0]]:.6g}) is not "
            "finite")
    if not np.any(trace.E_values):
        raise CertificateError(
            "energy is zero at every sample; a zero perturbation shows no "
            "decay to fit")


def verify_classical_damping(trace):
    """Largest feasible decay rate in ``dE/dt <= -eta E + C (L2 + f)``.

    Central differences of the sampled energy are tested against the
    inequality at every interior sample; for each of ``N_ETA`` candidate
    rates up to ``ETA_MAX`` the minimal verifying ``C`` is computed and
    capped at ``C_CAP``.  Returns the maximal feasible ``eta`` or a
    refutation carrying the witness sample.  A trace of fewer than 5
    samples raises :class:`CertificateError`: it cannot be differenced; so
    does a trace that :func:`_check_energy` rejects.
    """
    t = trace.times
    if t.size < 5:
        raise CertificateError(
            f"trace too short to difference ({t.size} samples, need 5); "
            "sample more densely")
    _check_energy(trace)
    idx = np.arange(1, t.size - 1)
    Edot = (trace.E_values[idx + 1] - trace.E_values[idx - 1]) / (
        t[idx + 1] - t[idx - 1])
    E = trace.E_values[idx]
    g = trace.L2_values[idx] + trace.f_values[idx]
    scale = max(float(np.max(E)), 1e-300)

    # one row per candidate rate; the largest feasible rate wins
    etas = np.geomspace(1e-4, ETA_MAX, N_ETA)
    need = Edot + etas[:, None] * E
    hard = g <= 1e-14 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        Creq = np.where(~hard & (need > 0), need / np.maximum(g, 1e-300), 0.0)
    C = np.max(Creq, axis=1)
    ok = np.flatnonzero(~np.any(need[:, hard] > DAMPING_SLACK * scale, axis=1)
                        & (C <= C_CAP))
    if not ok.size:
        witness = int(idx[int(np.argmax(Edot + 1e-4 * E))])
        return DampingFit(feasible=False, eta=0.0, C=np.inf,
                          refuted_at=witness)
    best = ok[-1]
    return DampingFit(feasible=True, eta=float(etas[best]), C=float(C[best]))


def verify_integrated_damping(trace, eta, C):
    """Minimal slack in the Gronwall-integrated damping bound.

    Checks ``E(T) <= C e^{-eta T} E(0) + C int_0^T e^{-eta(T-t)} (L2 + f)``
    at every trace sample ``T`` and returns the worst (signed) slack,
    normalized by the initial energy scale.  A trace that
    :func:`_check_energy` rejects raises :class:`CertificateError`.
    """
    _check_energy(trace)
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


def verify_short_time(trace):
    """Smallest ``C`` with ``E(t) <= C (E(0) + int_0^t f)`` along the trace;
    refuted when it is not finite or exceeds ``SHORT_TIME_CAP``.  A trace
    that :func:`_check_energy` rejects raises :class:`CertificateError`."""
    _check_energy(trace)
    t = trace.times
    acc = np.concatenate([[0.0], np.cumsum(
        0.5 * (trace.f_values[1:] + trace.f_values[:-1]) * np.diff(t))])
    denom = trace.E_values[0] + acc
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0, trace.E_values / np.maximum(denom, 1e-300),
                          np.where(trace.E_values > 0, np.inf, 0.0))
    C = float(np.max(ratios))
    return ShortTimeFit(C_short=C,
                        refuted=not np.isfinite(C) or C > SHORT_TIME_CAP)


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


def truncation_pipeline(history, cutoffs, gamma, s=1, alpha=0.0):
    """Verify the time-weighted inequalities for a cutoff trajectory.

    Forms ``vt = chi1(t) chiT(t) v`` and its forcing
    ``ft = (chi1 chiT)' v + chi1 chiT f`` (valid because the linearized
    spatial operator commutes with scalar time cutoffs), then
    measures the constants in:

    * the weighted space-time bound
      ``int e^{2 gamma (T-t)} |vt|^2_{H^s} <= C2 int e^{2 gamma (T-t)}
      (|ft|^2 + |vt|^2_{L2})``,
    * its restriction to the plateau where ``vt = v``,
    * the initial- and final-window bounds, and
    * the assembled integrated damping estimate with ``eta = -2 gamma``.

    It passes when every constant is finite and at most ``TRUNCATION_CAP``.
    """
    t = history.times
    if t.size < 5:
        raise ValueError("history too short")
    if not np.all(np.isfinite(history.frames)):
        raise ValueError("history contains non-finite frames")
    T = float(t[-1])
    chi = cutoffs.product(t)
    chi_d = cutoffs.product_d(t)

    chi3, chi_d3 = chi[:, None, None], chi_d[:, None, None]
    hs_vt, l2_vt = measure_energy(history.grid, chi3 * history.frames, s=s,
                                  alpha=alpha)
    hs_ft = measure_energy(history.grid, chi_d3 * history.frames
                           + chi3 * history.f_frames, s=s, alpha=alpha)[0]
    hs_v, l2_v = measure_energy(history.grid, history.frames, s=s,
                                alpha=alpha)
    hs_f = measure_energy(history.grid, history.f_frames, s=s, alpha=alpha)[0]

    wgt = np.exp(2.0 * gamma * (T - t))

    def ratio(lhs, rhs):
        if lhs <= 1e-28 and rhs <= 1e-28:
            return 0.0
        return float(lhs / max(rhs, 1e-300))

    rhs_w = np.trapezoid(wgt * (hs_ft + l2_vt), t)
    C2_weighted = ratio(np.trapezoid(wgt * hs_vt, t), rhs_w)

    plateau = (t >= cutoffs.tau_c) & (t <= T - cutoffs.tau_c)
    C2_plateau = ratio(np.trapezoid(wgt[plateau] * hs_v[plateau], t[plateau]),
                       rhs_w)

    tau = cutoffs.tau_c
    front = t <= tau
    C_front = ratio(np.trapezoid(hs_v[front], t[front]),
                    hs_v[0] + np.trapezoid(hs_f[front], t[front]))

    tail = t >= T - tau
    mid = (t >= T - 2 * tau) & (t <= T - tau)
    late = t >= T - 2 * tau
    C_tail = ratio(np.trapezoid(hs_v[tail], t[tail]),
                   np.trapezoid(hs_v[mid], t[mid])
                   + np.trapezoid(hs_f[late], t[late]))

    eta = -2.0 * gamma
    wgt_e = np.exp(-eta * (T - t))
    rhs_a = (np.exp(-eta * T) * hs_v[0]
             + np.trapezoid(wgt_e * (l2_v + hs_f), t))
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
