"""Relaxation-system definitions and structural hypothesis checks.

A system is a hyperbolic balance law

    w_t + sum_j d/dx_j f^j(w) = r(w),

supplied through its Jacobian evaluators ``A_j(w) = df^j/dw`` and
``dr/dw(w)``.  This module evaluates the convection symbol
``T(w, eta) = sum_j eta_j A_j(w)`` and tests the structural hypotheses the
frequency-domain machinery rests on:

* noncharacteristicity: ``A_1 - s*I`` uniformly invertible along a wave;
* hyperbolicity: real, semisimple convection spectrum;
* geometric regularity: eigenvalues/eigenvectors vary smoothly with the
  frequency direction (tested by continuation along a sphere loop);
* high-frequency dissipativity: ``Re sigma(-i T(w0,eta) - E(w0)) <= -theta``
  for all sufficiently large ``|eta|``, with ``E(w0) = -dr/dw(w0)``;
* genuine coupling: no convection eigenvector annihilated by ``dr/dw``.

Sign convention for the dissipativity test: the Fourier-side evolution of a
perturbation about the constant state ``w0`` is ``v_t = M(eta) v`` with
``M(eta) = -i T(w0, eta) - E(w0)``, so decay means ``Re sigma(M) < 0``.
Co-moving shifts ``A_1 -> A_1 - s*I`` only translate ``sigma(M)`` along the
imaginary axis and do not affect any verdict below.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, NumericError, PathResolutionError

__all__ = [
    "SystemSpec",
    "SymbolMatrix",
    "ZeroOrderCoefficient",
    "HypothesisReport",
    "HyperbolicityResult",
    "RegularityResult",
    "ChfResult",
    "KawashimaResult",
    "assemble_symbol",
    "zero_order_matrix",
    "check_noncharacteristic",
    "check_hyperbolicity",
    "check_geometric_regularity",
    "check_chf",
    "check_kawashima",
    "run_hypotheses",
    "sphere_loop",
]

# Tolerances of the structural checks.
A1_DELTA = 1e-8           # singular-value margin for noncharacteristicity
IMAG_TOL = 1e-8           # |Im| cap on hyperbolic spectra
COND_CAP = 1e8            # eigenvector condition cap (semisimplicity proxy)
GAP_TOL = 1e-6            # eigenvalue-separation tolerance for regularity
PROJECTOR_CAP = 1e6       # individual spectral-projector norm cap
COUPLING_TOL = 1e-8       # genuine-coupling norm threshold
FD_STEP = 6e-6            # relative step of the flux-Hessian differences
# dissipativity scan: radii eta_min .. CHF_ETA_MAX_FACTOR * eta_min
CHF_ETA_MAX_FACTOR = 20.0
CHF_N_RADII = 40
CHF_N_DIRECTIONS = 16
CHF_KEEP_FRACTION = 0.2   # fraction of radii kept above the threshold
KAWASHIMA_N_DIRECTIONS = 17


@dataclass(frozen=True)
class SystemSpec:
    """A relaxation system given through analytic Jacobian evaluators.

    The evaluators take one state ``w`` of shape ``(n,)``:
    ``flux_jac(w)`` returns the stacked flux Jacobians, shape ``(d, n, n)``;
    ``relax_jac(w)`` returns ``dr/dw(w)``, shape ``(n, n)``;
    ``equilibria(w)`` decides ``r(w) = 0``;
    ``relax(w)`` returns ``r(w)`` itself (needed by profile solvers).

    :meth:`flux_jacs` and :meth:`relax_jacobian` accept one state or a stack
    of states ``(..., n)``, call the evaluator once per state and validate the
    stacked result; they are the only place the evaluators are looped over.
    """

    n: int
    d: int
    flux_jac: Callable[[np.ndarray], np.ndarray]
    relax_jac: Callable[[np.ndarray], np.ndarray]
    equilibria: Callable[[np.ndarray], bool]
    relax: Callable[[np.ndarray], np.ndarray]
    smoothness_order: int = 3
    name: str = ""
    params: dict = field(default_factory=dict)

    def _per_state(self, evaluator, w, shape, what):
        """``evaluator`` at each state of ``w``, stacked: ``(...,) + shape``."""
        w = np.asarray(w, dtype=float)
        states = w.reshape(-1, w.shape[-1])
        out = np.empty((states.shape[0],) + shape)
        for i, wi in enumerate(states):
            value = np.asarray(evaluator(wi), dtype=float)
            if value.shape != shape:
                raise EvaluationError(
                    f"{what} returned shape {value.shape}, expected {shape}")
            out[i] = value
        return out.reshape(w.shape[:-1] + shape)

    def flux_jacs(self, w):
        """Validated flux Jacobians ``(..., d, n, n)`` at ``w`` ``(..., n)``."""
        A = self._per_state(self.flux_jac, w, (self.d, self.n, self.n),
                            "flux_jac")
        finite = np.isfinite(A).all(axis=(-2, -1))
        if not finite.all():
            j = int(np.argmin(finite.reshape(-1, self.d).all(axis=0)))
            raise EvaluationError(
                f"flux Jacobian A_{j + 1} has non-finite entries")
        return A

    def relax_jacobian(self, w):
        """Validated ``dr/dw`` ``(..., n, n)`` at ``w`` ``(..., n)``."""
        B = self._per_state(self.relax_jac, w, (self.n, self.n), "relax_jac")
        if not np.all(np.isfinite(B)):
            raise EvaluationError("relax_jac returned non-finite entries")
        return B


@dataclass(frozen=True)
class SymbolMatrix:
    """Convection symbol ``T(w, eta) = sum_j eta_j A_j(w)``."""

    base_state: np.ndarray
    eta: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class ZeroOrderCoefficient:
    """Zero-order coefficient ``E`` of the perturbation equations on a grid.

    ``E(x) v = -dr/dw(wbar(x)) v + d2f1/dw2(wbar(x))[v, wbar'(x)]``; at a
    constant equilibrium state the gradient summand vanishes and
    ``E = -dr/dw``.
    """

    grid: np.ndarray
    matrices: np.ndarray            # (m, n, n)
    constant_limits: tuple          # (E at w_minus, E at w_plus)

    @classmethod
    def from_profile(cls, sys, profile, grid):
        grid = np.asarray(grid, dtype=float)
        mats = zero_order_matrix(sys, *profile.sample_many(grid))
        ends = np.array(profile.endstates)
        limits = zero_order_matrix(sys, ends, np.zeros_like(ends))
        return cls(grid=grid, matrices=mats, constant_limits=tuple(limits))


def zero_order_matrix(sys, w, wprime):
    """``E = -dr/dw(w) + d2f1/dw2(w)[., wprime]`` at one state or a stack.

    ``w`` and ``wprime`` are ``(n,)`` or ``(..., n)``; the result is
    ``(..., n, n)``.  The flux-Hessian contraction is realized by central
    differencing of the first flux Jacobian, with step
    ``FD_STEP * (1 + |w_k|)`` along component ``k``; exact (zero) for fluxes
    with constant Jacobian.  Where ``wprime = 0`` the result is ``-dr/dw``
    exactly.
    """
    w = np.asarray(w, dtype=float)
    wprime = np.asarray(wprime, dtype=float)
    E = -sys.relax_jacobian(w)
    moving = np.any(wprime != 0.0, axis=-1)
    if np.any(moving):
        h = FD_STEP * (1.0 + np.abs(w))
        # dw[..., k, :] is the step h_k along component k
        k = np.arange(sys.n)
        dw = np.zeros(w.shape + (sys.n,))
        dw[..., k, k] = h
        Ap = sys.flux_jacs(w[..., None, :] + dw)[..., 0, :, :]
        Am = sys.flux_jacs(w[..., None, :] - dw)[..., 0, :, :]
        dA = (Ap - Am) / (2.0 * h)[..., :, None, None]    # (..., k, n, n)
        H = np.matmul(dA, wprime[..., None, :, None])[..., 0]
        E = np.where(moving[..., None, None], E + np.swapaxes(H, -1, -2), E)
    return E


def assemble_symbol(sys, w, eta):
    """Assemble ``T(w, eta) = sum_j eta_j A_j(w)``."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.shape != (sys.d,):
        raise ValueError(f"eta must have length d={sys.d}, got shape {eta.shape}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    A = sys.flux_jacs(w)
    T = np.tensordot(eta, A, axes=(0, 0))
    return SymbolMatrix(base_state=np.asarray(w, dtype=float), eta=eta, matrix=T)


def check_noncharacteristic(sys, profile):
    """Smallest singular value of ``A_1(wbar(x)) - s*I`` over the grid.

    Returns the margin; :func:`run_hypotheses` passes the wave when it is
    at least ``A1_DELTA``.
    """
    if profile.grid.size == 0:
        raise ValueError("profile grid is empty")
    A1 = sys.flux_jacs(profile.values)[:, 0] - profile.speed * np.eye(sys.n)
    return float(np.min(np.linalg.svd(A1, compute_uv=False)[:, -1]))


@dataclass(frozen=True)
class HyperbolicityResult:
    passed: bool
    worst_imag: float
    worst_cond: float
    failures: tuple = ()


def check_hyperbolicity(sys, w, eta_samples):
    """Real-and-semisimple test of the convection symbol at sampled directions.

    A spectrum is real when every ``|Im mu| <= IMAG_TOL``; semisimplicity is
    proxied by the condition number of the eigenvector matrix staying below
    ``COND_CAP``.
    """
    eta_samples = [np.atleast_1d(np.asarray(e, dtype=float)) for e in eta_samples]
    if not eta_samples:
        raise ValueError("eta_samples must be nonempty")
    worst_im = 0.0
    worst_cond = 1.0
    failures = []
    for eta in eta_samples:
        nrm = np.linalg.norm(eta)
        if not np.isclose(nrm, 1.0, atol=1e-12):
            raise ValueError("eta_samples must be unit vectors")
        T = assemble_symbol(sys, w, eta).matrix
        try:
            mu, V = np.linalg.eig(T)
            cond = float(np.linalg.cond(V))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigensolver failed at eta={eta}") from exc
        im = float(np.max(np.abs(mu.imag)))
        worst_im = max(worst_im, im)
        worst_cond = max(worst_cond, cond)
        if im > IMAG_TOL or cond > COND_CAP:
            failures.append((tuple(eta), im, cond))
    return HyperbolicityResult(passed=not failures, worst_imag=worst_im,
                               worst_cond=worst_cond, failures=tuple(failures))


def sphere_loop(d, n_points=181):
    """Default direction path for the regularity check.

    For ``d == 1`` the unit sphere is two points.  For ``d == 2`` a half
    circle of directions suffices since ``T(w, -eta) = -T(w, eta)``.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        phi = np.linspace(0.0, np.pi, n_points, endpoint=False)
        return np.column_stack([np.cos(phi), np.sin(phi)])
    phi = np.linspace(0.0, np.pi, n_points, endpoint=False)
    path = np.zeros((n_points, d))
    path[:, 0] = np.cos(phi)
    path[:, 1] = np.sin(phi)
    return path


@dataclass(frozen=True)
class RegularityResult:
    passed: bool
    coalescence: tuple      # flagged (index, eta, gap, projector_norm)
    min_gap: float
    max_projector: float


def _projector_norms(T):
    """Individual spectral projector norms |v_i| |l_i| from one eigensolve."""
    mu, V = np.linalg.eig(T)
    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return mu, np.full(mu.shape, np.inf)
    norms = np.linalg.norm(V, axis=0) * np.linalg.norm(W, axis=1)
    return mu, norms


def _slerp(u, v, t):
    """Great-circle interpolation between unit vectors."""
    dot = float(np.clip(np.dot(u, v), -1.0, 1.0))
    ang = np.arccos(dot)
    if ang < 1e-14:
        return u
    return (np.sin((1 - t) * ang) * u + np.sin(t * ang) * v) / np.sin(ang)


def _gap_proj(sys, w, eta):
    T = assemble_symbol(sys, w, eta).matrix
    mu, proj = _projector_norms(T)
    if sys.n < 2:
        return np.inf, float(np.max(proj)), mu, proj
    diffs = np.abs(mu[None, :] - mu[:, None])
    gap = float(np.min(diffs[~np.eye(sys.n, dtype=bool)]))
    return gap, float(np.max(proj)), mu, proj


def check_geometric_regularity(sys, w, sphere_path=None):
    """Track eigenvalue branches of ``T(w, eta)`` along a direction loop.

    Local minima of the eigenvalue separation along the path are refined on
    the sphere; a refined direction is flagged when the separation collapses
    below ``GAP_TOL`` *while* individual spectral projectors blow up past
    ``PROJECTOR_CAP``, signalling a genuine multiplicity change.  Crossings
    with bounded projectors (constant multiplicity) pass.
    """
    if sphere_path is None:
        sphere_path = sphere_loop(sys.d)
    path = np.atleast_2d(np.asarray(sphere_path, dtype=float))
    if path.shape[0] < 2:
        raise ValueError("sphere_path needs at least two points")

    gaps = np.empty(path.shape[0])
    projs = np.empty(path.shape[0])
    prev = None
    for idx, eta in enumerate(path):
        gap, pnorm, mu, _ = _gap_proj(sys, w, eta)
        order = np.argsort(mu.real + 1e-9 * mu.imag)
        mu = mu[order]
        # no continuation in one space dimension: the direction set is
        # discrete ({+1, -1}) and branches are unrelated across the flip
        if prev is not None and sys.d >= 2:
            # nearest-match continuation; ambiguity check against branch scale
            from scipy.optimize import linear_sum_assignment
            cost = np.abs(mu[None, :] - prev[:, None])
            rows, cols = linear_sum_assignment(cost)
            move = float(cost[rows, cols].max())
            diam = float(np.ptp(np.abs(prev)) + np.max(np.abs(prev)) + 1e-30)
            if move > 0.5 * diam:
                raise PathResolutionError(
                    f"eigenvalue matching ambiguous at path index {idx} "
                    f"(branch moved {move:.3g}); refine the sphere path")
            mu = mu[cols]
        prev = mu
        gaps[idx] = gap
        projs[idx] = pnorm

    coalescence = []
    npts = path.shape[0]
    for i in range(npts):
        if sys.n < 2 or sys.d < 2:
            if gaps[i] < GAP_TOL and projs[i] > PROJECTOR_CAP:
                coalescence.append((i, tuple(path[i]), gaps[i], projs[i]))
            continue
        lo, hi = (i - 1) % npts, (i + 1) % npts
        if not (gaps[i] <= gaps[lo] and gaps[i] <= gaps[hi]):
            continue
        from scipy.optimize import minimize_scalar
        u, v = path[lo], path[hi]

        def gap_at(t):
            return _gap_proj(sys, w, _slerp(u, v, t))[0]

        best = minimize_scalar(gap_at, bounds=(0.0, 1.0), method="bounded",
                               options={"xatol": 1e-12})
        eta_star = _slerp(u, v, float(best.x))
        g_star, p_star, _, _ = _gap_proj(sys, w, eta_star)
        if g_star < GAP_TOL and p_star > PROJECTOR_CAP:
            coalescence.append((i, tuple(eta_star), g_star, p_star))

    # merge flags at consecutive path indices into one coalescence event
    events = []
    for f in coalescence:
        if events and f[0] <= events[-1][-1][0] + 2:
            events[-1].append(f)
        else:
            events.append([f])
    merged = tuple(max(ev, key=lambda f: f[3]) for ev in events)
    return RegularityResult(passed=not merged, coalescence=merged,
                            min_gap=float(np.min(gaps)),
                            max_projector=float(np.max(projs)))


@dataclass(frozen=True)
class ChfResult:
    theta: float
    eta_threshold: float
    passed: bool
    worst_real: float       # max Re sigma(M) over |eta| >= eta_threshold


def check_chf(sys, w0, eta_min, theta_req):
    """High-frequency dissipativity of the frozen state ``w0``.

    Scans ``M(eta) = -i T(w0, eta) - E(w0)`` over ``CHF_N_RADII`` radii
    ``|eta|`` in ``[eta_min, CHF_ETA_MAX_FACTOR * eta_min]`` times
    ``CHF_N_DIRECTIONS`` directions (two in one dimension) and reports the
    largest ``theta`` such that ``max Re sigma(M(eta)) <= -theta`` for all
    grid points with ``|eta| >= eta_threshold``.  Pass iff
    ``theta >= theta_req``.
    """
    w0 = np.asarray(w0, dtype=float)
    if not sys.equilibria(w0):
        raise ValueError("w0 is not an equilibrium state (r(w0) != 0)")
    E = -sys.relax_jacobian(w0)

    scan = np.geomspace(eta_min, CHF_ETA_MAX_FACTOR * eta_min, CHF_N_RADII)
    eta_grid = [r * u for r in scan
                for u in sphere_loop(sys.d, CHF_N_DIRECTIONS)]
    radii = np.array([np.linalg.norm(e) for e in eta_grid])
    worst = np.empty(len(eta_grid))
    for i, eta in enumerate(eta_grid):
        T = assemble_symbol(sys, w0, eta).matrix
        worst[i] = float(np.max(np.linalg.eigvals(-1j * T - E).real))

    # tail maxima over increasing threshold candidates
    uniq = np.unique(np.round(radii, 12))
    keep = max(3, int(np.ceil(CHF_KEEP_FRACTION * uniq.size)))
    best = None
    for k, thr in enumerate(uniq):
        if uniq.size - k < keep:
            break
        tail = worst[radii >= thr - 1e-12]
        theta = -float(np.max(tail))
        best = (theta, float(thr), float(np.max(tail)))
        if theta >= theta_req:
            return ChfResult(theta=theta, eta_threshold=float(thr),
                             passed=True, worst_real=float(np.max(tail)))
    theta, thr, wr = best
    return ChfResult(theta=theta, eta_threshold=thr, passed=False, worst_real=wr)


@dataclass(frozen=True)
class KawashimaResult:
    passed: bool
    worst_norm: float       # smallest coupling norm encountered
    failures: tuple = ()


def check_kawashima(sys, w0):
    """Genuine-coupling test: no convection eigenvector in ``ker(dr/dw)``.

    For each of ``KAWASHIMA_N_DIRECTIONS`` directions, eigenvalues of
    ``T(w0, eta)`` are clustered; the test requires ``dr/dw(w0)`` restricted
    to each eigenspace to have full column rank (smallest singular value
    above ``COUPLING_TOL``).
    """
    w0 = np.asarray(w0, dtype=float)
    if not sys.equilibria(w0):
        raise ValueError("w0 is not an equilibrium state (r(w0) != 0)")
    B = sys.relax_jacobian(w0)
    worst = np.inf
    failures = []
    for eta in sphere_loop(sys.d, KAWASHIMA_N_DIRECTIONS):
        T = assemble_symbol(sys, w0, eta).matrix
        try:
            mu, V = np.linalg.eig(T)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigensolver failed at eta={eta}") from exc
        if np.linalg.cond(V) > COND_CAP:
            raise NumericError(f"defective eigenvector basis at eta={eta}")
        scale = max(1.0, float(np.max(np.abs(mu))))
        order = np.argsort(mu.real)
        mu, V = mu[order], V[:, order]
        start = 0
        for stop in range(1, len(mu) + 1):
            if stop < len(mu) and abs(mu[stop] - mu[stop - 1]) < 1e-8 * scale:
                continue
            basis = np.linalg.qr(V[:, start:stop])[0]
            smin = float(np.linalg.svd(B @ basis, compute_uv=False)[-1])
            worst = min(worst, smin)
            if smin <= COUPLING_TOL:
                failures.append((tuple(eta), complex(mu[start]), smin))
            start = stop
    return KawashimaResult(passed=not failures, worst_norm=worst,
                           failures=tuple(failures))


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregated structural-hypothesis verdicts for one wave."""

    a1_margin: float
    a1_pass: bool
    a2_pass: bool
    a2_worst_imag: float
    a2_worst_cond: float
    a3_pass: bool
    a3_coalescence: tuple
    chf_theta: float
    chf_eta_threshold: float
    chf_pass: bool
    kawashima_pass: bool

    @property
    def passed(self):
        return (self.a1_pass and self.a2_pass and self.a3_pass and self.chf_pass)

    def to_dict(self):
        return {
            "a1_margin": self.a1_margin,
            "a1_pass": self.a1_pass,
            "a2_pass": self.a2_pass,
            "a2_worst_imag": self.a2_worst_imag,
            "a2_worst_cond": self.a2_worst_cond,
            "a3_pass": self.a3_pass,
            "a3_coalescence": [list(map(str, c)) for c in self.a3_coalescence],
            "chf_theta": self.chf_theta,
            "chf_eta_threshold": self.chf_eta_threshold,
            "chf_pass": self.chf_pass,
            "kawashima_pass": self.kawashima_pass,
            "passed": self.passed,
        }


def run_hypotheses(sys, profile, eta_min=10.0, theta_req=0.0):
    """Run every structural check for a wave and aggregate the verdicts.

    Hyperbolicity/regularity are evaluated at the endstates and the profile
    midpoint; the dissipativity and coupling checks at both (equilibrium)
    endstates, with the worst case reported.
    """
    margin = check_noncharacteristic(sys, profile)
    mid_w, _ = profile.sample(0.0)
    states = [profile.endstates[0], profile.endstates[1], mid_w]

    dirs = sphere_loop(sys.d, 13)
    a2 = [check_hyperbolicity(sys, w, dirs) for w in states]
    a3 = [check_geometric_regularity(sys, w) for w in states]
    chf = [check_chf(sys, w0, eta_min=eta_min, theta_req=theta_req)
           for w0 in profile.endstates]
    kaw = [check_kawashima(sys, w0) for w0 in profile.endstates]

    chf_worst = min(chf, key=lambda r: r.theta)
    coal = tuple(c for r in a3 for c in r.coalescence)
    return HypothesisReport(
        a1_margin=margin,
        a1_pass=margin >= A1_DELTA,
        a2_pass=all(r.passed for r in a2),
        a2_worst_imag=max(r.worst_imag for r in a2),
        a2_worst_cond=max(r.worst_cond for r in a2),
        a3_pass=all(r.passed for r in a3),
        a3_coalescence=coal,
        chf_theta=chf_worst.theta,
        chf_eta_threshold=chf_worst.eta_threshold,
        chf_pass=all(r.passed for r in chf),
        kawashima_pass=all(r.passed for r in kaw),
    )
