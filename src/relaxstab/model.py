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
  frequency direction (no coalescence with a degenerating eigenbasis over
  a loop of directions; the turning-point scan of
  :mod:`relaxstab.dichotomy` shares the test);
* high-frequency dissipativity: ``Re sigma(-i T(w0,eta) - E(w0)) <= -theta``
  for all sufficiently large ``|eta|``, with ``E(w0) = -dr/dw(w0)``;
* genuine coupling: no convection eigenvector annihilated by ``dr/dw``.

The last two hold at equilibrium states ``w0``, where ``r(w0) = 0``; a
system's ``relax`` decides that through :meth:`SystemSpec.is_equilibrium`.

Sign convention for the dissipativity test: the Fourier-side evolution of a
perturbation about the constant state ``w0`` is ``v_t = M(eta) v`` with
``M(eta) = -i T(w0, eta) - E(w0)``, so decay means ``Re sigma(M) < 0``.
Co-moving shifts ``A_1 -> A_1 - s*I`` only translate ``sigma(M)`` along the
imaginary axis and do not affect any verdict below.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, NumericError, PathResolutionError

__all__ = [
    "SystemSpec",
    "per_state",
    "SymbolMatrix",
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
REGULARITY_COND_CAP = 1e6   # cond(V) cap for regularity; bounds each projector
REGULARITY_N_DIRECTIONS = 181   # directions on the regularity half loop
REFINE_TOL = 1e-12        # coalescence refinement, per unit bracket width
COUPLING_TOL = 1e-8       # genuine-coupling norm threshold
FD_STEP = 6e-6            # relative step of the flux-Hessian differences
# dissipativity scan: radii eta_min .. CHF_ETA_MAX_FACTOR * eta_min
CHF_ETA_MAX_FACTOR = 20.0
CHF_N_RADII = 40
CHF_N_DIRECTIONS = 16
CHF_KEEP_FRACTION = 0.2   # fraction of radii kept above the threshold
KAWASHIMA_N_DIRECTIONS = 17
EQUILIBRIUM_TOL = 1e-10   # max|r(w)| at which w counts as an equilibrium


@dataclass(frozen=True)
class SystemSpec:
    """A relaxation system given through analytic Jacobian evaluators.

    ``flux_jac``, ``relax_jac`` and ``relax`` take one state ``w`` of shape
    ``(n,)`` or a stack of states ``(..., n)`` and evaluate all of it in one
    call: ``flux_jac(w)`` returns the stacked flux Jacobians ``(..., d, n,
    n)``, ``relax_jac(w)`` returns ``dr/dw(w)`` ``(..., n, n)`` and
    ``relax(w)`` returns ``r(w)`` itself ``(..., n)``, which also decides
    whether a state is an equilibrium (:meth:`is_equilibrium`).  An
    evaluator written for one state goes through :func:`per_state`.

    :meth:`flux_jacs`, :meth:`relax_jacobian` and :meth:`relaxation` call an
    evaluator once and validate its result: a wrong shape or a non-finite
    entry raises :class:`EvaluationError`.
    """

    n: int
    d: int
    flux_jac: Callable[[np.ndarray], np.ndarray]
    relax_jac: Callable[[np.ndarray], np.ndarray]
    relax: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    params: dict = field(default_factory=dict)

    def _evaluate(self, evaluator, w, shape, what):
        """``evaluator(w)`` as a fresh array ``w.shape[:-1] + shape``."""
        w = np.asarray(w, dtype=float)
        value = np.array(evaluator(w), dtype=float)
        expected = w.shape[:-1] + shape
        if value.shape != expected:
            raise EvaluationError(
                f"{what} returned shape {value.shape}, expected {expected}")
        return value

    def flux_jacs(self, w):
        """Validated flux Jacobians ``(..., d, n, n)`` at ``w`` ``(..., n)``."""
        A = self._evaluate(self.flux_jac, w, (self.d, self.n, self.n),
                           "flux_jac")
        finite = np.isfinite(A).all(axis=(-2, -1))
        if not finite.all():
            j = int(np.argmin(finite.reshape(-1, self.d).all(axis=0)))
            raise EvaluationError(
                f"flux Jacobian A_{j + 1} has non-finite entries")
        return A

    def relax_jacobian(self, w):
        """Validated ``dr/dw`` ``(..., n, n)`` at ``w`` ``(..., n)``."""
        B = self._evaluate(self.relax_jac, w, (self.n, self.n), "relax_jac")
        if not np.all(np.isfinite(B)):
            raise EvaluationError("relax_jac returned non-finite entries")
        return B

    def relaxation(self, w):
        """Validated source ``r(w)`` ``(..., n)`` at ``w`` ``(..., n)``."""
        r = self._evaluate(self.relax, w, (self.n,), "relax")
        if not np.all(np.isfinite(r)):
            raise EvaluationError("relax returned non-finite entries")
        return r

    def is_equilibrium(self, w):
        """Whether ``r(w) = 0`` at one state ``w`` ``(n,)``, that is
        ``max|r(w)| <= EQUILIBRIUM_TOL``."""
        return bool(np.max(np.abs(self.relaxation(w))) <= EQUILIBRIUM_TOL)


def per_state(evaluator):
    """Stack-taking form of an evaluator written for one state ``(n,)``.

    The returned evaluator calls ``evaluator`` once per state of a stack
    ``(..., n)`` and stacks the results; a result whose shape differs from
    the first state's raises :class:`EvaluationError`.  It is the one loop
    over states left in the package, for user systems that do not
    vectorize.
    """
    @functools.wraps(evaluator)
    def stacked(w):
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            return evaluator(w)
        values = [np.asarray(evaluator(wi), dtype=float)
                  for wi in w.reshape(-1, w.shape[-1])]
        shape = values[0].shape
        for value in values:
            if value.shape != shape:
                raise EvaluationError(
                    f"{getattr(evaluator, '__name__', 'evaluator')} returned "
                    f"shapes {shape} and {value.shape} within one stack")
        return np.stack(values).reshape(w.shape[:-1] + shape)
    return stacked


@dataclass(frozen=True)
class SymbolMatrix:
    """Convection symbol ``T(w, eta) = sum_j eta_j A_j(w)``."""

    base_state: np.ndarray
    eta: np.ndarray
    matrix: np.ndarray


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
    T = _symbols(sys.flux_jacs(w), eta)
    return SymbolMatrix(base_state=np.asarray(w, dtype=float), eta=eta, matrix=T)


def _symbols(A, eta):
    """``T = sum_j eta_j A_j`` from the flux Jacobians ``A`` ``(d, n, n)`` at
    one state, for one direction ``(d,)`` or a stack ``(K, d)``."""
    return np.tensordot(eta, A, axes=(-1, 0))


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
    if not len(eta_samples):
        raise ValueError("eta_samples must be nonempty")
    etas = np.asarray(eta_samples, dtype=float).reshape(len(eta_samples), -1)
    if etas.shape[1] != sys.d or not np.all(np.isfinite(etas)):
        raise ValueError(f"eta_samples must be finite vectors of length "
                         f"d={sys.d}")
    if not np.all(np.isclose(np.linalg.norm(etas, axis=1), 1.0, atol=1e-12)):
        raise ValueError("eta_samples must be unit vectors")
    T = _symbols(sys.flux_jacs(w), etas)
    try:
        mu, V = np.linalg.eig(T)
        cond = np.linalg.cond(V)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed at w={w}") from exc
    im = np.max(np.abs(mu.imag), axis=-1)
    failures = [(tuple(eta), float(i), float(c))
                for eta, i, c in zip(etas, im, cond)
                if i > IMAG_TOL or c > COND_CAP]
    return HyperbolicityResult(passed=not failures,
                               worst_imag=max(0.0, float(np.max(im))),
                               worst_cond=max(1.0, float(np.max(cond))),
                               failures=tuple(failures))


def sphere_loop(d, n_points):
    """Direction samples of the dissipativity and coupling scans.

    For ``d == 1`` the unit sphere is two points.  Otherwise the path is a
    half circle in the first two directions, which for ``d == 2`` suffices
    since ``T(w, -eta) = -T(w, eta)``.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    phi = np.linspace(0.0, np.pi, n_points, endpoint=False)
    path = np.zeros((n_points, d))
    path[:, 0] = np.cos(phi)
    path[:, 1] = np.sin(phi)
    return path


def _gaps(mu):
    """Smallest pairwise distance within each eigenvalue set ``(..., n)``;
    ``inf`` for ``n == 1``."""
    diffs = np.abs(mu[..., None, :] - mu[..., :, None])
    k = np.arange(mu.shape[-1])
    diffs[..., k, k] = np.inf
    return np.min(diffs, axis=(-2, -1))


def _coalescences(T, family, params, gap_tol, cap):
    """Coalescence scan of a one-parameter matrix family.

    ``T`` ``(K, n, n)`` holds ``family(p)`` at the ascending ``params``
    ``(K,)``; one stacked eigensolve gives each sample's eigenvalue gap and
    eigenvector condition number ``cond(V)``.  Every interior local minimum
    of the gap that is strict, or below ``gap_tol``, is refined by a bounded
    scalar search between its neighbours, to ``REFINE_TOL`` times the
    bracket width.  A sample or refined point is flagged when its gap is
    below ``gap_tol`` *and* ``cond(V)`` exceeds ``cap``, a multiplicity
    change with a degenerating eigenbasis; crossings with well-conditioned
    eigenvectors pass.  Flags within two samples of each other merge into
    the one with the largest ``cond(V)``.

    Returns the sampled eigenvalues ``(K, n)``, gaps and condition numbers
    ``(K,)``, and the flags ``(sample index, parameter, gap, cond)``.
    """
    mu, V = np.linalg.eig(T)
    gap, cond = _gaps(mu), np.linalg.cond(V)
    flags = [(i, float(params[i]), float(gap[i]), float(cond[i]))
             for i in range(len(params))]
    for i in range(1, len(params) - 1):
        near = gap[[i - 1, i + 1]]
        if not (gap[i] <= near.min()
                and (gap[i] < near.max() or gap[i] < gap_tol)):
            continue
        from scipy.optimize import minimize_scalar
        lo, width = params[i - 1], params[i + 1] - params[i - 1]
        best = minimize_scalar(
            lambda t: _gaps(np.linalg.eigvals(family(lo + t * width))),
            bounds=(0.0, 1.0), method="bounded",
            options={"xatol": REFINE_TOL})
        p = float(lo + best.x * width)
        mu_p, V_p = np.linalg.eig(family(p))
        flags.append((i, p, float(_gaps(mu_p)), float(np.linalg.cond(V_p))))
    events = []
    for f in sorted((f for f in flags if f[2] < gap_tol and f[3] > cap),
                    key=lambda f: f[0]):
        if events and f[0] <= events[-1][-1][0] + 2:
            events[-1].append(f)
        else:
            events.append([f])
    return mu, gap, cond, [max(ev, key=lambda f: f[3]) for ev in events]


@dataclass(frozen=True)
class RegularityResult:
    passed: bool
    coalescence: tuple      # flagged (index, eta, gap, cond)
    min_gap: float
    max_cond: float


def check_geometric_regularity(sys, w):
    """Coalescence scan of ``T(w, eta)`` over the frequency directions.

    For ``d >= 2`` the direction ``eta = (cos phi, sin phi, 0, ...)`` runs
    over ``phi = pi k / N`` for ``k = -1 .. N``, ``N =
    REGULARITY_N_DIRECTIONS``.  The half loop suffices since ``T(w, -eta)
    = -T(w, eta)``, and its two end samples repeat the loop across the wrap
    point ``phi = 0 = pi``, so every loop direction is an interior sample
    and refinement is linear in ``phi``.  For ``d == 1`` the one direction
    ``eta = 1`` is read: ``eta = -1`` negates the symbol, with the same
    gaps and condition numbers.

    A direction is flagged (:func:`_coalescences`) when the eigenvalue gap
    falls below ``GAP_TOL`` *while* ``cond(V)`` exceeds ``REGULARITY_COND_CAP``,
    a genuine multiplicity change; ``cond(V)`` bounds every spectral
    projector norm ``|v_i| |l_i|``.  Eigenvalue branches are continued from
    sample to sample by nearest matching, and an ambiguous match raises
    :class:`PathResolutionError`.
    """
    A = sys.flux_jacs(w)
    N = REGULARITY_N_DIRECTIONS
    phi = np.zeros(1) if sys.d == 1 else np.pi * np.arange(-1, N + 1) / N

    def direction(p):
        eta = np.zeros(np.shape(p) + (sys.d,))
        eta[..., 0] = np.cos(p)
        if sys.d > 1:
            eta[..., 1] = np.sin(p)
        return eta

    mu, gap, cond, flags = _coalescences(
        _symbols(A, direction(phi)), lambda p: _symbols(A, direction(p)),
        phi, GAP_TOL, REGULARITY_COND_CAP)
    prev = None
    for idx, m in enumerate(mu):
        m = m[np.argsort(m.real + 1e-9 * m.imag)]
        if prev is not None:
            # nearest-match continuation; ambiguity check against branch scale
            from scipy.optimize import linear_sum_assignment
            cost = np.abs(m[None, :] - prev[:, None])
            rows, cols = linear_sum_assignment(cost)
            move = float(cost[rows, cols].max())
            diam = float(np.ptp(np.abs(prev)) + np.max(np.abs(prev)) + 1e-30)
            if move > 0.5 * diam:
                raise PathResolutionError(
                    f"eigenvalue matching ambiguous at path index {idx - 1} "
                    f"(branch moved {move:.3g}); refine the direction loop")
            m = m[cols]
        prev = m
    # the end samples repeat k = N - 1 and k = 0: their flags are duplicates
    pad = int(sys.d > 1)
    coalescence = tuple((i - pad, tuple(direction(p)), g, c)
                        for i, p, g, c in flags if pad <= i < phi.size - pad)
    return RegularityResult(passed=not coalescence, coalescence=coalescence,
                            min_gap=float(np.min(gap)),
                            max_cond=float(np.max(cond)))


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
    ``theta >= theta_req``.  ``eta_min`` must be positive.
    """
    if not eta_min > 0:
        raise ValueError(f"eta_min must be positive, got {eta_min}")
    w0 = np.asarray(w0, dtype=float)
    if not sys.is_equilibrium(w0):
        raise ValueError("w0 is not an equilibrium state (r(w0) != 0)")
    E = -sys.relax_jacobian(w0)

    scan = np.geomspace(eta_min, CHF_ETA_MAX_FACTOR * eta_min, CHF_N_RADII)
    eta_grid = (scan[:, None, None]
                * sphere_loop(sys.d, CHF_N_DIRECTIONS)).reshape(-1, sys.d)
    if not np.all(np.isfinite(eta_grid)):
        raise ValueError("eta must be finite")
    radii = np.linalg.norm(eta_grid, axis=1)
    T = _symbols(sys.flux_jacs(w0), eta_grid)
    worst = np.max(np.linalg.eigvals(-1j * T - E).real, axis=-1)

    # tail maxima over increasing threshold candidates
    uniq = np.sort(np.round(radii, 12))
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
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
    if not sys.is_equilibrium(w0):
        raise ValueError("w0 is not an equilibrium state (r(w0) != 0)")
    B = sys.relax_jacobian(w0)
    A = sys.flux_jacs(w0)
    worst = np.inf
    failures = []
    for eta in sphere_loop(sys.d, KAWASHIMA_N_DIRECTIONS):
        T = _symbols(A, eta)
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
