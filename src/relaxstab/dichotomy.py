"""Exponential dichotomies for first-order coefficient fields on a line.

Conventions: ``P_plus(x)`` projects onto the solutions decaying forward
(as ``x -> +inf``), ``P_minus = I - P_plus`` onto those decaying backward.

Everything is built from one per-field cache of one-interval propagators
``Phi_i = S(x_{i+1}, x_i)`` between neighbouring grid nodes and their
backward steps ``S(x_i, x_{i+1})``.  Each interval is split into substeps of
a fourth-order Magnus method (two Gauss points per substep, Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 2009); ``G`` is evaluated exactly, in one
stacked call per field.  A backward step is the product of the
inverse substep exponentials ``expm(-Omega)``, never a matrix inverse: a
stiff interval can make ``Phi_i`` singular to working precision.

The forward-decaying family is tracked by stepping the stable frame of
``G(+inf)`` backward from ``+L``; the backward-decaying family by stepping
the unstable frame of ``G(-inf)`` forward from ``-L`` (each direction is the
numerically attracting one for the subspace it tracks).  Frames follow by
discrete orthonormalization (Dieci, Russell & Van Vleck, SIAM J. Numer.
Anal. 34, 1997): the stepped frame is orthonormalized and rotated to the
closest gauge of its predecessor, the discrete form of the parallel-
transport gauge ``Y* Y' = 0``.  Bases are pinned down by ordering the
seeding eigenvectors by real part.

The seeds come from the same limit splits as the boundary rows of the
resolvent operator (:meth:`ResolventOperatorField.limit_splits`).

A propagator over a long distance is the ordered product of cached steps,
one interval at a time, with the projector applied at every node.  Each
product is rescaled by its largest entry against overflow and its 2-norm is
taken once, at the end, so a log-norm is exact wherever the rescalings fall.
The decay fit and the verifier share that chain and their random node pairs
(:func:`_pair_lognorms`).
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import expm, polar

from .errors import (CertificateError, FrameConditioningError,
                     TurningPointSuspectedError, WindowOverflowError)
from .resolvent import SpectralSplit, limit_spectral_split
from .tables import write_matrix_field

solve_ivp = None  # read by perfbench/tracing.py, which wraps this name

__all__ = [
    "SpectralSplit",
    "DichotomyData",
    "DichotomyCheck",
    "TurningPointReport",
    "limit_spectral_split",
    "propagate_subspaces",
    "verify_dichotomy",
    "block_diagonalize",
    "detect_turning_points",
    "coalescence_scan",
]

# Magnus substeps on the longest grid interval; interval i gets
# ceil(MAGNUS_SUBSTEPS * h_i / max h), so substeps shrink with the grid
MAGNUS_SUBSTEPS = 32
# multiplicative headroom of verify_dichotomy over the fitted constant C
DECAY_SLACK = 2.0
# condition-number cap of the conjugating frame in block_diagonalize
FRAME_COND_CAP = 1e10
# coalescence_scan: eigenvector condition cap and sub-grid refinement tolerance
COALESCENCE_COND_CAP = 1e4
REFINE_TOL = 1e-10
# eigenvalue-gap tolerance of detect_turning_points
TURNING_GAP_TOL = 1e-3


def _orthonormalize(Y):
    """Symmetric (Loewdin) orthonormalization; continuous in ``Y``."""
    H = Y.conj().T @ Y
    vals, vecs = np.linalg.eigh(H)
    vals = np.maximum(vals, 1e-300)
    return Y @ (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T


def _discrete_frame(Y0, steps):
    """Frame samples stepped by ``steps`` from ``Y0``, one sample per step.

    Each stepped frame is orthonormalized and then rotated by the polar
    factor of its overlap with the previous sample (the closest gauge).
    """
    frames = [Y0.astype(complex)]
    for step in steps:
        Y = _orthonormalize(step @ frames[-1])
        frames.append(Y @ polar(Y.conj().T @ frames[-1])[0])
    return np.stack(frames)


@dataclass(eq=False)
class DichotomyData:
    """Projector fields, conjugating frame and fitted decay constants."""

    grid: np.ndarray
    P_plus: np.ndarray           # (m, n, n)
    P_minus: np.ndarray
    frame: np.ndarray            # (m, n, n): columns = forward-decaying | backward-decaying
    lambda_plus: np.ndarray      # (m, j, j)
    lambda_minus: np.ndarray     # (m, k, k)
    constants: dict              # {"C": ..., "theta": ...} empirical fit
    ranks: tuple                 # (j, k)
    field: object = None
    block_residual: float = 0.0


def propagate_subspaces(field, angle_tol=1e-8, fit_pairs=24, seed=0):
    """Compute an exponential dichotomy for a coefficient field.

    Seeds the two invariant families from the endstate eigenbases of
    ``field.limit_splits()``, steps them through the cached interval
    propagators with discrete orthonormalization, assembles the projector
    pair and fits the decay constants ``(C, theta)`` from chained propagator
    samples.  Near-collisions of the two subspaces raise
    :class:`TurningPointSuspectedError`.
    """
    nodes = field.geom.x
    n = field.n
    minus, plus = field.limit_splits()
    j = plus.stable.shape[1]
    k = minus.unstable.shape[1]

    Ts0 = _orthonormalize(plus.stable)
    Tu0 = _orthonormalize(minus.unstable)
    Phi, Phi_inv = _interval_propagators(field)
    Ts = _discrete_frame(Ts0, Phi_inv[::-1])[::-1]
    Tu = _discrete_frame(Tu0, Phi)

    frame = np.concatenate([Ts, Tu], axis=2)      # (m, n, n)
    smin = np.linalg.svd(frame, compute_uv=False)[:, -1]
    if np.min(smin) < angle_tol:
        xworst = nodes[int(np.argmin(smin))]
        raise TurningPointSuspectedError(
            f"decaying/growing subspaces nearly collide at x = {xworst:.4g} "
            f"(frame sigma_min = {np.min(smin):.3e}); run turning-point "
            "detection on this ray")

    P_plus = frame[:, :, :j] @ np.linalg.inv(frame)[:, :j, :]
    P_minus = np.eye(n)[None, :, :] - P_plus

    lam_p, lam_m, block_res = block_diagonalize(field, frame, (j, k))
    data = DichotomyData(grid=nodes, P_plus=P_plus, P_minus=P_minus,
                         frame=frame, lambda_plus=lam_p, lambda_minus=lam_m,
                         constants={}, ranks=(j, k), field=field,
                         block_residual=block_res)
    data.constants.update(_fit_decay(data, field, n_pairs=fit_pairs, seed=seed))
    return data


def _interval_propagators(field):
    """Cached one-interval propagators of ``field`` on its grid ``x``.

    Returns ``(Phi, Phi_inv)`` with ``Phi[i] = S(x[i+1], x[i])`` and
    ``Phi_inv[i] = S(x[i], x[i+1])``, both by fourth-order Magnus substeps.
    The stack is built on first use and kept on the field, so every
    dichotomy on the same field shares it.
    """
    if field._propagators is None:
        grid = field.geom.x
        h = np.diff(grid)
        k = np.ceil(MAGNUS_SUBSTEPS * h / h.max()).astype(int)
        edges = [np.linspace(a, b, ki + 1)
                 for a, b, ki in zip(grid[:-1], grid[1:], k)]
        start = np.concatenate([e[:-1] for e in edges])
        dt = np.concatenate([np.diff(e) for e in edges])
        # two Gauss points per substep, one stacked evaluation of G
        c = np.sqrt(3.0) / 6.0
        G = field.G_at(np.concatenate([start + (0.5 - c) * dt,
                                       start + (0.5 + c) * dt]))
        G1, G2 = G[:dt.size], G[dt.size:]
        dt = dt[:, None, None]
        Omega = (0.5 * dt * (G1 + G2)
                 + (np.sqrt(3.0) / 12.0) * dt ** 2 * (G2 @ G1 - G1 @ G2))
        E, E_inv = expm(Omega), expm(-Omega)
        ends = np.cumsum(k)
        Phi = np.stack([reduce(np.matmul, E[lo:hi][::-1])
                        for lo, hi in zip(ends - k, ends)])
        Phi_inv = np.stack([reduce(np.matmul, E_inv[lo:hi])
                            for lo, hi in zip(ends - k, ends)])
        field._propagators = (Phi, Phi_inv)
    return field._propagators


def _chained_propagator(field, data, iy, ix, project=None):
    """Propagator from node ``iy`` to node ``ix``, scaled to norm 1, and
    the log of its norm.

    Returns ``(M, log_norm)`` with ``|M|_2 = 1``.  The cached steps are
    multiplied one interval at a time; ``project`` (``P_plus`` or
    ``P_minus``) is applied at every node, start and end included, giving
    ``P(x) S(x, y) P(y)``.  Each product is divided by its largest entry and
    the 2-norm is taken once, at the end.  Raises
    :class:`WindowOverflowError` when a product is not finite or vanishes.
    """
    Phi, Phi_inv = _interval_propagators(field)
    if iy <= ix:
        steps, nodes = Phi[iy:ix], range(iy + 1, ix + 1)
    else:
        steps, nodes = Phi_inv[ix:iy][::-1], range(iy - 1, ix - 1, -1)
    M = np.eye(field.n, dtype=complex) if project is None else project[iy]
    lognorm = 0.0
    for i, step in zip(nodes, steps):
        M = step @ M
        if project is not None:
            M = project[i] @ M
        scale = np.max(np.abs(M))
        if not np.isfinite(scale) or scale == 0.0:
            raise WindowOverflowError(
                f"propagator from x = {data.grid[iy]:.3g} to "
                f"x = {data.grid[i]:.3g} has entries of size {scale}")
        M = M / scale
        lognorm += np.log(scale)
    nrm = np.linalg.norm(M, 2)
    return M / nrm, float(lognorm + np.log(nrm))


def _pair_lognorms(data, field, n_pairs, seed):
    """Random node pairs ``iy < ix`` with their separation and the log-norms
    of the projected propagators, forward with ``P_plus`` and backward with
    ``P_minus``.

    Yields ``(iy, ix, sep, log_plus, log_minus)``; the decay fit and the
    verifier draw their pairs here, so the same seed gives the same pairs.
    """
    rng = np.random.default_rng(seed)
    m = data.grid.size
    for _ in range(n_pairs):
        iy = int(rng.integers(0, m - 2))
        ix = int(rng.integers(iy + 1, m))
        _, lp = _chained_propagator(field, data, iy, ix, project=data.P_plus)
        _, lm = _chained_propagator(field, data, ix, iy, project=data.P_minus)
        yield iy, ix, float(data.grid[ix] - data.grid[iy]), lp, lm


def _fit_decay(data, field, n_pairs=24, seed=0):
    """Least-squares fit of log |P S| versus separation, both directions.

    Raises :class:`CertificateError` when the pairs give fewer than 2
    distinct separations, where a line through the samples is not defined.
    """
    pairs = list(_pair_lognorms(data, field, n_pairs, seed))
    seps = np.array([p[2] for p in pairs])
    logs_p = np.array([p[3] for p in pairs])
    logs_m = np.array([p[4] for p in pairs])
    n_seps = np.unique(seps).size
    if n_seps < 2:
        raise CertificateError(
            f"decay fit needs at least 2 distinct separations, got {n_seps} "
            f"from fit_pairs = {n_pairs}")
    fits = {}
    for tag, logs in (("plus", logs_p), ("minus", logs_m)):
        slope, intercept = np.polyfit(seps, logs, 1)
        # shift the intercept so every fitted sample satisfies the bound
        shift = float(np.max(logs - (slope * seps + intercept)))
        fits[tag] = (-float(slope), float(np.exp(intercept + shift)))
    theta = min(fits["plus"][0], fits["minus"][0])
    C = max(fits["plus"][1], fits["minus"][1])
    return {"theta": float(theta), "C": float(C),
            "theta_plus": fits["plus"][0], "theta_minus": fits["minus"][0]}


@dataclass(frozen=True)
class DichotomyCheck:
    passed: bool
    worst_commute: float        # max |P(x)S - S P(y)| / |S|
    worst_decay: float          # max log-excess over C e^{-theta d}, in log units
    n_pairs: int


def verify_dichotomy(data, field, sample_pairs=50, tol=1e-6, seed=0):
    """Check the projector axioms on random node pairs.

    Verifies the commuting identity to relative tolerance ``tol`` and the
    two-sided exponential decay against the stored fitted constants with
    multiplicative headroom ``DECAY_SLACK``.
    """
    theta = data.constants["theta"]
    C = data.constants["C"] * DECAY_SLACK
    worst_comm = 0.0
    worst_decay = -np.inf
    for iy, ix, sep, lp, lm in _pair_lognorms(data, field, sample_pairs, seed):
        S, _ = _chained_propagator(field, data, iy, ix)
        comm = np.linalg.norm(data.P_plus[ix] @ S - S @ data.P_plus[iy], 2)
        worst_comm = max(worst_comm, comm)
        bound = np.log(C) - theta * sep
        worst_decay = max(worst_decay, lp - bound, lm - bound)
    return DichotomyCheck(passed=(worst_comm <= tol and worst_decay <= 0.0),
                          worst_commute=worst_comm, worst_decay=worst_decay,
                          n_pairs=sample_pairs)


def block_diagonalize(field, frame, ranks):
    """Conjugated generator ``T^{-1} G T - T^{-1} T'`` and its block residual.

    The frame ``(m, n, n)`` is sampled on the field's grid, where ``G`` is
    the stored ``field.G_nodes``; ``T'`` is computed by spectral
    differentiation of the frame samples, and ``ranks = (j, k)`` sizes the
    two blocks.  Raises :class:`FrameConditioningError` at the first node
    whose frame condition number exceeds ``FRAME_COND_CAP``.
    Returns the two diagonal blocks and the relative off-diagonal residual.
    """
    geom = field.geom
    j, _ = ranks
    bad = np.flatnonzero(np.linalg.cond(frame) > FRAME_COND_CAP)
    if bad.size:
        raise FrameConditioningError(
            f"frame condition number exceeds {FRAME_COND_CAP:.1e} at "
            f"x = {geom.x[bad[0]]:.4g}")
    Tp = np.tensordot(geom.D, frame, axes=(1, 0))   # derivative samples
    Lam = np.linalg.solve(frame, field.G_nodes @ frame - Tp)
    off = max(np.max(np.linalg.norm(Lam[:, :j, j:], 2, axis=(1, 2))),
              np.max(np.linalg.norm(Lam[:, j:, :j], 2, axis=(1, 2))))
    scale = np.max(np.linalg.norm(Lam, 2, axis=(1, 2)))
    residual = off / max(scale, 1e-300)
    return Lam[:, :j, :j].copy(), Lam[:, j:, j:].copy(), residual


@dataclass(frozen=True)
class TurningPointReport:
    """Locations where the principal-symbol eigenvalues coalesce."""

    ray: tuple                   # (eta direction ..., tau)
    locations: tuple             # sorted x positions
    severity: tuple              # (eigenvalue gap, eigenvector condition) per hit


def coalescence_scan(symbol, x_grid, gap_tol=1e-4, ray=()):
    """Scan a matrix-valued map for eigenvalue coalescence with degeneration.

    A location is reported when, after sub-grid refinement (to
    ``REFINE_TOL``) of a local gap minimum, the eigenvalue separation falls
    below ``gap_tol`` *and* the eigenvector matrix condition number exceeds
    ``COALESCENCE_COND_CAP``.  Crossings with
    well-conditioned eigenvectors are ignored.
    """
    from scipy.optimize import minimize_scalar
    x_grid = np.asarray(x_grid, dtype=float)

    def gap_cond(x):
        T = symbol(float(x))
        mu, V = np.linalg.eig(T)
        nsz = mu.size
        if nsz < 2:
            return np.inf, 1.0
        diffs = np.abs(mu[None, :] - mu[:, None])
        g = float(np.min(diffs[~np.eye(nsz, dtype=bool)]))
        return g, float(np.linalg.cond(V))

    gaps = np.array([gap_cond(x)[0] for x in x_grid])
    locations, severity = [], []
    for i in range(1, x_grid.size - 1):
        is_min = gaps[i] <= gaps[i - 1] and gaps[i] <= gaps[i + 1]
        strict = gaps[i] < gaps[i - 1] or gaps[i] < gaps[i + 1]
        # plateaus (constant fields) produce no strict dip and are skipped
        if not (is_min and (strict or gaps[i] < gap_tol)):
            continue
        resu = minimize_scalar(lambda x: gap_cond(x)[0],
                               bounds=(x_grid[i - 1], x_grid[i + 1]),
                               method="bounded",
                               options={"xatol": REFINE_TOL})
        g_star, c_star = gap_cond(resu.x)
        if g_star < gap_tol and c_star > COALESCENCE_COND_CAP:
            if locations and abs(resu.x - locations[-1]) < 2 * (
                    x_grid[i] - x_grid[i - 1]):
                continue
            locations.append(float(resu.x))
            severity.append((g_star, c_star))
    return TurningPointReport(ray=tuple(ray), locations=tuple(locations),
                              severity=tuple(severity))


def frames_to_csv(data, path):
    """Dump the conjugating frame samples as CSV (for plotting)."""
    write_matrix_field(path, "T", data.grid, data.frame)


def detect_turning_points(sys, profile, ray, x_grid):
    """Scan the principal symbol along a profile for Jordan-type coalescence.

    ``ray = (eta_1, ..., eta_{d-1}, tau)`` is normalized internally; the
    principal part is ``-A_1^{-1} (sum_j i eta_j A_{j+1} + i tau I)`` with
    ``A_1`` co-moving.  The scan uses the gap tolerance ``TURNING_GAP_TOL``.
    """
    ray = np.asarray(ray, dtype=float)
    if ray.size != sys.d:
        raise ValueError(f"ray must have length d = {sys.d} (eta..., tau)")
    nrm = np.linalg.norm(ray)
    if nrm == 0:
        raise ValueError("ray must be nonzero")
    ray = ray / nrm
    eta, tau = ray[:-1], ray[-1]
    eye = np.eye(sys.n)

    def symbol(x):
        w, _ = profile.sample(x)
        A = sys.flux_jacs(w)
        A1 = A[0] - profile.speed * eye
        core = 1j * tau * eye.astype(complex)
        for jj, etaj in enumerate(eta):
            core = core + 1j * etaj * A[jj + 1]
        return -np.linalg.solve(A1, core)

    return coalescence_scan(symbol, x_grid, gap_tol=TURNING_GAP_TOL,
                            ray=tuple(ray))
