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
stiff interval can make ``Phi_i`` singular to working precision.  The
exponentials of all substeps, forward and backward, come from one stacked
Pade-13 scaling-and-squaring pass (:func:`_expm`), and the substeps of all
intervals are multiplied in one pairwise pass (:func:`_interval_products`),
so no Python loop runs over substeps or intervals.

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
with the projector applied at every node.  All node pairs walk in one stack
(:func:`_pair_propagators`), one chain per start node and direction, each
rescaled by its largest entry at every step; 2-norms are taken once, at the
end, so a log-norm is exact wherever the rescalings fall.  The fit and the
verifier draw their node pairs in one function (:func:`_pair_lognorms`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (CertificateError, FrameConditioningError, NumericError,
                     TurningPointSuspectedError, WindowOverflowError)
from .model import _coalescences
from .resolvent import SpectralSplit, limit_spectral_split

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

# least singular value of the decaying/growing frame before
# propagate_subspaces suspects a turning point
ANGLE_TOL = 1e-8
# Magnus substeps on the longest grid interval; interval i gets
# ceil(MAGNUS_SUBSTEPS * h_i / max h), so substeps shrink with the grid
MAGNUS_SUBSTEPS = 32
# multiplicative headroom of verify_dichotomy over the fitted constant C
DECAY_SLACK = 2.0
# condition-number cap of the conjugating frame in block_diagonalize
FRAME_COND_CAP = 1e10
# eigenvector condition cap of coalescence_scan and detect_turning_points
COALESCENCE_COND_CAP = 1e4
# eigenvalue-gap tolerance of detect_turning_points
TURNING_GAP_TOL = 1e-3


# Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
# with the scaling of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
          16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152         # largest 1-norm Pade-13 takes unscaled
ELL13 = 113250775606021113483283660800000000.0  # 1/|c_27| of the error series


def _mm(X, Y):
    """Products of two matrix stacks held entry-major, ``(n, n, K)``.

    Each entry is a vector over the stack, so a product is ``n``
    broadcast multiply-adds instead of ``K`` small matrix products.
    """
    P = X[:, 0, None] * Y[None, 0]
    for j in range(1, X.shape[1]):
        P += X[:, j, None] * Y[None, j]
    return P


def _norm1(X):
    """1-norms of an entry-major stack ``(n, n, K)``."""
    return np.abs(X).sum(axis=0).max(axis=0)


def _expm(A):
    """Matrix exponentials of a stack ``(K, n, n)``, in one pass.

    Every matrix gets its own scaling ``s`` from the exact norms of its
    powers (``eta_5`` of Al-Mohy & Higham, plus their ``ell`` correction
    against overscaling), the Pade-13 approximant of ``2^-s A``, and ``s``
    squarings, masked to the matrices that need them.  The products run on
    the entry-major layout (:func:`_mm`).
    """
    X = np.ascontiguousarray(np.moveaxis(A, 0, -1))
    n, K = X.shape[0], X.shape[-1]
    X2 = _mm(X, X)
    X4 = _mm(X2, X2)
    X6 = _mm(X4, X2)
    d6, d8, d10 = (_norm1(X6) ** (1 / 6), _norm1(_mm(X4, X4)) ** (1 / 8),
                   _norm1(_mm(X4, X6)) ** (1 / 10))
    eta5 = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(eta5 / THETA13)), 0.0)
    # ell: extra halvings until |c_27| |2^-s A|^27 is below the unit
    # roundoff relative to |2^-s A| (1-norms; |A|^27 from the left by 1^T)
    absX = np.abs(X) * 2.0 ** -s
    col = absX.sum(axis=0)
    for _ in range(26):
        col = (col[:, None] * absX).sum(axis=0)
    nrm = _norm1(absX)
    alpha = np.divide(col.max(axis=0), nrm * ELL13, out=np.zeros(K),
                      where=nrm > 0)
    with np.errstate(divide="ignore"):
        ell = np.ceil(np.log2(alpha / 2.0 ** -53) / 26.0)
    s = (s + np.maximum(ell, 0.0)).astype(int)

    c = 2.0 ** -s
    X, X2, X4, X6 = X * c, X2 * c ** 2, X4 * c ** 4, X6 * c ** 6
    b = PADE13
    eye = np.eye(n)[:, :, None]
    U = _mm(X, _mm(X6, b[13] * X6 + b[11] * X4 + b[9] * X2)
            + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (_mm(X6, b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    R = np.moveaxis(np.linalg.solve(np.moveaxis(V - U, -1, 0),
                                    np.moveaxis(V + U, -1, 0)), 0, -1)
    for k in range(int(s.max(initial=0))):
        idx = np.flatnonzero(s > k)
        R[..., idx] = _mm(R[..., idx], R[..., idx])
    return np.ascontiguousarray(np.moveaxis(R, -1, 0))


def _orthonormalize(Y):
    """Symmetric (Loewdin) orthonormalization; continuous in ``Y``."""
    H = Y.conj().T @ Y
    vals, vecs = np.linalg.eigh(H)
    vals = np.maximum(vals, 1e-300)
    return Y @ (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T


def polar_unitary(a):
    """``scipy.linalg.polar(a)[0]``: ``u @ vh`` of the thin SVD of ``a``
    (``zgesdd`` through numpy, with scipy's work size)."""
    try:
        u, _, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    return u.dot(vh)


def _discrete_frame(Y0, steps):
    """Frame samples stepped by ``steps`` from ``Y0``, one sample per step.

    Each stepped frame is orthonormalized and then rotated by the polar
    factor of its overlap with the previous sample (the closest gauge).
    """
    frames = [Y0.astype(complex)]
    for step in steps:
        Y = _orthonormalize(step @ frames[-1])
        frames.append(Y @ polar_unitary(Y.conj().T @ frames[-1]))
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


def propagate_subspaces(field, fit_pairs=24, seed=0):
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
    if np.min(smin) < ANGLE_TOL:
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


def _magnus_exponents(field):
    """Fourth-order Magnus exponents ``Omega`` of every substep of ``field``'s
    grid, in grid order, and the substep count ``k`` of each interval.

    Interval ``i`` gets ``ceil(MAGNUS_SUBSTEPS * h_i / max h)`` equal
    substeps; ``G`` is evaluated at their two Gauss points each, in one
    stacked call.
    """
    grid = field.geom.x
    h = np.diff(grid)
    k = np.ceil(MAGNUS_SUBSTEPS * h / h.max()).astype(int)
    edges = [np.linspace(a, b, ki + 1)
             for a, b, ki in zip(grid[:-1], grid[1:], k)]
    start = np.concatenate([e[:-1] for e in edges])
    dt = np.concatenate([np.diff(e) for e in edges])
    c = np.sqrt(3.0) / 6.0
    G = field.G_at(np.concatenate([start + (0.5 - c) * dt,
                                   start + (0.5 + c) * dt]))
    G1, G2 = G[:dt.size], G[dt.size:]
    dt = dt[:, None, None]
    Omega = (0.5 * dt * (G1 + G2)
             + (np.sqrt(3.0) / 12.0) * dt ** 2 * (G2 @ G1 - G1 @ G2))
    return Omega, k


def _interval_propagators(field):
    """Cached one-interval propagators of ``field`` on its grid ``x``.

    Returns ``(Phi, Phi_inv)`` with ``Phi[i] = S(x[i+1], x[i])`` and
    ``Phi_inv[i] = S(x[i], x[i+1])``, the ordered products of the substep
    exponentials ``expm(Omega)`` and ``expm(-Omega)``, all taken in one
    :func:`_expm` call.  The stack is built on first use and kept on the
    field, so every dichotomy on the same field shares it.
    """
    if field._propagators is None:
        Omega, k = _magnus_exponents(field)
        E, E_inv = np.split(_expm(np.concatenate([Omega, -Omega])), 2)
        field._propagators = (_interval_products(E, k, later_left=True),
                              _interval_products(E_inv, k, later_left=False))
    return field._propagators


def _interval_products(E, k, later_left):
    """Ordered products of the substep matrices ``E`` (grid order) over each
    interval of ``k[i]`` substeps, later substeps on the left or the right.

    The substeps of all intervals sit in one entry-major table, padded with
    identities to a power of two, and neighbours are multiplied pairwise
    until one matrix per interval is left.
    """
    n = E.shape[-1]
    width = 1 << int(k.max() - 1).bit_length()
    slots = np.arange(width) < k[:, None]                 # (intervals, width)
    P = np.empty((n, n) + slots.shape, dtype=E.dtype)
    P[:, :, slots] = np.moveaxis(E, 0, -1)
    P[:, :, ~slots] = np.eye(n)[:, :, None]
    while P.shape[-1] > 1:
        early, late = P[..., 0::2], P[..., 1::2]
        P = _mm(late, early) if later_left else _mm(early, late)
    return np.ascontiguousarray(np.moveaxis(P[..., 0], -1, 0))


def _pair_propagators(field, starts, ends, project):
    """Propagators from nodes ``starts`` to nodes ``ends``, scaled to norm 1,
    and the logs of their norms, stacked over the pairs.

    ``project`` (``P_plus``, ``P_minus`` or None) is applied at every node,
    start and end included, giving ``P(x) S(x, y) P(y)``.  All chains advance
    in lockstep, longest first, and a pair is read out as its chain passes
    its end node.  Raises :class:`WindowOverflowError` when a product is not
    finite or vanishes.
    """
    grid = field.geom.x
    m, n = grid.size, field.n
    dist = np.abs(ends - starts)
    key = (ends < starts) * m + starts        # chain: direction, start node
    reach = np.full(2 * m, -1)
    np.maximum.at(reach, key, dist)
    order = np.argsort(-reach, kind="stable")    # longest chain first
    keys, at = order[:np.count_nonzero(reach >= 0)], np.argsort(order)[key]
    back, start = np.divmod(keys, m)
    # step t of a chain enters node[t], by Phi[node - 1] forward and by
    # Phi_inv[node] back; the first running[t] chains take it
    steps = np.concatenate(_interval_propagators(field))
    ts = np.arange(dist.max(initial=0) + 1)[:, None]
    node = start + (1 - 2 * back) * ts
    step, running = node - 1 + back * m, (reach[keys] >= ts).sum(axis=1)
    # ends_at[t]: the pairs t steps apart
    ends_at = np.split(np.argsort(dist, kind="stable"),
                       np.cumsum(np.bincount(dist, minlength=1))[:-1])
    M = (np.tile(np.eye(n, dtype=complex), (keys.size, 1, 1))
         if project is None else project[start].astype(complex))
    logs, log_out = np.zeros(keys.size), np.empty(dist.size)
    M_out = np.empty((dist.size, n, n), dtype=complex)
    for t, (k, done) in enumerate(zip(running, ends_at)):
        if t:
            M[:k] = steps[step[t, :k]] @ M[:k]
            if project is not None:
                M[:k] = project[node[t, :k]] @ M[:k]
            scale = np.abs(M[:k]).max(axis=(1, 2))
            ok = (scale > 0.0) & (scale < np.inf)
            if not ok.all():
                b = np.argmin(ok)
                raise WindowOverflowError(
                    f"propagator from x = {grid[start[b]]:.3g} to x = "
                    f"{grid[node[t, b]]:.3g} has entries of size {scale[b]}")
            M[:k] /= scale[:, None, None]
            logs[:k] += np.log(scale)
        if done.size:
            M_out[done], log_out[done] = M[at[done]], logs[at[done]]
    nrm = np.linalg.norm(M_out, 2, axis=(1, 2))
    return M_out / nrm[:, None, None], log_out + np.log(nrm)


def _pair_lognorms(data, field, n_pairs, seed):
    """Random node pairs ``iy < ix`` with their separation and the log-norms
    of the projected propagators, forward with ``P_plus`` and backward with
    ``P_minus``.

    Returns arrays ``(iy, ix, sep, log_plus, log_minus)``; the decay fit and
    the verifier draw their pairs here, so the same seed gives the same pairs.
    """
    rng = np.random.default_rng(seed)
    m = data.grid.size
    iy, ix = np.zeros((2, n_pairs), dtype=int)
    for p in range(n_pairs):            # the generator draws iy, then ix
        iy[p] = rng.integers(0, m - 2)
        ix[p] = rng.integers(iy[p] + 1, m)
    _, log_plus = _pair_propagators(field, iy, ix, data.P_plus)
    _, log_minus = _pair_propagators(field, ix, iy, data.P_minus)
    return iy, ix, data.grid[ix] - data.grid[iy], log_plus, log_minus


def _fit_decay(data, field, n_pairs=24, seed=0):
    """Least-squares fit of log |P S| versus separation, both directions.

    Raises :class:`CertificateError` when the pairs give fewer than 2
    distinct separations, where a line through the samples is not defined.
    """
    _, _, seps, logs_p, logs_m = _pair_lognorms(data, field, n_pairs, seed)
    n_seps = seps.size and 1 + np.count_nonzero(np.diff(np.sort(seps)))
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
    iy, ix, sep, lp, lm = _pair_lognorms(data, field, sample_pairs, seed)
    S, _ = _pair_propagators(field, iy, ix, None)
    P = data.P_plus
    comm = np.linalg.norm(P[ix] @ S - S @ P[iy], 2, axis=(1, 2))
    worst_comm = np.max(comm, initial=0.0)
    bound = np.log(C) - theta * sep
    worst_decay = np.max(np.maximum(lp - bound, lm - bound), initial=-np.inf)
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


def _turning_report(T, family, x_grid, gap_tol, ray):
    flags = _coalescences(T, family, x_grid, gap_tol, COALESCENCE_COND_CAP)[3]
    return TurningPointReport(ray=tuple(ray),
                              locations=tuple(f[1] for f in flags),
                              severity=tuple(f[2:] for f in flags))


def coalescence_scan(symbol, x_grid, gap_tol=1e-4, ray=()):
    """Scan a matrix-valued map for eigenvalue coalescence with degeneration.

    A location is reported where the eigenvalue separation falls below
    ``gap_tol`` *and* the eigenvector matrix condition number exceeds
    ``COALESCENCE_COND_CAP``, at a grid point or after sub-grid refinement
    of a local gap minimum; the test is the regularity check's
    (:func:`relaxstab.model._coalescences`).  Crossings with
    well-conditioned eigenvectors are ignored.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    T = np.stack([symbol(float(x)) for x in x_grid])
    return _turning_report(T, symbol, x_grid, gap_tol, ray)


def detect_turning_points(sys, profile, ray, x_grid):
    """Scan the principal symbol along a profile for Jordan-type coalescence.

    ``ray = (eta_1, ..., eta_{d-1}, tau)`` is normalized internally; the
    principal part is ``-A_1^{-1} (sum_j i eta_j A_{j+1} + i tau I)`` with
    ``A_1`` co-moving, evaluated on the whole grid in one stacked pass.  The
    scan uses the gap tolerance ``TURNING_GAP_TOL``.
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

    def symbols(xs):
        A = sys.flux_jacs(profile.sample_many(xs)[0])
        core = 1j * (tau * eye + np.tensordot(eta, A[:, 1:], axes=(0, 1)))
        return -np.linalg.solve(A[:, 0] - profile.speed * eye, core)

    x_grid = np.asarray(x_grid, dtype=float)
    return _turning_report(symbols(x_grid), lambda x: symbols([x])[0],
                           x_grid, TURNING_GAP_TOL, ray)
