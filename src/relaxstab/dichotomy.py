"""Exponential dichotomies for first-order coefficient fields on a line.

Conventions: ``P_plus(x)`` projects onto the solutions decaying forward
(as ``x -> +inf``), ``P_minus = I - P_plus`` onto those decaying backward.
The forward-decaying family is tracked by integrating the stable frame of
``G(+inf)`` backward from ``+L``; the backward-decaying family by
integrating the unstable frame of ``G(-inf)`` forward from ``-L`` (each
direction is the numerically attracting one for the subspace it tracks).
Frames evolve by the projected equation ``Y' = (I - Y Y*) G Y``, which keeps
them orthonormal; bases are pinned down by ordering the seeding eigenvectors
by real part.

Propagators are built from a per-field cache: the one-interval propagators
``Phi_i = S(x_{i+1}, x_i)`` between neighbouring grid nodes are integrated
once, and their inverses give the backward steps.  A propagator over a long
distance is the ordered product of cached steps, renormalized at the end of
each window to avoid overflow; log-norms accumulate exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from .errors import (CenterSpectrumError, CertificateError,
                     FrameConditioningError, StabilityError,
                     TurningPointSuspectedError)

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


@dataclass(frozen=True)
class SpectralSplit:
    """Eigendata of a limit matrix split by sign of the real part."""

    stable: np.ndarray        # (n, j) right eigenvectors, Re mu < 0
    unstable: np.ndarray      # (n, k)
    gap: float                # min |Re mu|: distance of the spectrum to the axis
    values: np.ndarray


def limit_spectral_split(G_inf, gap_tol=1e-9):
    """Stable/unstable eigenbasis of a constant matrix.

    Raises :class:`CenterSpectrumError` when an eigenvalue sits within
    ``gap_tol`` of the imaginary axis.
    """
    G_inf = np.asarray(G_inf)
    mu, V = np.linalg.eig(G_inf)
    margin = float(np.min(np.abs(mu.real)))
    if margin < gap_tol:
        raise CenterSpectrumError(
            f"eigenvalue with |Re| = {margin:.3g} within gap_tol of the axis")
    order = np.argsort(mu.real)
    mu, V = mu[order], V[:, order]
    # reproducible sign: largest-magnitude component made real positive
    for c in range(V.shape[1]):
        pivot = V[np.argmax(np.abs(V[:, c])), c]
        V[:, c] *= np.abs(pivot) / pivot
    stable = mu.real < 0
    return SpectralSplit(stable=V[:, stable], unstable=V[:, ~stable],
                         gap=margin, values=mu)


def _orthonormalize(Y):
    """Symmetric (Loewdin) orthonormalization; continuous in ``Y``."""
    H = Y.conj().T @ Y
    vals, vecs = np.linalg.eigh(H)
    vals = np.maximum(vals, 1e-300)
    return Y @ (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T


def _integrate_frame(field, Y0, x_from, x_to, nodes, rtol=1e-10, atol=1e-12):
    """Propagate an orthonormal frame and sample it at ``nodes``."""
    import warnings
    n, p = Y0.shape

    def rhs(x, yflat):
        Y = yflat.reshape(n, p)
        GY = field.G_at(x) @ Y
        return (GY - Y @ (Y.conj().T @ GY)).reshape(-1)

    with warnings.catch_warnings():
        # scipy's step control emits invalid-divide noise while recovering
        # from rejected steps on near-degenerate fields; the hard frame
        # conditioning check downstream reports the real failure
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve_ivp(rhs, (x_from, x_to), Y0.astype(complex).reshape(-1),
                        method="DOP853", rtol=rtol, atol=atol,
                        dense_output=True)
    if not sol.success:
        raise StabilityError(f"frame integration failed: {sol.message}")
    frames = np.empty((nodes.size, n, p), dtype=complex)
    for i, x in enumerate(nodes):
        frames[i] = _orthonormalize(sol.sol(x).reshape(n, p))
    return frames


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


def propagate_subspaces(field, splits=None, geom=None, angle_tol=1e-8,
                        rtol=1e-10, fit_pairs=24, seed=0):
    """Compute an exponential dichotomy for a coefficient field.

    Seeds the two invariant families from the endstate eigenbases (``splits``
    may carry precomputed :class:`SpectralSplit` pairs for the two limits),
    propagates them with continuous orthonormalization, assembles the
    projector pair and fits the decay constants ``(C, theta)`` from windowed
    propagator samples.  Near-collisions of the two subspaces raise
    :class:`TurningPointSuspectedError`.
    """
    geom = geom or field.geom
    nodes = geom.x
    n = field.n
    if splits is None:
        splits = (limit_spectral_split(field.limits[0]),
                  limit_spectral_split(field.limits[1]))
    minus, plus = splits
    j = plus.stable.shape[1]
    k = minus.unstable.shape[1]
    if j + k != n:
        raise CenterSpectrumError(
            f"inconsistent splitting: dim S(+inf) = {j}, dim U(-inf) = {k}")

    Ts0 = _orthonormalize(plus.stable)
    Tu0 = _orthonormalize(minus.unstable)
    Ts = _integrate_frame(field, Ts0, nodes[-1], nodes[0], nodes, rtol=rtol)
    Tu = _integrate_frame(field, Tu0, nodes[0], nodes[-1], nodes, rtol=rtol)

    frame = np.concatenate([Ts, Tu], axis=2)      # (m, n, n)
    smin = np.array([np.linalg.svd(frame[i], compute_uv=False)[-1]
                     for i in range(nodes.size)])
    if np.min(smin) < angle_tol:
        xworst = nodes[int(np.argmin(smin))]
        raise TurningPointSuspectedError(
            f"decaying/growing subspaces nearly collide at x = {xworst:.4g} "
            f"(frame sigma_min = {np.min(smin):.3e}); run turning-point "
            "detection on this ray")

    P_plus = np.empty((nodes.size, n, n), dtype=complex)
    sel = np.zeros((n, n))
    sel[:j, :j] = np.eye(j)
    for i in range(nodes.size):
        P_plus[i] = frame[i] @ sel @ np.linalg.inv(frame[i])
    P_minus = np.eye(n)[None, :, :] - P_plus

    lam_p, lam_m, block_res = block_diagonalize(field, frame, (j, k),
                                                geom=geom)
    data = DichotomyData(grid=nodes, P_plus=P_plus, P_minus=P_minus,
                         frame=frame, lambda_plus=lam_p, lambda_minus=lam_m,
                         constants={}, ranks=(j, k), field=field,
                         block_residual=block_res)
    data.constants.update(_fit_decay(data, field, n_pairs=fit_pairs, seed=seed))
    return data


def _window_edges(grid, iy, ix, max_width):
    """Node indices splitting ``[grid[iy], grid[ix]]`` into short windows."""
    lo, hi = (iy, ix) if iy <= ix else (ix, iy)
    edges = [lo]
    for i in range(lo + 1, hi + 1):
        if grid[i] - grid[edges[-1]] >= max_width or i == hi:
            edges.append(i)
    if iy > ix:
        edges = edges[::-1]
    return edges


def _propagate_window(field, x_from, x_to, M0, rtol=1e-10):
    n = M0.shape[0]

    def rhs(x, mflat):
        return (field.G_at(x) @ mflat.reshape(n, n)).reshape(-1)

    sol = solve_ivp(rhs, (x_from, x_to), M0.astype(complex).reshape(-1),
                    method="DOP853", rtol=rtol, atol=1e-13)
    if not sol.success:
        raise StabilityError(f"propagator window failed: {sol.message}")
    return sol.y[:, -1].reshape(n, n)


def _interval_propagators(field, grid):
    """Cached one-interval propagators of ``field`` on ``grid``.

    Returns ``(Phi, Phi_inv)`` with ``Phi[i] = S(grid[i+1], grid[i])`` and
    ``Phi_inv[i] = S(grid[i], grid[i+1])``.  The stack is integrated on first
    use and kept on the field, so every dichotomy on the same field and grid
    shares it.
    """
    cache = field._propagators
    if cache is None or not np.array_equal(cache[0], grid):
        eye = np.eye(field.n)
        Phi = np.stack([_propagate_window(field, a, b, eye)
                        for a, b in zip(grid[:-1], grid[1:])])
        cache = (grid, Phi, np.linalg.inv(Phi))
        field._propagators = cache
    return cache[1], cache[2]


def _chained_propagator(field, data, iy, ix, project=None, max_width=None):
    """Normalized propagator (optionally projector-chained) and its log-norm.

    Returns ``(M, log_norm)`` with ``|M| = 1``; ``project`` selects the
    ``P_plus``/``P_minus`` chain inserted at the window ends, implementing
    ``P(x) S(x, y)`` without overflow.
    """
    grid = data.grid
    rate = max(data.constants.get("theta", 1.0), 1e-3)
    max_width = max_width or max(2.0 / rate, (grid[-1] - grid[0]) / 64.0)
    edges = _window_edges(grid, iy, ix, max_width)
    Phi, Phi_inv = _interval_propagators(field, grid)
    M = np.eye(field.n, dtype=complex)
    if project is not None:
        M = project[edges[0]].copy()
    lognorm = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        for step in (Phi[a:b] if a < b else Phi_inv[b:a][::-1]):
            M = step @ M
        if project is not None:
            M = project[b] @ M
        nrm = np.linalg.norm(M, 2)
        if not np.isfinite(nrm) or nrm == 0.0:
            from .errors import WindowOverflowError
            raise WindowOverflowError(
                f"propagator window [{grid[a]:.3g}, {grid[b]:.3g}] produced "
                f"norm {nrm}; reduce the window width")
        M /= nrm
        lognorm += float(np.log(nrm))
    return M, lognorm


def _fit_decay(data, field, n_pairs=24, seed=0):
    """Least-squares fit of log |P S| versus separation, both directions.

    Raises :class:`CertificateError` when the pairs give fewer than 2
    distinct separations, where a line through the samples is not defined.
    """
    rng = np.random.default_rng(seed)
    m = data.grid.size
    seps, logs_p, logs_m = [], [], []
    for _ in range(n_pairs):
        iy = int(rng.integers(0, m - 2))
        ix = int(rng.integers(iy + 1, m))
        sep = float(data.grid[ix] - data.grid[iy])
        if sep < 1e-6:
            continue
        _, lp = _chained_propagator(field, data, iy, ix, project=data.P_plus)
        _, lm = _chained_propagator(field, data, ix, iy, project=data.P_minus)
        seps.append(sep)
        logs_p.append(lp)
        logs_m.append(lm)
    seps = np.asarray(seps)
    n_seps = np.unique(seps).size
    if n_seps < 2:
        raise CertificateError(
            f"decay fit needs at least 2 distinct separations, got {n_seps} "
            f"from fit_pairs = {n_pairs}")
    fits = {}
    for tag, logs in (("plus", np.asarray(logs_p)), ("minus", np.asarray(logs_m))):
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


def verify_dichotomy(data, field, sample_pairs=50, tol=1e-6, seed=0,
                     decay_slack=2.0):
    """Check the projector axioms on random node pairs.

    Verifies the commuting identity to relative tolerance ``tol`` and the
    two-sided exponential decay against the stored fitted constants with
    multiplicative headroom ``decay_slack``.
    """
    rng = np.random.default_rng(seed)
    m = data.grid.size
    theta = data.constants["theta"]
    C = data.constants["C"] * decay_slack
    worst_comm = 0.0
    worst_decay = -np.inf
    for _ in range(sample_pairs):
        iy = int(rng.integers(0, m - 2))
        ix = int(rng.integers(iy + 1, m))
        sep = float(data.grid[ix] - data.grid[iy])
        S, _ = _chained_propagator(field, data, iy, ix)
        comm = np.linalg.norm(data.P_plus[ix] @ S - S @ data.P_plus[iy], 2)
        worst_comm = max(worst_comm, comm)
        _, lp = _chained_propagator(field, data, iy, ix, project=data.P_plus)
        _, lm = _chained_propagator(field, data, ix, iy, project=data.P_minus)
        bound = np.log(C) - theta * sep
        worst_decay = max(worst_decay, lp - bound, lm - bound)
    return DichotomyCheck(passed=(worst_comm <= tol and worst_decay <= 0.0),
                          worst_commute=worst_comm, worst_decay=worst_decay,
                          n_pairs=sample_pairs)


def block_diagonalize(field, frame_or_data, ranks=None, geom=None,
                      cond_cap=1e10):
    """Conjugated generator ``T^{-1} G T - T^{-1} T'`` and its block residual.

    ``T'`` is computed by spectral differentiation of the frame samples.
    Returns the two diagonal blocks and the relative off-diagonal residual.
    """
    if isinstance(frame_or_data, DichotomyData):
        frame = frame_or_data.frame
        ranks = frame_or_data.ranks
    else:
        frame = frame_or_data
    geom = geom or field.geom
    j, k = ranks
    m, n, _ = frame.shape
    D = geom.D
    Tp = np.tensordot(D, frame, axes=(1, 0))   # (m, n, n) derivative samples
    lam_p = np.empty((m, j, j), dtype=complex)
    lam_m = np.empty((m, k, k), dtype=complex)
    off = 0.0
    scale = 0.0
    for i in range(m):
        T = frame[i]
        if np.linalg.cond(T) > cond_cap:
            raise FrameConditioningError(
                f"frame condition number exceeds {cond_cap:.1e} at "
                f"x = {geom.x[i]:.4g}")
        Lam = np.linalg.solve(T, field.G_at(geom.x[i]) @ T - Tp[i])
        lam_p[i] = Lam[:j, :j]
        lam_m[i] = Lam[j:, j:]
        off = max(off, np.linalg.norm(Lam[:j, j:], 2),
                  np.linalg.norm(Lam[j:, :j], 2))
        scale = max(scale, np.linalg.norm(Lam, 2))
    residual = off / max(scale, 1e-300)
    return lam_p, lam_m, residual


@dataclass(frozen=True)
class TurningPointReport:
    """Locations where the principal-symbol eigenvalues coalesce."""

    ray: tuple                   # (eta direction ..., tau)
    locations: tuple             # sorted x positions
    severity: tuple              # (eigenvalue gap, eigenvector condition) per hit


def coalescence_scan(symbol, x_grid, gap_tol=1e-4, cond_cap=1e4,
                     refine_tol=1e-10, ray=()):
    """Scan a matrix-valued map for eigenvalue coalescence with degeneration.

    A location is reported when, after sub-grid refinement of a local gap
    minimum, the eigenvalue separation falls below ``gap_tol`` *and* the
    eigenvector matrix condition number exceeds ``cond_cap``.  Crossings with
    well-conditioned eigenvectors are ignored.
    """
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
                               options={"xatol": refine_tol})
        g_star, c_star = gap_cond(resu.x)
        if g_star < gap_tol and c_star > cond_cap:
            if locations and abs(resu.x - locations[-1]) < 2 * (
                    x_grid[i] - x_grid[i - 1]):
                continue
            locations.append(float(resu.x))
            severity.append((g_star, c_star))
    return TurningPointReport(ray=tuple(ray), locations=tuple(locations),
                              severity=tuple(severity))


def frames_to_csv(data, path):
    """Dump the conjugating frame samples as CSV (for plotting)."""
    import csv as _csv
    m, n, _ = data.frame.shape
    header = ["x"] + [f"T_{i + 1}{j + 1}_{part}" for i in range(n)
                      for j in range(n) for part in ("re", "im")]
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        for k in range(m):
            row = [repr(float(data.grid[k]))]
            for i in range(n):
                for j in range(n):
                    row += [repr(float(data.frame[k, i, j].real)),
                            repr(float(data.frame[k, i, j].imag))]
            writer.writerow(row)


def detect_turning_points(sys, profile, ray, x_grid, gap_tol=1e-3,
                          cond_cap=1e4):
    """Scan the principal symbol along a profile for Jordan-type coalescence.

    ``ray = (eta_1, ..., eta_{d-1}, tau)`` is normalized internally; the
    principal part is ``-A_1^{-1} (sum_j i eta_j A_{j+1} + i tau I)`` with
    ``A_1`` co-moving.
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

    return coalescence_scan(symbol, x_grid, gap_tol=gap_tol,
                            cond_cap=cond_cap, ray=tuple(ray))
