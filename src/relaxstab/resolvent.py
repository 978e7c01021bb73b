"""Frequency-parametrized resolvent problems on a truncated line.

For a wave ``wbar`` and frequency ``(eta, lambda)`` the first-order field

    G(x; eta, lambda, v) = -A_1^{-1} (lambda*I + sum_{j>=2} i eta_j A_j(wbar+v)
                                      + E(wbar))

(with ``A_1`` co-moving, ``A_1(wbar+v) - s*I``) turns the resolvent-type
equation into the ODE ``v' = G v + A_1^{-1} f``.  It is solved here by
Chebyshev collocation on ``[-L, L]`` with spectral-projection boundary
conditions: no growing modes injected at either end, i.e. ``v(-L)`` confined
to the unstable subspace of ``G(-inf)`` and ``v(+L)`` to the stable subspace
of ``G(+inf)``.

Gains are measured in the frequency-weighted norm

    |f|_{hat,s} = |f|_{H^s} + (1 + |(eta, Im lambda)|)^s |f|_{L^2},

by randomized unit forcings plus a power-iteration refinement; every gain is
a certified lower bound of the discrete operator norm and is reported as
such.

What a frequency point costs: the coefficients that do not depend on
``lambda`` (``A_j``, ``E`` and ``(A_1 - s*I)^{-1}`` at the nodes and at
``-inf, +inf``) are built once per grid and wave and memoized on the
:class:`CollocationGrid`, so :func:`assemble_G` at a new point only forms
``G``, a batched ``n x n`` product per node.  A point then makes its LAPACK
calls: the LU factorization of the ``mn x mn`` collocation matrix, one
multi-column solve of its random forcings, and per power-iteration step an
adjoint and a forward single-column solve and one Cholesky solve with the
hat-Gram matrix.  A point draws three sets of forcings, each from its own
seed: the trials of its gains, the forcings that start the power iteration
and, at bounded frequencies, the hat/L2 probe.  The power iteration starts
from the solution of its best forcing: the end rows of a forcing are
projected by elementwise products, so its solution has the same bits in a
stack of any size.  Every collocation solve goes through :func:`lu_solve`:
a stack through one ``getrs`` call, a single column (the power iteration's
20 per point) through a row permutation and two ``trsv`` calls.  At one
BLAS thread a one-column ``getrs`` packs the whole factor for ``trsm`` on
every call and takes about three times as long.  These routines are called
through ctypes in the OpenBLAS that numpy loaded (``relaxstab._lapack``,
which imports nothing of scipy): ``zgetrf`` factors the collocation matrix
as scipy's ``lu_factor`` would, and an exactly zero pivot raises
:class:`NumericError`; ``zgetrs`` and ``ztrsv`` solve with it; ``dpotrf``
factors the real hat-Gram matrix as ``cho_factor`` would, and ``dpotrs``
solves with that real factor.  ctypes releases the GIL for each LAPACK
call.

Everything else is numpy work, which holds the GIL, and on a small grid
(43 nodes: a few microseconds per LAPACK call) it is nearly all of a
point's time.  So consecutive points advance in lockstep as one chunk
(:func:`_sweep_chunk`): the bumps of every forcing of the chunk are
evaluated in one pass, its solutions normed in one pass, and each
power-iteration step (the Gram products, the end-row fixes, the
``A_1^{-1}`` node maps, the envelope, the normalization and the residual
checks) is one numpy call over the chunk's stack; only the LAPACK calls are
made point by point.  Each point gets the bits it gets alone.  A chunk holds
as many points as fit ``CHUNK_BYTES`` (2 MiB) of collocation matrices, at
least one: the 9 points of a sweep at 43 nodes (118 KB each) form one
chunk, and at 161 nodes (1.66 MB) each point is a chunk of its own, which
keeps about one factor per thread in memory.  A stack holds one rank pair
``(j, k)`` of the limit splits, so a chunk whose points have several pairs
runs one stack per pair.  A degenerate point rides along as zero fields: a
point with no positive start ratio starts its power iteration from zero,
and a step forcing of zero norm stays zero, so the point ends with no
refined gain.  Around the LAPACK calls the
matrices stay small: the collocation matrix is filled in Fortran order and
factored in place; the real matrices ``D^k``, the hat-Gram matrix and its
Cholesky factor act on the real view of a complex field (its real and
imaginary parts as ``2n`` real columns) instead of being cast to complex;
and the residual check reads only the interior rows.

The chunks of a sweep run on the calling thread alongside
``min(worker_count(), chunks) - 1`` helper threads (:func:`worker_count`),
the program's only source of parallelism: each thread takes the next chunk
until none is left, so a one-chunk sweep starts no thread.  The LAPACK work
of one chunk's points overlaps that of another's, while their numpy work
takes turns at the GIL.
``RELAXSTAB_THREADS`` never changes an output, and BLAS defaults to one
thread.  A user-set ``OPENBLAS_NUM_THREADS`` or numpy loaded before
``relaxstab`` keeps several BLAS threads, and then the last digit of a
result can move (README.md).
"""

import os
import threading
from dataclasses import dataclass, field as dfield

import numpy as np

from ._lapack import cho_factor, dpotrs, lu_factor, lu_solve
from .errors import (CenterSpectrumError, ConfigError, ModelError,
                     NumericError)
from .grids import cheb_grid
from .model import zero_order_matrix

__all__ = [
    "FrequencyPoint",
    "CollocationGrid",
    "HatNorm",
    "ResolventOperatorField",
    "SweepResult",
    "assemble_G",
    "verify_equivalence",
    "bump_perturbation",
    "worker_count",
]

GAMMA_FLOOR = -10.0       # smallest Re lambda of a frequency point
# smallest |Re mu| of a limit matrix with a usable stable/unstable split
SPLIT_GAP_TOL = 1e-9
RESIDUAL_CAP = 1e-8
N_BUMPS = 6               # Gaussian bumps per random forcing
BOUNDED_CUT = 5.0         # |lambda| up to which hat/L2 ratios are probed
POWER_ITERS = 10          # power-iteration steps of a gain estimate
CHUNK_BYTES = 2 ** 21     # collocation matrices of the points run in lockstep


def worker_count():
    """Most threads of a sweep, the calling thread included:
    ``RELAXSTAB_THREADS`` where it is set, else the core count, at most 8; a
    sweep runs its chunks of points on the caller and ``threads - 1``
    helpers, one thread per chunk at most, so a one-chunk sweep starts no
    thread (:func:`verify_equivalence`).

    These threads are the program's only source of parallelism: importing
    ``relaxstab`` pins OpenBLAS to one thread (unless the caller set
    ``OPENBLAS_NUM_THREADS`` or loaded numpy first), and their count never
    changes a result.  Raises :class:`ConfigError` when
    ``RELAXSTAB_THREADS`` is not a positive integer.
    """
    env = os.environ.get("RELAXSTAB_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"RELAXSTAB_THREADS must be a positive integer, "
                          f"got {env!r}")
    return count


@dataclass(frozen=True)
class FrequencyPoint:
    """Transverse frequency vector and Laplace frequency ``lambda``."""

    eta: np.ndarray
    lam: complex

    def __post_init__(self):
        object.__setattr__(self, "eta",
                           np.atleast_1d(np.asarray(self.eta, dtype=float)))
        object.__setattr__(self, "lam", complex(self.lam))
        if not (np.all(np.isfinite(self.eta)) and np.isfinite(self.lam)):
            raise ValueError("frequency components must be finite")
        if self.lam.real < GAMMA_FLOOR:
            raise ValueError(f"Re lambda = {self.lam.real} below "
                             f"gamma_floor = {GAMMA_FLOOR}")

    @property
    def magnitude(self):
        """|(eta, tau)| entering the hat-norm weight."""
        return float(np.hypot(np.linalg.norm(self.eta), self.lam.imag))


class CollocationGrid:
    """Chebyshev nodes with quadrature and per-grid memoized matrices.

    The differentiation powers, the hat-Gram stiffness terms and the wave
    coefficients of :func:`assemble_G` are built once per grid, under a lock,
    so the sweep's threads share one copy.
    """

    def __init__(self, n_nodes, length):
        self.x, self.D, self.wq = cheb_grid(n_nodes, length)
        self.n_nodes = n_nodes
        self.length = float(length)
        self._memo = {("dpow", 1): self.D}
        self._lock = threading.RLock()

    def _cached(self, key, build):
        """``build()`` on the first call for ``key``; later calls, from any
        thread, return that value.  A build that raises stores nothing."""
        with self._lock:
            if key not in self._memo:
                self._memo[key] = build()
            return self._memo[key]

    def dpow(self, k):
        return self._cached(("dpow", k), lambda: self.D @ self.dpow(k - 1))

    def stiffness(self, k):
        """``D^k^T W D^k`` with ``W`` the quadrature weights."""
        def build():
            Dk = self.dpow(k)
            return Dk.T @ np.diag(self.wq) @ Dk
        return self._cached(("stiffness", k), build)

    def _l2(self, V):
        # in place: one temporary as large as V
        sq = np.abs(V)
        sq **= 2
        sq *= self.wq[:, None]
        return np.sqrt(np.sum(sq, axis=(-2, -1)))


@dataclass(frozen=True)
class HatNorm:
    """Frequency-weighted Sobolev norm |.|_{H^s} + (1+|freq|)^s |.|_{L^2}.

    Only integer orders are supported.
    """

    s: int

    def __post_init__(self):
        if not isinstance(self.s, (int, np.integer)) or self.s < 0:
            raise ValueError("hat norms are defined for integer s >= 0")

    def norms(self, V, geom, freq_mag):
        """Hat, L2 and H^1 norms of every field of a stack ``(T, m, n)``;
        ``freq_mag`` is one frequency magnitude or a list of one per field.

        The ``[L2, H^1, ..., H^s]`` norms are taken in one pass.  Their
        squares are taken on Python floats, so they round as libm ``pow``
        does (not always as ``x*x``): the rounding every reported gain has
        been computed with.  ``D^k`` is real, so it acts on the real view of
        a complex stack (:func:`_real_view`).
        """
        l2 = geom._l2(V)
        sob, total = [l2], [a ** 2 for a in l2.tolist()]
        X = _real_view(V)
        for k in range(1, max(self.s, 1) + 1):
            dk = geom._l2(np.matmul(geom.dpow(k), X)).tolist()
            total = [t + a ** 2 for t, a in zip(total, dk)]
            sob.append(np.sqrt(total))
        mags = freq_mag if isinstance(freq_mag, list) else [freq_mag]
        weight = np.array([(1.0 + r) ** self.s for r in mags])
        hat = sob[self.s] + weight * sob[0]
        return hat, sob[0], sob[1]


def bump_perturbation(direction, amplitude, center=0.0, width=4.0):
    """Frozen smooth perturbation ``v(x)``: one Gaussian bump along ``direction``."""
    direction = np.asarray(direction, dtype=float)

    def v_of_x(x):
        envelope = amplitude * np.exp(-((np.asarray(x) - center) / width) ** 2)
        return np.multiply.outer(envelope, direction)

    v_of_x.amplitude = float(amplitude)
    return v_of_x


@dataclass(frozen=True)
class SpectralSplit:
    """Eigendata of a limit matrix split by sign of the real part.

    The left rows are the matching rows of ``V^{-1}``, so each block of left
    rows annihilates the other block of right eigenvectors.
    """

    stable: np.ndarray          # (n, j) right eigenvectors, Re mu < 0
    unstable: np.ndarray        # (n, k)
    left_stable: np.ndarray     # (j, n)
    left_unstable: np.ndarray   # (k, n)
    gap: float                  # min |Re mu|: distance of the spectrum to the axis
    values: np.ndarray


def limit_spectral_split(G_inf):
    """Stable/unstable eigenbasis of a constant matrix.

    Eigenvectors are ordered by real part, each with its largest-magnitude
    component made real positive.  Raises :class:`CenterSpectrumError` when
    an eigenvalue sits within ``SPLIT_GAP_TOL`` of the imaginary axis.
    """
    mu, V = np.linalg.eig(np.asarray(G_inf))
    margin = float(np.min(np.abs(mu.real)))
    if margin < SPLIT_GAP_TOL:
        raise CenterSpectrumError(
            f"limit matrix has eigenvalue with |Re| = {margin:.3g} "
            "on the imaginary axis (frequency on the singular set)")
    order = np.argsort(mu.real)
    mu, V = mu[order], V[:, order]
    for c in range(V.shape[1]):
        pivot = V[np.argmax(np.abs(V[:, c])), c]
        V[:, c] *= np.abs(pivot) / pivot
    W = np.linalg.inv(V)
    stable = mu.real < 0
    return SpectralSplit(stable=V[:, stable], unstable=V[:, ~stable],
                         left_stable=W[stable], left_unstable=W[~stable],
                         gap=margin, values=mu)


@dataclass(eq=False)
class ResolventOperatorField:
    """Sampled coefficient field ``G(x)`` of one frequency point."""

    sys: object
    profile: object
    fp: FrequencyPoint
    geom: CollocationGrid
    G_nodes: np.ndarray          # (m, n, n) complex
    A1inv_nodes: np.ndarray      # (m, n, n)
    limits: tuple                # (G at -inf, G at +inf)
    perturbation: object = None
    deriv_order: int = 0
    _interp: object = None       # read by perfbench/tracing.py's G_at hook
    _bvp: object = None
    _propagators: object = None  # (Phi, Phi_inv), see dichotomy
    _lock: object = dfield(default_factory=threading.Lock, init=False,
                           repr=False)

    @property
    def n(self):
        return self.G_nodes.shape[1]

    def G_at(self, x):
        """Exact ``G`` at a point or a stack of points of ``[-L, L]``.

        One call on a stack evaluates every point in one pass through the
        coefficient path; callers batch their points for that reason.
        """
        xs = np.clip(np.atleast_1d(np.asarray(x, dtype=float)),
                     -self.geom.length, self.geom.length)
        G = _G_product(self.fp, _coefficients_at(
            self.sys, self.profile, xs, self.perturbation, self.deriv_order))
        return G if np.ndim(x) else G[0]

    def limit_splits(self):
        """Spectral splits ``(minus, plus)`` of ``G(-inf)`` and ``G(+inf)``.

        The boundary rows of the collocation operator and the seeds of the
        dichotomy both come from here.  Raises :class:`CenterSpectrumError`
        unless ``dim S(+inf) + dim U(-inf) = n``.
        """
        minus, plus = (limit_spectral_split(G) for G in self.limits)
        j, k = plus.stable.shape[1], minus.unstable.shape[1]
        if j + k != self.n:
            raise CenterSpectrumError(
                f"inconsistent splitting: dim U(-inf) = {k}, "
                f"dim S(+inf) = {j}, need sum n = {self.n}")
        return minus, plus

    def bvp(self):
        """The LU-factored collocation operator, built on first use; the
        build holds the field's lock, so threads that ask at once share one
        factorization."""
        with self._lock:
            if self._bvp is None:
                self._bvp = _BvpOperator(self)
        return self._bvp


@dataclass(frozen=True)
class _Coefficients:
    """The lambda-independent coefficients at a stack of points."""

    A1inv: np.ndarray     # (m, n, n) co-moving (A_1 - s*I)^{-1}
    E: np.ndarray         # (m, n, n) zero-order coefficient
    A_t: np.ndarray       # (m, d-1, n, n) transverse A_2 .. A_d


def _coefficients_from_states(sys, speed, xs, wbar, wbar_p, v=0.0, dA1=None):
    """:class:`_Coefficients` at a stack of states.

    ``wbar``/``wbar_p`` (``(m, n)``) give the zero-order coefficient ``E``,
    the convection coefficients are taken at ``wbar + v``; ``dA1`` is an
    optional ``(m, n, n)`` correction added to ``E``.  ``xs`` only labels
    the nodes in the :class:`ModelError` raised when ``A_1 - s*I`` is
    singular.
    """
    A = sys.flux_jacs(wbar + v)
    A1 = A[:, 0] - speed * np.eye(sys.n)
    smin = np.linalg.svd(A1, compute_uv=False)[:, -1]
    singular = np.flatnonzero(smin < 1e-12)
    if singular.size:
        raise ModelError(
            f"A_1 - s*I singular at node x = {xs[singular[0]]:.6g}")
    E = zero_order_matrix(sys, wbar, wbar_p)
    if dA1 is not None:
        E = E + dA1
    return _Coefficients(A1inv=np.linalg.inv(A1), E=E, A_t=A[:, 1:])


def _coefficients_at(sys, profile, xs, perturbation, deriv_order):
    """:class:`_Coefficients` of the wave at the points ``xs``."""
    xs = np.asarray(xs, dtype=float)
    wbar, wbar_p = profile.sample_many(xs)
    v = perturbation(xs) if perturbation is not None else 0.0
    dA1 = None
    if deriv_order > 0:
        h = 1e-6 * max(1.0, profile.length)
        wp_ = profile.sample_many(np.minimum(xs + h, profile.length))[0]
        wm_ = profile.sample_many(np.maximum(xs - h, -profile.length))[0]
        dA1 = deriv_order * ((sys.flux_jacs(wp_)[:, 0]
                              - sys.flux_jacs(wm_)[:, 0]) / (2 * h))
    return _coefficients_from_states(sys, profile.speed, xs, wbar, wbar_p, v,
                                     dA1)


def _G_product(fp, c):
    """``G = -(A_1 - s*I)^{-1} (lambda*I + E + sum_j i eta_j A_{j+1})`` from
    :class:`_Coefficients`: the only per-frequency work of an assembly."""
    core = fp.lam * np.eye(c.E.shape[-1]).astype(complex) + c.E
    for j, etaj in enumerate(fp.eta):
        core = core + 1j * etaj * c.A_t[:, j]
    return -c.A1inv @ core


def _wave_coefficients(sys, profile, geom, v, deriv_order):
    """:class:`_Coefficients` at the nodes of ``geom`` and at ``-inf, +inf``.

    Memoized on ``geom`` by the identity of ``sys``, ``profile`` and ``v``
    (the entry keeps them alive, so an identity is never reused) and by
    ``deriv_order``; the arrays are read-only because every field of the
    grid shares them.
    """
    def build():
        nodes = _coefficients_at(sys, profile, geom.x, v, deriv_order)
        ends = np.array(profile.endstates)
        limits = _coefficients_from_states(sys, profile.speed,
                                           [-np.inf, np.inf], ends,
                                           np.zeros_like(ends))
        for c in (nodes, limits):
            for arr in (c.A1inv, c.E, c.A_t):
                arr.flags.writeable = False
        return (sys, profile, v), nodes, limits

    key = ("wave", id(sys), id(profile), id(v), deriv_order)
    return geom._cached(key, build)[1:]


def assemble_G(sys, profile, fp, geom, v=None, deriv_order=0):
    """Assemble the resolvent coefficient field for one frequency point on
    the collocation grid ``geom``.

    ``v`` is an optional frozen perturbation callable ``x -> (n,)``;
    ``deriv_order > 0`` adds the differentiated-system correction
    ``deriv_order * d/dx A_1`` to the zero-order coefficient (realized by
    finite differencing, not symbolic re-derivation).  The
    lambda-independent coefficients come from the grid's memo
    (:func:`_wave_coefficients`), so a point pays only for ``G`` itself.
    """
    if fp.eta.size != sys.d - 1:
        raise ValueError(f"eta must have length d-1 = {sys.d - 1}")
    nodes, limits = _wave_coefficients(sys, profile, geom, v, deriv_order)
    return ResolventOperatorField(sys=sys, profile=profile, fp=fp, geom=geom,
                                  G_nodes=_G_product(fp, nodes),
                                  A1inv_nodes=nodes.A1inv,
                                  limits=tuple(_G_product(fp, limits)),
                                  perturbation=v, deriv_order=deriv_order)


class _BvpOperator:
    """LU-factored collocation operator with boundary-projection rows.

    Only the end-node rows differ from plain collocation.  They come from the
    limit splits that also seed the dichotomy
    (:meth:`ResolventOperatorField.limit_splits`): the kept left eigenvectors
    (``keep_minus``, ``keep_plus``) project the equation, and the
    complementary left rows confine the end values to the admissible
    subspaces.  The operator keeps the node arrays, not the field, so that
    the field (which holds the operator) is freed by reference counting.
    Its solves are those of a :class:`_Chunk` of one point.
    """

    def __init__(self, field):
        geom = self.geom = field.geom
        m, n = geom.n_nodes, field.n
        self.m, self.n = m, n
        G = field.G_nodes
        self.A1inv = field.A1inv_nodes
        self.G_inner = G[1:-1]    # the residual is taken at the interior nodes
        self.freq_mag = field.fp.magnitude

        # M[(i, a), (j, b)] = D[i, j] delta_ab - delta_ij G_i[a, b], filled
        # through its C-ordered transpose Mt[j, b, i, a]: M is then
        # Fortran-ordered, and LAPACK factors it in place
        Mt = np.zeros((m, n, m, n), dtype=complex)
        for a in range(n):
            Mt[:, a, :, a] = geom.D.T
        nodes = np.arange(m)
        Mt[nodes, :, nodes, :] -= G.transpose(0, 2, 1)
        M = Mt.reshape(m * n, m * n).T

        minus, plus = field.limit_splits()
        self.keep_minus = minus.left_unstable                    # (k, n)
        self.keep_plus = plus.left_stable                        # (j, n)
        k, j = len(self.keep_minus), len(self.keep_plus)
        self.ranks = (j, k)

        # the kept left rows project the end rows of the equation (from
        # C-ordered copies: a strided operand moves the last bits of the
        # products); the complementary left rows annihilate the admissible
        # subspaces
        r0, rN = slice(0, n), slice((m - 1) * n, m * n)
        top = self.keep_minus @ np.ascontiguousarray(M[r0])
        bot = self.keep_plus @ np.ascontiguousarray(M[rN])
        M[r0], M[rN] = 0.0, 0.0
        M[: n - k, r0] = minus.left_stable
        M[n - k: n] = top
        M[rN.start: rN.start + j] = bot
        M[rN.start + j:, rN] = plus.left_unstable

        # G is finite by construction, and every solution is checked by the
        # residual cap, so no finiteness scan of M
        self.lu = lu_factor(M)

    def solve(self, f_nodes, apply_a1inv=True):
        """Solve ``v' = G v + rhs`` for one forcing ``(m, n)`` or a stack
        ``(T, m, n)``; returns node values of the same shape
        (:meth:`_Chunk.solve`: a stack through one multi-column LU solve,
        one forcing as a single column)."""
        f = np.asarray(f_nodes, dtype=complex)
        chunk = _Chunk([self])
        if f.ndim == 3:
            return chunk.solve(f, [len(f)], apply_a1inv)
        return chunk.solve(f.reshape(1, self.m, self.n), None, apply_a1inv)[0]


class _Chunk:
    """The collocation operators of consecutive frequency points on one grid,
    whose limit splits have one rank pair ``(j, k)``, solved in lockstep.

    The node arrays that a solve applies (``A_1^{-1}``, ``G`` at the interior
    nodes for the residual check, the kept left rows of the end projections)
    are stacked over the points, so that each step of a solve is one numpy
    call for every point of the chunk; only the LAPACK calls
    (:func:`lu_solve`) are made point by point.
    """

    def __init__(self, ops):
        self.ops = ops
        self.geom, self.m, self.n = ops[0].geom, ops[0].m, ops[0].n
        grid = (self.geom.n_nodes, self.geom.length, self.n)
        if any((op.geom.n_nodes, op.geom.length, op.n) != grid for op in ops):
            raise ValueError("the points of a sweep must share one "
                             "collocation grid")
        # the end rows of a stack are projected with one pair of ranks
        self.ranks = ops[0].ranks
        if any(op.ranks != self.ranks for op in ops):
            raise ValueError("the points of a chunk must share the ranks "
                             "(j, k) of their limit splits")
        self.freq_mags = [op.freq_mag for op in ops]
        A1inv = np.stack([op.A1inv for op in ops])
        self.A1inv_c, self.A1inv_h = A1inv.astype(complex), A1inv.conj()
        self.G_inner = np.stack([op.G_inner for op in ops])
        self.keep_minus = np.array([op.keep_minus for op in ops])  # (P, k, n)
        self.keep_plus = np.array([op.keep_plus for op in ops])    # (P, j, n)

    def solve(self, F, counts, apply_a1inv):
        """Solve ``v' = G v + rhs`` for a stack of forcings ``F`` ``(R, m, n)``
        whose rows run over the points in order; returns the solutions,
        ``(R, m, n)``.

        With ``counts``, point ``p`` owns ``counts[p]`` rows, solved as one
        stack (one ``getrs`` call); without (None), every point owns one
        row, solved as a single column (two ``trsv`` calls).  The residual
        cap is checked for each solution.
        """
        m, n = self.m, self.n
        j, k = self.ranks
        if counts is None:
            runs, owner = [1] * len(self.ops), slice(None)
        else:
            runs, owner = counts, np.repeat(np.arange(len(self.ops)), counts)
        rhs = _nodewise(self.A1inv_c[owner], F) if apply_a1inv else F
        # projected by _project, the end rows of a forcing, and so its
        # solution, are the same bits alone and in a stack of any size
        b = rhs.copy()
        b[:, [0, -1]] = 0.0
        b[:, 0, n - k:] = _project(self.keep_minus[owner], rhs[:, 0])
        b[:, -1, :j] = _project(self.keep_plus[owner], rhs[:, -1])
        # b is a scratch copy, and every solution is checked by the residual
        # cap, so LAPACK may overwrite it and need not scan it
        off = 0
        for op, c in zip(self.ops, runs):
            if counts is None:
                b[off] = lu_solve(op.lu, b[off].reshape(-1),
                                  trans=0).reshape(m, n)
            else:
                cols = b[off:off + c].reshape(c, -1).T
                b[off:off + c] = lu_solve(op.lu, cols, trans=0).T.reshape(
                    c, m, n)
            off += c
        self._check_residual(b, rhs, self.G_inner[owner], runs)
        return b

    def solve_adjoint(self, Y):
        """Apply the conjugate-transposed solution operator (no
        ``A_1^{-1}``) to one field per point, a stack ``(P, m, n)``."""
        m, n = self.m, self.n
        j, k = self.ranks
        U = np.array([lu_solve(op.lu, y.reshape(-1), trans=2)
                      for op, y in zip(self.ops, Y)]).reshape(len(Y), m, n)
        # (n, k) and (n, j) transposed views, the layout that BLAS got for
        # one point's keep_minus.conj().T
        km_h, kp_h = (a.conj().transpose(0, 2, 1)
                      for a in (self.keep_minus, self.keep_plus))
        U[:, 0] = np.matmul(km_h, U[:, 0, n - k:, None])[..., 0]
        U[:, -1] = np.matmul(kp_h, U[:, -1, :j, None])[..., 0]
        return U

    def _check_residual(self, V, rhs, G, runs):
        """Check each solution of ``V`` ``(R, m, n)`` against
        ``RESIDUAL_CAP``: the collocation residual ``D v - G v - rhs`` at
        the interior nodes (``G`` holds each row's interior node matrices),
        in the quadrature norm, relative to ``max(1, |rhs|)``.  Each
        operator keeps the largest residual of its rows."""
        wq = self.geom.wq
        # D is real: one real product takes the real and imaginary parts
        res = (self.geom.D[1:-1] @ _real_view(V)).view(complex)
        res -= _nodewise(G, V[:, 1:-1])
        res -= rhs[:, 1:-1]
        r2 = _squared_norms(wq[1:-1], res)
        for r, f in zip(r2, _squared_norms(wq, rhs)):
            scale = max(1.0, f) ** 0.5
            if not r ** 0.5 <= RESIDUAL_CAP * scale:  # a NaN residual fails too
                raise NumericError(
                    f"collocation residual {r ** 0.5:.3e} exceeds cap "
                    f"{RESIDUAL_CAP:.0e} (relative to forcing scale "
                    f"{scale:.3g})")
        off = 0
        for op, c in zip(self.ops, runs):
            op.last_residual = max(r2[off:off + c], default=0.0) ** 0.5
            off += c


def _nodewise(A, X):
    """``A[r, i] @ X[r, i, :]`` for a stack of fields ``X`` ``(R, m, n)``
    and node matrices ``A`` ``(R, m, n, n)``, one set per field.

    One einsum runs over the ``R * m`` node rows: an einsum that also runs
    over ``r`` took five times as long at ``R = 4`` (0.10 against 0.02 ms
    at m = 161, n = 2).  Each entry is the same sum of products for any
    ``R``.
    """
    n = X.shape[-1]
    return np.einsum("ijk,ik->ij", A.reshape(-1, n, n),
                     X.reshape(-1, n)).reshape(X.shape)


def _squared_norms(w, X):
    """``sum_i w_i |X[..., i, :]|^2`` for a complex field ``X`` ``(r, n)`` or
    each field of a stack ``(T, r, n)``, with ``w`` the ``r`` quadrature
    weights; a list."""
    Xr = _real_view(X)
    return np.atleast_1d(np.einsum("i,...ik,...ik->...", w, Xr, Xr)).tolist()


def _real_view(X):
    """A complex array as a real one, the real and imaginary parts of each
    entry side by side along its last axis; a real array as it is."""
    X = np.ascontiguousarray(X)
    return X.view(float) if np.iscomplexobj(X) else X


def _project(P, x):
    """``x @ P.T`` for a matrix ``P`` ``(k, n)`` and a row ``x`` ``(n,)``,
    or row by row for stacks ``(T, k, n)`` and ``(T, n)``, by elementwise
    products summed over ``n``: a row gets the same bits alone and in any
    stack, where a matrix product goes to a different BLAS call for one row
    than for several."""
    return (P * x[..., None, :]).sum(-1)


def _bump_draws(rng, n, length, count):
    """The bump parameters of ``count`` forcings on ``[-length, length]``,
    ``(count, N_BUMPS, 2 + 2n)``: per bump its centre, its width and the
    real and imaginary parts of its ``n`` amplitudes.

    Each bump takes two generator calls, ``random(2)`` and
    ``standard_normal(2n)``, and its uniforms are mapped as
    ``low + (high - low) * u``: numpy's own ``uniform``, so the bits and the
    generator stream are those of two ``uniform`` calls and one
    ``standard_normal`` call per bump.
    """
    u = np.empty((count * N_BUMPS, 2))
    z = np.empty((count * N_BUMPS, 2 * n))
    for b in range(count * N_BUMPS):
        rng.random(out=u[b])
        rng.standard_normal(out=z[b])
    low = np.array([-0.6 * length, length / 25.0])
    high = np.array([0.6 * length, length / 8.0])
    return np.concatenate([low + (high - low) * u, z], axis=1).reshape(
        count, N_BUMPS, 2 + 2 * n)


def _forcings(geom, draws):
    """Smooth exponentially-localized complex forcings with unit L2 norm, a
    stack ``(T, m, n)``, from the bump parameters of :func:`_bump_draws`
    (any number of draws concatenated).

    The bumps are evaluated in one pass, then added from zero in their
    order, each for every forcing at once: every bit, signed zeros included,
    is that of a bump-by-bump sum, and no complex array holds every bump of
    every forcing.
    """
    n = (draws.shape[-1] - 2) // 2
    amp = draws[..., 2:2 + n] + 1j * draws[..., 2 + n:]
    bumps = np.exp(-((geom.x - draws[..., :1]) / draws[..., 1:2]) ** 2)
    F = np.zeros((len(draws), geom.n_nodes, n), dtype=complex)
    for b in range(N_BUMPS):
        F += bumps[:, b, :, None] * amp[:, b, None, :]
    nrm = geom._l2(F)
    return F / np.where(nrm > 0, nrm, 1.0)[:, None, None]


def _random_forcings(geom, n, rng, count):
    """``count`` random forcings drawn from ``rng``, a stack
    ``(count, m, n)``; each a sum of ``N_BUMPS`` Gaussian bumps."""
    return _forcings(geom, _bump_draws(rng, n, geom.length, count))


def _worst(ratios):
    """Largest of ``ratios`` and 0, taken in order as ``max`` would."""
    return max([0.0] + ratios.tolist())


def _hat_gram(geom, s, freq_mags):
    """SPD matrices of the Hilbertian surrogate of the hat norm (per
    component), one per frequency magnitude: a real stack ``(P, m, m)``,
    the stiffness terms added in place to the diagonal weights."""
    scale = np.array([(1.0 + r) ** (2 * s) for r in freq_mags])
    nodes = np.arange(geom.n_nodes)
    Gm = np.zeros((len(scale), geom.n_nodes, geom.n_nodes))
    Gm[:, nodes, nodes] = geom.wq * scale[:, None] + geom.wq
    for k in range(1, s + 1):
        Gm += geom.stiffness(k)
    sym = Gm + Gm.transpose(0, 2, 1)
    sym *= 0.5
    return sym


def _ensemble(chunk, seeds, s, trials, starts):
    """The random forcings of every point of a chunk, solved and normed in
    lockstep.

    Point ``p`` with ``seeds[p] = (seed, probe_seed)`` draws ``trials``
    forcings from ``seed`` (its gains), ``starts`` from ``seed + 1`` (the
    starts of its power iteration) and, with a ``probe_seed``, one from that
    seed (its hat/L2 probe).  The bumps of every forcing are evaluated in
    one pass, each point's forcings are solved as one stack, and the hat,
    L2 and H^1 norms of all solutions and forcings are taken in one pass.

    Returns per point ``(g_hf, g_pd, absorb, ratio, best)`` (``ratio`` 0.0
    without a probe; ``best`` the largest positive hat-norm gain of its
    starts, else 0.0) and, stacked ``(P, m, n)``, the solution of each
    point's best start: a zero field for a point with no positive start
    ratio.
    """
    geom = chunk.geom
    draws, counts = [], []
    for seed, probe_seed in seeds:
        sets = [(trials, seed), (starts, seed + 1)]
        if probe_seed is not None:
            sets.append((1, probe_seed))
        draws += [_bump_draws(np.random.default_rng(sd), chunk.n,
                              geom.length, count)
                  for count, sd in sets if count]
        counts.append(sum(count for count, _ in sets))
    F = _forcings(geom, np.concatenate(draws))
    V = chunk.solve(F, counts, True)
    mags = np.repeat(chunk.freq_mags, counts).tolist()
    hat, l2, h1 = HatNorm(s).norms(np.concatenate([V, F]), geom, mags * 2)
    T = len(F)
    hv, hf, l2v, l2f, h1v = hat[:T], hat[T:], l2[:T], l2[T:], h1[:T]
    stats = []
    V_best = np.zeros((len(counts), chunk.m, chunk.n), dtype=complex)
    off = 0
    for p, count in enumerate(counts):
        a, b = off + trials, off + trials + starts
        ratio = 0.0
        if count > b - off and l2v[b] > 0:
            ratio = float(hv[b] / l2v[b])
        best = 0.0
        for r, x in enumerate((hv[a:b] / hf[a:b]).tolist()):
            if x > best:
                best, V_best[p] = x, V[a + r]
        stats.append((_worst(hv[off:a] / hf[off:a]),
                      _worst(hv[off:a] / (hf[off:a] + l2v[off:a])),
                      _worst(l2v[off:a] / (h1v[off:a] + l2f[off:a])),
                      ratio, best))
        off += count
    return stats, V_best


def _power_gains(chunk, s, V, power_iters):
    """The hat-norm gains that ``power_iters`` power-iteration steps reach
    from the solutions ``V`` ``(P, m, n)``, one per point of ``chunk``, the
    points in lockstep; a list with None for a point whose last forcing has
    zero hat norm.  A step forcing of zero norm stays zero, so a point that
    starts from a zero field, or whose step forcing vanishes, ends there.

    The hat-Gram matrices and their Cholesky factors stay real: they act on
    the real view of a field (:func:`_real_view`), its real and imaginary
    parts as ``2n`` real columns.
    """
    geom, n = chunk.geom, chunk.n
    Gm = _hat_gram(geom, s, chunk.freq_mags)
    factors = [cho_factor(g) for g in Gm]
    # interior envelope: keeps the iteration inside the class of localized
    # resolved forcings (boundary-node spikes are artifacts of the clustered
    # grid, not modes of the whole-line operator)
    envelope = np.exp(-((geom.x / (0.65 * geom.length)) ** 8))[:, None]
    for _ in range(power_iters):
        U = chunk.solve_adjoint(np.matmul(Gm, _real_view(V)).view(complex))
        U = np.einsum("ijk,ij->ik", chunk.A1inv_h.reshape(-1, n, n),
                      U.reshape(-1, n)).reshape(U.shape)
        X = np.array([dpotrs(c, u) for c, u in zip(factors, _real_view(U))])
        F = np.multiply(envelope, X).view(complex)
        nrm = geom._l2(F)
        F = F / np.where(nrm > 0, nrm, 1.0)[:, None, None]
        V = chunk.solve(F, None, True)
    hat = HatNorm(s).norms(np.concatenate([V, F]), geom,
                           chunk.freq_mags * 2)[0].tolist()
    return [hv / hf if hf > 0 else None
            for hv, hf in zip(hat[:len(V)], hat[len(V):])]


def _sweep_chunk(points, s, trials, starts, power_iters):
    """Gains of a chunk of frequency points that advance in lockstep.

    ``points`` holds ``(field, seed, probe_seed)`` per point, ``field()``
    returning its assembled field.  A point on the singular set (its
    operator raises :class:`CenterSpectrumError`) gets that error's message;
    every other point gets ``(g_hf, g_pd, absorb, ratio)``: its worst
    hat-norm gain (the ``trials`` forcings from ``seed``, and the
    ``power_iters`` power-iteration steps from the best of the ``starts``
    forcings from ``seed + 1``), its worst damping-bound gain and
    absorption ratio (the trials), and with a ``probe_seed`` the hat/L2
    ratio of one forcing from that seed (else 0.0).  The points whose limit
    splits have the same ranks ``(j, k)`` run as one :class:`_Chunk`, the
    groups in the order their first points come.  See :func:`_ensemble`
    and :func:`_power_gains`.
    """
    results, groups = [None] * len(points), {}
    for i, (field, _, _) in enumerate(points):
        try:
            op = field().bvp()
        except CenterSpectrumError as exc:
            results[i] = str(exc)
            continue
        groups.setdefault(op.ranks, []).append((i, op))
    for members in groups.values():
        live, ops = zip(*members)
        chunk = _Chunk(list(ops))
        stats, V = _ensemble(chunk, [points[i][1:] for i in live], s,
                             trials, starts)
        refined = [None] * len(live)
        if power_iters > 0:
            refined = _power_gains(chunk, s, V, power_iters)
        for i, (g_hf, g_pd, absorb, ratio, best), gain in zip(live, stats,
                                                              refined):
            gain = best if gain is None else max(best, gain)
            results[i] = (max(g_hf, gain), g_pd, absorb, ratio)
    return results


@dataclass
class SweepResult:
    """Per-frequency gains and verdicts of a sweep, its fitted constants and
    the agreement of the two frequency-wise bounds."""

    points: list
    hfres_gain: np.ndarray        # gain * (Re lam - gamma*) per point
    pdamp_gain: np.ndarray
    absorption: np.ndarray        # |v|_L2 / (|v|_H1 + |f|_L2)
    hfres_pass: np.ndarray
    pdamp_pass: np.ndarray
    flagged: list                 # (index, message) for singular-set points
    constants: dict
    agreement: float              # fraction of non-flagged points agreeing
    bounded_ratio: float          # max |v|_hat / |v|_L2 at bounded frequencies
    absorption_exponent: float    # fitted decay exponent of the L2 absorption
    method = "randomized+power"

    @property
    def n_flagged(self):
        return len(self.flagged)


def verify_equivalence(field_family, s, grid, gamma_star=-0.25, trials=8,
                       seed=0):
    """Gains over a frequency grid, the fitted constants of both
    frequency-wise bounds, and the numerical version of both absorption
    arguments.

    ``field_family`` maps a :class:`FrequencyPoint` to an assembled field,
    every field on one collocation grid.  Consecutive points advance in
    lockstep as chunks (:func:`_sweep_chunk`), each of as many points as
    fit ``CHUNK_BYTES`` of collocation matrices (at least one); a point
    gets the same bits in any chunk.  The calling thread runs chunks
    alongside ``min(worker_count(), chunks) - 1`` helper threads, each
    taking the next chunk until none is left, so a one-chunk sweep starts
    no thread.  A failing chunk stops the hand-out of chunks, and once the
    helpers are joined the error of the earliest failing chunk is raised.
    Each bound gets its own constant, 1.25x the worst calibration gain over
    every other grid point; the pass flags are deterministic functions of
    the per-point gains and the constants, and the pass sets of the two
    bounds are compared pointwise.  (i) at bounded frequencies
    ``|lambda| <= BOUNDED_CUT`` the hat norm is controlled by L2 (the
    ratio is reported); (ii) along growing ``|lambda|`` the ratio
    ``|v|_L2 / (|v|_H1 + |f|_L2)`` decays like ``C/|lambda|`` (fitted
    exponent).  Raises ``ValueError``, before any point is solved, when the
    grid is empty or a point has ``Re lambda <= gamma_star``.  Singular-set
    points are left out and listed in ``flagged``; when every point is on
    the singular set, :class:`CenterSpectrumError` is raised.
    """
    grid = list(grid)
    nP = len(grid)
    if not nP:
        raise ValueError("the frequency grid is empty")
    weights = np.array([fp.lam.real - gamma_star for fp in grid])
    if np.any(weights <= 0):
        raise ValueError("grid contains Re lambda <= gamma_star")
    g_hf = np.full(nP, np.nan)
    g_pd = np.full(nP, np.nan)
    absorb = np.full(nP, np.nan)
    flagged = []
    bounded_ratio = 0.0

    # the first point's field sizes the chunks (a collocation matrix has
    # (mn)^2 complex entries), and its chunk then takes it over
    pending = {}
    size = 1
    try:
        pending[0] = field_family(grid[0])
    except CenterSpectrumError:
        pass
    else:
        mn = pending[0].geom.n_nodes * pending[0].n
        size = max(1, CHUNK_BYTES // (16 * mn ** 2))

    def field(i):
        return lambda: pending.pop(i) if i in pending else field_family(
            grid[i])

    points = [(field(i), seed + 1000 * i,
               seed + 7 * i if abs(fp.lam) <= BOUNDED_CUT else None)
              for i, fp in enumerate(grid)]
    chunks = [points[c:c + size] for c in range(0, nP, size)]

    # the caller and its helpers each take the next chunk until none is
    # left; a failing chunk, or the caller leaving early (a helper that
    # could not start), marks every chunk taken, so no new chunk starts
    outs, errors = [None] * len(chunks), {}
    lock = threading.Lock()
    taken = 0

    def take_chunks():
        nonlocal taken
        while True:
            with lock:
                if taken == len(chunks):
                    return
                i, taken = taken, taken + 1
            try:
                outs[i] = _sweep_chunk(chunks[i], s, trials,
                                       max(4, trials // 4), POWER_ITERS)
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                    taken = len(chunks)

    helpers = []
    try:
        for _ in range(min(worker_count(), len(chunks)) - 1):
            helper = threading.Thread(target=take_chunks)
            helper.start()
            helpers.append(helper)
        take_chunks()
    finally:
        with lock:
            taken = len(chunks)
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    results = [r for out in outs for r in out]
    for i, res in enumerate(results):
        if isinstance(res, str):
            flagged.append((i, res))
            continue
        g_hf[i], g_pd[i], absorb[i], ratio = res
        bounded_ratio = max(bounded_ratio, ratio)

    ok = ~np.isnan(g_hf)
    if not np.any(ok):
        raise CenterSpectrumError(
            f"no grid point of {nP} is off the singular set")
    hf_scaled = g_hf * weights
    pd_scaled = g_pd * weights
    # each bound gets its own constant (the two conditions are equivalent
    # with possibly different constants)
    calib = np.where(ok)[0][::2]
    C_hf = 1.25 * float(np.max(hf_scaled[calib]))
    C_pd = 1.25 * float(np.max(pd_scaled[calib]))
    # a flagged point's gain is NaN, so it fails both bounds
    hf_pass = hf_scaled <= C_hf
    pd_pass = pd_scaled <= C_pd
    agreement = float(np.mean(hf_pass[ok] == pd_pass[ok]))

    mags = np.array([abs(p.lam) for p in grid])
    big = ok & (mags >= BOUNDED_CUT) & (np.abs(absorb) > 0)
    exponent = np.nan
    if np.count_nonzero(big) >= 3:
        exponent = float(np.polyfit(np.log(mags[big]),
                                    np.log(absorb[big]), 1)[0])
    return SweepResult(points=grid, hfres_gain=hf_scaled,
                       pdamp_gain=pd_scaled, absorption=absorb,
                       hfres_pass=hf_pass, pdamp_pass=pd_pass,
                       flagged=flagged,
                       constants={"C": C_hf, "C_pdamp": C_pd,
                                  "gamma_star": float(gamma_star),
                                  "s": int(s), "trials": int(trials)},
                       agreement=agreement, bounded_ratio=bounded_ratio,
                       absorption_exponent=exponent)


def constant_field(G, geom):
    """Wrap a constant matrix as a coefficient field on ``geom``, with
    ``A_1^{-1} = I`` (tests, worked examples)."""
    G = np.asarray(G, dtype=complex)
    n = G.shape[0]
    fld = ResolventOperatorField(
        sys=None, profile=None,
        fp=FrequencyPoint(np.zeros(0), 1.0), geom=geom,
        G_nodes=np.broadcast_to(G, (geom.n_nodes, n, n)).copy(),
        A1inv_nodes=np.broadcast_to(np.eye(n), (geom.n_nodes, n, n)).copy(),
        limits=(G.copy(), G.copy()))
    fld.G_at = lambda x: (np.broadcast_to(G, np.shape(x) + G.shape).copy()
                          if np.ndim(x) else G.copy())
    return fld

