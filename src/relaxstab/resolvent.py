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
``G``, a batched ``n x n`` product per node.  Most of a point's time is
then the LU factorization of the ``mn x mn`` collocation matrix and the
solves with it.  A point draws three sets of forcings, each from its own
seed: the trials of its gains, the forcings that start the power iteration
and, at bounded frequencies, the hat/L2 probe.  They are solved in one
batch (``_ensemble``), a stack ``(T, m, n)``, and the hat, L2 and H^1 norms
of the solutions and the forcings are taken in one pass over both stacks.
The power iteration starts from the batch's solution of its best forcing:
the end rows of a forcing are projected by elementwise products, so its
solution has the same bits in a stack of any size.  Each of its steps adds
an adjoint and a forward single-column solve and one Cholesky solve with
the hat-Gram matrix.  Every collocation solve goes through
:func:`lu_solve`: a stack through one ``getrs`` call, a single column (the
power iteration's 20 per point) through a row permutation and two ``trsv``
calls.  At one BLAS thread a one-column ``getrs`` packs the whole factor
for ``trsm`` on every call and takes about three times as long.  These
routines are called through ctypes in the OpenBLAS that numpy loaded
(``relaxstab._lapack``, which imports nothing of scipy): ``zgetrf`` factors
the collocation matrix as scipy's ``lu_factor`` would, and an exactly zero
pivot raises :class:`NumericError`; ``zgetrs`` and ``ztrsv`` solve with it;
``dpotrf`` factors the real hat-Gram matrix as ``cho_factor`` would, and
``dpotrs`` solves with that real factor.  ctypes releases the GIL for each
LAPACK call, so the LAPACK work of the sweep threads can overlap.
Around the LAPACK calls a point does little numpy work, which holds the
GIL: the collocation matrix is filled in Fortran order and factored in
place; the real matrices ``D^k``, the hat-Gram matrix and its Cholesky
factor act on the real view of a complex field (its real and imaginary
parts as ``2n`` real columns) instead of being cast to complex; a single
column skips the stack's tiling and reshapes; the residual check reads
only the interior rows; and the bumps of a batch of forcings are evaluated
in one pass.

The frequency points of a sweep run on a thread pool, the program's only
source of parallelism (:func:`worker_count`): ``RELAXSTAB_THREADS`` never
changes an output, and BLAS defaults to one thread.  A user-set
``OPENBLAS_NUM_THREADS`` or numpy loaded before ``relaxstab`` keeps several
BLAS threads, and then the last digit of a result can move (README.md).
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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


def worker_count():
    """Thread count of the sweep pool: ``RELAXSTAB_THREADS`` where it is set,
    else the core count, at most 8.

    The pool is the program's only source of parallelism: importing
    ``relaxstab`` pins OpenBLAS to one thread (unless the caller set
    ``OPENBLAS_NUM_THREADS`` or loaded numpy first), and the pool's thread
    count never changes a result.  Raises :class:`ConfigError` when
    ``RELAXSTAB_THREADS`` is not an integer.
    """
    env = os.environ.get("RELAXSTAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"RELAXSTAB_THREADS must be an integer, "
                              f"got {env!r}") from None
    return min(8, os.cpu_count() or 1)


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
        return np.sqrt(np.sum(self.wq[:, None] * np.abs(V) ** 2,
                              axis=(-2, -1)))

    def sobolev_norms(self, V, s):
        """``[L2, H^1, ..., H^s]`` norms of every field of a stack
        ``(T, m, n)``, each an array ``(T,)``, in one pass.

        The squares are taken on Python floats, so they round as libm
        ``pow`` does (not always as ``x*x``): the rounding every reported
        gain has been computed with.  ``D^k`` is real, so it acts on the
        real view of a complex stack (:func:`_real_view`).
        """
        l2 = self._l2(V)
        norms, total = [l2], [a ** 2 for a in l2.tolist()]
        X = _real_view(V)
        for k in range(1, s + 1):
            dk = self._l2(np.matmul(self.dpow(k), X)).tolist()
            total = [t + a ** 2 for t, a in zip(total, dk)]
            norms.append(np.sqrt(total))
        return norms


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
        """Hat, L2 and H^1 norms of every field of a stack ``(T, m, n)``."""
        sob = geom.sobolev_norms(V, max(self.s, 1))
        hat = sob[self.s] + (1.0 + freq_mag) ** self.s * sob[0]
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
    The arrays that every solve applies are prepared here, once: ``A_1^{-1}``
    cast to complex, ``D`` and ``G`` cut to the interior rows of the
    residual check, and the LU factors with what their solves pass LAPACK
    (:class:`relaxstab._lapack.LU`).
    """

    def __init__(self, field):
        geom = self.geom = field.geom
        m, n = geom.n_nodes, field.n
        self.m, self.n = m, n
        G = field.G_nodes
        self.A1inv = field.A1inv_nodes.astype(complex)
        # the residual is taken at the interior nodes
        self.D_inner, self.G_inner = geom.D[1:-1], G[1:-1]

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
        self.keep_minus_h = self.keep_minus.conj().T
        self.keep_plus_h = self.keep_plus.conj().T
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
        ``(T, m, n)``; returns node values of the same shape.

        A stack goes through one multi-column LU solve, and one forcing
        through two triangular solves (:func:`lu_solve`) without the
        stack's tiling and reshapes; the residual cap is checked for each
        solution.
        """
        f = np.asarray(f_nodes, dtype=complex)
        if f.ndim < 3:
            f = f.reshape(self.m, self.n)
        rhs = _nodewise(self.A1inv, f) if apply_a1inv else f
        # projected by _project, the end rows of a forcing, and so its
        # solution, are the same bits alone and in a stack of any size
        j, k = self.ranks
        b = rhs.copy()
        b[..., [0, -1], :] = 0.0
        b[..., 0, self.n - k:] = _project(self.keep_minus, rhs[..., 0, :])
        b[..., -1, :j] = _project(self.keep_plus, rhs[..., -1, :])
        # b is a scratch copy, and every solution is checked by the residual
        # cap, so LAPACK may overwrite it and need not scan it
        cols = b.reshape(-1) if b.ndim == 2 else b.reshape(len(b), -1).T
        v = lu_solve(self.lu, cols, trans=0).T.reshape(b.shape)
        self._check_residual(v, rhs)
        return v

    def solve_adjoint(self, y_nodes):
        """Apply the conjugate-transposed solution operator (no A1inv)."""
        y = np.asarray(y_nodes, dtype=complex).reshape(-1)
        u = lu_solve(self.lu, y, trans=2).reshape(self.m, self.n)
        j, k = self.ranks
        u[0] = self.keep_minus_h @ u[0, self.n - k:]
        u[-1] = self.keep_plus_h @ u[-1, :j]
        return u

    def _check_residual(self, v, rhs):
        """Check one solution ``v`` ``(m, n)``, or each of a stack
        ``(T, m, n)``, against ``RESIDUAL_CAP``: the collocation residual
        ``D v - G v - rhs`` at the interior nodes, in the quadrature norm,
        relative to ``max(1, |rhs|)``."""
        wq = self.geom.wq
        # D is real: one real product takes the real and imaginary parts
        Dv = (self.D_inner @ _real_view(v)).view(complex)
        res = (Dv - _nodewise(self.G_inner, v[..., 1:-1, :])
               - rhs[..., 1:-1, :])
        r2 = _squared_norms(wq[1:-1], res)
        for r, f in zip(r2, _squared_norms(wq, rhs)):
            scale = max(1.0, f) ** 0.5
            if not r ** 0.5 <= RESIDUAL_CAP * scale:  # a NaN residual fails too
                raise NumericError(
                    f"collocation residual {r ** 0.5:.3e} exceeds cap "
                    f"{RESIDUAL_CAP:.0e} (relative to forcing scale "
                    f"{scale:.3g})")
        self.last_residual = max(r2, default=0.0) ** 0.5


def _nodewise(A, X):
    """``A[i] @ X[..., i, :]`` for node matrices ``A`` ``(m, n, n)`` and one
    field ``X`` ``(m, n)`` or every field of a stack ``(T, m, n)``.

    A stack takes one einsum over the ``T * m`` node rows, with ``A`` tiled
    to match: an einsum that also runs over ``t`` took five times as long at
    ``T = 4`` (0.10 against 0.02 ms at m = 161, n = 2).  Each entry is the
    same sum of products either way.
    """
    if X.ndim == 2:
        return np.einsum("ijk,ik->ij", A, X)
    T, m, n = X.shape
    A = np.repeat(A[None], T, axis=0).reshape(T * m, n, n)
    return np.einsum("ijk,ik->ij", A, X.reshape(T * m, n)).reshape(T, m, n)


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
    """``x @ P.T`` for a matrix ``P`` ``(k, n)`` and a row ``x`` ``(n,)`` or
    a stack of rows ``(T, n)``, by elementwise products summed over ``n``:
    a row gets the same bits alone and in any stack, where a matrix product
    goes to a different BLAS call for one row than for several."""
    return (P * x[..., None, :]).sum(-1)


def _random_forcings(geom, n, rng, count):
    """``count`` smooth exponentially-localized complex forcings with unit
    L2 norm, a stack ``(count, m, n)``; each a sum of ``N_BUMPS`` Gaussian
    bumps.

    The generator is drawn forcing by forcing and bump by bump (centre,
    width, amplitude); the bumps are then evaluated in one pass and summed
    from zero in that order (numpy starts an add reduction from its
    identity, ``+0.0``), so every bit, signed zeros included, is that of
    ``count`` bump-by-bump sums.
    """
    L = geom.length
    draws = []
    for _ in range(count * N_BUMPS):
        draws.append(rng.uniform(-0.6 * L, 0.6 * L))
        draws.append(rng.uniform(L / 25.0, L / 8.0))
        draws.extend(rng.standard_normal(2 * n).tolist())
    d = np.array(draws).reshape(count, N_BUMPS, 2 + 2 * n)
    amp = d[..., 2:2 + n] + 1j * d[..., 2 + n:]
    bumps = np.exp(-((geom.x - d[..., :1]) / d[..., 1:2]) ** 2)
    F = (bumps[..., None] * amp[:, :, None, :]).sum(1)
    nrm = geom._l2(F)
    return F / np.where(nrm > 0, nrm, 1.0)[:, None, None]


def _ensemble(field, s, sets):
    """Solutions of random forcings and the norms of both, for ``sets`` of
    ``(count, seed)``: each set drawn by :func:`_random_forcings` from its
    own seed, all of them solved in one batched call.

    Returns the solutions ``V`` ``(T, m, n)`` and two tuples of arrays
    ``(T,)``: the hat, L2 and H^1 norms of the solutions and those of the
    forcings, taken in one pass over the stack ``[V; F]``.
    """
    geom = field.geom
    F = np.concatenate([
        _random_forcings(geom, field.n, np.random.default_rng(seed), count)
        for count, seed in sets])
    V = field.bvp().solve(F)
    norms = HatNorm(s).norms(np.concatenate([V, F]), geom,
                             field.fp.magnitude)
    T = len(F)
    return V, tuple(a[:T] for a in norms), tuple(a[T:] for a in norms)


def _worst(ratios):
    """Largest of ``ratios`` and 0, taken in order as ``max`` would."""
    return max([0.0] + ratios.tolist())


def _hat_gram(geom, s, freq_mag):
    """SPD matrix of the Hilbertian surrogate of the hat norm (per component),
    real; the stiffness terms are added in place to the diagonal weights."""
    Gm = np.diag(geom.wq * (1.0 + freq_mag) ** (2 * s) + geom.wq)
    for k in range(1, s + 1):
        Gm += geom.stiffness(k)
    sym = Gm + Gm.T
    sym *= 0.5
    return sym


def _refined_gain(field, s, V, ratios, power_iters):
    """The largest of the hat-norm gains ``ratios`` of a stack of forcings
    and of the gain that ``power_iters`` power-iteration steps reach from
    the best of them, starting from its solution in ``V``.

    The hat-Gram matrix and its Cholesky factor stay real: they act on the
    real view of a field (:func:`_real_view`), its real and imaginary parts
    as ``2n`` real columns.
    """
    best, start = 0.0, None
    for i, ratio in enumerate(ratios.tolist()):
        if ratio > best:
            best, start = ratio, i
    if power_iters <= 0 or start is None:
        return best

    geom, rho = field.geom, field.fp.magnitude
    op = field.bvp()
    Gm = _hat_gram(geom, s, rho)
    c = cho_factor(Gm)
    # interior envelope: keeps the iteration inside the class of localized
    # resolved forcings (boundary-node spikes are artifacts of the clustered
    # grid, not modes of the whole-line operator)
    envelope = np.exp(-((geom.x / (0.65 * geom.length)) ** 8))[:, None]
    A1inv_h = field.A1inv_nodes.conj()
    v = V[start]
    for _ in range(power_iters):
        u = op.solve_adjoint((Gm @ _real_view(v)).view(complex))
        u = np.einsum("ijk,ij->ik", A1inv_h, u)
        # dpotrs returns Fortran order; the complex view needs C order
        f = np.multiply(envelope, dpotrs(c, _real_view(u)),
                        order="C").view(complex)
        nrm = float(geom._l2(f))
        if nrm == 0:
            return best
        f = f / nrm
        v = op.solve(f)
    hv, hf = HatNorm(s).norms(np.stack([v, f]), geom, rho)[0].tolist()
    return max(best, hv / hf) if hf > 0 else best


def _sweep_point(field_family, fp, s, trials, seed, probe_seed):
    """Gains of one grid point; with ``probe_seed``, also the hat/L2 ratio
    of the solution for one more forcing drawn from that seed (else 0.0).

    The ``trials`` forcings of the gains (from ``seed``), the
    ``max(4, trials // 4)`` that start the power iteration (from
    ``seed + 1``) and the probe are solved and normed as one ensemble
    (:func:`_ensemble`).
    """
    field = field_family(fp)
    a = trials
    b = a + max(4, trials // 4)
    sets = [(trials, seed), (b - a, seed + 1)]
    if probe_seed is not None:
        sets.append((1, probe_seed))
    V, (hv, l2v, h1v), (hf, l2f, _) = _ensemble(field, s, sets)
    g_hf = _worst(hv[:a] / hf[:a])
    g_pd = _worst(hv[:a] / (hf[:a] + l2v[:a]))
    absorb = _worst(l2v[:a] / (h1v[:a] + l2f[:a]))
    gain = _refined_gain(field, s, V[a:b], hv[a:b] / hf[a:b], POWER_ITERS)
    g_hf = max(g_hf, gain)
    ratio = 0.0
    if probe_seed is not None and l2v[b] > 0:
        ratio = float(hv[b] / l2v[b])
    return (g_hf, g_pd, absorb), ratio


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

    ``field_family`` maps a :class:`FrequencyPoint` to an assembled field.
    Each bound gets its own constant, 1.25x the worst calibration gain over
    every other grid point; the pass flags are deterministic functions of
    the per-point gains and the constants, and the pass sets of the two
    bounds are compared pointwise.  (i) at bounded frequencies
    ``|lambda| <= BOUNDED_CUT`` the hat norm is controlled by L2 (the
    ratio is reported); (ii) along growing ``|lambda|`` the ratio
    ``|v|_L2 / (|v|_H1 + |f|_L2)`` decays like ``C/|lambda|`` (fitted
    exponent).  Raises ``ValueError``, before any point is solved, when a
    point has ``Re lambda <= gamma_star``.  Singular-set points are left out
    and listed in ``flagged``; when every point is on the singular set,
    :class:`CenterSpectrumError` is raised.
    """
    grid = list(grid)
    nP = len(grid)
    weights = np.array([fp.lam.real - gamma_star for fp in grid])
    if np.any(weights <= 0):
        raise ValueError("grid contains Re lambda <= gamma_star")
    g_hf = np.full(nP, np.nan)
    g_pd = np.full(nP, np.nan)
    absorb = np.full(nP, np.nan)
    flagged = []
    bounded_ratio = 0.0

    def work(i):
        fp = grid[i]
        probe_seed = seed + 7 * i if abs(fp.lam) <= BOUNDED_CUT else None
        try:
            return i, _sweep_point(field_family, fp, s, trials,
                                   seed + 1000 * i, probe_seed), None
        except CenterSpectrumError as exc:
            return i, None, str(exc)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        for i, res, err in pool.map(work, range(nP)):
            if err is not None:
                flagged.append((i, err))
                continue
            (g_hf[i], g_pd[i], absorb[i]), ratio = res
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

