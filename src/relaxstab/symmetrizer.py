"""Symmetrizer construction and certification.

A symmetrizer for ``v' = G(x) v + f`` is a Hermitian field ``S(x)`` with
``|S(x)| <= C0`` and the coercivity bound

    2 Re(S(x) G(x)) + S'(x) >= 2 theta I,   theta > 0,

which yields the energy estimate ``theta |u|^2 <= (C0^2/theta) |f|^2`` for
decaying solutions.  Two constructions are provided:

* from an exponential dichotomy, via quadratic forms solving the
  one-sided matrix Lyapunov equations along the diagonal blocks and the
  conjugation ``S = T^{-*} diag(-Q_plus, Q_minus) T^{-1}``; each equation
  is solved by polynomial collocation on the dichotomy's own nodes, as one
  linear system for the deviation of ``Q`` from its endstate seed;
* for frozen high-frequency constant states, ``S = R^{-*} R^{-1}`` from the
  eigenbasis ``R`` of the frozen symbol, certified in the ``S``-weighted
  norm.

The dense problems here are small and solved once, so they call
``numpy.linalg``; ``relaxstab._lapack`` binds through ctypes only the
factorizations that the resolvent sweep reuses.

Certificates report the measured coercivity ``theta`` (half the worst
eigenvalue of the certified form), the sup bound ``C0`` and the worst
energy-inequality ratio over randomized forcings.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (CertificateError, FrameConditioningError, NumericError,
                     StabilityError)

solve_ivp = None  # read by perfbench/tracing.py, which wraps this name

__all__ = [
    "LyapunovForms",
    "SymmetrizerField",
    "Certificate",
    "lyapunov_Q",
    "assemble_symmetrizer",
    "constant_symmetrizer",
    "verify_symmetrizer",
    "energy_estimate_check",
]

# eigenbasis condition cap of constant_symmetrizer
COND_CAP = 1e8
# Hermitian defect allowed by verify_symmetrizer, relative to max(1, C0)
HERMITIAN_TOL = 1e-10
# end-node amplitude, relative to the peak, above which the energy check
# warns that a solution does not decay at the truncated ends
DECAY_TOL = 1e-2


@dataclass(eq=False)
class LyapunovForms:
    """Positive quadratic forms contracting along the diagonal blocks."""

    grid: np.ndarray
    Q_plus: np.ndarray       # (m, j, j) Hermitian positive
    Q_minus: np.ndarray      # (m, k, k)


@dataclass(eq=False)
class SymmetrizerField:
    """Hermitian matrix field with its certificate constants."""

    grid: np.ndarray         # (m,) or a single node for constant fields
    S: np.ndarray            # (m, n, n)
    C0: float
    theta: float             # predicted/certified coercivity constant
    provenance: str = "user"

    @property
    def constant(self):
        return self.grid.size == 1

    def on_grid(self, grid):
        """Samples aligned with ``grid`` (broadcast when constant)."""
        if self.constant:
            return np.broadcast_to(self.S[0], (len(grid),) + self.S[0].shape)
        if self.grid.shape != np.shape(grid) or not np.allclose(self.grid, grid):
            raise ValueError("symmetrizer sampled on a different grid")
        return self.S


def _barycentric_D(x):
    """Differentiation matrix of the polynomial interpolant on the nodes ``x``.

    Built from the barycentric weights (Berrut & Trefethen, SIAM Review 46,
    2004), kept in log form so long grids do not overflow; on
    Chebyshev-Lobatto nodes it is the grid's spectral matrix ``D``.
    """
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    w = np.prod(np.sign(diff), axis=1) * np.exp(logw - logw.max())
    D = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _lyapunov_collocation(grid, blocks, end, sign):
    """Collocated ``Q' = sign*I - Lam* Q - Q Lam`` with ``Q[end]`` the seed.

    The seed solves ``Lam* X + X Lam = sign*I`` at the endstate block
    ``blocks[end]``, by ``numpy.linalg`` on that node's Kronecker block.  The
    unknown is the deviation ``Q - seed``, zero at the end node, so constant
    blocks return the seed exactly on any grid.
    """
    m, p, _ = blocks.shape
    eye = np.eye(p)
    # row-major vec: vec(L* E) = kron(L*, I) e, vec(E L) = kron(I, L^T) e;
    # K[i] is the diagonal block of node i in A's (m, q, m, q) view
    q = p * p
    lam_h, lam_t = blocks.conj().transpose(0, 2, 1), blocks.transpose(0, 2, 1)
    K = (lam_h[:, :, None, :, None] * eye[:, None, :]
         + eye[:, None, :, None] * lam_t[:, None, :, None, :]).reshape(m, q, q)
    try:
        seed = np.linalg.solve(K[end], sign * eye.reshape(q)).reshape(p, p)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular endstate Lyapunov block: {exc}") from exc
    seed = 0.5 * (seed + seed.conj().T)
    rhs = sign * eye - lam_h @ seed - seed @ blocks
    A = np.kron(_barycentric_D(grid), np.eye(q)).astype(complex)
    node = np.arange(m)
    A.reshape(m, q, m, q)[node, :, node, :] += K
    keep = np.delete(np.arange(m * q).reshape(m, q), end, axis=0).ravel()
    dev = np.zeros(m * q, dtype=complex)
    dev[keep] = np.linalg.solve(A[np.ix_(keep, keep)], rhs.reshape(-1)[keep])
    Q = seed + dev.reshape(m, p, p)
    return 0.5 * (Q + Q.conj().transpose(0, 2, 1))


def lyapunov_Q(grid, lambda_plus, lambda_minus):
    """Quadratic forms for the decoupled diagonal blocks.

    ``Q_plus`` solves ``Q' + Lam_plus^* Q + Q Lam_plus = -I`` with the
    algebraic solution at the right endstate as its value at ``grid[-1]``
    (equivalent to the propagator integral, without evaluating
    propagators); ``Q_minus`` mirrors it with ``+I`` and its value at
    ``grid[0]``.  Both are solved by collocation on the ascending ``grid``
    (exact for constant blocks on any grid, spectrally accurate on Chebyshev
    nodes).  Requires
    ``Lam_plus`` uniformly forward-stable and ``Lam_minus`` backward-stable.
    """
    grid = np.asarray(grid, dtype=float)
    lambda_plus = np.asarray(lambda_plus)
    lambda_minus = np.asarray(lambda_minus)
    # one stacked call per check: the same routine runs on every node
    worst_p = float(np.max(np.linalg.eigvals(lambda_plus).real))
    if worst_p >= 0:
        raise StabilityError("lambda_plus block is not uniformly "
                             f"forward-stable (worst Re = {worst_p:.3g})")
    worst_m = float(np.min(np.linalg.eigvals(lambda_minus).real))
    if worst_m <= 0:
        raise StabilityError("lambda_minus block is not uniformly "
                             f"backward-stable (worst Re = {worst_m:.3g})")
    Q_plus = _lyapunov_collocation(grid, lambda_plus, -1, -1)
    Q_minus = _lyapunov_collocation(grid, lambda_minus, 0, 1)
    for tag, Q in (("Q_plus", Q_plus), ("Q_minus", Q_minus)):
        worst = float(np.min(np.linalg.eigvalsh(Q)))
        if not worst > 0:  # a NaN fails too
            raise StabilityError(f"{tag} lost positivity (min eig {worst:.3g})")
    return LyapunovForms(grid=grid, Q_plus=Q_plus, Q_minus=Q_minus)


def assemble_symmetrizer(frame, forms):
    """Conjugate the block forms back to physical coordinates.

    ``S(x) = T(x)^{-*} diag(-Q_plus, Q_minus) T(x)^{-1}`` (conjugate
    transpose of the inverse; for real frames this is the plain transpose).
    The predicted coercivity ``1/(2 max|T|^2)`` is stored as ``theta``.
    """
    frame = np.asarray(frame)
    m, n, _ = frame.shape
    j = forms.Q_plus.shape[1]
    B = np.zeros((m, n, n), dtype=complex)
    B[:, :j, :j] = -forms.Q_plus
    B[:, j:, j:] = forms.Q_minus
    Tinv = np.linalg.inv(frame)
    S = Tinv.conj().transpose(0, 2, 1) @ B @ Tinv
    S = 0.5 * (S + S.conj().transpose(0, 2, 1))
    tmax = float(np.max(np.linalg.norm(frame, 2, axis=(1, 2))))
    C0 = float(np.max(np.linalg.norm(S, 2, axis=(1, 2))))
    return SymmetrizerField(grid=forms.grid, S=S, C0=C0,
                            theta=1.0 / (2.0 * tmax ** 2),
                            provenance="lyapunov")


def constant_symmetrizer(sys, w0, eta, v0=None):
    """High-frequency symmetrizer for a frozen (possibly perturbed) state.

    Diagonalizes the frozen generator ``N = -i T(w0+v0, eta) - E(w0)`` by its
    eigenbasis ``R`` and returns ``S = R^{-*} R^{-1}`` together with the
    decay rate certified in the ``S``-norm: the smallest eigenvalue of the
    pencil ``(Re(S (-N)), S)``, which equals ``min(-Re sigma(N))`` up to
    roundoff.  The congruence with ``R`` (``R^* S R = I``) reduces the
    pencil to the Hermitian part of ``M = R^* Re(S (-N)) R``.  Near
    eigenvector coalescence (eigenbasis condition number above
    ``COND_CAP``) the construction fails with a conditioning error.
    """
    w0 = np.asarray(w0, dtype=float)
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    ws = w0 + (np.asarray(v0, dtype=float) if v0 is not None else 0.0)
    A = sys.flux_jacs(ws)
    T = np.tensordot(eta, A, axes=(0, 0))
    E = -sys.relax_jacobian(w0)
    N = -1j * T - E
    mu, R = np.linalg.eig(N)
    if np.linalg.cond(R) > COND_CAP:
        raise FrameConditioningError(
            "frozen symbol eigenbasis is near-defective (geometric "
            f"regularity fails near eta = {eta})")
    Rinv = np.linalg.inv(R)
    S = Rinv.conj().T @ Rinv
    S = 0.5 * (S + S.conj().T)
    Ham = 0.5 * (S @ (-N) + (-N).conj().T @ S)
    M = R.conj().T @ Ham @ R
    theta = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])
    return SymmetrizerField(grid=np.zeros(1), S=S[None, :, :],
                            C0=float(np.linalg.norm(S, 2)), theta=theta,
                            provenance="constant-frame")


@dataclass(frozen=True)
class Certificate:
    """Measured symmetrizer certificate."""

    theta_measured: float     # half the worst eigenvalue of 2Re(SG) + S'
    c0_measured: float
    energy_check: float       # worst energy-inequality ratio (0 if not run)
    passed: bool
    theta_req: float
    worst_node: float         # x where the coercivity minimum is attained
    hermitian_defect: float
    provenance: str = "user"


def verify_symmetrizer(S, field, theta_req, energy_trials=0, seed=0):
    """Certify a symmetrizer against a coefficient field.

    Measures ``min eig(2 Re(S G) + S')`` over the grid (with ``S'`` by
    spectral differencing, the same scheme used for frame derivatives) and
    the sup bound; optionally runs the randomized energy-inequality check.
    ``worst_node`` is the first node where the minimum is attained.
    """
    geom = field.geom
    Sg = np.asarray(S.on_grid(geom.x), dtype=complex)
    defect = float(np.max(np.linalg.norm(Sg - Sg.conj().transpose(0, 2, 1), 2,
                                         axis=(1, 2))))
    if defect > HERMITIAN_TOL * max(1.0, S.C0):
        raise CertificateError(
            f"symmetrizer is not Hermitian (defect {defect:.3e})")
    Sp = (np.zeros_like(Sg) if S.constant
          else np.tensordot(geom.D, Sg, axes=(1, 0)))
    H = Sg @ field.G_nodes
    form = H + H.conj().transpose(0, 2, 1) + Sp
    lam_min = np.linalg.eigvalsh(
        0.5 * (form + form.conj().transpose(0, 2, 1)))[:, 0]
    i = int(np.argmin(lam_min))
    theta_measured = 0.5 * float(lam_min[i])
    c0 = float(np.max(np.linalg.norm(Sg, 2, axis=(1, 2))))
    energy = 0.0
    if energy_trials > 0:
        energy = energy_estimate_check(S, field, trials=energy_trials,
                                       theta=theta_measured, C0=c0, seed=seed)
    passed = (theta_measured >= theta_req) and energy <= 1.0
    return Certificate(theta_measured=theta_measured, c0_measured=c0,
                       energy_check=energy, passed=passed,
                       theta_req=theta_req, worst_node=float(geom.x[i]),
                       hermitian_defect=defect, provenance=S.provenance)


def energy_estimate_check(S, field, trials, theta, C0, seed=0):
    """Worst ratio in ``theta |u|^2 <= (C0^2/theta) |f|^2`` over random forcings.

    Solves ``u' = G u + f`` with spectral-projection boundary conditions for
    exponentially localized random ``f`` and returns
    ``max theta^2 |u|^2 / (C0^2 |f|^2)``; decay of ``u`` at the domain ends
    is checked a posteriori against ``DECAY_TOL``.  ``theta`` and ``C0`` are
    the constants measured for the symmetrizer ``S`` (see
    :func:`verify_symmetrizer`); only they enter the check.
    """
    from .resolvent import _random_forcings
    if theta <= 0:
        raise CertificateError("energy check requires a positive theta")
    F = _random_forcings(field.geom, field.n, np.random.default_rng(seed),
                         trials)
    U = field.bvp().solve(F, apply_a1inv=False)
    for u in U:
        edge = max(np.max(np.abs(u[0])), np.max(np.abs(u[-1])))
        if edge > DECAY_TOL * max(np.max(np.abs(u)), 1e-300):
            warnings.warn("solution does not decay at the truncated ends; "
                          "enlarge the domain", stacklevel=2)
    l2u, l2f = (field.geom._l2(X).tolist() for X in (U, F))
    worst = 0.0
    for a, b in zip(l2u, l2f):
        worst = max(worst, (theta ** 2 * a ** 2) / (C0 ** 2 * b ** 2))
    return worst
