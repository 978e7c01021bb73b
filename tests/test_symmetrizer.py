import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, expm, solve_continuous_lyapunov

from relaxstab import dichotomy as dich
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import symmetrizer as symm
from relaxstab import systems
from relaxstab.model import per_state
from relaxstab.errors import (CertificateError, FrameConditioningError,
                              StabilityError)

from conftest import chunk_solve, one_point_chunk


@pytest.fixture(scope="module")
def small_geom():
    return res.CollocationGrid(n_nodes=65, length=20.0)


# ----------------------------------------------------------- Lyapunov Q ----

def test_scalar_blocks_quarter_and_half(small_geom):
    grid = small_geom.x
    for c in (1.0, 2.0, 0.7):
        forms = symm.lyapunov_Q(grid, np.full((grid.size, 1, 1), -c + 0j),
                                np.full((grid.size, 1, 1), c + 0j))
        assert np.max(np.abs(forms.Q_plus - 1.0 / (2 * c))) < 1e-10
        assert np.max(np.abs(forms.Q_minus - 1.0 / (2 * c))) < 1e-10


def test_matrix_block_matches_quadrature_oracle(small_geom):
    grid = small_geom.x
    Lam = np.array([[-1.0, 0.4], [0.0, -2.0]])
    forms = symm.lyapunov_Q(grid, np.broadcast_to(Lam, (grid.size, 2, 2)),
                            np.full((grid.size, 1, 1), 1.0 + 0j))
    # oracle: composite-Simpson quadrature of int_0^X expm(L* t) expm(L t) dt
    ts = np.linspace(0.0, 40.0, 4001)
    vals = np.array([expm(Lam.T * t) @ expm(Lam * t) for t in ts])
    Q_oracle = np.zeros((2, 2))
    for k in range(0, len(ts) - 2, 2):
        h = ts[k + 1] - ts[k]
        Q_oracle = Q_oracle + (h / 3.0) * (vals[k] + 4 * vals[k + 1]
                                           + vals[k + 2])
    assert np.max(np.abs(forms.Q_plus[10] - Q_oracle)) < 1e-8


def test_contract_derivative_identity(small_geom):
    # d/dx <z, Q z> = -|z|^2 along solutions z' = Lambda(x) z
    grid = small_geom.x
    rng = np.random.default_rng(4)
    lam_field = np.empty((grid.size, 2, 2), dtype=complex)
    for i, x in enumerate(grid):
        lam_field[i] = (np.array([[-1.0 - 0.3 * np.tanh(x / 5.0), 0.2],
                                  [0.0, -2.0 + 0.5 / np.cosh(x / 5.0)]]))
    forms = symm.lyapunov_Q(grid, lam_field,
                            np.full((grid.size, 1, 1), 1.0 + 0j))
    from scipy.interpolate import PchipInterpolator
    lam_at = PchipInterpolator(grid, lam_field.real, axis=0)
    Q_at_re = PchipInterpolator(grid, forms.Q_plus.real, axis=0)
    for _ in range(20):
        x0 = rng.uniform(-10.0, 5.0)
        z0 = rng.standard_normal(2)
        h = 0.05
        sol = solve_ivp(lambda x, z: lam_at(x) @ z, (x0 - h, x0 + h), z0,
                        rtol=1e-12, atol=1e-14, dense_output=True)
        za, zm, zb = sol.sol(x0 - h), sol.sol(x0), sol.sol(x0 + h)
        qa = za @ Q_at_re(x0 - h) @ za
        qb = zb @ Q_at_re(x0 + h) @ zb
        deriv = (qb - qa) / (2 * h)
        assert abs(deriv + zm @ zm) < 5e-3 * max(1.0, abs(zm @ zm))


def test_collocated_forms_match_tight_integration(small_geom):
    # non-constant blocks: Q' = sign*I - Lam* Q - Q Lam from the endstate
    # seed, integrated by DOP853 on the exact Lam(x)
    grid = small_geom.x

    def lam_plus(x):
        return np.array([[-1.0 - 0.3 * np.tanh(x / 5.0), 0.2 + 0.3j],
                         [0.1j, -2.0 + 0.5 / np.cosh(x / 5.0)]])

    def lam_minus(x):
        return np.array([[1.0 + 0.4 * np.tanh(x / 5.0) + 0.5j]])

    forms = symm.lyapunov_Q(grid, np.stack([lam_plus(x) for x in grid]),
                            np.stack([lam_minus(x) for x in grid]))
    for Q, lam, sign, x0, x1 in ((forms.Q_plus, lam_plus, -1, 20.0, -20.0),
                                 (forms.Q_minus, lam_minus, 1, -20.0, 20.0)):
        p = Q.shape[1]

        def rhs(x, qflat):
            Lam = lam(x)
            Qx = qflat.reshape(p, p)
            return (sign * np.eye(p) - Lam.conj().T @ Qx - Qx @ Lam).ravel()

        seed = solve_continuous_lyapunov(lam(x0).conj().T, sign * np.eye(p))
        sol = solve_ivp(rhs, (x0, x1), seed.astype(complex).ravel(),
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        dense_output=True)
        Q_ref = sol.sol(grid).T.reshape(-1, p, p)
        assert np.max(np.abs(Q - Q_ref)) <= 1e-8 * np.max(np.abs(Q_ref))


def _collocation_loop(grid, blocks, end, sign):
    """Reference for ``_lyapunov_collocation``: the diagonal blocks of the
    collocation matrix filled one node at a time, and the seed solved on the
    end node's block."""
    m, p, _ = blocks.shape
    eye = np.eye(p)
    lam_h = blocks.conj().transpose(0, 2, 1)
    K = [np.kron(lam_h[i], eye) + np.kron(eye, blocks[i].T) for i in range(m)]
    seed = np.linalg.solve(K[end], sign * eye.ravel()).reshape(p, p)
    seed = 0.5 * (seed + seed.conj().T)
    rhs = sign * eye - lam_h @ seed - seed @ blocks
    q = p * p
    A = np.kron(symm._barycentric_D(grid), np.eye(q)).astype(complex)
    for i in range(m):
        A[i * q:(i + 1) * q, i * q:(i + 1) * q] += K[i]
    keep = np.delete(np.arange(m * q).reshape(m, q), end, axis=0).ravel()
    dev = np.zeros(m * q, dtype=complex)
    dev[keep] = np.linalg.solve(A[np.ix_(keep, keep)], rhs.reshape(-1)[keep])
    Q = seed + dev.reshape(m, p, p)
    return 0.5 * (Q + Q.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("end, sign", [(-1, -1), (0, 1)])
def test_stacked_collocation_fill_equals_node_loop(small_geom, p, end, sign):
    grid = small_geom.x
    rng = np.random.default_rng(p)
    base = -np.eye(p) if sign < 0 else np.eye(p)
    wobble = (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    blocks = (base + 0.2 * np.tanh(grid)[:, None, None] * wobble
              + 0.1j * np.eye(p))
    Q = symm._lyapunov_collocation(grid, blocks, end, sign)
    assert np.array_equal(Q, _collocation_loop(grid, blocks, end, sign))


def test_lyapunov_seed_matches_scipy():
    # the endstate seed Q[end]: Lam* X + X Lam = sign*I, against scipy's
    # Bartels-Stewart solver, on real and complex blocks
    rng = np.random.default_rng(11)
    grid = np.linspace(-1.0, 1.0, 5)
    for p in (1, 2, 3):
        for cplx in (False, True):
            for end, sign in ((-1, -1), (0, 1)):
                blocks = rng.standard_normal((grid.size, p, p))
                if cplx:
                    blocks = blocks + 1j * rng.standard_normal(blocks.shape)
                # shift every node stable in the direction of ``sign``
                worst = np.max(np.abs(np.linalg.eigvals(blocks).real))
                blocks = blocks + sign * (worst + 0.5) * np.eye(p)
                X = symm._lyapunov_collocation(grid, blocks, end, sign)[end]
                lam = blocks[end]
                ref = solve_continuous_lyapunov(lam.conj().T, sign * np.eye(p))
                scale = np.linalg.norm(ref)
                assert np.linalg.norm(X - ref) <= 1e-13 * scale, (p, cplx)
                resid = lam.conj().T @ X + X @ lam - sign * np.eye(p)
                assert np.linalg.norm(resid) <= 1e-13 * max(
                    1.0, np.linalg.norm(lam) * scale), (p, cplx)


def test_nonstable_block_rejected(small_geom):
    grid = small_geom.x
    with pytest.raises(StabilityError):
        symm.lyapunov_Q(grid, np.full((grid.size, 1, 1), 0.5 + 0j),
                        np.full((grid.size, 1, 1), 1.0 + 0j))


# ------------------------------------------------------------- assembly ----

def test_worked_example_exact(small_geom):
    grid = small_geom.x
    forms = symm.lyapunov_Q(grid, np.full((grid.size, 1, 1), -1.0 + 0j),
                            np.full((grid.size, 1, 1), 1.0 + 0j))
    frame = np.broadcast_to(np.eye(2), (grid.size, 2, 2)).astype(complex)
    S = symm.assemble_symmetrizer(frame.copy(), forms)
    assert np.max(np.abs(S.S[0] - np.diag([-0.5, 0.5]))) < 1e-12
    field = res.constant_field(np.diag([-1.0, 1.0]), small_geom)
    cert = symm.verify_symmetrizer(S, field, theta_req=0.4)
    assert abs(cert.theta_measured - 0.5) < 1e-12
    assert cert.passed


def test_scalar_stable_only_negative_symmetrizer(small_geom):
    field = res.constant_field(np.array([[-1.0]]), small_geom)
    S = symm.SymmetrizerField(grid=np.zeros(1),
                              S=np.array([[[-0.5]]], dtype=complex),
                              C0=0.5, theta=0.5)
    cert = symm.verify_symmetrizer(S, field, theta_req=0.4)
    assert cert.theta_measured == pytest.approx(0.5, abs=1e-13)


def test_unitary_frame_keeps_norm(small_geom):
    grid = small_geom.x
    forms = symm.lyapunov_Q(grid, np.full((grid.size, 1, 1), -0.5 + 0j),
                            np.full((grid.size, 1, 1), 2.0 + 0j))
    th = 0.3
    U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    frame = np.broadcast_to(U, (grid.size, 2, 2)).astype(complex)
    S = symm.assemble_symmetrizer(frame.copy(), forms)
    expect = max(float(np.max(np.abs(forms.Q_plus))),
                 float(np.max(np.abs(forms.Q_minus))))
    assert S.C0 == pytest.approx(expect, rel=1e-10)


# --------------------------------------------------- constant symmetrizer ----

def test_constant_symmetrizer_normal_case():
    # A symmetric, E = theta*I: orthogonal eigenbasis, S = I, margin theta
    th = 0.7
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = systems.SystemSpec(
        n=2, d=1, flux_jac=per_state(lambda w: A[None]),
        relax_jac=per_state(lambda w: -th * np.eye(2)),
        relax=per_state(lambda w: np.zeros(2)),
        name="normal")
    S = symm.constant_symmetrizer(sys, [0.0, 0.0], [3.0])
    assert np.allclose(S.S[0], np.eye(2), atol=1e-12)
    assert S.theta == pytest.approx(th, abs=1e-12)


def test_constant_symmetrizer_jinxin(jx):
    S = symm.constant_symmetrizer(jx, [0.0, 0.0], [10.0])
    evals = np.linalg.eigvalsh(S.S[0])
    assert np.all(evals > 0)
    assert np.max(np.abs(S.S[0] - S.S[0].conj().T)) < 1e-14
    assert S.theta >= 0.4
    # hand eigendecomposition: |mu| = 20, Gram overlap 0.6003
    assert evals[0] == pytest.approx(0.625, abs=5e-3)
    assert evals[1] == pytest.approx(2.5, abs=2e-2)


@pytest.mark.parametrize("name, w0, direction", [
    ("jin_xin", [0.5, 0.125], [1.0]),
    ("jin_xin_2d", [0.5, 0.125, 0.125], [0.6, 0.8]),
    ("saint_venant", [1.0, 1.0], [1.0]),
], ids=["jin_xin", "jin_xin_2d", "saint_venant"])
def test_constant_symmetrizer_theta_is_the_pencil_minimum(name, w0, direction):
    # theta from the congruence-reduced pencil: scipy's generalized
    # eigensolver on (Re(S(-N)), S) and the spectral gap min(-Re sigma(N))
    sys = systems.make_system(name)
    for k in (0.5, 2.0, 10.0, 40.0):
        eta = k * np.array(direction)
        S = symm.constant_symmetrizer(sys, w0, eta)
        N = (-1j * np.tensordot(eta, sys.flux_jacs(np.array(w0)), axes=(0, 0))
             + sys.relax_jacobian(np.array(w0)))
        Sm = S.S[0]
        Ham = 0.5 * (Sm @ (-N) + (-N).conj().T @ Sm)
        pencil = eigh(Ham, Sm, eigvals_only=True)[0]
        gap = np.min(-np.linalg.eigvals(N).real)
        tol = 1e-13 * max(1.0, abs(pencil))
        assert abs(S.theta - pencil) <= tol, (name, k)
        assert abs(S.theta - gap) <= tol, (name, k)


def test_constant_symmetrizer_perturbed_state_continuity():
    sv = systems.saint_venant(1.5)
    base = symm.constant_symmetrizer(sv, [1.0, 1.0], [10.0])
    assert base.theta > 0
    for amp in (0.02, 0.05, 0.1):
        Sp = symm.constant_symmetrizer(sv, [1.0, 1.0], [10.0],
                                       v0=np.array([amp, 0.0]))
        assert Sp.theta >= base.theta / 2.0


def test_constant_symmetrizer_defective_raises():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    sys = systems.SystemSpec(
        n=2, d=1, flux_jac=per_state(lambda w: A[None]),
        relax_jac=per_state(lambda w: np.zeros((2, 2))),
        relax=per_state(lambda w: np.zeros(2)),
        name="nilpotent")
    with pytest.raises(FrameConditioningError):
        symm.constant_symmetrizer(sys, [0.0, 0.0], [1.0])


# ----------------------------------------------------------- certificate ----

def test_skew_generator_fails_certificate(small_geom):
    field = res.constant_field(np.array([[0.0, 1.0], [-1.0, 0.0]]), small_geom)
    S = symm.SymmetrizerField(grid=np.zeros(1),
                              S=np.eye(2, dtype=complex)[None], C0=1.0,
                              theta=0.0)
    cert = symm.verify_symmetrizer(S, field, theta_req=1e-6)
    assert not cert.passed
    assert abs(cert.theta_measured) < 1e-12


def test_non_hermitian_rejected(small_geom):
    field = res.constant_field(np.diag([-1.0, 1.0]), small_geom)
    S = symm.SymmetrizerField(grid=np.zeros(1),
                              S=np.array([[[0.0, 1.0], [0.0, 0.0]]],
                                         dtype=complex), C0=1.0, theta=0.0)
    with pytest.raises(CertificateError, match="Hermitian"):
        symm.verify_symmetrizer(S, field, theta_req=0.0)


def test_worst_node_is_the_first_coercivity_minimum(small_geom):
    # with S = I the form at node i is 2 G_i: the minimum sits where G does
    S = symm.SymmetrizerField(grid=np.zeros(1), S=np.ones((1, 1, 1),
                                                         dtype=complex),
                              C0=1.0, theta=0.0)
    field = res.constant_field(np.array([[-1.0]]), small_geom)
    field.G_nodes[[7, 30]] = -3.0
    field.G_nodes[12] = -2.0
    cert = symm.verify_symmetrizer(S, field, theta_req=-10.0)
    assert cert.theta_measured == -3.0
    assert cert.worst_node == small_geom.x[7]
    field.G_nodes[40] = -4.0
    cert = symm.verify_symmetrizer(S, field, theta_req=-10.0)
    assert cert.theta_measured == -4.0
    assert cert.worst_node == small_geom.x[40]


def test_front_certificate(front_field, front_symmetrizer):
    cert = symm.verify_symmetrizer(front_symmetrizer, front_field,
                                   theta_req=0.0, energy_trials=30, seed=7)
    assert cert.passed
    assert cert.theta_measured > 0.2
    assert cert.energy_check <= 1.0
    # exact-arithmetic prediction 1/(2 max|T|^2) from orthonormal frames
    assert cert.theta_measured == pytest.approx(front_symmetrizer.theta,
                                                abs=1e-3)
    assert cert.c0_measured <= front_symmetrizer.C0 + 1e-12


def test_certificate_invariants(front_symmetrizer):
    S = front_symmetrizer
    for i in range(0, len(S.grid), 25):
        assert np.max(np.abs(S.S[i] - S.S[i].conj().T)) < 1e-10
        assert np.linalg.norm(S.S[i], 2) <= S.C0 * (1 + 1e-12)


def test_theta_monotone_under_refinement(jx, front):
    thetas = []
    for n_nodes in (81, 161):
        geom = res.CollocationGrid(n_nodes=n_nodes, length=50.0)
        field = res.assemble_G(jx, front,
                               res.FrequencyPoint(np.zeros(0), 2.0 + 0j),
                               geom=geom)
        data = dich.propagate_subspaces(field, fit_pairs=6)
        forms = symm.lyapunov_Q(data.grid, data.lambda_plus,
                                data.lambda_minus)
        S = symm.assemble_symmetrizer(data.frame, forms)
        cert = symm.verify_symmetrizer(S, field, theta_req=0.0)
        thetas.append(cert.theta_measured)
    assert thetas[1] >= thetas[0] - 1e-3


# ---------------------------------------------------------- energy check ----

def test_energy_zero_forcing_zero_ratio(small_geom):
    field = res.constant_field(np.array([[-1.0]]), small_geom)
    u = chunk_solve(one_point_chunk(field),
                    np.zeros((small_geom.n_nodes, 1)), apply_a1inv=False)
    assert np.max(np.abs(u)) == 0.0


def test_energy_scalar_vs_quadrature_oracle(small_geom):
    # u' = -u + f: u(x) = int_{-inf}^x e^{-(x-y)} f(y) dy
    field = res.constant_field(np.array([[-1.0]]), small_geom)
    x = small_geom.x
    f = np.exp(-((x - 1.0) / 3.0) ** 2)[:, None]
    u = chunk_solve(one_point_chunk(field), f, apply_a1inv=False)
    oracle = np.empty_like(x)
    for i, xi in enumerate(x):
        ys = np.linspace(-40.0, xi, 20001)
        vals = np.exp(-(xi - ys)) * np.exp(-((ys - 1.0) / 3.0) ** 2)
        oracle[i] = np.trapezoid(vals, ys)
    assert np.max(np.abs(u[:, 0] - oracle)) < 1e-6

    S = symm.SymmetrizerField(grid=np.zeros(1),
                              S=np.array([[[1.0]]], dtype=complex),
                              C0=1.0, theta=1.0)
    ratio = symm.energy_estimate_check(S, field, trials=100, theta=1.0,
                                       C0=1.0, seed=3)
    assert ratio <= 1.0


def test_energy_front_pair(front_field, front_symmetrizer):
    cert = symm.verify_symmetrizer(front_symmetrizer, front_field,
                                   theta_req=0.0)
    ratio = symm.energy_estimate_check(front_symmetrizer, front_field,
                                       trials=100,
                                       theta=cert.theta_measured,
                                       C0=cert.c0_measured, seed=9)
    assert ratio <= 1.0


def test_energy_requires_positive_theta(front_field, front_symmetrizer):
    with pytest.raises(CertificateError):
        symm.energy_estimate_check(front_symmetrizer, front_field, trials=1,
                                   theta=0.0, C0=1.0)


# ------------------------------------ frozen-family certificate surrogate ----

def test_certificates_converge_with_amplitude(jx, front):
    # linear flux: the frozen family is exactly the linearized one, so the
    # certificate is amplitude-independent; a nonlinear flux shows the
    # first-order drift shrinking with the amplitude
    geom = res.CollocationGrid(n_nodes=81, length=40.0)
    fp = res.FrequencyPoint(np.zeros(0), 2.0 + 0j)

    def certify(field):
        data = dich.propagate_subspaces(field, fit_pairs=6)
        forms = symm.lyapunov_Q(data.grid, data.lambda_plus,
                                data.lambda_minus)
        S = symm.assemble_symmetrizer(data.frame, forms)
        return symm.verify_symmetrizer(S, field, theta_req=0.0).theta_measured

    base = certify(res.assemble_G(jx, front, fp, geom=geom))
    bump = res.bump_perturbation(np.array([1.0, 0.0]), 0.05, width=6.0)
    pert = certify(res.assemble_G(jx, front, fp, v=bump, geom=geom))
    assert pert == pytest.approx(base, abs=1e-12)

    sv = systems.saint_venant(1.5)
    h1 = 1.2
    s = (h1 ** 1.5 - 1.0) / (h1 - 1.0)
    psv = prof.solve_profile_shooting(sv, np.array([h1, h1 ** 1.5]),
                                      np.array([1.0, 1.0]), s, L=30.0,
                                      n_points=801)
    geom_sv = res.CollocationGrid(n_nodes=81, length=25.0)
    fp_sv = res.FrequencyPoint(np.zeros(0), 3.0 + 0j)
    base_sv = certify(res.assemble_G(sv, psv, fp_sv, geom=geom_sv))
    diffs = []
    for amp in (0.04, 0.02):
        vb = res.bump_perturbation(np.array([1.0, 0.0]), amp, width=5.0)
        th = certify(res.assemble_G(sv, psv, fp_sv, v=vb, geom=geom_sv))
        diffs.append(abs(th - base_sv))
    assert diffs[1] <= 0.75 * diffs[0] + 1e-6
