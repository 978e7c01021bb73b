import re
from pathlib import Path

import numpy as np
import pytest

from relaxstab import model, systems
from relaxstab.errors import EvaluationError, NumericError, PathResolutionError
from relaxstab import profile as prof
from relaxstab.model import per_state

from conftest import transport_system


# ---------------------------------------------------------------- symbol ----

def test_symbol_jinxin_hand_value(jx):
    sym = model.assemble_symbol(jx, [0.0, 0.0], [1.0])
    assert np.array_equal(sym.matrix, np.array([[0.0, 1.0], [4.0, 0.0]]))


def test_symbol_zero_eta_and_homogeneity(jx):
    assert np.array_equal(model.assemble_symbol(jx, [0.3, 0.1], [0.0]).matrix,
                          np.zeros((2, 2)))
    sv = systems.saint_venant(1.5)
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = np.array([rng.uniform(0.5, 2.0), rng.uniform(-1.0, 2.0)])
        eta = rng.standard_normal(1)
        a = rng.uniform(-3.0, 3.0)
        T1 = model.assemble_symbol(sv, w, eta).matrix
        T2 = model.assemble_symbol(sv, w, a * eta).matrix
        assert np.max(np.abs(T2 - a * T1)) < 1e-12 * max(1.0, abs(a) * np.max(np.abs(T1)))


def test_symbol_homogeneity_at_two(jx):
    T1 = model.assemble_symbol(jx, [0.0, 0.0], [1.0]).matrix
    T2 = model.assemble_symbol(jx, [0.0, 0.0], [2.0]).matrix
    assert np.array_equal(T2, 2.0 * T1)


def test_symbol_rejects_bad_eta(jx):
    with pytest.raises(ValueError):
        model.assemble_symbol(jx, [0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        model.assemble_symbol(jx, [0.0, 0.0], [np.inf])


def test_symbol_nonfinite_jacobian_names_component():
    bad = systems.SystemSpec(
        n=2, d=1,
        flux_jac=per_state(lambda w: np.array([[[np.nan, 0.0], [0.0, 0.0]]])),
        relax_jac=per_state(lambda w: np.zeros((2, 2))),
        relax=per_state(lambda w: np.zeros(2)))
    with pytest.raises(EvaluationError, match="A_1"):
        model.assemble_symbol(bad, [0.0, 0.0], [1.0])


# ------------------------------------------------------ noncharacteristic ----

def test_noncharacteristic_margin_jinxin(jx, front):
    # oracle: singular values of [[-1/2, 1], [4, -1/2]] from the 2x2 formula
    M = np.array([[-0.5, 1.0], [4.0, -0.5]])
    g = M @ M.T
    tr, det = np.trace(g), np.linalg.det(g)
    smin = np.sqrt((tr - np.sqrt(tr * tr - 4 * det)) / 2.0)
    margin = model.check_noncharacteristic(jx, front)
    # the co-moving matrix is x-independent for this system
    assert abs(margin - smin) < 1e-12
    assert margin > model.A1_DELTA
    assert abs(np.abs(np.linalg.det(M)) - 3.75) < 1e-14


def test_noncharacteristic_singular_row():
    sys = transport_system([[0.0, 0.0], [1.0, 0.0]], n=2)
    p = prof.WaveProfile(grid=np.linspace(-1, 1, 5),
                         values=np.zeros((5, 2)), derivs=np.zeros((5, 2)),
                         speed=0.0, endstates=(np.zeros(2), np.zeros(2)),
                         decay_rate=0.0, tol_end=1e-8)
    assert model.check_noncharacteristic(sys, p) < 1e-14


def test_noncharacteristic_characteristic_constant_state():
    # a = 1, s = 1: eigenvalue of A_1 equals the speed
    p = prof.solve_profile_jinxin(1.0, 1.0, 1.0, L=5.0, n_points=11)
    margin = model.check_noncharacteristic(systems.jin_xin(1.0), p)
    assert margin < 1e-12


def test_noncharacteristic_empty_grid(jx):
    class Dummy:
        grid = np.zeros(0)
        values = np.zeros((0, 2))
        speed = 0.5
    with pytest.raises(ValueError, match="empty"):
        model.check_noncharacteristic(jx, Dummy())


# ----------------------------------------------------------- hyperbolicity ----

def test_hyperbolicity_jinxin(jx):
    r = model.check_hyperbolicity(jx, [0.2, 0.02], [[1.0], [-1.0]])
    assert r.passed and r.worst_imag < 1e-12


def test_hyperbolicity_jordan_block_fails():
    sys = transport_system([[0.0, 1.0], [0.0, 0.0]], n=2)
    r = model.check_hyperbolicity(sys, [0.0, 0.0], [[1.0]])
    assert not r.passed


def test_hyperbolicity_identity_passes():
    sys = transport_system(np.eye(2), n=2)
    assert model.check_hyperbolicity(sys, [0.0, 0.0], [[1.0]]).passed


def test_hyperbolicity_requires_unit_samples(jx):
    with pytest.raises(ValueError):
        model.check_hyperbolicity(jx, [0.0, 0.0], [[2.0]])
    with pytest.raises(ValueError):
        model.check_hyperbolicity(jx, [0.0, 0.0], [])


# ---------------------------------------------------- geometric regularity ----

def _crossing_system():
    # T(eta) = [[eta1, eta2, 0], [0, -eta1, 0], [0, 0, 5 eta2]]: branches
    # cross with a Jordan degeneration only at eta = (0, 1)
    A1 = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, 0]])
    A2 = np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 5.0]])
    return transport_system(np.stack([A1, A2]), n=3, d=2)


def test_regularity_jinxin_2d_passes():
    sys2 = systems.jin_xin_2d(2.0)
    r = model.check_geometric_regularity(sys2, [0.3, 0.045, 0.045])
    assert r.passed and not r.coalescence


def test_regularity_constant_multiplicity_passes():
    # double eigenvalue with constant (diagonal) projectors on the whole loop
    A1 = np.diag([1.0, 1.0, 2.0])
    A2 = np.diag([1.0, 1.0, 0.0])
    sys = transport_system(np.stack([A1, A2]), n=3, d=2)
    r = model.check_geometric_regularity(sys, np.zeros(3))
    assert r.passed


def test_regularity_flags_jordan_crossing():
    sys = _crossing_system()
    r = model.check_geometric_regularity(sys, np.zeros(3))
    assert not r.passed
    assert len(r.coalescence) == 1
    idx, eta, gap, cond = r.coalescence[0]
    # flagged direction is eta = (0, 1) where the nilpotent block appears
    assert abs(eta[0]) < 0.01 and abs(eta[1] - 1.0) < 1e-3
    # dense-sampling oracle: projector norms blow up like 1/|eta_1| nearby
    for e1 in (1e-2, 1e-3):
        T = model.assemble_symbol(sys, np.zeros(3),
                                  np.array([e1, np.sqrt(1 - e1 * e1)])).matrix
        mu, V = np.linalg.eig(T)
        W = np.linalg.inv(V)
        pn = np.max(np.linalg.norm(V, axis=0) * np.linalg.norm(W, axis=1))
        assert pn > 0.3 / e1


@pytest.mark.parametrize("phi_c", [0.0, 0.4 * np.pi / 181,
                                   np.pi - 0.4 * np.pi / 181],
                         ids=["zero", "above-zero", "below-pi"])
def test_regularity_flags_crossing_at_loop_wrap(phi_c):
    # the Jordan direction of _crossing_system rotated from (0, 1) to
    # (cos phi_c, sin phi_c), next to the loop's wrap point phi = 0 = pi
    a = np.pi / 2 - phi_c
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    A = np.einsum("kj,kab->jab", R, _crossing_system().flux_jac(np.zeros(3)))
    sys = transport_system(A, n=3, d=2)
    r = model.check_geometric_regularity(sys, np.zeros(3))
    assert not r.passed
    assert len(r.coalescence) == 1
    idx, eta, gap, cond = r.coalescence[0]
    # within one loop spacing of +-(1, 0), on the line of the crossing
    assert abs(eta[1]) < np.sin(np.pi / 181)
    assert abs(eta[0] * np.sin(phi_c) - eta[1] * np.cos(phi_c)) < 1e-6
    assert gap < model.GAP_TOL and cond > model.REGULARITY_COND_CAP


def test_regularity_coarse_path_raises(monkeypatch):
    monkeypatch.setattr(model, "REGULARITY_N_DIRECTIONS", 3)
    sys = _crossing_system()
    with pytest.raises(PathResolutionError, match="refine"):
        model.check_geometric_regularity(sys, np.zeros(3))


# ------------------------------------------------------------------- chf ----

def test_chf_jinxin_subcharacteristic(jx):
    r = model.check_chf(jx, [0.0, 0.0], eta_min=10.0, theta_req=0.4)
    assert r.passed
    # both eigenvalue real parts equal -1/2 exactly once |eta| >= 1/(2a)
    assert abs(r.theta - 0.5) < 1e-12
    assert r.eta_threshold == pytest.approx(10.0)


def test_chf_supercharacteristic_fails():
    sys = systems.jin_xin(1.0)
    r = model.check_chf(sys, [2.0, 2.0], eta_min=10.0, theta_req=0.4)
    assert not r.passed
    # oracle: eigenvalues of the hand-built 2x2 symbol at |eta| = 10
    A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    E = np.array([[0.0, 0.0], [-2.0, 1.0]])
    worst = np.max(np.linalg.eigvals(-10j * A1 - E).real)
    assert worst > 0.4
    assert r.theta < 0.0


def test_chf_zero_relaxation_fails():
    sys = transport_system([[0.0, 1.0], [1.0, 0.0]], n=2)
    r = model.check_chf(sys, [0.0, 0.0], eta_min=5.0, theta_req=1e-6)
    assert not r.passed and abs(r.theta) < 1e-12


def test_chf_requires_equilibrium(jx):
    with pytest.raises(ValueError, match="equilibrium"):
        model.check_chf(jx, [1.0, 0.0], eta_min=10.0, theta_req=0.1)


@pytest.mark.parametrize("sys, w0", [
    (systems.jin_xin(2.0), [1.0, 0.0]),
    (systems.jin_xin_2d(2.0), [1.0, 0.5, 0.0]),     # only r_3 is nonzero
    (systems.saint_venant(1.5), [1.0, 1.5]),
    (systems.partially_damped(2.0, 1.0), [1.0, 0.0, 0.0]),
], ids=["jin_xin", "jin_xin_2d", "saint_venant", "partially_damped"])
def test_endstate_checks_reject_nonzero_relax(sys, w0):
    # relax alone decides r(w0) = 0
    assert np.max(np.abs(sys.relaxation(w0))) > model.EQUILIBRIUM_TOL
    assert not sys.is_equilibrium(w0)
    with pytest.raises(ValueError, match="equilibrium"):
        model.check_chf(sys, w0, eta_min=10.0, theta_req=0.1)
    with pytest.raises(ValueError, match="equilibrium"):
        model.check_kawashima(sys, w0)


def test_equilibrium_test_is_max_norm_at_tolerance():
    # r = (0, 9e-11, 9e-11): 2-norm 1.27e-10, max-norm 9e-11
    jx2 = systems.jin_xin_2d(2.0)
    assert jx2.is_equilibrium([0.0, -9e-11, -9e-11])
    assert not jx2.is_equilibrium([0.0, -2e-10, 0.0])
    jx = systems.jin_xin(2.0)
    assert jx.is_equilibrium([1.0, 0.5 - 5e-11])
    assert not jx.is_equilibrium([1.0, 0.5 - 5e-10])


@pytest.mark.parametrize("eta_min", [0.0, -10.0])
def test_chf_rejects_nonpositive_eta_min(jx, eta_min):
    # zero would end in geomspace's error, a negative value would run as
    # |eta_min|
    with pytest.raises(ValueError, match="eta_min must be positive"):
        model.check_chf(jx, [0.0, 0.0], eta_min=eta_min, theta_req=0.1)


def test_chf_iff_subcharacteristic_sweep():
    # pass exactly when |f'(u0)| = |u0| < a, swept over equilibria
    a = 2.0
    sys = systems.jin_xin(a)
    for u0 in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
        r = model.check_chf(sys, [u0, 0.5 * u0 ** 2], eta_min=10.0,
                            theta_req=0.01)
        assert r.passed, u0
    for u0 in (-3.0, -2.5, 2.5, 3.0):
        r = model.check_chf(sys, [u0, 0.5 * u0 ** 2], eta_min=10.0,
                            theta_req=0.01)
        assert not r.passed, u0


# ------------------------------------------------------------- kawashima ----

def test_kawashima_jinxin(jx):
    r = model.check_kawashima(jx, [0.0, 0.0])
    assert r.passed
    # eigenvectors (1, +-a)/sqrt(1+a^2); coupling norm |f' -+ a|/sqrt(1+a^2)
    assert r.worst_norm == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-12)


def test_kawashima_zero_relaxation_fails():
    sys = transport_system([[0.0, 1.0], [1.0, 0.0]], n=2)
    assert not model.check_kawashima(sys, [0.0, 0.0]).passed


def test_kawashima_partially_damped_fails():
    sys = systems.partially_damped(2.0, 1.0)
    r = model.check_kawashima(sys, [0.0, 0.0, 0.0])
    assert not r.passed
    # chf is still evaluated independently on the same state and fails too
    c = model.check_chf(sys, [0.0, 0.0, 0.0], eta_min=10.0, theta_req=0.4)
    assert not c.passed


def test_kawashima_defective_basis_raises():
    sys = transport_system([[0.0, 1.0], [0.0, 0.0]], n=2)
    with pytest.raises(NumericError):
        model.check_kawashima(sys, [0.0, 0.0])


def test_kawashima_clusters_a_double_eigenvalue():
    # with c = a the undamped transport speed equals the sound speed: the
    # eigenvalue a of T is double and its eigenspace holds the undamped
    # mode, once per direction eta = 1, -1
    sys = systems.partially_damped(2.0, 2.0)
    r = model.check_kawashima(sys, np.zeros(3))
    assert not r.passed and r.worst_norm == 0.0
    assert [(eta, mu) for eta, mu, _ in r.failures] == [((1.0,), 2.0),
                                                        ((-1.0,), -2.0)]
    # the same system in a skewed basis: eig returns a mixed basis of the
    # double eigenspace, each vector of which the damping couples; only the
    # eigenspace as a whole holds the undamped mode
    S = np.array([[1.0, 0.3, -0.7], [0.2, 1.0, 0.5], [-0.4, 0.6, 1.0]])
    Si = np.linalg.inv(S)
    A = S @ sys.flux_jacs(np.zeros(3))[0] @ Si
    B = S @ sys.relax_jacobian(np.zeros(3)) @ Si
    skewed = systems.SystemSpec(n=3, d=1,
                                flux_jac=per_state(lambda w: A[None]),
                                relax_jac=per_state(lambda w: B),
                                relax=per_state(lambda w: B @ w),
                                name="skewed")
    r = model.check_kawashima(skewed, np.zeros(3))
    assert len(r.failures) == 2 and r.worst_norm <= model.COUPLING_TOL


def test_chf_and_kawashima_scan_half_the_plane_in_two_dimensions():
    # for d = 2 the scans run over a half circle of directions, which
    # suffices since T(w, -eta) = -T(w, eta): a full-circle scan of the same
    # radii gives the same theta and the same smallest coupling norm
    sys = systems.jin_xin_2d(2.0)
    w0 = np.zeros(3)
    dirs = model.sphere_loop(2, 4)
    assert np.allclose(dirs, [[1, 0], [0.5 ** 0.5] * 2, [0, 1],
                              [-0.5 ** 0.5, 0.5 ** 0.5]])
    chf = model.check_chf(sys, w0, eta_min=10.0, theta_req=0.4)
    kaw = model.check_kawashima(sys, w0)
    assert chf.passed and kaw.passed and abs(chf.theta - 0.5) < 1e-9

    A, E = sys.flux_jacs(w0), -sys.relax_jacobian(w0)
    radii = np.geomspace(10.0, model.CHF_ETA_MAX_FACTOR * 10.0,
                         model.CHF_N_RADII)
    worst, coupling = -np.inf, np.inf
    for phi in np.linspace(0.0, 2.0 * np.pi, 2 * model.CHF_N_DIRECTIONS,
                           endpoint=False):
        T = np.cos(phi) * A[0] + np.sin(phi) * A[1]
        for r in radii:
            worst = max(worst, np.max(np.linalg.eigvals(-1j * r * T - E).real))
        # the three eigenvalues 0, a, -a are simple
        _, V = np.linalg.eig(T)
        coupling = min(coupling, np.min(np.linalg.norm(E @ V, axis=0)
                                        / np.linalg.norm(V, axis=0)))
    assert chf.theta == pytest.approx(-worst, abs=1e-12)
    assert kaw.worst_norm == pytest.approx(coupling, abs=1e-12)


def test_kawashima_implies_chf_on_corpus():
    # one-directional implication, asserted empirically on the corpus
    corpus = [
        (systems.jin_xin(2.0), [0.0, 0.0]),
        (systems.jin_xin(2.0), [1.0, 0.5]),
        (systems.jin_xin(1.5), [0.5, 0.125]),
        (systems.saint_venant(1.5), [1.0, 1.0]),
        (systems.partially_damped(2.0, 1.0), [0.0, 0.0, 0.0]),
    ]
    for sys, w0 in corpus:
        k = model.check_kawashima(sys, w0)
        if k.passed:
            c = model.check_chf(sys, w0, eta_min=10.0, theta_req=1e-3)
            assert c.passed, sys.name


def test_saint_venant_high_froude_chf_fails_despite_coupling():
    # genuine coupling alone does not force high-frequency damping; the
    # corpus above is restricted to systems where the implication holds
    sv = systems.saint_venant(3.0)
    assert model.check_kawashima(sv, [1.0, 1.0]).passed
    assert not model.check_chf(sv, [1.0, 1.0], eta_min=10.0,
                               theta_req=1e-3).passed


# ----------------------------------------------------------- aggregation ----

def test_run_hypotheses_front(jx, front):
    # the worst endstate is u=1 where f'=1: asymptotic rate (1 - 1/2)/2 = 1/4
    rep = model.run_hypotheses(jx, front, eta_min=10.0, theta_req=0.2)
    assert rep.a1_pass and rep.a2_pass and rep.a3_pass
    assert rep.chf_pass and rep.kawashima_pass
    assert rep.passed
    assert 0.2 < rep.chf_theta <= 0.25 + 1e-9


def test_readme_custom_system_runs_hypotheses(jx, front, monkeypatch):
    # the README's custom-system example as written there: relax alone
    # decides which states are equilibria
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = next(block for block in re.findall(r"```python\n(.*?)```",
                                                 readme, re.S)
                   if "register_system(" in block)
    assert "equilibria" not in example
    monkeypatch.setattr(systems, "SYSTEM_REGISTRY",
                        dict(systems.SYSTEM_REGISTRY))
    exec(example, {})
    custom = systems.make_system("my_system", {"a": 2.0})
    rep = model.run_hypotheses(custom, front, eta_min=10.0, theta_req=0.2)
    assert rep.passed and rep.kawashima_pass
    assert rep == model.run_hypotheses(jx, front, eta_min=10.0,
                                       theta_req=0.2)


def test_reports_are_deterministic(jx, front):
    r1 = model.run_hypotheses(jx, front, eta_min=10.0, theta_req=0.2)
    r2 = model.run_hypotheses(jx, front, eta_min=10.0, theta_req=0.2)
    assert r1 == r2


def test_zero_order_coefficient_constant_limit(jx, front):
    ends = np.array(front.endstates)
    limits = model.zero_order_matrix(jx, ends, np.zeros_like(ends))
    expect = -jx.relax_jacobian(front.endstates[1])
    assert np.allclose(limits[1], expect, atol=1e-14)
    # flux is linear, so the gradient summand vanishes identically
    mid = model.zero_order_matrix(jx, *front.sample(0.0))
    u0 = front.sample(0.0)[0][0]
    assert np.allclose(mid, np.array([[0.0, 0.0], [-u0, 1.0]]), atol=1e-14)
    # a stack of states gives each state's coefficient
    E = model.zero_order_matrix(jx, *front.sample_many(np.linspace(-5, 5, 11)))
    assert np.allclose(E[5], mid, atol=1e-14)
