"""The stacked coefficient path against per-state reference loops.

``SystemSpec.flux_jacs``/``relax_jacobian``, ``zero_order_matrix`` and the
resolvent field assembly evaluate whole stacks of states; the loops kept
here evaluate one state at a time straight from the user's evaluators and
must agree bit for bit.
"""

import numpy as np
import pytest

from relaxstab import model
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import systems
from relaxstab.errors import EvaluationError, ModelError


def _zero_order_loop(sys, w, wp, h_rel=6e-6):
    """One state: ``-dr/dw`` plus the central-difference flux Hessian."""
    E = -np.asarray(sys.relax_jac(w), dtype=float)
    if np.any(wp != 0.0):
        h = h_rel * (1.0 + np.abs(w))
        H = np.zeros((sys.n, sys.n))
        for k in range(sys.n):
            dw = np.zeros(sys.n)
            dw[k] = h[k]
            Ap = np.asarray(sys.flux_jac(w + dw), dtype=float)[0]
            Am = np.asarray(sys.flux_jac(w - dw), dtype=float)[0]
            H[:, k] = ((Ap - Am) / (2.0 * dw[k])) @ wp
        E = E + H
    return E


def _G_node(sys, speed, fp, w, wp, w_eff, dE=None):
    """``G`` and ``A_1^{-1}`` at one node straight from the evaluators."""
    eye = np.eye(sys.n)
    A = np.asarray(sys.flux_jac(w_eff), dtype=float)
    A1 = A[0] - speed * eye
    E = _zero_order_loop(sys, w, wp)
    if dE is not None:
        E = E + dE
    core = fp.lam * eye.astype(complex) + E
    for j, etaj in enumerate(fp.eta):
        core = core + 1j * etaj * A[j + 1]
    A1inv = np.linalg.inv(A1)
    return -A1inv @ core, A1inv


def _G_loop(sys, profile, fp, xs, perturbation, deriv_order):
    """:func:`_G_node` node by node along the wave."""
    wbar, wbar_p = profile.sample_many(xs)
    w_eff = wbar + (perturbation(xs) if perturbation is not None else 0.0)
    out = []
    for i, x in enumerate(xs):
        dE = None
        if deriv_order > 0:
            h = 1e-6 * max(1.0, profile.length)
            wplus = profile.sample(min(x + h, profile.length))[0]
            wminus = profile.sample(max(x - h, -profile.length))[0]
            Ap = np.asarray(sys.flux_jac(wplus), dtype=float)[0]
            Am = np.asarray(sys.flux_jac(wminus), dtype=float)[0]
            dE = deriv_order * ((Ap - Am) / (2 * h))
        out.append(_G_node(sys, profile.speed, fp, wbar[i], wbar_p[i],
                           w_eff[i], dE))
    return np.array([g for g, _ in out]), np.array([a for _, a in out])


def _states(name, rng):
    """A (2, 3, n) stack of admissible states of a built-in system."""
    n = systems.make_system(name).n
    w = rng.uniform(0.5, 1.5, size=(2, 3, n))
    if name == "saint_venant":
        w[..., 0] = rng.uniform(0.8, 1.4, size=(2, 3))
    return w


@pytest.mark.parametrize("name", sorted(systems.SYSTEM_REGISTRY))
def test_stacked_evaluators_match_per_state(name):
    sys = systems.make_system(name)
    rng = np.random.default_rng(5)
    w = _states(name, rng)
    wp = rng.standard_normal(w.shape)
    wp[0, 1] = 0.0
    wp[1, 2] = 0.0
    A = sys.flux_jacs(w)
    B = sys.relax_jacobian(w)
    E = model.zero_order_matrix(sys, w, wp)
    assert A.shape == (2, 3, sys.d, sys.n, sys.n)
    assert B.shape == E.shape == (2, 3, sys.n, sys.n)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(A[idx], np.asarray(sys.flux_jac(w[idx])))
        assert np.array_equal(A[idx], sys.flux_jacs(w[idx]))
        assert np.array_equal(B[idx], np.asarray(sys.relax_jac(w[idx])))
        ref = _zero_order_loop(sys, w[idx], wp[idx])
        assert np.array_equal(E[idx], ref)
        # signed zeros included: nodes with w' = 0 keep -dr/dw exactly
        assert np.array_equal(np.signbit(E[idx]), np.signbit(ref))
        assert np.array_equal(E[idx], model.zero_order_matrix(sys, w[idx],
                                                              wp[idx]))
    if name == "saint_venant":
        # the flux Hessian is active away from the w' = 0 nodes
        assert not np.array_equal(E[0, 0], -B[0, 0])
        assert np.array_equal(E[0, 1], -B[0, 1])


def _admissible(sys, lead, rng):
    """States of a built-in system over the stack shape ``lead``."""
    w = rng.uniform(0.5, 1.5, size=lead + (sys.n,))
    if sys.name == "saint_venant":
        w[..., 0] = rng.uniform(0.8, 1.4, size=lead)
    return w


@pytest.mark.parametrize("lead", [(), (7,), (3, 4)], ids=["one", "7", "3x4"])
@pytest.mark.parametrize("name", sorted(systems.SYSTEM_REGISTRY))
def test_builtin_evaluators_take_stacks(name, lead):
    # one call on a stack equals the one-state calls bit for bit, and the
    # validated methods return the evaluator's values unchanged
    sys = systems.make_system(name)
    w = _admissible(sys, lead, np.random.default_rng(8))
    cases = ((sys.flux_jac, sys.flux_jacs, (sys.d, sys.n, sys.n)),
             (sys.relax_jac, sys.relax_jacobian, (sys.n, sys.n)),
             (sys.relax, sys.relaxation, (sys.n,)))
    for evaluator, validated, shape in cases:
        stacked = np.asarray(evaluator(w))
        assert stacked.shape == lead + shape
        for idx in np.ndindex(*lead):
            assert np.array_equal(stacked[idx], evaluator(w[idx]))
        assert np.array_equal(validated(w), stacked)


def test_saint_venant_rejects_a_dry_state_inside_a_stack():
    sv = systems.saint_venant(1.5)
    w = np.ones((3, 4, 2))
    sv.flux_jacs(w)
    w[1, 2, 0] = 0.0
    with pytest.raises(ModelError, match="h > 0"):
        sv.flux_jacs(w)
    with pytest.raises(ModelError, match="h > 0"):
        sv.flux_jacs(w[1, 2])


def test_per_state_wrong_shape_is_evaluation_error():
    A = np.array([[[0.0, 1.0], [4.0, 0.0]]])
    w = np.array([[0.1, 0.0], [0.5, 0.0], [0.7, 0.0]])
    # one state of the stack returns another shape
    sys = _system(lambda w: _bad_at(w, A, A[0]), lambda w: np.zeros((2, 2)))
    with pytest.raises(EvaluationError, match="shapes"):
        sys.flux_jacs(w)
    # every state returns the same wrong shape
    sys = _system(lambda w: A[0], lambda w: np.zeros((2, 2)))
    with pytest.raises(EvaluationError, match=r"expected \(3, 1, 2, 2\)"):
        sys.flux_jacs(w)
    # a one-state evaluator without the wrapper fails on a stack
    bare = model.SystemSpec(n=2, d=1, flux_jac=lambda w: A,
                            relax_jac=lambda w: np.zeros((2, 2)),
                            relax=lambda w: np.zeros(2))
    assert np.array_equal(bare.flux_jacs(w[0]), A)
    with pytest.raises(EvaluationError, match="flux_jac returned shape"):
        bare.flux_jacs(w)


def _front_3d():
    """The Jin-Xin front with a third component, as a jin_xin_2d profile."""
    base = prof.solve_profile_jinxin(2.0, 1.0, 0.0, n_points=801)
    values = np.column_stack([base.values, base.values[:, 1]])
    derivs = np.column_stack([base.derivs, base.derivs[:, 1]])
    ends = tuple(np.append(e, e[1]) for e in base.endstates)
    return prof.WaveProfile(grid=base.grid, values=values, derivs=derivs,
                            speed=base.speed, endstates=ends,
                            decay_rate=base.decay_rate, tol_end=base.tol_end)


def _saint_venant_front():
    sv = systems.saint_venant(1.5)
    h1 = 1.2
    s = (h1 ** 1.5 - 1.0) / (h1 - 1.0)
    p = prof.solve_profile_shooting(sv, np.array([h1, h1 ** 1.5]),
                                    np.array([1.0, 1.0]), s, L=30.0,
                                    n_points=801)
    return sv, p


@pytest.mark.parametrize("case", ["jin_xin_2d", "saint_venant"])
def test_eval_G_matches_per_node_loop(case):
    if case == "jin_xin_2d":
        sys, p = systems.jin_xin_2d(2.0), _front_3d()
        fp = res.FrequencyPoint(np.array([0.7]), 0.5 + 3.0j)
        v = res.bump_perturbation(np.array([1.0, 0.2, -0.3]), 0.05)
        deriv_order = 0
    else:
        sys, p = _saint_venant_front()
        fp = res.FrequencyPoint(np.zeros(0), 1.0 + 2.0j)
        v = res.bump_perturbation(np.array([1.0, 0.0]), 0.05, width=5.0)
        deriv_order = 1
    geom = res.CollocationGrid(n_nodes=65, length=25.0)
    # beyond +-L the profile is clamped to its endstates (w' = 0)
    xs = np.concatenate([geom.x, [-40.0, 40.0]])
    coeffs = res._coefficients_at(sys, p, xs, v, deriv_order)
    G = res._G_product(fp, coeffs)
    G_ref, A1inv_ref = _G_loop(sys, p, fp, xs, v, deriv_order)
    assert np.array_equal(G, G_ref)
    assert np.array_equal(coeffs.A1inv, A1inv_ref)

    field = res.assemble_G(sys, p, fp, v=v, geom=geom,
                           deriv_order=deriv_order)
    assert np.array_equal(field.G_nodes, G[:-2])
    for w, G_inf in zip(p.endstates, field.limits):
        ref = _G_node(sys, p.speed, fp, w, np.zeros(sys.n), w + 0.0)[0]
        assert np.array_equal(G_inf, ref)


def _system(flux_jac, relax_jac):
    """A system from one-state evaluators."""
    return model.SystemSpec(n=2, d=1, flux_jac=model.per_state(flux_jac),
                            relax_jac=model.per_state(relax_jac),
                            relax=model.per_state(lambda w: np.zeros(2)))


def _bad_at(w, good, bad):
    return bad if w[0] == 0.5 else good


@pytest.mark.parametrize("bad_flux, bad_relax", [
    (np.zeros((2, 2)), None),                        # wrong shape
    (np.zeros((2, 2, 2)), None),                     # wrong d
    (np.array([[[0.0, np.inf], [1.0, 0.0]]]), None),
    (None, np.zeros((2, 3))),
    (None, np.array([[np.nan, 0.0], [0.0, 0.0]])),
])
def test_bad_evaluator_at_one_state_of_a_stack(bad_flux, bad_relax):
    A = np.array([[[0.0, 1.0], [4.0, 0.0]]])
    B = np.array([[0.0, 0.0], [0.0, -1.0]])
    sys = _system(
        lambda w: A if bad_flux is None else _bad_at(w, A, bad_flux),
        lambda w: B if bad_relax is None else _bad_at(w, B, bad_relax))
    w = np.array([[0.1, 0.0], [0.3, 0.0], [0.5, 0.0], [0.7, 0.0]])
    # the good states alone are fine, stacked or not
    sys.flux_jacs(w[:2])
    sys.relax_jacobian(w[1])
    call = sys.flux_jacs if bad_flux is not None else sys.relax_jacobian
    with pytest.raises(EvaluationError):
        call(w)
    with pytest.raises(EvaluationError):
        call(w[2])


def test_nonfinite_flux_names_the_component():
    A = np.array([[[0.0, 1.0], [4.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
    bad = A.copy()
    bad[1, 0, 0] = np.nan
    sys = model.SystemSpec(
        n=2, d=2, flux_jac=model.per_state(lambda w: _bad_at(w, A, bad)),
        relax_jac=model.per_state(lambda w: np.zeros((2, 2))),
        relax=model.per_state(lambda w: np.zeros(2)))
    with pytest.raises(EvaluationError, match="A_2"):
        sys.flux_jacs(np.array([[0.1, 0.0], [0.5, 0.0]]))


def test_assemble_singular_a1_names_first_node():
    # constant Jin-Xin state moving at s = a: A_1 - s*I is singular everywhere
    p = prof.solve_profile_jinxin(1.0, 1.0, 1.0, L=5.0, n_points=11)
    geom = res.CollocationGrid(n_nodes=17, length=5.0)
    fp = res.FrequencyPoint(np.zeros(0), 1.0 + 0j)
    with pytest.raises(ModelError, match=r"x = -5$"):
        res.assemble_G(systems.jin_xin(1.0), p, fp, geom=geom)


def test_registered_per_point_factory_round_trip(jx, front):
    def factory(a=2.0):
        a2 = a * a

        def flux_jac(w):
            assert w.shape == (2,)
            return np.array([[[0.0, 1.0], [a2, 0.0]]])

        def relax_jac(w):
            assert w.shape == (2,)
            return np.array([[0.0, 0.0], [w[0], -1.0]])

        return model.SystemSpec(
            n=2, d=1, flux_jac=model.per_state(flux_jac),
            relax_jac=model.per_state(relax_jac),
            relax=model.per_state(
                lambda w: np.array([0.0, 0.5 * w[0] ** 2 - w[1]])),
            name="per_point_jin_xin")

    systems.register_system("per_point_jin_xin", factory)
    try:
        sys = systems.make_system("per_point_jin_xin", {"a": 2.0})
        geom = res.CollocationGrid(n_nodes=33, length=20.0)
        fp = res.FrequencyPoint(np.zeros(0), 0.5 + 1.0j)
        field = res.assemble_G(sys, front, fp, geom=geom)
        ref = res.assemble_G(jx, front, fp, geom=geom)
        assert np.array_equal(field.G_nodes, ref.G_nodes)
        assert np.array_equal(field.A1inv_nodes, ref.A1inv_nodes)
        for got, want in zip(field.limits, ref.limits):
            assert np.array_equal(got, want)
    finally:
        systems.SYSTEM_REGISTRY.pop("per_point_jin_xin")
    assert "per_point_jin_xin" not in systems.SYSTEM_REGISTRY
