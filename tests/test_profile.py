import numpy as np
import pytest

from relaxstab import profile as prof
from relaxstab import systems
from relaxstab.errors import CompatibilityError, ConvergenceError, ModelError

from conftest import logistic_u


def test_closed_form_matches_logistic(front):
    # oracle: u(x) = 1/(1 + exp(x/7.5)) for a=2, u-=1, u+=0
    u = 1.0 / (1.0 + np.exp(front.grid / 7.5))
    assert np.max(np.abs(front.values[:, 0] - u)) < 1e-14
    assert np.max(np.abs(front.values[:, 1] - 0.5 * u)) < 1e-14
    assert front.speed == pytest.approx(0.5)
    assert front.decay_rate == pytest.approx(2.0 / 15.0)


def test_midpoint_normalization(front):
    w0, _ = front.sample(0.0)
    assert w0[0] == pytest.approx(0.5, abs=1e-14)


def test_endstates_are_equilibria(jx, front):
    for w in front.endstates:
        assert np.linalg.norm(jx.relax(w)) <= 1e-10


def test_profile_ode_residual(jx, front):
    # (A_1 - s I) w' - r(w) at every node
    eye = np.eye(2)
    worst = 0.0
    for w, wp in zip(front.values, front.derivs):
        res = (jx.flux_jacs(w)[0] - front.speed * eye) @ wp - jx.relax(w)
        worst = max(worst, np.max(np.abs(res)))
    assert worst <= 1e-6


def test_derivs_consistent_with_values(front):
    h = front.grid[1] - front.grid[0]
    fd = (front.values[2:] - front.values[:-2]) / (2.0 * h)
    assert np.max(np.abs(fd - front.derivs[1:-1])) < 5.0 * h ** 2


def test_constant_profile():
    p = prof.solve_profile_jinxin(2.0, 0.7, 0.7, L=10.0, n_points=21)
    assert np.all(p.values == p.values[0])
    assert p.decay_rate == 0.0
    w0 = np.array([0.7, 0.5 * 0.7 ** 2])
    assert np.allclose(p.values[0], w0)


def test_non_subcharacteristic_rejected():
    with pytest.raises(ModelError, match="subcharacteristic"):
        prof.solve_profile_jinxin(0.8, 1.0, 0.0)
    with pytest.raises(ModelError, match="rarefaction"):
        prof.solve_profile_jinxin(2.0, 0.0, 1.0)


def test_shooting_matches_closed_form(jx):
    p = prof.solve_profile_shooting(jx, [1.0, 0.5], [0.0, 0.0], 0.5, L=40.0)
    u = logistic_u(p.grid)
    assert np.max(np.abs(p.values[:, 0] - u)) <= 1e-8
    assert np.max(np.abs(p.values[:, 1] - 0.5 * u)) <= 1e-8


def test_shooting_constant_profile(jx):
    p = prof.solve_profile_shooting(jx, [0.5, 0.125], [0.5, 0.125], 0.3,
                                    L=10.0, n_points=41)
    assert np.all(p.values == p.values[0])


def test_shooting_wrong_speed_no_connection(jx):
    # s = 0.3 violates the jump condition; the trajectory on the invariant
    # line converges to the other root of the scalar reduction
    with pytest.raises(ConvergenceError):
        prof.solve_profile_shooting(jx, [1.0, 0.5], [0.0, 0.0], 0.3, L=40.0)


def test_shooting_rejects_non_equilibrium_endstate(jx):
    with pytest.raises(ModelError, match="equilibrium"):
        prof.solve_profile_shooting(jx, [1.0, 0.0], [0.0, 0.0], 0.5, L=40.0)


def test_sample_reproduces_nodes(front):
    for i in (0, len(front.grid) // 2, len(front.grid) - 1):
        w, _ = front.sample(front.grid[i])
        assert np.allclose(w, front.values[i], atol=1e-12)


def test_sample_clamps_beyond_domain(front):
    w, wp = front.sample(front.length + 5.0)
    assert np.allclose(w, front.endstates[1], atol=front.tol_end)
    assert np.all(wp == 0.0)
    w, wp = front.sample(-front.length - 5.0)
    assert np.allclose(w, front.endstates[0], atol=front.tol_end)


def test_sample_rejects_nonfinite(front):
    with pytest.raises(ValueError):
        front.sample(np.nan)
    assert front.sample(1.0)[0][0] == pytest.approx(
        logistic_u(1.0), abs=1e-7)


def test_interpolation_order():
    # halving the node spacing shrinks the mid-cell error by >= ~8x (cubic)
    errs = []
    for n in (201, 401):
        p = prof.solve_profile_jinxin(2.0, 1.0, 0.0, L=40.0, n_points=n)
        xs = 0.5 * (p.grid[:-1] + p.grid[1:])
        w, _ = p.sample_many(xs)
        errs.append(np.max(np.abs(w[:, 0] - logistic_u(xs))))
    assert errs[1] < errs[0] / 6.0


def test_translation_invariance(jx):
    base = prof.solve_profile_shooting(jx, [1.0, 0.5], [0.0, 0.0], 0.5, L=40.0)
    shifted = prof.solve_profile_shooting(jx, [1.0, 0.5], [0.0, 0.0], 0.5,
                                          L=40.0, anchor_value=0.4)
    assert shifted.speed == base.speed
    assert np.allclose(shifted.endstates[0], base.endstates[0])
    assert abs(shifted.decay_rate - base.decay_rate) < 1e-3
    # re-align: u = 0.4 sits at x = 7.5 log(0.6/0.4) for the closed form
    delta = 7.5 * np.log(0.6 / 0.4)
    xs = np.linspace(-20.0, 20.0, 101)
    wa = np.array([shifted.sample(x - delta)[0] for x in xs])
    wb = np.array([base.sample(x)[0] for x in xs])
    assert np.max(np.abs(wa - wb)) < 1e-8


def test_csv_json_round_trip(front, tmp_path):
    csv_path = tmp_path / "wave.csv"
    prof.save_profile(front, csv_path)
    back = prof.load_profile(csv_path)
    assert np.array_equal(back.grid, front.grid)
    assert np.array_equal(back.values, front.values)
    assert np.array_equal(back.derivs, front.derivs)
    assert back.speed == front.speed
    assert back.decay_rate == front.decay_rate


def test_load_rejects_version_mismatch(front, tmp_path):
    import json
    csv_path = tmp_path / "wave.csv"
    side = prof.save_profile(front, csv_path)
    data = json.load(open(side))
    data["schema_version"] = 99
    json.dump(data, open(side, "w"))
    with pytest.raises(CompatibilityError):
        prof.load_profile(csv_path)
