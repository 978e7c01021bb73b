import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

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


@pytest.mark.parametrize("grid, values", [
    (np.array([0.0]), np.zeros((1, 2))),                  # one node
    (np.arange(3.0), np.zeros((2, 2))),                   # rows != nodes
    (np.arange(3.0), np.array([[0.0, 1.0], [0.0, np.nan], [0.0, 0.0]])),
])
def test_profile_rejects_bad_arrays(grid, values):
    with pytest.raises(ValueError):
        prof.WaveProfile(grid=grid, values=values, derivs=values, speed=0.0,
                         endstates=(values[0], values[-1]), decay_rate=0.0,
                         tol_end=1e-8)


def test_interpolation_order():
    # halving the node spacing shrinks the mid-cell error by >= ~8x (cubic)
    errs = []
    for n in (201, 401):
        p = prof.solve_profile_jinxin(2.0, 1.0, 0.0, L=40.0, n_points=n)
        xs = 0.5 * (p.grid[:-1] + p.grid[1:])
        w, _ = p.sample_many(xs)
        errs.append(np.max(np.abs(w[:, 0] - logistic_u(xs))))
    assert errs[1] < errs[0] / 6.0


def _assert_matches_scipy_pchip(x, y, xs):
    # the package's PCHIP against scipy's, bit for bit: coefficients,
    # values and the sign of every zero
    ours, ref = prof._Pchip(x, y), PchipInterpolator(x, y)
    assert np.array_equal(np.stack(ours.c), ref.c)
    got, want = ours(xs), ref(xs)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pchip_matches_scipy_on_the_front():
    p = prof.solve_profile_jinxin(2.0, 1.0, 0.0, L=45.0, n_points=801)
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(-1.05 * p.length, 1.05 * p.length,
                                     20000),
                         p.grid, [-p.length, p.length]])
    for y in (p.values, p.derivs):
        _assert_matches_scipy_pchip(p.grid, y, xs)
    # through the profile: sample_many is the interpolant inside [-L, L]
    inside = xs[np.abs(xs) <= p.length]
    w, wp = p.sample_many(inside)
    assert np.array_equal(w, PchipInterpolator(p.grid, p.values)(inside))
    assert np.array_equal(wp, PchipInterpolator(p.grid, p.derivs)(inside))


def test_pchip_matches_scipy_on_rough_data():
    # integer levels give flat runs, repeated values and slope sign changes
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 7, 20):
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.1, 2.0, m)) - 3.0
            y = (rng.integers(-2, 3, (m, 4))
                 * rng.choice([1.0, 0.5, -0.0], (m, 4)))
            xs = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 300),
                                 x])
            _assert_matches_scipy_pchip(x, y, xs)


def test_pchip_end_slope_limiters_match_scipy():
    # column 0: the three-point end slope has the wrong sign and is set to 0;
    # column 1: the slope changes sign and the end slope is capped at 3*m0;
    # the reversed data hit the same two limiters at the right end
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([[0.0, 0.0], [1.0, 1.0], [6.0, -4.0], [6.5, -4.5]])
    p = prof._Pchip(x, y)
    assert p.c[2][0, 0] == 0.0
    assert p.c[2][0, 1] == 3.0
    _assert_matches_scipy_pchip(x, y, np.linspace(-1.0, 4.0, 101))
    _assert_matches_scipy_pchip(x, y[::-1], np.linspace(-1.0, 4.0, 101))


def test_pchip_zero_node_value_keeps_scipys_sign():
    # all four terms at the node x = 9 are -0.0; scipy's sum starts from
    # +0.0, so the value there is +0.0
    x = np.array([3.0, 5.0, 8.0, 9.0, 11.0])
    y = np.array([[4.0], [4.0], [1.0], [-0.0], [-3.0]])
    _assert_matches_scipy_pchip(x, y, x)
    assert not np.signbit(prof._Pchip(x, y)(x)[3, 0])


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
