from dataclasses import replace

import numpy as np
import pytest

from relaxstab import dichotomy as dich
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import systems
from relaxstab.errors import (CenterSpectrumError, CertificateError,
                              TurningPointSuspectedError)

from conftest import transport_system


# ------------------------------------------------------------ limit split ----

def test_split_diagonal():
    sp = dich.limit_spectral_split(np.diag([-1.0, 2.0]))
    assert sp.gap == pytest.approx(1.0)
    assert np.allclose(np.abs(sp.stable[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(sp.unstable[:, 0]), [0.0, 1.0])


def test_split_jinxin_endstate(front_field):
    # ranks (1,1) at lambda = 2 with strictly off-axis spectrum
    for G_inf in front_field.limits:
        sp = dich.limit_spectral_split(G_inf)
        assert sp.stable.shape[1] == 1 and sp.unstable.shape[1] == 1
        assert sp.gap > 0.9


def test_split_center_spectrum_raises():
    with pytest.raises(CenterSpectrumError):
        dich.limit_spectral_split(np.array([[0.0, 1.0], [-1.0, 0.0]]))


# ----------------------------------------------------------- propagation ----

def test_constant_field_projectors_are_spectral():
    G = np.array([[-1.0, 0.4], [0.0, 2.0]])
    geom = res.CollocationGrid(n_nodes=49, length=10.0)
    field = res.constant_field(G, geom)
    data = dich.propagate_subspaces(field, fit_pairs=8)
    mu, V = np.linalg.eig(G)
    W = np.linalg.inv(V)
    P_spec = np.real(V[:, [0]] @ W[[0], :]) if mu[0].real < 0 else \
        np.real(V[:, [1]] @ W[[1], :])
    for i in range(0, geom.n_nodes, 12):
        assert np.max(np.abs(data.P_plus[i] - P_spec)) < 1e-8


def test_projector_algebra(front_dichotomy):
    data = front_dichotomy
    eye = np.eye(2)
    for i in range(0, len(data.grid), 20):
        Pp, Pm = data.P_plus[i], data.P_minus[i]
        assert np.max(np.abs(Pp @ Pp - Pp)) < 1e-10
        assert np.max(np.abs(Pp @ Pm)) < 1e-10
        assert np.max(np.abs(Pp + Pm - eye)) < 1e-12


def test_rank_constant(front_dichotomy):
    for i in range(0, len(front_dichotomy.grid), 20):
        rank = int(round(np.real(np.trace(front_dichotomy.P_plus[i]))))
        assert rank == front_dichotomy.ranks[0]


def test_verify_dichotomy_front(front_field, front_dichotomy):
    chk = dich.verify_dichotomy(front_dichotomy, front_field,
                                sample_pairs=20, tol=1e-6, seed=11)
    assert chk.passed
    assert chk.worst_commute < 1e-6


def test_fitted_decay_near_endstate_rates(front_field, front_dichotomy):
    gap = min(dich.limit_spectral_split(G).gap for G in front_field.limits)
    theta = front_dichotomy.constants["theta"]
    assert abs(theta - gap) <= 0.25 * gap


def test_swapped_projectors_fail_decay(front_field, front_dichotomy):
    swapped = dich.DichotomyData(
        grid=front_dichotomy.grid, P_plus=front_dichotomy.P_minus,
        P_minus=front_dichotomy.P_plus, frame=front_dichotomy.frame,
        lambda_plus=front_dichotomy.lambda_plus,
        lambda_minus=front_dichotomy.lambda_minus,
        constants=front_dichotomy.constants, ranks=front_dichotomy.ranks,
        field=front_dichotomy.field)
    chk = dich.verify_dichotomy(swapped, front_field, sample_pairs=6, seed=2)
    assert not chk.passed
    assert chk.worst_decay > 0  # wrong-direction growth breaks the bound


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pairs", [0, 1])
def test_decay_fit_needs_two_separations(front_field, front_dichotomy, pairs):
    with pytest.raises(CertificateError, match="2 distinct separations"):
        dich._fit_decay(front_dichotomy, front_field, n_pairs=pairs)


def _windowed_reference(field, data, iy, ix, project=None):
    """Chained propagator integrating each whole window (no cache)."""
    grid = data.grid
    rate = max(data.constants.get("theta", 1.0), 1e-3)
    max_width = max(2.0 / rate, (grid[-1] - grid[0]) / 64.0)
    edges = dich._window_edges(grid, iy, ix, max_width)
    M = np.eye(field.n, dtype=complex)
    if project is not None:
        M = project[edges[0]].copy()
    lognorm = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        M = dich._propagate_window(field, grid[a], grid[b], M)
        if project is not None:
            M = project[b] @ M
        nrm = np.linalg.norm(M, 2)
        M /= nrm
        lognorm += float(np.log(nrm))
    return M, lognorm


@pytest.mark.parametrize("iy, ix", [(30, 130), (130, 30)])
@pytest.mark.parametrize("projected", [False, True])
def test_cached_propagator_matches_windowed_integration(
        front_field, front_dichotomy, iy, ix, projected):
    data = front_dichotomy
    project = None
    if projected:
        project = data.P_plus if iy < ix else data.P_minus
    M, lognorm = dich._chained_propagator(front_field, data, iy, ix,
                                          project=project)
    M_ref, lognorm_ref = _windowed_reference(front_field, data, iy, ix,
                                             project=project)
    assert abs(lognorm - lognorm_ref) <= 1e-8
    assert np.max(np.abs(M - M_ref)) <= 1e-8


def test_propagator_cache_integrates_each_interval_once(jx, front,
                                                         monkeypatch):
    calls = []
    solve_ivp = dich.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dich, "solve_ivp", counting_solve_ivp)
    geom = res.CollocationGrid(n_nodes=43, length=20.0)
    field = res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), 2.0),
                           geom=geom)
    data = dich.propagate_subspaces(field, fit_pairs=8)
    assert dich.verify_dichotomy(data, field, sample_pairs=8).passed
    # m - 1 intervals plus the two frames
    assert len(calls) <= geom.n_nodes + 1
    # a fresh DichotomyData on the same field reuses the field's cache
    before = len(calls)
    dich.verify_dichotomy(replace(data), field, sample_pairs=8, seed=3)
    assert len(calls) == before


def test_engineered_subspace_collision_raises():
    # frame with angle dipping to ~1e-9 at x = 0; Lambda = diag(-1, 1)
    eps = 1e-9

    def T_of(x):
        th = np.pi / 2 - eps - min(x * x, np.pi / 2 - 2 * eps)
        return np.array([[1.0, np.sin(th)], [0.0, np.cos(th)]])

    def Tp_of(x):
        h = 1e-6
        return (T_of(x + h) - T_of(x - h)) / (2 * h)

    Lam = np.diag([-1.0, 1.0])
    geom = res.CollocationGrid(n_nodes=49, length=5.0)
    field = res.constant_field(np.zeros((2, 2)), geom)

    def G_at(x):
        if np.ndim(x):
            return np.stack([G_at(float(xx)) for xx in np.atleast_1d(x)])
        T = T_of(float(x))
        return (Tp_of(float(x)) + T @ Lam) @ np.linalg.inv(T)

    field.G_at = G_at
    field.G_nodes = np.stack([G_at(float(x)) for x in geom.x])
    field.limits = (G_at(-geom.length), G_at(geom.length))
    with pytest.raises(TurningPointSuspectedError):
        dich.propagate_subspaces(field, fit_pairs=4, angle_tol=1e-6)


# ------------------------------------------------------- block diagonals ----

def test_block_diagonalize_constant_eigenframe():
    G = np.array([[-2.0, 1.0], [0.0, 1.5]])
    geom = res.CollocationGrid(n_nodes=49, length=10.0)
    field = res.constant_field(G, geom)
    mu, V = np.linalg.eig(G)
    order = np.argsort(mu.real)
    frame = np.broadcast_to(V[:, order], (49, 2, 2)).astype(complex)
    lam_p, lam_m, residual = dich.block_diagonalize(field, frame.copy(),
                                                    ranks=(1, 1), geom=geom)
    assert residual < 1e-10
    assert lam_p[0, 0, 0] == pytest.approx(mu[order][0], abs=1e-10)
    assert lam_m[0, 0, 0] == pytest.approx(mu[order][1], abs=1e-10)


def test_block_diagonalize_identity_frame():
    G = np.diag([-1.0, 3.0])
    geom = res.CollocationGrid(n_nodes=33, length=5.0)
    field = res.constant_field(G, geom)
    frame = np.broadcast_to(np.eye(2), (33, 2, 2)).astype(complex)
    lam_p, lam_m, residual = dich.block_diagonalize(field, frame.copy(),
                                                    ranks=(1, 1), geom=geom)
    assert residual < 1e-12
    assert lam_p[5, 0, 0] == pytest.approx(-1.0)
    assert lam_m[5, 0, 0] == pytest.approx(3.0)


def test_front_block_residual_small_and_refines(jx, front):
    residuals = []
    for n_nodes in (81, 161):
        geom = res.CollocationGrid(n_nodes=n_nodes, length=50.0)
        field = res.assemble_G(jx, front,
                               res.FrequencyPoint(np.zeros(0), 2.0 + 0j),
                               geom=geom)
        data = dich.propagate_subspaces(field, fit_pairs=6)
        residuals.append(data.block_residual)
    assert residuals[-1] <= 1e-6
    assert residuals[1] <= residuals[0]


# ---------------------------------------------------------- turning points ----

def test_airy_model_single_turning_point():
    airy = lambda x: np.array([[0.0, 1.0], [x, 0.0]])
    x_grid = np.linspace(-2.0, 2.0, 81)
    rep = dich.coalescence_scan(airy, x_grid)
    assert len(rep.locations) == 1
    assert abs(rep.locations[0]) <= x_grid[1] - x_grid[0]
    gap, cond = rep.severity[0]
    assert gap < 1e-4 and cond > 1e4


def test_constant_hyperbolic_field_no_turning_points():
    const = lambda x: np.diag([1.0, -1.0])
    rep = dich.coalescence_scan(const, np.linspace(-2, 2, 81))
    assert rep.locations == ()


def test_detect_turning_points_variable_symbol():
    # A2(w) = [[0, 1], [u, 0]]: the transverse symbol degenerates where the
    # profile component u crosses zero (square-root branch collision)
    def flux_jac(w):
        return np.stack([np.eye(2), np.array([[0.0, 1.0], [w[0], 0.0]])])

    sys = systems.SystemSpec(
        n=2, d=2, flux_jac=flux_jac,
        relax_jac=lambda w: np.zeros((2, 2)),
        equilibria=lambda w: True, relax=lambda w: np.zeros(2),
        name="synthetic")
    grid = np.linspace(-10.0, 10.0, 201)
    u = np.tanh(grid - 1.2345)
    p = prof.WaveProfile(grid=grid, values=np.column_stack([u, 0 * u]),
                         derivs=np.column_stack([1 - u ** 2, 0 * u]),
                         speed=0.0, endstates=(np.array([-1.0, 0.0]),
                                               np.array([1.0, 0.0])),
                         decay_rate=2.0, tol_end=1e-8)
    rep = dich.detect_turning_points(sys, p, ray=[1.0, 0.3],
                                     x_grid=np.linspace(-8, 8, 161))
    assert len(rep.locations) == 1
    assert abs(rep.locations[0] - 1.2345) < 0.1

    # constant-Jacobian systems have x-independent principal symbols: empty
    jx = systems.jin_xin(2.0)
    pjx = prof.solve_profile_jinxin(2.0, 1.0, 0.0)
    rep2 = dich.detect_turning_points(jx, pjx, ray=[1.0],
                                      x_grid=np.linspace(-20, 20, 81))
    assert rep2.locations == ()


def test_detect_turning_points_validates_ray(jx, front):
    with pytest.raises(ValueError):
        dich.detect_turning_points(jx, front, ray=[1.0, 2.0],
                                   x_grid=np.linspace(-1, 1, 11))
    with pytest.raises(ValueError):
        dich.detect_turning_points(jx, front, ray=[0.0],
                                   x_grid=np.linspace(-1, 1, 11))
