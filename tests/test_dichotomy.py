from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm, polar

from relaxstab import dichotomy as dich
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import systems
from relaxstab.model import per_state
from relaxstab.errors import (CenterSpectrumError, CertificateError,
                              FrameConditioningError,
                              TurningPointSuspectedError, WindowOverflowError)

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


def test_bvp_and_dichotomy_share_ranks(front_field, front_dichotomy):
    assert front_field.bvp().ranks == front_dichotomy.ranks == (1, 1)
    geom = res.CollocationGrid(n_nodes=33, length=10.0)
    field = res.constant_field(np.diag([-1.0, 2.0, -3.0]), geom)
    data = dich.propagate_subspaces(field, fit_pairs=4)
    assert field.bvp().ranks == data.ranks == (2, 1)


def test_inconsistent_ranks_same_error_from_bvp_and_dichotomy():
    geom = res.CollocationGrid(n_nodes=33, length=10.0)
    field = res.constant_field(np.diag([-1.0, 2.0]), geom)
    # dim U(-inf) = 1 but dim S(+inf) = 2
    field.limits = (np.diag([-1.0, 2.0]), np.diag([-1.0, -2.0]))
    with pytest.raises(CenterSpectrumError) as from_bvp:
        field.bvp()
    with pytest.raises(CenterSpectrumError) as from_dichotomy:
        dich.propagate_subspaces(field, fit_pairs=4)
    assert str(from_bvp.value) == str(from_dichotomy.value)
    assert "inconsistent splitting" in str(from_bvp.value)


def test_dichotomy_on_singular_set_names_it():
    geom = res.CollocationGrid(n_nodes=33, length=10.0)
    field = res.constant_field(np.array([[0.0, 1.0], [-1.0, 0.0]]), geom)
    with pytest.raises(CenterSpectrumError, match="singular set"):
        dich.propagate_subspaces(field, fit_pairs=4)


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


def _dop853(field, x_from, x_to, M0, rtol=1e-11, atol=1e-13):
    """Reference propagation of ``M0``: DOP853 on the exact ``G``."""
    n = field.n
    sol = solve_ivp(lambda x, m: (field.G_at(x) @ m.reshape(n, -1)).ravel(),
                    (x_from, x_to), M0.astype(complex).ravel(),
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(M0.shape)


@pytest.fixture(scope="module")
def window_step(front_field):
    """Reference propagator over a window of nodes, integrated once each."""
    grid = front_field.geom.x
    cache = {}

    def step(a, b):
        if (a, b) not in cache:
            cache[a, b] = _dop853(front_field, grid[a], grid[b],
                                  np.eye(front_field.n))
        return cache[a, b]

    return step


def _window_edges(grid, iy, ix, max_width):
    """Node indices splitting ``[grid[iy], grid[ix]]`` into short windows."""
    lo, hi = (iy, ix) if iy <= ix else (ix, iy)
    edges = [lo]
    for i in range(lo + 1, hi + 1):
        if grid[i] - grid[edges[-1]] >= max_width or i == hi:
            edges.append(i)
    return edges if iy <= ix else edges[::-1]


def _windowed_reference(window_step, data, iy, ix, project=None):
    """Chained propagator over whole integrated windows of length about
    ``2/theta`` (no cache), projected at the window ends only."""
    grid = data.grid
    max_width = max(2.0 / data.constants["theta"], (grid[-1] - grid[0]) / 64.0)
    edges = _window_edges(grid, iy, ix, max_width)
    M = np.eye(data.frame.shape[1], dtype=complex)
    if project is not None:
        M = project[edges[0]].copy()
    lognorm = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        M = window_step(a, b) @ M
        if project is not None:
            M = project[b] @ M
        nrm = np.linalg.norm(M, 2)
        M /= nrm
        lognorm += float(np.log(nrm))
    return M, lognorm


def _one_pair(field, iy, ix, project):
    """``(M, log_norm)`` of the single pair ``iy -> ix``."""
    M, lognorm = dich._pair_propagators(field, np.array([iy]), np.array([ix]),
                                        project)
    return M[0], lognorm[0]


@pytest.mark.parametrize("iy, ix", [(30, 130), (130, 30)])
@pytest.mark.parametrize("projected", [False, True])
def test_cached_propagator_matches_windowed_integration(
        front_field, front_dichotomy, window_step, iy, ix, projected):
    data = front_dichotomy
    project = None
    if projected:
        project = data.P_plus if iy < ix else data.P_minus
    M, lognorm = _one_pair(front_field, iy, ix, project)
    M_ref, lognorm_ref = _windowed_reference(window_step, data, iy, ix,
                                             project=project)
    assert abs(lognorm - lognorm_ref) <= 1e-8
    assert np.max(np.abs(M - M_ref)) <= 1e-8


@pytest.mark.parametrize("iy, ix", [(30, 37), (37, 30)])
@pytest.mark.parametrize("projected", [False, True])
def test_short_chain_lognorm_is_log_of_plain_product(
        front_field, front_dichotomy, iy, ix, projected):
    data = front_dichotomy
    Phi, Phi_inv = dich._interval_propagators(front_field)
    project = None
    if projected:
        project = data.P_plus if iy < ix else data.P_minus
    forward = iy < ix
    ref = np.eye(front_field.n) if project is None else project[iy]
    for i in (range(iy, ix) if forward else range(iy - 1, ix - 1, -1)):
        # interval i joins node i to node i + 1
        ref = (Phi[i] if forward else Phi_inv[i]) @ ref
        if project is not None:
            ref = project[i + 1 if forward else i] @ ref
    M, lognorm = _one_pair(front_field, iy, ix, project)
    nrm = np.linalg.norm(ref, 2)
    assert abs(lognorm - np.log(nrm)) <= 1e-12
    assert np.max(np.abs(M - ref / nrm)) <= 1e-12


def test_nonfinite_cached_step_raises_overflow():
    geom = res.CollocationGrid(n_nodes=33, length=10.0)
    field = res.constant_field(np.diag([-1.0, 2.0]), geom)
    data = dich.propagate_subspaces(field, fit_pairs=4)
    Phi, Phi_inv = dich._interval_propagators(field)
    Phi = Phi.copy()
    Phi[12, 0, 0] = np.nan
    field._propagators = (Phi, Phi_inv)
    with pytest.raises(WindowOverflowError, match=f"{geom.x[13]:.3g}"):
        _one_pair(field, 5, 20, None)
    _one_pair(field, 20, 5, None)                   # backward steps intact
    with pytest.raises(WindowOverflowError):
        dich.verify_dichotomy(data, field, sample_pairs=50, seed=1)


def _pair_loop(field, starts, ends, project):
    """Reference for ``_pair_propagators``: one chain per pair, one cached
    step at a time, with the kernel's arithmetic."""
    Phi, Phi_inv = dich._interval_propagators(field)
    Ms, logs = [], []
    for iy, ix in zip(starts, ends):
        if iy <= ix:
            steps, nodes = Phi[iy:ix], range(iy + 1, ix + 1)
        else:
            steps, nodes = Phi_inv[ix:iy][::-1], range(iy - 1, ix - 1, -1)
        M = np.eye(field.n, dtype=complex) if project is None else project[iy]
        lognorm = 0.0
        for i, step in zip(nodes, steps):
            M = step @ M
            if project is not None:
                M = project[i] @ M
            scale = np.max(np.abs(M))
            M = M / scale
            lognorm += np.log(scale)
        nrm = np.linalg.norm(M, 2)
        Ms.append(M / nrm)
        logs.append(lognorm + np.log(nrm))
    return np.array(Ms), np.array(logs)


@pytest.fixture(scope="module")
def small_dichotomy():
    geom = res.CollocationGrid(n_nodes=33, length=10.0)
    field = res.constant_field(np.array([[-1.0, 0.3], [0.2, 2.0]]), geom)
    return field, dich.propagate_subspaces(field, fit_pairs=4)


@pytest.mark.parametrize("project", [None, "P_plus", "P_minus"])
def test_pair_kernel_equals_pair_loop(front_field, front_dichotomy, project):
    # forward and backward pairs, repeated start nodes, a zero-length pair
    starts = np.array([30, 30, 130, 5, 130, 77, 30, 60, 60, 12])
    ends = np.array([130, 37, 30, 140, 37, 77, 31, 2, 59, 141])
    P = None if project is None else getattr(front_dichotomy, project)
    M, lognorm = dich._pair_propagators(front_field, starts, ends, P)
    M_ref, lognorm_ref = _pair_loop(front_field, starts, ends, P)
    assert np.array_equal(M, M_ref)
    assert np.array_equal(lognorm, lognorm_ref)


@pytest.mark.parametrize("project", [None, "P_plus", "P_minus"])
def test_pair_kernel_equals_pair_loop_on_all_pairs(small_dichotomy, project):
    field, data = small_dichotomy
    starts, ends = np.indices((33, 33)).reshape(2, -1)
    P = None if project is None else getattr(data, project)
    M, lognorm = dich._pair_propagators(field, starts, ends, P)
    M_ref, lognorm_ref = _pair_loop(field, starts, ends, P)
    assert np.array_equal(M, M_ref)
    assert np.array_equal(lognorm, lognorm_ref)


def test_pair_kernel_without_pairs(small_dichotomy):
    field, data = small_dichotomy
    none = np.zeros(0, dtype=int)
    M, lognorm = dich._pair_propagators(field, none, none, data.P_plus)
    assert M.shape == (0, 2, 2) and lognorm.shape == (0,)


def test_propagator_cache_integrates_each_interval_once(jx, front):
    geom = res.CollocationGrid(n_nodes=43, length=20.0)
    field = res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), 2.0),
                           geom=geom)
    calls = []
    G_at = field.G_at

    def counting_G_at(x):
        calls.append(np.shape(x))
        return G_at(x)

    field.G_at = counting_G_at
    data = dich.propagate_subspaces(field, fit_pairs=8)
    assert dich.verify_dichotomy(data, field, sample_pairs=8).passed
    # one stacked evaluation: two Gauss points per Magnus substep
    h = np.diff(geom.x)
    substeps = np.ceil(dich.MAGNUS_SUBSTEPS * h / h.max()).sum()
    assert calls == [(2 * substeps,)]
    # a fresh DichotomyData on the same field reuses the field's cache
    dich.verify_dichotomy(replace(data), field, sample_pairs=8, seed=3)
    assert len(calls) == 1


@pytest.fixture(scope="module")
def stiff_field():
    # Saint-Venant front at lambda = 3: one eigenvalue of G near -34.5 makes
    # the forward steps of the right half singular to working precision
    sv = systems.saint_venant(1.5)
    h1 = 1.2
    s = (h1 ** 1.5 - 1.0) / (h1 - 1.0)
    psv = prof.solve_profile_shooting(sv, np.array([h1, h1 ** 1.5]),
                                      np.array([1.0, 1.0]), s, L=30.0,
                                      n_points=801)
    return res.assemble_G(sv, psv, res.FrequencyPoint(np.zeros(0), 3.0 + 0j),
                          geom=res.CollocationGrid(n_nodes=81, length=25.0))


@pytest.mark.parametrize("which, intervals, tol", [
    ("front_field", range(0, 160, 16), 1e-9),
    # the steepest part of the stiff front, where the Magnus error peaks
    ("stiff_field", (10, 42, 46), 2e-6)])
def test_magnus_steps_match_tight_integration(request, which, intervals, tol):
    field = request.getfixturevalue(which)
    grid = field.geom.x
    Phi, Phi_inv = dich._interval_propagators(field)
    eye = np.eye(field.n)
    for i in intervals:
        fwd = _dop853(field, grid[i], grid[i + 1], eye)
        bwd = _dop853(field, grid[i + 1], grid[i], eye)
        assert np.linalg.norm(Phi[i] - fwd, 2) <= tol * np.linalg.norm(fwd, 2)
        assert (np.linalg.norm(Phi_inv[i] - bwd, 2)
                <= tol * np.linalg.norm(bwd, 2))
    if which == "stiff_field":
        # the backward steps stay accurate where Phi has no usable inverse
        assert max(np.linalg.cond(P) for P in Phi) > 1e16


def _expm_gap(A):
    """Largest relative 2-norm distance of the stacked exponentials of
    ``A`` from ``scipy.linalg.expm``, one matrix at a time."""
    got = dich._expm(A)
    want = np.stack([expm(a) for a in A])
    return max(np.linalg.norm(g - e, 2) / np.linalg.norm(e, 2)
               for g, e in zip(got, want))


@pytest.mark.parametrize("which, scale", [
    ("front_field", 1.0),
    # four substeps merged into one: 1-norms up to 13.5, so the stack takes
    # the squaring path, matrix by matrix
    ("stiff_field", 4.0)])
def test_stacked_expm_matches_scipy_on_magnus_exponents(request, which,
                                                        scale):
    Omega, _ = dich._magnus_exponents(request.getfixturevalue(which))
    A = scale * np.concatenate([Omega, -Omega])
    if which == "stiff_field":
        assert np.max(np.abs(A).sum(axis=1)) > 2 * dich.THETA13
    assert _expm_gap(A) <= 1e-14


def test_stacked_expm_of_zero_and_mixed_norms():
    assert _expm_gap(np.zeros((3, 2, 2))) <= 1e-14
    rng = np.random.default_rng(2)
    A = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
    A *= (np.geomspace(1e-9, 10.0, 40)
          / np.abs(A).sum(axis=1).max(axis=1))[:, None, None]
    A[7] = 0.0
    assert _expm_gap(A) <= 1e-14


def test_discrete_frames_match_continuous_frames(jx, front):
    geom = res.CollocationGrid(n_nodes=43, length=20.0)
    field = res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), 2.0),
                           geom=geom)
    data = dich.propagate_subspaces(field, fit_pairs=8)
    x = geom.x
    n = field.n

    def continuous_frame(Y0, x_from, x_to):
        # orthonormal frame flow Y' = (I - Y Y*) G Y, sampled at the nodes
        p = Y0.shape[1]

        def rhs(xx, yflat):
            Y = yflat.reshape(n, p)
            GY = field.G_at(xx) @ Y
            return (GY - Y @ (Y.conj().T @ GY)).ravel()

        sol = solve_ivp(rhs, (x_from, x_to), Y0.astype(complex).ravel(),
                        method="DOP853", rtol=1e-10, atol=1e-12,
                        dense_output=True)
        assert sol.success, sol.message
        return np.stack([sol.sol(xx).reshape(n, p) for xx in x])

    minus, plus = (dich.limit_spectral_split(G) for G in field.limits)
    Ts = continuous_frame(dich._orthonormalize(plus.stable), x[-1], x[0])
    Tu = continuous_frame(dich._orthonormalize(minus.unstable), x[0], x[-1])
    frame = np.concatenate([Ts, Tu], axis=2)
    j = data.ranks[0]
    P_ref = frame[:, :, :j] @ np.linalg.inv(frame)[:, :j, :]
    assert np.max(np.abs(data.P_plus - P_ref)) <= 1e-8


def test_polar_matches_scipy(front_field, monkeypatch):
    # bit for bit, on the overlaps the frame stepping passes it
    calls = []
    fn = dich.polar_unitary

    def record(a):
        calls.append(np.array(a))
        return fn(a)

    monkeypatch.setattr(dich, "polar_unitary", record)
    dich.propagate_subspaces(front_field, seed=0)
    rng = np.random.default_rng(3)
    assert len(calls) > 0
    for k in (2, 3):
        calls.append(rng.standard_normal((k, k))
                     + 1j * rng.standard_normal((k, k)))
    for a in calls:
        assert np.array_equal(fn(a), polar(a)[0])


def test_engineered_subspace_collision_raises(monkeypatch):
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
    monkeypatch.setattr(dich, "ANGLE_TOL", 1e-6)
    with pytest.raises(TurningPointSuspectedError):
        dich.propagate_subspaces(field, fit_pairs=4)


# ------------------------------------------------------- block diagonals ----

def test_block_diagonalize_constant_eigenframe():
    G = np.array([[-2.0, 1.0], [0.0, 1.5]])
    geom = res.CollocationGrid(n_nodes=49, length=10.0)
    field = res.constant_field(G, geom)
    mu, V = np.linalg.eig(G)
    order = np.argsort(mu.real)
    frame = np.broadcast_to(V[:, order], (49, 2, 2)).astype(complex)
    lam_p, lam_m, residual = dich.block_diagonalize(field, frame.copy(),
                                                    ranks=(1, 1))
    assert residual < 1e-10
    assert lam_p[0, 0, 0] == pytest.approx(mu[order][0], abs=1e-10)
    assert lam_m[0, 0, 0] == pytest.approx(mu[order][1], abs=1e-10)


def test_block_diagonalize_identity_frame():
    G = np.diag([-1.0, 3.0])
    geom = res.CollocationGrid(n_nodes=33, length=5.0)
    field = res.constant_field(G, geom)
    frame = np.broadcast_to(np.eye(2), (33, 2, 2)).astype(complex)
    lam_p, lam_m, residual = dich.block_diagonalize(field, frame.copy(),
                                                    ranks=(1, 1))
    assert residual < 1e-12
    assert lam_p[5, 0, 0] == pytest.approx(-1.0)
    assert lam_m[5, 0, 0] == pytest.approx(3.0)


def test_block_diagonalize_names_first_ill_conditioned_node():
    geom = res.CollocationGrid(n_nodes=33, length=5.0)
    field = res.constant_field(np.diag([-1.0, 3.0]), geom)
    frame = np.broadcast_to(np.eye(2), (33, 2, 2)).astype(complex)
    # condition numbers about 4e12 and 4e14, both above the 1e10 cap
    frame[9] = [[1.0, 1.0], [1.0, 1.0 + 1e-12]]
    frame[21] = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]
    with pytest.raises(FrameConditioningError,
                       match=f"x = {geom.x[9]:.4g}$"):
        dich.block_diagonalize(field, frame, ranks=(1, 1))


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


def test_coalescence_scan_gap_tol_decides():
    # no grid node at the turning point: the refined gap is positive, and a
    # tolerance below it clears the scan
    airy = lambda x: np.array([[0.0, 1.0], [x, 0.0]])
    x_grid = np.linspace(-2.01, 2.0, 81)
    rep = dich.coalescence_scan(airy, x_grid, gap_tol=1e-3, ray=(1.0, 0.0))
    assert rep.ray == (1.0, 0.0) and len(rep.locations) == 1
    gap, cond = rep.severity[0]
    assert 0.0 < gap < 1e-3 and cond > dich.COALESCENCE_COND_CAP
    assert dich.coalescence_scan(airy, x_grid, gap_tol=gap / 2,
                                 ray=()).locations == ()


def _synthetic_turning_wave():
    # A2(w) = [[0, 1], [u, 0]]: the transverse symbol degenerates where the
    # profile component u crosses zero (square-root branch collision)
    def flux_jac(w):
        return np.stack([np.eye(2), np.array([[0.0, 1.0], [w[0], 0.0]])])

    sys = systems.SystemSpec(
        n=2, d=2, flux_jac=per_state(flux_jac),
        relax_jac=per_state(lambda w: np.zeros((2, 2))),
        relax=per_state(lambda w: np.zeros(2)),
        name="synthetic")
    grid = np.linspace(-10.0, 10.0, 201)
    u = np.tanh(grid - 1.2345)
    p = prof.WaveProfile(grid=grid, values=np.column_stack([u, 0 * u]),
                         derivs=np.column_stack([1 - u ** 2, 0 * u]),
                         speed=0.0, endstates=(np.array([-1.0, 0.0]),
                                               np.array([1.0, 0.0])),
                         decay_rate=2.0, tol_end=1e-8)
    return sys, p


def test_detect_turning_points_variable_symbol():
    sys, p = _synthetic_turning_wave()
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


def test_detect_turning_points_stacks_its_symbol():
    # the grid is sampled in one call of the stack evaluator; only the
    # refinement of the gap minimum evaluates single points
    sys, p = _synthetic_turning_wave()
    calls = []

    def counted(w):
        calls.append(np.shape(w))
        return stacked(w)

    stacked, sys = sys.flux_jac, replace(sys, flux_jac=counted)
    x_grid = np.linspace(-8, 8, 161)
    rep = dich.detect_turning_points(sys, p, ray=[1.0, 0.3], x_grid=x_grid)
    assert abs(rep.locations[0] - 1.2345) < 0.1
    assert calls[0] == (x_grid.size, 2)
    assert len(calls) < x_grid.size


def test_detect_turning_points_validates_ray(jx, front):
    with pytest.raises(ValueError):
        dich.detect_turning_points(jx, front, ray=[1.0, 2.0],
                                   x_grid=np.linspace(-1, 1, 11))
    with pytest.raises(ValueError):
        dich.detect_turning_points(jx, front, ray=[0.0],
                                   x_grid=np.linspace(-1, 1, 11))
