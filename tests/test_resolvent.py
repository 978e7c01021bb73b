import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.fft as fft
import pytest
from scipy.linalg import (cho_factor, cho_solve, lu_factor, lu_solve,
                          solve_triangular)

from relaxstab import _lapack
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import systems
from relaxstab.errors import CenterSpectrumError, NumericError

from conftest import transport_system


@pytest.fixture(scope="module")
def eq_profile():
    # constant subcharacteristic equilibrium, convenient constant-coefficient case
    return prof.solve_profile_jinxin(2.0, 0.3, 0.3, L=50.0, n_points=401)


@pytest.fixture(scope="module")
def eq_field(jx, eq_profile, geom):
    fp = res.FrequencyPoint(np.zeros(0), 1.5 + 0.8j)
    return res.assemble_G(jx, eq_profile, fp, geom=geom)


def _fourier_oracle(G0, A1inv, lam_unused, geom, f_profile, direction):
    """Whole-line solution of v' = G0 v + A1inv f on a large periodic grid."""
    Lbig, Nbig = 300.0, 2 ** 13
    xb = np.linspace(-Lbig, Lbig, Nbig, endpoint=False)
    rhs = (A1inv @ direction)[:, None] * f_profile(xb)[None, :]
    xi = 2 * np.pi * fft.fftfreq(Nbig, d=xb[1] - xb[0])
    rhat = fft.fft(rhs, axis=1)
    n = G0.shape[0]
    vhat = np.linalg.solve(
        1j * xi[:, None, None] * np.eye(n)[None] - G0[None],
        rhat.T[:, :, None])[:, :, 0]
    phase = np.exp(1j * np.outer(geom.x - xb[0], xi))
    return (phase @ vhat) / Nbig


# ------------------------------------------------------------- hat norm ----

def test_hat_norm_at_zero_frequency(geom):
    rng = np.random.default_rng(0)
    V = rng.standard_normal((3, geom.n_nodes, 2))
    # a complex stack goes through the real view of its fields
    Vc = V + 1j * rng.standard_normal(V.shape)
    for s in (0, 1, 2):
        hat = res.HatNorm(s)
        for X in (V, Vc):
            one = [hat.norms(v[None], geom, 0.0) for v in X]
            for v, (hv, _, _) in zip(X, one):
                sq = [np.sum(geom.wq[:, None] * np.abs(
                    np.linalg.matrix_power(geom.D, k) @ v) ** 2)
                      for k in range(s + 1)]
                expect = np.sqrt(sum(sq)) + np.sqrt(sq[0])
                assert hv[0] == pytest.approx(expect, rel=1e-14)
            # one pass over the stack gives each field's norms bit for bit
            hv, l2, _ = hat.norms(X, geom, 0.0)
            assert np.array_equal(hv, [h[0][0] for h in one])
            assert np.array_equal(l2, [geom._l2(v) for v in X])


def test_frequency_point_validation():
    with pytest.raises(ValueError):
        res.FrequencyPoint(np.zeros(0), complex(np.nan, 0.0))
    with pytest.raises(ValueError, match="gamma_floor"):
        res.FrequencyPoint(np.zeros(0), -100.0 + 0j)
    fp = res.FrequencyPoint(np.array([3.0]), 1.0 + 4.0j)
    assert fp.magnitude == pytest.approx(5.0)


# ------------------------------------------------------------ assemble_G ----

def test_assemble_constant_equilibrium_hand_value(jx, geom):
    # G = -(A1 - s I)^{-1} (lambda I + E) at the zero state, s = 0
    p = prof.solve_profile_jinxin(2.0, 0.0, 0.0, L=50.0, n_points=401)
    fp = res.FrequencyPoint(np.zeros(0), 1.0 + 0j)
    field = res.assemble_G(jx, p, fp, geom=geom)
    A1 = np.array([[0.0, 1.0], [4.0, 0.0]])
    E = np.array([[0.0, 0.0], [0.0, 1.0]])
    expect = -np.linalg.solve(A1, np.eye(2) + E)
    assert np.allclose(field.G_nodes, expect[None], atol=1e-12)
    assert np.allclose(field.limits[0], expect, atol=1e-12)


def test_assemble_zero_generator():
    sys = transport_system([[0.0, 1.0], [1.0, 0.0]], n=2)
    p = prof.WaveProfile(grid=np.linspace(-50, 50, 11),
                         values=np.zeros((11, 2)), derivs=np.zeros((11, 2)),
                         speed=0.0, endstates=(np.zeros(2), np.zeros(2)),
                         decay_rate=0.0, tol_end=1e-8)
    geom = res.CollocationGrid(n_nodes=33, length=50.0)
    fp = res.FrequencyPoint(np.zeros(0), 0.0 + 0j)
    field = res.assemble_G(sys, p, fp, geom=geom)
    assert np.max(np.abs(field.G_nodes)) == 0.0


def test_limits_equal_endstate_evaluations(jx, front, geom):
    fp = res.FrequencyPoint(np.zeros(0), 2.0 + 0j)
    field = res.assemble_G(jx, front, fp, geom=geom)
    for w, G_inf in zip(front.endstates, field.limits):
        A1 = jx.flux_jacs(w)[0] - front.speed * np.eye(2)
        E = -jx.relax_jacobian(w)
        expect = -np.linalg.solve(A1, 2.0 * np.eye(2) + E)
        assert np.allclose(G_inf, expect, atol=1e-12)


def test_assemble_rejects_wrong_eta_length(jx, front, geom):
    with pytest.raises(ValueError, match="d-1"):
        res.assemble_G(jx, front, res.FrequencyPoint(np.array([1.0]), 1.0),
                       geom=geom)


# ------------------------------------------------------------- BVP solve ----

def test_zero_forcing_zero_solution(front_field):
    v = front_field.bvp().solve(np.zeros((161, 2)))
    assert np.max(np.abs(v)) == 0.0


def test_bvp_matches_fourier_oracle(jx, eq_field, geom):
    width, direction = 5.0, np.array([1.0, 0.5])
    f = np.exp(-(geom.x / width) ** 2)[:, None] * direction[None, :]
    v = eq_field.bvp().solve(f)
    A1 = np.array([[0.0, 1.0], [4.0, 0.0]]) - 0.3 * np.eye(2)
    oracle = _fourier_oracle(eq_field.limits[0], np.linalg.inv(A1), None,
                             geom, lambda x: np.exp(-(x / width) ** 2),
                             direction)
    assert np.max(np.abs(v - oracle)) < 1e-6


def test_bvp_residual_cap(front_field, geom):
    f = np.exp(-(geom.x / 4.0) ** 2)[:, None] * np.ones(2)[None, :]
    front_field.bvp().solve(f)
    assert front_field.bvp().last_residual <= 1e-8


def test_phase_equivariance(front_field, geom):
    f = np.exp(-(geom.x / 4.0) ** 2)[:, None] * np.array([1.0, -0.5])[None, :]
    v = front_field.bvp().solve(f)
    vth = front_field.bvp().solve(np.exp(0.7j) * f)
    assert np.max(np.abs(vth - np.exp(0.7j) * v)) < 1e-10


def _reference_split(G_inf):
    """Unsorted, unnormalized eigendata of a limit matrix: right bases and
    the matching rows of ``V^{-1}``, split by the sign of ``Re mu``."""
    mu, V = np.linalg.eig(G_inf)
    W = np.linalg.inv(V)
    stable = mu.real < 0
    return V[:, stable], V[:, ~stable], W[stable], W[~stable]


def _orth_complement(U):
    """Rows spanning the orthogonal complement of the columns of ``U``."""
    Q = np.linalg.qr(np.asarray(U, dtype=complex), mode="complete")[0]
    return Q[:, U.shape[1]:].conj().T


def _dense_operator(field):
    """Dense collocation matrix ``M`` and forcing injection ``P``.

    ``P`` is the identity except at the kept boundary rows, where it applies
    the left eigenvectors to the end-node forcing; the solution operator is
    ``M^{-1} P`` and its adjoint ``P^H M^{-H}``.  The rows that confine the
    end values are built independently of the operator under test: the
    orthogonal complement (QR) of the admissible eigenvectors.
    """
    geom = field.geom
    m, n = geom.n_nodes, field.n
    M = np.kron(geom.D, np.eye(n)).astype(complex)
    for i in range(m):
        M[i * n:(i + 1) * n, i * n:(i + 1) * n] -= field.G_nodes[i]
    P = np.eye(m * n, dtype=complex)
    _, unstable_minus, _, keep_minus = _reference_split(field.limits[0])
    stable_plus, _, keep_plus, _ = _reference_split(field.limits[1])
    k, j = keep_minus.shape[0], keep_plus.shape[0]
    r0, rN = slice(0, n), slice((m - 1) * n, m * n)
    top = np.zeros((n, m * n), dtype=complex)
    top[:n - k, r0] = _orth_complement(unstable_minus)
    top[n - k:] = keep_minus @ M[r0]
    bot = np.zeros((n, m * n), dtype=complex)
    bot[:j] = keep_plus @ M[rN]
    bot[j:, rN] = _orth_complement(stable_plus)
    Ptop = np.zeros((n, m * n), dtype=complex)
    Ptop[n - k:] = keep_minus @ P[r0]
    Pbot = np.zeros((n, m * n), dtype=complex)
    Pbot[:j] = keep_plus @ P[rN]
    M[r0], M[rN], P[r0], P[rN] = top, bot, Ptop, Pbot
    return M, P


def _transverse_field():
    # d = 2, n = 3 constant state: boundary blocks of unequal ranks
    sys2 = systems.jin_xin_2d(2.0)
    w0 = np.array([0.2, 0.02, 0.02])
    p = prof.WaveProfile(grid=np.linspace(-30, 30, 11),
                         values=np.tile(w0, (11, 1)),
                         derivs=np.zeros((11, 3)), speed=0.4,
                         endstates=(w0, w0), decay_rate=0.0, tol_end=1e-8)
    geom = res.CollocationGrid(n_nodes=65, length=30.0)
    fp = res.FrequencyPoint(np.array([0.6]), 1.5 + 0.5j)
    return res.assemble_G(sys2, p, fp, geom=geom)


def test_batched_solve_matches_single_solves(front_field):
    field = front_field
    rng = np.random.default_rng(4)
    F = np.array([res._random_forcings(field.geom, field.n, rng, 1)[0]
                  for _ in range(5)])
    F2 = res._random_forcings(field.geom, field.n, np.random.default_rng(4),
                              5)
    assert np.array_equal(F2, F)          # same draws, same order
    op = field.bvp()
    V = op.solve(F2)
    assert V.shape == F.shape
    scale = np.max(np.abs(V))
    for f, v in zip(F, V):
        assert np.allclose(v, op.solve(f), rtol=1e-12, atol=1e-12 * scale)
    U = op.solve(F, apply_a1inv=False)
    for f, u in zip(F, U):
        assert np.allclose(u, op.solve(f, apply_a1inv=False), rtol=1e-12,
                           atol=1e-12 * scale)


@pytest.mark.parametrize("lam", [0.5 + 15.65j, 0.5 + 60j])
def test_stacked_solutions_do_not_depend_on_the_stack(jx, front, geom, lam):
    # each forcing of a stack gets the same bits as in a stack of its own;
    # a matrix product for the end rows rounded one row differently from a
    # stack of them (at 0.5 + 60j: seed 0, forcing 2)
    field = res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), lam),
                           geom=geom)
    op = field.bvp()
    for seed in range(3):
        F = res._random_forcings(geom, 2, np.random.default_rng(seed), 9)
        V = op.solve(F)
        for i, v in enumerate(V):
            assert np.array_equal(op.solve(F[i:i + 1])[0], v), (seed, i)


@pytest.mark.parametrize("which", ["front", "transverse"])
def test_solve_and_adjoint_match_dense_operator(which, front_field):
    field = front_field if which == "front" else _transverse_field()
    op = field.bvp()
    m, n = field.geom.n_nodes, field.n
    M, P = _dense_operator(field)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    v = op.solve(f, apply_a1inv=False)
    ref = np.linalg.solve(M, P @ f.ravel()).reshape(m, n)
    assert np.allclose(v, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
    fa = np.einsum("ijk,ik->ij", field.A1inv_nodes, f)
    assert np.allclose(op.solve(f), op.solve(fa, apply_a1inv=False),
                       rtol=1e-12, atol=1e-12 * np.max(np.abs(v)))

    u = res._Chunk([op]).solve_adjoint(y[None])[0]
    ref = (P.conj().T @ np.linalg.solve(M.conj().T, y.ravel())).reshape(m, n)
    assert np.allclose(u, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
    lhs, rhs = np.vdot(y, v), np.vdot(u, f)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_center_spectrum_flagged():
    sys = transport_system([[0.0, 1.0], [1.0, 0.0]], n=2)
    p = prof.WaveProfile(grid=np.linspace(-20, 20, 11),
                         values=np.zeros((11, 2)), derivs=np.zeros((11, 2)),
                         speed=0.0, endstates=(np.zeros(2), np.zeros(2)),
                         decay_rate=0.0, tol_end=1e-8)
    geom = res.CollocationGrid(n_nodes=33, length=20.0)
    field = res.assemble_G(sys, p, res.FrequencyPoint(np.zeros(0), 0.0 + 0j),
                           geom=geom)
    with pytest.raises(CenterSpectrumError):
        field.bvp().solve(np.zeros((33, 2)))


def test_nonfinite_forcing_is_numeric_error(front_field):
    # one NaN entry poisons the solution; the residual cap must catch it
    f = np.zeros((front_field.geom.n_nodes, 2))
    f[80, 1] = np.nan
    with pytest.raises(NumericError, match="residual"):
        front_field.bvp().solve(f)


# ------------------------------------------------------------------ gains ----

def _gain(field, s, trials, seed, power_iters=res.POWER_ITERS):
    """The gain estimate of a sweep point: the best hat-norm ratio of
    ``trials`` random forcings from ``seed``, refined by power iteration.
    That is the chunk kernel on the point alone with no trials of its own:
    its power iteration starts from forcings drawn from its seed + 1."""
    return res._sweep_chunk([(lambda: field, seed - 1, None)], s, 0, trials,
                            power_iters)[0][0]


def test_gain_matches_symbol_oracle(jx, eq_field):
    # constant coefficients: L2 operator norm equals the symbol-norm sup
    lam = eq_field.fp.lam
    A1 = np.array([[0.0, 1.0], [4.0, 0.0]]) - 0.3 * np.eye(2)
    E = np.array([[0.0, 0.0], [-0.3, 1.0]])
    xis = np.linspace(-80.0, 80.0, 32001)
    oracle = max(1.0 / np.linalg.svd(lam * np.eye(2) + 1j * xi * A1 + E,
                                     compute_uv=False)[-1] for xi in xis)
    gain = _gain(eq_field, 0, trials=16, seed=1, power_iters=15)
    assert gain <= oracle * 1.05
    assert gain >= oracle / 2.0


def test_gain_scaled_bounded_at_large_real_lambda(jx, eq_profile, geom):
    gains = []
    for lam in (10.0, 100.0, 1000.0):
        fp = res.FrequencyPoint(np.zeros(0), complex(lam, 0.0))
        field = res.assemble_G(jx, eq_profile, fp, geom=geom)
        g = _gain(field, 1, trials=8, seed=0)
        gains.append(g * (lam - (-0.25)))
    assert max(gains) <= 3.0 * min(gains)


# ---------------------------------------------------------- pdamp / hfres ----

def test_pdamp_requires_re_lambda_above_gamma_star():
    # checked for every point before the pool starts: no field is assembled
    calls = []

    def family(fp):
        calls.append(fp)
        raise AssertionError("a point was solved")

    grid = [res.FrequencyPoint(np.zeros(0), lam)
            for lam in (5.0 + 1.0j, 1.0 + 0j, 4.0 + 0j)]
    with pytest.raises(ValueError, match="gamma_star"):
        res.verify_equivalence(family, 1, grid, gamma_star=3.0, trials=2,
                               seed=0)
    assert calls == []


def test_bounded_frequency_a_priori(jx, front, geom):
    # |v|_hat1 <= C |v|_L2 at bounded frequencies
    fp = res.FrequencyPoint(np.zeros(0), 1.0 + 1.0j)
    field = res.assemble_G(jx, front, fp, geom=geom)
    rng = np.random.default_rng(3)
    hat = res.HatNorm(1)
    for f in res._random_forcings(geom, 2, rng, 5):
        v = field.bvp().solve(f)
        hv, l2, _ = hat.norms(v[None], geom, fp.magnitude)
        assert hv[0] / l2[0] < 50.0


def test_pdamp_and_hfres_agree_at_large_lambda(jx, front, geom):
    fp = res.FrequencyPoint(np.zeros(0), 50.0 + 0j)
    sweep = res.verify_equivalence(
        lambda fp: res.assemble_G(jx, front, fp, geom=geom), 1, [fp],
        gamma_star=-0.25, trials=8, seed=0)
    pd, hf = sweep.pdamp_gain[0], sweep.hfres_gain[0]
    assert sweep.hfres_pass[0] == (hf <= sweep.constants["C"])
    assert sweep.pdamp_pass[0] == (pd <= sweep.constants["C_pdamp"])
    assert sweep.agreement == 1.0
    assert (pd <= 3.0) == (hf <= 3.0)
    assert pd <= hf  # the damping bound has the extra L2 term


# ------------------------------------------------------------ equivalence ----

@pytest.fixture(scope="module")
def small_sweep(jx, front, geom):
    def family(fp):
        return res.assemble_G(jx, front, fp, geom=geom)

    grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
            for tau in np.linspace(0.0, 12.0, 5)]
    grid += [res.FrequencyPoint(np.zeros(0), complex(lam, 0.0))
             for lam in np.geomspace(0.3, 300.0, 7)]
    return res.verify_equivalence(family, 1, grid, gamma_star=-0.25,
                                  trials=4, seed=0)


def test_equivalence_agreement(small_sweep):
    assert small_sweep.agreement == 1.0
    assert small_sweep.n_flagged == 0


def test_absorption_decay(small_sweep):
    pts = small_sweep.points
    mags = np.array([abs(p.lam) for p in pts])
    absorb = small_sweep.absorption
    i10 = int(np.argmin(np.abs(mags - 10.0)))
    i100 = int(np.argmin(np.abs(mags - 100.0)))
    assert absorb[i100] <= 10.0 * absorb[i10]
    assert -1.4 < small_sweep.absorption_exponent < -0.6


def test_sweep_pass_flags_deterministic(small_sweep, jx, front, geom):
    def family(fp):
        return res.assemble_G(jx, front, fp, geom=geom)

    grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
            for tau in np.linspace(0.0, 12.0, 5)]
    again = res.verify_equivalence(family, 1, grid, gamma_star=-0.25,
                                   trials=4, seed=0)
    # the gains of a point do not depend on the rest of the grid, and the
    # flags are the gains checked against the fitted constant
    assert np.array_equal(again.hfres_gain, small_sweep.hfres_gain[:5])
    assert np.array_equal(again.hfres_pass,
                          again.hfres_gain <= again.constants["C"])
    assert np.array_equal(small_sweep.hfres_pass,
                          small_sweep.hfres_gain
                          <= small_sweep.constants["C"])


def test_sweep_independent_of_thread_count(jx, front, monkeypatch):
    monkeypatch.delenv("RELAXSTAB_THREADS", raising=False)
    geom = res.CollocationGrid(n_nodes=65, length=30.0)

    def family(fp):
        return res.assemble_G(jx, front, fp, geom=geom)

    grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
            for tau in np.linspace(0.0, 12.0, 4)]
    grid += [res.FrequencyPoint(np.zeros(0), complex(lam, 0.0))
             for lam in (0.3, 10.0, 300.0)]
    # these 7 points fill one chunk; 3 more make a second chunk, so that two
    # threads run at once
    more = grid + [res.FrequencyPoint(np.zeros(0), complex(lam, 0.0))
                   for lam in (1.0, 3.0, 30.0)]
    assert len(grid) == res.CHUNK_BYTES // (16 * (65 * 2) ** 2) < len(more)

    def sweep(threads, points):
        monkeypatch.setenv("RELAXSTAB_THREADS", threads)
        return res.verify_equivalence(family, 1, points, gamma_star=-0.25,
                                      trials=4, seed=2)

    for points in (grid, more):
        one, two = sweep("1", points), sweep("2", points)
        for key in ("hfres_gain", "pdamp_gain", "absorption", "hfres_pass",
                    "pdamp_pass"):
            assert np.array_equal(getattr(one, key), getattr(two, key)), key
        assert one.constants == two.constants
        assert one.bounded_ratio == two.bounded_ratio
        assert one.absorption_exponent == two.absorption_exponent


# ----------------------------------------------- frozen perturbation family ----

def test_frozen_perturbation_family(jx, front, geom, sv_front):
    # linear flux: the frozen-v family collapses onto the linearized field
    fp = res.FrequencyPoint(np.zeros(0), 2.0 + 0j)
    base = res.assemble_G(jx, front, fp, geom=geom)
    v = res.bump_perturbation(np.array([1.0, 0.0]), 0.08, width=5.0)
    fld = res.assemble_G(jx, front, fp, v=v, geom=geom)
    assert np.array_equal(fld.G_nodes, base.G_nodes)

    # nonlinear flux: first-order response that shrinks with the amplitude
    sv, p = sv_front
    geom_sv = res.CollocationGrid(n_nodes=65, length=25.0)
    fp2 = res.FrequencyPoint(np.zeros(0), 3.0 + 0j)
    base_sv = res.assemble_G(sv, p, fp2, geom=geom_sv)
    diffs = []
    for amp in (0.08, 0.04):
        vb = res.bump_perturbation(np.array([1.0, 0.0]), amp, width=5.0)
        fld = res.assemble_G(sv, p, fp2, v=vb, geom=geom_sv)
        diffs.append(np.max(np.abs(fld.G_nodes - base_sv.G_nodes)))
    assert diffs[0] > 1e-4
    assert diffs[1] < 0.6 * diffs[0]


def test_differentiated_system_coefficient(jx, front, geom, sv_front):
    # linear flux: the s-differentiated family coincides with the base one
    fp = res.FrequencyPoint(np.zeros(0), 2.0 + 0j)
    base = res.assemble_G(jx, front, fp, geom=geom)
    diff1 = res.assemble_G(jx, front, fp, geom=geom, deriv_order=2)
    assert np.allclose(diff1.G_nodes, base.G_nodes, atol=1e-12)

    # genuinely nonlinear flux: the correction tracks dA1/dx
    sv, p = sv_front
    geom_sv = res.CollocationGrid(n_nodes=65, length=25.0)
    fp2 = res.FrequencyPoint(np.zeros(0), 3.0 + 0j)
    b = res.assemble_G(sv, p, fp2, geom=geom_sv)
    d1 = res.assemble_G(sv, p, fp2, geom=geom_sv, deriv_order=1)
    mid = geom_sv.n_nodes // 2
    h = 1e-5
    A1p = sv.flux_jacs(p.sample(geom_sv.x[mid] + h)[0])[0]
    A1m = sv.flux_jacs(p.sample(geom_sv.x[mid] - h)[0])[0]
    dA1 = (A1p - A1m) / (2 * h)
    w_mid = p.sample(geom_sv.x[mid])[0]
    A1 = sv.flux_jacs(w_mid)[0] - p.speed * np.eye(2)
    expect = -np.linalg.solve(A1, dA1)
    assert np.allclose(d1.G_nodes[mid] - b.G_nodes[mid], expect, atol=1e-4)


# ------------------------------------------------- wave coefficient memo ----

@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_evaluates_the_wave_once(jx, front, monkeypatch, threads):
    # the lambda-independent coefficients are built once per grid, however
    # many points the sweep has and however many threads run its chunks (at
    # 161 nodes every point is a chunk of its own)
    monkeypatch.setenv("RELAXSTAB_THREADS", threads)
    flux_jacs = type(jx).flux_jacs
    calls = []

    def counted(self, w):
        calls.append(threading.get_ident())
        time.sleep(0.01)        # widen the window in which threads could race
        return flux_jacs(self, w)

    monkeypatch.setattr(type(jx), "flux_jacs", counted)
    counts = []
    for n_nodes, n_points in ((33, 2), (33, 5), (161, 3)):
        geom = res.CollocationGrid(n_nodes=n_nodes, length=20.0)
        grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
                for tau in np.linspace(0.0, 4.0, n_points)]
        calls.clear()
        res.verify_equivalence(
            lambda fp: res.assemble_G(jx, front, fp, geom=geom), 1, grid,
            gamma_star=-0.25, trials=2, seed=0)
        counts.append(len(calls))
    # nodes: the states and the two flux-Hessian differences; limits: states
    assert counts == [4, 4, 4]


def test_memo_on_a_shared_grid_matches_fresh_grids(jx, front, sv_front):
    sv, p_sv = sv_front
    other = prof.solve_profile_jinxin(2.0, 1.0, 0.2)
    v = res.bump_perturbation(np.array([1.0, 0.0]), 0.05, width=5.0)
    fp = res.FrequencyPoint(np.zeros(0), 1.0 + 2.0j)
    shared = res.CollocationGrid(n_nodes=65, length=25.0)
    for sys, p, pert, order in [(jx, front, None, 0), (jx, other, None, 0),
                                (sv, p_sv, None, 0), (sv, p_sv, v, 0),
                                (sv, p_sv, None, 2)]:
        got = res.assemble_G(sys, p, fp, geom=shared, v=pert,
                             deriv_order=order)
        ref = res.assemble_G(sys, p, fp,
                             geom=res.CollocationGrid(n_nodes=65, length=25.0),
                             v=pert, deriv_order=order)
        assert np.array_equal(got.G_nodes, ref.G_nodes)
        assert np.array_equal(got.A1inv_nodes, ref.A1inv_nodes)
        for a, b in zip(got.limits, ref.limits):
            assert np.array_equal(a, b)


def test_wave_coefficients_are_read_only(jx, front):
    geom = res.CollocationGrid(n_nodes=33, length=20.0)
    field = res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), 1.0),
                           geom=geom)
    nodes, limits = res._wave_coefficients(jx, front, geom, None, 0)
    assert field.A1inv_nodes is nodes.A1inv
    for c in (nodes, limits):
        for arr in (c.A1inv, c.E, c.A_t):
            assert not arr.flags.writeable
    with pytest.raises(ValueError):
        field.A1inv_nodes[0] = 0.0
    assert field.G_nodes.flags.writeable     # G is the field's own


def test_sweep_flags_singular_points_and_both_fail():
    # neutral modes: zero relaxation and lambda = i tau sits on the
    # essential spectrum, so the splitting fails and the point is excluded
    sys = transport_system([[0.0, 1.0], [1.0, 0.0]], n=2)
    p = prof.WaveProfile(grid=np.linspace(-20, 20, 11),
                         values=np.zeros((11, 2)), derivs=np.zeros((11, 2)),
                         speed=0.0, endstates=(np.zeros(2), np.zeros(2)),
                         decay_rate=0.0, tol_end=1e-8)
    geom = res.CollocationGrid(n_nodes=33, length=20.0)

    def family(fp):
        return res.assemble_G(sys, p, fp, geom=geom)

    grid = [res.FrequencyPoint(np.zeros(0), complex(0.0, 2.0)),
            res.FrequencyPoint(np.zeros(0), complex(1.0, 0.0))]
    sweep = res.verify_equivalence(family, 0, grid, gamma_star=-0.25,
                                   trials=2, seed=0)
    assert len(sweep.flagged) == 1 and sweep.flagged[0][0] == 0
    assert sweep.n_flagged == 1
    assert not sweep.hfres_pass[0] and not sweep.pdamp_pass[0]
    assert sweep.hfres_pass[1] and sweep.pdamp_pass[1]
    assert np.array_equal(sweep.hfres_pass,
                          sweep.hfres_gain <= sweep.constants["C"])


def test_sweep_with_every_point_flagged_raises():
    def family(fp):
        raise CenterSpectrumError("frequency on the singular set")

    grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
            for tau in (0.0, 1.0, 2.0)]
    with pytest.raises(CenterSpectrumError, match="no grid point"):
        res.verify_equivalence(family, 1, grid, gamma_star=-0.25, trials=2,
                               seed=0)


def test_empty_grid_is_rejected_before_any_chunk():
    def family(fp):
        raise AssertionError("no field is assembled")

    with pytest.raises(ValueError, match="frequency grid is empty"):
        res.verify_equivalence(family, 1, [], gamma_star=-0.25, trials=2,
                               seed=0)


def test_transverse_frequency_path_against_fourier_oracle():
    # d = 2 with a genuine transverse term i eta A_2 in the field
    sys2 = systems.jin_xin_2d(2.0)
    u0 = 0.2
    w0 = np.array([u0, 0.5 * u0 ** 2, 0.5 * u0 ** 2])
    p = prof.WaveProfile(grid=np.linspace(-50, 50, 11),
                         values=np.tile(w0, (11, 1)),
                         derivs=np.zeros((11, 3)), speed=0.4,
                         endstates=(w0, w0), decay_rate=0.0, tol_end=1e-8)
    geom = res.CollocationGrid(n_nodes=129, length=50.0)
    fp = res.FrequencyPoint(np.array([0.6]), 1.5 + 0.5j)
    field = res.assemble_G(sys2, p, fp, geom=geom)

    A = sys2.flux_jacs(w0)
    A1 = A[0] - 0.4 * np.eye(3)
    E = -sys2.relax_jacobian(w0)
    expect = -np.linalg.solve(A1, fp.lam * np.eye(3) + 0.6j * A[1] + E)
    assert np.allclose(field.G_nodes[40], expect, atol=1e-12)

    direction = np.array([1.0, 0.3, -0.2])
    f = np.exp(-(geom.x / 5.0) ** 2)[:, None] * direction[None, :]
    v = field.bvp().solve(f)
    assert field.bvp().last_residual <= 1e-8
    oracle = _fourier_oracle(field.limits[0], np.linalg.inv(A1), None, geom,
                             lambda x: np.exp(-(x / 5.0) ** 2), direction)
    assert np.max(np.abs(v - oracle)) < 1e-6


# --------------------------------------------- the sweep kernel, bit for bit ----
#
# A plain copy of the per-point kernel: forcings summed bump by bump, the
# collocation matrix built in C order and copied by LAPACK, the end rows
# projected by elementwise products, the real A_1^{-1} cast by numpy on
# every call, the hat-Gram matrix built from dense diagonal matrices, and
# the real D^k, Gram matrix and cho_solve applied to the real view of a
# complex field.  The kernel must give the same bits.  At
# lambda = 0.5 + 15.65i the power iteration is far from converged, which
# amplifies any change of rounding.  The power iteration starts from the
# batch's solution of the best forcing; a single column is solved the plain
# way: the pivots applied by row swaps, then two triangular solves.

KERNEL_SEED = 125       # _sweep_chunk draws its gain estimate from seed + 1


def _reference_forcing(geom, n, rng):
    x, L = geom.x, geom.length
    f = np.zeros((geom.n_nodes, n), dtype=complex)
    for _ in range(res.N_BUMPS):
        c = rng.uniform(-0.6 * L, 0.6 * L)
        w = rng.uniform(L / 25.0, L / 8.0)
        amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f += np.exp(-((x - c) / w) ** 2)[:, None] * amp[None, :]
    nrm = float(geom._l2(f))
    return f / (nrm if nrm > 0 else 1.0)


class _ReferenceOperator:
    def __init__(self, field):
        geom = field.geom
        m, n = geom.n_nodes, field.n
        M = np.zeros((m, n, m, n), dtype=complex)
        for a in range(n):
            M[:, a, :, a] = geom.D
        nodes = np.arange(m)
        M[nodes, :, nodes, :] -= field.G_nodes
        M = M.reshape(m * n, m * n)
        minus, plus = field.limit_splits()
        self.keep_minus, self.keep_plus = minus.left_unstable, plus.left_stable
        k, j = len(self.keep_minus), len(self.keep_plus)
        r0, rN = slice(0, n), slice((m - 1) * n, m * n)
        top = np.zeros((n, m * n), dtype=complex)
        top[: n - k, r0] = minus.left_stable
        top[n - k:, :] = self.keep_minus @ M[r0, :]
        bot = np.zeros((n, m * n), dtype=complex)
        bot[:j, :] = self.keep_plus @ M[rN, :]
        bot[j:, rN] = plus.left_unstable
        M[r0, :], M[rN, :] = top, bot
        self.M, self.lu = M, lu_factor(M)
        self.field, self.m, self.n, self.ranks = field, m, n, (j, k)

    def solve(self, f):
        f = np.asarray(f, dtype=complex)
        rhs = np.einsum("ijk,tik->tij", self.field.A1inv_nodes,
                        f.reshape(-1, self.m, self.n))
        j, k = self.ranks
        b = rhs.copy()
        b[:, [0, -1]] = 0.0
        b[:, 0, self.n - k:] = np.sum(self.keep_minus[None]
                                      * rhs[:, 0, None, :], axis=-1)
        b[:, -1, :j] = np.sum(self.keep_plus[None] * rhs[:, -1, None, :],
                              axis=-1)
        if f.ndim == 3:
            return lu_solve(self.lu, b.reshape(len(b), -1).T).T.reshape(
                rhs.shape)
        lu, piv = self.lu
        x = b.reshape(-1)
        for i, p in enumerate(piv):
            x[[i, p]] = x[[p, i]]
        x = solve_triangular(lu, x, lower=True, unit_diagonal=True)
        return solve_triangular(lu, x).reshape(self.m, self.n)

    def solve_adjoint(self, y):
        lu, piv = self.lu
        x = solve_triangular(lu, np.asarray(y, dtype=complex).reshape(-1),
                             trans=2)
        x = solve_triangular(lu, x, lower=True, unit_diagonal=True, trans=2)
        for i in reversed(range(len(piv))):
            p = piv[i]
            x[[i, p]] = x[[p, i]]
        u = x.reshape(self.m, self.n)
        j, k = self.ranks
        u[0] = self.keep_minus.conj().T @ u[0, self.n - k:]
        u[-1] = self.keep_plus.conj().T @ u[-1, :j]
        return u


def _reference_hat_norms(V, geom, s, freq_mag):
    """Hat, L2 and H^1 norms of a complex stack ``(T, m, n)``."""
    def l2(X):
        return np.sqrt(np.sum(geom.wq[:, None] * np.abs(X) ** 2,
                              axis=(-2, -1)))
    sob = [l2(V)]
    total = [a ** 2 for a in sob[0].tolist()]
    for k in range(1, max(s, 1) + 1):
        dk = l2(np.matmul(geom.dpow(k), V.view(float))).tolist()
        total = [t + a ** 2 for t, a in zip(total, dk)]
        sob.append(np.sqrt(total))
    return sob[s] + (1.0 + freq_mag) ** s * sob[0], sob[0], sob[1]


def _reference_trials(field, op, s, trials, seed):
    rng = np.random.default_rng(seed)
    F = np.array([_reference_forcing(field.geom, field.n, rng)
                  for _ in range(trials)])
    V = op.solve(F)
    rho = field.fp.magnitude
    return (F, V, _reference_hat_norms(V, field.geom, s, rho),
            _reference_hat_norms(F, field.geom, s, rho))


def _reference_gram(geom, s, rho):
    W = np.diag(geom.wq)
    Gm = W * (1.0 + rho) ** (2 * s) + W
    for k in range(1, s + 1):
        Gm = Gm + geom.stiffness(k)
    return 0.5 * (Gm + Gm.T)


def _reference_gain(field, op, s, trials, seed, power_iters=10):
    geom, rho = field.geom, field.fp.magnitude
    _, V, (hv, _, _), (hf, _, _) = _reference_trials(field, op, s, trials,
                                                     seed)
    best, v = 0.0, None
    for u, ratio in zip(V, (hv / hf).tolist()):
        if ratio > best:
            best, v = ratio, u
    Gm = _reference_gram(geom, s, rho)
    cf = cho_factor(Gm)
    envelope = np.exp(-((geom.x / (0.65 * geom.length)) ** 8))[:, None]
    for _ in range(power_iters):
        u = op.solve_adjoint((Gm @ v.view(float)).view(complex))
        u = np.einsum("ijk,ij->ik", field.A1inv_nodes.conj(), u)
        f = np.ascontiguousarray(
            envelope * cho_solve(cf, u.view(float))).view(complex)
        nrm = float(geom._l2(f))
        if nrm == 0:
            return best
        f = f / nrm
        v = op.solve(f)
    hv, hf = _reference_hat_norms(np.array([v, f]), geom, s, rho)[0].tolist()
    return max(best, hv / hf) if hf > 0 else best


@pytest.mark.parametrize("n", [2, 3])
def test_random_forcings_are_bump_by_bump_sums(geom, n):
    # every bit, sign bits included, and the generator left where the
    # bump-by-bump loop leaves it, for one forcing and for a stack
    far = res.CollocationGrid(n_nodes=5, length=10.0)
    far.x = far.x + 1e3        # every bump underflows: a sum of signed zeros
    for g in (geom, far):
        for seed in range(5):
            for count in (1, 4):
                rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
                F = res._random_forcings(g, n, rng, count)
                ref = np.array([_reference_forcing(g, n, ref_rng)
                                for _ in range(count)])
                assert np.array_equal(F.view(np.uint64), ref.view(np.uint64))
                assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("lam", [0.5, 0.5 + 15.65j, 0.5 + 60j, 1000.0])
def test_sweep_point_gains_match_reference_kernel(jx, front, geom, lam):
    fp = res.FrequencyPoint(np.zeros(0), lam)
    field = res.assemble_G(jx, front, fp, geom=geom)
    ref = _ReferenceOperator(field)
    for a, b in zip(field.bvp().lu, ref.lu):
        assert np.array_equal(a, b)
    s, trials, seed = 1, 4, KERNEL_SEED

    gain = _gain(field, s, trials=trials, seed=seed + 1)
    assert np.array_equal(gain, _reference_gain(field, ref, s, trials,
                                                seed + 1))

    g_hf, g_pd, absorb, ratio = res._sweep_chunk(
        [(lambda: field, seed, seed + 7)], s, trials, max(4, trials // 4),
        res.POWER_ITERS)[0]
    _, _, (hv, l2v, h1v), (hf, l2f, _) = _reference_trials(field, ref, s,
                                                           trials, seed)
    _, _, (hp, l2p, _), _ = _reference_trials(field, ref, s, 1, seed + 7)
    expect = (max(res._worst(hv / hf), gain), res._worst(hv / (hf + l2v)),
              res._worst(l2v / (h1v + l2f)), float(hp[0] / l2p[0]))
    assert np.array_equal((g_hf, g_pd, absorb, ratio), expect)


def test_power_iteration_memory(jx, front, geom):
    # the hat-Gram matrix and its Cholesky factor stay real: a complex copy
    # of either (as large as two real ones) takes the traced peak of a call
    # past four real m x m arrays
    fp = res.FrequencyPoint(np.zeros(0), 0.5 + 15.65j)
    field = res.assemble_G(jx, front, fp, geom=geom)
    # one point, its power iteration started from 4 forcings of seed 0; the
    # first call factors the operator and builds the grid's stiffness
    # matrix, both kept for later calls
    point = [(lambda: field, -1, None)]
    res._sweep_chunk(point, 1, 0, 4, res.POWER_ITERS)
    tracemalloc.start()
    try:
        res._sweep_chunk(point, 1, 0, 4, res.POWER_ITERS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * geom.n_nodes ** 2 * 8


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_point_lapack_work(jx, front, geom, monkeypatch, threads):
    # perfbench/tracing.py counts LAPACK work through these two module
    # bindings, reading the matrix and the right-hand side from the
    # positional arguments: a point that bypasses them, or solves more
    # columns, fails here
    monkeypatch.setenv("RELAXSTAB_THREADS", threads)
    counts = {"factorizations": 0, "columns": 0}
    lock = threading.Lock()
    factor, solve = res.lu_factor, res.lu_solve

    def counted_factor(*args, **kwargs):
        with lock:
            counts["factorizations"] += 1
        return factor(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        with lock:
            counts["columns"] += 1 if args[1].ndim == 1 else args[1].shape[1]
        return solve(*args, **kwargs)

    monkeypatch.setattr(res, "lu_factor", counted_factor)
    monkeypatch.setattr(res, "lu_solve", counted_solve)
    # at 161 nodes each point is a chunk of its own
    grid = [res.FrequencyPoint(np.zeros(0), lam)
            for lam in (0.5 + 15.65j, 0.5 + 60j)]
    res.verify_equivalence(
        lambda fp: res.assemble_G(jx, front, fp, geom=geom), 1, grid,
        gamma_star=-0.25, trials=4, seed=0)
    # per point: 4 trial columns, 4 more for the gain estimate, then 10
    # power steps of an adjoint and a forward solve (the first step starts
    # from the batch's solution of the best forcing)
    assert counts == {"factorizations": 2, "columns": 2 * 28}


# ------------------------------------------- single columns by trsv ----

def test_row_permutation_reproduces_lu(front_field):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    lu, piv = lu_factor(A)
    lu_M, _, perm_M = front_field.bvp().lu
    for A, lu, perm in ((A, lu, _lapack.row_permutation(piv)),
                        (_ReferenceOperator(front_field).M, lu_M, perm_M)):
        assert sorted(perm.tolist()) == list(range(len(A)))
        LU = (np.tril(lu, -1) + np.eye(len(lu))) @ np.triu(lu)
        assert np.allclose(A[perm], LU, rtol=0,
                           atol=1e-12 * np.max(np.abs(A)))


@pytest.mark.parametrize("which", ["front", "transverse"])
def test_single_column_solves_match_scipy(which, front_field):
    field = front_field if which == "front" else _transverse_field()
    factors = field.bvp().lu
    lu, piv, _ = factors
    rng = np.random.default_rng(12)
    B = rng.standard_normal((len(lu), 3)) + 1j * rng.standard_normal(
        (len(lu), 3))
    for trans in (0, 2):
        b = B[:, 0].copy()
        x = res.lu_solve(factors, b, trans=trans)
        ref = lu_solve((lu, piv), b, trans=trans)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        # a stack still takes one getrs call, bit for bit
        assert np.array_equal(res.lu_solve(factors, B.copy(order="F"),
                                           trans=trans),
                              lu_solve((lu, piv), B, trans=trans))


def test_power_iteration_solves_single_columns(jx, front, geom, monkeypatch):
    # the power iteration's 10 adjoint and 10 forward solves of a point
    # reach lu_solve as 1-D right-hand sides, the triangular path
    counts = {"single": 0, "stacked": 0}
    lock = threading.Lock()
    solve = res.lu_solve

    def counted_solve(factors, b, trans):
        with lock:
            if b.ndim == 1:
                counts["single"] += 1
            else:
                counts["stacked"] += b.shape[1]
        return solve(factors, b, trans=trans)

    monkeypatch.setattr(res, "lu_solve", counted_solve)
    # at 161 nodes each point is a chunk of its own
    grid = [res.FrequencyPoint(np.zeros(0), lam)
            for lam in (0.5 + 15.65j, 0.5 + 60j)]
    res.verify_equivalence(
        lambda fp: res.assemble_G(jx, front, fp, geom=geom), 1, grid,
        gamma_star=-0.25, trials=4, seed=0)
    assert counts == {"single": 2 * 20, "stacked": 2 * 8}



# --------------------------------------------------- chunks in lockstep ----

def test_sweep_chunk_layout(jx, front, monkeypatch):
    # a chunk holds as many consecutive points as fit CHUNK_BYTES of
    # collocation matrices, at least one, and chunks run on one thread per
    # chunk at most
    monkeypatch.setenv("RELAXSTAB_THREADS", "2")
    kernel = res._sweep_chunk
    chunks, threads = [], set()

    def recording_kernel(points, *args):
        chunks.append(len(points))
        threads.add(threading.get_ident())
        return kernel(points, *args)

    monkeypatch.setattr(res, "_sweep_chunk", recording_kernel)
    for n_nodes, n_points, sizes in ((43, 9, [9]), (161, 3, [1, 1, 1])):
        geom = res.CollocationGrid(n_nodes=n_nodes, length=20.0)
        grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
                for tau in np.linspace(0.0, 10.0, n_points)]
        chunks.clear()
        threads.clear()
        res.verify_equivalence(
            lambda fp: res.assemble_G(jx, front, fp, geom=geom), 1, grid,
            gamma_star=-0.25, trials=2, seed=0)
        assert chunks == sizes
        assert len(threads) == min(2, len(sizes))


def test_one_chunk_sweep_runs_on_the_calling_thread(jx, front, monkeypatch):
    # a sweep of one chunk starts no thread, whatever RELAXSTAB_THREADS says
    monkeypatch.setenv("RELAXSTAB_THREADS", "2")
    kernel = res._sweep_chunk
    threads = []

    def recording_kernel(points, *args):
        threads.append(threading.get_ident())
        return kernel(points, *args)

    monkeypatch.setattr(res, "_sweep_chunk", recording_kernel)
    geom = res.CollocationGrid(n_nodes=43, length=20.0)
    grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
            for tau in np.linspace(0.0, 10.0, 9)]
    res.verify_equivalence(
        lambda fp: res.assemble_G(jx, front, fp, geom=geom), 1, grid,
        gamma_star=-0.25, trials=2, seed=0)
    assert threads == [threading.get_ident()]


def _failing_sweep(jx, front, geom, fails):
    """Sweep four one-point chunks (161 nodes) on two threads, the fields of
    points 1 and 2 assembled at once on different threads; the field of a
    point for which ``fails(i)`` holds raises :class:`NumericError`.
    Returns the error and ``{point: thread}`` of the fields assembled."""
    both = threading.Barrier(2, timeout=30)
    threads = {}

    def family(fp):
        i = int(fp.lam.imag)
        threads[i] = threading.get_ident()
        if i in (1, 2):
            both.wait()
        if fails(i):
            if i == 1:
                time.sleep(0.05)    # the later chunk fails first
            raise NumericError(f"field of point {i}")
        return res.assemble_G(jx, front, fp, geom=geom)

    grid = [res.FrequencyPoint(np.zeros(0), complex(0.5, tau))
            for tau in range(4)]
    with pytest.raises(NumericError) as err:
        res.verify_equivalence(family, 1, grid, gamma_star=-0.25, trials=2,
                               seed=0)
    assert threads[1] != threads[2]
    return str(err.value), threads


@pytest.mark.parametrize("on_caller", [True, False])
def test_sweep_raises_a_failing_chunk_of_either_thread(jx, front, geom,
                                                       monkeypatch, on_caller):
    monkeypatch.setenv("RELAXSTAB_THREADS", "2")
    caller = threading.get_ident()
    failed = []

    def fails(i):
        if i in (1, 2) and (threading.get_ident() == caller) == on_caller:
            failed.append(i)
            return True
        return False

    message, _ = _failing_sweep(jx, front, geom, fails)
    assert len(failed) == 1 and message == f"field of point {failed[0]}"


def test_sweep_raises_the_earliest_failing_chunk(jx, front, geom,
                                                 monkeypatch):
    # points 1 and 2 fail on different threads, point 2 first: point 1's
    # error wins, and no thread starts point 3 after a failure
    monkeypatch.setenv("RELAXSTAB_THREADS", "2")
    message, threads = _failing_sweep(jx, front, geom,
                                      lambda i: i in (1, 2))
    assert message == "field of point 1"
    assert 3 not in threads


def _chunk_points(fields, lams):
    """Kernel points of ``fields`` (by lambda) with the sweep's seeds."""
    return [(lambda lam=lam: fields[lam], 1000 * i,
             7 * i if abs(lam) <= res.BOUNDED_CUT else None)
            for i, lam in enumerate(lams)]


def test_chunk_matches_its_points_alone(jx, front):
    # a singular-set point (lambda = 0), a bounded point with a probe and
    # large-|lambda| points in one chunk: each gets the bits it gets alone
    geom = res.CollocationGrid(n_nodes=65, length=30.0)
    lams = (0.0, 1.0 + 1.0j, 0.5 + 15.65j, 300.0, 2.0)
    fields = {lam: res.assemble_G(jx, front,
                                  res.FrequencyPoint(np.zeros(0), lam),
                                  geom=geom)
              for lam in lams}
    points = _chunk_points(fields, lams)
    together = res._sweep_chunk(points, 1, 4, 4, res.POWER_ITERS)
    alone = [res._sweep_chunk([p], 1, 4, 4, res.POWER_ITERS)[0]
             for p in points]
    assert isinstance(together[0], str) and together[0] == alone[0]
    for a, b in zip(together[1:], alone[1:]):
        assert np.array_equal(a, b)
    assert together[1][3] > 0 and together[2][3] == 0.0   # probe, none


def _supersonic_fields():
    """Fields of two supersonic transport modes: both limit eigenvalues are
    stable for Re lambda > 0 and unstable for Re lambda < 0, so the points
    split into rank groups (2, 0) and (0, 2)."""
    sys = transport_system([[1.0, 0.0], [0.0, 2.0]], n=2)
    p = prof.WaveProfile(grid=np.linspace(-20, 20, 11),
                         values=np.zeros((11, 2)), derivs=np.zeros((11, 2)),
                         speed=0.0, endstates=(np.zeros(2), np.zeros(2)),
                         decay_rate=0.0, tol_end=1e-8)
    geom = res.CollocationGrid(n_nodes=33, length=20.0)
    lams = (1.0, -0.5 + 2.0j, 3.0 + 1.0j, -0.25)
    fields = {lam: res.assemble_G(sys, p,
                                  res.FrequencyPoint(np.zeros(0), lam),
                                  geom=geom)
              for lam in lams}
    assert [fields[lam].bvp().ranks for lam in lams] == [(2, 0), (0, 2),
                                                         (2, 0), (0, 2)]
    return fields, lams


def test_chunk_with_unequal_ranks_matches_its_points_alone():
    # the kernel runs each rank group as a chunk of its own
    fields, lams = _supersonic_fields()
    points = _chunk_points(fields, lams)
    together = res._sweep_chunk(points, 0, 4, 4, res.POWER_ITERS)
    alone = [res._sweep_chunk([q], 0, 4, 4, res.POWER_ITERS)[0]
             for q in points]
    for a, b in zip(together, alone):
        assert np.array_equal(a, b)


def test_chunk_rejects_points_of_other_ranks():
    # a chunk projects the end rows of its stack with one pair of ranks
    fields, lams = _supersonic_fields()
    with pytest.raises(ValueError, match="ranks"):
        res._Chunk([fields[lam].bvp() for lam in lams[:2]])


def _shifted_grid(shift):
    grid = res.CollocationGrid(n_nodes=33, length=20.0)
    grid.x = grid.x + shift
    return grid


def test_chunk_of_vanishing_forcings_gives_zero_gains(jx, front):
    # every bump underflows, as on the far grid of
    # test_random_forcings_are_bump_by_bump_sums: every forcing, solution
    # and power-iteration field is zero, and every point reports no gain
    geom = _shifted_grid(1e3)
    lams = (1.0 + 1.0j, 0.5 + 15.65j, 300.0)
    fields = {lam: res.assemble_G(jx, front,
                                  res.FrequencyPoint(np.zeros(0), lam),
                                  geom=geom)
              for lam in lams}
    points = _chunk_points(fields, lams)
    with np.errstate(invalid="ignore"):      # the gains of zero fields: 0/0
        together = res._sweep_chunk(points, 1, 4, 4, res.POWER_ITERS)
        alone = [res._sweep_chunk([p], 1, 4, 4, res.POWER_ITERS)[0]
                 for p in points]
    assert together == alone == [(0.0, 0.0, 0.0, 0.0)] * len(lams)


def test_live_point_beside_a_vanishing_one_gets_its_bits_alone(jx, front):
    # at this shift the forcings from seeds 121 and 122 underflow at every
    # node, those from seeds 60 and 61 peak near 1e-120: the first point
    # rides along as zero fields, the second gets its gains, and the
    # envelope of the power iteration underflows too, so its step forcing
    # vanishes at the first step
    geom = _shifted_grid(72.5)
    fields = [res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), lam),
                             geom=geom)
              for lam in (0.5 + 3.0j, 0.5 + 15.65j)]
    points = [(lambda: fields[0], 121, None), (lambda: fields[1], 60, None)]
    with np.errstate(invalid="ignore"):
        together = res._sweep_chunk(points, 1, 1, 1, res.POWER_ITERS)
        alone = [res._sweep_chunk([p], 1, 1, 1, res.POWER_ITERS)[0]
                 for p in points]
    assert together[0] == (0.0, 0.0, 0.0, 0.0)
    assert min(together[1][:3]) > 0 and together[1][3] == 0.0   # no probe
    for a, b in zip(together, alone):
        assert np.array_equal(a, b)


def test_sweep_rejects_fields_on_different_grids(jx, front):
    # a chunk stacks its points' node arrays: an equal grid built per point
    # is fine, a grid of another size is a caller error
    grid = [res.FrequencyPoint(np.zeros(0), lam) for lam in (0.5, 0.5 + 3j)]

    def family(sizes):
        nodes = dict(zip((fp.lam for fp in grid), sizes))
        return lambda fp: res.assemble_G(
            jx, front, fp,
            geom=res.CollocationGrid(n_nodes=nodes[fp.lam], length=20.0))

    sweep = res.verify_equivalence(family((33, 33)), 1, grid, trials=2,
                                   seed=0)
    assert np.all(np.isfinite(sweep.hfres_gain))
    with pytest.raises(ValueError, match="one collocation grid"):
        res.verify_equivalence(family((33, 43)), 1, grid, trials=2, seed=0)


CONCURRENT_SOLVES = """
import threading
import numpy as np
from relaxstab import profile as prof, resolvent as res, systems
field = res.assemble_G(systems.jin_xin(2.0),
                       prof.solve_profile_jinxin(2.0, 1.0, 0.0),
                       res.FrequencyPoint(np.zeros(0), 0.5 + 3j),
                       geom=res.CollocationGrid(n_nodes=161, length=50.0))
rng = np.random.default_rng(0)
F = rng.standard_normal((2, 161, 2)) + 1j * rng.standard_normal((2, 161, 2))
serial = field.bvp().solve(F)
same = []

def work():
    same.append(all(np.array_equal(field.bvp().solve(F), serial)
                    for _ in range(1500)))

threads = [threading.Thread(target=work) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert same == [True, True], same
"""


def test_concurrent_solves_on_one_field():
    # getrs shifts the pivots it is given while it runs; two threads that
    # shared them corrupted the heap and killed the interpreter, so the
    # solves run in a fresh one
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(res.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", CONCURRENT_SOLVES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_concurrent_first_bvp_calls_factor_once(jx, front, monkeypatch):
    # two threads ask a fresh field for its operator at once; the first
    # factorization is slowed down so that the second arrives while it runs
    field = res.assemble_G(jx, front, res.FrequencyPoint(np.zeros(0), 0.5),
                           geom=res.CollocationGrid(n_nodes=33, length=20.0))
    factor = res.lu_factor
    calls = []

    def slow_factor(*args, **kwargs):
        calls.append(threading.get_ident())
        time.sleep(0.2)
        return factor(*args, **kwargs)

    monkeypatch.setattr(res, "lu_factor", slow_factor)
    start = threading.Barrier(2)
    ops = []

    def work():
        start.wait(timeout=30)
        ops.append(field.bvp())

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(calls) == 1
    assert ops[0] is ops[1]
