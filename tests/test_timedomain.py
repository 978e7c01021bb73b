import numpy as np
import numpy.fft as fft
import pytest
from scipy.linalg import expm

from relaxstab import profile as prof
from relaxstab import systems
from relaxstab import timedomain as td
from relaxstab.errors import CertificateError, InstabilityError, StepError


@pytest.fixture(scope="module")
def front_run(jx, front):
    v0 = td.gaussian_initial_data([1.0, 0.5], amplitude=1e-3, width=3.0)
    return td.run_simulation(jx, front, v0, t_final=15.0, L_sim=50.0,
                             n_points=801, store_history=True,
                             sample_every=10)


# --------------------------------------------------------------- stepping ----

def test_zero_stays_zero(jx, front):
    sim = td.make_sim(jx, front, lambda x: np.zeros(2), L_sim=30.0,
                      n_points=201)
    for _ in range(5):
        sim = td.step(sim, 0.05)
    assert np.max(np.abs(sim.v)) == 0.0


def test_cfl_violation_raises(jx, front):
    sim = td.make_sim(jx, front, lambda x: np.zeros(2), L_sim=30.0,
                      n_points=201)
    with pytest.raises(StepError, match="CFL"):
        td.step(sim, 10.0)


def test_blowup_raises(front):
    # relaxation Jacobian with the wrong sign makes the zero state repelling
    bad = systems.SystemSpec(
        n=2, d=1,
        flux_jac=lambda w: np.array([[[0.0, 1.0], [4.0, 0.0]]]),
        relax_jac=lambda w: 6.0 * np.eye(2),
        equilibria=lambda w: True, relax=lambda w: np.zeros(2),
        name="antidamped")
    v0 = td.gaussian_initial_data([1.0, 0.0], amplitude=1.0, width=3.0)
    with pytest.raises(InstabilityError):
        td.run_simulation(bad, front, v0, t_final=8.0, L_sim=30.0,
                          n_points=201)


def test_front_run_decays_and_respects_boundary(front_run):
    sim, trace, _ = front_run
    assert trace.E_values[-1] < 0.5 * trace.E_values[0]
    assert sim.boundary_ok()


def test_scheme_order_against_fourier_oracle(jx):
    # constant-coefficient linearized evolution vs exact symbol exponential
    pc = prof.solve_profile_jinxin(2.0, 0.3, 0.3, L=50.0, n_points=401)
    T = 4.0
    errs = []
    for n_points in (401, 801):
        sim, _, _ = td.run_simulation(
            jx, pc, td.gaussian_initial_data([1.0, 0.0], amplitude=1.0,
                                             width=4.0),
            t_final=T, L_sim=50.0, n_points=n_points, sample_every=10 ** 9)
        Nb, Lb = 2 ** 13, 200.0
        xb = np.linspace(-Lb, Lb, Nb, endpoint=False)
        vb0 = np.exp(-(xb / 4.0) ** 2)[:, None] * np.array([1.0, 0.0])
        A1 = np.array([[0.0, 1.0], [4.0, 0.0]]) - pc.speed * np.eye(2)
        E = np.array([[0.0, 0.0], [-0.3, 1.0]])
        xi = 2 * np.pi * fft.fftfreq(Nb, d=xb[1] - xb[0])
        vh = fft.fft(vb0, axis=0)
        out = np.empty_like(vh)
        for k in range(Nb):
            out[k] = expm((-1j * xi[k] * A1 - E) * T) @ vh[k]
        vex = fft.ifft(out, axis=0).real
        vex_i = np.column_stack([np.interp(sim.grid, xb, vex[:, 0]),
                                 np.interp(sim.grid, xb, vex[:, 1])])
        errs.append(np.max(np.abs(sim.v - vex_i)))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9


# ----------------------------------------------------------------- energy ----

def test_energy_zero_state():
    grid = np.linspace(-10, 10, 101)
    E, L2 = td.measure_energy(grid, np.zeros((101, 2)), s=2)
    assert E == 0.0 and L2 == 0.0


def test_energy_sine_discrete_parseval():
    k = 2.0
    m = 256
    L = np.pi
    grid = np.linspace(-L, L, m, endpoint=False)
    h = grid[1] - grid[0]
    v = np.sin(k * grid)[:, None]
    E, L2 = td.measure_energy(grid, v, s=1, periodic=True)
    # centered stencil on the periodic grid: exact discrete factor
    factor = 1.0 + (np.sin(k * h) / h) ** 2
    assert E == pytest.approx(factor * L2, rel=1e-12)
    # continuum factor reached at the discretization order
    assert E == pytest.approx((1.0 + k * k) * L2, rel=2 * (k * h) ** 2)


def test_energy_weight_shift_law():
    a = 0.35
    c = 2.0
    grid = np.linspace(-10, 10, 501)
    v = np.exp(-grid ** 2)[:, None]
    shifted = np.exp(-(grid - c) ** 2)[:, None]
    _, l2_base = td.measure_energy(grid, v, s=0, alpha=a)
    _, l2_shift = td.measure_energy(grid, shifted, s=0, alpha=a)
    # direct-summation oracle for the shifted data
    h = grid[1] - grid[0]
    oracle = float(np.sum((np.exp(a * grid) * shifted[:, 0]) ** 2) * h)
    assert l2_shift == pytest.approx(oracle, rel=1e-14)
    # weight law: shifting by c multiplies the weighted norm by ~exp(2 a c)
    assert l2_shift / l2_base == pytest.approx(np.exp(2 * a * c), rel=1e-3)


def test_energy_nesting(front_run):
    _, trace, _ = front_run
    assert np.all(trace.E_values >= trace.L2_values - 1e-300)


def test_energy_rejects_large_s():
    grid = np.linspace(-1, 1, 11)
    with pytest.raises(ValueError):
        td.measure_energy(grid, np.zeros((11, 1)), s=4)


# ------------------------------------------------------- classical damping ----

def _exponential_trace(eta=1.0, T=8.0, n=200):
    t = np.linspace(0.0, T, n)
    E = np.exp(-eta * t)
    return td.EnergyTrace(times=t, E_values=E, L2_values=np.zeros(n),
                          f_values=np.zeros(n))


def test_damping_exact_exponential():
    fit = td.verify_classical_damping(_exponential_trace(eta=1.0))
    assert fit.feasible
    assert fit.eta == pytest.approx(1.0, rel=0.02)
    assert fit.C == pytest.approx(0.0, abs=1e-12)


def test_damping_front_run_feasible(front_run):
    _, trace, _ = front_run
    fit = td.verify_classical_damping(trace)
    assert fit.passed and fit.eta > 0


def test_damping_growing_trace_refuted():
    t = np.linspace(0.0, 5.0, 100)
    trace = td.EnergyTrace(times=t, E_values=np.exp(t),
                           L2_values=np.zeros(100), f_values=np.zeros(100))
    fit = td.verify_classical_damping(trace)
    assert not fit.feasible
    assert fit.refuted_at >= 0


def test_damping_short_trace_rejected():
    t = np.linspace(0.0, 1.0, 3)
    trace = td.EnergyTrace(times=t, E_values=np.ones(3),
                           L2_values=np.zeros(3), f_values=np.zeros(3))
    with pytest.raises(ValueError, match="dense"):
        td.verify_classical_damping(trace)


# ------------------------------------------------------ integrated damping ----

def test_integrated_exact_exponential_tight():
    trace = _exponential_trace(eta=1.0)
    slack = td.verify_integrated_damping(trace, eta=1.0, C=1.0)
    assert -1e-10 <= slack < 1e-3


def test_integrated_front_slack_nonnegative(front_run):
    _, trace, _ = front_run
    fit = td.verify_classical_damping(trace)
    slack = td.verify_integrated_damping(trace, fit.eta, max(1.0, fit.C))
    assert slack >= 0.0


def test_integrated_aggressive_eta_negative_slack():
    trace = _exponential_trace(eta=1.0)
    slack = td.verify_integrated_damping(trace, eta=2.0, C=1.0)
    assert slack < 0.0


# ------------------------------------------------------------- short time ----

def test_short_time_decaying():
    fit = td.verify_short_time(_exponential_trace())
    assert fit.C_short <= 1.0 + 1e-9 and not fit.refuted


def test_short_time_forced_finite(jx, front):
    v0 = td.gaussian_initial_data([1.0, 0.0], amplitude=1e-3, width=3.0)
    f_arr = 1e-4 * np.exp(-np.linspace(-40, 40, 401)[:, None] ** 2 / 9.0) \
        * np.array([0.0, 1.0])[None, :]
    _, trace, _ = td.run_simulation(jx, front, v0, t_final=5.0, L_sim=40.0,
                                    n_points=401, forcing=f_arr)
    fit = td.verify_short_time(trace)
    assert np.isfinite(fit.C_short) and not fit.refuted


def test_short_time_blowup_refuted():
    t = np.linspace(0.0, 5.0, 100)
    trace = td.EnergyTrace(times=t, E_values=np.exp(20 * t),
                           L2_values=np.zeros(100), f_values=np.zeros(100))
    fit = td.verify_short_time(trace, cap=1e8)
    assert fit.refuted


# ----------------------------------------------------------------- cutoffs ----

def test_cutoff_identities():
    cuts = td.CutoffPair(tau_c=2.0, T=10.0)
    assert cuts.chi1(0.0) == 0.0
    assert cuts.chi1(2.0) == 1.0 and cuts.chi1(7.3) == 1.0
    assert cuts.chiT(10.0) == 0.0
    assert cuts.chiT(8.0) == 1.0 and cuts.chiT(1.0) == 1.0
    t = np.linspace(2.0, 8.0, 13)
    assert np.all(cuts.product(t) == 1.0)
    # C^2: derivative vanishes at the ramp ends and matches differences
    h = 1e-6
    for tt in (0.5, 1.5, 8.4, 9.7):
        fd = (cuts.product(tt + h) - cuts.product(tt - h)) / (2 * h)
        assert cuts.product_d(tt) == pytest.approx(fd, abs=1e-6)
    assert cuts.product_d(0.0) == 0.0 and cuts.product_d(10.0) == 0.0


# ------------------------------------------------------ truncation pipeline ----

def test_truncation_zero_history(jx, front):
    sim = td.make_sim(jx, front, lambda x: np.zeros(2), L_sim=20.0,
                      n_points=101)
    K = 40
    hist = td.SimHistory(times=np.linspace(0, 8, K),
                         frames=np.zeros((K, 101, 2)),
                         f_frames=np.zeros((K, 101, 2)), grid=sim.grid,
                         mode="linearized")
    rep = td.truncation_pipeline(hist, td.CutoffPair(2.0, 8.0), gamma=-0.2)
    assert rep.passed
    assert rep.C2_weighted == 0.0 and rep.C_assembled == 0.0


def test_truncation_front_run(front_run):
    _, trace, hist = front_run
    cuts = td.CutoffPair(tau_c=2.0, T=float(trace.times[-1]))
    rep = td.truncation_pipeline(hist, cuts, gamma=-0.17)
    assert rep.passed
    for val in (rep.C2_weighted, rep.C2_plateau, rep.C_front, rep.C_tail,
                rep.C_assembled):
        assert np.isfinite(val) and val >= 0.0


def test_truncation_plateau_identity(front_run):
    _, trace, hist = front_run
    cuts = td.CutoffPair(tau_c=2.0, T=float(trace.times[-1]))
    chi = cuts.product(hist.times)
    plateau = (hist.times >= 2.0) & (hist.times <= cuts.T - 2.0)
    assert np.all(chi[plateau] == 1.0)


def test_truncation_rejects_nonlinear(jx, front):
    hist = td.SimHistory(times=np.linspace(0, 5, 30),
                         frames=np.zeros((30, 11, 2)),
                         f_frames=np.zeros((30, 11, 2)),
                         grid=np.linspace(-1, 1, 11), mode="nonlinear")
    with pytest.raises(CertificateError, match="linearized"):
        td.truncation_pipeline(hist, td.CutoffPair(1.0, 5.0), gamma=-0.1)


def test_gronwall_consistency_on_corpus(front_run):
    # if the differential bound holds with (eta, C), the time-weighted bound
    # at gamma = -eta/2 holds with C2 <= 2 C / eta (checked with headroom,
    # plus the direct-forcing share)
    _, trace, hist = front_run
    fit = td.verify_classical_damping(trace)
    assert fit.feasible
    cuts = td.CutoffPair(tau_c=2.0, T=float(trace.times[-1]))
    rep = td.truncation_pipeline(hist, cuts, gamma=-fit.eta / 2.0)
    bound = 2.0 * (max(fit.C, 1.0) + 1.0) / fit.eta + 1.0
    assert rep.C2_weighted <= 2.0 * bound
