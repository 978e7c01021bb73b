"""Steady traveling-wave profiles in the co-moving frame.

A profile is a heteroclinic solution of the first-order system

    (A_1(w) - s*I) w' = r(w),

connecting equilibrium endstates ``w_-`` and ``w_+``.  For the built-in
Jin-Xin system the scalar reduction ``(a^2 - s^2) u' = f(u) - s u - c0`` has
a closed-form logistic solution; general systems are handled by shooting
along the (one-dimensional) unstable manifold of ``w_-``.

Phase normalization: the component with the largest endstate jump equals the
midpoint of its endstate values at ``x = 0``.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ModelError
from .systems import jin_xin
from .tables import write_csv

__all__ = [
    "WaveProfile",
    "solve_profile_jinxin",
    "solve_profile_shooting",
    "save_profile",
    "load_profile",
]

PROFILE_SCHEMA_VERSION = 1
# shooting starts this far (relative to the endstate jump) from w_minus
# along its unstable direction
SEED_OFFSET = 1e-10


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    overshoot = (~flip & (np.sign(m0) != np.sign(m1))
                 & (np.abs(d) > 3.0 * np.abs(m0)))
    d[flip] = 0.0
    d[overshoot] = 3.0 * m0[overshoot]
    return d


class _Pchip:
    """Monotone piecewise-cubic (PCHIP) interpolant of the columns of ``y``.

    The same numbers as scipy's ``PchipInterpolator`` (checked bit for bit
    by the tests): Fritsch-Carlson slopes by weighted harmonic mean, the
    limited one-sided end slopes, the cubic Hermite coefficients and the
    polynomial evaluation order of ``PPoly``.  Extrapolates the end cubics.
    """

    def __init__(self, x, y):
        h = np.diff(x)[:, None]
        mk = np.diff(y, axis=0) / h
        d = np.empty_like(y)
        if y.shape[0] == 2:
            d[:] = mk
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = ((np.sign(mk[1:]) != np.sign(mk[:-1]))
                    | (mk[1:] == 0) | (mk[:-1] == 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = _pchip_end_slope(h[0], h[1], mk[0], mk[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], mk[-1], mk[-2])
        t = (d[:-1] + d[1:] - 2 * mk) / h
        self.x = x
        self.c = (t / h, (mk - d[:-1]) / h - t, d[:-1], y[:-1])

    def __call__(self, xs):
        i = np.clip(np.searchsorted(self.x, xs, side="right") - 1,
                    0, self.x.size - 2)
        s = (xs - self.x[i])[:, None]
        c0, c1, c2, c3 = (c[i] for c in self.c)
        # PPoly's order; starting from 0.0 turns a -0.0 coefficient into +0.0
        return (((0.0 + c3) + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)


@dataclass(eq=False)
class WaveProfile:
    """Discretized steady profile with monotone-cubic interpolation.

    Treated as immutable after construction; safe to share across threads.
    """

    grid: np.ndarray             # strictly increasing nodes on [-L, L]
    values: np.ndarray           # (m, n) states wbar(x_i)
    derivs: np.ndarray           # (m, n) d/dx wbar(x_i)
    speed: float
    endstates: tuple             # (w_minus, w_plus)
    decay_rate: float            # fitted exponential approach rate
    tol_end: float               # endstate approach tolerance satisfied at +-L
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.derivs = np.atleast_2d(np.asarray(self.derivs, dtype=float))
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("profile grid must be strictly increasing")
        if (self.grid.size < 2 or self.values.shape[0] != self.grid.size
                or self.derivs.shape != self.values.shape):
            raise ValueError("profile needs (m, n) values and derivatives "
                             "on m >= 2 grid nodes")
        if not (np.all(np.isfinite(self.values))
                and np.all(np.isfinite(self.derivs))):
            raise ValueError("profile values and derivatives must be finite")
        self.endstates = (np.asarray(self.endstates[0], dtype=float),
                          np.asarray(self.endstates[1], dtype=float))
        self._val_interp = _Pchip(self.grid, self.values)
        self._der_interp = _Pchip(self.grid, self.derivs)

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def length(self):
        return float(self.grid[-1])

    @property
    def end_error(self):
        """Measured endstate approach at the domain ends (sup norm)."""
        return max(float(np.max(np.abs(self.values[0] - self.endstates[0]))),
                   float(np.max(np.abs(self.values[-1] - self.endstates[1]))))

    def sample(self, x):
        """State and derivative at ``x``; clamps to endstates beyond +-L."""
        w, wp = self.sample_many([x])
        return w[0], wp[0]

    def sample_many(self, xs):
        """States and derivatives ``(m, n)`` at a 1-d array of points;
        clamps to the endstates beyond +-L."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise ValueError("sample points must be finite")
        w = self._val_interp(xs)
        wp = self._der_interp(xs)
        lo = xs < self.grid[0]
        hi = xs > self.grid[-1]
        w[lo] = self.endstates[0]
        w[hi] = self.endstates[1]
        wp[lo] = 0.0
        wp[hi] = 0.0
        return w, wp


def _fit_decay_rate(grid, values, endstates):
    """Log-linear fit of the endstate approach rate on both tails."""
    m = grid.size
    tail = max(4, m // 5)
    rates = []
    for sl, w_end in ((slice(0, tail), endstates[0]),
                      (slice(m - tail, m), endstates[1])):
        dist = np.linalg.norm(values[sl] - w_end, axis=1)
        keep = dist > 1e-14
        if np.count_nonzero(keep) >= 3:
            slope = np.polyfit(grid[sl][keep], np.log(dist[keep]), 1)[0]
            rates.append(abs(slope))
    return float(min(rates)) if rates else 0.0


def solve_profile_jinxin(a, u_minus, u_plus, L=None, n_points=2001,
                         tol_end=1e-8):
    """Closed-form Jin-Xin front from the scalar reduction.

    Speed is the Rankine-Hugoniot value ``s = (u_- + u_+)/2``; the profile of
    the first component is the logistic solution of
    ``(a^2 - s^2) u' = (u - u_-)(u - u_+)/2`` and the second component is
    slaved, ``v = s u - u_- u_+ / 2``.  If ``L`` is omitted it is chosen so
    the endstate approach at ``+-L`` is below ``tol_end``.
    """
    u_minus, u_plus = float(u_minus), float(u_plus)
    s = 0.5 * (u_minus + u_plus)
    sys = jin_xin(a)
    c0 = -0.5 * u_minus * u_plus

    if u_minus == u_plus:
        # constant state; no subcharacteristic requirement (no front exists)
        grid = np.linspace(-(L or 20.0), (L or 20.0), n_points)
        w0 = np.array([u_minus, 0.5 * u_minus ** 2])
        values = np.tile(w0, (n_points, 1))
        derivs = np.zeros_like(values)
        return WaveProfile(grid=grid, values=values, derivs=derivs, speed=s,
                           endstates=(w0, w0), decay_rate=0.0, tol_end=tol_end,
                           meta={"system": sys.name, "params": sys.params})
    if a <= max(abs(u_minus), abs(u_plus), abs(s)):
        raise ModelError(
            f"subcharacteristic condition violated: need a > "
            f"max(|u-|, |u+|, |s|) = {max(abs(u_minus), abs(u_plus), abs(s))}")
    if u_minus < u_plus:
        raise ModelError("no front profile for u_- < u_+ (rarefaction data)")

    delta = u_minus - u_plus
    kappa = delta / (2.0 * (a * a - s * s))    # tail decay rate
    if L is None:
        L = float(np.log(delta / tol_end) / kappa)
    grid = np.linspace(-L, L, n_points)
    u = u_plus + delta / (1.0 + np.exp(kappa * grid))
    up = (u - u_minus) * (u - u_plus) / (2.0 * (a * a - s * s))
    values = np.column_stack([u, s * u + c0])
    derivs = np.column_stack([up, s * up])
    w_minus = np.array([u_minus, 0.5 * u_minus ** 2])
    w_plus = np.array([u_plus, 0.5 * u_plus ** 2])
    prof = WaveProfile(grid=grid, values=values, derivs=derivs, speed=s,
                       endstates=(w_minus, w_plus),
                       decay_rate=kappa,
                       tol_end=max(tol_end, delta * np.exp(-kappa * L) * 1.01),
                       meta={"system": sys.name, "params": sys.params})
    return prof


def solve_profile_shooting(sys, w_minus, w_plus, s, L, tol=1e-8,
                           n_points=2001, anchor_value=None):
    """Shooting solution of ``(A_1(w) - s I) w' = r(w)`` between endstates.

    Integrates along the unstable manifold of ``w_-`` (required
    one-dimensional), from ``SEED_OFFSET`` times the endstate jump off
    ``w_-``, until the trajectory reaches ``w_+``, then re-centers so
    the anchor component crosses ``anchor_value`` (endstate midpoint by
    default) at ``x = 0`` and resamples on ``[-L, L]``.
    """
    # the only integration in the package: scipy.integrate and
    # scipy.optimize load here, not on import
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    w_minus = np.asarray(w_minus, dtype=float)
    w_plus = np.asarray(w_plus, dtype=float)
    for tag, w in (("w_minus", w_minus), ("w_plus", w_plus)):
        res = np.linalg.norm(sys.relax(w))
        if res > 1e-10:
            raise ModelError(f"{tag} is not an equilibrium: |r| = {res:.3g}")
    scale = float(np.max(np.abs(np.concatenate([w_minus, w_plus])))) + 1.0
    eye = np.eye(sys.n)

    def rhs(x, w):
        return np.linalg.solve(sys.flux_jacs(w)[0] - s * eye, sys.relax(w))

    if np.allclose(w_minus, w_plus, atol=1e-12 * scale):
        grid = np.linspace(-L, L, n_points)
        values = np.tile(w_minus, (n_points, 1))
        return WaveProfile(grid=grid, values=values, derivs=np.zeros_like(values),
                           speed=float(s), endstates=(w_minus, w_minus),
                           decay_rate=0.0, tol_end=tol,
                           meta={"system": sys.name, "params": sys.params})

    # unstable direction at w_-
    DF = np.linalg.solve(sys.flux_jacs(w_minus)[0] - s * eye,
                         sys.relax_jacobian(w_minus))
    mu, V = np.linalg.eig(DF)
    unstable = np.where(mu.real > 1e-10)[0]
    if unstable.size != 1:
        raise ModelError(
            f"unstable manifold of w_minus has dimension {unstable.size}; "
            "only one-dimensional shooting is supported")
    rate_u = float(mu.real[unstable[0]])
    r_u = V[:, unstable[0]].real
    r_u /= np.linalg.norm(r_u)
    if np.dot(r_u, w_plus - w_minus) < 0:
        r_u = -r_u

    jump = float(np.linalg.norm(w_plus - w_minus))
    eps = SEED_OFFSET * jump
    w0 = w_minus + eps * r_u

    DFp = np.linalg.solve(sys.flux_jacs(w_plus)[0] - s * eye,
                          sys.relax_jacobian(w_plus))
    mup = np.linalg.eigvals(DFp)
    stable = mup.real[mup.real < -1e-10]
    rate_s = float(-np.max(stable)) if stable.size else rate_u

    # enough length to come within seed distance of w_+ and cover [-L, L]
    x_max = (np.log(jump / eps) + 5.0) * (1.0 / rate_u + 1.0 / rate_s) + 4.0 * L

    def reached(x, w):
        return np.linalg.norm(w - w_plus) - eps
    reached.terminal = True

    def escaped(x, w):
        return np.linalg.norm(w - w_minus) - 50.0 * jump
    escaped.terminal = True

    sol = solve_ivp(rhs, (0.0, x_max), w0, method="DOP853", rtol=1e-12,
                    atol=1e-13 * scale, dense_output=True,
                    events=[reached, escaped], max_step=x_max / 50.0)
    if not sol.success:
        raise ConvergenceError(f"profile integration failed: {sol.message}")
    t_end = float(sol.t[-1])
    samples = sol.sol(np.linspace(0.0, t_end, 2000))
    dist = np.linalg.norm(samples - w_plus[:, None], axis=0)
    min_dist = float(dist.min())
    if min_dist > tol * max(1.0, jump):
        raise ConvergenceError(
            "no connection to w_plus found (closest approach "
            f"{min_dist:.3g})", residual=min_dist)

    # phase normalization on the largest-jump component
    comp = int(np.argmax(np.abs(w_plus - w_minus)))
    target = (0.5 * (w_minus[comp] + w_plus[comp]) if anchor_value is None
              else float(anchor_value))

    def g(x):
        return sol.sol(x)[comp] - target

    ts = np.linspace(0.0, t_end, 4000)
    gs = sol.sol(ts)[comp] - target
    crossings = np.where(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)[0]
    if crossings.size == 0:
        raise ConvergenceError("anchor value never crossed along the trajectory")
    i0 = crossings[0]
    x_star = brentq(g, ts[i0], ts[i0 + 1], xtol=1e-13)

    grid = np.linspace(-L, L, n_points)
    shifted = grid + x_star
    values = np.empty((n_points, sys.n))
    inside = (shifted >= 0.0) & (shifted <= t_end)
    if np.any(inside):
        values[inside] = sol.sol(shifted[inside]).T
    values[shifted < 0.0] = w_minus
    values[shifted > t_end] = w_plus
    derivs = np.array([rhs(0.0, w) for w in values])

    prof = WaveProfile(grid=grid, values=values, derivs=derivs, speed=float(s),
                       endstates=(w_minus, w_plus),
                       decay_rate=_fit_decay_rate(grid, values,
                                                  (w_minus, w_plus)),
                       tol_end=tol, meta={"system": sys.name,
                                          "params": sys.params})
    return prof


def save_profile(profile, csv_path, json_path=None):
    """Write the grid/values/derivs as CSV plus a JSON sidecar."""
    json_path = json_path or str(csv_path) + ".json"
    n = profile.n
    header = (["x"] + [f"w_{k + 1}" for k in range(n)]
              + [f"dw_{k + 1}" for k in range(n)])
    write_csv(csv_path, header,
              np.column_stack([profile.grid, profile.values, profile.derivs]))
    sidecar = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "speed": profile.speed,
        "endstates": [profile.endstates[0].tolist(),
                      profile.endstates[1].tolist()],
        "decay_rate": profile.decay_rate,
        "tol_end": profile.tol_end,
        "meta": profile.meta,
    }
    with open(json_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return json_path


def load_profile(csv_path, json_path=None):
    """Rebuild a :class:`WaveProfile` from its CSV/JSON pair."""
    json_path = json_path or str(csv_path) + ".json"
    with open(json_path) as fh:
        sidecar = json.load(fh)
    if sidecar.get("schema_version") != PROFILE_SCHEMA_VERSION:
        from .errors import CompatibilityError
        raise CompatibilityError(
            f"profile sidecar schema {sidecar.get('schema_version')} != "
            f"{PROFILE_SCHEMA_VERSION}")
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            rows.append([float(v) for v in row])
    data = np.asarray(rows)
    n = (len(header) - 1) // 2
    return WaveProfile(grid=data[:, 0], values=data[:, 1:1 + n],
                       derivs=data[:, 1 + n:1 + 2 * n],
                       speed=float(sidecar["speed"]),
                       endstates=(np.asarray(sidecar["endstates"][0]),
                                  np.asarray(sidecar["endstates"][1])),
                       decay_rate=float(sidecar["decay_rate"]),
                       tol_end=float(sidecar["tol_end"]),
                       meta=sidecar.get("meta", {}))
