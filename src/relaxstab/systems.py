"""Built-in example systems and the by-name registry used by the CLI.

Provided systems:

``jin_xin``             u_t + v_x = 0,  v_t + a^2 u_x = f(u) - v, Burgers
                        flux f(u) = u^2/2; the minimal nontrivial relaxation
                        system with explicit front profiles.
``jin_xin_2d``          two-dimensional variant with an extra transverse
                        auxiliary field: u_t + v_x + z_y = 0,
                        v_t + a^2 u_x = f(u) - v, z_t + a^2 u_y = f(u) - z.
``saint_venant``        inclined shallow water with Chezy friction in
                        nondimensional form, w = (h, q):
                        h_t + q_x = 0,
                        q_t + (q^2/h + h^2/(2F^2))_x = h - q^2/h^2.
``partially_damped``    Jin-Xin coupled with an undamped transport field
                        z_t + c z_x = 0; genuine coupling fails by
                        construction.

Every evaluator takes one state ``(n,)`` or a stack ``(..., n)`` (see
:class:`~relaxstab.model.SystemSpec`), and a state is an equilibrium of a
system where its ``relax`` vanishes.  Custom systems register through
:func:`register_system`.
"""

import inspect

import numpy as np

from .errors import ModelError
from .model import SystemSpec

__all__ = [
    "jin_xin",
    "jin_xin_2d",
    "saint_venant",
    "partially_damped",
    "register_system",
    "make_system",
    "SYSTEM_REGISTRY",
]


def _entries(w, shape, values):
    """Array of shape ``w.shape[:-1] + shape`` filled in C order from
    ``values``, each a scalar or an array over the stack of states ``w``."""
    out = np.empty(w.shape[:-1] + (len(values),))
    for k, value in enumerate(values):
        out[..., k] = value
    return out.reshape(w.shape[:-1] + shape)


def _constant(w, M):
    """The matrix stack ``M`` repeated over the stack of states ``w``."""
    return np.broadcast_to(M, np.shape(w)[:-1] + M.shape)


def jin_xin(a=2.0):
    """Jin-Xin relaxation of the Burgers equation with frozen speed ``a``."""
    if a <= 0:
        raise ModelError("jin_xin requires a > 0")
    a2 = float(a) ** 2
    A1 = np.array([[[0.0, 1.0], [a2, 0.0]]])

    def flux_jac(w):
        return _constant(w, A1)

    def relax_jac(w):
        return _entries(w, (2, 2), [0.0, 0.0, w[..., 0], -1.0])

    def relax(w):
        u = w[..., 0]
        return _entries(w, (2,), [0.0, 0.5 * (u * u) - w[..., 1]])

    return SystemSpec(n=2, d=1, flux_jac=flux_jac, relax_jac=relax_jac,
                      relax=relax, name="jin_xin", params={"a": float(a)})


def jin_xin_2d(a=2.0):
    """Planar two-dimensional Jin-Xin variant, state ``(u, v, z)``."""
    if a <= 0:
        raise ModelError("jin_xin_2d requires a > 0")
    a2 = float(a) ** 2
    A1 = np.array([[0.0, 1.0, 0.0], [a2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [a2, 0.0, 0.0]])
    A = np.stack([A1, A2])

    def flux_jac(w):
        return _constant(w, A)

    def relax_jac(w):
        u = w[..., 0]
        return _entries(w, (3, 3), [0.0, 0.0, 0.0, u, -1.0, 0.0, u, 0.0, -1.0])

    def relax(w):
        u = w[..., 0]
        f = 0.5 * (u * u)
        return _entries(w, (3,), [0.0, f - w[..., 1], f - w[..., 2]])

    return SystemSpec(n=3, d=2, flux_jac=flux_jac, relax_jac=relax_jac,
                      relax=relax, name="jin_xin_2d", params={"a": float(a)})


def saint_venant(froude=1.5):
    """Inclined shallow water with Chezy friction, Froude number ``froude``.

    Equilibria are ``q = h^{3/2}`` (slope balancing friction); the uniform
    flow ``(1, 1)`` destabilizes at high frequency for ``froude > 2``.
    The flux Jacobian raises :class:`ModelError` when any state of a stack
    has ``h <= 0``.
    """
    if froude <= 0:
        raise ModelError("saint_venant requires froude > 0")
    F2 = float(froude) ** 2

    def flux_jac(w):
        h, q = w[..., 0], w[..., 1]
        if np.any(h <= 0):
            raise ModelError("saint_venant requires h > 0")
        u = q / h
        return _entries(w, (1, 2, 2), [0.0, 1.0, -(u * u) + h / F2, 2.0 * u])

    def relax_jac(w):
        h, q = w[..., 0], w[..., 1]
        return _entries(w, (2, 2), [0.0, 0.0,
                                    1.0 + 2.0 * (q * q) / (h * h * h),
                                    -2.0 * q / (h * h)])

    def relax(w):
        h, q = w[..., 0], w[..., 1]
        return _entries(w, (2,), [0.0, h - (q * q) / (h * h)])

    return SystemSpec(n=2, d=1, flux_jac=flux_jac, relax_jac=relax_jac,
                      relax=relax, name="saint_venant",
                      params={"froude": float(froude)})


def partially_damped(a=2.0, c=1.0):
    """Jin-Xin plus an undamped transport field ``z_t + c z_x = 0``."""
    a2 = float(a) ** 2
    A1 = np.array([[[0.0, 1.0, 0.0], [a2, 0.0, 0.0], [0.0, 0.0, float(c)]]])

    def flux_jac(w):
        return _constant(w, A1)

    def relax_jac(w):
        return _entries(w, (3, 3),
                        [0.0, 0.0, 0.0, w[..., 0], -1.0, 0.0, 0.0, 0.0, 0.0])

    def relax(w):
        u = w[..., 0]
        return _entries(w, (3,), [0.0, 0.5 * (u * u) - w[..., 1], 0.0])

    return SystemSpec(n=3, d=1, flux_jac=flux_jac, relax_jac=relax_jac,
                      relax=relax, name="partially_damped",
                      params={"a": float(a), "c": float(c)})


SYSTEM_REGISTRY = {
    "jin_xin": jin_xin,
    "jin_xin_2d": jin_xin_2d,
    "saint_venant": saint_venant,
    "partially_damped": partially_damped,
}


def register_system(name, factory):
    """Register a custom system factory for by-name CLI selection."""
    if not callable(factory):
        raise TypeError("factory must be callable")
    SYSTEM_REGISTRY[name] = factory


def make_system(name, params=None):
    """Instantiate a registered system from its name and parameter map."""
    try:
        factory = SYSTEM_REGISTRY[name]
    except KeyError:
        raise ModelError(f"unknown system {name!r}; registered: "
                         f"{sorted(SYSTEM_REGISTRY)}") from None
    params = params or {}
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ModelError(f"system {name!r}: {exc}") from None
    return factory(**params)
