# relaxstab before numpy: its import pins OpenBLAS to one thread, as in the
# CLI, and that only takes effect before numpy loads the library
import relaxstab  # noqa: F401  isort: skip

import numpy as np
import pytest

from relaxstab import dichotomy as dich
from relaxstab import profile as prof
from relaxstab import resolvent as res
from relaxstab import symmetrizer as symm
from relaxstab import systems
from relaxstab.model import per_state


def logistic_u(x, a=2.0, u_minus=1.0, u_plus=0.0):
    """Closed-form first component of the standard test front."""
    s = 0.5 * (u_minus + u_plus)
    kappa = (u_minus - u_plus) / (2.0 * (a * a - s * s))
    return u_plus + (u_minus - u_plus) / (1.0 + np.exp(kappa * np.asarray(x)))


@pytest.fixture(scope="session")
def jx():
    return systems.jin_xin(2.0)


@pytest.fixture(scope="session")
def front(jx):
    return prof.solve_profile_jinxin(2.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def sv_front():
    # Saint-Venant hydraulic front between two equilibria: a nonlinear flux
    sv = systems.saint_venant(1.5)
    h1, h2 = 1.2, 1.0
    speed = (h1 ** 1.5 - h2 ** 1.5) / (h1 - h2)     # jump condition
    p = prof.solve_profile_shooting(sv, np.array([h1, h1 ** 1.5]),
                                    np.array([h2, h2 ** 1.5]), speed,
                                    L=30.0, n_points=801)
    return sv, p


@pytest.fixture(scope="session")
def geom():
    return res.CollocationGrid(n_nodes=161, length=50.0)


@pytest.fixture(scope="session")
def front_field(jx, front, geom):
    fp = res.FrequencyPoint(np.zeros(0), 2.0 + 0.0j)
    return res.assemble_G(jx, front, fp, geom=geom)


@pytest.fixture(scope="session")
def front_dichotomy(front_field):
    return dich.propagate_subspaces(front_field, seed=0)


@pytest.fixture(scope="session")
def front_symmetrizer(front_dichotomy):
    data = front_dichotomy
    forms = symm.lyapunov_Q(data.grid, data.lambda_plus, data.lambda_minus)
    return symm.assemble_symmetrizer(data.frame, forms)


def one_point_chunk(field):
    """The LU-factored collocation operator of ``field``: a chunk of one
    point."""
    return res._Chunk([field], [field.limit_splits()])


def chunk_solve(chunk, f, apply_a1inv=True):
    """Solve ``v' = G v + rhs`` with a one-point ``chunk`` for one forcing
    ``(m, n)`` (a single column) or a stack ``(T, m, n)`` (one multi-column
    solve); returns node values of the same shape."""
    f = np.asarray(f, dtype=complex)
    if f.ndim == 3:
        return chunk.solve(f, [len(f)], apply_a1inv)
    return chunk.solve(f[None], None, apply_a1inv)[0]


def transport_system(A_stack, n, d=1):
    """Linear system with constant flux Jacobians and zero relaxation."""
    A = np.asarray(A_stack, dtype=float).reshape(d, n, n)
    return systems.SystemSpec(
        n=n, d=d,
        flux_jac=per_state(lambda w: A),
        relax_jac=per_state(lambda w: np.zeros((n, n))),
        relax=per_state(lambda w: np.zeros(n)),
        name="transport")
