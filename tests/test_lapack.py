import ctypes

import numpy as np
import pytest
import scipy.linalg as sl

from relaxstab import _lapack
from relaxstab import dichotomy as dich
from relaxstab import resolvent as res
from relaxstab import symmetrizer as symm
from relaxstab.errors import CompatibilityError, NumericError


def _recorded(monkeypatch, module, name):
    """Copies of the arguments of every call the package makes to
    ``module.name`` while the test runs."""
    calls = []
    fn = getattr(module, name)

    def record(*args):
        calls.append([np.array(a, order="K") for a in args])
        return fn(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------- bit for bit against scipy.linalg ----
# A scipy release that changes a driver or its work size fails here instead
# of silently moving the outputs.

def test_lu_factor_matches_scipy_on_the_collocation_matrix(jx, front, geom,
                                                           monkeypatch):
    calls = _recorded(monkeypatch, res, "lu_factor")
    fp = res.FrequencyPoint(np.zeros(0), 0.5 + 3j)
    field = res.assemble_G(jx, front, fp, geom=geom)
    lu, piv, _ = field.bvp().lu
    (M,), = calls
    assert M.shape == (322, 322) and M.dtype == complex
    assert M.flags.f_contiguous
    ref_lu, ref_piv = sl.lu_factor(M.copy(order="F"), overwrite_a=True,
                                   check_finite=False)
    assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)


def test_cho_factor_matches_scipy_on_the_hat_gram(geom):
    for s, rho in ((1, 2.0), (2, 60.0)):
        Gm = res._hat_gram(geom, s, rho)
        c = _lapack.cho_factor(Gm)
        assert np.array_equal(c, sl.cho_factor(Gm, check_finite=False)[0])


def test_polar_matches_scipy(front_field, monkeypatch):
    calls = _recorded(monkeypatch, dich, "polar_unitary")
    dich.propagate_subspaces(front_field, seed=0)
    rng = np.random.default_rng(3)
    args = [a for a, in calls] + [_complex(rng, k, k) for k in (2, 3)]
    assert len(calls) > 0
    for a in args:
        assert np.array_equal(_lapack.polar_unitary(a), sl.polar(a)[0])


def test_pencil_eigenvalues_match_scipy(jx, monkeypatch):
    calls = _recorded(monkeypatch, symm, "eigvalsh")
    for eta in (0.5, 10.0):
        symm.constant_symmetrizer(jx, np.array([0.5, 0.25]), [eta])
    assert len(calls) == 2
    # only the lower triangles are read: a general a shows which
    rng = np.random.default_rng(5)
    r = _complex(rng, 3, 3)
    for a, b in calls + [(_complex(rng, 3, 3), r.conj().T @ r)]:
        assert a.dtype == complex and b.dtype == complex
        assert np.array_equal(_lapack.eigvalsh(a, b),
                              sl.eigh(a, b, eigvals_only=True))


def test_lyapunov_matches_scipy(front_dichotomy, monkeypatch):
    calls = _recorded(monkeypatch, symm, "solve_continuous_lyapunov")
    data = front_dichotomy
    symm.lyapunov_Q(data.grid, data.lambda_plus, data.lambda_minus)
    # a real block takes scipy's real Schur path
    real = np.array([[-1.0, 0.4], [0.0, -2.0]])
    rng = np.random.default_rng(6)
    stable = _complex(rng, 4, 4) - 3 * np.eye(4)
    args = [tuple(c) for c in calls] + [(real.T, -np.eye(2)),
                                        (stable, np.eye(4))]
    assert len(calls) == 2
    for a, q in args:
        assert np.array_equal(_lapack.solve_continuous_lyapunov(a, q),
                              sl.solve_continuous_lyapunov(a, q))


# ------------------------------------------------- typed failures ----

def test_singular_matrix_is_numeric_error():
    # scipy's lu_factor only warns on an exactly zero pivot
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex, order="F")
    with pytest.raises(NumericError, match="singular"):
        _lapack.lu_factor(a)


def test_non_positive_definite_gram_is_numeric_error():
    gram = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericError, match="not positive definite"):
        _lapack.cho_factor(gram)
    with pytest.raises(NumericError):
        _lapack.eigvalsh(np.eye(2, dtype=complex), gram.astype(complex))


def test_wrong_shapes_are_rejected_before_lapack():
    # a pointer to a too-small buffer would let LAPACK write past it
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="square"):
        _lapack.lu_factor(_complex(rng, 3, 4))
    factors = _lapack.lu_factor(_complex(rng, 4, 4))
    for b in (_complex(rng, 3), _complex(rng, 5, 2)):
        with pytest.raises(ValueError, match="rows"):
            _lapack.lu_solve(factors, b, trans=0)
    # a real right-hand side is solved as complex
    b = rng.standard_normal(4)
    assert np.array_equal(_lapack.lu_solve(factors, b, trans=0),
                          _lapack.lu_solve(factors, b + 0j, trans=0))
    with pytest.raises(ValueError, match="rows"):
        _lapack.zpotrs(np.eye(3, dtype=complex), np.ones((2, 1)))


# ------------------------------------------------------- binding ----

def test_every_routine_binds_at_import():
    # from numpy's OpenBLAS wherever numpy exports all of them
    for name in _lapack._ROUTINES:
        assert ctypes.cast(getattr(_lapack._L, name), ctypes.c_void_p).value
    try:
        _lapack._Binding(*_lapack._numpy_symbols())
    except CompatibilityError:
        assert _lapack._L.source == "scipy.linalg.cython_lapack"
    else:
        assert _lapack._L.source == "numpy's OpenBLAS"
        assert _lapack._L.dtype == np.int64


def _every_wrapper(rng):
    """An LU factorization and the outputs of every wrapper on fixed random
    inputs."""
    A, B = _complex(rng, 40, 40), _complex(rng, 40, 3)
    factors = _lapack.lu_factor(A.copy(order="F"))
    out = list(factors)
    out += [_lapack.lu_solve(factors, B[:, 0].copy(), trans=t) for t in (0, 2)]
    out += [_lapack.lu_solve(factors, B.copy(order="F"), trans=t)
            for t in (0, 2)]
    r = rng.standard_normal((6, 6))
    gram = r.T @ r + 6 * np.eye(6)
    c = _lapack.cho_factor(gram)
    out += [c, _lapack.zpotrs(c.astype(complex), _complex(rng, 6, 2))[0]]
    h = _complex(rng, 5, 5)
    out.append(_lapack.eigvalsh(h + h.conj().T, gram[:5, :5] + 0j))
    out += [_lapack.solve_continuous_lyapunov(a, np.eye(4))
            for a in (_complex(rng, 4, 4) - 3 * np.eye(4),
                      rng.standard_normal((4, 4)) - 3 * np.eye(4))]
    return factors, out


def test_fallback_source_gives_the_same_numbers(monkeypatch):
    # scipy's Cython capsules, 32-bit integers, scipy's own OpenBLAS
    _, primary = _every_wrapper(np.random.default_rng(4))
    fallback = _lapack._Binding(*_lapack._scipy_symbols())
    monkeypatch.setattr(_lapack, "_L", fallback)
    factors, again = _every_wrapper(np.random.default_rng(4))
    assert factors.binding is fallback and factors.ipiv.dtype == np.int32
    assert len(primary) == len(again)
    for a, b in zip(primary, again):
        assert np.array_equal(a, b)


def test_missing_routine_is_compatibility_error():
    c_int, address, source = _lapack._numpy_symbols()
    with pytest.raises(CompatibilityError, match="zhegvd"):
        _lapack._Binding(
            c_int, lambda name: None if name == "zhegvd" else address(name),
            source)
