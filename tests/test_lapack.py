import ast
import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sl
from scipy.linalg import lapack as scipy_lapack

from relaxstab import _lapack
from relaxstab import resolvent as res
from relaxstab.errors import CompatibilityError, NumericError

from conftest import one_point_chunk


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
    lu, piv, _ = one_point_chunk(field).lu[0]
    (M,), = calls
    assert M.shape == (322, 322) and M.dtype == complex
    assert M.flags.f_contiguous
    ref_lu, ref_piv = sl.lu_factor(M.copy(order="F"), overwrite_a=True,
                                   check_finite=False)
    assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)


def test_cho_factor_matches_scipy_on_the_hat_gram(geom):
    for s, rho in ((1, 2.0), (2, 60.0)):
        Gm = res._hat_gram(geom, s, [rho])[0]
        c = _lapack.cho_factor(Gm)
        assert np.array_equal(c, sl.cho_factor(Gm, check_finite=False)[0])


def test_dpotrs_matches_scipy_on_the_hat_gram(geom):
    # the power iteration's Cholesky solve: the real and imaginary parts of
    # a field (m, n) as 2n real right-hand sides
    rng = np.random.default_rng(3)
    for s, rho in ((1, 2.0), (2, 60.0)):
        c = _lapack.cho_factor(res._hat_gram(geom, s, [rho])[0])
        b = _complex(rng, geom.n_nodes, 2).view(float)
        x = _lapack.dpotrs(c, b)
        ref, info = scipy_lapack.dpotrs(c, b)
        assert info == 0 and np.array_equal(x, ref)
        assert x.flags.f_contiguous


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
        _lapack.dpotrs(np.eye(3), np.ones((2, 1)))
    with pytest.raises(ValueError, match="square"):
        _lapack.dpotrs(np.eye(3)[:2], np.ones((2, 1)))
    # a complex operand is not solved as its real part
    for c, b in ((np.eye(3), np.ones((3, 1), dtype=complex)),
                 (np.eye(3, dtype=complex), np.ones((3, 1)))):
        with pytest.raises(ValueError, match="real"):
            _lapack.dpotrs(c, b)


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
    out += [c, _lapack.dpotrs(c, rng.standard_normal((6, 4)))]
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
    with pytest.raises(CompatibilityError, match="dpotrs"):
        _lapack._Binding(
            c_int, lambda name: None if name == "dpotrs" else address(name),
            source)


def test_bound_routines_are_the_called_ones():
    # every routine a wrapper uses is bound, with as many arguments as its
    # prototype, and every bound one is used: a dead binding would otherwise
    # only fail at import on a platform that lacks it, and an unbound or
    # miscounted call only when it runs
    tree = ast.parse(Path(_lapack.__file__).read_text())
    binding, = (node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "_Binding")
    own = {node.name for node in binding.body
           if isinstance(node, ast.FunctionDef)}
    own |= {node.attr for node in ast.walk(binding)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)}

    def routine(node):
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("_L", "lib") and node.attr not in own)

    used = {node.attr for node in ast.walk(tree) if routine(node)}
    assert used == set(_lapack._ROUTINES)
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and routine(node.func)]
    assert {call.func.attr for call in calls} == used
    for call in calls:
        assert len(call.args) == _lapack._ROUTINES[call.func.attr], \
            call.func.attr
