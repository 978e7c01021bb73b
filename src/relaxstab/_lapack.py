"""The LAPACK and BLAS calls of the package, without the ``scipy.linalg``
package.

The package needs a handful of routines, and they live in two f2py extension
modules of scipy, ``scipy/linalg/_flapack`` and ``_fblas``.  Importing them
through ``scipy.linalg`` runs its Python layer, whose array-API support loads
``numpy.f2py`` and ``numpy.testing`` and takes most of a run's start-up.  So
the two files are loaded here by location (scipy's directory comes from
``importlib.util.find_spec``, which runs no package ``__init__``), and
registered in ``sys.modules`` under their own names: a later
``import scipy.linalg`` (shooting, ``d >= 2`` regularity, the turning-point
scan) gets the same module objects.  Where the files are not where scipy
1.17 puts them, the modules are taken from an imported ``scipy.linalg``; the
calls below are the same either way.

Each wrapper makes the call that the named scipy function makes, with the
same driver, arguments and work size (checked bit for bit against scipy
1.17.1 in ``tests/test_lapack.py``), and takes only what the package
passes.  A LAPACK failure code raises :class:`NumericError`.  Nothing is
scanned for finiteness: the inputs are finite by construction or have
passed a ``numpy.linalg`` call that scans them.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys
import warnings

import numpy as np

from .errors import NumericError

_NAMES = ("_flapack", "_fblas")


def _load(linalg_dir):
    """scipy's ``_flapack`` and ``_fblas`` modules: loaded from their
    extension files in ``linalg_dir``, or, if either is missing there,
    imported through the ``scipy.linalg`` package.  A module already in
    ``sys.modules`` is reused."""
    files = {}
    for name in _NAMES:
        paths = (os.path.join(linalg_dir, name + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        files[name] = next((p for p in paths if os.path.isfile(p)), None)
    if None in files.values():
        return tuple(importlib.import_module("scipy.linalg." + name)
                     for name in _NAMES)
    for name in _NAMES:
        full = "scipy.linalg." + name
        if full not in sys.modules:
            spec = importlib.util.spec_from_file_location(full, files[name])
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            sys.modules[full] = mod
    return tuple(sys.modules["scipy.linalg." + name] for name in _NAMES)


_flapack, _fblas = _load(os.path.join(
    importlib.util.find_spec("scipy").submodule_search_locations[0],
    "linalg"))

# the solves take the routines as they are
ztrsv = _fblas.ztrsv
zgetrs = _flapack.zgetrs
zpotrs = _flapack.zpotrs


def _check(info, failure):
    """Raise for a nonzero LAPACK ``info``: ``failure`` (formatted with
    ``info``) for a numerical failure, ``ValueError`` for a bad argument."""
    if info < 0:
        raise ValueError(f"illegal value in LAPACK argument {-info}")
    if info > 0:
        raise NumericError(failure.format(info=info))


def lu_factor(a):
    """``scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=False)``
    of a complex matrix: ``(lu, piv)``, factored in place where ``a`` is
    Fortran-ordered.  An exactly zero pivot raises (scipy only warns)."""
    lu, piv, info = _flapack.zgetrf(a, overwrite_a=1)
    _check(info, "LU factorization: pivot {info} is exactly zero "
                 "(singular matrix)")
    return lu, piv


def cho_factor(a):
    """``scipy.linalg.cho_factor(a, check_finite=False)[0]`` of a real
    symmetric matrix: its upper Cholesky factor, the lower triangle left as
    it was."""
    c, info = _flapack.dpotrf(a, lower=0, clean=0)
    _check(info, "Cholesky factorization: leading minor {info} is not "
                 "positive definite")
    return c


def polar_unitary(a):
    """``scipy.linalg.polar(a)[0]`` of a complex matrix: the unitary
    factor ``u @ vh`` of its thin SVD."""
    m, n = a.shape
    work, info = _flapack.zgesdd_lwork(m, n, compute_uv=1, full_matrices=0)
    _check(info, "SVD work-size query failed (info = {info})")
    u, _, vh, info = _flapack.zgesdd(a, compute_uv=1, full_matrices=0,
                                     lwork=int(work.real))
    _check(info, "SVD did not converge (info = {info})")
    return u.dot(vh)


def eigvalsh(a, b):
    """``scipy.linalg.eigh(a, b, eigvals_only=True)`` of a complex
    Hermitian pencil, ``b`` positive definite: its eigenvalues, ascending."""
    w, _, info = _flapack.zhegvd(a, b, itype=1, jobz="N", uplo="L")
    _check(info, "generalized Hermitian eigensolver failed (info = {info}; "
                 "above the order, b is not positive definite)")
    return w


def _no_sort(*_):
    return None


def solve_continuous_lyapunov(a, q):
    """``scipy.linalg.solve_continuous_lyapunov(a, q)``: ``X`` with
    ``a X + X a^H = q``, by the Schur form of ``a`` (Bartels-Stewart)."""
    gees = _flapack.zgees if np.iscomplexobj(a) else _flapack.dgees
    work = gees(_no_sort, a, lwork=-1)[-2]
    result = gees(_no_sort, a, lwork=int(work[0].real))
    _check(result[-1], "Schur form not found (info = {info})")
    r, u = result[0], result[-3]
    f = u.conj().T.dot(q.dot(u))
    if np.iscomplexobj(f):
        y, scale, info = _flapack.ztrsyl(r, r, f, tranb="C")
    else:
        y, scale, info = _flapack.dtrsyl(r, r, f, tranb="T")
    if info < 0:
        raise ValueError(f"illegal value in LAPACK argument {-info}")
    if info == 1:
        warnings.warn('Input "a" has an eigenvalue pair whose sum is very '
                      'close to or exactly zero. The solution is obtained '
                      'via perturbing the coefficients.', RuntimeWarning,
                      stacklevel=2)
    y *= scale
    return u.dot(y).dot(u.conj().T)
