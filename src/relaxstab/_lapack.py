"""LAPACK and BLAS, through the OpenBLAS that numpy loaded, for the factors
the package reuses.

The rule: ctypes where a factor is reused across solves, ``numpy.linalg``
at the caller for a one-shot small problem.  So five routines are bound,
the keys of ``_ROUTINES``: ``zgetrf``, ``zgetrs`` and ``ztrsv`` for the LU
of the collocation matrix, which every forcing of a sweep point solves
with, and ``dpotrf`` and ``dpotrs`` for the real Cholesky factor of the
hat Gram matrix, which every power-iteration step of a gain estimate solves
with (the real and imaginary parts of a complex field as one real stack).
``tests/test_lapack.py`` parses this file to check that these are exactly
the routines the wrappers call.

numpy links one OpenBLAS (the ``scipy-openblas`` build, 64-bit integers),
and its LAPACK and BLAS routines are exported as ``scipy_<name>_64_``.  They
are found here by ``dlsym`` on numpy's ``_multiarray_umath`` extension,
which links that library, and called through ctypes with pointer arguments.
So a run maps one BLAS, not numpy's and scipy's, and imports nothing of
scipy.  Where numpy's library lacks a routine (a numpy built against another
BLAS), every routine is taken instead from the public
``scipy.linalg.cython_lapack`` and ``cython_blas`` capsules, which take
32-bit integers: the wrappers below are the same for both sources, only the
integer type differs.  A routine that neither source has raises
:class:`CompatibilityError` when the package is imported.

Each wrapper makes the call that the named scipy function makes, with the
same driver, arguments and work size (checked bit for bit against scipy
1.17.1 in ``tests/test_lapack.py``), and takes only what the package
passes.  A LAPACK failure code raises :class:`NumericError`.  Shapes and
dtypes are checked before a pointer is passed; nothing is scanned for
finiteness: the inputs are finite by construction or have passed a
``numpy.linalg`` call that scans them.  ctypes releases the GIL for the
length of each call, so the LAPACK work of the sweep threads can overlap.
Every call writes into buffers of its own, and the inputs it shares with
other threads (an LU factor and its pivots) are only read, so concurrent
solves with one factor are safe.
"""

import ctypes

import numpy as np

from .errors import CompatibilityError, NumericError

# routine -> number of arguments; every argument is a pointer
_ROUTINES = {"zgetrf": 6, "zgetrs": 9, "ztrsv": 8, "dpotrf": 5, "dpotrs": 8}

# the character arguments, at fixed addresses
_CHARS = ctypes.create_string_buffer(b"NTCUL")
_CHAR = {c: ctypes.addressof(_CHARS) + i for i, c in enumerate("NTCUL")}
_TRANS = (_CHAR["N"], _CHAR["T"], _CHAR["C"])


def _numpy_symbols():
    """``(integer type, name -> address or None, source)`` of the OpenBLAS
    that numpy links."""
    core = getattr(np, "_core", None)
    lib = ctypes.CDLL(core._multiarray_umath.__file__) if core else None

    def address(name):
        fn = getattr(lib, f"scipy_{name}_64_", None)
        return ctypes.cast(fn, ctypes.c_void_p).value if fn else None

    return ctypes.c_int64, address, "numpy's OpenBLAS"


def _scipy_symbols():
    """``(integer type, name -> address or None, source)`` of scipy's
    public Cython LAPACK and BLAS capsules."""
    from scipy.linalg import cython_blas, cython_lapack
    capsules = {**cython_blas.__pyx_capi__, **cython_lapack.__pyx_capi__}
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def address(name):
        cap = capsules.get(name)
        return get_pointer(cap, get_name(cap)) if cap is not None else None

    return ctypes.c_int, address, "scipy.linalg.cython_lapack"


class _Binding:
    """The routines of one symbol source as ctypes functions, and its
    integer type; integer constants live at fixed addresses (:meth:`int`)."""

    def __init__(self, c_int, address, source):
        self.c_int, self.source = c_int, source
        self.dtype = np.dtype(c_int)
        for name, nargs in _ROUTINES.items():
            ptr = address(name)
            if not ptr:
                raise CompatibilityError(
                    f"LAPACK/BLAS routine {name} not found in {source}")
            proto = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)
            setattr(self, name, proto(ptr))
        self._ints = {}
        self.one = self.int(1)

    def int(self, value):
        """Address of an integer holding ``value``, kept for the process."""
        held = self._ints.get(value)
        if held is None:
            buf = self.c_int(value)
            # setdefault keeps the first of two racing threads' buffers
            held = self._ints.setdefault(value, (buf, ctypes.addressof(buf)))
        return held[1]


def _bind():
    try:
        return _Binding(*_numpy_symbols())
    except CompatibilityError:
        return _Binding(*_scipy_symbols())


_L = _bind()


def _check(info, failure):
    """Raise for a nonzero LAPACK ``info``: ``failure`` (formatted with
    ``info``) for a numerical failure, ``ValueError`` for a bad argument."""
    if info < 0:
        raise ValueError(f"illegal value in LAPACK argument {-info}")
    if info > 0:
        raise NumericError(failure.format(info=info))


def _ptr(a):
    return a.ctypes.data


def _square(a, dtype, copy):
    """``a`` as a Fortran-ordered square matrix of ``dtype``: a copy when
    ``copy``, else ``a`` itself where it already is one."""
    a = (np.array(a, dtype=dtype, order="F") if copy
         else np.asfortranarray(a, dtype=dtype))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def row_permutation(piv):
    """Rows ``perm`` with ``A[perm] = L @ U`` for the 0-based pivots ``piv``
    of an LU factorization of ``A``: its row swaps applied in order to
    ``0 .. N-1``."""
    perm = list(range(len(piv)))
    for i, p in enumerate(piv.tolist()):
        perm[i], perm[p] = perm[p], perm[i]
    return np.array(perm)


class LU(tuple):
    """``(lu, piv, perm)`` of :func:`lu_factor`: the Fortran-ordered LU
    matrix, the 0-based pivots (as scipy returns them) and their
    :func:`row_permutation`.

    It also keeps what every solve (:func:`lu_solve`) passes LAPACK: the
    binding that factored it, the order and the address of ``lu`` and the
    1-based pivots, so that a solve allocates only its output.
    """

    def __new__(cls, lu, ipiv, binding):
        piv = ipiv - 1
        self = super().__new__(cls, (lu, piv, row_permutation(piv)))
        self.binding, self.ipiv = binding, ipiv
        self.args = (binding.int(len(lu)), _ptr(lu), _ptr(ipiv))
        return self


def lu_factor(a):
    """``scipy.linalg.lu_factor(a, overwrite_a=True, check_finite=False)``
    of a complex square matrix, as an :class:`LU`; factored in place where
    ``a`` is Fortran-ordered.  An exactly zero pivot raises (scipy only
    warns)."""
    a = _square(a, complex, copy=False)
    n = len(a)
    ipiv = np.empty(n, _L.dtype)
    info = _L.c_int()
    _L.zgetrf(_L.int(n), _L.int(n), _ptr(a), _L.int(max(1, n)), _ptr(ipiv),
              ctypes.byref(info))
    _check(info.value, "LU factorization: pivot {info} is exactly zero "
                       "(singular matrix)")
    return LU(a, ipiv, _L)


def lu_solve(factors, b, trans):
    """Solve ``A x = b`` (``trans=0``) or ``A^H x = b`` (``trans=2``) for
    the complex ``A`` of ``factors`` (:func:`lu_factor`) and a complex
    ``b``.

    A single column ``(N,)`` is solved by the row permutation and two
    ``trsv`` calls; at one BLAS thread a one-column ``getrs`` packs the
    whole factor for ``trsm`` on every call and takes about three times as
    long.  A stack ``(N, T)`` is solved by one ``getrs`` call, in place
    where ``b`` is Fortran-ordered.
    """
    _, _, perm = factors
    lib = factors.binding
    n, lu, ipiv = factors.args
    L, U, N = _CHAR["L"], _CHAR["U"], _CHAR["N"]
    b = np.asarray(b, dtype=complex)
    if len(b) != len(perm) or b.ndim > 2:
        raise ValueError(f"expected {len(perm)} rows, got shape {b.shape}")
    if b.ndim == 1:
        if trans == 0:
            x = b[perm]
            p = _ptr(x)
            lib.ztrsv(L, N, U, n, lu, n, p, lib.one)
            lib.ztrsv(U, N, N, n, lu, n, p, lib.one)
            return x
        x = b.copy()
        p = _ptr(x)
        lib.ztrsv(U, _TRANS[trans], N, n, lu, n, p, lib.one)
        lib.ztrsv(L, _TRANS[trans], U, n, lu, n, p, lib.one)
        out = np.empty_like(x)
        out[perm] = x
        return out
    x = np.asfortranarray(b, dtype=complex)
    info = lib.c_int()
    lib.zgetrs(_TRANS[trans], n, lib.int(x.shape[1]), lu, n, ipiv, _ptr(x), n,
               ctypes.byref(info))
    _check(info.value, "getrs failed (info = {info})")
    return x


def cho_factor(a):
    """``scipy.linalg.cho_factor(a, check_finite=False)[0]`` of a real
    symmetric matrix: its upper Cholesky factor, Fortran-ordered, the lower
    triangle left as it was."""
    c = _square(a, float, copy=True)
    n = len(c)
    info = _L.c_int()
    _L.dpotrf(_CHAR["U"], _L.int(n), _ptr(c), _L.int(max(1, n)),
              ctypes.byref(info))
    _check(info.value, "Cholesky factorization: leading minor {info} is not "
                       "positive definite")
    return c


def dpotrs(c, b):
    """scipy's ``dpotrs(c, b)[0]``: a Fortran-ordered copy of the real ``b``
    ``(n, nrhs)`` solved in place with the upper real Cholesky factor ``c``
    of :func:`cho_factor`."""
    c, b = np.asarray(c), np.asarray(b)
    if c.dtype != float or b.dtype != float:
        raise ValueError(f"expected real operands, got {c.dtype} and "
                         f"{b.dtype}")
    c = _square(c, float, copy=False)
    n = len(c)
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"expected {n} rows, got shape {b.shape}")
    x = np.array(b, order="F")
    ld = _L.int(max(1, n))
    info = _L.c_int()
    _L.dpotrs(_CHAR["U"], _L.int(n), _L.int(x.shape[1]), _ptr(c), ld,
              _ptr(x), ld, ctypes.byref(info))
    _check(info.value, "Cholesky solve failed (info = {info})")
    return x
