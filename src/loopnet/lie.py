"""Finite-dimensional substrate: su(n) matrix algebras and simple-type tables.

The compact real form su(n) is modelled by explicit anti-hermitian traceless
matrices, orthonormal for minus the trace form.  The trace form in the
defining representation is the invariant bilinear form normalized so the
highest root has squared length 2; the dual Coxeter number g = n then comes
out of the Casimir identity sum_i [x_i, [x^i, Y]] = 2g Y instead of being
hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (AlgebraMismatchError, CapacityError, InvalidRankError,
                     NumericError)

__all__ = [
    "CompactSimpleAlgebra",
    "AlgebraElement",
    "SimpleTypeRecord",
    "build_su",
    "basic_form",
    "bracket",
    "center_elements",
    "as_generator",
    "eig_antihermitian",
    "exp_antihermitian",
    "exp_profile",
    "group_exp",
    "simple_type_record",
    "simple_type_table",
]

_ATOL = 1e-12
MAX_BASIS_BYTES = 2 ** 25   # largest su(n) basis built: su38 (33 MB); su30 is 13 MB


def _antihermitian_gap(m: np.ndarray) -> float:
    """max |m + m*| over the entries: 0 exactly on the compact real form,
    and inf when an entry is not finite."""
    if not np.isfinite(m).all():
        return np.inf
    return float(np.abs(m + m.conj().T).max())


def _gell_mann_hermitian(n: int) -> list[np.ndarray]:
    """Hermitian generalized Gell-Mann matrices with tr(l_a l_b) = 2 d_ab."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = s[j, i] = 1.0
            mats.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[i, j] = -1j
            a[j, i] = 1j
            mats.append(a)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[:l, :l] = np.eye(l)
        d[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * d)
    return mats


@dataclass(frozen=True)
class CompactSimpleAlgebra:
    """Explicit model of su(n): orthonormal anti-hermitian basis and invariants.

    The basis satisfies -tr(x_i x_j) = delta_ij, so the dual basis for the
    trace form is x^i = -x_i.  Structure constants are the 3-index real
    array c[h, i, j] with [x_i, x_j] = sum_h c[h, i, j] x_h, computed on
    first use (their intermediate is 10.8 GiB for su30).
    """

    n: int
    basis: np.ndarray                # (dim, n, n) complex
    dual_coxeter: int
    dimension: int

    def __eq__(self, other):
        return isinstance(other, CompactSimpleAlgebra) and other.n == self.n

    def __hash__(self):
        return hash(("su", self.n))

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """(dim, dim, dim) real, read-only."""
        basis = self.basis
        # c[h, i, j] = -tr([x_i, x_j] x_h); real because the real form is
        # closed under brackets and orthonormal for -tr.
        comm = np.einsum("iab,jbc->ijac", basis, basis) - np.einsum(
            "jab,ibc->ijac", basis, basis)
        c = -np.einsum("ijab,hba->hij", comm, basis)
        if np.abs(c.imag).max() > 1e-13:
            raise NumericError("structure constants acquired an imaginary part")
        c = c.real
        c.setflags(write=False)
        return c

    def element(self, matrix: np.ndarray, real_form: bool | None = None) -> "AlgebraElement":
        return AlgebraElement(np.asarray(matrix, dtype=complex), self, real_form)

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self.basis[i], self, real_form=True)


class AlgebraElement:
    """A matrix tagged with its algebra; ``real_form`` marks x* = -x elements."""

    __slots__ = ("matrix", "algebra", "real_form")

    def __init__(self, matrix, algebra, real_form=None):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (algebra.n, algebra.n):
            raise AlgebraMismatchError(
                f"matrix shape {matrix.shape} does not fit su({algebra.n})")
        if real_form is None or real_form:
            inside = _antihermitian_gap(matrix) <= _ATOL
            if real_form and not inside:
                raise ValueError("matrix is not anti-hermitian but tagged real-form")
            real_form = inside
        self.matrix = matrix
        self.algebra = algebra
        self.real_form = real_form

    def __rmul__(self, scalar):
        return AlgebraElement(scalar * self.matrix, self.algebra)

    def __repr__(self):
        return f"AlgebraElement(su({self.algebra.n}), real_form={self.real_form})"


def _check_tags(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.algebra != y.algebra:
        raise AlgebraMismatchError(
            f"mixed algebra tags: su({x.algebra.n}) vs su({y.algebra.n})")


def build_su(n: int) -> CompactSimpleAlgebra:
    """Construct su(n) with basis x_a = i*lambda_a/sqrt(2), -tr(x_a x_b) = d_ab."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidRankError(f"su(n) needs integer n >= 2, got {n!r}")
    nbytes = (n * n - 1) * n * n * 16   # (n^2 - 1, n, n) complex128
    if nbytes > MAX_BASIS_BYTES:
        raise CapacityError(
            f"the su({n}) basis needs {nbytes} bytes, more than the "
            f"{MAX_BASIS_BYTES} allowed", nbytes)
    basis = np.array([1j * m / np.sqrt(2.0) for m in _gell_mann_hermitian(n)])
    basis.setflags(write=False)
    return CompactSimpleAlgebra(n=n, basis=basis, dual_coxeter=n,
                                dimension=n * n - 1)


def basic_form(x: AlgebraElement, y: AlgebraElement) -> complex:
    """Invariant bilinear form tr(XY); negative semidefinite on the real form."""
    _check_tags(x, y)
    return complex(np.trace(x.matrix @ y.matrix))


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Matrix commutator XY - YX."""
    _check_tags(x, y)
    m = x.matrix @ y.matrix - y.matrix @ x.matrix
    return AlgebraElement(m, x.algebra, real_form=x.real_form and y.real_form)


def center_elements(n: int) -> list[np.ndarray]:
    """The n scalar special-unitary matrices exp(2 pi i k/n) Id, k = 0..n-1."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidRankError(f"center of SU(n) needs integer n >= 2, got {n!r}")
    return [np.exp(2j * np.pi * k / n) * np.eye(n) for k in range(n)]


def group_exp(x: AlgebraElement) -> np.ndarray:
    """Matrix exponential of a real-form element; result is special unitary.

    Computed by ``exp_antihermitian`` from one eigendecomposition of the
    hermitian iX: the input is anti-hermitian, so its eigenvectors are
    unitary and no scaling and squaring is needed.
    """
    if not np.all(np.isfinite(x.matrix)):
        raise NumericError("non-finite entries in exponent")
    if not x.real_form:
        raise ValueError("group_exp expects a real-form (anti-hermitian) element")
    u = exp_antihermitian(x.matrix)
    if np.abs(u.conj().T @ u - np.eye(len(u))).max() > _ATOL:
        raise NumericError("exponential is not unitary to tolerance")
    return u


def as_generator(x, n: int) -> np.ndarray:
    """The (n, n) matrix of an AlgebraElement or array, anti-hermitian to 1e-12."""
    xm = x.matrix if isinstance(x, AlgebraElement) else np.asarray(x, complex)
    if xm.shape != (n, n):
        raise AlgebraMismatchError(f"generator shape {xm.shape}, expected {(n, n)}")
    if _antihermitian_gap(xm) > _ATOL:
        raise NumericError("generators must be anti-hermitian")
    return xm


def eig_antihermitian(x_matrix: np.ndarray):
    """Eigendecomposition X = U diag(i d) U* of an anti-hermitian matrix."""
    w, u = np.linalg.eigh(1j * x_matrix)   # hermitian; X = -i * (i X)
    return u, -w                            # X = U diag(i * (-w)) U*


def exp_profile(u: np.ndarray, d: np.ndarray, f_vals: np.ndarray) -> np.ndarray:
    """exp(f X) for all f in f_vals at once, X = U diag(i d) U*."""
    phases = np.exp(1j * np.outer(f_vals, d))
    return np.einsum("ab,jb,cb->jac", u, phases, u.conj())


def _taylor_terms(theta: float) -> int:
    """The degree of an a-priori truncated Taylor exponential (Al-Mohy and
    Higham, SIAM J. Sci. Comput. 33, 2011): the first k >= 1 with
    theta^k / k! <= 2^-53, the unit roundoff.  For a matrix whose norm, in
    a submultiplicative norm that bounds the 2-norm, is at most theta (and
    theta at most (k + 1) / 2), the series dropped past degree k is below
    theta^k / k! in that norm, so no stopping test is needed."""
    k = 1
    while theta ** k / math.factorial(k) > 2.0 ** -53:
        k += 1
    return k


def exp_antihermitian(stack: np.ndarray) -> np.ndarray:
    """Exponentials of a stack (..., n, n) of anti-hermitian matrices.

    One stacked eigendecomposition X = U diag(-i w) U* of the hermitian iX
    gives exp(X) = U diag(e^{-i w}) U* for every matrix at once.
    """
    w, u = np.linalg.eigh(1j * np.asarray(stack))
    return (u * np.exp(-1j * w)[..., None, :]) @ u.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class SimpleTypeRecord:
    """Dimension and dual Coxeter number of one simple type at one rank."""

    family: str   # one of A, B, C, D, E6, E7, E8, F4, G2
    rank: int
    complex_dimension: int
    dual_coxeter: int


_EXCEPTIONAL = {
    "E6": (6, 78, 12),
    "E7": (7, 133, 18),
    "E8": (8, 248, 30),
    "F4": (4, 52, 9),
    "G2": (2, 14, 4),
}

_CLASSICAL = {
    # family: (min rank, dimension(n), dual Coxeter(n))
    "A": (1, lambda n: n * n + 2 * n, lambda n: n + 1),
    "B": (2, lambda n: 2 * n * n + n, lambda n: 2 * n - 1),
    "C": (2, lambda n: 2 * n * n + n, lambda n: n + 1),
    "D": (3, lambda n: 2 * n * n - n, lambda n: 2 * n - 2),
}


def simple_type_record(family: str, rank: int | None = None) -> SimpleTypeRecord:
    """Table lookup for a simple type; classical families take any valid rank."""
    if family in _EXCEPTIONAL:
        r, dim, g = _EXCEPTIONAL[family]
        if rank is not None and rank != r:
            raise ValueError(f"{family} has fixed rank {r}")
        return SimpleTypeRecord(family, r, dim, g)
    if family in _CLASSICAL:
        min_rank, dim_of, g_of = _CLASSICAL[family]
        if rank is None or rank < min_rank:
            raise ValueError(f"family {family} needs rank >= {min_rank}")
        return SimpleTypeRecord(family, rank, dim_of(rank), g_of(rank))
    raise ValueError(f"unknown family {family!r}")


def simple_type_table(max_rank: int = 8) -> list[SimpleTypeRecord]:
    """All supported records with rank up to ``max_rank``, deterministic order."""
    records = []
    for fam in ("A", "B", "C", "D"):
        min_rank = _CLASSICAL[fam][0]
        for r in range(min_rank, max_rank + 1):
            records.append(simple_type_record(fam, r))
    for fam in ("E6", "E7", "E8", "F4", "G2"):
        rec = simple_type_record(fam)
        if rec.rank <= max_rank:
            records.append(rec)
    return records
