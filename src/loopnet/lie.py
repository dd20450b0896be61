"""Finite-dimensional substrate: su(n) matrix algebras and simple-type tables.

The compact real form su(n) is modelled by explicit anti-hermitian traceless
matrices, orthonormal for minus the trace form.  The trace form in the
defining representation is the invariant bilinear form normalized so the
highest root has squared length 2; the dual Coxeter number g = n then comes
out of the Casimir identity sum_i [x_i, [x^i, Y]] = 2g Y instead of being
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import AlgebraMismatchError, InvalidRankError, NumericError

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
    trace form is x^i = -x_i.  Structure constants are stored as the 3-index
    real array c[h, i, j] with [x_i, x_j] = sum_h c[h, i, j] x_h.
    """

    n: int
    basis: np.ndarray                # (dim, n, n) complex
    structure_constants: np.ndarray  # (dim, dim, dim) real
    dual_coxeter: int
    dimension: int

    def __eq__(self, other):
        return isinstance(other, CompactSimpleAlgebra) and other.n == self.n

    def __hash__(self):
        return hash(("su", self.n))

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
        if real_form is None:
            real_form = bool(np.allclose(matrix.conj().T, -matrix, atol=_ATOL))
        elif real_form and not np.allclose(matrix.conj().T, -matrix, atol=_ATOL):
            raise ValueError("matrix is not anti-hermitian but tagged real-form")
        self.matrix = matrix
        self.algebra = algebra
        self.real_form = real_form

    def star(self) -> "AlgebraElement":
        """Involution whose -1 eigenspace is the compact real form."""
        return AlgebraElement(self.matrix.conj().T, self.algebra)

    def __add__(self, other):
        _check_tags(self, other)
        return AlgebraElement(self.matrix + other.matrix, self.algebra)

    def __sub__(self, other):
        _check_tags(self, other)
        return AlgebraElement(self.matrix - other.matrix, self.algebra)

    def __rmul__(self, scalar):
        return AlgebraElement(scalar * self.matrix, self.algebra)

    def __neg__(self):
        return AlgebraElement(-self.matrix, self.algebra)

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
    basis = np.array([1j * m / np.sqrt(2.0) for m in _gell_mann_hermitian(n)])
    dim = n * n - 1
    # c[h, i, j] = -tr([x_i, x_j] x_h); real because the real form is closed
    # under brackets and orthonormal for -tr.
    comm = np.einsum("iab,jbc->ijac", basis, basis) - np.einsum(
        "jab,ibc->ijac", basis, basis)
    c = -np.einsum("ijab,hba->hij", comm, basis)
    if np.abs(c.imag).max() > 1e-13:
        raise NumericError("structure constants acquired an imaginary part")
    alg = CompactSimpleAlgebra(
        n=n,
        basis=basis,
        structure_constants=c.real,
        dual_coxeter=n,
        dimension=dim,
    )
    basis.setflags(write=False)
    alg.structure_constants.setflags(write=False)
    return alg


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
    """Matrix exponential of a real-form element; result is special unitary."""
    if not np.all(np.isfinite(x.matrix)):
        raise NumericError("non-finite entries in exponent")
    if not x.real_form:
        raise ValueError("group_exp expects a real-form (anti-hermitian) element")
    u = scipy.linalg.expm(x.matrix)
    n = x.algebra.n
    if not np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12):
        raise NumericError("exponential is not unitary to tolerance")
    return u


def as_generator(x, n: int) -> np.ndarray:
    """The (n, n) matrix of an AlgebraElement or array, anti-hermitian to 1e-12."""
    xm = x.matrix if isinstance(x, AlgebraElement) else np.asarray(x, complex)
    if xm.shape != (n, n):
        raise ValueError(f"generator shape {xm.shape}, expected {(n, n)}")
    if not np.allclose(xm.conj().T, -xm, atol=_ATOL):
        raise ValueError("generators must be anti-hermitian")
    return xm


def eig_antihermitian(x_matrix: np.ndarray):
    """Eigendecomposition X = U diag(i d) U* of an anti-hermitian matrix."""
    w, u = np.linalg.eigh(1j * x_matrix)   # hermitian; X = -i * (i X)
    return u, -w                            # X = U diag(i * (-w)) U*


def exp_profile(u: np.ndarray, d: np.ndarray, f_vals: np.ndarray) -> np.ndarray:
    """exp(f X) for all f in f_vals at once, X = U diag(i d) U*."""
    phases = np.exp(1j * np.outer(f_vals, d))
    return np.einsum("ab,jb,cb->jac", u, phases, u.conj())


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
