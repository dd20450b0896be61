"""Truncated level-1 fermionic model of the loop-group representation.

States are occupation configurations of n "colors" of fermions on integer
modes: particles sit at modes k >= 0 with energy k, holes at modes k < 0
with energy -k, and the truncated space keeps every configuration of total
energy up to a cutoff N.  The current operators are normal-ordered fermion
bilinears; ``current(space, X, m)`` hops a fermion from mode k to mode k - m,
so for m > 0 it lowers the energy grading by m and annihilates the vacuum.
With this orientation the mode operators x(m) satisfy the level-1 relations

    [x(a), y(b)] = [x, y](a + b) + a delta_{a+b,0} tr(xy) Id,
    x(m)^dagger  = -x(-m)            (real-form x),
    [d, x(m)]    = -m x(m),

and the quadratic (Sugawara) combination

    L_m = 1/(2(l+g)) sum_{m' >= -m/2} (2 - delta_{m',-m/2}) x_i(-m') x^i(m'+m)

represents the Virasoro algebra with central charge c = l*dim/(l+g) on the
protected part of the space.

Truncation discipline: every operator carries ``protected_energy``; columns
of basis states with energy at or below it are exact matrix elements of the
untruncated operator, and all identity checks restrict to those columns.
Operator composition propagates the protected range conservatively, which is
the central correctness mechanism of the module.

The identity suites apply the same rule without composing operators: a
residual is a short list of (coef, left, right) terms, its protected energy
follows from the gradings alone, and since the basis is ordered by energy
its protected columns are a prefix.  Each group of residuals is one sparse
product of the stacked left factors with the stacked right factors cut to
those columns.  The Sugawara modes are the same product of hop tables, on
all columns, and its factors, the currents and pi(x) come from one COO ->
CSR routine.  ``FockOperator`` arithmetic stays the public route and the
tests' oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .affine_data import LevelData, level_data
from .errors import AlgebraMismatchError, CapacityError, WindowError
from .lie import AlgebraElement, CompactSimpleAlgebra, build_su, exp_antihermitian
from .loops import (FourierLoopElement, GridLoop, _mode_cut, bracket_elements,
                    central_term_B, circle_grid, cocycle_c)

__all__ = [
    "TruncatedFockSpace",
    "FockOperator",
    "HSReport",
    "build_fock",
    "current",
    "sugawara",
    "rotation_generator",
    "pi_element",
    "vacuum_cocycle_check",
    "hs_defect",
    "adjoint_action_check",
    "commutator",
    "identity_reports",
    "IDENTITIES",
    "DEFAULT_DIM_LIMIT",
]

DEFAULT_DIM_LIMIT = 20000
MASK_BITS = 64   # occupation masks are np.uint64 words
_ADJOINT_SAMPLES = 256   # circle grid of gamma = exp(X) in adjoint_action_check


def _occupation_mask(n: int, cutoff: int, particles, holes) -> int:
    """Window bitmask: filled sea below 0, minus holes, plus particles."""
    mask = (1 << cutoff * n) - 1   # the n * cutoff window modes k < 0
    for (k, j) in particles:
        mask |= 1 << ((k + cutoff) * n + j)
    for (k, j) in holes:
        mask &= ~(1 << ((k + cutoff) * n + j))
    return mask


def _dimension_bounds(n: int, cutoff: int, charge: int | None):
    """Lower bounds on the dimension, from the two-variable generating
    polynomial: the number of states using only the window modes |k| <= K,
    for K = 0, ..., cutoff.  The last is the exact dimension."""
    # counts[(energy, charge)] -> number of configurations, energy <= cutoff
    counts = {(0, 0): 1}

    def total():   # times the zero-mode subsets of each size
        return sum(c * math.comb(n, size) for (_, q), c in counts.items()
                   for size in range(n + 1) if charge is None or q + size == charge)

    yield total()
    for k in range(1, cutoff + 1):
        for dq in (1, -1):  # particle at +k / hole at -k, both cost k
            for _ in range(n):
                new = dict(counts)
                for (e, q), c in counts.items():
                    if e + k <= cutoff:
                        key = (e + k, q + dq)
                        new[key] = new.get(key, 0) + c
                counts = new
        yield total()


def _count_states(n: int, cutoff: int, charge: int | None) -> int:
    """Exact dimension of the truncated space."""
    *_, total = _dimension_bounds(n, cutoff, charge)
    return total


def _check_capacity(n: int, cutoff: int, charge: int | None,
                    dim_limit: int | None) -> None:
    """Raise ``CapacityError`` unless the space fits the limit and a mask word.

    The (2*cutoff+1)*n window modes are the bits of one np.uint64 occupation
    mask, so wider windows are refused rather than truncated.  A space that
    fits the mask is cheap to count exactly; the count of a wider one, which
    grows fast with the cutoff, stops once its lower bound passes the limit.
    """
    limit = DEFAULT_DIM_LIMIT if dim_limit is None else dim_limit
    width = (2 * cutoff + 1) * n
    for k, total in enumerate(_dimension_bounds(n, cutoff, charge)):
        if width > MASK_BITS and total > limit:
            break
    if total > limit:
        least = "at least " if k < cutoff else ""
        raise CapacityError(
            f"truncated dimension {least}{total} exceeds limit {limit}", total)
    if width > MASK_BITS:
        raise CapacityError(
            f"occupation mask needs (2*{cutoff}+1)*{n} = {width} bits, "
            f"more than the {MASK_BITS}-bit mask width", total)


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Energy-cutoff basis of particle/hole configurations.

    ``masks`` are occupation bitmasks over the window of modes (k, color)
    with |k| <= cutoff; the Dirac-sea modes below the window are permanently
    filled and never touched by any operator assembled here, so bilinear
    matrix elements computed in the window are exact.

    ``hops`` caches the elementary hops E_ij(m) = sum_k a^dag(k-m, i) a(k, j)
    as (rows, cols, signs) arrays, built on first use by ``_hop``; every
    current, Sugawara mode and pi_element is a linear combination of them.
    ``vacuum_hops`` caches the vacuum row and column of each, cut by
    ``_vacuum_hop`` for the vacuum cocycle check.
    """

    n: int
    cutoff: int
    charge: int | None
    masks: list[int]
    energies: np.ndarray
    charges: np.ndarray
    occupations: list[tuple[tuple, tuple]]   # (particles, holes) per state
    index: dict[int, int] = field(repr=False)
    hops: dict = field(default_factory=dict, compare=False, repr=False)
    vacuum_hops: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.masks)

    @cached_property
    def _mask_lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(masks as uint64 in basis order, sorted masks, their basis indices)."""
        words = np.array(self.masks, dtype=np.uint64)
        order = np.argsort(words)
        return words, words[order], order

    @property
    def vacuum_index(self) -> int:
        if self.charge not in (None, 0):
            raise ValueError("vacuum lives in the charge-0 sector")
        return self.index[_occupation_mask(self.n, self.cutoff, (), ())]


def build_fock(n: int, cutoff: int, charge: int | None = None,
               dim_limit: int | None = None) -> TruncatedFockSpace:
    """Enumerate the truncated space, ordered by (energy, charge, occupation).

    ``charge`` restricts to a single charge sector, which every operator in
    this module preserves; the restriction is exact for identity checks and
    cuts the dimension roughly by the number of sectors.  The exact dimension
    is computed up front and ``CapacityError`` raised if it exceeds the limit
    (default 20000, overridable via the ``dim_limit`` argument), or if the
    (2*cutoff+1)*n window modes do not fit a 64-bit occupation mask.
    """
    if n < 2 or cutoff < 0:
        raise ValueError(f"need n >= 2 and cutoff >= 0, got n={n}, cutoff={cutoff}")
    _check_capacity(n, cutoff, charge, dim_limit)

    colors = range(n)
    def extend(k, budget, particles, holes, out):
        if k > cutoff:
            out.append((tuple(particles), tuple(holes)))
            return
        max_total = budget // k
        color_subsets = [c for size in range(min(n, max_total) + 1)
                         for c in itertools.combinations(colors, size)]
        for psub in color_subsets:
            cost_p = k * len(psub)
            if cost_p > budget:
                continue
            for hsub in color_subsets:
                cost = cost_p + k * len(hsub)
                if cost > budget:
                    continue
                extend(k + 1, budget - cost,
                       particles + [(k, j) for j in psub],
                       holes + [(-k, j) for j in hsub], out)

    configs: list[tuple[tuple, tuple]] = []
    extend(1, cutoff, [], [], configs)   # cutoff 0: the one empty configuration
    # (particles, holes) configurations by the charge they add to the zero modes
    by_charge: dict[int, list] = {}
    for particles, holes in configs:
        by_charge.setdefault(len(particles) - len(holes), []).append(
            (particles, holes))

    states = []
    for zero_size in range(n + 1):
        paired = (configs if charge is None
                  else by_charge.get(charge - zero_size, []))
        for zsub in itertools.combinations(colors, zero_size):
            zmodes = tuple((0, j) for j in zsub)
            for particles, holes in paired:
                p_all = tuple(sorted(zmodes + particles))
                energy = sum(k for k, _ in p_all) + sum(-k for k, _ in holes)
                q = len(p_all) - len(holes)
                states.append((energy, q, p_all, tuple(sorted(holes))))
    states.sort()

    occupations = [(particles, holes) for _, _, particles, holes in states]
    space_masks = [_occupation_mask(n, cutoff, *occ) for occ in occupations]
    index = {m: i for i, m in enumerate(space_masks)}
    if len(index) != len(space_masks):
        raise RuntimeError("duplicate states in enumeration")
    return TruncatedFockSpace(n, cutoff, charge, space_masks,
                              np.array([e for e, _, _, _ in states], dtype=int),
                              np.array([q for _, q, _, _ in states], dtype=int),
                              occupations, index)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

@dataclass
class FockOperator:
    """Sparse operator on the truncated basis with truncation bookkeeping.

    ``degree`` is the uniform energy shift for graded operators (None for
    non-homogeneous ones such as exponentials); ``max_raise`` bounds how much
    the operator can increase a state's energy; ``protected_energy`` is the
    largest column energy for which the stored matrix elements are exact.
    """

    matrix: scipy.sparse.csr_matrix
    space: TruncatedFockSpace
    degree: int | None
    protected_energy: int
    max_raise: int

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        _same_space(self, other)
        deg = (self.degree + other.degree
               if self.degree is not None and other.degree is not None else None)
        return FockOperator(
            (self.matrix @ other.matrix).tocsr(), self.space, deg,
            _product_protection(self, other),
            self.max_raise + other.max_raise)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, operator.add)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self._combine(other, operator.sub)

    def _combine(self, other: "FockOperator", op) -> "FockOperator":
        """op(self, other) for ``operator.add`` or ``operator.sub``: one
        sparse sum or difference, under the grading both operands share."""
        _same_space(self, other)
        deg = self.degree if self.degree == other.degree else None
        return FockOperator(
            op(self.matrix, other.matrix).tocsr(), self.space, deg,
            min(self.protected_energy, other.protected_energy),
            max(self.max_raise, other.max_raise))

    def __rmul__(self, scalar) -> "FockOperator":
        return FockOperator(scalar * self.matrix, self.space, self.degree,
                            self.protected_energy, self.max_raise)

    def adjoint(self) -> "FockOperator":
        if self.degree is None:
            prot, raise_ = -1, self.space.cutoff
        else:
            prot = self.protected_energy + self.degree
            raise_ = max(0, -self.degree)
        return FockOperator(self.matrix.conj().T.tocsr(), self.space,
                            None if self.degree is None else -self.degree,
                            prot, raise_)

    def protected_columns(self) -> np.ndarray:
        return self.space.energies <= self.protected_energy

    def max_protected_abs(self) -> float:
        """Largest matrix-element magnitude over truncation-exact columns."""
        keep = self.protected_columns()
        if not keep.any():
            raise _unprotected(self.protected_energy)
        return _max_abs_on_columns(self.matrix, keep)


def _unprotected(protected_energy: int) -> WindowError:
    return WindowError("no protected columns; identity not checkable "
                       f"(protected_energy={protected_energy})")


def _max_abs_on_columns(matrix, keep: np.ndarray) -> float:
    """Largest |entry| among stored entries of the CSR ``matrix`` whose
    column has ``keep`` set."""
    vals = matrix.data[keep[matrix.indices]]
    return float(np.abs(vals).max()) if vals.size else 0.0


def _product_protection(a, b) -> int:
    """Protected energy of a @ b: b's columns, and b must not lift them past a's.

    ``a`` and ``b`` are FockOperators or the ``_Grading`` of one.
    """
    return min(b.protected_energy, a.protected_energy - b.max_raise)


def _same_space(a: FockOperator, b: FockOperator) -> None:
    if a.space is not b.space:
        raise ValueError("operators live on different truncated spaces")


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def identity_operator(space: TruncatedFockSpace) -> FockOperator:
    return FockOperator(scipy.sparse.identity(space.dim, dtype=complex,
                                              format="csr"),
                        space, 0, space.cutoff, 0)


def _hop(space: TruncatedFockSpace, i: int, j: int, m: int):
    """Cached (rows, cols, signs) of E_ij(m) = sum_k a^dag(k-m, i) a(k, j).

    Built once per space for all states and window modes k at once: the sign
    of each ladder step is the parity of the occupied bits below it, and the
    target row is found by binary search among the sorted masks (targets
    outside the space are dropped).
    """
    key = (i, j, m)
    hop = space.hops.get(key)
    if hop is not None:
        return hop
    n, cutoff = space.n, space.cutoff
    words, sorted_words, order = space._mask_lookup
    ks = np.arange(max(-cutoff, -cutoff + m), min(cutoff, cutoff + m) + 1)
    one = np.uint64(1)
    src = one << ((ks + cutoff) * n + j).astype(np.uint64)[None, :]
    dst = one << ((ks - m + cutoff) * n + i).astype(np.uint64)[None, :]
    state = words[:, None]
    mid = state & ~src
    ok = ((state & src) != 0) & ((mid & dst) == 0)
    parity = (np.bitwise_count(state & (src - one))
              + np.bitwise_count(mid & (dst - one))) & 1
    cols, kk = np.nonzero(ok)
    target = (mid | dst)[cols, kk]
    pos = np.minimum(np.searchsorted(sorted_words, target), len(words) - 1)
    found = sorted_words[pos] == target
    hop = (order[pos[found]].astype(np.int32), cols[found].astype(np.int32),
           (1 - 2 * parity[cols[found], kk[found]]).astype(np.int8))
    space.hops[key] = hop
    return hop


def _vacuum_hop(space: TruncatedFockSpace, i: int, j: int, m: int):
    """Cached (cols, signs) of the vacuum row and (rows, signs) of the vacuum
    column of E_ij(m), cut from its ``_hop`` table."""
    key = (i, j, m)
    entry = space.vacuum_hops.get(key)
    if entry is None:
        rows, cols, signs = _hop(space, i, j, m)
        iv = space.vacuum_index
        in_row, in_col = rows == iv, cols == iv
        entry = ((cols[in_row], signs[in_row]), (rows[in_col], signs[in_col]))
        space.vacuum_hops[key] = entry
    return entry


def _hop_terms(space: TruncatedFockSpace, xmat: np.ndarray, m: int, table=_hop):
    """(coefficient, hop) pairs of the bilinear sum_k a^dag(k-m) X a(k).

    ``table`` gives each hop E_ij(m): ``_hop`` for the whole matrix,
    ``_vacuum_hop`` for its vacuum row and column.
    """
    if m == 0 and abs(np.trace(xmat)) > 1e-12:
        raise ValueError("zero-mode currents are defined for traceless "
                         "generators only")
    return [(xmat[i, j], table(space, i, j, m))
            for i, j in zip(*np.nonzero(np.abs(xmat) > 1e-15))]


def _assemble(space: TruncatedFockSpace, terms):
    """CSR sum of coefficient * hop over (coefficient, hop) terms."""
    return _stacked_csr([(*hop, None, 0, 0, coef) for coef, hop in terms],
                        (space.dim, space.dim))


def _stacked_csr(blocks, shape):
    """CSR sum over blocks (rows, cols, data, width, row offset, column
    offset, coef) of coef * the entries in the first ``width`` columns (all
    of them for None), placed at the block's offsets; duplicate entries sum
    and entries that cancel exactly are dropped.  The module's one COO -> CSR
    construction.
    """
    keeps = [None if width is None else cols < width
             for _, cols, _, width, *_ in blocks]
    sizes = [len(cols) if keep is None else np.count_nonzero(keep)
             for (_, cols, *_), keep in zip(blocks, keeps)]
    total = sum(sizes)
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(total, dtype=index)
    cols = np.empty(total, dtype=index)
    data = np.empty(total, dtype=complex)
    pos = 0
    for (r, c, d, _, row_offset, col_offset, coef), keep, size in zip(
            blocks, keeps, sizes):
        if keep is not None:
            r, c, d = r[keep], c[keep], d[keep]
        end = pos + size
        np.add(r, row_offset, out=rows[pos:end])
        np.add(c, col_offset, out=cols[pos:end])
        np.multiply(d, coef, out=data[pos:end])
        pos = end
    mat = scipy.sparse.csr_matrix((data, (rows, cols)), shape=shape)
    mat.eliminate_zeros()
    return mat


def _stacked_product(space: TruncatedFockSpace, residuals, widths):
    """The residuals side by side, each on its first ``width`` columns (all
    of them for None), as one sparse product wide @ tall.

    A residual is a list of ``(coef, left, right)`` terms standing for
    sum coef * left @ right; a factor is a ``FockOperator``, a cached
    ``_hop`` table or None, the identity.  ``wide`` places the distinct
    left factors side by side, and ``tall`` places coef * right, cut to its
    residual's width, at its left factor's row block and its residual's
    column block.  Duplicate entries sum, so the product holds every
    residual in its own column block.
    """
    dim = space.dim
    entries = {}   # id(factor) -> (rows, cols, data), read once per call

    def coo(op):
        if isinstance(op, tuple):   # a _hop table
            return op
        if id(op) not in entries:
            if op is None:
                ids = np.arange(dim)
                entries[id(op)] = (ids, ids, np.ones(dim, dtype=complex))
            else:
                mat = op.matrix
                entries[id(op)] = (np.repeat(np.arange(dim), np.diff(mat.indptr)),
                                   mat.indices, mat.data)
        return entries[id(op)]

    slots, wide, tall = {}, [], []
    col_offset = 0
    for terms, width in zip(residuals, widths):
        for coef, left, right in terms:
            if id(left) not in slots:
                slots[id(left)] = len(slots) * dim
                wide.append((*coo(left), None, 0, slots[id(left)], 1.0))
            tall.append((*coo(right), width, slots[id(left)], col_offset, coef))
        col_offset += dim if width is None else width
    stacked = len(slots) * dim
    return (_stacked_csr(wide, (dim, stacked))
            @ _stacked_csr(tall, (stacked, col_offset)))


def current(space: TruncatedFockSpace, x, m: int) -> FockOperator:
    """Current mode x(m): normal-ordered bilinear of the generator x.

    Lowers the energy grading by m; charge-preserving; columns of energy at
    most cutoff - max(0, -m) are truncation-exact.  On that block the modes
    satisfy the level-1 relation
    [x(a), y(b)] = [x,y](a+b) + a delta_{a+b,0} tr(xy) Id.
    """
    if abs(m) > space.cutoff:
        raise WindowError(f"|m| = {abs(m)} exceeds the cutoff {space.cutoff}")
    xmat = x.matrix if isinstance(x, AlgebraElement) else np.asarray(x, complex)
    if xmat.shape != (space.n, space.n):
        raise ValueError(f"generator shape {xmat.shape} does not match n={space.n}")
    return FockOperator(_assemble(space, _hop_terms(space, xmat, m)), space,
                        degree=-m,
                        protected_energy=space.cutoff - max(0, -m),
                        max_raise=max(0, -m))


def rotation_generator(space: TruncatedFockSpace) -> FockOperator:
    """Diagonal matrix of state energies; satisfies [d, x(m)] = -m x(m)."""
    mat = scipy.sparse.diags(space.energies.astype(complex)).tocsr()
    return FockOperator(mat, space, 0, space.cutoff, 0)


def sugawara(space: TruncatedFockSpace, m: int, data: LevelData) -> FockOperator:
    """Stress-tensor mode L_m by the normal-ordered quadratic current sum.

    The mode sum runs over m' >= ceil(-m/2) with weight 2 except at the
    symmetric point m' = -m/2 (weight 1), which is the reordered form of the
    double sum with annihilating factors on the right; on the truncated space
    it terminates at m' = cutoff - max(m, 0) because higher terms vanish
    identically.  Columns of energy at most cutoff - |m| are exact.
    """
    if abs(m) > space.cutoff // 2:
        raise WindowError(
            f"|m| = {abs(m)} exceeds cutoff/2 = {space.cutoff // 2}")
    if data.family != "A" or data.rank != space.n - 1:
        raise ValueError("level data does not match the space's algebra")
    basis = build_su(space.n).basis
    # sum_i x_i(-m') x^i(m'+m) = sum_{ab} E_ab(-m') sum_{cd} cas[a,b,c,d] E_cd(m'+m)
    # with the dual basis x^i = -x_i: one residual of hop terms, so one
    # stacked product; the weight 1 or 2 scales exactly
    cas = -np.einsum("iab,icd->abcd", basis, basis)
    terms = []
    for mp in range(math.ceil(-m / 2), space.cutoff - max(m, 0) + 1):
        weight = 1.0 if 2 * mp == -m else 2.0
        for a, b in itertools.product(range(space.n), repeat=2):
            terms += [(weight * coef, _hop(space, a, b, -mp), hop)
                      for coef, hop in _hop_terms(space, cas[a, b], mp + m)]
    scale = 1.0 / (2.0 * (data.level + data.dual_coxeter))
    return FockOperator(scale * _stacked_product(space, [terms], [None]), space,
                        degree=-m,
                        protected_energy=space.cutoff - abs(m),
                        max_raise=max(0, -m))


class _Grading(NamedTuple):
    """The truncation bookkeeping of an operator, without its matrix."""

    degree: int | None
    protected_energy: int
    max_raise: int


def _pi_grading(space: TruncatedFockSpace, x: FourierLoopElement,
                max_mode: int) -> _Grading:
    """Grading of pi(x); WindowError if x has a mode beyond ``max_mode``."""
    modes = x.modes()
    if modes and max(abs(k) for k in modes) > max_mode:
        raise WindowError(
            f"element has modes up to {max(abs(k) for k in modes)}, "
            f"window allows {max_mode}")
    raise_ = max([0] + [-k for k in modes])
    degree = -modes[0] if len(modes) == 1 else (0 if not modes else None)
    return _Grading(degree, space.cutoff - raise_, raise_)


def pi_element(space: TruncatedFockSpace, x: FourierLoopElement,
               max_mode: int | None = None) -> FockOperator:
    """Representation of a polynomial loop-algebra element: sum_k x_k(k)."""
    if max_mode is None:
        max_mode = space.cutoff
    grading = _pi_grading(space, x, max_mode)
    terms = [t for k, a in x.coefficients.items() for t in _hop_terms(space, a, k)]
    return FockOperator(_assemble(space, terms), space, *grading)


def _vacuum_lines(space: TruncatedFockSpace,
                  x: FourierLoopElement) -> tuple[np.ndarray, np.ndarray]:
    """The vacuum row and the vacuum column of pi(x), from the cached hops."""
    terms = [t for k, a in x.coefficients.items()
             for t in _hop_terms(space, a, k, _vacuum_hop)]
    lines = (np.zeros(space.dim, dtype=complex), np.zeros(space.dim, dtype=complex))
    for side, line in enumerate(lines if terms else ()):
        np.add.at(line, np.concatenate([e[side][0] for _, e in terms]),
                  np.concatenate([coef * e[side][1] for coef, e in terms]))
    return lines


def vacuum_cocycle_check(space: TruncatedFockSpace, x: FourierLoopElement,
                         y: FourierLoopElement) -> complex:
    """Vacuum expectation of [pi(X), pi(Y)] - pi([X, Y]).

    Equals i * l * B(X, Y) with l = 1 and B the coefficient-side 2-cocycle;
    the comparison value is computed independently by ``central_term_B``.
    Only the (vacuum, vacuum) element is formed, from the vacuum rows and
    columns of the factors read off the cached hops, under the protection
    the full commutator would carry.
    """
    half = space.cutoff // 2
    gx = _pi_grading(space, x, half)
    gy = _pi_grading(space, y, half)
    br = bracket_elements(x, y)
    gbr = _pi_grading(space, br, 2 * half)
    if min(_product_protection(gx, gy), _product_protection(gy, gx),
           gbr.protected_energy) < 0:
        raise WindowError("vacuum column not protected; lower the mode window")
    (row_x, col_x), (row_y, col_y) = _vacuum_lines(space, x), _vacuum_lines(space, y)
    comm = row_x @ col_y - row_y @ col_x
    return complex(comm - _vacuum_lines(space, br)[0][space.vacuum_index])


# ---------------------------------------------------------------------------
# Hilbert-Schmidt defect of the Hardy compression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HSReport:
    """Two routes to ||[P, M_gamma]||_2^2 and their agreement."""

    fourier_value: float
    truncated_value: float
    window: int
    relative_gap: float
    tail_ok: bool
    tail_fraction: float


def hs_defect(fourier_data, window: int) -> HSReport:
    """Compare sum_k |k| ||g_k||^2 with the windowed commutator block norm.

    ``fourier_data`` maps mode k to the n x n Fourier coefficient of a
    group-valued loop.  The truncated value is ||[P, M]||_2^2 for the block
    matrix M_{pq} = g_{p-q}, |p|, |q| <= window, and the Hardy projection
    P = [q >= 0].  Since [P, M]_{pq} = (P_p - P_q) g_{p-q}, mode k fills
    exactly min(|k|, 2 window + 1 - |k|) nonzero blocks (none beyond
    2 window), so the value is counted from the coefficient norms and no
    window-sized array is formed.  A coefficient tail above the window
    larger than 1e-10 of the total mass flags ``tail_ok = False`` instead of
    raising.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not fourier_data:
        raise ValueError("hs_defect needs at least one Fourier coefficient")
    data = {int(k): np.asarray(v, dtype=complex) for k, v in fourier_data.items()}
    shapes = {v.shape for v in data.values()}
    shape = next(iter(shapes))
    if len(shapes) > 1 or len(shape) != 2 or shape[0] != shape[1]:
        raise AlgebraMismatchError(
            f"coefficients must share one n x n shape, got {sorted(shapes)}")
    mass = {k: float(np.linalg.norm(v) ** 2) for k, v in data.items()}
    fourier_value = sum(abs(k) * m for k, m in mass.items())
    total_mass = sum(mass.values())
    tail = sum(m for k, m in mass.items() if abs(k) > window)
    tail_fraction = tail / total_mass if total_mass else 0.0
    tail_ok = tail_fraction <= 1e-10
    truncated_value = sum(max(0, min(abs(k), 2 * window + 1 - abs(k))) * m
                          for k, m in mass.items())
    gap = abs(truncated_value - fourier_value) / fourier_value if fourier_value else 0.0
    return HSReport(float(fourier_value), float(truncated_value), window, gap,
                    tail_ok, tail_fraction)


# ---------------------------------------------------------------------------
# Adjoint-action verification
# ---------------------------------------------------------------------------

def adjoint_action_check(space: TruncatedFockSpace, x: FourierLoopElement,
                         y: FourierLoopElement,
                         block_energy: int | None = None,
                         tolerance: float = 1e-6) -> dict:
    """Report on e^{pi(X)} pi(Y) e^{-pi(X)} = pi(Ad(gamma) Y) + i c(gamma, Y).

    The right-hand side is built independently on a sample grid from the
    pointwise conjugated symbol, its modes |k| <= cutoff above 1e-14 of the
    largest, and the quadrature cocycle of the ``loops`` module.  Returns a
    verification report dict (never raises on mismatch); the residual is
    truncation-limited and measured on columns with energy at most
    ``block_energy`` (default cutoff/4).  Only those columns of the
    left-hand side are formed, by the action of the exponentials on them.
    The element X must be real-form with modes at most cutoff/4.
    """
    import scipy.sparse.linalg

    if not x.real_form:
        raise ValueError("implementer needs a real-form element")
    if max(map(abs, x.modes()), default=0) > space.cutoff // 4:
        raise WindowError("element modes exceed cutoff/4; exponential would "
                          "be truncation-dominated")
    if block_energy is None:
        block_energy = space.cutoff // 4
    gamma = _loop_of_element(x, _ADJOINT_SAMPLES)
    cols = np.flatnonzero(space.energies <= block_energy)
    e_cols = np.zeros((space.dim, len(cols)), dtype=complex)
    e_cols[cols, np.arange(len(cols))] = 1.0
    px = pi_element(space, x).matrix
    py = pi_element(space, y).matrix
    lhs = scipy.sparse.linalg.expm_multiply(
        px, py @ scipy.sparse.linalg.expm_multiply(-px, e_cols))
    ys = y.evaluate(gamma.thetas)
    conj = np.einsum("jab,jbc,jdc->jad", gamma.samples, ys, gamma.samples.conj())
    ady = FourierLoopElement(_mode_cut(conj, space.cutoff), x.algebra)
    c_val = cocycle_c(gamma, y)
    rhs = pi_element(space, ady).matrix[:, cols].toarray() + (1j * c_val) * e_cols
    residual = float(np.abs(lhs - rhs).max(initial=0.0))
    return _report("adjoint-action", block_energy, residual, tolerance,
                   scalar_part=c_val)


def _loop_of_element(x: FourierLoopElement, n_samples: int) -> GridLoop:
    """Pointwise exponential exp(X(theta)) of a real-form element on the grid."""
    return GridLoop(exp_antihermitian(x.evaluate(circle_grid(n_samples))),
                    x.algebra)


# ---------------------------------------------------------------------------
# Identity suites (consumed by the CLI and the tests)
# ---------------------------------------------------------------------------

IDENTITIES = ("affine", "commutator", "virasoro", "rotation", "adjoint",
              "vacuum-cocycle")


def _report(identity, block, residual, tol, **extra):
    rep = {"identity": identity, "block": int(block),
           "residual_max": float(residual), "tolerance": float(tol),
           "pass": bool(residual <= tol)}
    rep.update(extra)
    return rep


def _protected_width(space: TruncatedFockSpace, protected_energy) -> np.ndarray:
    """Number of basis states of energy at most ``protected_energy``.

    ``build_fock`` orders the basis by energy, so these states are the
    first columns.
    """
    return np.searchsorted(space.energies, protected_energy, side="right")


def _group_worst(space: TruncatedFockSpace, residuals) -> tuple[float, int]:
    """Worst |entry| of a group of residuals on their protected columns,
    and the group's smallest protected energy.

    A residual's protected energy is the least ``_product_protection`` of
    its terms, the rule ``FockOperator`` arithmetic applies, so only the
    gradings of its factors (``FockOperator`` or None) are read and no
    residual matrix is formed: ``_stacked_product`` evaluates the group on
    the protected columns of each residual at once.
    """
    unit = _Grading(0, space.cutoff, 0)
    prots = [min(_product_protection(unit if a is None else a,
                                     unit if b is None else b)
                 for _, a, b in terms) for terms in residuals]
    widths = _protected_width(space, prots)
    if not widths.all():
        raise _unprotected(min(prots))
    product = _stacked_product(space, residuals, widths)
    return float(np.abs(product.data).max(initial=0.0)), min(prots)


def identity_reports(n: int, cutoff: int,
                     identities: tuple[str, ...] = IDENTITIES,
                     mode_range: int = 2, tol: float = 1e-10,
                     charge: int | None = None, seed: int = 7,
                     dim_limit: int | None = None) -> list[dict]:
    """Run the operator-identity suite on the truncated level-1 model.

    The central terms are those of level 1, the level of the fermionic
    representation.  Returns one report dict per identity, in ``IDENTITIES``
    order, with the worst residual over the protected block, the block's
    energy and its number of columns.  ``charge`` restricts to a sector
    (cheaper, equally exact for these charge-preserving identities).

    The affine, commutator, virasoro, rotation and adjoint residuals are
    lists of (coef, left, right) terms, evaluated by ``_group_worst`` one
    group at a time: one basis pair of the affine suite, or the whole suite
    of the other four.  The vacuum cocycle is its scalar check.  A residual
    without protected columns raises ``WindowError``.
    """
    unknown = [name for name in identities if name not in IDENTITIES]
    if unknown:
        raise ValueError(f"unknown identities {unknown}; known: {IDENTITIES}")
    if cutoff < 2:
        raise WindowError(f"the identity suite needs cutoff >= 2, got {cutoff}")
    algebra = build_su(n)
    data = level_data(algebra, 1)
    space = build_fock(n, cutoff, charge=charge, dim_limit=dim_limit)
    rng = np.random.default_rng(seed)
    # keep every probed mode (including sums a+b) inside the cutoff window
    mode_range = max(1, min(mode_range, cutoff // 2))
    modes = range(-mode_range, mode_range + 1)

    basis = [algebra.basis[i] for i in range(algebra.dimension)]
    pair_idx = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
    if len(pair_idx) > 12:
        sel = rng.choice(len(pair_idx), size=12, replace=False)
        pair_idx = [pair_idx[int(s)] for s in sel]

    # each mode operator is built once per call: currents by (generator
    # bytes, mode), so equal brackets share one, and L_m by mode
    currents: dict[tuple[bytes, int], FockOperator] = {}

    def cur(xm: np.ndarray, m: int) -> FockOperator:
        key = (xm.tobytes(), m)
        if key not in currents:
            currents[key] = current(space, xm, m)
        return currents[key]

    lmode = cache(lambda m: sugawara(space, m, data))

    # the term-list generators yield groups of residuals; a multiple of the
    # identity is the term (c, None, None)
    def bracket(a: FockOperator, b: FockOperator) -> list:
        return [(1.0, a, b), (-1.0, b, a)]

    def affine():
        for (i, j) in pair_idx:
            xm, ym = basis[i], basis[j]
            brk = xm @ ym - ym @ xm
            pairing = complex(np.trace(xm @ ym))
            group = []
            for a in modes:
                for b in modes:
                    terms = [*bracket(cur(xm, a), cur(ym, b)),
                             (-1.0, None, cur(brk, a + b))]
                    if a + b == 0:
                        terms.append((-a * pairing, None, None))
                    group.append(terms)
            yield group

    def stress_current():
        group = []
        for m in modes:
            for k in modes:
                group.append([*bracket(lmode(m), cur(basis[0], k)),
                              (float(k), None, cur(basis[0], m + k))])
        yield group

    def virasoro():
        c_val = float(data.central_charge)
        group = []
        for a in modes:
            for b in modes:
                if abs(a + b) > cutoff // 2 and a != b:
                    continue   # L_{a+b} is outside the Sugawara window
                terms = bracket(lmode(a), lmode(b))
                if a != b:
                    terms.append((-float(a - b), None, lmode(a + b)))
                if a + b == 0:
                    terms.append((-c_val * a * (a * a - 1) / 12.0, None, None))
                group.append(terms)
        yield group

    def rotation():
        d_op = rotation_generator(space)
        group = []
        for m in modes:
            group.append([*bracket(d_op, cur(basis[0], m)),
                          (float(m), None, cur(basis[0], m))])
        yield group

    def adjoint():
        yield [[(1.0, None, cur(basis[i], m).adjoint()),
                (1.0, None, cur(basis[i], -m))]
               for i in range(min(3, len(basis))) for m in range(mode_range + 1)]

    def vacuum_cocycle():   # scalars on the vacuum, hence block 0
        for _ in range(10):
            x = _random_polynomial(algebra, rng, cutoff // 2)
            y = _random_polynomial(algebra, rng, cutoff // 2)
            yield abs(vacuum_cocycle_check(space, x, y) - 1j * central_term_B(x, y))

    # name -> (residuals, starting block, tolerance), in IDENTITIES order
    suite = {"affine": (affine, cutoff, tol),
             "commutator": (stress_current, cutoff, tol),
             "virasoro": (virasoro, cutoff, tol),
             "rotation": (rotation, cutoff, tol),
             "adjoint": (adjoint, cutoff, tol),
             "vacuum-cocycle": (vacuum_cocycle, 0, max(tol, 1e-12))}
    reports = []
    for name, (residuals, block, tolerance) in suite.items():
        if (name not in identities
                or name == "vacuum-cocycle" and charge not in (None, 0)):
            continue
        worst = 0.0
        for resid in residuals():
            if isinstance(resid, list):
                resid, prot = _group_worst(space, resid)
                block = min(block, prot)
            worst = max(worst, resid)
        reports.append(_report(name, block, worst, tolerance,
                               columns=int(_protected_width(space, block))))
    return reports


def _random_polynomial(algebra: CompactSimpleAlgebra, rng,
                       max_mode: int) -> FourierLoopElement:
    """Random finitely supported real-form element, by hermitian pairing."""
    coeffs: dict[int, np.ndarray] = {}
    for k in map(int, rng.integers(1, max_mode + 1, size=2)):
        a = sum(rng.normal() * algebra.basis[i] + 1j * rng.normal() * algebra.basis[i]
                for i in range(algebra.dimension))
        coeffs[k] = coeffs.get(k, 0) + a
        coeffs[-k] = coeffs.get(-k, 0) + (-a.conj().T)
    z = sum(rng.normal() * algebra.basis[i] for i in range(algebra.dimension))
    coeffs[0] = coeffs.get(0, 0) + z
    return FourierLoopElement(coeffs, algebra, real_form=True)
