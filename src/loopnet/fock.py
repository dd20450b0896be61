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
protected part of the space.  Here l = 1, g = n, and the basis sum is the
integer tensor n cas[a,b,c,d] = n delta_ad delta_bc - delta_ab delta_cd on
the hops E_ab(m), so each entry of L_m is 1/(2n(n+1)) times an integer.

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
those columns.  The suites' currents are the hops E_ij(m) themselves:
every current is a linear combination of them, so a relation checked on
every hop holds on every current, and on the hops' integer entries the
affine, rotation and adjoint residuals are exactly 0.  A suite reads each
operator once per call as its entries by ascending column, so a cut is a
prefix of them, and takes them where they are already in that order: a
hop from its cached table, which is listed by column, L_{-m} from the rows
of the real L_m, and any other operator from its CSC.  One grading rule,
``_pi_grading``, serves every linear mode: a hop, a current, pi(x) and the
vacuum check's guard.  The Sugawara modes are the same product of hop
tables, on all columns.  Its factors, the currents and pi(x) come from one
COO -> CSR routine, which joins all blocks by one concatenation per array.
``FockOperator`` arithmetic stays the public route and the tests' oracle.
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

from .affine_data import level_data
from .errors import (AlgebraMismatchError, CapacityError, ConfigError,
                     InvalidRankError, NumericError, WindowError)
from .lie import (AlgebraElement, CompactSimpleAlgebra, _taylor_terms, build_su,
                  exp_antihermitian)
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
    "DEFAULT_IDENTITY_TOL",
    "DEFAULT_MODE_RANGE",
]

DEFAULT_DIM_LIMIT = 20000
DEFAULT_IDENTITY_TOL = 1e-10   # identity_reports: largest residual that passes
DEFAULT_MODE_RANGE = 2         # identity_reports: modes |m| probed
MASK_BITS = 64   # occupation masks are np.uint64 words
_ADJOINT_SAMPLES = 256   # circle grid of gamma = exp(X) in adjoint_action_check
# Taylor steps of _exp_action: each step's operator has 1-norm at most
# _TAYLOR_THETA, and its series stops at the first degree whose a-priori
# bound theta^k / k! is at most the unit roundoff 2^-53 (k = 24 for theta 2).
_TAYLOR_THETA = 2.0
_TAYLOR_TERMS = _taylor_terms(_TAYLOR_THETA)


def _excitations(n: int, cutoff: int):
    """The excitations of the filled sea in cost order, as (cost, charge,
    window bit): the n zero-mode particles, which cost nothing, then for
    k = 1, ..., cutoff a particle at mode k and a hole at mode -k of each
    color, both of energy k.  A state is a set of excitations of total cost
    <= cutoff; window mode (k, color) is bit (k + cutoff) * n + color."""
    for j in range(n):
        yield 0, 1, cutoff * n + j
    for k in range(1, cutoff + 1):
        for dq in (1, -1):
            for j in range(n):
                yield k, dq, (dq * k + cutoff) * n + j


def _reaching(charge: int, charges: np.ndarray, budget: np.ndarray,
              sums: dict, spent: dict) -> np.ndarray:
    """Which states of these charges and cost budgets can still reach
    ``charge``.  ``sums[dq]`` are the running cost totals, from 0, of the
    excitations of charge dq in cost order, of which the first ``spent[dq]``
    are used; the most of the rest that fit a budget are the cheapest."""
    def most(dq):
        total, used = sums[dq], spent[dq]
        return np.searchsorted(total, total[used] + budget, side="right") - 1 - used
    return (charges - most(-1) <= charge) & (charge <= charges + most(1))


def _count_states(n: int, cutoff: int, charge: int | None) -> int:
    """Exact dimension of the truncated space: the sets of excitations of
    total cost <= cutoff, counted by (energy, charge) one excitation at a
    time, then summed over ``charge`` (all charges for None)."""
    counts = {(0, 0): 1}   # (energy, charge) -> number of states
    for cost, dq, _ in _excitations(n, cutoff):
        new = dict(counts)
        for (e, q), c in counts.items():
            if e + cost <= cutoff:
                new[e + cost, q + dq] = new.get((e + cost, q + dq), 0) + c
        counts = new
    return sum(c for (_, q), c in counts.items() if charge in (None, q))


def _check_capacity(n: int, cutoff: int, charge: int | None,
                    dim_limit: int | None) -> None:
    """Refuse a space that ``build_fock`` cannot build.

    n < 2 raises ``InvalidRankError`` and cutoff < 0 ``WindowError``.  Then
    two ``CapacityError`` checks, in this order: the (2*cutoff+1)*n window
    modes must fit the bits of one np.uint64 occupation mask (estimate: the
    bits), and the exact dimension must fit the limit, default
    DEFAULT_DIM_LIMIT (estimate: the states).  The width comes first, so the
    count never sees more than MASK_BITS excitations.
    """
    if n < 2:
        raise InvalidRankError(f"need n >= 2, got n={n}")
    if cutoff < 0:
        raise WindowError(f"need cutoff >= 0, got cutoff={cutoff}")
    width = (2 * cutoff + 1) * n
    if width > MASK_BITS:
        raise CapacityError(
            f"occupation mask needs (2*{cutoff}+1)*{n} = {width} bits, "
            f"more than the {MASK_BITS}-bit mask width", width)
    limit = DEFAULT_DIM_LIMIT if dim_limit is None else dim_limit
    dim = _count_states(n, cutoff, charge)
    if dim > limit:
        raise CapacityError(f"truncated dimension {dim} exceeds limit {limit}", dim)


@dataclass(frozen=True, eq=False)
class TruncatedFockSpace:
    """Energy-cutoff basis of particle/hole configurations.

    ``words`` holds one np.uint64 occupation word per basis state, in basis
    order, with bit (k + cutoff) * n + color set when the window mode
    (k, color), |k| <= cutoff, is filled; the Dirac-sea modes below the
    window are permanently filled and never touched by any operator
    assembled here, so bilinear matrix elements computed in the window are
    exact.  ``energies`` and ``charges`` are the states' gradings, and the
    basis is ordered by (energy, charge, word).  A space compares and
    hashes by identity, as ``_same_space`` treats it.

    ``hops`` caches the elementary hops E_ij(m) = sum_k a^dag(k-m, i) a(k, j)
    as (rows, cols, signs) arrays, built on first use by ``_hop`` for all
    target colors i at once; every current, Sugawara mode and pi_element
    is a linear combination of them.  The tables list their entries by
    ascending column, so the entries of the vacuum column, basis state 0,
    come first, and the entries in the first k columns are a prefix.
    ``vacuum_heads`` caches that head of E_ij(m), as ``_vacuum_head``
    cuts it from the hop table.
    """

    n: int
    cutoff: int
    charge: int | None
    words: np.ndarray
    energies: np.ndarray
    charges: np.ndarray
    hops: dict = field(default_factory=dict, repr=False)
    vacuum_heads: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.words)

    @cached_property
    def _mask_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """(the words in ascending order, their basis indices)."""
        order = np.argsort(self.words)
        return self.words[order], order

    @property
    def vacuum_index(self) -> int:
        if self.charge not in (None, 0):
            raise WindowError("the vacuum lives in the charge-0 sector, "
                              f"not in sector {self.charge}")
        # energy-0 states are sets of zero-mode particles, of charges 0..n,
        # so the filled sea is the only state of energy 0 and charge 0 and
        # the first in (energy, charge) order
        return 0


def build_fock(n: int, cutoff: int, charge: int | None = None,
               dim_limit: int | None = None) -> TruncatedFockSpace:
    """Enumerate the truncated space, ordered by (energy, charge, word).

    ``charge`` restricts to a single charge sector, which every operator in
    this module preserves; the restriction is exact for identity checks and
    cuts the dimension roughly by the number of sectors.  ``_check_capacity``
    runs first: n >= 2 and cutoff >= 0, then the (2*cutoff+1)*n window modes
    must fit a 64-bit occupation word, then the exact dimension must fit
    ``dim_limit`` (default 20000); each refusal is a typed ``LoopnetError``.
    """
    _check_capacity(n, cutoff, charge, dim_limit)

    # each excitation flips its window bit in every state it fits; a state
    # is kept while the requested charge is still reachable within its
    # budget, so it extends to a distinct final state and no array grows
    # past the final dimension
    excitations = list(_excitations(n, cutoff))
    sums = {dq: np.cumsum([0] + [c for c, q, _ in excitations if q == dq])
            for dq in (1, -1)}
    spent = {1: 0, -1: 0}
    sea = (1 << cutoff * n) - 1   # the vacuum: window modes k < 0 filled
    words = np.array([sea], dtype=np.uint64)
    energies, charges = np.zeros(1, int), np.zeros(1, int)
    for cost, dq, bit in excitations:
        fits = energies + cost <= cutoff
        words = np.concatenate([words, words[fits] ^ np.uint64(1 << bit)])
        energies = np.concatenate([energies, energies[fits] + cost])
        charges = np.concatenate([charges, charges[fits] + dq])
        spent[dq] += 1
        if charge is not None:
            keep = _reaching(charge, charges, cutoff - energies, sums, spent)
            words, energies, charges = words[keep], energies[keep], charges[keep]

    order = np.lexsort((words, charges, energies))
    return TruncatedFockSpace(n, cutoff, charge, words[order], energies[order],
                              charges[order])


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
        width = _protected_width(self.space, self.protected_energy)
        if not width:
            raise _unprotected(self.protected_energy)
        return _max_abs_on_columns(self.matrix, width)


def _unprotected(protected_energy: int) -> WindowError:
    return WindowError("no protected columns; identity not checkable "
                       f"(protected_energy={protected_energy})")


def _max_abs_on_columns(matrix, width: int) -> float:
    """Largest |entry| among stored entries of the CSR ``matrix`` in its
    first ``width`` columns."""
    vals = matrix.data[matrix.indices < width]
    return float(np.abs(vals).max()) if vals.size else 0.0


def _product_protection(a, b) -> int:
    """Protected energy of a @ b: b's columns, and b must not lift them past a's.

    ``a`` and ``b`` are FockOperators or the ``_Grading`` of one.
    """
    return min(b.protected_energy, a.protected_energy - b.max_raise)


def _same_space(a: FockOperator, b: FockOperator) -> None:
    if a.space is not b.space:
        raise AlgebraMismatchError("operators live on different truncated spaces")


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def identity_operator(space: TruncatedFockSpace) -> FockOperator:
    return FockOperator(scipy.sparse.identity(space.dim, dtype=complex,
                                              format="csr"),
                        space, 0, space.cutoff, 0)


def _hop(space: TruncatedFockSpace, i: int, j: int, m: int):
    """Cached (rows, cols, signs) of E_ij(m) = sum_k a^dag(k-m, i) a(k, j).

    A miss builds the hops of source color j and mode m to every target
    color at once, for all states and window modes k: the sign of each
    ladder step is the parity of the occupied bits below it, and the target
    row is found by binary search among the words in ascending order
    (targets outside the space are dropped).  The entries are listed by
    ascending column, and no (row, col) repeats: the diagonal E_ii(0) holds
    one entry per state, the count of its filled window modes of color i.
    """
    key = (i, j, m)
    if key not in space.hops:
        _build_hops(space, j, m)
    return space.hops[key]


def _build_hops(space: TruncatedFockSpace, j: int, m: int) -> None:
    """Cache E_ij(m) for every target color i; the annihilation at (k, j)
    is shared, and arrays are (target color, state, k), so ``np.nonzero``
    lists each table by column.  A hop lowers the energy by m, so only the
    states of energy at most cutoff + m, a prefix of the basis, are
    sources."""
    n, cutoff = space.n, space.cutoff
    words = space.words
    sorted_words, order = space._mask_lookup
    ks = np.arange(max(-cutoff, -cutoff + m), min(cutoff, cutoff + m) + 1)
    one = np.uint64(1)
    src = one << ((ks + cutoff) * n + j).astype(np.uint64)
    dst = one << ((ks - m + cutoff) * n
                  + np.arange(n)[:, None]).astype(np.uint64)[:, None, :]
    state = words[:_protected_width(space, cutoff + m), None]
    mid = state & ~src
    ok = ((state & src) != 0) & ((mid & dst) == 0)
    targets, cols, kk = np.nonzero(ok)
    moved, created = mid[cols, kk], dst[targets, 0, kk]
    parity = (np.bitwise_count(state[cols, 0] & (src[kk] - one))
              + np.bitwise_count(moved & (created - one))) & 1
    target = moved | created
    pos = np.minimum(np.searchsorted(sorted_words, target), len(words) - 1)
    found = sorted_words[pos] == target
    rows = order[pos[found]].astype(np.int32)
    cols = cols[found].astype(np.int32)
    signs = (1 - 2 * parity[found]).astype(np.int8)
    bounds = np.searchsorted(targets[found], np.arange(n + 1))
    for i in range(n):
        part = slice(bounds[i], bounds[i + 1])
        space.hops[i, j, m] = (rows[part], cols[part], signs[part])
    if m == 0:
        # E_jj(0) is diagonal, one +1 per filled window mode of color j: one
        # entry per state holds their count, at most the 64 // n <= 32 window
        # modes of a color, far inside int8
        rows, cols, signs = space.hops[j, j, 0]
        heads = np.flatnonzero(np.diff(cols, prepend=-1))
        space.hops[j, j, 0] = (rows[heads], cols[heads],
                               np.add.reduceat(signs, heads).astype(np.int8))


def _vacuum_head(space: TruncatedFockSpace, i: int, j: int, m: int):
    """Cached (rows, cols, signs) of E_ij(m) Omega: the entries of the
    vacuum column, basis state 0, which head the hop table."""
    key = (i, j, m)
    if key not in space.vacuum_heads:
        rows, cols, signs = _hop(space, i, j, m)
        end = cols.searchsorted(1)
        rows, cols, signs = rows[:end], cols[:end], signs[:end]
        if i == j and m == 0:
            # the count of filled modes as that many unit entries, so the
            # vacuum column adds a diagonal coefficient once per mode, in
            # the rounding of the per-mode sum
            rows, cols = np.repeat(rows, signs), np.repeat(cols, signs)
            signs = np.ones(len(rows), dtype=np.int8)
        space.vacuum_heads[key] = (rows, cols, signs)
    return space.vacuum_heads[key]


def _hop_terms(space: TruncatedFockSpace, xmat: np.ndarray, m: int, table=_hop):
    """(coefficient, hop) pairs of the bilinear sum_k a^dag(k-m) X a(k),
    each hop E_ij(m) read as ``table(space, i, j, m)``."""
    if m == 0 and abs(np.trace(xmat)) > 1e-12:
        raise NumericError("zero-mode currents are defined for traceless "
                           "generators only")
    rows, cols = np.nonzero(np.abs(xmat) > 1e-15)
    return [(xmat[i, j], table(space, i, j, m))
            for i, j in zip(rows.tolist(), cols.tolist())]


def _column_indices(starts: np.ndarray) -> np.ndarray:
    """The column of each entry of a column-ordered list with ``starts``."""
    return np.repeat(np.arange(len(starts) - 1, dtype=starts.dtype), np.diff(starts))


def _assemble(space: TruncatedFockSpace, terms):
    """CSR sum of coefficient * hop over (coefficient, hop) terms, whose
    coefficients are nonzero, by ``_stacked_csr``; no term is the empty
    matrix."""
    shape = (space.dim, space.dim)
    if not terms:
        return scipy.sparse.csr_matrix(shape, dtype=complex)
    return _stacked_csr([(*hop, None, 0, 0, coef) for coef, hop in terms], shape)


def _index_dtype(size: int):
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _joined(blocks, index):
    """The entries (rows, cols, data) of blocks (rows, cols, data, count,
    row offset, column offset, coef): coef * the block's first ``count``
    entries (all of them for None), placed at its offsets.  One
    concatenation per array, with the offsets and coefficients repeated
    over the blocks' sizes."""
    rows, cols, data, counts, row_offsets, col_offsets, coefs = zip(*blocks)
    sizes = [len(r) if k is None else k for r, k in zip(rows, counts)]

    def joined(parts, dtype):
        return np.concatenate([p[:k] for p, k in zip(parts, sizes)], dtype=dtype)

    rows = joined(rows, index)
    rows += np.repeat(np.array(row_offsets, dtype=index), sizes)
    cols = joined(cols, index)
    cols += np.repeat(np.array(col_offsets, dtype=index), sizes)
    data = joined(data, complex)
    data *= np.repeat(np.array(coefs, dtype=complex), sizes)
    return rows, cols, data


def _stacked_csr(blocks, shape):
    """CSR sum of the ``_joined`` entries of blocks (at least one), by
    ``_summed_csr``."""
    return _summed_csr(*_joined(blocks, _index_dtype(max(shape))), shape)


def _summed_csr(rows, cols, data, shape):
    """CSR of COO entries: duplicate entries sum and entries that cancel
    exactly are dropped.  The module's one COO -> CSR construction."""
    mat = scipy.sparse.csr_matrix((data, (rows, cols)), shape=shape)
    mat.eliminate_zeros()
    return mat


class _Factor(NamedTuple):
    """An operator as the identity suites read it: its entries (rows, cols,
    data) by ascending column, ``starts[c]`` the number of them in the
    columns before c, and the grading that ``_product_protection`` reads.
    Made where the entries already are in that order: ``_hop_factor`` from
    a hop table, ``_sugawara_factor`` from L_|m|, and ``_factor`` from any
    other operator."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    starts: np.ndarray
    protected_energy: int
    max_raise: int


def _factor(op: FockOperator) -> _Factor:
    """The ``_Factor`` of ``op``, read from its CSC: its ``indices`` are the
    rows, ascending in each column, and its ``indptr`` is ``starts``."""
    return _compressed_factor(op.matrix.tocsc(), op.protected_energy, op.max_raise)


def _compressed_factor(mat, protected_energy: int, max_raise: int) -> _Factor:
    """The ``_Factor`` whose columns are the compressed axis of ``mat``,
    with sorted indices: the columns of a CSC matrix, or the rows of a CSR
    matrix, which are the columns of its transpose."""
    return _Factor(mat.indices, _column_indices(mat.indptr), mat.data, mat.indptr,
                   protected_energy, max_raise)


def _hop_factor(space: TruncatedFockSpace, i: int, j: int, m: int) -> _Factor:
    """The ``_Factor`` of the hop E_ij(m): its cached table, whose integer
    signs are the data, under the one-mode grading of m."""
    rows, cols, signs = _hop(space, i, j, m)
    grading = _pi_grading(space, [m], space.cutoff)
    return _Factor(rows, cols, signs, cols.searchsorted(np.arange(space.dim + 1)),
                   grading.protected_energy, grading.max_raise)


def _hop_operator(space: TruncatedFockSpace, i: int, j: int, m: int) -> FockOperator:
    """The hop E_ij(m) as a ``FockOperator`` under the one-mode grading of m."""
    return FockOperator(_assemble(space, [(1.0, _hop(space, i, j, m))]), space,
                        *_pi_grading(space, [m], space.cutoff))


def _stacked_product(space: TruncatedFockSpace, residuals, widths):
    """The residuals side by side, each on its first ``width`` columns (all
    of them for None), as one sparse product wide @ tall.

    A residual is a list of ``(coef, left, right)`` terms standing for
    sum coef * left @ right.  A factor is a cached ``_hop`` table or a
    ``_Factor``, whose first three fields are its entries by ascending
    column; a factor cut to a width is a ``_Factor``, and its cut is the
    prefix of ``starts[width]`` entries.  ``wide`` places the distinct left
    factors side by side, and ``tall`` places coef * right, cut to its
    residual's width, at its left factor's row block and its residual's
    column block.  Duplicate entries sum, so the product holds every
    residual in its own column block.
    """
    dim = space.dim
    slots, wide, tall = {}, [], []
    col_offset = 0
    for terms, width in zip(residuals, widths):
        for coef, left, right in terms:
            slot = slots.get(id(left))
            if slot is None:
                slot = slots[id(left)] = len(slots) * dim
                wide.append((*left[:3], None, 0, slot, 1.0))
            tall.append((*right[:3], None if width is None else right.starts[width],
                         slot, col_offset, coef))
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
    Its grading is that of the one mode m (``_pi_grading``), |m| <= cutoff.
    """
    terms, grading = _current_terms(space, x, m)
    return FockOperator(_assemble(space, terms), space, *grading)


def _current_terms(space: TruncatedFockSpace, x, m: int):
    """The (coefficient, hop) terms and the grading of the current x(m)."""
    grading = _pi_grading(space, [m], space.cutoff)
    xmat = x.matrix if isinstance(x, AlgebraElement) else np.asarray(x, complex)
    if xmat.shape != (space.n, space.n):
        raise AlgebraMismatchError(
            f"generator shape {xmat.shape} does not match n={space.n}")
    return _hop_terms(space, xmat, m), grading


def rotation_generator(space: TruncatedFockSpace) -> FockOperator:
    """Diagonal matrix of state energies; satisfies [d, x(m)] = -m x(m)."""
    mat = scipy.sparse.diags(space.energies.astype(complex)).tocsr()
    return FockOperator(mat, space, 0, space.cutoff, 0)


def sugawara(space: TruncatedFockSpace, m: int) -> FockOperator:
    """Stress-tensor mode L_m by the normal-ordered quadratic current sum.

    The level-1 su(n) data are read from n = ``space.n``: the scale
    1/(2(l+g)) = 1/(2n(n+1)) times an integer sum of hop products, so
    L_{-m} = L_m^dagger entry for entry.  The mode sum runs over
    m' >= ceil(-m/2) with weight 2 except at the symmetric point m' = -m/2
    (weight 1), which is the reordered form of the double sum with
    annihilating factors on the right; on the truncated space it terminates
    at m' = cutoff - max(m, 0) because higher terms vanish identically.
    Columns of energy at most cutoff - |m| are exact (``_sugawara_grading``).
    The entries are real, so L_{-m} = L_m^T: the identity suites build
    L_m for m >= 0 only and read L_{-m} from it (``_sugawara_factor``).
    """
    if abs(m) > space.cutoff // 2:
        raise WindowError(
            f"|m| = {abs(m)} exceeds cutoff/2 = {space.cutoff // 2}")
    # sum_i x_i(-m') x^i(m'+m) = sum_{ab} E_ab(-m') sum_{cd} cas[a,b,c,d] E_cd(m'+m),
    # n cas = n delta_ad delta_bc - delta_ab delta_cd, each n cas[a, b] traceless
    n, eye = space.n, np.eye(space.n)
    ncas = n * eye[:, None, None] * eye[:, :, None] - eye[:, :, None, None] * eye
    support = [(a, b, [(ncas[a, b, c, d], c, d)
                       for c, d in np.argwhere(ncas[a, b]).tolist()])
               for a, b in itertools.product(range(n), repeat=2)]
    terms = []
    for mp in range(math.ceil(-m / 2), space.cutoff - max(m, 0) + 1):
        weight = 1.0 if 2 * mp == -m else 2.0
        for a, b, entries in support:
            left = _hop(space, a, b, -mp)
            terms += [(weight * coef, left, _hop(space, c, d, mp + m))
                      for coef, c, d in entries]
    return FockOperator(_stacked_product(space, [terms], [None]) / (2 * n * (n + 1)),
                        space, *_sugawara_grading(space, m))


class _Grading(NamedTuple):
    """The truncation bookkeeping of an operator, without its matrix."""

    degree: int | None
    protected_energy: int
    max_raise: int


def _sugawara_grading(space: TruncatedFockSpace, m: int) -> _Grading:
    """Grading of L_m: degree -m, exact on columns of energy at most
    cutoff - |m|, raising the energy by at most max(0, -m)."""
    return _Grading(-m, space.cutoff - abs(m), max(0, -m))


def _sugawara_factor(l_op: FockOperator, m: int) -> _Factor:
    """The ``_Factor`` of L_m, read from ``l_op`` = ``sugawara(space, |m|)``.

    For m >= 0 it is ``_factor(l_op)``.  For m < 0 it is the transpose,
    L_m = L_{|m|}^dagger = L_{|m|}^T since every entry is real: its columns
    are the rows of L_{|m|}, the CSR with its indices sorted, and the data
    are taken as they are, the same bits the product for L_m would give.
    """
    if m >= 0:
        return _factor(l_op)
    grading = _sugawara_grading(l_op.space, m)
    return _compressed_factor(l_op.matrix.sorted_indices(), grading.protected_energy,
                              grading.max_raise)


def _pi_grading(space: TruncatedFockSpace, modes: list[int],
                max_mode: int) -> _Grading:
    """Grading of a sum of linear modes x_k(k) over the sorted ``modes``,
    as a current (one mode) or pi(x) (x.modes()) carries it: the degree -k
    of a single mode k, 0 with no mode, else None.  WindowError if a mode
    lies beyond ``max_mode``."""
    top = max(map(abs, modes), default=0)
    if top > max_mode:
        raise WindowError(f"modes up to {top}, window allows {max_mode}")
    raise_ = max([0] + [-k for k in modes])
    degree = -modes[0] if len(modes) == 1 else (0 if not modes else None)
    return _Grading(degree, space.cutoff - raise_, raise_)


def pi_element(space: TruncatedFockSpace, x: FourierLoopElement,
               max_mode: int | None = None) -> FockOperator:
    """Representation of a polynomial loop-algebra element: sum_k x_k(k)."""
    if max_mode is None:
        max_mode = space.cutoff
    grading = _pi_grading(space, x.modes(), max_mode)
    terms = [t for k, a in x.coefficients.items() for t in _hop_terms(space, a, k)]
    return FockOperator(_assemble(space, terms), space, *grading)


def _vacuum_column(space: TruncatedFockSpace, coefficients) -> np.ndarray:
    """pi(x) Omega for the (mode, matrix) ``coefficients`` of x.

    The vacuum is basis state 0 and each hop lists its entries by ascending
    column, so the vacuum column of a hop is the head of its table, cached
    on the space by ``_vacuum_head``; modes k > 0 annihilate the vacuum and
    are skipped.  The heads of the diagonal zero-mode hops all hold row 0,
    so the entries sum by ``np.add.at``, in the order of the terms.
    """
    heads = [(*head, None, 0, 0, coef)
             for k, a in coefficients if k <= 0
             for coef, head in _hop_terms(space, a, k, _vacuum_head)]
    column = np.zeros(space.dim, dtype=complex)
    if heads:
        rows, _, values = _joined(heads, np.intp)
        np.add.at(column, rows, values)
    return column


def _paired(x: FourierLoopElement) -> bool:
    """Whether the coefficients of x pair exactly, c_{-k} = -c_k^dagger at
    every mode k, so that X* = -X entry for entry."""
    c = x.coefficients
    return all(-k in c and np.array_equal(c[-k], -a.conj().T) for k, a in c.items())


def vacuum_cocycle_check(space: TruncatedFockSpace, x: FourierLoopElement,
                         y: FourierLoopElement) -> complex:
    """Vacuum expectation of [pi(X), pi(Y)] - pi([X, Y]).

    Equals i * l * B(X, Y) with l = 1 and B the coefficient-side 2-cocycle;
    the comparison value is computed independently by ``central_term_B``.
    Only the (vacuum, vacuum) element is formed, under the protection the
    full commutator would carry: the vacuum column of pi(X) is the head of
    its cached hops, and its vacuum row the conjugate of pi(X*) Omega,
    since E_ij(m)^dagger = E_ji(-m) with the same real signs.  When the
    coefficients of X pair exactly (``_paired``), X* = -X and the row is
    -conj(pi(X) Omega), so three vacuum columns serve; any other element
    forms pi(X*) Omega.  A charged sector, which holds no vacuum, is
    refused first.
    """
    vacuum = space.vacuum_index
    half = space.cutoff // 2
    gx = _pi_grading(space, x.modes(), half)
    gy = _pi_grading(space, y.modes(), half)
    br = bracket_elements(x, y)
    gbr = _pi_grading(space, br.modes(), 2 * half)
    if min(_product_protection(gx, gy), _product_protection(gy, gx),
           gbr.protected_energy) < 0:
        raise WindowError("vacuum column not protected; lower the mode window")
    col_x, col_y, col_br = (_vacuum_column(space, z.coefficients.items())
                            for z in (x, y, br))
    row_x, row_y = (
        -col.conj() if _paired(z) else _vacuum_column(
            space, ((-k, a.conj().T) for k, a in z.coefficients.items())).conj()
        for z, col in ((x, col_x), (y, col_y)))
    comm = row_x @ col_y - row_y @ col_x
    return complex(comm - col_br[vacuum])


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
    raising; a coefficient that is not finite raises NumericError.
    """
    if window < 1:
        raise WindowError("window must be >= 1")
    if not fourier_data:
        raise NumericError("hs_defect needs at least one Fourier coefficient")
    data = {int(k): np.asarray(v, dtype=complex) for k, v in fourier_data.items()}
    shapes = {v.shape for v in data.values()}
    shape = next(iter(shapes))
    if len(shapes) > 1 or len(shape) != 2 or shape[0] != shape[1]:
        raise AlgebraMismatchError(
            f"coefficients must share one n x n shape, got {sorted(shapes)}")
    if not all(np.isfinite(v).all() for v in data.values()):
        raise NumericError("hs_defect needs finite Fourier coefficients")
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
    left-hand side are formed, by ``_exp_action``, the truncated Taylor
    action of the exponentials on them.  The element X must be real-form
    with modes at most cutoff/4, and some state must have energy at most
    ``block_energy``; otherwise WindowError.
    """
    if not x.real_form:
        raise NumericError("implementer needs a real-form element")
    if max(map(abs, x.modes()), default=0) > space.cutoff // 4:
        raise WindowError("element modes exceed cutoff/4; exponential would "
                          "be truncation-dominated")
    if block_energy is None:
        block_energy = space.cutoff // 4
    gamma = _loop_of_element(x, _ADJOINT_SAMPLES)
    width = _protected_width(space, block_energy)
    if not width:
        raise WindowError(f"no basis state has energy <= {block_energy}")
    e_cols = np.eye(space.dim, width, dtype=complex)
    px = pi_element(space, x).matrix
    py = pi_element(space, y).matrix
    lhs = _exp_action(px, py @ _exp_action(-px, e_cols))
    ys = y.evaluate(gamma.thetas)
    conj = np.einsum("jab,jbc,jdc->jad", gamma.samples, ys, gamma.samples.conj())
    ady = FourierLoopElement(_mode_cut(conj, space.cutoff), x.algebra)
    c_val = cocycle_c(gamma, y)
    rhs = pi_element(space, ady).matrix[:, :width].toarray() + (1j * c_val) * e_cols
    residual = float(np.abs(lhs - rhs).max(initial=0.0))
    return _report("adjoint-action", block_energy, residual, tolerance,
                   scalar_part=c_val)


def _exp_action(a: scipy.sparse.csr_matrix, block: np.ndarray) -> np.ndarray:
    """e^A B for a sparse anti-hermitian A and a dense block B of columns.

    The truncated Taylor action of Al-Mohy and Higham (SIAM J. Sci. Comput.
    33, 2011) with an a-priori term count: s = ceil(||A||_1 / theta) steps
    of e^{A/s}, each summed through degree ``_TAYLOR_TERMS``.  A is
    anti-hermitian, so ||A/s||_2 <= ||A/s||_1 <= theta and the dropped tail
    of each step is below theta^k / k! <= 2^-53 relative to its input; no
    norm estimate or stopping test is needed.  A = 0 takes no step.  A
    must be compressed (CSR or CSC): its 1-norm is read from ``indices``,
    and the row and column sums of |A| agree for an anti-hermitian A.
    """
    norm = np.bincount(a.indices, weights=np.abs(a.data)).max(initial=0.0)
    steps = math.ceil(norm / _TAYLOR_THETA)
    out = np.array(block, dtype=complex)
    for _ in range(steps):
        term = out
        for k in range(1, _TAYLOR_TERMS + 1):
            term = a @ term
            term *= 1.0 / (steps * k)
            out += term
    return out


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


def _protected_width(space: TruncatedFockSpace, protected_energy):
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
    gradings of its factors (each a ``_Factor``) are read and no residual
    matrix is formed: ``_stacked_product`` evaluates the group on the
    protected columns of each residual at once.
    """
    prots = [min(_product_protection(a, b) for _, a, b in terms)
             for terms in residuals]
    widths = _protected_width(space, prots)
    if not widths.all():
        raise _unprotected(min(prots))
    product = _stacked_product(space, residuals, widths)
    return float(np.abs(product.data).max(initial=0.0)), min(prots)


def _sector_identities(charge: int | None) -> tuple[str, ...]:
    """The identities a sector can run, in ``IDENTITIES`` order: all of them
    on a sector that holds the vacuum (charge 0 or all charges), all but the
    vacuum cocycle on a charged one."""
    return tuple(name for name in IDENTITIES
                 if charge in (None, 0) or name != "vacuum-cocycle")


def _check_identities(identities, charge: int | None) -> None:
    """Refuse an unknown identity name (``ConfigError``) and one the sector
    cannot run (``WindowError``), so no requested check is dropped."""
    unknown = [name for name in identities if name not in IDENTITIES]
    if unknown:
        raise ConfigError(f"unknown identities {unknown}; known: {IDENTITIES}")
    refused = [name for name in identities if name not in _sector_identities(charge)]
    if refused:
        raise WindowError(f"identities {refused} need the vacuum, which the "
                          f"charge-{charge} sector does not hold")


def identity_reports(n: int, cutoff: int,
                     identities: tuple[str, ...] | None = None,
                     mode_range: int = DEFAULT_MODE_RANGE,
                     tol: float = DEFAULT_IDENTITY_TOL,
                     charge: int | None = None, seed: int = 7,
                     dim_limit: int | None = None) -> list[dict]:
    """Run the operator-identity suite on the truncated level-1 model.

    The central terms are those of level 1, the level of the fermionic
    representation.  Returns one report dict per identity, in ``IDENTITIES``
    order, with the worst residual over the protected block, the block's
    energy and its number of columns (the one vacuum column for the vacuum
    cocycle).  ``charge`` restricts to a sector (cheaper, equally exact for
    these charge-preserving identities).
    ``identities`` defaults to every identity the sector can run
    (``_sector_identities``).

    The affine, commutator, virasoro, rotation and adjoint residuals are
    lists of (coef, left, right) terms, evaluated by ``_group_worst`` one
    group at a time: the affine pairs of one left hop, or the whole suite
    of each of the other four.  Their currents are the hops E_ij(m), the
    integer factors of every current: by bilinearity a relation that holds
    on every hop holds on every x(m), and on hops each relation is a
    Kronecker-delta identity whose residual is exactly 0.  Coverage, with
    modes |a|, |b|, |m| <= ``mode_range``:

    - affine: [E_ij(a), E_kl(b)] = delta_jk E_il(a+b) - delta_li E_kj(a+b)
      + a delta_{a+b,0} delta_il delta_jk on every unordered pair of
      distinct (hop, mode), one group per left hop ij;
    - commutator: [L_m, E_01(k)] = -k E_01(m+k) on every (m, k);
    - virasoro: the Virasoro relations with c = l dim/(l+g) on every
      (a, b) whose L_{a+b} the Sugawara window holds;
    - rotation: [d, E_ij(m)] = -m E_ij(m) on every hop and mode;
    - adjoint: E_ij(m)^dagger = E_ji(-m) on every hop and 0 <= m, the left
      side by ``FockOperator.adjoint`` of the hop's operator;
    - vacuum-cocycle: the scalar check of ``vacuum_cocycle_check`` on 10
      pairs of random real-form elements, the only thing ``seed`` seeds.

    Every operator in a term, the identity included, is read once per call
    as a ``_Factor``, its entries by column, which the call drops with it,
    and each is made where its entries already are in that order: E_ij(m)
    from its cached hop table (``_hop_factor``); L_m is built once per
    m >= 0 and L_{-m} read from it as its transpose (``_sugawara_factor``);
    d, the identity and the adjoint suite's E_ij(m)^dagger are read from
    their CSC (``_factor``).  A residual without protected columns raises
    ``WindowError``.

    Refused before the space is built: an unknown identity name
    (``ConfigError``), an identity the sector cannot run, a cutoff below 2
    or a ``mode_range`` below 1 (``WindowError``); a ``mode_range`` above
    cutoff/2 probes |m| <= cutoff/2.
    """
    if identities is None:
        identities = _sector_identities(charge)
    _check_identities(identities, charge)
    if cutoff < 2:
        raise WindowError(f"the identity suite needs cutoff >= 2, got {cutoff}")
    if mode_range < 1:
        raise WindowError(
            f"the identity suite needs mode_range >= 1, got {mode_range}")
    algebra = build_su(n)
    space = build_fock(n, cutoff, charge=charge, dim_limit=dim_limit)
    rng = np.random.default_rng(seed)
    # keep every probed mode (including sums a+b) inside the cutoff window
    mode_range = min(mode_range, cutoff // 2)
    modes = range(-mode_range, mode_range + 1)

    hops = list(itertools.product(range(n), repeat=2))

    # each mode operator is read by the suites once per call as a _Factor,
    # E_ij(m) by (i, j, m) and L_m by mode; sugawara builds L_|m|
    hop = cache(lambda i, j, m: _hop_factor(space, i, j, m))
    l_built = cache(lambda m: sugawara(space, m))
    lmode = cache(lambda m: _sugawara_factor(l_built(abs(m)), m))
    eye = _factor(identity_operator(space))

    # the term-list generators yield groups of residuals; a multiple of the
    # identity is the term (c, eye, eye)
    def bracket(a: _Factor, b: _Factor) -> list:
        return [(1.0, a, b), (-1.0, b, a)]

    def affine():
        # one group per left hop ij holds its pairs: a single group of all
        # pairs raised the peak RSS of the su2/6 and su3/4 charge-0 suites
        # from 61 to 72 MB.  The window's E_ii(0) is the normal-ordered one
        # plus cutoff, the same for every color, so the constant cancels
        # from the right side E_ii(0) - E_jj(0)
        probes = [(i, j, a) for i, j in hops for a in modes]
        pairs = itertools.combinations(probes, 2)
        for _, by_left in itertools.groupby(pairs, key=lambda pq: pq[0][:2]):
            group = []
            for (i, j, a), (k, l, b) in by_left:
                terms = bracket(hop(i, j, a), hop(k, l, b))
                if j == k:
                    terms.append((-1.0, eye, hop(i, l, a + b)))
                if l == i:
                    terms.append((1.0, eye, hop(k, j, a + b)))
                if a + b == 0 and j == k and l == i:
                    terms.append((-float(a), eye, eye))
                group.append(terms)
            yield group

    def stress_current():
        yield [[*bracket(lmode(m), hop(0, 1, k)), (float(k), eye, hop(0, 1, m + k))]
               for m in modes for k in modes]

    def virasoro():
        c_val = float(level_data(algebra, 1).central_charge)
        group = []
        for a in modes:
            for b in modes:
                if abs(a + b) > cutoff // 2 and a != b:
                    continue   # L_{a+b} is outside the Sugawara window
                terms = bracket(lmode(a), lmode(b))
                if a != b:
                    terms.append((-float(a - b), eye, lmode(a + b)))
                if a + b == 0:
                    terms.append((-c_val * a * (a * a - 1) / 12.0, eye, eye))
                group.append(terms)
        yield group

    def rotation():
        d_op = _factor(rotation_generator(space))
        yield [[*bracket(d_op, hop(i, j, m)), (float(m), eye, hop(i, j, m))]
               for i, j in hops for m in modes]

    def adjoint():
        yield [[(1.0, eye, _factor(_hop_operator(space, i, j, m).adjoint())),
                (-1.0, eye, hop(j, i, -m))]
               for i, j in hops for m in range(mode_range + 1)]

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
        if name not in identities:
            continue
        worst = 0.0
        for resid in residuals():
            if isinstance(resid, list):
                resid, prot = _group_worst(space, resid)
                block = min(block, prot)
            worst = max(worst, resid)
        # the vacuum cocycle reads the vacuum column alone, however many
        # states of energy 0 the space holds (2^n on all charges)
        columns = (1 if name == "vacuum-cocycle"
                   else int(_protected_width(space, block)))
        reports.append(_report(name, block, worst, tolerance, columns=columns))
    return reports


def _random_polynomial(algebra: CompactSimpleAlgebra, rng,
                       max_mode: int) -> FourierLoopElement:
    """Random finitely supported real-form element, by hermitian pairing."""
    # sum_i (r_i + i s_i) e_i with the draws r_0, s_0, r_1, ... in turn,
    # summed over i in order
    basis = algebra.basis[:, None]
    coeffs: dict[int, np.ndarray] = {}
    for k in map(int, rng.integers(1, max_mode + 1, size=2)):
        r, s = rng.normal(size=(algebra.dimension, 2, 1, 1)).transpose(1, 0, 2, 3)
        a = np.add.reduce(r * basis[:, 0] + 1j * s * basis[:, 0])
        coeffs[k] = coeffs.get(k, 0) + a
        coeffs[-k] = coeffs.get(-k, 0) + (-a.conj().T)
    z = np.add.reduce(rng.normal(size=(algebra.dimension, 1, 1)) * algebra.basis)
    coeffs[0] = coeffs.get(0, 0) + z
    return FourierLoopElement(coeffs, algebra, real_form=True)
