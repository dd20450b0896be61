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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

from .affine_data import LevelData, level_data
from .errors import CapacityError, WindowError
from .lie import AlgebraElement, CompactSimpleAlgebra, build_su, exp_antihermitian
from .loops import (FourierLoopElement, GridLoop, bracket_elements,
                    central_term_B, circle_grid, cocycle_c, fourier_modes)

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
    "DEFAULT_DIM_LIMIT",
]

DEFAULT_DIM_LIMIT = 20000
MASK_BITS = 64   # occupation masks are np.uint64 words


def _dim_limit(explicit: int | None) -> int:
    return DEFAULT_DIM_LIMIT if explicit is None else explicit


def _occupation_mask(n: int, cutoff: int, particles, holes) -> int:
    """Window bitmask: filled sea below 0, minus holes, plus particles."""
    mask = 0
    for k in range(-cutoff, 0):
        for j in range(n):
            mask |= 1 << ((k + cutoff) * n + j)
    for (k, j) in particles:
        mask |= 1 << ((k + cutoff) * n + j)
    for (k, j) in holes:
        mask &= ~(1 << ((k + cutoff) * n + j))
    return mask


def _count_states(n: int, cutoff: int, charge: int | None) -> int:
    """Exact dimension via the two-variable generating polynomial."""
    # counts[(energy, charge)] -> number of configurations, energy <= cutoff
    counts = {(0, 0): 1}
    for k in range(1, cutoff + 1):
        for dq in (1, -1):  # particle at +k / hole at -k, both cost k
            for _ in range(n):
                new = dict(counts)
                for (e, q), c in counts.items():
                    if e + k <= cutoff:
                        key = (e + k, q + dq)
                        new[key] = new.get(key, 0) + c
                counts = new
    total = 0
    for (e, q), c in counts.items():
        for size in range(n + 1):
            if charge is None or q + size == charge:
                total += c * math.comb(n, size)
    return total


def _check_capacity(n: int, cutoff: int, charge: int | None,
                    dim_limit: int | None) -> None:
    """Raise ``CapacityError`` unless the space fits the limit and a mask word.

    The (2*cutoff+1)*n window modes are the bits of one np.uint64 occupation
    mask, so wider windows are refused rather than truncated.
    """
    limit = _dim_limit(dim_limit)
    total = _count_states(n, cutoff, charge)
    if total > limit:
        raise CapacityError(
            f"truncated dimension {total} exceeds limit {limit}", total)
    width = (2 * cutoff + 1) * n
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
    if cutoff >= 1:
        extend(1, cutoff, [], [], configs)
    else:
        configs.append(((), ()))
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

    space_masks, energies, charges, occupations = [], [], [], []
    for energy, q, particles, holes in states:
        mask = _occupation_mask(n, cutoff, particles, holes)
        space_masks.append(mask)
        energies.append(energy)
        charges.append(q)
        occupations.append((particles, holes))
    index = {m: i for i, m in enumerate(space_masks)}
    if len(index) != len(space_masks):
        raise RuntimeError("duplicate states in enumeration")
    return TruncatedFockSpace(n, cutoff, charge, space_masks,
                              np.array(energies, dtype=int),
                              np.array(charges, dtype=int),
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
        _same_space(self, other)
        deg = self.degree if self.degree == other.degree else None
        return FockOperator(
            (self.matrix + other.matrix).tocsr(), self.space, deg,
            min(self.protected_energy, other.protected_energy),
            max(self.max_raise, other.max_raise))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return self + (-1.0) * other

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
            raise ValueError("no protected columns; identity not checkable "
                             f"(protected_energy={self.protected_energy})")
        return _max_abs_on_columns(self.matrix, keep)


def _max_abs_on_columns(matrix, keep: np.ndarray) -> float:
    """Largest |entry| among stored entries whose column has ``keep`` set."""
    mat = matrix.tocsr()
    vals = mat.data[keep[mat.indices]]
    return float(np.abs(vals).max()) if vals.size else 0.0


def _product_protection(a: FockOperator, b: FockOperator) -> int:
    """Protected energy of a @ b: b's columns, and b must not lift them past a's."""
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


def _hop_terms(space: TruncatedFockSpace, xmat: np.ndarray, m: int):
    """(coefficient, hop) pairs of the bilinear sum_k a^dag(k-m) X a(k)."""
    if m == 0 and abs(np.trace(xmat)) > 1e-12:
        raise ValueError("zero-mode currents are defined for traceless "
                         "generators only")
    return [(xmat[i, j], _hop(space, i, j, m))
            for i, j in zip(*np.nonzero(np.abs(xmat) > 1e-15))]


def _assemble(terms, shape, row_offsets=None, col_offsets=None):
    """CSR sum of coefficient * hop over (coefficient, hop) terms.

    ``row_offsets``/``col_offsets`` give each term's block position when the
    hops are stacked into a taller or wider matrix.
    """
    if not terms:
        return scipy.sparse.csr_matrix(shape, dtype=complex)
    rows = [r for _, (r, _, _) in terms]
    cols = [c for _, (_, c, _) in terms]
    if row_offsets is not None:
        rows = [r + off for r, off in zip(rows, row_offsets)]
    if col_offsets is not None:
        cols = [c + off for c, off in zip(cols, col_offsets)]
    data = np.concatenate([coef * signs for coef, (_, _, signs) in terms])
    # the constructor sums duplicates; entries that cancel exactly are dropped
    mat = scipy.sparse.csr_matrix(
        (data.astype(complex), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape)
    mat.eliminate_zeros()
    return mat


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
    return FockOperator(_assemble(_hop_terms(space, xmat, m),
                                  (space.dim, space.dim)), space,
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
    # with the dual basis x^i = -x_i; every block (m', a, b) is stacked into
    # one wide-by-tall sparse product
    cas = -np.einsum("iab,icd->abcd", basis, basis)
    dim = space.dim
    left, left_offsets, right, right_offsets = [], [], [], []
    for mp in range(math.ceil(-m / 2), space.cutoff - max(m, 0) + 1):
        weight = 1.0 if 2 * mp == -m else 2.0
        for a, b in itertools.product(range(space.n), repeat=2):
            terms = _hop_terms(space, cas[a, b], mp + m)
            if not terms:
                continue
            offset = len(left) * dim
            left.append((weight, _hop(space, a, b, -mp)))
            left_offsets.append(offset)
            right += terms
            right_offsets += [offset] * len(terms)
    stacked = len(left) * dim
    total = (_assemble(left, (dim, stacked), col_offsets=left_offsets)
             @ _assemble(right, (stacked, dim), row_offsets=right_offsets))
    scale = 1.0 / (2.0 * (data.level + data.dual_coxeter))
    return FockOperator(scale * total.tocsr(), space,
                        degree=-m,
                        protected_energy=space.cutoff - abs(m),
                        max_raise=max(0, -m))


def pi_element(space: TruncatedFockSpace, x: FourierLoopElement,
               max_mode: int | None = None) -> FockOperator:
    """Representation of a polynomial loop-algebra element: sum_k x_k(k)."""
    if max_mode is None:
        max_mode = space.cutoff
    modes = x.modes()
    if modes and max(abs(k) for k in modes) > max_mode:
        raise WindowError(
            f"element has modes up to {max(abs(k) for k in modes)}, "
            f"window allows {max_mode}")
    terms = [t for k, a in x.coefficients.items() for t in _hop_terms(space, a, k)]
    raise_ = max([0] + [-k for k in modes])
    degree = -modes[0] if len(modes) == 1 else (0 if not modes else None)
    return FockOperator(_assemble(terms, (space.dim, space.dim)), space,
                        degree, space.cutoff - raise_, raise_)


def vacuum_cocycle_check(space: TruncatedFockSpace, x: FourierLoopElement,
                         y: FourierLoopElement) -> complex:
    """Vacuum expectation of [pi(X), pi(Y)] - pi([X, Y]).

    Equals i * l * B(X, Y) with l = 1 and B the coefficient-side 2-cocycle;
    the comparison value is computed independently by ``central_term_B``.
    Only the (vacuum, vacuum) element is formed: a vacuum row of one factor
    times the vacuum column of the other, under the protection the full
    commutator would carry.
    """
    half = space.cutoff // 2
    px = pi_element(space, x, max_mode=half)
    py = pi_element(space, y, max_mode=half)
    pbr = pi_element(space, bracket_elements(x, y), max_mode=2 * half)
    if min(_product_protection(px, py), _product_protection(py, px),
           pbr.protected_energy) < 0:
        raise WindowError("vacuum column not protected; lower the mode window")
    iv = space.vacuum_index
    a, b = px.matrix, py.matrix
    comm = a[[iv], :] @ b[:, [iv]] - b[[iv], :] @ a[:, [iv]]
    return complex(comm[0, 0] - pbr.matrix[iv, iv])


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
    group-valued loop.  The truncated value builds the block matrix
    M_{pq} = g_{p-q} for |p|, |q| <= window, applies the Hardy projection
    P = [q >= 0] and takes the Frobenius norm of the commutator directly.
    A coefficient tail above the window larger than 1e-10 of the total mass
    flags ``tail_ok = False`` instead of raising.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    data = {int(k): np.asarray(v, dtype=complex) for k, v in fourier_data.items()}
    n = next(iter(data.values())).shape[0]
    mass = {k: float(np.linalg.norm(v) ** 2) for k, v in data.items()}
    fourier_value = sum(abs(k) * m for k, m in mass.items())
    total_mass = sum(mass.values())
    tail = sum(m for k, m in mass.items() if abs(k) > window)
    tail_fraction = tail / total_mass if total_mass else 0.0
    tail_ok = tail_fraction <= 1e-10

    size = (2 * window + 1) * n
    big = np.zeros((size, size), dtype=complex)
    offsets = {p: (p + window) * n for p in range(-window, window + 1)}
    for p in range(-window, window + 1):
        for q in range(-window, window + 1):
            g = data.get(p - q)
            if g is not None:
                big[offsets[p]:offsets[p] + n, offsets[q]:offsets[q] + n] = g
    pdiag = np.zeros(size)
    for p in range(0, window + 1):
        pdiag[offsets[p]:offsets[p] + n] = 1.0
    comm = pdiag[:, None] * big - big * pdiag[None, :]
    truncated_value = float(np.linalg.norm(comm) ** 2)
    gap = abs(truncated_value - fourier_value) / fourier_value if fourier_value else 0.0
    return HSReport(float(fourier_value), truncated_value, window, gap,
                    tail_ok, tail_fraction)


# ---------------------------------------------------------------------------
# Adjoint-action verification
# ---------------------------------------------------------------------------

def adjoint_action_check(space: TruncatedFockSpace, x: FourierLoopElement,
                         y: FourierLoopElement,
                         block_energy: int | None = None,
                         n_samples: int = 256,
                         tolerance: float = 1e-6) -> dict:
    """Report on e^{pi(X)} pi(Y) e^{-pi(X)} = pi(Ad(gamma) Y) + i c(gamma, Y).

    The right-hand side is built independently on a sample grid from the
    pointwise conjugated symbol and the quadrature cocycle of the ``loops``
    module.  Returns a verification report dict (never raises on mismatch);
    the residual is truncation-limited and measured on columns with energy
    at most ``block_energy`` (default cutoff/4).  Only those columns of the
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
    gamma = _loop_of_element(x, n_samples)
    cols = np.flatnonzero(space.energies <= block_energy)
    e_cols = np.zeros((space.dim, len(cols)), dtype=complex)
    e_cols[cols, np.arange(len(cols))] = 1.0
    px = pi_element(space, x).matrix
    py = pi_element(space, y).matrix
    lhs = scipy.sparse.linalg.expm_multiply(
        px, py @ scipy.sparse.linalg.expm_multiply(-px, e_cols))
    ys = y.evaluate(gamma.thetas)
    conj = np.einsum("jab,jbc,jdc->jad", gamma.samples, ys, gamma.samples.conj())
    ks, hats, norms = fourier_modes(conj)
    keep = {int(k): hats[i] for i, k in enumerate(ks)
            if abs(k) <= space.cutoff and norms[i] > 1e-13}
    ady = FourierLoopElement(keep, x.algebra)
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

def _report(identity, block, residual, tol, **extra):
    rep = {"identity": identity, "block": int(block),
           "residual_max": float(residual), "tolerance": float(tol),
           "pass": bool(residual <= tol)}
    rep.update(extra)
    return rep


def identity_reports(n: int, cutoff: int,
                     identities: tuple[str, ...] = ("affine", "commutator",
                                                    "virasoro", "rotation",
                                                    "adjoint", "vacuum-cocycle"),
                     mode_range: int = 2, tol: float = 1e-10,
                     charge: int | None = None, seed: int = 7,
                     dim_limit: int | None = None) -> list[dict]:
    """Run the operator-identity suite on the truncated level-1 model.

    The central terms are those of level 1, the level of the fermionic
    representation.  Returns one report dict per identity with the worst residual over the
    protected block.  ``charge`` restricts to a sector (cheaper, equally
    exact for these charge-preserving identities).
    """
    algebra = build_su(n)
    data = level_data(algebra, 1)
    space = build_fock(n, cutoff, charge=charge, dim_limit=dim_limit)
    rng = np.random.default_rng(seed)
    reports = []
    # keep every probed mode (including sums a+b) inside the cutoff window
    mode_range = max(1, min(mode_range, cutoff // 2))

    basis = [algebra.basis[i] for i in range(algebra.dimension)]
    pair_idx = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
    if len(pair_idx) > 12:
        sel = rng.choice(len(pair_idx), size=12, replace=False)
        pair_idx = [pair_idx[int(s)] for s in sel]

    if "affine" in identities:
        worst, block = 0.0, cutoff
        for (i, j) in pair_idx:
            xm, ym = basis[i], basis[j]
            brk = xm @ ym - ym @ xm
            pairing = complex(np.trace(xm @ ym))
            for a in range(-mode_range, mode_range + 1):
                for b in range(-mode_range, mode_range + 1):
                    lhs = commutator(current(space, xm, a), current(space, ym, b))
                    rhs = current(space, brk, a + b)
                    if a + b == 0:
                        rhs = rhs + (a * pairing) * identity_operator(space)
                    resid = lhs - rhs
                    worst = max(worst, resid.max_protected_abs())
                    block = min(block, resid.protected_energy)
        reports.append(_report("affine", block, worst, tol))

    need_l = ("commutator" in identities) or ("virasoro" in identities)
    lmodes = {}
    if need_l:
        l_max = min(2 * mode_range, cutoff // 2)
        for m in range(-l_max, l_max + 1):
            lmodes[m] = sugawara(space, m, data)

    if "commutator" in identities:
        worst, block = 0.0, cutoff
        xm = basis[0]
        for m in range(-mode_range, mode_range + 1):
            for k in range(-mode_range, mode_range + 1):
                resid = commutator(lmodes[m], current(space, xm, k)) \
                    + float(k) * current(space, xm, m + k)
                worst = max(worst, resid.max_protected_abs())
                block = min(block, resid.protected_energy)
        reports.append(_report("commutator", block, worst, tol))

    if "virasoro" in identities:
        worst, block = 0.0, cutoff
        c_val = float(data.central_charge)
        for a in range(-mode_range, mode_range + 1):
            for b in range(-mode_range, mode_range + 1):
                if a + b not in lmodes and a != b:
                    continue
                resid = commutator(lmodes[a], lmodes[b])
                if a != b:
                    resid = resid - float(a - b) * lmodes[a + b]
                if a + b == 0:
                    central = c_val * a * (a * a - 1) / 12.0
                    resid = resid - central * identity_operator(space)
                worst = max(worst, resid.max_protected_abs())
                block = min(block, resid.protected_energy)
        reports.append(_report("virasoro", block, worst, tol))

    if "rotation" in identities:
        worst, block = 0.0, cutoff
        d_op = rotation_generator(space)
        xm = basis[0]
        for m in range(-mode_range, mode_range + 1):
            xop = current(space, xm, m)
            resid = commutator(d_op, xop) + float(m) * xop
            worst = max(worst, resid.max_protected_abs())
            block = min(block, resid.protected_energy)
        reports.append(_report("rotation", block, worst, tol))

    if "adjoint" in identities:
        worst, block = 0.0, cutoff
        for i in range(min(3, len(basis))):
            for m in range(0, mode_range + 1):
                xop = current(space, basis[i], m)
                resid = xop.adjoint() + current(space, basis[i], -m)
                worst = max(worst, resid.max_protected_abs())
                block = min(block, resid.protected_energy)
        reports.append(_report("adjoint", block, worst, tol))

    if "vacuum-cocycle" in identities and charge in (None, 0):
        worst = 0.0
        half = max(1, cutoff // 2)
        for _ in range(10):
            x = _random_polynomial(algebra, rng, half)
            y = _random_polynomial(algebra, rng, half)
            got = vacuum_cocycle_check(space, x, y)
            want = 1j * central_term_B(x, y)
            worst = max(worst, abs(got - want))
        reports.append(_report("vacuum-cocycle", 0, worst, max(tol, 1e-12)))

    return reports


def _random_polynomial(algebra: CompactSimpleAlgebra, rng,
                       max_mode: int) -> FourierLoopElement:
    """Random finitely supported real-form element, by hermitian pairing."""
    coeffs: dict[int, np.ndarray] = {}
    modes = rng.integers(1, max_mode + 1, size=2)
    for k in modes:
        k = int(k)
        a = sum(rng.normal() * algebra.basis[i] + 1j * rng.normal() * algebra.basis[i]
                for i in range(algebra.dimension))
        coeffs[k] = coeffs.get(k, 0) + a
        coeffs[-k] = coeffs.get(-k, 0) + (-a.conj().T)
    z = sum(rng.normal() * algebra.basis[i] for i in range(algebra.dimension))
    coeffs[0] = coeffs.get(0, 0) + z
    return FourierLoopElement(coeffs, algebra, real_form=True)
