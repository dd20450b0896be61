"""Exact representation-theoretic data: alcoves, central charge, conformal weights.

Everything here is rational arithmetic over explicit type-A root data.  The
central charge c = l*dim/(l+g) and the conformal weight h = C/(2(l+g)) with
C = <lambda, lambda + 2 rho> are exact Fractions; tests against the truncated
fermionic model compare them to floating spectra at 1e-10.

Two conventions for the quadratic Casimir circulate: the bare norm
<lambda, lambda> and the dressed eigenvalue <lambda, lambda + 2 rho>.
Conformal weights require the dressed value (the su(2) level-1 spin-1/2
module has h = 1/4, which the fermionic model confirms); the closed-form
alcove bound l^2/(4 m^2 (l+g)) controls the bare part only, and
``alcove_bounds`` checks it against that quantity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, NumericError, UnsupportedAlgebraError
from .lie import CompactSimpleAlgebra, SimpleTypeRecord

_ALCOVE_CHUNK = 65536   # coordinates of the alcove's level box held at once
MAX_ALCOVE_BOX = 2 ** 18   # largest box scanned: su3 to level 511, su5 to 21

__all__ = [
    "LevelData",
    "AlcoveWeight",
    "level_data",
    "alcove",
    "conformal_weight",
    "alcove_bounds",
    "AlcoveBoundsReport",
]


@dataclass(frozen=True)
class LevelData:
    """Level, dual Coxeter number and exact central charge of one algebra."""

    family: str
    rank: int
    level: int
    dimension: int
    dual_coxeter: int
    central_charge: Fraction


def _dims(algebra) -> tuple[str, int, int, int]:
    """(family, rank, dimension, dual Coxeter) for either algebra model."""
    if isinstance(algebra, CompactSimpleAlgebra):
        return "A", algebra.n - 1, algebra.dimension, algebra.dual_coxeter
    if isinstance(algebra, SimpleTypeRecord):
        return algebra.family, algebra.rank, algebra.complex_dimension, algebra.dual_coxeter
    raise TypeError(f"expected an algebra or a table record, got {type(algebra)}")


def level_data(algebra, level: int) -> LevelData:
    """Exact central charge c = l*dim/(l+g) for the given level.

    The level must be an integer of at least 1 (a numpy integer too, a bool
    not), or NumericError before any arithmetic; every function here takes
    its level through this one.
    """
    if isinstance(level, bool) or not isinstance(level, numbers.Integral):
        raise NumericError(f"level must be an integer, got {level!r}")
    if level < 1:
        raise NumericError(f"level must be a positive integer, got {level}")
    level = int(level)
    family, rank, dim, g = _dims(algebra)
    return LevelData(family, rank, level, dim, g,
                     Fraction(level * dim, level + g))


# ---------------------------------------------------------------------------
# Type-A root data, exact
# ---------------------------------------------------------------------------

class _TypeARoots:
    """Gram data of A_{n-1} fundamental weights in the theta^2 = 2 normalization.

    n times the Gram matrix, min(i, j) n - i j, is an integer matrix, so
    pairings are summed in ints and divided by n once.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("type A needs n >= 2")
        self.n = n
        self.rank = n - 1
        r = self.rank
        self.gram_n = [[min(i, j) * n - i * j
                        for j in range(1, r + 1)] for i in range(1, r + 1)]
        self.gram = np.array(self.gram_n, dtype=np.int64)
        # highest root in fundamental-weight coordinates
        if r == 1:
            self.theta = (2,)
        else:
            self.theta = tuple(1 if i in (0, r - 1) else 0 for i in range(r))
        self.rho = tuple(1 for _ in range(r))

    def pair_n(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """n <a, b>, exact in ints."""
        total = 0
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.gram_n[i]
            for j, bj in enumerate(b):
                if bj:
                    total += ai * bj * row[j]
        return total

    def pair(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        return Fraction(self.pair_n(a, b), self.n)


def _roots_for(algebra) -> _TypeARoots:
    family, rank, _, _ = _dims(algebra)
    if family != "A":
        raise UnsupportedAlgebraError(
            f"explicit root data only available for type A, got {family}_{rank}")
    return _TypeARoots(rank + 1)


@dataclass(frozen=True)
class AlcoveWeight:
    """Dominant integral weight within the level alcove, with exact invariants."""

    weight: tuple[int, ...]
    casimir: Fraction          # <lambda, lambda + 2 rho>
    conformal_weight: Fraction
    theta_pairing: Fraction    # <lambda, theta>


def _scannable_roots(algebra, level: int) -> _TypeARoots:
    """Type-A root data for a level box range(level + 1)^rank of at most
    MAX_ALCOVE_BOX coordinates whose pairings n<lambda, lambda + 2 rho>,
    at most sum(gram_n) * level * (level + 2), are exact in int64."""
    roots = _roots_for(algebra)
    box = (level + 1) ** roots.rank
    bound = sum(map(sum, roots.gram_n)) * level * (level + 2)
    if box > MAX_ALCOVE_BOX or bound >= 2 ** 63:
        raise CapacityError(
            f"the level-{level} alcove scan covers {box} coordinates, more "
            f"than the {MAX_ALCOVE_BOX} allowed", box)
    return roots


def _box_chunks(side: int, rank: int):
    """The box range(side)^rank in lexicographic order, in int64 row blocks
    of at most ``_ALCOVE_CHUNK`` coordinates."""
    total = side ** rank
    rows = max(1, _ALCOVE_CHUNK // rank)
    for start in range(0, total, rows):
        flat = np.arange(start, min(start + rows, total), dtype=np.int64)
        yield np.column_stack(np.unravel_index(flat, (side,) * rank))


def _norms_n(gram: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """n <lambda, lambda> for each row of ``coords``."""
    return ((coords @ gram) * coords).sum(axis=1)


class _Scan(NamedTuple):
    """The weights of a type-A level alcove in integers, one row each in
    lexicographic order: coordinates, n <lambda, lambda + 2 rho> and
    n <lambda, theta>."""

    data: LevelData
    roots: _TypeARoots
    coords: np.ndarray
    cas_n: np.ndarray
    pairing_n: np.ndarray


def _scan(algebra, data: LevelData) -> _Scan:
    """The one scan of the level box: its integer blocks, each cut to the
    weights with <lambda, theta> <= level, joined."""
    level = data.level
    roots = _scannable_roots(algebra, level)
    theta_n = roots.gram @ roots.theta
    rho2_n = 2 * (roots.gram @ roots.rho)
    coords, cas_n, pairing_n = [], [], []
    # lexicographic blocks, so the weights come out sorted
    for block in _box_chunks(level + 1, roots.rank):
        pairing = block @ theta_n
        keep = pairing <= level * roots.n
        block = block[keep]
        coords.append(block)
        cas_n.append(_norms_n(roots.gram, block) + block @ rho2_n)
        pairing_n.append(pairing[keep])
    return _Scan(data, roots, *map(np.concatenate, (coords, cas_n, pairing_n)))


def _weights(scan: _Scan) -> list[AlcoveWeight]:
    """The ``AlcoveWeight`` of each scanned weight.  Each distinct Fraction
    is made once, straight from its integers: weights share a pairing
    (at most level + 1 values) and conjugate weights a Casimir."""
    n = scan.roots.n
    denom_n = 2 * n * (scan.data.level + scan.data.dual_coxeter)
    cas_n, pairing_n = scan.cas_n.tolist(), scan.pairing_n.tolist()
    cas = {c: (Fraction(c, n), Fraction(c, denom_n)) for c in set(cas_n)}
    pairing = {p: Fraction(p, n) for p in set(pairing_n)}
    return [AlcoveWeight(tuple(coords), *cas[c], pairing[p])
            for coords, c, p in zip(scan.coords.tolist(), cas_n, pairing_n)]


def alcove(algebra, level: int) -> list[AlcoveWeight]:
    """All dominant integral weights with <lambda, theta> <= level, sorted.

    The pairing is evaluated through the exact Gram matrix of the fundamental
    weights, not through any closed-form shortcut, so an independent
    enumerator can cross-check the counts.  The coordinate box is scanned in
    integer blocks (``_scan``), and Fractions are built only for the weights
    kept.
    """
    return _weights(_scan(algebra, level_data(algebra, level)))


def conformal_weight(weight: tuple[int, ...], data: LevelData) -> Fraction:
    """Exact h = <lambda, lambda + 2 rho> / (2(l+g)) for an alcove weight."""
    if data.family != "A":
        raise UnsupportedAlgebraError("conformal weights need type-A root data")
    roots = _TypeARoots(data.rank + 1)
    coords = tuple(int(a) for a in weight)
    if len(coords) != roots.rank or any(a < 0 for a in coords):
        raise ValueError(f"not a dominant integral weight: {weight}")
    if roots.pair(coords, roots.theta) > data.level:
        raise ValueError(f"weight {weight} lies outside the level-{data.level} alcove")
    cas = roots.pair(coords, coords) + 2 * roots.pair(coords, roots.rho)
    return cas / (2 * (data.level + data.dual_coxeter))


@dataclass(frozen=True)
class AlcoveBoundsReport:
    central_charge: Fraction
    c_ge_1: bool
    m: float | None               # min_i cos(angle(theta, omega_i)), type A only
    h_max_bound: float | None     # l^2 / (4 m^2 (l+g))
    max_bare_h: float | None      # max over the alcove of <l,l>/(2(l+g))
    max_dressed_h: Fraction | None
    all_within_bound: bool | None


def alcove_bounds(algebra, level: int) -> AlcoveBoundsReport:
    """Central-charge and conformal-weight bounds for one algebra and level.

    c >= 1 is checked for any family.  For type A the constant
    m = min_i cos(angle(theta, omega_i)) is computed numerically from the
    fundamental weights and every alcove weight is checked against
    bare_h := <lambda, lambda>/(2(l+g)) <= l^2/(4 m^2 (l+g)); the dressed
    maximum is reported alongside for reference.
    """
    data = level_data(algebra, level)
    if data.family != "A":
        return AlcoveBoundsReport(data.central_charge,
                                  data.central_charge >= 1, *[None] * 5)
    return _type_a_bounds(_scan(algebra, data))


def _type_a_bounds(scan: _Scan) -> AlcoveBoundsReport:
    """``alcove_bounds`` of a type-A level, read from the integers of its
    scan: no ``AlcoveWeight`` is built."""
    data, roots = scan.data, scan.roots
    level = data.level
    gram = roots.gram / roots.n
    theta = np.array(roots.theta, dtype=float)
    # cos(angle(theta, omega_i)) = (G theta)_i / sqrt(G_ii <theta, theta>)
    m = float(((gram @ theta)
               / np.sqrt(np.diag(gram) * (theta @ gram @ theta))).min())
    denom_n = 2 * (level + data.dual_coxeter) * roots.n
    bound = level ** 2 / (4 * m * m * (level + data.dual_coxeter))
    # int / int true division rounds correctly, like the Fraction it replaces
    max_bare = int(_norms_n(roots.gram, scan.coords).max()) / denom_n
    dressed = Fraction(int(scan.cas_n.max()), denom_n)
    ok = bool(max_bare <= bound + 1e-12)
    return AlcoveBoundsReport(data.central_charge, data.central_charge >= 1,
                              m, float(bound), max_bare, dressed, ok)
