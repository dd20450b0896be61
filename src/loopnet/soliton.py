"""Twisted-loop (solitonic) data: jumps, centrality, derived loops, composition.

A twisted path is an ordered product of factors, each either a periodic
exponential exp(f(x) X) with f given by real Fourier data, or a linear
factor exp(x A).  Evaluation on all of R is by the stored formula, so the
defining twisted periodicity

    zeta(x)^{-1} zeta(x + 2 pi) = h   (independent of x)

is something the module *checks* at sample points rather than assumes.  The
jump h of a single linear factor exp(x A) is exp(2 pi A) exactly; whether h
is central in SU(n) decides extendability of the induced sector, and the
derived loops zeta_t(phi) = zeta(phi) zeta(phi - t)^{-1} are genuinely
periodic for every t, with zeta_{2 pi}(phi) = zeta(phi) h zeta(phi)^{-1}
collapsing to the constant loop h exactly when h is central.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CompositionUnsupportedError, LoopnetError
from .lie import (CompactSimpleAlgebra, as_generator, center_elements,
                  eig_antihermitian)
from .loops import (DEFAULT_SAMPLES, GridLoop, ScalarField, _check_sample_count,
                    circle_grid, factor_product)

__all__ = [
    "PeriodicFactor",
    "LinearFactor",
    "SolitonPath",
    "SolitonVerdict",
    "InvalidSolitonError",
    "jump",
    "extendability",
    "zeta_t",
    "rotation_cocycle_2pi",
    "compose",
    "inverse",
    "equivalence_key",
    "conjugate",
    "keys_conjugate",
]

_JUMP_TOL = 1e-10
_JUMP_CHECKS = 32   # base points at which the twist is compared


class InvalidSolitonError(LoopnetError, ValueError):
    """The stored profile is not twisted-periodic to tolerance."""


@dataclass(frozen=True)
class PeriodicFactor:
    """Factor exp(f(x) X) with f a real 2pi-periodic scalar field."""

    generator: np.ndarray
    profile: ScalarField

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The real profile values f(x)."""
        return self.profile.real_values(xs)


@dataclass(frozen=True)
class LinearFactor:
    """Factor exp(x A); contributes exp(2 pi A) to the jump."""

    generator: np.ndarray

    def values(self, xs: np.ndarray) -> np.ndarray:
        """The profile values, x itself."""
        return np.asarray(xs, dtype=float)


class SolitonPath:
    """Ordered product of periodic and linear factors, evaluated on all of R."""

    def __init__(self, algebra: CompactSimpleAlgebra, factors: list):
        self.algebra = algebra
        # a tuple, as the decompositions below are made once for these factors
        self.factors = tuple(factors)
        for f in self.factors:
            if not isinstance(f, (PeriodicFactor, LinearFactor)):
                raise TypeError(f"unsupported factor {type(f)}")
            as_generator(f.generator, algebra.n)
        self._eig = [eig_antihermitian(f.generator) for f in self.factors]
        self._jump = None   # the verified twist, set by ``jump``

    @staticmethod
    def linear(algebra: CompactSimpleAlgebra, a) -> "SolitonPath":
        return SolitonPath(algebra, [LinearFactor(as_generator(a, algebra.n))])

    def evaluate(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return factor_product(
            [(eig, f.values(xs)) for f, eig in zip(self.factors, self._eig)],
            len(xs), self.algebra.n)

    def is_torus_valued(self) -> bool:
        """True when every generator is diagonal (common maximal torus)."""
        return all(
            np.abs(f.generator - np.diag(np.diagonal(f.generator))).max() <= 1e-12
            for f in self.factors)


def jump(zeta: SolitonPath) -> np.ndarray:
    """The twist h = zeta(x)^{-1} zeta(x + 2 pi), verified x-independent.

    Evaluates the profile formula at _JUMP_CHECKS sample points and their
    shifts by 2 pi, in one batch, and raises InvalidSolitonError when the
    twist varies beyond 1e-10.  The path keeps a verified twist, read-only,
    and every later call, and every function of this module that needs the
    jump, returns it without evaluating the path again; a path that fails
    the check keeps nothing and raises on every call.
    """
    if zeta._jump is not None:
        return zeta._jump
    xs = np.linspace(0.0, 2 * math.pi, _JUMP_CHECKS, endpoint=False)
    both = zeta.evaluate(np.concatenate([xs, xs + 2 * math.pi]))
    vals, shifted = both[:_JUMP_CHECKS], both[_JUMP_CHECKS:]
    twists = np.einsum("jba,jbc->jac", vals.conj(), shifted)
    h = twists[0]
    worst = float(np.abs(twists - h).max())
    if worst > _JUMP_TOL:
        raise InvalidSolitonError(
            f"twist varies with the base point by {worst:.2e} > {_JUMP_TOL}")
    h.flags.writeable = False
    zeta._jump = h
    return h


@dataclass(frozen=True)
class SolitonVerdict:
    central: bool
    center_index: int | None
    extendable: bool
    jump: np.ndarray


def extendability(zeta: SolitonPath) -> SolitonVerdict:
    """Classify the induced sector: extendable iff the jump is central."""
    h = jump(zeta)
    n = zeta.algebra.n
    for k, z in enumerate(center_elements(n)):
        if np.abs(h - z).max() <= _JUMP_TOL:
            return SolitonVerdict(True, k, True, h)
    return SolitonVerdict(False, None, False, h)


def zeta_t(zeta: SolitonPath, t: float,
           n_samples: int = DEFAULT_SAMPLES) -> GridLoop:
    """Derived loop zeta_t(phi) = zeta(phi) zeta(phi - t)^{-1}.

    Periodic for every t even when zeta itself is twisted; checked on the
    grid to 1e-10 by comparing against the twisted extension over one period.
    """
    _check_sample_count(n_samples)
    jump(zeta)  # validates the path
    phis = circle_grid(n_samples)
    left = zeta.evaluate(phis)
    right = zeta.evaluate(phis - t)
    samples = np.einsum("jab,jcb->jac", left, right.conj())
    left2 = zeta.evaluate(phis + 2 * math.pi)
    right2 = zeta.evaluate(phis - t + 2 * math.pi)
    samples2 = np.einsum("jab,jcb->jac", left2, right2.conj())
    period_resid = float(np.abs(samples - samples2).max())
    if period_resid > 1e-10:
        raise InvalidSolitonError(
            f"derived loop failed periodicity by {period_resid:.2e}")
    return GridLoop(samples, zeta.algebra)


def rotation_cocycle_2pi(zeta: SolitonPath,
                         n_samples: int = DEFAULT_SAMPLES) -> GridLoop:
    """The derived loop at t = 2 pi: phi -> zeta(phi) h zeta(phi)^{-1}.

    Constant (equal to h) exactly when the jump is central; otherwise a
    genuinely phi-dependent conjugation loop.
    """
    return zeta_t(zeta, 2 * math.pi, n_samples)


def compose(zeta: SolitonPath, eta: SolitonPath) -> SolitonPath:
    """Pointwise product; jump multiplies when the twists cooperate.

    Supported when both paths take values in the common diagonal torus, or
    when the left path's jump is central (so it commutes past the right
    path).  Other combinations would generally not have an x-independent
    twist and are rejected up front.
    """
    if zeta.algebra != eta.algebra:
        raise CompositionUnsupportedError("paths live in different algebras")
    torus = zeta.is_torus_valued() and eta.is_torus_valued()
    if not torus:
        verdict = extendability(zeta)
        if not verdict.central:
            raise CompositionUnsupportedError(
                "composition needs both paths in a common maximal torus "
                "(all generators diagonal) or a central left jump")
    out = SolitonPath(zeta.algebra, zeta.factors + eta.factors)
    jump(out)  # verify the composite is a valid twisted path
    return out


def inverse(zeta: SolitonPath) -> SolitonPath:
    """Pointwise inverse; has the inverse jump."""
    return SolitonPath(zeta.algebra, [replace(f, generator=-f.generator)
                                      for f in reversed(zeta.factors)])


def equivalence_key(zeta: SolitonPath) -> np.ndarray:
    """Jump matrix as the equivalence-class key within a torus family.

    Two torus-valued twisted paths induce equivalent sectors exactly when
    their jumps coincide; the key is only meaningful inside one torus, so
    non-torus paths are rejected.
    """
    if not zeta.is_torus_valued():
        raise CompositionUnsupportedError(
            "equivalence classification is defined for torus-valued paths")
    return jump(zeta)


def conjugate(zeta: SolitonPath, g: np.ndarray) -> SolitonPath:
    """The conjugated family x -> g zeta(x) g^{-1}."""
    g = np.asarray(g, dtype=complex)
    return SolitonPath(zeta.algebra, [replace(f, generator=g @ f.generator @ g.conj().T)
                                      for f in zeta.factors])


def keys_conjugate(key_a: np.ndarray, key_b: np.ndarray,
                   tol: float = 1e-9) -> bool:
    """Whether two keys lie in the same conjugacy class (matching spectra).

    Compared through characteristic-polynomial coefficients, which are
    continuous in the matrix; sorting eigenvalues directly is unstable when
    rounding splits a tie.
    """
    pa = np.poly(np.asarray(key_a, dtype=complex))
    pb = np.poly(np.asarray(key_b, dtype=complex))
    return bool(np.abs(pa - pb).max() <= tol)
