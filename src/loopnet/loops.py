"""Sobolev loop calculus on the circle.

Loop-algebra elements are finitely supported Fourier series with matrix
coefficients; group-valued loops are uniform grids of special-unitary
samples (power-of-two length, so spectral differentiation is an FFT away).
The module provides the weighted coefficient norms, the derivation and
multiplication actions of scalar fields, the central 2-cocycle

    B(X, Y) = integral <X, Y'> dtheta / 2pi = sum_k i k <a_{-k}, b_k>,

the adjoint-action cocycles c(gamma, X) and c(gamma, h) by spectrally
accurate trapezoid quadrature, loop splitting at marked points, and the
exponential of the semidirect product with the flow of a real field, as the
time-ordered exponential along the flow's characteristics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np
import scipy.sparse

from .errors import (
    AlgebraMismatchError,
    CapacityError,
    ConfigError,
    NormDivergedError,
    NotSplittableError,
    NumericError,
    ResolutionError,
    VerificationError,
)
from .lie import (AlgebraElement, CompactSimpleAlgebra, _taylor_terms,
                  as_generator, eig_antihermitian, exp_profile)

__all__ = [
    "FourierLoopElement",
    "ScalarField",
    "GridLoop",
    "SplitPair",
    "sobolev_norm",
    "act_derivation",
    "multiply_field",
    "bracket_elements",
    "central_term_B",
    "maurer_cartan",
    "cocycle_c",
    "cocycle_c_field",
    "cocycle_b",
    "cocycle_b_field",
    "split_loop",
    "semidirect_exp",
    "circle_grid",
    "fourier_modes",
    "factor_product",
    "kernel_bound_check",
    "kernel_bound_sweep",
    "loop_from_factors",
    "identity_loop",
    "loop_fourier_coefficients",
    "DEFAULT_SAMPLES",
    "MAX_SAMPLES",
    "MAX_STEPS",
]

DEFAULT_SAMPLES = 256  # circle grid of a loop when no sample count is given
MAX_SAMPLES = 1 << 16  # largest sample count of a grid loop (4 MB on su2)
# most steps of each step loop that semidirect_exp plans: its Magnus
# product, its flow of h and, when the check runs, its RK4 check
# (|t| <= 100 at _ODE_DT)
MAX_STEPS = 10 ** 5

_DROP = 1e-16          # coefficients below this Frobenius norm are discarded
_REALITY_TOL = 1e-12
_TAIL_GUARD = 1e-10    # relative tail mass allowed above mode N/4
_ODE_DT = 1e-3         # step of the RK4 integration that verifies semidirect_exp
_ODE_TOL = 1e-6        # sup-norm gap allowed between Magnus product and integration
# Gauss nodes on [0, 1] of the three-node sixth-order Magnus step
_MAGNUS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# (step, angle) points of the Magnus exponents formed at once, at least one
# step: the number of steps grows with |t| and the size of X, the blocks do
# not.  Timed on the Magnus product, 2^10 points (4 steps of 256 angles on
# su2, 8 of 128 on su4) are a fifth faster than one block on su2 and as
# fast on su4, where 2^8 points are a sixth slower
_MAGNUS_BLOCK = 1 << 10
# and at most this many matrix entries (points times n^2), which caps the
# blocks from su17 up
_MAGNUS_ENTRIES = 1 << 18
# (step, angle) points whose node angles (3 floats a point) are held at
# once.  A longer product takes them in segments of at least sqrt(M) steps,
# so the angles held grow as sqrt(M), not as M
_MAGNUS_SEGMENT = 1 << 16


class FourierLoopElement:
    """Finitely supported series X(theta) = sum_k a_k e^{i k theta}, a_k matrices.

    ``real_form`` marks pointwise membership in the compact real form, which
    on coefficients reads a_{-k} = -(a_k)^dagger.  ``decay_rate`` optionally
    declares an asymptotic bound |a_k| = O((1+|k|)^{-decay_rate}) for norm
    divergence checks; the stored coefficients are always finite in number.
    """

    __slots__ = ("coefficients", "algebra", "real_form", "decay_rate")

    def __init__(self, coefficients: Mapping[int, np.ndarray],
                 algebra: CompactSimpleAlgebra,
                 real_form: bool | None = None,
                 decay_rate: float | None = None):
        n = algebra.n
        mats = {}
        for k, a in coefficients.items():
            a = np.asarray(a, dtype=complex)
            if a.shape != (n, n):
                raise AlgebraMismatchError(
                    f"coefficient at mode {k} has shape {a.shape}, expected {(n, n)}")
            mats[int(k)] = a
        stack = np.array(list(mats.values())).reshape(-1, n, n)
        if not np.isfinite(stack).all():
            raise NumericError("loop element coefficients must be finite")
        kept = np.linalg.norm(stack, axis=(1, 2)) > _DROP
        coeffs = {k: a for (k, a), keep in zip(mats.items(), kept) if keep}
        if real_form is None or real_form:
            # a_{-k} = -(a_k)^dagger: max_k |a_{-k} + a_k^dagger|_F, all modes at once
            zero = np.zeros((n, n))
            partner = np.array([coeffs.get(-k, zero) for k in coeffs]).reshape(-1, n, n)
            worst = np.linalg.norm(partner + stack[kept].conj().transpose(0, 2, 1),
                                   axis=(1, 2)).max(initial=0.0)
            inside = bool(worst <= _REALITY_TOL)
            if real_form and not inside:
                raise NumericError(
                    f"real-form tag violated: coefficient reality residual {worst:.2e}")
            real_form = inside
        self.coefficients = coeffs
        self.algebra = algebra
        self.real_form = real_form
        self.decay_rate = decay_rate

    def modes(self) -> list[int]:
        return sorted(self.coefficients)

    def evaluate(self, thetas: np.ndarray) -> np.ndarray:
        """Pointwise values, shape (len(thetas), n, n): ``_planar_values``
        with the matrix axes last."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return np.ascontiguousarray(np.moveaxis(_planar_values(self, thetas),
                                                (0, 1), (-2, -1)))

    def derivative(self) -> "FourierLoopElement":
        return FourierLoopElement(
            {k: 1j * k * a for k, a in self.coefficients.items()},
            self.algebra, real_form=self.real_form)

    def star(self) -> "FourierLoopElement":
        """Pointwise involution; coefficient at m is (a_{-m})^dagger."""
        return FourierLoopElement(
            {-k: a.conj().T for k, a in self.coefficients.items()}, self.algebra)

    def __add__(self, other):
        _same_algebra(self, other)
        keys = set(self.coefficients) | set(other.coefficients)
        z = np.zeros((self.algebra.n,) * 2)
        return FourierLoopElement(
            {k: self.coefficients.get(k, z) + other.coefficients.get(k, z)
             for k in keys}, self.algebra)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return FourierLoopElement(
            {k: scalar * a for k, a in self.coefficients.items()}, self.algebra)

    def __repr__(self):
        return (f"FourierLoopElement(su({self.algebra.n}), "
                f"modes={self.modes()}, real_form={self.real_form})")


class ScalarField:
    """Finitely supported scalar series h(theta) = sum_k h_k e^{i k theta}."""

    __slots__ = ("coefficients", "real", "decay_rate", "_pairs")

    def __init__(self, coefficients: Mapping[int, complex],
                 real: bool | None = None, decay_rate: float | None = None):
        values = {int(k): complex(v) for k, v in coefficients.items()}
        if not np.isfinite(list(values.values())).all():
            raise NumericError("scalar field coefficients must be finite")
        coeffs = {k: v for k, v in values.items() if abs(v) > _DROP}
        # h_{-k} = conj(h_k): max_k |conj(h_k) - h_{-k}|, NaN kept by np.max
        worst = np.max([abs(np.conj(v) - coeffs.get(-k, 0.0))
                        for k, v in coeffs.items()], initial=0.0)
        inside = bool(worst <= _REALITY_TOL)
        if real and not inside:
            raise NumericError(f"real tag violated: max |conj(h_k) - h_-k| {worst:.2e}")
        self.coefficients = coeffs
        self.real = inside if real is None else real
        self.decay_rate = decay_rate
        # h_0, i|k| for each positive |k|, h_k and conj(h_{-k}) for evaluate
        ks = sorted({abs(k) for k in coeffs} - {0})
        self._pairs = (coeffs.get(0, 0j), 1j * np.array(ks, dtype=float),
                       np.array([coeffs.get(k, 0j) for k in ks], dtype=complex),
                       np.array([coeffs.get(-k, 0j) for k in ks], dtype=complex).conj())

    @staticmethod
    def constant(value: complex = 1.0) -> "ScalarField":
        return ScalarField({0: value})

    def modes(self) -> list[int]:
        return sorted(self.coefficients)

    def evaluate(self, thetas: np.ndarray) -> np.ndarray:
        """h(theta) as a complex array, one exp per positive |k| and
        e^{-ik theta} = conj(e^{ik theta})."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        h0, iks, h_pos, h_neg_conj = self._pairs
        phases = np.exp(np.multiply.outer(thetas, iks))
        return (phases @ h_pos + (phases @ h_neg_conj).conj()) + h0

    def real_values(self, thetas: np.ndarray) -> np.ndarray:
        """Re h(theta), for a field that is ``real``; refuses any other."""
        if not self.real:
            raise NumericError("scalar field is not real: h_-k != conj(h_k)")
        return self.evaluate(thetas).real

    def __repr__(self):
        return f"ScalarField(modes={self.modes()}, real={self.real})"


def _same_algebra(x, y):
    if x.algebra != y.algebra:
        raise AlgebraMismatchError("operands live in different algebras")


def _coeff_norms(x) -> dict[int, float]:
    if isinstance(x, FourierLoopElement):
        return {k: float(np.linalg.norm(a)) for k, a in x.coefficients.items()}
    if isinstance(x, ScalarField):
        return {k: abs(v) for k, v in x.coefficients.items()}
    raise TypeError(f"expected FourierLoopElement or ScalarField, got {type(x)}")


def sobolev_norm(x, s: float, p: float = 1.0) -> float:
    """Weighted coefficient norm ( sum_k (1+|k|)^{sp} |a_k|^p )^{1/p}.

    The single-index norm |X|_t is the p = 1 case.  Matrix coefficients are
    measured in Frobenius norm.  With a declared decay profile the norm is
    checked for convergence first and NormDivergedError raised when the tail
    does not converge absolutely.
    """
    if p < 1.0:
        raise NumericError(f"p must be >= 1, got {p}")
    norms = _coeff_norms(x)
    if x.decay_rate is not None and (s - x.decay_rate) * p >= -1.0:
        raise NormDivergedError(
            f"norm (s={s}, p={p}) diverges for declared decay rate {x.decay_rate}")
    total = sum((1.0 + abs(k)) ** (s * p) * v ** p for k, v in norms.items())
    return float(total ** (1.0 / p))


def act_derivation(h: ScalarField, x: FourierLoopElement) -> FourierLoopElement:
    """The action h.X = h(theta) dX/dtheta; mode m gets sum_k h_{m-k} (ik) a_k."""
    return multiply_field(h, x.derivative())


def multiply_field(h: ScalarField, x: FourierLoopElement) -> FourierLoopElement:
    """Pointwise product hX by coefficient convolution."""
    out: dict[int, np.ndarray] = {}
    for kh, v in h.coefficients.items():
        for kx, a in x.coefficients.items():
            m = kh + kx
            out[m] = out.get(m, 0) + v * a
    return FourierLoopElement(out, x.algebra)


def bracket_elements(x: FourierLoopElement, y: FourierLoopElement) -> FourierLoopElement:
    """Pointwise bracket [X, Y](theta); mode m gets sum_k [a_k, b_{m-k}]."""
    _same_algebra(x, y)
    out: dict[int, np.ndarray] = {}
    for kx, a in x.coefficients.items():
        for ky, b in y.coefficients.items():
            m = kx + ky
            out[m] = out.get(m, 0) + (a @ b - b @ a)
    return FourierLoopElement(out, x.algebra)


def central_term_B(x: FourierLoopElement, y: FourierLoopElement) -> complex:
    """The 2-cocycle B(X, Y) = sum_k i k tr(a_{-k} b_k); antisymmetric."""
    _same_algebra(x, y)
    total = 0.0 + 0.0j
    for k, b in y.coefficients.items():
        a = x.coefficients.get(-k)
        if a is not None:
            total += 1j * k * np.trace(a @ b)
    return complex(total)


# ---------------------------------------------------------------------------
# Grid loops
# ---------------------------------------------------------------------------

def _check_sample_count(n_samples: int) -> int:
    """``n_samples`` if it is an integer (a numpy integer too) and a power
    of two >= 4, as a grid loop's sample count must be, and at most
    MAX_SAMPLES; NumericError for the first two rules, CapacityError
    (estimate: the samples) for the third."""
    if not isinstance(n_samples, numbers.Integral):
        raise NumericError(f"sample count must be an integer, got {n_samples!r}")
    if n_samples < 4 or n_samples & (n_samples - 1):
        raise NumericError(f"sample count must be a power of two >= 4, got {n_samples}")
    if n_samples > MAX_SAMPLES:
        raise CapacityError(f"sample count {n_samples} exceeds MAX_SAMPLES = "
                            f"{MAX_SAMPLES}", n_samples)
    return n_samples


class GridLoop:
    """Group-valued loop sampled at theta_j = 2 pi j / N, N a power of two."""

    __slots__ = ("samples", "algebra")

    def __init__(self, samples: np.ndarray, algebra: CompactSimpleAlgebra,
                 check: bool = True):
        samples = np.asarray(samples, dtype=complex)
        _check_sample_count(samples.shape[0])
        if samples.shape[1:] != (algebra.n, algebra.n):
            raise AlgebraMismatchError("sample shape does not match the algebra")
        if check:
            if not np.isfinite(samples).all():
                raise NumericError("samples not special unitary: not finite")
            eye = np.eye(algebra.n)
            uerr = np.abs(np.einsum("jab,jcb->jac", samples, samples.conj())
                          - eye).max()
            derr = np.abs(np.linalg.det(samples) - 1.0).max()
            if max(uerr, derr) > 1e-10:
                raise NumericError(
                    f"samples not special unitary: unitarity {uerr:.2e}, det {derr:.2e}")
        self.samples = samples
        self.algebra = algebra

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def thetas(self) -> np.ndarray:
        return circle_grid(self.n_samples)

    def inverse(self) -> "GridLoop":
        return GridLoop(self.samples.conj().transpose(0, 2, 1), self.algebra,
                        check=False)

    def __matmul__(self, other: "GridLoop") -> "GridLoop":
        _same_algebra(self, other)
        if self.n_samples != other.n_samples:
            raise AlgebraMismatchError("sample counts differ")
        return GridLoop(np.einsum("jab,jbc->jac", self.samples, other.samples),
                        self.algebra, check=False)


def identity_loop(algebra: CompactSimpleAlgebra,
                  n_samples: int = DEFAULT_SAMPLES) -> GridLoop:
    _check_sample_count(n_samples)
    eye = np.broadcast_to(np.eye(algebra.n, dtype=complex),
                          (n_samples, algebra.n, algebra.n)).copy()
    return GridLoop(eye, algebra, check=False)


def circle_grid(n_samples: int) -> np.ndarray:
    """The grid angles theta_j = 2 pi j / N, j = 0, ..., N - 1."""
    return 2 * np.pi * np.arange(n_samples) / n_samples


def factor_product(factors, n_samples: int, n: int) -> np.ndarray:
    """Samples of prod_j exp(f_j X_j), shape (n_samples, n, n).

    ``factors`` are ((U, d), f) pairs: the ``eig_antihermitian`` of X_j and
    its real profile values on the samples.  No factors give the identity.
    """
    out = np.broadcast_to(np.eye(n, dtype=complex), (n_samples, n, n)).copy()
    for (u, d), f_vals in factors:
        out = np.einsum("jab,jbc->jac", out, exp_profile(u, d, f_vals))
    return out


def loop_from_factors(algebra: CompactSimpleAlgebra,
                      factors: list[tuple[np.ndarray | AlgebraElement,
                                          Callable[[np.ndarray], np.ndarray] | ScalarField]],
                      n_samples: int = DEFAULT_SAMPLES) -> GridLoop:
    """Pointwise product of exponentials exp(f_j(theta) X_j) on the grid."""
    thetas = circle_grid(_check_sample_count(n_samples))
    pairs = []
    for x, profile in factors:
        xm = as_generator(x, algebra.n)
        if isinstance(profile, ScalarField):
            f_vals = profile.real_values(thetas)
        else:
            f_vals = np.asarray(profile(thetas), dtype=float)
        pairs.append((eig_antihermitian(xm), f_vals))
    return GridLoop(factor_product(pairs, n_samples, algebra.n), algebra)


def fourier_modes(samples: np.ndarray):
    """(k, c_k, |c_k|): integer modes, coefficients FFT / N and their
    Frobenius norms, of samples on the uniform grid, in FFT order."""
    n_samp = samples.shape[0]
    hats = np.fft.fft(samples, axis=0) / n_samp
    ks = np.fft.fftfreq(n_samp, d=1.0 / n_samp).astype(int)
    return ks, hats, np.linalg.norm(hats.reshape(n_samp, -1), axis=1)


def _mode_cut(samples: np.ndarray, max_mode: int) -> dict[int, np.ndarray]:
    """Fourier coefficients of grid samples with |k| <= max_mode and norm
    above 1e-14 of the largest, in FFT order."""
    ks, hats, norms = fourier_modes(samples)
    keep = (np.abs(ks) <= max_mode) & (norms > 1e-14 * norms.max())
    return {int(ks[i]): hats[i] for i in np.flatnonzero(keep)}


def loop_fourier_coefficients(gamma: GridLoop) -> dict[int, np.ndarray]:
    """Matrix-valued Fourier coefficients of the sampled loop, those above
    1e-14 of the largest."""
    return _mode_cut(gamma.samples, gamma.n_samples // 2)


def _derivative_symbol(n_samples: int) -> np.ndarray:
    """ik in FFT order, with the unpaired Nyquist mode zeroed."""
    ks = np.fft.fftfreq(n_samples, d=1.0 / n_samples)
    ks[n_samples // 2] = 0.0
    return 1j * ks


def _spectral_derivative(samples: np.ndarray) -> np.ndarray:
    hats = np.fft.fft(samples, axis=0)
    return np.fft.ifft(_derivative_symbol(samples.shape[0])[:, None, None] * hats,
                       axis=0)


def _check_resolution(ks: np.ndarray, norms: np.ndarray, n_samples: int) -> None:
    """The resolution rule of an N-point grid, for the Fourier modes ``ks``
    of norms ``norms`` of a sampled loop or a loop-algebra element: no mode
    |k| >= N/4 may exceed _TAIL_GUARD times the largest norm.  Otherwise
    ResolutionError, suggesting 2N."""
    scale = norms.max(initial=0.0)
    tail = norms[np.abs(ks) >= n_samples // 4].max(initial=0.0)
    if tail > _TAIL_GUARD * scale:
        raise ResolutionError(
            f"Fourier tail {tail / scale:.2e} above mode N/4 exceeds {_TAIL_GUARD}; "
            f"resample more finely", suggested_n=2 * n_samples)


def _check_element_resolution(x: FourierLoopElement, n_samples: int) -> None:
    """``_check_resolution`` for the coefficients of ``x`` on n_samples points."""
    norms = _coeff_norms(x)
    _check_resolution(np.array(list(norms), dtype=int),
                      np.array(list(norms.values())), n_samples)


def _current_samples(gamma: GridLoop, side: str) -> np.ndarray:
    """Pointwise Maurer-Cartan current, anti-hermitian part enforced."""
    if side not in ("left", "right"):
        raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
    ks, _, norms = fourier_modes(gamma.samples)
    _check_resolution(ks, norms, gamma.n_samples)
    dot = _spectral_derivative(gamma.samples)
    inv = gamma.samples.conj().transpose(0, 2, 1)
    if side == "left":
        cur = np.einsum("jab,jbc->jac", inv, dot)
    else:
        cur = np.einsum("jab,jbc->jac", dot, inv)
    anti = 0.5 * (cur - cur.conj().transpose(0, 2, 1))
    herm_resid = np.abs(cur - anti).max()
    if herm_resid > 1e-9:
        raise NumericError(
            f"current not anti-hermitian to tolerance: residual {herm_resid:.2e}")
    return anti


def maurer_cartan(gamma: GridLoop, side: str = "right") -> FourierLoopElement:
    """Logarithmic derivative as a Fourier element: gamma^-1 gamma' (left) or
    gamma' gamma^-1 (right)."""
    cur = _current_samples(gamma, side)
    # without the unpaired Nyquist mode -N/2
    coeffs = _mode_cut(cur, gamma.n_samples // 2 - 1)
    elem = FourierLoopElement(coeffs, gamma.algebra)
    # reality a_{-k} = -(a_k)^dagger is automatic after the pointwise
    # anti-hermitian projection; assert rather than re-project
    if not elem.real_form:
        raise NumericError("Maurer-Cartan output failed the reality check")
    return elem


def _trapezoid_mean(values: np.ndarray) -> complex:
    # uniform periodic grid: the trapezoid rule is the plain mean
    return complex(values.mean())


def cocycle_c(gamma: GridLoop, x: FourierLoopElement, level: float = 1.0) -> float:
    """Adjoint-action cocycle c(gamma, X) = -l * mean_theta <gamma^-1 gamma', X>."""
    _same_algebra(gamma, x)
    cur = _current_samples(gamma, "left")
    xs = x.evaluate(gamma.thetas)
    vals = np.einsum("jab,jba->j", cur, xs)
    c = -level * _trapezoid_mean(vals)
    if abs(c.imag) > 1e-9 * max(1.0, abs(c.real)):
        raise NumericError(f"cocycle acquired imaginary part {c.imag:.2e}")
    return float(c.real)


def cocycle_c_field(gamma: GridLoop, h: ScalarField, level: float = 1.0) -> float:
    """Field cocycle c(gamma, h) = -(l/2) mean_theta h <gamma^-1 gamma', gamma^-1 gamma'>."""
    hv = h.real_values(gamma.thetas)
    cur = _current_samples(gamma, "left")
    vals = hv * np.einsum("jab,jba->j", cur, cur)
    c = -0.5 * level * _trapezoid_mean(vals)
    return float(c.real)


def cocycle_b(gamma: GridLoop, x: FourierLoopElement, level: float = 1.0) -> float:
    """Inverse-side cocycle b(gamma, X) = c(gamma^-1, X)."""
    return cocycle_c(gamma.inverse(), x, level)


def cocycle_b_field(gamma: GridLoop, h: ScalarField, level: float = 1.0) -> float:
    """Inverse-side field cocycle b(gamma, h) = c(gamma^-1, h)."""
    return cocycle_c_field(gamma.inverse(), h, level)


# ---------------------------------------------------------------------------
# Loop splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPair:
    """Factors gamma = left * right supported on complementary arcs."""

    left: GridLoop
    right: GridLoop
    cut_from: float
    cut_to: float


def _grid_index(gamma: GridLoop, angle: float) -> int:
    n_samp = gamma.n_samples
    step = 2 * np.pi / n_samp
    idx = int(round((angle % (2 * np.pi)) / step)) % n_samp
    if abs((angle % (2 * np.pi)) - idx * step) > 1e-12 and \
       abs((angle % (2 * np.pi)) - idx * step - 2 * np.pi) > 1e-12:
        raise NumericError(
            f"cut angle {angle} is not a grid point (spacing {step:.3e})")
    return idx


def split_loop(gamma: GridLoop, z: float, w: float) -> SplitPair:
    """Factor gamma into arc-supported pieces meeting at z and w.

    Requires gamma(z) = gamma(w) = Id and vanishing derivative there, both to
    1e-8; the left factor agrees with gamma on the arc (z, w) traversed
    counterclockwise and is the identity elsewhere, and symmetrically for the
    right factor, so the pointwise product reproduces gamma exactly on the
    grid.
    """
    iz, iw = _grid_index(gamma, z), _grid_index(gamma, w)
    if iz == iw:
        raise NumericError("cut angles coincide on the grid")
    eye = np.eye(gamma.algebra.n)
    dot = _spectral_derivative(gamma.samples)
    residuals = {}
    for angle, idx in ((z, iz), (w, iw)):
        residuals[float(angle)] = (
            float(np.linalg.norm(gamma.samples[idx] - eye)),
            float(np.linalg.norm(dot[idx])),
        )
    worst = max(max(pair) for pair in residuals.values())
    if worst > 1e-8:
        raise NotSplittableError(
            f"loop not splittable at the requested points; worst residual {worst:.2e}",
            residuals)
    n_samp = gamma.n_samples
    on_left = ((np.arange(n_samp) - iz) % n_samp) < ((iw - iz) % n_samp)
    left = np.where(on_left[:, None, None], gamma.samples, eye)
    right = np.where(on_left[:, None, None], eye, gamma.samples)
    # both factors are Id at the cut points themselves
    for idx in (iz, iw):
        left[idx] = eye
        right[idx] = eye
    step = 2 * np.pi / n_samp
    return SplitPair(GridLoop(left, gamma.algebra, check=False),
                     GridLoop(right, gamma.algebra, check=False),
                     cut_from=iz * step, cut_to=iw * step)


# ---------------------------------------------------------------------------
# Semidirect exponential
# ---------------------------------------------------------------------------

def _bounded_steps(steps: float, what: str) -> float:
    """``steps``, the steps ``what`` plans, if at most MAX_STEPS;
    CapacityError (estimate: the steps) otherwise, also for an overflowed
    count, before any step runs."""
    if not steps <= MAX_STEPS:
        raise CapacityError(f"{what} needs {steps:.3g} steps, more than "
                            f"MAX_STEPS = {MAX_STEPS}", steps)
    return steps


def _flow_steps(h: ScalarField, reach: float) -> int:
    """N = ceil(256 reach sum_k |h_k| max|k|), at least 1: the RK4 steps of
    the flow of h out to flow time ``reach``; at most MAX_STEPS.

    |h| is at most sum_k |h_k| and each derivative of h adds at most a
    factor max|k|, so every term of an RK4 step's local error is bounded by
    a power of step * sum_k |h_k| max|k|, which each step keeps at 1/256.
    Measured against a 16,000-step per-node reference in the displacement
    theta - theta_0 (whose rounding scales with the displacement), the
    angles at the 64 Gauss node times are at most 8.1e-14 off over the 7
    non-constant fields of the per-node oracle test and 60 seeded random
    fields; at 192 and 128 in place of 256, 1.9e-13 and 8.4e-13.  A fixed
    1000-step pass per node is 1.5e-12 off on the same fields.
    """
    rate = (sum(abs(v) for v in h.coefficients.values())
            * max(map(abs, h.coefficients), default=0))
    return max(1, math.ceil(_bounded_steps(256 * reach * rate, "the flow of h")))


def _flow_angles(h: ScalarField, thetas: np.ndarray, times: np.ndarray,
                 reach: float | None = None, start: float = 0.0) -> np.ndarray:
    """Angles flowed along d theta/ds = h(theta), one row for each time.

    One RK4 pass from flow time ``start``, where the angles are ``thetas``,
    visits the times in order of size and records the angles as it reaches
    each.  The gap before each time is split into ceil(gap / h_max) equal
    steps, h_max = reach / N with N from ``_flow_steps`` and ``reach`` the
    largest |time| unless given, so no step is longer than those of an
    N-step pass to the farthest time.  A pass resumed from one of its rows,
    at that row's time and with the same reach, takes the steps that the
    whole pass takes after it.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(thetas)))
    if reach is None:
        reach = np.abs(times).max(initial=0.0)
    h_max = reach / _flow_steps(h, reach)
    th = thetas.astype(float)
    s = start

    def rhs(t):
        return h.real_values(t)

    for k in np.argsort(np.abs(times), kind="stable"):
        gap = times[k] - s
        if gap != 0.0:
            m = math.ceil(abs(gap) / h_max)
            th = _rk4(rhs, th, gap / m, m)
            s = times[k]
        out[k] = th
    return out


def _rk4(rhs, y, dt: float, n_steps: int):
    """``n_steps`` classical RK4 steps of length ``dt`` for dy/ds = rhs(y)."""
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _re_modes(h: ScalarField) -> dict[int, complex]:
    """Fourier modes of Re h, (h_k + conj(h_-k)) / 2: a "real" ScalarField
    may be non-real by up to _REALITY_TOL, and the ODE uses its real part."""
    hc = h.coefficients
    return {k: 0.5 * (hc.get(k, 0.0) + np.conj(hc.get(-k, 0.0)))
            for k in set(hc) | {-q for q in hc}}


def _step_map_pays(x: FourierLoopElement, h: ScalarField, n_samples: int,
                   n_steps: int) -> bool:
    """Whether the sparse step map is cheaper than pointwise RK4 here.

    The step map P couples mode m to m + s (mod N) for s in the 4-fold
    sumset S of the modes of X and h and 0, so it has up to N n^2 |S|
    nonzeros: few for a few-mode X and h, up to (N n)^2 for many.  Measured
    costs, in multiply-adds of the sparse product applied to one column
    (numpy and scipy on one x86 core): forming P ~80 per nonzero, applying
    it n per nonzero and step, a pointwise step ~150 per entry of the
    N n^2 samples.  S is built only until it outgrows the bound these
    costs give.
    """
    n = x.algebra.n
    bound = 150 * n_steps / (n * n_steps + 80)
    modes = {k % n_samples for k in (*x.coefficients, *_re_modes(h), 0)}
    reach = {0}
    for _ in range(4):
        reach = {(a + b) % n_samples for a in reach for b in modes}
        if len(reach) > bound:
            return False
    return True


def _ode_pointwise(x: FourierLoopElement, alpha: float, h: ScalarField,
                   t: float, n_samples: int, n_steps: int) -> np.ndarray:
    """RK4 on the grid samples: X and Re h act pointwise and d_theta by an
    FFT pair in every stage."""
    thetas = circle_grid(n_samples)
    xs = x.evaluate(thetas)
    hv = h.real_values(thetas)[:, None, None]
    gam = np.broadcast_to(np.eye(x.algebra.n, dtype=complex),
                          (n_samples, x.algebra.n, x.algebra.n))

    def rhs(g):
        return np.einsum("jab,jbc->jac", xs, g) - alpha * hv * _spectral_derivative(g)

    return _rk4(rhs, gam, t / n_steps, n_steps)


def _step_propagator(x: FourierLoopElement, alpha: float, h: ScalarField,
                     t: float, n_samples: int,
                     n_steps: int) -> scipy.sparse.csr_array:
    """One RK4 step of ``_ode_pointwise`` on the Fourier coefficients of a
    column of gamma, as a CSR matrix P.

    The generator A is linear and constant in time, so each RK4 step of
    length z = t / n_steps is one fixed map P = 1 + zA + (zA)^2/2 +
    (zA)^3/6 + (zA)^4/24, formed by Horner's rule.  X and Re h act by
    circular convolution over their modes (mod N, so X modes >= N/2 alias
    as on the grid) and d_theta is diag(ik).  Row m * n + a of a column
    holds row a of its mode-m coefficient.
    """
    n = x.algebra.n
    modes = np.arange(n_samples)

    def shift(k, weights):
        """Mode m to mode m + k (mod N), with weight weights[m]."""
        return scipy.sparse.coo_array(
            (weights, ((modes + k) % n_samples, modes)), shape=(n_samples,) * 2)

    size = n_samples * n
    gen = scipy.sparse.csr_array((size, size), dtype=complex)
    for k, a in x.coefficients.items():
        gen += scipy.sparse.kron(shift(k, np.ones(n_samples)), a)
    deriv = -alpha * _derivative_symbol(n_samples)
    for k, coeff in _re_modes(h).items():
        gen += scipy.sparse.kron(shift(k, coeff * deriv), np.eye(n))
    step = t / n_steps
    eye = scipy.sparse.identity(size, dtype=complex, format="csr")
    prop = eye
    for j in (4, 3, 2, 1):
        prop = eye + (step / j) * (gen @ prop)
    return prop


def _ode_step_map(x: FourierLoopElement, alpha: float, h: ScalarField,
                  t: float, n_samples: int, n_steps: int) -> np.ndarray:
    """The RK4 recurrence of ``_ode_pointwise`` as one sparse step map.

    The step P (``_step_propagator``) is formed once.  The n columns of
    gamma, which start as the identity in mode 0, are stacked into one
    vector, and each of the n_steps steps applies P to all of them as one
    product of that vector with the block diagonal of n copies of P
    (``_block_diagonal``).  Every row of it sums the same terms in the
    same order as P applied to one column, so the columns come out bit for
    bit as those of P @ gamma on the (N n, n) array, at the cost of a
    single-vector product.  One inverse FFT gives the samples.
    """
    n = x.algebra.n
    size = n_samples * n
    prop = _block_diagonal(_step_propagator(x, alpha, h, t, n_samples, n_steps), n)
    # column c of gamma is block c of the state, and starts as e_c
    gam = np.zeros(n * size, dtype=complex)
    gam[np.arange(n) * (size + 1)] = 1.0
    for _ in range(n_steps):
        gam = prop @ gam
        # exact coefficients are at most 1 in size; the near-empty high modes
        # are zeroed below 1e-250 so they never hold subnormal numbers, whose
        # arithmetic is many times slower
        parts = gam.view(float)
        parts[np.abs(parts) < 1e-250] = 0.0
    # (column, mode, row) to (mode, row, column)
    coeffs = gam.reshape(n, n_samples, n).transpose(1, 2, 0)
    return np.fft.ifft(np.ascontiguousarray(coeffs), axis=0, norm="forward")


def _block_diagonal(prop: scipy.sparse.csr_array,
                    copies: int) -> scipy.sparse.csr_array:
    """``copies`` copies of the square CSR matrix ``prop`` along a block
    diagonal, as a CSR matrix whose arrays are prop's own: its data tiled,
    its column indices and row pointers shifted per block.  Each block
    keeps prop's entries in prop's order, so a row sums what the same row
    of prop sums, in the same order; scipy.sparse.block_diag and kron
    reorder the entries, and with them the rounding.  The indices keep
    prop's integer type where it holds the shifted ones."""
    size, nnz = prop.shape[0], prop.nnz
    index = prop.indices.dtype
    if copies * max(size, nnz) > np.iinfo(index).max:
        index = np.dtype(np.int64)
    blocks = np.arange(copies, dtype=index)[:, None]
    indptr = np.empty(copies * size + 1, dtype=index)
    indptr[:-1] = (prop.indptr[:-1] + nnz * blocks).ravel()
    indptr[-1] = copies * nnz
    return scipy.sparse.csr_array(
        (np.tile(prop.data[:nnz], copies), (prop.indices[:nnz] + size * blocks).ravel(),
         indptr), shape=(copies * size,) * 2)


def _ode_exponential(x: FourierLoopElement, alpha: float, h: ScalarField,
                     t: float, n_samples: int, dt: float) -> np.ndarray:
    """Explicit RK4 integration of d gamma/dt = X gamma - alpha h d_theta gamma
    on the grid, in equal steps of at most dt (``_ode_steps``).

    Both routes run the same recurrence on the same semi-discrete operator
    (pointwise X and Re h, the spectral derivative of
    ``_spectral_derivative``), so they agree to rounding; the sparse step
    map is taken when few Fourier modes couple (``_step_map_pays``).
    """
    n_steps = _ode_steps(x, alpha, h, t, dt)
    if _step_map_pays(x, h, n_samples, n_steps):
        return _ode_step_map(x, alpha, h, t, n_samples, n_steps)
    return _ode_pointwise(x, alpha, h, t, n_samples, n_steps)


def _ode_steps(x: FourierLoopElement, alpha: float, h: ScalarField,
               t: float, dt: float) -> int:
    """round(|t| / dt), raised to the Magnus step count (``_magnus_steps``)
    so that no RK4 step moves a large X further than a Magnus step does; at
    least 1 and at most MAX_STEPS."""
    return max(int(round(_bounded_steps(abs(t) / dt, "the RK4 check"))),
               _magnus_steps(x, alpha, h, t))


def _check_steps(x: FourierLoopElement, alpha: float, h: ScalarField,
                 t: float, verify: bool = True) -> None:
    """CapacityError unless semidirect_exp(x, alpha, h, t) plans at most
    MAX_STEPS Magnus steps, flow steps (out to flow time |alpha t|) and,
    when ``verify`` runs its RK4 check, steps of that check; a few sums, no
    step."""
    _magnus_steps(x, alpha, h, t)
    _flow_steps(h, abs(alpha * t))
    if verify:
        _ode_steps(x, alpha, h, t, _ODE_DT)


def _magnus_steps(x: FourierLoopElement, alpha: float, h: ScalarField,
                  t: float) -> int:
    """M = ceil(16 |t| (sum_k |a_k|_F + |alpha| sum_k |h_k| max|k|)), at least 1
    and at most MAX_STEPS.

    The two terms bound the size of X (sup |X|) and how fast X turns along
    the characteristic (sup |alpha h| times the top mode of X), so each step
    moves at most 1/16 in both.  At 1/8 the commuting input of the per-node
    oracle test is 1.6e-13 off its 64-node Gauss value; at 1/16, 3.7e-15.
    """
    size = sum(float(np.linalg.norm(a)) for a in x.coefficients.values())
    turn = (abs(alpha) * sum(abs(v) for v in h.coefficients.values())
            * max(map(abs, x.coefficients), default=0))
    return max(1, math.ceil(_bounded_steps(16 * abs(t) * (size + turn),
                                           "the Magnus product")))


def _planar_matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p @ q for stacks laid out (a, b, ...), the stack axes innermost:
    the n x n product as n broadcast multiply-adds along the stack."""
    out = p[:, :1] * q[:1]
    for b in range(1, len(q)):
        out += p[:, b:b + 1] * q[b:b + 1]
    return out


def _planar_values(x: FourierLoopElement, angles: np.ndarray) -> np.ndarray:
    """X(theta) = sum_k a_k e^{ik theta} at ``angles``, laid out
    (a, b, *angles.shape); ``FourierLoopElement.evaluate`` reads it with
    the matrix axes last.

    The modes are summed in coefficient order, each term the phase times
    the coefficient (in that operand order).  The first term is written
    straight into the output, plus 0.0 so that its zeros are +0.0 as in a
    sum that starts from zeros; every later term passes through one
    buffer.  Each |k| takes one exp, and e^{-ik theta} is read as
    conj(e^{ik theta}), which is the same number as exp(-ik theta); a
    phase is kept only until its partner mode has used it.
    """
    n = x.algebra.n
    spread = (slice(None), slice(None)) + (None,) * angles.ndim
    kept = {}
    out = term = None
    for k, a in x.coefficients.items():
        phase = kept.pop(-k, None)
        if phase is None:
            phase = np.exp(1j * abs(k) * angles)
            if k and -k in x.coefficients:
                kept[k] = phase
        if k < 0:
            phase = phase.conj()
        if out is None:
            out = np.multiply(phase, a[spread])
            out += 0.0
        else:
            term = np.multiply(phase, a[spread], out=term)
            out += term
    if out is None:
        return np.zeros((n, n, *angles.shape), dtype=complex)
    return out


def _node_angles(alpha: float, h: ScalarField, t: float, thetas: np.ndarray,
                 n_steps: int, per_segment: int) -> Iterator[np.ndarray]:
    """The angles at which ``n_steps`` equal Magnus steps read X, in
    segments of ``per_segment`` steps in step order, each laid out (node,
    step, angle).

    Step j covers tau in [j, j + 1] * t / n_steps, and its three Gauss
    nodes sit at flow time -alpha (t - tau) from the grid angles.  A
    constant field flows by the exact rotation theta + h_0 s.  Any other
    flows by ``_flow_angles`` with the steps of one pass through all
    3 n_steps node times.  That pass reaches the latest steps first, so it
    runs segment by segment from the last, keeping the angles at which
    each segment starts; the first segment comes out of it, and every
    other is flowed again from its start, bit for bit as in the pass.
    """
    taus = (np.arange(n_steps)[:, None] + _MAGNUS_NODES) * (t / n_steps)
    # (step, node): |time| falls along the steps and along the nodes
    times = -alpha * (t - taus)
    firsts = range(0, n_steps, per_segment)

    def laid_out(angles):
        return np.ascontiguousarray(
            angles.reshape(-1, 3, len(thetas)).transpose(1, 0, 2))

    if h.modes() in ([], [0]):
        speed = h.coefficients.get(0, complex(0.0)).real
        for first in firsts:
            yield laid_out(thetas + speed * times[first:first + per_segment].reshape(-1, 1))
        return
    reach = np.abs(times).max(initial=0.0)

    def flow(first, s, th):
        return _flow_angles(h, th, times[first:first + per_segment].ravel(), reach, s)

    starts, s, th = {}, 0.0, thetas
    for first in reversed(firsts):
        starts[first] = s, th
        head = flow(first, s, th)
        # the segment ends at its first node, the farthest
        s, th = times[first, 0], head[0].copy()
    # each segment's flowed rows are dropped once laid out
    head = laid_out(head)
    yield head
    del head
    for first in firsts[1:]:
        yield laid_out(flow(first, *starts[first]))


def _magnus_exponents(x: FourierLoopElement, nodes: np.ndarray,
                      step: float) -> np.ndarray:
    """Sixth-order Magnus exponents of steps of length ``step`` whose X is
    read at the angles ``nodes``, laid out (node, step, angle) as
    ``_node_angles`` gives them.  The exponents are laid out (a, b, step,
    angle): entry (a, b) of the exponent of each step at each angle, so
    every product runs along the steps and angles.
    """
    a1, a2, a3 = np.moveaxis(_planar_values(x, nodes), 2, 0)

    def bracket(p, q):
        # p, q anti-hermitian: qp = (pq)^dagger
        pq = _planar_matmul(p, q)
        return pq - pq.conj().swapaxes(0, 1)

    # Blanes-Casas-Oteo-Ros, Phys. Rep. 470 (2009): the three-node step
    b1 = step * a2
    b2 = (math.sqrt(15.0) * step / 3.0) * (a3 - a1)
    b3 = (10.0 * step / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = bracket(b1, b2)
    c2 = (-1.0 / 60.0) * bracket(b1, 2.0 * b3 + c1)
    return b1 + b3 / 12.0 + bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def _planar_exp(omega: np.ndarray) -> np.ndarray:
    """exp of every anti-hermitian matrix of a stack laid out (a, b, ...),
    in the same layout: the Taylor polynomial by Horner's rule.

    Its degree is chosen a priori (``lie._taylor_terms``) from theta, the
    largest Frobenius norm in the stack, which is submultiplicative and
    bounds the 2-norm, so the dropped tail of every exponential is below
    theta^k / k! <= 2^-53 relative; no stopping test is needed.  For an
    anti-hermitian omega, |omega|_F^2 = -tr(omega^2), so theta^2 is read
    in one reduction.
    """
    n = len(omega)
    theta = math.sqrt((-np.einsum("ab...,ba...->...", omega, omega).real)
                      .max(initial=0.0))
    diagonal = (np.arange(n),) * 2
    terms = _taylor_terms(theta)
    out = omega * (1.0 / terms)
    out[diagonal] += 1.0
    for k in range(terms - 1, 0, -1):
        out = _planar_matmul(omega, out)
        out *= 1.0 / k
        out[diagonal] += 1.0
    return out


def _magnus_product(x: FourierLoopElement, alpha: float, h: ScalarField,
                    t: float, thetas: np.ndarray, n_steps: int) -> np.ndarray:
    """The time-ordered exponential of X along each characteristic, by
    ``n_steps`` equal sixth-order Magnus steps, shape (len(thetas), n, n).

    The node angles (``_node_angles``, 3 floats a step and angle) come in
    segments of at most _MAGNUS_SEGMENT (step, angle) points, or sqrt(M)
    steps where that is more; only a product that needs more than one
    segment flows a general field twice.  The rest runs in blocks of at
    most _MAGNUS_BLOCK points and _MAGNUS_ENTRIES matrix entries, and at
    least one step: each block's values of X, its exponents, its step
    factors (the Taylor exponentials of ``_planar_exp``) and their
    product, in the layout of ``_magnus_exponents``, with the latest step
    on the left.
    """
    n, points = x.algebra.n, len(thetas)
    per_segment = max(_MAGNUS_SEGMENT // points, math.isqrt(n_steps), 1)
    per_block = max(1, min(_MAGNUS_BLOCK, _MAGNUS_ENTRIES // (n * n)) // points)
    out = np.eye(n, dtype=complex)[:, :, None]
    for nodes in _node_angles(alpha, h, t, thetas, n_steps, per_segment):
        for first in range(0, nodes.shape[1], per_block):
            factors = _planar_exp(_magnus_exponents(
                x, nodes[:, first:first + per_block], t / n_steps))
            for j in range(factors.shape[2]):
                out = _planar_matmul(factors[:, :, j], out)
    return out.transpose(2, 0, 1).copy()


def semidirect_exp(x: FourierLoopElement, alpha: float,
                   h: ScalarField | None = None, t: float = 1.0,
                   n_samples: int = DEFAULT_SAMPLES,
                   verify: bool = True) -> tuple[GridLoop, float]:
    """Exponential exp(t(X + alpha h)) in the semidirect product with the flow of h.

    Returns the loop part and the accumulated flow time alpha * t.  The loop
    part solves

        d gamma/dt = X gamma - alpha h d_theta gamma,   gamma_0 = Id,

    which along the characteristic theta(tau) = Phi_{-alpha(t - tau)}(theta),
    Phi the flow of h, reads d gamma/d tau = X(theta(tau)) gamma.  So
    gamma_t(theta) is the time-ordered exponential of X along that curve,
    taken in M equal sixth-order Magnus steps (``_magnus_product``) with M
    from ``_magnus_steps``.  A constant field flows by an exact rotation; any
    other real field by the steps of one RK4 pass through all the node
    times (``_flow_angles``; ``_node_angles`` holds them in segments), in N
    steps to the farthest node with N from ``_flow_steps``, at most
    8.1e-14 off in angle where measured.  No
    commutation of the values of X is assumed.

    X must be resolved on the grid by the rule of ``_check_resolution``,
    or ResolutionError: a mode at or above N/4 would alias in the check.
    Each step count, the RK4 check's too when ``verify`` runs it, must be
    at most MAX_STEPS (``_check_steps``), or CapacityError before any work.
    When ``verify`` is set, ``_ode_gap`` compares the result with an
    explicit RK4 integration and raises VerificationError above _ODE_TOL.
    A sample count that no grid loop may have is refused first.
    """
    _check_sample_count(n_samples)
    if not x.real_form:
        raise NumericError("semidirect exponential needs a real-form element")
    _check_element_resolution(x, n_samples)
    if h is None:
        h = ScalarField.constant(1.0)
    if not h.real:
        raise NumericError("the flow field must be real")
    _check_steps(x, alpha, h, t, verify)
    samples = _magnus_product(x, alpha, h, t, circle_grid(n_samples),
                              _magnus_steps(x, alpha, h, t))
    loop = GridLoop(samples, x.algebra)
    if verify:
        _ode_gap(loop, x, alpha, h, t)
    return loop, alpha * t


def _ode_gap(loop: GridLoop, x: FourierLoopElement, alpha: float,
             h: ScalarField, t: float) -> float:
    """Sup-norm gap between ``loop`` = semidirect_exp(x, alpha, h, t) and
    the RK4 integration ``_ode_exponential`` in steps of at most _ODE_DT on
    its grid; above _ODE_TOL, VerificationError carrying the gap."""
    ode = _ode_exponential(x, alpha, h, t, loop.n_samples, _ODE_DT)
    gap = float(np.abs(loop.samples - ode).max())
    if gap > _ODE_TOL:
        raise VerificationError(
            f"Magnus product vs ODE integration differ by {gap:.2e} "
            f"> {_ODE_TOL:.1e}", gap)
    return gap


# ---------------------------------------------------------------------------
# Scalar kernel bound
# ---------------------------------------------------------------------------

def kernel_bound_check(eps: float, n: int, k: int) -> bool:
    """Check |f_{n,k+n}(eps)|^2 (1+k+n) <= 2 (1+|n|)^2 for f_{n,k}(e) = e^{-ek} - e^{-e(k-n)}.

    Valid for eps >= 0, k >= 0 and n + k >= 0.
    """
    if eps < 0 or k < 0 or n + k < 0:
        raise NumericError("need eps >= 0, k >= 0 and n + k >= 0")
    return kernel_bound_sweep([eps], [n], [k])


def kernel_bound_sweep(eps_values, n_values, k_values) -> bool:
    """Vectorized exhaustive sweep; True iff the bound holds everywhere."""
    eps = np.asarray(list(eps_values), dtype=float)[:, None, None]
    ns = np.asarray(list(n_values), dtype=float)[None, :, None]
    ks = np.asarray(list(k_values), dtype=float)[None, None, :]
    valid = (ks >= 0) & (ns + ks >= 0)
    f = np.exp(-eps * (ks + ns)) - np.exp(-eps * ks)
    lhs = f * f * (1 + ks + ns)
    rhs = 2.0 * (1 + np.abs(ns)) ** 2
    return bool(np.all(np.where(valid, lhs <= rhs + 1e-12, True)))
