"""Sobolev loop calculus on the circle.

Loop-algebra elements are finitely supported Fourier series with matrix
coefficients; group-valued loops are uniform grids of special-unitary
samples (power-of-two length, so spectral differentiation is an FFT away).
The module provides the weighted coefficient norms, the derivation and
multiplication actions of scalar fields, the central 2-cocycle

    B(X, Y) = integral <X, Y'> dtheta / 2pi = sum_k i k <a_{-k}, b_k>,

the adjoint-action cocycles c(gamma, X) and c(gamma, h) by spectrally
accurate trapezoid quadrature, loop splitting at marked points, and the
closed-form exponential of the semidirect product with a rotation flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse

from .errors import (
    AlgebraMismatchError,
    NormDivergedError,
    NotSplittableError,
    NumericError,
    ResolutionError,
    VerificationError,
)
from .lie import (AlgebraElement, CompactSimpleAlgebra, _allclose,
                  as_generator, eig_antihermitian, exp_antihermitian,
                  exp_profile)

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
]

_DROP = 1e-16          # coefficients below this Frobenius norm are discarded
_REALITY_TOL = 1e-12
_TAIL_GUARD = 1e-10    # relative tail mass allowed above mode N/4
_FLOW_STEPS = 1000     # RK4 steps of the flow to the farthest Gauss node time
_ODE_DT = 1e-3         # step of the RK4 integration that verifies semidirect_exp
_ODE_TOL = 1e-6        # sup-norm gap allowed between closed form and integration


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
        kept = np.linalg.norm(stack, axis=(1, 2)) > _DROP
        coeffs = {k: a for (k, a), keep in zip(mats.items(), kept) if keep}
        if coeffs and (real_form is None or real_form):
            # a_{-k} = -(a_k)^dagger, checked for all modes at once
            zero = np.zeros((n, n))
            partner = np.array([coeffs.get(-k, zero) for k in coeffs])
            minus_adjoint = -stack[kept].conj().transpose(0, 2, 1)
            if real_form is None:
                real_form = _allclose(partner, minus_adjoint, _REALITY_TOL)
            else:
                worst = np.linalg.norm(partner - minus_adjoint, axis=(1, 2)).max()
                if worst > _REALITY_TOL:
                    raise ValueError(
                        f"real-form tag violated: coefficient reality residual {worst:.2e}")
        elif real_form is None:
            real_form = True
        self.coefficients = coeffs
        self.algebra = algebra
        self.real_form = real_form
        self.decay_rate = decay_rate

    def modes(self) -> list[int]:
        return sorted(self.coefficients)

    def evaluate(self, thetas: np.ndarray) -> np.ndarray:
        """Pointwise values, shape (len(thetas), n, n)."""
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        n = self.algebra.n
        out = np.zeros((len(thetas), n, n), dtype=complex)
        for k, a in self.coefficients.items():
            out += np.exp(1j * k * thetas)[:, None, None] * a
        return out

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
        coeffs = {int(k): complex(v) for k, v in coefficients.items()
                  if abs(v) > _DROP}
        if real is None:
            real = all(abs(np.conj(v) - coeffs.get(-k, 0.0)) <= _REALITY_TOL
                       for k, v in coeffs.items())
        elif real:
            worst = max((abs(np.conj(v) - coeffs.get(-k, 0.0))
                         for k, v in coeffs.items()), default=0.0)
            if worst > _REALITY_TOL:
                raise ValueError(f"real tag violated, residual {worst:.2e}")
        self.coefficients = coeffs
        self.real = real
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
        raise ValueError(f"p must be >= 1, got {p}")
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

class GridLoop:
    """Group-valued loop sampled at theta_j = 2 pi j / N, N a power of two."""

    __slots__ = ("samples", "algebra")

    def __init__(self, samples: np.ndarray, algebra: CompactSimpleAlgebra,
                 check: bool = True):
        samples = np.asarray(samples, dtype=complex)
        n_samp = samples.shape[0]
        if n_samp & (n_samp - 1) or n_samp < 4:
            raise ValueError(f"sample count must be a power of two >= 4, got {n_samp}")
        if samples.shape[1:] != (algebra.n, algebra.n):
            raise AlgebraMismatchError("sample shape does not match the algebra")
        if check:
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
            raise ValueError("sample counts differ")
        return GridLoop(np.einsum("jab,jbc->jac", self.samples, other.samples),
                        self.algebra, check=False)


def identity_loop(algebra: CompactSimpleAlgebra, n_samples: int = 256) -> GridLoop:
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
                      n_samples: int = 256) -> GridLoop:
    """Pointwise product of exponentials exp(f_j(theta) X_j) on the grid."""
    thetas = circle_grid(n_samples)
    pairs = []
    for x, profile in factors:
        xm = as_generator(x, algebra.n)
        if isinstance(profile, ScalarField):
            f_vals = profile.evaluate(thetas)
            if np.abs(f_vals.imag).max() > 1e-12:
                raise ValueError("loop profile must be real")
            f_vals = f_vals.real
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


def _check_resolution(gamma: GridLoop) -> None:
    n_samp = gamma.n_samples
    ks, _, norms = fourier_modes(gamma.samples)
    scale = norms.max()
    tail = norms[np.abs(ks) >= n_samp // 4].max(initial=0.0)
    if tail > _TAIL_GUARD * scale:
        raise ResolutionError(
            f"Fourier tail {tail / scale:.2e} above mode N/4 exceeds {_TAIL_GUARD}; "
            f"resample more finely", suggested_n=2 * n_samp)


def _current_samples(gamma: GridLoop, side: str) -> np.ndarray:
    """Pointwise Maurer-Cartan current, anti-hermitian part enforced."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_resolution(gamma)
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
    if not h.real:
        raise ValueError("field cocycle needs a real scalar field")
    cur = _current_samples(gamma, "left")
    hv = h.evaluate(gamma.thetas).real
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
        raise ValueError(
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
        raise ValueError("cut angles coincide on the grid")
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

def _flow_angles(h: ScalarField, thetas: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Angles flowed along d theta/ds = h(theta), one row for each time.

    One RK4 pass from s = 0 visits the times in order of size and records
    the angles as it reaches each.  The gap before each time is split into
    ceil(gap / h_max) equal steps, h_max = max|time| / _FLOW_STEPS, so no
    step is longer than those of a _FLOW_STEPS-step pass to the farthest
    time.
    """
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(thetas)))
    h_max = np.abs(times).max(initial=0.0) / _FLOW_STEPS
    th = thetas.astype(float)
    s = 0.0

    def rhs(t):
        return h.evaluate(t).real

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
    hv = h.evaluate(thetas).real[:, None, None]
    gam = np.broadcast_to(np.eye(x.algebra.n, dtype=complex),
                          (n_samples, x.algebra.n, x.algebra.n))

    def rhs(g):
        return np.einsum("jab,jbc->jac", xs, g) - alpha * hv * _spectral_derivative(g)

    return _rk4(rhs, gam, t / n_steps, n_steps)


def _ode_step_map(x: FourierLoopElement, alpha: float, h: ScalarField,
                  t: float, n_samples: int, n_steps: int) -> np.ndarray:
    """The RK4 recurrence of ``_ode_pointwise`` as one sparse step map.

    The generator A is linear and constant in time, so each RK4 step of
    length z is one fixed map P = 1 + zA + (zA)^2/2 + (zA)^3/6 + (zA)^4/24.
    On the Fourier coefficients of the columns of gamma, X and Re h act by
    circular convolution over their modes (mod N, so X modes >= N/2 alias
    as on the grid) and d_theta is diag(ik).  P is formed once, as a CSR
    matrix by Horner's rule, and applied n_steps times to the identity,
    which sits in mode 0; one inverse FFT gives the samples.
    """
    n = x.algebra.n
    modes = np.arange(n_samples)

    def shift(k, weights):
        """Mode m to mode m + k (mod N), with weight weights[m]."""
        return scipy.sparse.coo_array(
            (weights, ((modes + k) % n_samples, modes)), shape=(n_samples,) * 2)

    # state row m * n + a holds row a of the mode-m coefficient
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
    gam = np.zeros((size, n), dtype=complex)
    gam[:n] = np.eye(n)
    for _ in range(n_steps):
        gam = prop @ gam
        # exact coefficients are at most 1 in size; the near-empty high modes
        # are zeroed below 1e-250 so they never hold subnormal numbers, whose
        # arithmetic is many times slower
        parts = gam.view(float)
        parts[np.abs(parts) < 1e-250] = 0.0
    return np.fft.ifft(gam.reshape(n_samples, n, n), axis=0, norm="forward")


def _ode_exponential(x: FourierLoopElement, alpha: float, h: ScalarField,
                     t: float, n_samples: int, dt: float) -> np.ndarray:
    """Explicit RK4 integration of d gamma/dt = X gamma - alpha h d_theta gamma
    on the grid, in round(|t| / dt) equal steps.

    Both routes run the same recurrence on the same semi-discrete operator
    (pointwise X and Re h, the spectral derivative of
    ``_spectral_derivative``), so they agree to rounding; the sparse step
    map is taken when few Fourier modes couple (``_step_map_pays``).
    """
    n_steps = max(1, int(round(abs(t) / dt)))
    if _step_map_pays(x, h, n_samples, n_steps):
        return _ode_step_map(x, alpha, h, t, n_samples, n_steps)
    return _ode_pointwise(x, alpha, h, t, n_samples, n_steps)


def semidirect_exp(x: FourierLoopElement, alpha: float,
                   h: ScalarField | None = None, t: float = 1.0,
                   n_samples: int = 256,
                   verify: bool = True) -> tuple[GridLoop, float]:
    """Exponential exp(t(X + alpha h)) in the semidirect product with the flow of h.

    Returns the loop part and the accumulated flow time alpha * t.  The loop
    part is the pointwise exponential of the flow-averaged symbol

        Y_t(theta) = integral_0^t X(R_{alpha tau}^{-1}(theta)) d tau,

    which is the integral-curve solution whenever the rotated family of
    generators commutes pointwise along the flow (single-generator elements
    X = f(theta) X0 always qualify); the endpoint-rotated symbol t X(theta -
    alpha t) fails even the one-parameter group law and is not used.  For
    the rigid rotation h = 1 the average is exact in Fourier modes,
    a_k -> a_k (1 - e^{-i k alpha t})/(i k alpha); a general real field h is
    handled by 64-node Gauss quadrature along its flow, integrated in one
    RK4 pass through all the node times.

    When ``verify`` is set the result is compared against an explicit RK4
    integration of

        d gamma/dt = X gamma - alpha h d_theta gamma

    on the grid in steps of _ODE_DT (``_ode_exponential``: each step one
    sparse Fourier-space map when few modes couple), and a VerificationError
    carrying the sup-norm residual is raised above _ODE_TOL; this is also
    what rejects closed forms for non-commuting generator families.
    """
    if not x.real_form:
        raise ValueError("semidirect exponential needs a real-form element")
    if h is None:
        h = ScalarField.constant(1.0)
    if not h.real:
        raise ValueError("the flow field must be real")
    thetas = circle_grid(n_samples)
    rotation = alpha * t
    is_rigid = h.modes() in ([], [0])
    n = x.algebra.n
    if is_rigid:
        speed = h.coefficients.get(0, complex(0.0)).real
        avg = {}
        for k, a in x.coefficients.items():
            phi = k * alpha * speed
            if k == 0 or phi == 0.0:
                avg[k] = t * a
            else:
                avg[k] = a * (1.0 - np.exp(-1j * phi * t)) / (1j * phi)
        ys = FourierLoopElement(avg, x.algebra).evaluate(thetas)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        taus = 0.5 * t * (nodes + 1.0)
        pre = _flow_angles(h, thetas, -alpha * taus)
        ys = np.zeros((n_samples, n, n), dtype=complex)
        for angles, w in zip(pre, weights):
            ys += (0.5 * t * w) * x.evaluate(angles)
    samples = exp_antihermitian(ys)
    loop = GridLoop(samples, x.algebra)
    if verify:
        ode = _ode_exponential(x, alpha, h, t, n_samples, _ODE_DT)
        resid = float(np.abs(samples - ode).max())
        if resid > _ODE_TOL:
            raise VerificationError(
                f"closed form vs ODE integration differ by {resid:.2e} > {_ODE_TOL:.1e}",
                resid)
    return loop, rotation


# ---------------------------------------------------------------------------
# Scalar kernel bound
# ---------------------------------------------------------------------------

def kernel_bound_check(eps: float, n: int, k: int) -> bool:
    """Check |f_{n,k+n}(eps)|^2 (1+k+n) <= 2 (1+|n|)^2 for f_{n,k}(e) = e^{-ek} - e^{-e(k-n)}.

    Valid for eps >= 0, k >= 0 and n + k >= 0.
    """
    if eps < 0 or k < 0 or n + k < 0:
        raise ValueError("need eps >= 0, k >= 0 and n + k >= 0")
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
