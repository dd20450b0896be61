"""Relative-entropy profiles of vacuum-excited states in the real-line picture.

A path gamma(u) = prod_j exp(f_j(u) X_j) with smooth windowed profiles has an
exact right logarithmic derivative by the product rule,

    gamma' gamma^-1 (u) = sum_j f_j'(u) P_j X_j P_j^-1,   P_j = g_1 ... g_{j-1},

with g_j = exp(f_j(u) X_j).  The integrand only needs its square under the
invariant form, and <Ad_g A, Ad_g B> = <A, B> while g_j commutes with X_j,
so conjugating by g_1^-1 gives <g' g^-1, g' g^-1> = <Z, Z> with

    Z = f_1' X_1 + f_2' X_2 + Ad_{g_2}(f_3' X_3 + Ad_{g_3}(... + Ad_{g_{L-1}}(f_L' X_L))).

In the eigenbasis X_k = U_k diag(i d_k) U_k*, Ad_{g_k} multiplies entry
(a, b) by e^{i f_k (d_a - d_b)}, and consecutive bases differ by the
constant C_k = U_{k-1}* U_k.  So ``LinePath.current_square`` builds Z from
the inside out with one phase array per interior factor and products against
constants, on a batch in layout (a, b, point) so that every elementwise step
runs along the points; it forms no matrix exponential, reads f_k only for
the interior factors k = 2 ... L-1, and for one or two factors is the
constant quadratic form f'^T G f' with G_ij = <X_i, X_j>.  Z is
anti-hermitian in every unitary basis, so <Z, Z> = tr(Z Z) = -||Z||_F^2.

The energy density, the total energy and the half-line/interval relative
entropies reduce to quadratures of smooth compactly supported integrands:

    E(u)     = -(l / 4 pi) <g' g^-1, g' g^-1>(u) >= 0,
    E_total  = integral E(u) du,
    S(t)     = -(l/2) integral_t^inf (u - t) <g' g^-1, g' g^-1> du,
    S_bar(t) = -(l/2) integral_-inf^t (t - u) <g' g^-1, g' g^-1> du,
    S_(-r,r) = -(l/2) integral_-r^r (r-u)(r+u)/(2r) <g' g^-1, g' g^-1> du.

The invariant form is negative semidefinite on the compact real form, so all
four quantities are nonnegative; S is convex with S''(t) = 2 pi E(t) (the
null-energy inequality is saturated), S and S_bar change at rates that
combine into the sum rule (S(t1)-S(t2)) + (S_bar(t2)-S_bar(t1)) =
(t2-t1) 2 pi E_total, and the interval entropy obeys S_(-r,r) <= pi r E_total
because the interval weight (r^2-u^2)/2r never exceeds r/2.

The left-hand entropy uses the weight (t - u), the unique choice that is
nonnegative, nondecreasing in t and consistent with the sum rule.

All of these are read from one quadrature of rho = S'', which
``LinePath.rho`` evaluates; the energy density is rho / 2 pi.  Its adaptive
panel partition over the support (``quadrature.panel_partition``) is built
once per path and tolerance by ``LinePath.partition`` and cached there.  It
is cut at the support edges of every factor, where rho need not be smooth
(a PolyBump edge is only C^3), so no panel straddles one; between those
edges a path of one or two PolyBumps is a polynomial that the 10-point rule
integrates exactly, and each piece passes on its first evaluation.  With
the tail moments M_p(t) = integral_t^inf u^p rho du and the totals
E_p = M_p(-inf),

    S(t)     = M1(t) - t M0(t),          S'(t) = -M0(t),
    S_bar(t) = t (E0 - M0(t)) - (E1 - M1(t)),
    E_total  = E0 / 2 pi,
    S_(-r,r) = (r^2 (M0(-r) - M0(r)) - (M2(-r) - M2(r))) / 2r.

Each M_p(t) is a suffix sum of per-panel moments plus one checked integral
over the part of t's panel right of t (a t on a panel edge, such as a
factor's support edge, reads the suffix sum alone), and ``qnec_profile``
asks for all its grid and stencil points in one batch.

The one-parameter family intertwining the vacuum and excited half-line
states is realized at path level: u_t(u) = gamma_+(u) gamma_+(e^{2 pi t} u)^{-1}
with the dilation acting by precomposition, validated through the chain rule
u_{t+s} = u_t * (dilated u_s) rather than by convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSplittableError, NumericError, VerificationError
from .lie import CompactSimpleAlgebra, as_generator, eig_antihermitian
from .loops import GridLoop, _check_sample_count, circle_grid, factor_product
from .quadrature import DEFAULT_TOL, PanelPartition, _check_positive, panel_partition

__all__ = [
    "GaussianWindow",
    "PolyBump",
    "TransformedProfile",
    "LinePath",
    "EntropyProfile",
    "CocyclePath",
    "SampledPath",
    "energy_density",
    "total_energy",
    "entropy_right",
    "entropy_left",
    "entropy_interval",
    "bekenstein_check",
    "bekenstein_checks",
    "qnec_profile",
    "connes_cocycle_path",
    "cayley_transfer",
    "cayley_inverse",
    "DEFAULT_FD_TOLERANCE",
]

DEFAULT_FD_TOLERANCE = 1e-4   # qnec_profile: finite-difference S'' vs closed form


# ---------------------------------------------------------------------------
# Window profiles: f is the accumulated integral of a localized derivative
# ---------------------------------------------------------------------------

def _check_finite(profile, *names) -> None:
    """NumericError unless each named field of ``profile`` is finite."""
    for name in names:
        value = getattr(profile, name)
        if not math.isfinite(value):
            raise NumericError(
                f"{type(profile).__name__}.{name} must be finite, got {value!r}")


def _check_window(window) -> None:
    """A window needs a finite center and amplitude and a finite width > 0."""
    _check_finite(window, "center", "width", "amplitude")
    if window.width <= 0:
        raise NumericError(
            f"{type(window).__name__}.width must be > 0, got {window.width!r}")


@dataclass(frozen=True)
class GaussianWindow:
    """Profile with f'(u) = amplitude * exp(-((u - center)/width)^2).

    The derivative is numerically supported on about +-8.6 widths (where the
    tail drops below 1e-32); f itself is the exact error-function integral.
    Center and amplitude must be finite and the width finite and positive
    (NumericError otherwise).
    """

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    _RADIUS = 8.6  # exp(-8.6^2) ~ 7e-33

    def __post_init__(self):
        _check_window(self)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        s = (u - self.center) / self.width
        return self.amplitude * np.exp(-s * s)

    def value(self, u):
        u = np.asarray(u, dtype=float)
        s = (u - self.center) / self.width
        from scipy.special import erf
        return self.amplitude * self.width * 0.5 * math.sqrt(math.pi) * (erf(s) + 1.0)

    def support(self):
        r = self._RADIUS * self.width
        return (self.center - r, self.center + r)


@dataclass(frozen=True)
class PolyBump:
    """Profile with f'(u) = amplitude * (1 - s^2)^4 on |s| < 1, s = (u-center)/width.

    Exactly compactly supported; f is the polynomial antiderivative.  Both
    are evaluated by products alone: f' as q^2 q^2 with q = 1 - s^2, and f
    by Horner in s^2, so no float power is taken.  Fields are checked as
    for GaussianWindow.
    """

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        _check_window(self)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        s = (u - self.center) / self.width
        q = 1.0 - s * s
        q *= q
        core = np.where(np.abs(s) < 1.0, q * q, 0.0)
        return self.amplitude * core

    def value(self, u):
        u = np.asarray(u, dtype=float)
        s = np.clip((u - self.center) / self.width, -1.0, 1.0)
        # antiderivative of (1-s^2)^4 from -1, by Horner in s^2
        s2 = s * s
        poly = s * (1 + s2 * (-4 / 3 + s2 * (6 / 5 + s2 * (-4 / 7 + s2 / 9))))
        at_lo = -(1 - 4 / 3 + 6 / 5 - 4 / 7 + 1 / 9)
        return self.amplitude * self.width * (poly - at_lo)

    def support(self):
        return (self.center - self.width, self.center + self.width)


@dataclass(frozen=True)
class TransformedProfile:
    """Reparametrized profile g(u) = sign * f(rate * u); the rate is nonzero."""

    base: object
    rate: float = 1.0
    sign: float = 1.0

    def __post_init__(self):
        _check_finite(self, "rate", "sign")
        if self.rate == 0:
            raise NumericError("TransformedProfile.rate must be nonzero")

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return self.sign * self.rate * self.base.derivative(self.rate * u)

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return self.sign * self.base.value(self.rate * u)

    def support(self):
        lo, hi = self.base.support()
        a, b = lo / self.rate, hi / self.rate
        return (min(a, b), max(a, b))


def _support_hull(factors) -> tuple[float, float]:
    """Hull of the supports of (generator, profile) factors; (0, 0) for none."""
    if not factors:
        return (0.0, 0.0)
    los, his = zip(*(p.support() for _, p in factors))
    return (min(los), max(his))


# ---------------------------------------------------------------------------
# Line paths
# ---------------------------------------------------------------------------

class LinePath:
    """Finite product of exponentials gamma(u) = prod_j exp(f_j(u) X_j).

    The factors are (generator, profile) pairs with real-form generators and
    profiles whose derivative has (numerically) compact support, so gamma is
    constant outside a bounded window; all entropy functionals depend only on
    the right current and are insensitive to the constant value at infinity.
    """

    def __init__(self, algebra: CompactSimpleAlgebra,
                 factors: list[tuple], level: int = 1):
        if level < 1:
            raise NumericError("level must be a positive integer")
        self.algebra = algebra
        self.level = level
        # a tuple: the hull, the Gram matrix or bases and the partitions
        # below are cached for these factors
        self.factors = tuple((as_generator(x, algebra.n), profile)
                             for x, profile in factors)
        self._hull = _support_hull(self.factors)
        xs = [xm for xm, _ in self.factors]
        if len(xs) <= 2:
            # <Z, Z> = f'^T G f' with the Gram matrix G_ij = <X_i, X_j>
            self._gram = np.einsum("iab,jba->ij", xs, xs).real if xs else None
        else:
            # X_k in the eigenbasis where f_k' X_k joins Z (that of X_{k-1},
            # or of X_2 for the first two factors) and the changes of basis
            # C_k = U_{k-1}* U_k between interior factors
            bases = [u for u, _ in self._eig]
            joins = [bases[max(k - 1, 1)] for k in range(len(xs))]
            self._own = [u.conj().T @ x @ u for u, x in zip(joins, xs)]
            self._steps = [bases[k - 1].conj().T @ bases[k]
                           for k in range(2, len(xs) - 1)]
            # the first two of them as one real array (entry, factor, part):
            # (f_1', f_2') @ [entry] is the (re, im) of that entry of
            # f_1' X_1 + f_2' X_2
            first = np.stack(self._own[:2], axis=-1).reshape(-1, 2)
            self._first = np.stack([first.real, first.imag], axis=-1)
        self._partitions: dict[float, PanelPartition] = {}

    @functools.cached_property
    def _eig(self) -> list:
        """(U_j, d_j) with X_j = U_j diag(i d_j) U_j*, made on first use: by
        ``evaluate``, or at construction for three or more factors."""
        return [eig_antihermitian(xm) for xm, _ in self.factors]

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def support(self) -> tuple[float, float]:
        """Hull of the factor supports; gamma is constant outside it."""
        return self._hull

    def evaluate(self, us) -> np.ndarray:
        """Path values, shape (len(us), n, n)."""
        us = np.atleast_1d(np.asarray(us, dtype=float))
        return factor_product(
            [(eig, np.asarray(profile.value(us), dtype=float))
             for (_, profile), eig in zip(self.factors, self._eig)],
            len(us), self.algebra.n)

    def current_square(self, us) -> np.ndarray:
        """<g' g^-1, g' g^-1>(u) for the trace form, as <Z, Z> (module docstring).

        Z is built from the inside out in the eigenbasis of each interior
        factor, where Ad_{g_k} multiplies entry (a, b) by e^{i f_k (d_a - d_b)};
        the batch is kept in layout (a, b, point), so every elementwise step
        runs along the points and a change of basis C W C* is two products
        against a constant.  Z is anti-hermitian, so <Z, Z> = tr(Z Z) is
        -||Z||_F^2, read from its real and imaginary parts.
        """
        us = np.atleast_1d(np.asarray(us, dtype=float))
        if len(self.factors) <= 2:
            if not self.factors:
                return np.zeros(len(us))
            fps = np.array([profile.derivative(us) for _, profile in self.factors],
                           dtype=float)
            return np.einsum("ip,ij,jp->p", fps, self._gram, fps)
        fps = [np.asarray(profile.derivative(us), dtype=float)
               for _, profile in self.factors]
        n, p = self.algebra.n, len(us)
        last = len(fps) - 1
        w = self._own[last][:, :, None] * fps[last]
        for k in range(last - 1, 0, -1):
            (_, profile), (_, d) = self.factors[k], self._eig[k]
            # e_a = e^{i f_k (d_a - d_n)}, so e_n = 1 and e_a conj(e_b) is
            # the phase of entry (a, b)
            theta = np.multiply.outer(d[:-1] - d[-1],
                                      np.asarray(profile.value(us), dtype=float))
            e = np.ones((n, p), dtype=complex)
            np.cos(theta, out=e[:-1].real)
            np.sin(theta, out=e[:-1].imag)
            w *= e[:, None, :]
            w *= e.conj()[None, :, :]
            if k > 1:
                # C W, then conj(C) (C W)^T = (C W C*)^T, transposed back
                c = self._steps[k - 2]
                w = (c @ w.reshape(n, n * p)).reshape(n, n, p).transpose(1, 0, 2)
                w = (c.conj() @ w.reshape(n, n * p)).reshape(n, n, p).transpose(1, 0, 2)
                w += self._own[k][:, :, None] * fps[k]
        # f_1' X_1 + f_2' X_2: per entry, (point, factor) @ (factor, part)
        first = np.matmul(np.stack(fps[:2], axis=1), self._first)
        w += first.view(complex).reshape(n, n, p)
        # squared in place: one more batch-sized temporary makes some
        # processes page-fault on every call, at 2-3 times the cost
        parts = w.view(float)
        sq = np.square(parts, out=parts).sum(axis=(0, 1))   # (re, im) per point
        return -(sq[0::2] + sq[1::2])

    def rho(self, us) -> np.ndarray:
        """rho = S'' = -(l/2) <g' g^-1, g' g^-1>(u) >= 0, the integrand of
        every entropy functional and 2 pi times the energy density."""
        return -0.5 * self.level * self.current_square(us)

    def partition(self, tol: float) -> PanelPartition:
        """The panel partition of rho over the support, cached per tol and
        seeded at the factors' support edges, where rho need not be smooth.
        Its ``tail_moments(self.rho, ts)`` are M_p(t), p = 0, 1, 2."""
        part = self._partitions.get(tol)
        if part is None:
            lo, hi = self.support()
            edges = [x for _, profile in self.factors for x in profile.support()]
            part = self._partitions[tol] = panel_partition(
                self.rho, lo, hi, tol=tol, points=edges)
        return part


def energy_density(path: LinePath, u) -> float | np.ndarray:
    """Pointwise energy density rho / 2 pi = -(l/4 pi) <g' g^-1, g' g^-1>(u);
    nonnegative."""
    vals = path.rho(u) / (2.0 * math.pi)
    return float(vals[0]) if np.isscalar(u) else vals


def total_energy(path: LinePath, tol: float = DEFAULT_TOL) -> float:
    """E_total = E0 / 2 pi, E0 the integral of S'' over the support hull."""
    lo, hi = path.support()
    if hi <= lo:
        return 0.0
    return float(path.partition(tol).totals[0]) / (2.0 * math.pi)


def _entropies(path: LinePath, ts, tol: float, right: bool = True,
               left: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = M1 - t M0, S_bar = t (E0 - M0) - (E1 - M1) and S' = -M0 at every
    point of ``ts``, from one batch of tail moments.  S and S' vanish right
    of the support hull, S_bar left of it; ``right`` (S, S') and ``left``
    (S_bar) pick the values wanted, the others read 0, and no partition is
    built unless a wanted value lies off those zeros.  A point that is not
    finite raises NumericError first."""
    ts = np.asarray(ts, dtype=float)
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise NumericError(f"entropy point must be finite, got {bad[0]}")
    lo, hi = path.support()
    zero = (np.maximum(ts, lo) >= hi) | (not right)
    zero_bar = (np.minimum(ts, hi) <= lo) | (not left)
    m0 = m1 = np.zeros_like(ts)
    e0 = e1 = 0.0
    if not (zero.all() and zero_bar.all()):
        part = path.partition(tol)
        m0, m1, _ = part.tail_moments(path.rho, ts).T
        e0, e1, _ = part.totals
    return (np.where(zero, 0.0, m1 - ts * m0),
            np.where(zero_bar, 0.0, ts * (e0 - m0) - (e1 - m1)),
            np.where(zero, 0.0, -m0))


def entropy_right(path: LinePath, t: float, tol: float = DEFAULT_TOL) -> float:
    """Half-line relative entropy S(t) = integral_t^inf (u - t) * S''(u) du."""
    s, _, _ = _entropies(path, [float(t)], tol, left=False)
    return float(s[0])


def entropy_left(path: LinePath, t: float, tol: float = DEFAULT_TOL) -> float:
    """Complementary entropy S_bar(t) = integral_-inf^t (t - u) * S''(u) du."""
    _, s_bar, _ = _entropies(path, [float(t)], tol, right=False)
    return float(s_bar[0])


def _interval_entropies(path: LinePath, radii, tol: float) -> list[float]:
    """S_(-r,r) at every radius, from one batch of tail moments at all -r
    and r; an interval off the support hull reads 0 and queries nothing."""
    for r in radii:
        if not 0 < r < math.inf:
            raise NumericError(f"interval radius must be positive and finite, got {r}")
    lo, hi = path.support()
    inside = [i for i, r in enumerate(radii) if min(hi, r) > max(lo, -r)]
    out = [0.0] * len(radii)
    if inside:
        rs = [float(radii[i]) for i in inside]
        moments = path.partition(tol).tail_moments(path.rho, [-r for r in rs] + rs)
        gaps = (moments[:len(rs)] - moments[len(rs):]).tolist()
        for i, r, (m0, _, m2) in zip(inside, rs, gaps):
            out[i] = (r * r * m0 - m2) / (2.0 * r)
    return out


def entropy_interval(path: LinePath, r: float, tol: float = DEFAULT_TOL) -> float:
    """Interval entropy with weight (r - u)(r + u)/(2r) on (-r, r)."""
    return _interval_entropies(path, [r], tol)[0]


@dataclass(frozen=True)
class BekensteinReport:
    interval_entropy: float
    bound: float            # pi * r * E_total
    holds: bool
    ratio: float


def bekenstein_checks(path: LinePath, radii,
                      tol: float = DEFAULT_TOL) -> list[BekensteinReport]:
    """``bekenstein_check`` at every radius, from one tail-moment query and
    one total energy; each report equals the one-radius call bit for bit."""
    entropies = _interval_entropies(path, radii, tol)
    energy = total_energy(path, tol)
    reports = []
    for r, s in zip(radii, entropies):
        bound = math.pi * r * energy
        ratio = s / bound if bound > 0 else (0.0 if s == 0 else math.inf)
        reports.append(BekensteinReport(s, bound, s <= bound + 1e-12, ratio))
    return reports


def bekenstein_check(path: LinePath, r: float,
                     tol: float = DEFAULT_TOL) -> BekensteinReport:
    """Evaluate S_(-r,r) against pi r E; holds structurally (weight <= r/2)."""
    return bekenstein_checks(path, [r], tol)[0]


# ---------------------------------------------------------------------------
# Profiles on a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyProfile:
    """Sampled entropy data; ``s_dd_analytic`` is the closed-form S''."""

    grid: np.ndarray
    S: np.ndarray
    S_bar: np.ndarray
    S_prime: np.ndarray
    s_dd_analytic: np.ndarray
    s_dd_fd: np.ndarray
    density: np.ndarray
    total_energy: float


def qnec_profile(path: LinePath, grid,
                 fd_tolerance: float = DEFAULT_FD_TOLERANCE,
                 fd_spacing: float = 1e-2,
                 tol: float = DEFAULT_TOL) -> EntropyProfile:
    """Fill an EntropyProfile on the given grid and verify its invariants.

    S'' is computed twice: analytically from the current, and by a second
    central difference of the quadrature values of S on a dedicated stencil
    of spacing ``fd_spacing`` around each grid point (the profile grid
    itself may be much coarser).  A relative mismatch against the peak
    analytic value beyond ``fd_tolerance`` raises VerificationError carrying
    the worst grid point.  Positivity and monotonicity are asserted with a
    1e-8 slack.  An ``fd_tolerance``, ``fd_spacing`` or ``tol`` that is not
    finite and > 0, or a grid point that is not finite, raises NumericError
    before any integrand call.
    """
    for name, value in (("fd_tolerance", fd_tolerance),
                        ("fd_spacing", fd_spacing), ("tol", tol)):
        _check_positive(name, value)
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or len(ts) < 3:
        raise NumericError("grid must be a 1-d array with at least 3 points")
    if not np.isfinite(ts).all():
        raise NumericError("grid must be finite")
    if np.any(np.diff(ts) <= 0):
        raise NumericError("grid must be strictly increasing")
    sdd = path.rho(ts)
    dens = sdd / (2.0 * math.pi)
    # S, S_bar and S' at the grid and S on the stencil t +- d, all read from
    # one batch of tail moments on the cached partition
    d = float(fd_spacing)
    n = len(ts)
    queries = np.concatenate([ts, ts - d, ts + d])
    s_all, sbar_all, sp_all = _entropies(path, queries, tol)
    s_vals, sbar_vals, sp_vals = s_all[:n], sbar_all[:n], sp_all[:n]
    fd = (s_all[2 * n:] - 2 * s_vals + s_all[n:2 * n]) / (d * d)

    scale = max(float(np.max(np.abs(sdd))), 1e-30)
    rel = np.abs(fd - sdd) / scale
    worst = int(np.argmax(rel))
    if not rel[worst] <= fd_tolerance:   # a NaN residual fails too
        raise VerificationError(
            f"S'' mismatch at t = {ts[worst]:.6g}: analytic {sdd[worst]:.6e} "
            f"vs finite difference {fd[worst]:.6e} "
            f"(relative {rel[worst]:.2e} > {fd_tolerance:.1e})",
            float(rel[worst]))
    slack = 1e-8
    if np.any(s_vals < -slack) or np.any(sbar_vals < -slack):
        raise VerificationError("negative entropy value on the grid",
                                float(min(s_vals.min(), sbar_vals.min())))
    if np.any(np.diff(s_vals) > slack * max(1.0, np.abs(s_vals).max())):
        raise VerificationError("S is not nonincreasing on the grid",
                                float(np.diff(s_vals).max()))
    if np.any(np.diff(sbar_vals) < -slack * max(1.0, np.abs(sbar_vals).max())):
        raise VerificationError("S_bar is not nondecreasing on the grid",
                                float(np.diff(sbar_vals).min()))
    if np.any(sdd < -slack):
        raise VerificationError("S'' went negative", float(sdd.min()))
    return EntropyProfile(ts, s_vals, sbar_vals, sp_vals, sdd, fd, dens,
                          total_energy(path, tol))


# ---------------------------------------------------------------------------
# Path-level intertwiner of the dilation flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CocyclePath:
    """gamma_+ composed against its own dilation, u_t(u) = g(u) g(e^{2 pi t} u)^-1."""

    base: LinePath
    flow_time: float
    result: LinePath


def _split_at_zero(path: LinePath) -> LinePath:
    """Check gamma(0) = Id with vanishing derivative and return the path itself.

    For product paths whose profiles all vanish at 0 together with their
    derivative, the path restricted to u > 0 is the path itself; a genuine
    two-sided path fails the residual check instead of being silently cut.
    """
    val = path.evaluate(np.array([0.0]))[0]
    eye = np.eye(path.algebra.n)
    value_resid = float(np.linalg.norm(val - eye))
    deriv_resid = math.sqrt(max(0.0, -float(path.current_square(
        np.array([0.0]))[0])))
    if max(value_resid, deriv_resid) > 1e-8:
        raise NotSplittableError(
            "path does not split at u = 0 "
            f"(value residual {value_resid:.2e}, derivative {deriv_resid:.2e})",
            {0.0: (value_resid, deriv_resid)})
    return path


def connes_cocycle_path(path: LinePath, t: float) -> CocyclePath:
    """Path-level intertwiner for the half-line (0, inf) at flow time t.

    The result is the product path u -> gamma(u) * gamma(e^{2 pi t} u)^{-1},
    assembled exactly by appending the reversed, dilated, inverted factors;
    no quadrature is involved.  The chain identity
    u_{t+s}(u) = u_t(u) * u_s(e^{2 pi t} u) holds pointwise by construction
    and is asserted on a sample grid by the test-suite.
    """
    gamma_plus = _split_at_zero(path)
    rate = math.exp(2.0 * math.pi * t)
    factors = list(gamma_plus.factors)
    dilated_inverse = [(xm, TransformedProfile(profile, rate=rate, sign=-1.0))
                       for xm, profile in reversed(gamma_plus.factors)]
    result = LinePath(path.algebra, factors + dilated_inverse, level=path.level)
    return CocyclePath(gamma_plus, t, result)


# ---------------------------------------------------------------------------
# Circle <-> line transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampledPath:
    """Line-picture samples (u_j, gamma(u_j)) transferred from a circle grid."""

    us: np.ndarray
    samples: np.ndarray
    algebra: CompactSimpleAlgebra


def cayley_transfer(circle_loop) -> SampledPath:
    """Transfer circle samples to the line via u = tan(theta/2).

    Requires the loop to be the identity in a neighborhood of theta = pi
    (one sixteenth of the circle on each side), which plays the role of the
    point at infinity; otherwise NotSplittableError, whose residuals map pi
    to (the worst distance from the identity there, nan: no derivative is
    measured).  The sample at theta = pi itself is dropped.
    """
    n_samp = circle_loop.n_samples
    thetas = circle_loop.thetas
    eye = np.eye(circle_loop.algebra.n)
    half = n_samp // 2
    guard = max(1, n_samp // 16)
    band = circle_loop.samples[np.arange(half - guard, half + guard + 1) % n_samp]
    worst = float(np.linalg.norm(band - eye, axis=(1, 2)).max())
    if worst > 1e-9:
        raise NotSplittableError(
            f"loop is not the identity near theta = pi (residual {worst:.2e}); "
            "cannot transfer", {math.pi: (worst, math.nan)})
    keep = np.arange(n_samp) != half
    us = np.tan(0.5 * np.where(thetas > np.pi, thetas - 2 * np.pi, thetas))
    order = np.argsort(us[keep])
    return SampledPath(us[keep][order], circle_loop.samples[keep][order],
                       circle_loop.algebra)


def cayley_inverse(path: SampledPath, n_samples: int):
    """Rebuild the circle grid loop; theta = pi is filled with the identity.

    Every other grid angle must find its sample at u = tan(theta/2) to 12
    digits; NumericError names the grid indices that do not (for instance
    when ``n_samples`` is not a divisor of the transferred grid's size).  A
    sample count that no grid loop may have is refused first.
    """
    thetas = circle_grid(_check_sample_count(n_samples))
    n = path.algebra.n
    samples = np.broadcast_to(np.eye(n, dtype=complex),
                              (n_samples, n, n)).copy()
    us = np.tan(0.5 * np.where(thetas > np.pi, thetas - 2 * np.pi, thetas))
    lookup = {round(float(u), 12): i for i, u in enumerate(path.us)}
    missed = []
    for j in range(n_samples):
        if j == n_samples // 2:
            continue
        i = lookup.get(round(float(us[j]), 12))
        if i is None:
            missed.append(j)
        else:
            samples[j] = path.samples[i]
    if missed:
        raise NumericError(
            f"no line sample at {len(missed)} of {n_samples} circle angles, "
            f"theta indices {missed}")
    return GridLoop(samples, path.algebra)
