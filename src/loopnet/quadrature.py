"""Panel quadrature for smooth compactly supported integrands.

One adaptive partition of [a, b] serves every integral of the form
integral_t^b w(u) f(u) du with a polynomial weight w of degree <= 2: the
partition stores the per-panel moments integral u^p f (p = 0, 1, 2) as
suffix sums, and a query at t adds one integral over the partial panel
[t, edge] to the suffix sum that starts at that edge.

Each panel is checked with the 10- and the 21-point Gauss-Legendre rules.
The two node sets share no node, so a panel costs 31 integrand values, and
the two rules' sums S_p = sum_n w_n x_n^p f(mid + half x_n) for p = 0, 1, 2
are one product of the panel's values with a constant (31, 6) matrix.  The
error estimate of a panel [lo, hi] = [mid - half, mid + half] is
L * half * sum_p (half/L)^p |S21_p - S10_p|, L = max(b - a, 1), the 10/21
gap of integral ((u - mid)/L)^p f scaled by L: it bounds the estimated error
of integral (u - t) f for every t in [a, b], and of integral (r^2 - u^2)/(2r) f
for L/2 <= r <= 2L.  The moments are the 21-point ones, expanded about the
midpoint: half * (S0, mid S0 + half S1, mid^2 S0 + 2 mid half S1 + half^2 S2).

The partition starts from the pieces of [a, b] cut at the given interior
points, where the integrand is known not to be smooth (QUADPACK's QAGP
breakpoints), and bisects breadth-first.  A piece of length l gets the
budget tol * l / (b - a) and each bisection halves it, so the budgets of a
partition add up to ``tol``; with no cut point this is tol / 2^depth.  A
panel is accepted when its error estimate is within its budget.  Partial
panels are checked by the same rule under the budget of the panel they sit
in and bisected until they pass.  A panel that still fails after
``MAX_DEPTH`` bisections raises AccuracyError, and a non-finite integrand
value NumericError; nothing is accepted unchecked.

A panel whose budget is below eps times the same weighted sum over
|w_n x_n^p f|, the rounding floor of its estimate, passes only by chance
(bisection halves budget and floor alike): more than ``FLOOR_PANELS``
failing ones in a level raise AccuracyError.  The integrand is called on
whole panels, at most ``CHUNK`` points at a time, and each call is reduced
to its rule sums at once, so a level never holds all its nodes and values.
Past the integrand, a level is a fixed handful of array operations: both
rules' sums are written into one array, the estimates and floors are formed
in place, and failing panels are bisected into interleaved children.  Each
level keeps the 21-point sums of the panels it accepts, and the moments are
formed once, for the accepted panels alone; when the first level accepts
every panel its arrays are used as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, NumericError

__all__ = ["PanelPartition", "panel_partition", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-10   # absolute error target of a partition
CHUNK = 2048
MAX_DEPTH = 40
FLOOR_PANELS = 1024
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_NODES_LO, _NODES_HI])
# columns w_n x_n^p (p = 0, 1, 2) of the 10-point rule, then of the 21-point rule
_RULES = np.zeros((len(_NODES), 6))
_RULES[:10, :3] = _WEIGHTS_LO[:, None] * _NODES_LO[:, None] ** np.arange(3)
_RULES[10:, 3:] = _WEIGHTS_HI[:, None] * _NODES_HI[:, None] ** np.arange(3)
# |w_n x_n^p| of both rules, which scale the rounding of the sums
_ABS_RULES = np.abs(_RULES[:, :3] + _RULES[:, 3:])
_EPS = np.finfo(float).eps


def _check_positive(name: str, value: float) -> None:
    """NumericError unless ``value`` is finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise NumericError(f"{name} must be finite and > 0, got {value}")


def _panel_sums(f, lo, hi, scale):
    """21-point rule sums S21_p (p = 0, 1, 2) on each panel, shape (3, k),
    each panel's 10/21 error estimate, shape (k,), and the rounding floor
    of that estimate, shape (k,)."""
    k = len(lo)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sums = np.empty((k, 9))
    step = max(1, CHUNK // len(_NODES))
    for start in range(0, k, step):
        part = slice(start, start + step)
        points = mid[part, None] + half[part, None] * _NODES
        vals = f(points.ravel()).reshape(points.shape)
        np.matmul(vals, _RULES, out=sums[part, :6])
        np.matmul(np.abs(vals), _ABS_RULES, out=sums[part, 6:])
    # one panel a column: rows S10_p, S21_p and the sums over |w_n x_n^p f|.
    # In place, the 10/21 gaps |S21_p - S10_p| overwrite S10_p and the
    # rounding scales eps * sum |w_n x_n^p f| the absolute sums; read
    # together as (2, 3, k), both are weighted by (half/scale)^p at once
    sums = sums.T.copy()
    gaps = sums[:3]
    np.subtract(sums[3:6], gaps, out=gaps)
    np.abs(gaps, out=gaps)
    sums[6:] *= _EPS
    cols = sums.reshape(3, 3, k)[::2]
    r = half / scale
    est = cols[:, 2] * r
    est += cols[:, 1]
    est *= r
    est += cols[:, 0]
    est *= scale * half
    return sums[3:6], est[0], est[1]


def _moments(lo, hi, sums):
    """The moments integral u^p f (p = 0, 1, 2) on each panel, shape (k, 3),
    from its 21-point rule sums ``sums``, shape (3, k), expanded about the
    midpoint; elementwise, so a panel's moments do not depend on the
    panels formed with it."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s0, s1, s2 = sums
    moments = np.empty((3, len(lo)))
    m0, m1, m2 = moments
    np.multiply(half, s0, out=m0)
    np.multiply(mid, s0, out=m1)
    m1 += half * s1
    np.multiply(mid, mid, out=m2)
    m2 *= s0
    m2 += 2.0 * mid * half * s1
    m2 += half * half * s2
    moments[1:] *= half
    return moments.T


def _adaptive_panels(f, lo, hi, depth, budget, scale):
    """Bisect the intervals [lo_i, hi_i], starting at ``depth``_i with
    ``budget``_i, until every panel passes; return (owner, lo, hi, depth,
    budget, moments) of the accepted panels, level by level, ``owner``
    being the index of the interval each came from.  Each level keeps the
    rule sums of the panels it accepts, and the moments are formed once,
    for the accepted panels alone."""
    owner = np.arange(len(lo))
    accepted = []
    while True:
        sums, err, floor = _panel_sums(f, lo, hi, scale)
        ok = err <= budget
        passed = np.count_nonzero(ok)
        if passed == len(ok):
            if accepted:
                accepted.append((owner, lo, hi, depth, budget, sums))
                *panels, sums = zip(*accepted)
                owner, lo, hi, depth, budget = map(np.concatenate, panels)
                sums = np.concatenate(sums, axis=1)
            return owner, lo, hi, depth, budget, _moments(lo, hi, sums)
        # a non-finite estimate is never within its budget
        finite = np.isfinite(err)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericError(f"integrand is not finite on [{lo[i]}, {hi[i]}]")
        bad = ~ok
        if passed:
            accepted.append((owner[ok], lo[ok], hi[ok], depth[ok], budget[ok],
                             sums[:, ok]))
            owner, lo, hi, depth, budget, floor = (
                owner[bad], lo[bad], hi[bad], depth[bad], budget[bad], floor[bad])
        stuck = depth >= MAX_DEPTH
        below = budget < floor
        n_stuck = np.count_nonzero(stuck)
        if n_stuck or np.count_nonzero(below) > FLOOR_PANELS:
            i = int(np.argmax(stuck if n_stuck else below))
            # the integral of f over every panel of every level so far
            estimate = float(sum(_moments(a, b, s)[:, 0].sum()
                                 for _, a, b, _, _, s in accepted)
                             + _moments(lo, hi, sums[:, bad])[:, 0].sum())
            raise AccuracyError(
                f"quadrature stalled on [{lo[i]}, {hi[i]}] with error "
                f"{err[bad][i]:.2e} > {budget[i]:.2e} (rounding floor "
                f"{floor[i]:.2e})", estimate)
        mid = 0.5 * (lo + hi)
        owner = owner.repeat(2)
        depth = (depth + 1).repeat(2)
        budget = (0.5 * budget).repeat(2)
        # the children [lo, mid] and [mid, hi] of each panel side by side
        lo = lo.repeat(2)
        lo[1::2] = mid
        hi = hi.repeat(2)
        hi[::2] = mid


@dataclass(frozen=True)
class PanelPartition:
    """Accepted panels of one integrand on [a, b] with suffix moment sums.

    ``edges`` has the k + 1 panel edges, ``depth`` the number of bisections
    that made each panel from its seed piece, ``budget`` each panel's error
    budget and ``suffix[j]`` the moments integral_{edges[j]}^b u^p f for
    p = 0, 1, 2, with ``suffix[k] = 0``.
    """

    edges: np.ndarray
    depth: np.ndarray
    budget: np.ndarray
    suffix: np.ndarray
    scale: float

    @property
    def totals(self) -> np.ndarray:
        """integral_a^b u^p f for p = 0, 1, 2."""
        return self.suffix[0]

    def tail_moments(self, f: Callable[[np.ndarray], np.ndarray],
                     ts) -> np.ndarray:
        """integral_max(t, a)^b u^p f for p = 0, 1, 2 at every t, shape (len(ts), 3).

        ``f`` must be the integrand the partition was built from.  Points
        outside (a, b) and on panel edges read the suffix sums alone; every
        other point adds its partial panel [t, next edge].
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        edges = self.edges
        j = np.maximum(np.searchsorted(edges, ts, side="right") - 1, 0)
        out = self.suffix[j]
        inner = ((ts > edges[j]) & (ts < edges[-1])).nonzero()[0]
        if len(inner):
            pj = j[inner]
            owner, *_, moments = _adaptive_panels(
                f, ts[inner], edges[pj + 1], self.depth[pj], self.budget[pj],
                self.scale)
            if len(owner) == len(inner):
                # no partial panel was bisected: owner is arange
                partial = moments
            else:
                partial = np.zeros((len(inner), 3))
                np.add.at(partial, owner, moments)
            out[inner] = self.suffix[pj + 1] + partial
        return out


def panel_partition(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    tol: float = DEFAULT_TOL, points=()) -> PanelPartition:
    """Adaptive partition of [a, b] for the vectorized integrand ``f``.

    ``points`` are cut points where ``f`` may not be smooth; those strictly
    inside (a, b) seed the partition, the others are ignored.  Bisects
    breadth-first from the seed pieces; see the module docstring for the
    budgets and the acceptance rule.  An empty interval (b <= a) gives a
    partition with no panels whose moments are all zero.  A bound that is
    not finite, or a ``tol`` that is not finite and > 0, raises NumericError
    before any integrand call.
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NumericError(f"quadrature bounds must be finite, got [{a}, {b}]")
    _check_positive("tol", tol)
    scale = max(b - a, 1.0)
    if not (b > a):
        return PanelPartition(np.array([a]), np.zeros(0, int), np.zeros(0),
                              np.zeros((1, 3)), scale)
    cuts = {x for x in np.asarray(points, dtype=float).tolist() if a < x < b}
    seeds = np.array([a, *sorted(cuts), b])
    lo, hi = seeds[:-1], seeds[1:]
    _, lo, hi, depth, budget, moments = _adaptive_panels(
        f, lo, hi, np.zeros(len(lo), int), tol * ((hi - lo) / (b - a)),
        scale)
    order = lo.argsort()
    suffix = np.zeros((len(lo) + 1, 3))
    suffix[:-1] = moments[order][::-1].cumsum(axis=0)[::-1]
    return PanelPartition(np.concatenate([lo[order], [b]]), depth[order],
                          budget[order], suffix, scale)
