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
``max_depth`` bisections raises AccuracyError, and a non-finite integrand
value NumericError; nothing is accepted unchecked.

A panel whose budget is below eps times the same weighted sum over
|w_n x_n^p f|, the rounding floor of its estimate, passes only by chance
(bisection halves budget and floor alike): more than ``FLOOR_PANELS``
failing ones in a level raise AccuracyError.  The integrand is called on
whole panels, at most ``CHUNK`` points at a time, and each call is reduced
to its rule sums at once, so a level never holds all its nodes and values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, NumericError

__all__ = ["PanelPartition", "panel_partition"]

CHUNK = 2048
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


def _panel_moments(f, lo, hi, scale):
    """21-point moments integral u^p f (p = 0, 1, 2) on each panel, shape
    (k, 3), each panel's 10/21 error estimate, shape (k,), and the rounding
    floor of that estimate, shape (k,)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sums = np.empty((len(lo), 9))
    step = max(1, CHUNK // len(_NODES))
    for start in range(0, len(lo), step):
        part = slice(start, start + step)
        points = mid[part, None] + half[part, None] * _NODES
        vals = f(points.ravel()).reshape(points.shape)
        sums[part, :6] = vals @ _RULES
        sums[part, 6:] = np.abs(vals) @ _ABS_RULES
    r = half / scale
    # the 10/21 gaps and the rounding scales, each weighted by (half/scale)^p
    cols = np.stack([np.abs(sums[:, 3:6] - sums[:, :3]),
                     np.finfo(float).eps * sums[:, 6:]])
    err, floor = scale * half * (cols[..., 0] + r * (cols[..., 1] + r * cols[..., 2]))
    s0, s1, s2 = sums[:, 3:6].T
    moments = half[:, None] * np.column_stack(
        [s0, mid * s0 + half * s1,
         mid * mid * s0 + 2.0 * mid * half * s1 + half * half * s2])
    return moments, err, floor


def _adaptive_panels(f, lo, hi, depth, budget, scale, max_depth):
    """Bisect the intervals [lo_i, hi_i], starting at ``depth``_i with
    ``budget``_i, until every panel passes; return (owner, lo, hi, depth,
    budget, moments) of the accepted panels, ``owner`` being the index of
    the interval each came from."""
    owner = np.arange(len(lo))
    accepted = []
    while True:
        moments, err, floor = _panel_moments(f, lo, hi, scale)
        if not np.all(np.isfinite(err)):
            i = int(np.argmin(np.isfinite(err)))
            raise NumericError(f"integrand is not finite on [{lo[i]}, {hi[i]}]")
        ok = err <= budget
        if ok.all():
            accepted.append((owner, lo, hi, depth, budget, moments))
            break
        accepted.append((owner[ok], lo[ok], hi[ok], depth[ok], budget[ok],
                         moments[ok]))
        bad = ~ok
        stuck = bad & (depth >= max_depth)
        below = bad & (budget < floor)
        if stuck.any() or below.sum() > FLOOR_PANELS:
            i = int(np.argmax(stuck if stuck.any() else below))
            estimate = float(sum(m[:, 0].sum() for *_, m in accepted)
                             + moments[bad, 0].sum())
            raise AccuracyError(
                f"quadrature stalled on [{lo[i]}, {hi[i]}] with error "
                f"{err[i]:.2e} > {budget[i]:.2e} (rounding floor "
                f"{floor[i]:.2e})", estimate)
        mid = 0.5 * (lo[bad] + hi[bad])
        owner = np.repeat(owner[bad], 2)
        lo = np.column_stack([lo[bad], mid]).ravel()
        hi = np.column_stack([mid, hi[bad]]).ravel()
        depth = np.repeat(depth[bad] + 1, 2)
        budget = np.repeat(0.5 * budget[bad], 2)
    return tuple(np.concatenate(parts) for parts in zip(*accepted))


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
    max_depth: int

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
        inner = np.flatnonzero((ts > edges[j]) & (ts < edges[-1]))
        if len(inner):
            pj = j[inner]
            owner, *_, moments = _adaptive_panels(
                f, ts[inner], edges[pj + 1], self.depth[pj], self.budget[pj],
                self.scale, self.max_depth)
            partial = np.zeros((len(inner), 3))
            np.add.at(partial, owner, moments)
            out[inner] = self.suffix[pj + 1] + partial
        return out


def panel_partition(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    tol: float = 1e-10, max_depth: int = 40,
                    points=()) -> PanelPartition:
    """Adaptive partition of [a, b] for the vectorized integrand ``f``.

    ``points`` are cut points where ``f`` may not be smooth; those strictly
    inside (a, b) seed the partition, the others are ignored.  Bisects
    breadth-first from the seed pieces; see the module docstring for the
    budgets and the acceptance rule.  An empty interval (b <= a) gives a
    partition with no panels whose moments are all zero.  A bound that is
    not finite raises NumericError.
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NumericError(f"quadrature bounds must be finite, got [{a}, {b}]")
    scale = max(b - a, 1.0)
    if not (b > a):
        return PanelPartition(np.array([a]), np.zeros(0, int), np.zeros(0),
                              np.zeros((1, 3)), scale, max_depth)
    cuts = np.unique(np.asarray(points, dtype=float))
    seeds = np.concatenate([[a], cuts[(cuts > a) & (cuts < b)], [b]])
    lo, hi = seeds[:-1], seeds[1:]
    _, lo, hi, depth, budget, moments = _adaptive_panels(
        f, lo, hi, np.zeros(len(lo), int), tol * ((hi - lo) / (b - a)),
        scale, max_depth)
    order = np.argsort(lo)
    suffix = np.zeros((len(lo) + 1, 3))
    suffix[:-1] = np.cumsum(moments[order][::-1], axis=0)[::-1]
    return PanelPartition(np.append(lo[order], b), depth[order], budget[order],
                          suffix, scale, max_depth)
