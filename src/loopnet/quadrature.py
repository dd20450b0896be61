"""Panel quadrature for smooth compactly supported integrands.

One adaptive partition of [a, b] serves every integral of the form
integral_t^b w(u) f(u) du with a polynomial weight w of degree <= 2: the
partition stores the per-panel moments integral u^p f (p = 0, 1, 2) as
suffix sums, and a query at t adds one integral over the partial panel
[t, edge] to the suffix sum that starts at that edge.

Panels are accepted when embedded 10/21-point Gauss-Legendre values agree
within the panel's budget, tol / 2^depth, so the budgets of a partition add
up to ``tol``.  The error estimate of a panel [lo, hi] with midpoint c is
L * sum_p |G21 - G10|(integral ((u - c)/L)^p f), L = max(b - a, 1): it
bounds the estimated error of integral (u - t) f for every t in [a, b], and
of integral (r^2 - u^2)/(2r) f for L/2 <= r <= 2L.  Partial panels are
checked by the same rule under the budget of the panel they sit in and
bisected until they pass.  A panel that still fails at ``max_depth``
raises AccuracyError, and a non-finite integrand value NumericError;
nothing is accepted unchecked.

The integrand is called on all panels of one bisection level at once, in
chunks of at most ``CHUNK`` points, which bounds the memory of a call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, NumericError

__all__ = ["PanelPartition", "panel_partition"]

CHUNK = 2048
_N_LO = 10
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(_N_LO)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_NODES_LO, _NODES_HI])
_POWERS = np.arange(3)


def _evaluate(f: Callable[[np.ndarray], np.ndarray],
              points: np.ndarray) -> np.ndarray:
    out = np.empty(len(points))
    for start in range(0, len(points), CHUNK):
        out[start:start + CHUNK] = f(points[start:start + CHUNK])
    return out


def _panel_moments(f, lo, hi, scale):
    """21-point moments integral u^p f (p = 0, 1, 2) on each panel, shape
    (k, 3), and each panel's 10/21 error estimate, shape (k,)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    offsets = half[:, None] * _NODES
    vals = _evaluate(f, (mid[:, None] + offsets).ravel()).reshape(offsets.shape)
    local = (offsets / scale)[..., None] ** _POWERS * vals[..., None]
    lo_est = np.einsum("n,knp->kp", _WEIGHTS_LO, local[:, :_N_LO])
    hi_est = np.einsum("n,knp->kp", _WEIGHTS_HI, local[:, _N_LO:])
    err = scale * half * np.abs(hi_est - lo_est).sum(axis=1)
    u = mid[:, None] + offsets[:, _N_LO:]
    moments = half[:, None] * np.einsum(
        "n,knp->kp", _WEIGHTS_HI, u[..., None] ** _POWERS * vals[:, _N_LO:, None])
    return moments, err


def _adaptive_panels(f, lo, hi, depth, tol, scale, max_depth):
    """Bisect the intervals [lo_i, hi_i], starting at ``depth``_i, until
    every panel passes; return (owner, lo, hi, depth, moments) of the
    accepted panels, ``owner`` being the index of the interval each came from."""
    owner = np.arange(len(lo))
    accepted = []
    while len(lo):
        moments, err = _panel_moments(f, lo, hi, scale)
        if not np.all(np.isfinite(err)):
            i = int(np.argmin(np.isfinite(err)))
            raise NumericError(f"integrand is not finite on [{lo[i]}, {hi[i]}]")
        budget = tol * np.exp2(-depth)
        ok = err <= budget
        accepted.append((owner[ok], lo[ok], hi[ok], depth[ok], moments[ok]))
        bad = ~ok
        if np.any(bad & (depth >= max_depth)):
            i = int(np.argmax(bad & (depth >= max_depth)))
            estimate = float(sum(m[:, 0].sum() for *_, m in accepted)
                             + moments[bad, 0].sum())
            raise AccuracyError(
                f"quadrature stalled on [{lo[i]}, {hi[i]}] with error "
                f"{err[i]:.2e} > {budget[i]:.2e}", estimate)
        mid = 0.5 * (lo[bad] + hi[bad])
        owner = np.repeat(owner[bad], 2)
        lo = np.column_stack([lo[bad], mid]).ravel()
        hi = np.column_stack([mid, hi[bad]]).ravel()
        depth = np.repeat(depth[bad] + 1, 2)
    return tuple(np.concatenate(parts) for parts in zip(*accepted))


@dataclass(frozen=True)
class PanelPartition:
    """Accepted panels of one integrand on [a, b] with suffix moment sums.

    ``edges`` has the k + 1 panel edges, ``depth`` the bisection depth of
    each panel and ``suffix[j]`` the moments integral_{edges[j]}^b u^p f for
    p = 0, 1, 2, with ``suffix[k] = 0``.
    """

    edges: np.ndarray
    depth: np.ndarray
    suffix: np.ndarray
    tol: float
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
                f, ts[inner], edges[pj + 1], self.depth[pj], self.tol,
                self.scale, self.max_depth)
            partial = np.zeros((len(inner), 3))
            np.add.at(partial, owner, moments)
            out[inner] = self.suffix[pj + 1] + partial
        return out


def panel_partition(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                    tol: float = 1e-10, max_depth: int = 40) -> PanelPartition:
    """Adaptive partition of [a, b] for the vectorized integrand ``f``.

    Bisects breadth-first from the single panel [a, b]; see the module
    docstring for the acceptance rule.  An empty interval (b <= a) gives a
    partition with no panels whose moments are all zero.  A bound that is
    not finite raises NumericError.
    """
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NumericError(f"quadrature bounds must be finite, got [{a}, {b}]")
    scale = max(b - a, 1.0)
    if not (b > a):
        return PanelPartition(np.array([a]), np.zeros(0, int), np.zeros((1, 3)),
                              tol, scale, max_depth)
    _, lo, hi, depth, moments = _adaptive_panels(
        f, np.array([a]), np.array([b]), np.zeros(1, int), tol, scale, max_depth)
    order = np.argsort(lo)
    suffix = np.zeros((len(lo) + 1, 3))
    suffix[:-1] = np.cumsum(moments[order][::-1], axis=0)[::-1]
    return PanelPartition(np.append(lo[order], b), depth[order], suffix,
                          tol, scale, max_depth)
