"""The panel quadrature as it formed its levels before, kept as the oracle of
``loopnet.quadrature``.

``_panel_moments`` once stacked the 10/21 gaps and the rounding scales and
column-stacked the moments, ``_adaptive_panels`` concatenated the accepted
panels of every level (one level included) and column-stacked the children
of each bisection, ``panel_partition`` seeded with ``np.unique`` and
``tail_moments`` summed the partial panels with ``np.add.at`` whether or not
one was bisected.  Those forms live on here as ``stacked_*``.  The module
now forms a level in place with the same arithmetic in the same order, and
forms the moments once per call for the accepted panels alone (the moment
formula is elementwise), so every field of a partition, every tail moment,
every stall estimate and every Bekenstein report must be equal bit for
bit.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from loopnet import entropy, lie, quadrature
from loopnet.errors import AccuracyError, NumericError
from loopnet.quadrature import PanelPartition, panel_partition

from conftest import random_antihermitian

ROOT = Path(__file__).resolve().parent.parent


def stacked_panel_moments(f, lo, hi, scale):
    """Moments, error estimates and rounding floors as np.stack and
    np.column_stack formed them."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sums = np.empty((len(lo), 9))
    step = max(1, quadrature.CHUNK // len(quadrature._NODES))
    for start in range(0, len(lo), step):
        part = slice(start, start + step)
        points = mid[part, None] + half[part, None] * quadrature._NODES
        vals = f(points.ravel()).reshape(points.shape)
        sums[part, :6] = vals @ quadrature._RULES
        sums[part, 6:] = np.abs(vals) @ quadrature._ABS_RULES
    r = half / scale
    cols = np.stack([np.abs(sums[:, 3:6] - sums[:, :3]),
                     np.finfo(float).eps * sums[:, 6:]])
    err, floor = scale * half * (cols[..., 0] + r * (cols[..., 1] + r * cols[..., 2]))
    s0, s1, s2 = sums[:, 3:6].T
    moments = half[:, None] * np.column_stack(
        [s0, mid * s0 + half * s1,
         mid * mid * s0 + 2.0 * mid * half * s1 + half * half * s2])
    return moments, err, floor


def stacked_adaptive_panels(f, lo, hi, depth, budget, scale):
    """Breadth-first bisection that concatenates every level's panels."""
    owner = np.arange(len(lo))
    accepted = []
    while True:
        moments, err, floor = stacked_panel_moments(f, lo, hi, scale)
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
        stuck = bad & (depth >= quadrature.MAX_DEPTH)
        below = bad & (budget < floor)
        if stuck.any() or below.sum() > quadrature.FLOOR_PANELS:
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


class StackedPartition(PanelPartition):
    """A partition whose tail moments sum partial panels with np.add.at."""

    def tail_moments(self, f, ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        edges = self.edges
        j = np.maximum(np.searchsorted(edges, ts, side="right") - 1, 0)
        out = self.suffix[j]
        inner = np.flatnonzero((ts > edges[j]) & (ts < edges[-1]))
        if len(inner):
            pj = j[inner]
            owner, *_, moments = stacked_adaptive_panels(
                f, ts[inner], edges[pj + 1], self.depth[pj], self.budget[pj],
                self.scale)
            partial = np.zeros((len(inner), 3))
            np.add.at(partial, owner, moments)
            out[inner] = self.suffix[pj + 1] + partial
        return out


def stacked_partition(f, a, b, tol=quadrature.DEFAULT_TOL, points=()):
    """``panel_partition`` seeded through np.unique, on the stacked levels."""
    a, b = float(a), float(b)
    scale = max(b - a, 1.0)
    if not (b > a):
        return StackedPartition(np.array([a]), np.zeros(0, int), np.zeros(0),
                                np.zeros((1, 3)), scale)
    cuts = np.unique(np.asarray(points, dtype=float))
    seeds = np.concatenate([[a], cuts[(cuts > a) & (cuts < b)], [b]])
    lo, hi = seeds[:-1], seeds[1:]
    _, lo, hi, depth, budget, moments = stacked_adaptive_panels(
        f, lo, hi, np.zeros(len(lo), int), tol * ((hi - lo) / (b - a)),
        scale)
    order = np.argsort(lo)
    suffix = np.zeros((len(lo) + 1, 3))
    suffix[:-1] = np.cumsum(moments[order][::-1], axis=0)[::-1]
    return StackedPartition(np.append(lo[order], b), depth[order],
                            budget[order], suffix, scale)


def _same_bits(a, b):
    """Equal arrays, signed zeros and NaN payloads included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_partition(fast, slow):
    for name in ("edges", "depth", "budget", "suffix"):
        assert _same_bits(getattr(fast, name), getattr(slow, name)), name
    assert fast.scale == slow.scale


def _random_path(algebra, n_factors, rng):
    """Generators and windows drawn as in conftest.random_line_path, with
    the number of factors given."""
    factors = []
    for _ in range(n_factors):
        gen = random_antihermitian(algebra, rng, scale=rng.uniform(0.5, 1.6))
        window = (entropy.GaussianWindow if rng.random() < 0.5
                  else entropy.PolyBump)
        factors.append((gen, window(rng.uniform(-2.0, 2.0),
                                    rng.uniform(0.3, 1.5),
                                    rng.uniform(-1.4, 1.4))))
    return entropy.LinePath(algebra, factors)


def _calls(f, log):
    return lambda us: log.append(len(us)) or f(us)


@pytest.mark.parametrize("n_factors", range(1, 6))
@pytest.mark.parametrize("n", [2, 3])
def test_partitions_and_tails_match_the_stacked_levels(n, n_factors):
    """Seeded and unseeded partitions of random line paths; tail points on
    every edge, outside [a, b], inside panels, and inside panels whose
    partial panel must bisect (an oscillating integrand on the same
    partition)."""
    algebra = lie.build_su(n)
    rng = np.random.default_rng(10 * n + n_factors)
    path = _random_path(algebra, n_factors, rng)
    rho = path.rho
    lo, hi = path.support()
    cuts = [x for _, p in path.factors for x in p.support()]
    wiggle = lambda us: rho(us) * (1.5 + np.sin(40.0 * us))
    bisected = []
    for points in (cuts, ()):
        fast = panel_partition(rho, lo, hi, points=points)
        slow = stacked_partition(rho, lo, hi, points=points)
        _assert_same_partition(fast, slow)
        ts = np.concatenate([fast.edges, [lo - 1.0, hi + 0.5],
                             rng.uniform(lo, hi, 12)])
        assert _same_bits(fast.tail_moments(rho, ts), slow.tail_moments(rho, ts))
        calls = []
        fast_wiggle = fast.tail_moments(_calls(wiggle, calls), ts)
        assert _same_bits(fast_wiggle, slow.tail_moments(wiggle, ts))
        bisected.append(len(calls) > 1)
    assert any(bisected)


def test_empty_interval_matches():
    fast = panel_partition(np.ones_like, 1.0, 1.0, points=[0.5])
    slow = stacked_partition(np.ones_like, 1.0, 1.0, points=[0.5])
    _assert_same_partition(fast, slow)


def _raised(build, error):
    with pytest.raises(error) as caught:
        build()
    return caught.value


def test_stall_and_non_finite_errors_match():
    """The depth limit and the rounding floor raise AccuracyError with the
    same message and estimate, a non-finite value NumericError with the
    same message, in a partition and in a partial panel."""
    step = lambda u: (u > 1.0 / 3.0).astype(float)
    cases = [(lambda build: build(step, 0.0, 1.0, tol=1e-10), AccuracyError)]
    su2 = lie.build_su(2)
    path = entropy.LinePath(su2, [(np.sqrt(2.0) * su2.basis[0],
                                   entropy.GaussianWindow(0.0, 1.0, 0.8))])
    lo, hi = path.support()
    cases.append((lambda build: build(path.rho, lo, hi, tol=1e-14),
                  AccuracyError))
    blows_up = lambda u: np.where(u > 0.6, np.nan, np.sin(20.0 * u) ** 2)
    cases.append((lambda build: build(blows_up, 0.0, 1.0, points=[0.5]),
                  NumericError))
    for run, error in cases:
        fast = _raised(lambda: run(panel_partition), error)
        slow = _raised(lambda: run(stacked_partition), error)
        assert str(fast) == str(slow)
        if error is AccuracyError:
            assert fast.estimate == slow.estimate
    flat = lambda u: np.ones_like(u)
    fast_part = panel_partition(flat, 0.0, 1.0)
    slow_part = stacked_partition(flat, 0.0, 1.0)
    for f, error in ((step, AccuracyError),
                     (lambda u: np.where(u > 0.6, np.nan, 1.0), NumericError)):
        ts = [0.25, 0.5]
        fast = _raised(lambda: fast_part.tail_moments(f, ts), error)
        slow = _raised(lambda: slow_part.tail_moments(f, ts), error)
        assert str(fast) == str(slow)
        if error is AccuracyError:
            assert fast.estimate == slow.estimate


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bekenstein_reports_match(monkeypatch):
    """The 300 reports of the seed-3 ``oneshot_sweep`` Bekenstein paths."""
    bench = _workloads()
    su2 = lie.build_su(2)
    specs = bench.oneshot_sweep_setup(3, None)["bekenstein"]

    def reports():
        out = []
        for factors in specs:
            path = entropy.LinePath(su2, [
                (bench._generator(su2, f["coeff"]),
                 (entropy.GaussianWindow if f["kind"] == "gaussian"
                  else entropy.PolyBump)(f["center"], f["width"],
                                         f["amplitude"]))
                for f in factors])
            out += [entropy.bekenstein_check(path, r)
                    for r in bench.BEKENSTEIN_RADII]
        return out

    fast = reports()
    monkeypatch.setattr(entropy, "panel_partition", stacked_partition)
    slow = reports()
    assert len(fast) == 300
    assert [tuple(map(float.hex, (r.interval_entropy, r.bound, r.ratio)))
            + (r.holds,) for r in fast] == [
        tuple(map(float.hex, (r.interval_entropy, r.bound, r.ratio)))
        + (r.holds,) for r in slow]
    assert all(r.holds and not math.isnan(r.ratio) for r in fast)
