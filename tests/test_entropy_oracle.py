"""The per-point adaptive quadrature, kept as the oracle of the entropy layer.

Before the cached panel partition, every functional was its own adaptive
10/21-point Gauss-Legendre quadrature of a weighted S'' over the part of
the support it needs, started afresh at each point.  That routine and those
functionals live on here, run at tol = 1e-13, and the partition-backed
functionals at their default tolerance must agree with them to 1e-10.

The oracle integrand is the product rule, the form ``LinePath.current_square``
had before its Ad-invariance reduction: prefix products of exp(f_j X_j)
conjugating each X_j.  So the oracle functionals share no code with the fast
integrand, and the two integrands must agree to 1e-14 of the peak.

The partition's moment rule (products of each chunk's values with a
constant matrix) keeps the per-point power arrays it replaced as
``oracle_panel_moments``, with its own evaluation loop: without cut points
the two build the same panels, with moments equal to 1e-14.

The generated windows are at most 1.0 wide with amplitudes up to 1.2: on
much wider supports the 1e-13 oracle reaches the roundoff floor of the
integrand and stalls with AccuracyError (seen at support length ~23).
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loopnet import entropy, lie, loops, quadrature
from loopnet.errors import AccuracyError
from loopnet.quadrature import panel_partition

from conftest import random_antihermitian

ORACLE_TOL = 1e-13
AGREE = 1e-10

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)


def _panel(f, a, b, nodes, weights):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(weights @ np.asarray(f(mid + half * nodes), dtype=float))


def adaptive_gauss_legendre(f, a, b, tol=1e-10, max_depth=40):
    """Integrate a smooth vectorized callable over [a, b] to absolute tolerance.

    Panels are bisected until the 10- and 21-point Gauss-Legendre values
    agree (the two rules share no node, so a panel costs 31 values); the
    local budget is halved at each bisection so the global error stays below
    ``tol``.  Unlike ``quadrature.panel_partition`` it takes no cut points:
    it starts from the single panel [a, b].
    """
    if not (b > a):
        return 0.0

    def recurse(lo, hi, budget, depth):
        coarse = _panel(f, lo, hi, _NODES_LO, _WEIGHTS_LO)
        fine = _panel(f, lo, hi, _NODES_HI, _WEIGHTS_HI)
        if abs(fine - coarse) <= budget:
            return fine
        if depth >= max_depth:
            raise AccuracyError(
                f"quadrature stalled on [{lo}, {hi}] with error "
                f"{abs(fine - coarse):.2e} > {budget:.2e}", fine)
        mid = 0.5 * (lo + hi)
        return (recurse(lo, mid, 0.5 * budget, depth + 1)
                + recurse(mid, hi, 0.5 * budget, depth + 1))

    return recurse(float(a), float(b), tol, 0)


def product_rule_current_square(path, us):
    """<g' g^-1, g' g^-1>(u) for the trace form, computed by the product rule."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    n = path.algebra.n
    m = np.zeros((len(us), n, n), dtype=complex)
    prefix = np.broadcast_to(np.eye(n, dtype=complex), (len(us), n, n)).copy()
    for i, ((xm, profile), (u_mat, d)) in enumerate(zip(path.factors, path._eig)):
        fp = np.asarray(profile.derivative(us), dtype=float)
        conj = np.einsum("jab,bc,jdc->jad", prefix, xm, prefix.conj())
        m += fp[:, None, None] * conj
        if i + 1 < len(path.factors):   # only a later factor reads the prefix
            g = lie.exp_profile(u_mat, d, np.asarray(profile.value(us), dtype=float))
            prefix = np.einsum("jab,jbc->jac", prefix, g)
    vals = np.einsum("jab,jba->j", m, m)
    return vals.real


def _rho(path):
    return lambda us: -0.5 * path.level * product_rule_current_square(path, us)


def oracle_total_energy(path, tol=ORACLE_TOL):
    lo, hi = path.support()
    if hi <= lo:
        return 0.0
    return adaptive_gauss_legendre(_rho(path), lo, hi, tol=tol) / (2 * math.pi)


def oracle_right(path, t, tol=ORACLE_TOL):
    lo, hi = path.support()
    a = max(float(t), lo)
    if hi <= a:
        return 0.0
    rho = _rho(path)
    return adaptive_gauss_legendre(lambda u: (u - t) * rho(u), a, hi, tol=tol)


def oracle_left(path, t, tol=ORACLE_TOL):
    lo, hi = path.support()
    b = min(float(t), hi)
    if b <= lo:
        return 0.0
    rho = _rho(path)
    return adaptive_gauss_legendre(lambda u: (t - u) * rho(u), lo, b, tol=tol)


def oracle_s_prime(path, t, tol=ORACLE_TOL):
    lo, hi = path.support()
    a = max(float(t), lo)
    if hi <= a:
        return 0.0
    return -adaptive_gauss_legendre(_rho(path), a, hi, tol=tol)


def oracle_interval(path, r, tol=ORACLE_TOL):
    lo, hi = path.support()
    a, b = max(lo, -r), min(hi, r)
    if b <= a:
        return 0.0
    rho = _rho(path)
    return adaptive_gauss_legendre(
        lambda u: (r - u) * (r + u) / (2.0 * r) * rho(u), a, b, tol=tol)


_SU2 = lie.build_su(2)


@st.composite
def line_paths(draw):
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3,
                                       max_size=3)))
        norm = np.linalg.norm(coeff)
        if norm < 0.1:
            coeff, norm = np.array([1.0, 0.0, 0.0]), 1.0
        coeff *= draw(st.floats(0.5, 1.5)) / norm
        window = draw(st.sampled_from([entropy.GaussianWindow,
                                       entropy.PolyBump]))
        profile = window(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 1.0)),
                         draw(st.floats(-1.2, 1.2)))
        factors.append((np.einsum("i,iab->ab", coeff, _SU2.basis), profile))
    return entropy.LinePath(_SU2, factors, level=draw(st.integers(1, 2)))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(path=line_paths(), data=st.data())
def test_functionals_match_oracle(path, data):
    lo, hi = path.support()
    e_tot = entropy.total_energy(path)
    assert abs(e_tot - oracle_total_energy(path)) <= AGREE
    edges = path._partitions[entropy._QUAD_TOL].edges
    ts = [lo - 0.7, lo, hi, hi + 0.3,
          *data.draw(st.lists(st.sampled_from(list(edges)), min_size=2,
                              max_size=2), label="panel edges"),
          *data.draw(st.lists(st.floats(lo, hi), min_size=3, max_size=3),
                     label="inside")]
    for t in ts:
        assert abs(entropy.entropy_right(path, t) - oracle_right(path, t)) <= AGREE
        assert abs(entropy.entropy_left(path, t) - oracle_left(path, t)) <= AGREE
    r = data.draw(st.floats(0.2, 6.0), label="r")
    assert abs(entropy.entropy_interval(path, r)
               - oracle_interval(path, r)) <= AGREE


def test_outside_support_exact_zeros(su2):
    x = np.sqrt(2.0) * su2.basis[0]
    path = entropy.LinePath(su2, [(x, entropy.PolyBump(0.5, 1.5, 0.9))])
    lo, hi = path.support()
    assert entropy.entropy_right(path, hi) == 0.0
    assert entropy.entropy_right(path, hi + 2.0) == 0.0
    assert entropy.entropy_left(path, lo) == 0.0
    assert entropy.entropy_left(path, lo - 2.0) == 0.0
    prof = entropy.qnec_profile(path, np.linspace(-3.0, 3.0, 13))
    past = prof.grid >= hi
    before = prof.grid <= lo
    assert past.any() and before.any()
    for arr in (prof.S[past], prof.S_prime[past], prof.S_bar[before]):
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in arr)


def test_exact_zeros_build_no_partition(su2):
    """S right of the support and S_bar left of it are set, not integrated."""
    x = np.sqrt(2.0) * su2.basis[0]
    path = entropy.LinePath(su2, [(x, entropy.PolyBump(0.5, 1.5, 0.9))])
    lo, hi = path.support()
    assert entropy.entropy_right(path, hi + 2.0) == 0.0
    assert entropy.entropy_left(path, lo - 2.0) == 0.0
    assert not path._partitions
    assert entropy.entropy_left(path, hi + 2.0) > 0.0
    assert list(path._partitions) == [entropy._QUAD_TOL]


def test_qnec_profile_matches_oracle_on_dense_grid(su2):
    x = np.sqrt(2.0) * su2.basis[0]
    y = np.sqrt(2.0) * su2.basis[1]
    path = entropy.LinePath(su2, [(x, entropy.GaussianWindow(-0.8, 0.7, 0.8)),
                                  (y, entropy.PolyBump(1.0, 1.2, -1.1))])
    grid = np.linspace(-4.0, 4.0, 81)
    prof = entropy.qnec_profile(path, grid)
    for i, t in enumerate(grid):
        assert abs(prof.S[i] - oracle_right(path, t)) <= AGREE
        assert abs(prof.S_bar[i] - oracle_left(path, t)) <= AGREE
        assert abs(prof.S_prime[i] - oracle_s_prime(path, t)) <= AGREE
    assert abs(prof.total_energy - oracle_total_energy(path)) <= AGREE


def test_partition_is_cached_per_tolerance(su2):
    x = np.sqrt(2.0) * su2.basis[0]
    path = entropy.LinePath(su2, [(x, entropy.GaussianWindow(0.0, 1.0, 0.8))])
    calls = []
    square = path.current_square
    path.current_square = lambda us: calls.append(len(us)) or square(us)
    entropy.total_energy(path)
    built = len(calls)
    for r in (0.5, 1.0, 5.0):
        entropy.bekenstein_check(path, r)
    # every later call only integrates partial panels: one batch per query
    assert len(calls) == built + 3
    entropy.total_energy(path, tol=1e-12)
    assert set(path._partitions) == {entropy._QUAD_TOL, 1e-12}


def test_partition_raises_at_depth_limit():
    step = lambda u: (u > 1.0 / 3.0).astype(float)
    with pytest.raises(AccuracyError) as err:
        panel_partition(step, 0.0, 1.0, tol=1e-10)
    assert err.value.estimate == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_partial_panel_raises_at_depth_limit():
    # the partition of a constant is one panel; a partial panel that sees a
    # step is never accepted unchecked
    part = panel_partition(lambda u: np.ones_like(u), 0.0, 1.0, tol=1e-10)
    assert len(part.edges) == 2
    np.testing.assert_allclose(part.tail_moments(lambda u: np.ones_like(u), 0.25),
                               [[0.75, 0.5 - 0.25 ** 2 / 2, (1 - 0.25 ** 3) / 3]])
    step = lambda u: (u > 0.6).astype(float)
    with pytest.raises(AccuracyError):
        part.tail_moments(step, [0.25])


def test_tolerance_below_rounding_raises_in_bounded_time_and_memory():
    """Below double precision every panel fails its 10/21 estimate by
    rounding alone, and bisection used to double the panels until memory ran
    out (3.75M in one level under a 2 GB cap).  The one-Gaussian su2 path
    converges with 10 panels at tol 1e-13 and raises AccuracyError at 1e-14
    within a second and a few MB."""
    su2 = lie.build_su(2)
    path = entropy.LinePath(su2, [(np.sqrt(2.0) * su2.basis[0],
                                   entropy.GaussianWindow(0.0, 1.0, 0.8))])
    assert len(entropy._partition(path, 1e-13).depth) == 10
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(AccuracyError) as err:
            entropy.total_energy(path, tol=1e-14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 5 * 2**20
    assert "rounding floor" in str(err.value)
    assert err.value.estimate == pytest.approx(
        2 * math.pi * entropy.total_energy(path, 1e-13), rel=1e-12)


def test_level_below_floor_counted_against_limit(monkeypatch):
    """The limit counts a level's failing panels below their floor: with it
    at 0 the first such panel raises, and the 1e-13 partition, whose
    failing panels all sit above their floor, still converges."""
    su2 = lie.build_su(2)
    path = entropy.LinePath(su2, [(np.sqrt(2.0) * su2.basis[0],
                                   entropy.GaussianWindow(0.0, 1.0, 0.8))])
    monkeypatch.setattr(quadrature, "FLOOR_PANELS", 0)
    assert len(entropy._partition(path, 1e-13).depth) == 10
    with pytest.raises(AccuracyError):
        entropy.total_energy(path, tol=1e-14)


def test_qnec_profile_memory_bounded_by_chunks():
    """qnec_profile on MAX_GRID_POINTS points queries 300,000 partial
    panels in one level; their rule sums are formed chunk by chunk, so no
    (panels, 31) array of nodes or values exists.  Measured: 162 MiB traced
    peak when the level's nodes and values were held whole, 70 MiB now."""
    su2 = lie.build_su(2)
    path = entropy.LinePath(su2, [(np.sqrt(2.0) * su2.basis[0],
                                   entropy.GaussianWindow(0.0, 1.0, 0.8))])
    lo, hi = path.support()
    entropy.total_energy(path)
    tracemalloc.start()
    try:
        prof = entropy.qnec_profile(path, np.linspace(lo - 1.0, hi + 1.0,
                                                      100_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prof.S) == 100_000
    assert peak < 100 * 2**20


# ---------------------------------------------------------------------------
# Regression: the su3x3 path that the entropy_profiles benchmark generates
# from seed 1, whose S(-3.95) the per-point routine at 1e-10 got 9e-9 wrong,
# enough for the 1e-2 finite-difference stencil to fail its 1e-4 check
# ---------------------------------------------------------------------------

_SU3X3_SEED1 = [
    ("gaussian", (-0.0886738388157023, -0.23707719083544404, -0.077981524495598,
                  0.002468735635301271, -0.08356369795195107, 0.3923643605986634,
                  0.30524208920699764, -0.822033288237229),
     -1.8550420118452933, 0.9311840283321151, 0.5830673612136112),
    ("bump", (0.06445071012777868, 0.06556055169014101, 0.6388985985841084,
              -0.33546864943615823, -0.1139139178071969, 0.6162527313004985,
              0.19509400183941045, 0.2000295151712035),
     0.005717852652004335, 1.5459335882885403, -0.6187048737449626),
    ("gaussian", (0.06398371056585804, -0.720370551829485, -0.4010066758509736,
                  -0.04228464452513783, -0.5545036941050954, -0.05767765713606818,
                  0.056041916376516926, 0.02088665361869087),
     1.8295844071569913, 0.9229440078678915, 0.7049860718009772),
]


def _su3x3_seed1():
    su3 = lie.build_su(3)
    windows = {"gaussian": entropy.GaussianWindow, "bump": entropy.PolyBump}
    return entropy.LinePath(su3, [
        (math.sqrt(2.0) * np.einsum("i,iab->ab", np.array(coeff), su3.basis),
         windows[kind](center, width, amplitude))
        for kind, coeff, center, width, amplitude in _SU3X3_SEED1])


def test_seed1_su3_path_regression():
    path = _su3x3_seed1()
    for t in (-3.96, -3.95, -3.94):
        assert abs(entropy.entropy_right(path, t) - oracle_right(path, t)) <= AGREE
    prof = entropy.qnec_profile(path, np.linspace(-4.0, 4.0, 161),
                                fd_tolerance=1e-4)
    assert len(prof.grid) == 161


# ---------------------------------------------------------------------------
# The Ad-invariant integrand against the product rule
# ---------------------------------------------------------------------------

INTEGRAND_AGREE = 1e-14   # relative to the peak |<m, m>| on the sample grid


def _assert_integrands_agree(path, us):
    slow = product_rule_current_square(path, us)
    fast = path.current_square(us)
    assert fast.shape == slow.shape == (len(us),)
    assert np.abs(fast - slow).max() <= INTEGRAND_AGREE * np.abs(slow).max()


def _sample_grid(path):
    lo, hi = path.support()
    # points on both sides of the support, where the profiles are constant
    return np.linspace(lo - 1.5, hi + 1.5, 301)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("n_factors", range(7))
def test_integrand_matches_product_rule(n, n_factors):
    algebra = lie.build_su(n)
    rng = np.random.default_rng(100 * n + n_factors)
    factors = []
    for j in range(n_factors):
        x = random_antihermitian(algebra, rng, scale=rng.uniform(0.5, 1.6))
        window = (entropy.GaussianWindow, entropy.PolyBump)[j % 2]
        profile = window(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5),
                         rng.uniform(-1.4, 1.4))
        factors.append((x, profile))
    path = entropy.LinePath(algebra, factors)
    _assert_integrands_agree(path, _sample_grid(path))


def test_integrand_matches_product_rule_degenerate_generator(su3):
    # diag(i, i, -2i) has a two-dimensional eigenspace: any eigenbasis works
    degenerate = np.diag([1j, 1j, -2j])
    rng = np.random.default_rng(5)
    others = [random_antihermitian(su3, rng) for _ in range(3)]
    path = entropy.LinePath(su3, [
        (others[0], entropy.GaussianWindow(-0.9, 0.8, 1.1)),
        (degenerate, entropy.PolyBump(-0.2, 1.3, -0.8)),
        (others[1], entropy.GaussianWindow(0.4, 0.6, 0.7)),
        (degenerate, entropy.GaussianWindow(0.9, 1.0, 0.9)),
        (others[2], entropy.PolyBump(1.2, 0.9, -1.2))])
    _assert_integrands_agree(path, _sample_grid(path))


def test_integrand_matches_product_rule_on_cocycle_path(su2, su3):
    # the cocycle path repeats the base's last generator in adjacent factors
    # and carries TransformedProfiles with sign -1
    for algebra in (su2, su3):
        rng = np.random.default_rng(algebra.n)
        x, y, z = (random_antihermitian(algebra, rng) for _ in range(3))
        base = entropy.LinePath(algebra, [
            (x, entropy.PolyBump(1.5, 1.0, 0.9)),
            (y, entropy.PolyBump(2.5, 1.2, -0.6)),
            (z, entropy.PolyBump(3.5, 1.4, 0.7))])
        for t in (-0.2, 0.3):
            path = entropy.connes_cocycle_path(base, t).result
            xs = [xm for xm, _ in path.factors]
            assert np.array_equal(xs[2], xs[3])
            _assert_integrands_agree(path, _sample_grid(path))


def test_integrand_matches_product_rule_negative_rate(su3):
    rng = np.random.default_rng(9)
    xs = [random_antihermitian(su3, rng) for _ in range(4)]
    flipped = entropy.TransformedProfile(entropy.GaussianWindow(0.5, 0.8, 1.0),
                                         rate=-1.7, sign=1.0)
    assert flipped.support()[0] < flipped.support()[1]
    path = entropy.LinePath(su3, [
        (xs[0], entropy.PolyBump(0.3, 1.1, 0.8)),
        (xs[1], flipped),
        (xs[2], entropy.TransformedProfile(entropy.PolyBump(-0.4, 1.0, -0.9),
                                           rate=-0.6, sign=-1.0)),
        (xs[3], entropy.GaussianWindow(-0.3, 0.7, 0.6))])
    _assert_integrands_agree(path, _sample_grid(path))


class _CountingProfile:
    """Profile wrapper that logs its index each time its value is read."""

    def __init__(self, base, index, log):
        self.base, self.index, self.log = base, index, log

    def derivative(self, u):
        return self.base.derivative(u)

    def value(self, u):
        self.log.append(self.index)
        return self.base.value(u)

    def support(self):
        return self.base.support()


@pytest.mark.parametrize("n_factors", range(7))
def test_integrand_forms_no_exponential(su3, monkeypatch, n_factors):
    exps = []

    def counted(*args):
        exps.append(1)
        return original(*args)

    original = lie.exp_profile
    monkeypatch.setattr(lie, "exp_profile", counted)
    monkeypatch.setattr(loops, "exp_profile", counted)
    rng = np.random.default_rng(n_factors)
    reads = []
    path = entropy.LinePath(su3, [
        (random_antihermitian(su3, rng),
         _CountingProfile(entropy.GaussianWindow(rng.uniform(-1.0, 1.0)), j,
                          reads))
        for j in range(n_factors)])
    path.current_square(np.linspace(-3.0, 3.0, 41))
    assert exps == []
    # f_k is read for the interior factors 2 ... L-1 only, once each
    assert reads == list(range(n_factors - 2, 0, -1))
    # the oracle does use the exponentials, so the wrapper is live
    if n_factors >= 2:
        product_rule_current_square(path, np.linspace(-3.0, 3.0, 41))
        assert exps


# ---------------------------------------------------------------------------
# The partition's moment rule and its cut points
# ---------------------------------------------------------------------------

def oracle_panel_moments(f, lo, hi, scale):
    """The moment rule with per-point power arrays: 21-point moments
    integral u^p f (p = 0, 1, 2) on each panel, shape (k, 3), each panel's
    10/21 error estimate, shape (k,), and its rounding floor, eps times the
    same sum over absolute terms, shape (k,)."""
    nodes = np.concatenate([_NODES_LO, _NODES_HI])
    powers = np.arange(3)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    offsets = half[:, None] * nodes
    points = (mid[:, None] + offsets).ravel()
    vals = np.empty(len(points))
    for start in range(0, len(points), quadrature.CHUNK):
        vals[start:start + quadrature.CHUNK] = f(
            points[start:start + quadrature.CHUNK])
    vals = vals.reshape(offsets.shape)
    local = (offsets / scale)[..., None] ** powers * vals[..., None]
    lo_est = np.einsum("n,knp->kp", _WEIGHTS_LO, local[:, :10])
    hi_est = np.einsum("n,knp->kp", _WEIGHTS_HI, local[:, 10:])
    err = scale * half * np.abs(hi_est - lo_est).sum(axis=1)
    floor = np.finfo(float).eps * scale * half * (
        np.einsum("n,knp->k", np.abs(_WEIGHTS_LO), np.abs(local[:, :10]))
        + np.einsum("n,knp->k", np.abs(_WEIGHTS_HI), np.abs(local[:, 10:])))
    u = mid[:, None] + offsets[:, 10:]
    moments = half[:, None] * np.einsum(
        "n,knp->kp", _WEIGHTS_HI, u[..., None] ** powers * vals[:, 10:, None])
    return moments, err, floor


MOMENT_AGREE = 1e-14


def _assert_moments_agree(fast, slow, lo, hi):
    """Per panel |fast_p - slow_p| <= 1e-14 m0 max(|lo|, |hi|)^p, which
    bounds |integral u^p f| for the nonnegative integrands used here."""
    reach = np.maximum(np.abs(lo), np.abs(hi))[:, None] ** np.arange(3)
    assert np.all(np.abs(fast - slow) <= MOMENT_AGREE * slow[:, :1] * reach)


def _path(algebra, windows, level=1, seed=0):
    rng = np.random.default_rng(seed)
    return entropy.LinePath(algebra, [(random_antihermitian(algebra, rng), w)
                                      for w in windows], level=level)


def _counted_rho(path, calls):
    rho = entropy._density_integrand(path)
    return lambda us: calls.append(len(us)) or rho(us)


def _unseeded_paths():
    su2 = lie.build_su(2)
    x = np.sqrt(2.0) * su2.basis[0]
    y = np.sqrt(2.0) * su2.basis[1]
    return [
        entropy.LinePath(su2, [(x, entropy.GaussianWindow(0.0, 1.0, 0.8))]),
        entropy.LinePath(su2, [(x, entropy.GaussianWindow(-0.8, 0.7, 0.8)),
                               (y, entropy.PolyBump(1.0, 1.2, -1.1))]),
        _path(su2, [entropy.PolyBump(-0.3, 1.0, 1.2),
                    entropy.PolyBump(0.6, 0.8, -0.9)], level=2, seed=1),
        _su3x3_seed1(),
    ]


@pytest.mark.parametrize("index", range(4))
def test_panel_moments_match_oracle(index):
    rng = np.random.default_rng(index)
    path = _unseeded_paths()[index]
    lo, hi = path.support()
    a = np.sort(rng.uniform(lo, hi, size=(40, 2)), axis=1)
    rho = entropy._density_integrand(path)
    scale = max(hi - lo, 1.0)
    fast, err, floor = quadrature._panel_moments(rho, a[:, 0], a[:, 1], scale)
    slow, slow_err, slow_floor = oracle_panel_moments(rho, a[:, 0], a[:, 1],
                                                      scale)
    _assert_moments_agree(fast, slow, a[:, 0], a[:, 1])
    # the gaps are differences of nearly equal sums: equal to their rounding
    np.testing.assert_allclose(err, slow_err, rtol=1e-9,
                               atol=1e-15 * scale * slow[:, 0].max())
    # sums of nonnegative terms
    np.testing.assert_allclose(floor, slow_floor, rtol=1e-13)


@pytest.mark.parametrize("index", range(4))
def test_unseeded_partition_matches_oracle_rule(index, monkeypatch):
    """Without cut points the partition is the one the per-point moment rule
    builds: the same edges, depths and budgets tol / 2^depth, bit for bit,
    and the same suffix sums and tail moments to 1e-14."""
    path = _unseeded_paths()[index]
    rho = entropy._density_integrand(path)
    lo, hi = path.support()
    fast = panel_partition(rho, lo, hi)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_panel_moments", oracle_panel_moments)
        slow = panel_partition(rho, lo, hi)
    assert np.array_equal(fast.edges, slow.edges)
    assert np.array_equal(fast.depth, slow.depth)
    assert np.array_equal(fast.budget, slow.budget)
    assert np.array_equal(fast.budget, 1e-10 * np.exp2(-fast.depth))
    # suffix j sums the panels right of edges[j], so it obeys the bound of
    # one panel [edges[j], b]
    _assert_moments_agree(fast.suffix, slow.suffix, fast.edges,
                          np.full(len(fast.edges), hi))
    # and the partial panels of a query bisect alike
    ts = np.linspace(lo - 0.5, hi + 0.5, 23)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_panel_moments", oracle_panel_moments)
        slow_tail = slow.tail_moments(rho, ts)
    reach = np.maximum(np.abs(ts), hi)[:, None] ** np.arange(3)
    assert np.all(np.abs(fast.tail_moments(rho, ts) - slow_tail)
                  <= MOMENT_AGREE * fast.totals[0] * reach)


def test_single_bump_partition_is_one_call(su2):
    path = _path(su2, [entropy.PolyBump(0.4, 1.3, -1.1)])
    calls = []
    square = path.current_square
    path.current_square = lambda us: calls.append(len(us)) or square(us)
    e_tot = entropy.total_energy(path)
    part = path._partitions[entropy._QUAD_TOL]
    assert calls == [31]
    assert np.array_equal(part.edges, path.support())
    assert abs(e_tot - oracle_total_energy(path)) <= AGREE


def test_two_bump_cut_points_save_calls(su2):
    """Two PolyBumps with offset supports: rho is a polynomial between the
    four edges, so the seeded partition takes each piece at once, while the
    unseeded one bisects toward the inner edges."""
    path = _path(su2, [entropy.PolyBump(-0.3, 1.0, 1.2),
                       entropy.PolyBump(0.6, 0.8, -0.9)], seed=1)
    lo, hi = path.support()
    cuts = [x for _, p in path.factors for x in p.support()]
    seeded_calls, plain_calls = [], []
    seeded = panel_partition(_counted_rho(path, seeded_calls), lo, hi,
                             points=cuts)
    plain = panel_partition(_counted_rho(path, plain_calls), lo, hi)
    assert len(seeded_calls) == 1 and len(seeded.depth) == 3
    assert len(plain_calls) > len(seeded_calls)
    assert abs(seeded.budget.sum() - 1e-10) <= 1e-25
    rho = entropy._density_integrand(path)
    e_ref = oracle_total_energy(path)
    ts = np.linspace(lo - 0.2, hi + 0.2, 9)
    for part in (seeded, plain):
        assert abs(part.totals[0] / (2 * math.pi) - e_ref) <= AGREE
        m0, m1, _ = part.tail_moments(rho, ts).T
        for t, s in zip(ts, m1 - ts * m0):
            assert abs(s - oracle_right(path, t)) <= AGREE
    # the path's own partition is the seeded one
    entropy.total_energy(path)
    assert np.array_equal(path._partitions[entropy._QUAD_TOL].edges,
                          seeded.edges)


def test_query_at_support_edge_reads_suffix_sums(su3):
    path = _path(su3, [entropy.GaussianWindow(-0.6, 0.3, 0.9),
                       entropy.PolyBump(0.2, 0.9, -1.0),
                       entropy.PolyBump(0.9, 0.7, 0.8)], seed=2)
    entropy.total_energy(path)
    part = path._partitions[entropy._QUAD_TOL]
    edges = sorted({x for _, p in path.factors for x in p.support()})
    assert set(edges) <= set(part.edges)
    calls = []
    moments = part.tail_moments(_counted_rho(path, calls), edges)
    assert calls == []
    np.testing.assert_array_equal(
        moments, part.suffix[np.searchsorted(part.edges, edges)])
    for t in edges:
        assert abs(entropy.entropy_right(path, t) - oracle_right(path, t)) <= AGREE


@pytest.mark.parametrize("gap", [1e-13, -1e-13])
def test_nearly_equal_edges(su2, gap):
    """Edges 1e-13 apart make a seed piece of that length; it is accepted
    like any other panel."""
    path = _path(su2, [entropy.PolyBump(0.0, 1.5, 0.9),
                       entropy.PolyBump(0.1 + gap, 1.4, -1.1),
                       entropy.GaussianWindow(0.2, 0.7, 0.7)], seed=3)
    supports = [p.support() for _, p in path.factors]
    assert 0.0 < abs(supports[1][1] - supports[0][1]) < 2e-13
    prof = entropy.qnec_profile(path, np.linspace(-2.0, 2.0, 41))
    part = path._partitions[entropy._QUAD_TOL]
    assert np.all(part.budget > 0) and np.all(np.diff(part.edges) > 0)
    assert abs(prof.total_energy - oracle_total_energy(path)) <= AGREE
    for r in (0.5, 1.5 + gap, 2.0):
        assert abs(entropy.entropy_interval(path, r)
                   - oracle_interval(path, r)) <= AGREE
