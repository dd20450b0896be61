import math

import numpy as np
import pytest
from scipy.special import erf, erfc

from loopnet import entropy, lie, loops, quadrature
from loopnet.errors import NotSplittableError, NumericError, VerificationError

from conftest import random_antihermitian, random_line_path


def normalized_generator(su2, i=0):
    # tr(X^2) = -2, the highest-root normalization
    return np.sqrt(2.0) * su2.basis[i]


def gaussian_path(su2, center=0.0, width=1.0, amplitude=0.8, level=1):
    x = normalized_generator(su2)
    return entropy.LinePath(
        su2, [(x, entropy.GaussianWindow(center, width, amplitude))],
        level=level)


def entropy_right_oracle(t, center, width, amplitude, level=1):
    """Symbolic error-function value of the right entropy of a single
    Gaussian-window factor with tr(X^2) = -2."""
    beta = 2.0 / width ** 2
    tau = t - center
    return level * amplitude ** 2 * (
        math.exp(-beta * tau * tau) / (2 * beta)
        - tau * math.sqrt(math.pi) / (2 * math.sqrt(beta)) * erfc(
            math.sqrt(beta) * tau))


def interval_oracle(r, width, amplitude, level=1):
    """Closed form of the interval entropy for a centered Gaussian factor."""
    beta = 2.0 / width ** 2
    sb = math.sqrt(beta)
    i0 = math.sqrt(math.pi / beta) * erf(sb * r)              # int e^{-bu^2}
    i2 = (i0 - 2 * r * math.exp(-beta * r * r)) / (2 * beta)  # int u^2 e^{-bu^2}
    return level * amplitude ** 2 * (r * r * i0 - i2) / (2 * r)


def test_energy_density_examples(su2):
    path = entropy.LinePath(su2, [], level=1)
    assert entropy.energy_density(path, 0.3) == 0.0
    g = gaussian_path(su2, amplitude=0.9)
    us = np.linspace(-3, 3, 41)
    fp = 0.9 * np.exp(-us ** 2)
    assert np.abs(entropy.energy_density(g, us)
                  - fp ** 2 / (2 * math.pi)).max() < 1e-14
    assert np.all(entropy.energy_density(g, us) >= 0)


def test_line_path_without_factors_is_identity(su2):
    us = np.linspace(-2.0, 2.0, 7)
    vals = entropy.LinePath(su2, []).evaluate(us)
    assert np.array_equal(vals, np.broadcast_to(np.eye(2), (7, 2, 2)))


def test_energy_density_conjugation_invariance(su2):
    rng = np.random.default_rng(0)
    g = lie.group_exp(su2.element(
        np.einsum("i,iab->ab", rng.normal(size=3), su2.basis)))
    x = normalized_generator(su2)
    w = entropy.GaussianWindow(0.2, 0.7, 1.1)
    p1 = entropy.LinePath(su2, [(x, w)])
    p2 = entropy.LinePath(su2, [(g @ x @ g.conj().T, w)])
    us = np.linspace(-2, 2, 21)
    assert np.abs(entropy.energy_density(p1, us)
                  - entropy.energy_density(p2, us)).max() < 1e-13


def test_total_energy_gaussian(su2):
    a = 0.8
    path = gaussian_path(su2, amplitude=a)
    want = a * a * math.sqrt(math.pi / 2) / (2 * math.pi)
    assert entropy.total_energy(path) == pytest.approx(want, abs=1e-10)
    assert entropy.total_energy(entropy.LinePath(su2, [])) == 0.0


def test_total_energy_additive_disjoint(su2):
    x = normalized_generator(su2, 0)
    y = normalized_generator(su2, 1)
    f1 = entropy.PolyBump(-3.0, 1.0, 0.9)
    f2 = entropy.PolyBump(3.0, 1.0, -0.7)
    both = entropy.LinePath(su2, [(x, f1), (y, f2)])
    single1 = entropy.LinePath(su2, [(x, f1)])
    single2 = entropy.LinePath(su2, [(y, f2)])
    assert entropy.total_energy(both) == pytest.approx(
        entropy.total_energy(single1) + entropy.total_energy(single2),
        abs=1e-10)


def test_entropy_right_oracle(su2):
    c, w, a = 0.3, 1.2, 0.8
    path = gaussian_path(su2, c, w, a)
    for t in np.linspace(-4, 4, 33):
        got = entropy.entropy_right(path, float(t))
        assert got == pytest.approx(entropy_right_oracle(t, c, w, a), abs=1e-8)
    assert entropy.entropy_right(path, 50.0) == 0.0


def test_entropy_right_quadratic_scaling(su2):
    p1 = gaussian_path(su2, amplitude=0.5)
    p2 = gaussian_path(su2, amplitude=1.0)
    for t in (-1.0, 0.0, 0.8):
        assert entropy.entropy_right(p2, t) == pytest.approx(
            4.0 * entropy.entropy_right(p1, t), rel=1e-10)


def test_entropy_left(su2):
    path = gaussian_path(su2)
    assert entropy.entropy_left(path, -50.0) == 0.0
    # mirror symmetry
    refl = entropy.LinePath(
        su2, [(normalized_generator(su2),
               entropy.TransformedProfile(entropy.GaussianWindow(0.0, 1.0, 0.8),
                                          rate=-1.0))])
    for t in (-1.0, 0.2, 1.7):
        assert entropy.entropy_left(refl, t) == pytest.approx(
            entropy.entropy_right(path, -t), abs=1e-10)


def test_sum_rule_derivative(su2):
    # S'(t) - S_bar'(t) = -2 pi E on a t-grid, via central differences
    path = gaussian_path(su2, 0.1, 0.9, 1.1)
    e_tot = entropy.total_energy(path)
    d = 1e-4
    for t in np.linspace(-2, 2, 9):
        sp = (entropy.entropy_right(path, t + d)
              - entropy.entropy_right(path, t - d)) / (2 * d)
        sbp = (entropy.entropy_left(path, t + d)
               - entropy.entropy_left(path, t - d)) / (2 * d)
        assert sp - sbp == pytest.approx(-2 * math.pi * e_tot, abs=1e-6)


def test_entropy_interval(su2):
    w, a = 1.0, 0.8
    path = gaussian_path(su2, 0.0, w, a)
    for r in (0.5, 2.0, 4.0):
        assert entropy.entropy_interval(path, r) == pytest.approx(
            interval_oracle(r, w, a), abs=1e-8)
    far = gaussian_path(su2, center=30.0)
    assert entropy.entropy_interval(far, 1.0) == 0.0
    with pytest.raises(NumericError, match="radius must be positive"):
        entropy.entropy_interval(path, 0.0)


def test_bekenstein(su2):
    empty = entropy.LinePath(su2, [])
    rep = entropy.bekenstein_check(empty, 1.0)
    assert rep.holds and rep.interval_entropy == 0.0
    rng = np.random.default_rng(1)
    for _ in range(30):
        path = random_line_path(su2, rng)
        for r in (0.5, 1.0, 5.0):
            assert entropy.bekenstein_check(path, r).holds


def test_bekenstein_reports_batch_the_radii(su2):
    # a fresh path per route, so neither reads the other's cached partition;
    # radius 40 holds the whole support and 0.05 may miss it
    radii = [0.05, 0.5, 1.0, 5.0, 40.0]
    rng = np.random.default_rng(9)
    seeds = rng.integers(0, 2**32, size=8)
    for seed in seeds:
        per_radius = random_line_path(su2, np.random.default_rng(seed))
        want = [entropy.bekenstein_check(per_radius, r) for r in radii]
        batched = random_line_path(su2, np.random.default_rng(seed))
        got = entropy.bekenstein_checks(batched, radii)
        # bit for bit: repr tells every float apart, -0.0 from 0.0 too
        assert list(map(repr, got)) == list(map(repr, want))
    far = gaussian_path(su2, center=30.0)
    reports = entropy.bekenstein_checks(far, radii[:-1])
    assert [rep.interval_entropy for rep in reports] == [0.0] * 4
    with pytest.raises(NumericError, match="got -1"):
        entropy.bekenstein_checks(far, [1.0, -1.0])


def test_bekenstein_reports_make_one_query(su2):
    path = gaussian_path(su2)
    calls = []
    square = path.current_square
    path.current_square = lambda us: calls.append(len(us)) or square(us)
    entropy.total_energy(path)
    built = len(calls)
    entropy.bekenstein_checks(path, [0.5, 1.0, 5.0])
    assert len(calls) == built + 1


def test_bekenstein_tightness_trend(su2):
    # concentrating the excitation at the origin saturates the bound
    r = 1.0
    ratios = [entropy.bekenstein_check(gaussian_path(su2, 0.0, w, 1.0), r).ratio
              for w in (0.8, 0.4, 0.2, 0.1)]
    assert all(x < 1.0 for x in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_qnec_profile_invariants(su2):
    path = gaussian_path(su2, 0.2, 1.1, 0.9)
    grid = np.linspace(-4, 4, 81)
    prof = entropy.qnec_profile(path, grid)
    assert np.all(prof.S >= -1e-8)
    assert np.all(np.diff(prof.S) <= 1e-8)
    assert np.all(np.diff(prof.S_bar) >= -1e-8)
    assert np.all(prof.s_dd_analytic >= -1e-12)
    assert np.abs(prof.s_dd_analytic
                  - 2 * math.pi * prof.density).max() < 1e-12
    # second differences of the sampled S are nonnegative up to tolerance
    d2 = np.diff(prof.S, 2)
    assert d2.min() >= -1e-8
    scale = np.abs(prof.s_dd_analytic).max()
    assert np.abs(prof.s_dd_fd - prof.s_dd_analytic).max() / scale < 1e-4


def test_qnec_profile_zero_path(su2):
    path = entropy.LinePath(su2, [(normalized_generator(su2),
                                   entropy.GaussianWindow(0.0, 1.0, 0.0))])
    prof = entropy.qnec_profile(path, np.linspace(-1, 1, 11))
    for arr in (prof.S, prof.S_bar, prof.S_prime, prof.s_dd_analytic,
                prof.density):
        assert np.abs(arr).max() == 0.0
    assert prof.total_energy == 0.0


def test_level_grid_and_radius_refusals_are_numeric(su2):
    for level in (0, -1):
        with pytest.raises(NumericError, match="positive integer"):
            entropy.LinePath(su2, [], level=level)
    path = gaussian_path(su2)
    with pytest.raises(NumericError, match="radius must be positive"):
        entropy.bekenstein_check(path, -0.5)
    for grid in ([0.0, 1.0], np.zeros((3, 3))):
        with pytest.raises(NumericError, match="at least 3 points"):
            entropy.qnec_profile(path, grid)
    for grid in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
        with pytest.raises(NumericError, match="strictly increasing"):
            entropy.qnec_profile(path, grid)
    grid = np.linspace(-3, 3, 31)
    for name in ("fd_tolerance", "fd_spacing", "tol"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NumericError, match=f"{name} must be finite and > 0"):
                entropy.qnec_profile(path, grid, **{name: bad})
    for bad in (0.0, -1.0):
        with pytest.raises(NumericError, match="tol must be finite and > 0"):
            quadrature.panel_partition(_never_called, -3.0, 3.0, tol=bad)


def _never_called(u):
    raise AssertionError("the integrand was called before the arguments were checked")


def _grid_with(bad, at):
    grid = np.linspace(-3, 3, 31)
    grid[at] = bad
    return grid


# each entry point with its message; a bad radius at the end of a list, and a
# bad grid point in the middle of a grid and at its end, where it would pass
# the ordering check
_NON_FINITE_REFUSALS = {
    "bekenstein_checks": (lambda path, bad: entropy.bekenstein_checks(path, [1.0, bad]),
                          "radius must be positive and finite"),
    "bekenstein_check": (entropy.bekenstein_check, "radius must be positive and finite"),
    "entropy_interval": (entropy.entropy_interval, "radius must be positive and finite"),
    "entropy_right": (entropy.entropy_right, "entropy point must be finite"),
    "entropy_left": (entropy.entropy_left, "entropy point must be finite"),
    "qnec_profile-middle": (lambda path, bad: entropy.qnec_profile(path, _grid_with(bad, 15)),
                            "grid must be finite"),
    "qnec_profile-end": (lambda path, bad: entropy.qnec_profile(path, _grid_with(bad, -1)),
                         "grid must be finite"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", list(_NON_FINITE_REFUSALS))
def test_non_finite_points_are_refused_before_any_integrand_call(su2, monkeypatch,
                                                                 entry, bad):
    call, message = _NON_FINITE_REFUSALS[entry]
    path = gaussian_path(su2)
    monkeypatch.setattr(path, "rho", _never_called)
    with pytest.raises(NumericError, match=message):
        call(path, bad)


def test_qnec_profile_fd_verification_error(su2):
    path = gaussian_path(su2)
    with pytest.raises(VerificationError) as err:
        entropy.qnec_profile(path, np.linspace(-3, 3, 31), fd_tolerance=1e-12)
    assert err.value.residual > 1e-12


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("window", [entropy.GaussianWindow, entropy.PolyBump])
def test_non_finite_window_raises(su2, window, width):
    """A non-finite width is refused when the window is built; a profile
    whose support overflows (a subnormal rate) still meets the quadrature's
    bounds check."""
    with pytest.raises(NumericError, match="width must be finite"):
        window(0.0, width, 0.8)
    stretched = entropy.TransformedProfile(window(0.0, 1.0, 0.8), rate=1e-310)
    assert not all(map(math.isfinite, stretched.support()))
    path = entropy.LinePath(su2, [(normalized_generator(su2), stretched)])
    with pytest.raises(NumericError, match="bounds must be finite"):
        entropy.total_energy(path)
    with pytest.raises(NumericError, match="bounds must be finite"):
        entropy.entropy_interval(path, 1.0)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="bounds must be finite"):
        entropy.qnec_profile(path, np.linspace(-3, 3, 31))
    with pytest.raises(NumericError, match="tol must be finite and > 0"):
        quadrature.panel_partition(_never_called, -3.0, 3.0, tol=width)


def _bump_power_forms(bump, u):
    """PolyBump's derivative and value by float powers, the forms that its
    product and Horner evaluations replaced."""
    s = (u - bump.center) / bump.width
    derivative = bump.amplitude * np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 4, 0.0)
    s = np.clip(s, -1.0, 1.0)
    poly = (s - 4 * s**3 / 3 + 6 * s**5 / 5 - 4 * s**7 / 7 + s**9 / 9)
    at_lo = -(1 - 4 / 3 + 6 / 5 - 4 / 7 + 1 / 9)
    return derivative, bump.amplitude * bump.width * (poly - at_lo)


@pytest.mark.parametrize("center, width, amplitude",
                         [(0.0, 1.0, 1.0), (1.0, 1.4, -1.1), (-2.3, 0.3, 0.7),
                          (5.0, 7.0, -2.5), (0.1, 1e-3, 3.0), (-1e3, 50.0, 1e-3)])
def test_poly_bump_matches_its_power_forms(center, width, amplitude):
    """Within 4 eps |amplitude| (derivative) and 4 eps |amplitude| width
    (value) of the power forms, on a dense grid over the support and past
    its ends, the last ulps below and above |s| = 1, where the derivative
    vanishes and the value is clipped, and s = +-0; the derivative is 0 at
    the same points.  The largest gaps seen are 1.9 and 3.3 of those ulps."""
    eps = np.finfo(float).eps
    bump = entropy.PolyBump(center, width, amplitude)
    edge = np.concatenate([1 - np.arange(200) * eps / 2, 1 + np.arange(200) * eps])
    s = np.concatenate([np.linspace(-1.3, 1.3, 200_001), edge, -edge, [0.0, -0.0]])
    u = center + width * s
    want_derivative, want_value = _bump_power_forms(bump, u)
    got_derivative, got_value = bump.derivative(u), bump.value(u)
    assert np.abs(got_derivative - want_derivative).max() <= 4 * eps * abs(amplitude)
    assert np.array_equal(got_derivative == 0, want_derivative == 0)
    assert np.abs(got_value - want_value).max() <= 4 * eps * abs(amplitude) * width


class _Unchecked:
    """A duck-typed profile: a bump times an amplitude that nothing checks."""

    def __init__(self, amplitude):
        self.bump, self.amplitude = entropy.PolyBump(0.3, 1.0), amplitude

    def derivative(self, u):
        return self.amplitude * self.bump.derivative(u)

    def value(self, u):
        return self.amplitude * self.bump.value(u)

    def support(self):
        return self.bump.support()


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_non_finite_integrand_raises(su2, amplitude):
    """A non-finite amplitude is refused when the window is built; a profile
    whose derivative is not finite on its support still meets the
    quadrature's integrand check."""
    with pytest.raises(NumericError, match="amplitude must be finite"):
        entropy.PolyBump(0.3, 1.0, amplitude)
    path = entropy.LinePath(su2, [(normalized_generator(su2),
                                   _Unchecked(amplitude))])
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="integrand is not finite"):
        entropy.total_energy(path)


class _NanBeyond(entropy.PolyBump):
    """A bump whose derivative reads NaN right of u = 2, off its support."""

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 2.0, np.nan, super().derivative(u))


def test_qnec_profile_nan_residual_fails(su2):
    path = entropy.LinePath(su2, [(normalized_generator(su2),
                                   _NanBeyond(0.0, 1.0, 0.8))])
    with np.errstate(invalid="ignore"), \
            pytest.raises(VerificationError) as err:
        entropy.qnec_profile(path, np.linspace(-3, 3, 31))
    assert math.isnan(err.value.residual)


def _shift(which, shift):
    """``entropy._entropies`` with shift(ts) added to its output ``which``
    (0: S, 1: S_bar); a shift linear in t leaves the finite differences of S
    as they were, up to rounding."""
    original = entropy._entropies

    def shifted(path, ts, tol, **kwargs):
        values = list(original(path, ts, tol, **kwargs))
        values[which] = values[which] + shift(np.asarray(ts))
        return tuple(values)
    return shifted


# (output shifted, shift, refusal, sign of the residual it carries)
@pytest.mark.parametrize("which, shift, message, sign", [
    (0, lambda ts: np.full_like(ts, -1.0), "negative entropy", -1),
    (1, lambda ts: np.full_like(ts, -1.0), "negative entropy", -1),
    (0, lambda ts: ts - ts.min(), "S is not nonincreasing", 1),
    (1, lambda ts: ts.max() - ts, "S_bar is not nondecreasing", -1)])
def test_qnec_profile_refuses_broken_invariants(su2, monkeypatch, which,
                                                shift, message, sign):
    monkeypatch.setattr(entropy, "_entropies", _shift(which, shift))
    with pytest.raises(VerificationError, match=message) as err:
        entropy.qnec_profile(gaussian_path(su2), np.linspace(-4, 4, 41))
    assert sign * err.value.residual > 0


def test_qnec_profile_refuses_negative_s_dd(su2, monkeypatch):
    # a dip of depth 1e-6 and width 1e-4 at u = 6, where S'' is below 1e-31:
    # S'' < 0 there, while S moves by less than 1e-9 and the stencil of
    # spacing 1e-2 sees the dip as a relative 1e-6 of the peak
    original = entropy.LinePath.rho

    def dipped(path, us):
        return original(path, us) - 1e-6 * np.exp(-((us - 6.0) / 1e-4) ** 2)

    monkeypatch.setattr(entropy.LinePath, "rho", dipped)
    with pytest.raises(VerificationError, match="S'' went negative") as err:
        entropy.qnec_profile(gaussian_path(su2), np.linspace(-4, 6, 51))
    assert err.value.residual == pytest.approx(-1e-6, rel=1e-6)


def test_sum_rule_random(su2):
    rng = np.random.default_rng(2)
    for _ in range(20):
        path = random_line_path(su2, rng)
        e_tot = entropy.total_energy(path)
        t1, t2 = sorted(rng.uniform(-4, 4, size=2))
        lhs = (entropy.entropy_right(path, t1) - entropy.entropy_right(path, t2)
               + entropy.entropy_left(path, t2) - entropy.entropy_left(path, t1))
        want = (t2 - t1) * 2 * math.pi * e_tot
        assert abs(lhs - want) <= 1e-8 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Path-level cocycle
# ---------------------------------------------------------------------------

def right_supported_path(su2, rng=None):
    x = normalized_generator(su2, 0)
    y = normalized_generator(su2, 1)
    return entropy.LinePath(su2, [(x, entropy.PolyBump(1.5, 1.0, 0.9)),
                                  (y, entropy.PolyBump(3.5, 1.4, -0.6))])


def test_cocycle_path_identity_at_zero(su2):
    path = right_supported_path(su2)
    c0 = entropy.connes_cocycle_path(path, 0.0)
    us = np.linspace(0.0, 8.0, 50)
    assert np.abs(c0.result.evaluate(us) - np.eye(2)).max() < 1e-12


def test_cocycle_path_chain_identity(su2):
    path = right_supported_path(su2)
    for t, s in ((0.13, -0.21), (0.4, 0.15), (-0.3, -0.1)):
        ct = entropy.connes_cocycle_path(path, t)
        cs = entropy.connes_cocycle_path(path, s)
        cts = entropy.connes_cocycle_path(path, t + s)
        us = np.linspace(0.01, 7.0, 64)
        lhs = cts.result.evaluate(us)
        rhs = np.einsum("jab,jbc->jac", ct.result.evaluate(us),
                        cs.result.evaluate(math.exp(2 * math.pi * t) * us))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_cocycle_path_single_factor_profiles(su2):
    x = normalized_generator(su2)
    base = entropy.PolyBump(2.0, 1.0, 0.7)
    path = entropy.LinePath(su2, [(x, base)])
    t = 0.2
    cp = entropy.connes_cocycle_path(path, t)
    assert cp.result.n_factors == 2
    rate = math.exp(2 * math.pi * t)
    us = np.linspace(0.0, 5.0, 33)
    (x1, p1), (x2, p2) = cp.result.factors
    assert np.abs(np.asarray(p1.value(us)) - base.value(us)).max() < 1e-14
    assert np.abs(np.asarray(p2.value(us)) + base.value(rate * us)).max() < 1e-14


def test_cocycle_path_identity_off_support(su2):
    path = right_supported_path(su2)
    cp = entropy.connes_cocycle_path(path, 0.37)
    us = np.linspace(-3.0, 0.0, 20)
    assert np.abs(cp.result.evaluate(us) - np.eye(2)).max() < 1e-12


def test_cocycle_path_rejects_two_sided(su2):
    x = normalized_generator(su2)
    path = entropy.LinePath(su2, [(x, entropy.GaussianWindow(0.0, 1.0, 0.8))])
    with pytest.raises(NotSplittableError):
        entropy.connes_cocycle_path(path, 0.1)


# ---------------------------------------------------------------------------
# Circle <-> line transfer
# ---------------------------------------------------------------------------

def circle_bump(th, c=0.0, w=2.0, a=0.5):
    d = np.angle(np.exp(1j * (np.asarray(th) - c)))
    s = d / w
    return a * np.where(np.abs(s) < 1, (1 - s * s) ** 4, 0.0)


def test_cayley_identity_loop(su2):
    sp = entropy.cayley_transfer(loops.identity_loop(su2, 64))
    assert np.abs(sp.samples - np.eye(2)).max() == 0.0


def test_cayley_round_trip(su2):
    gamma = loops.loop_from_factors(su2, [(su2.basis[0], circle_bump)], 256)
    sp = entropy.cayley_transfer(gamma)
    back = entropy.cayley_inverse(sp, 256)
    assert np.abs(back.samples - gamma.samples).max() < 1e-9


def test_cayley_quarter_point(su2):
    gamma = loops.loop_from_factors(su2, [(su2.basis[0], circle_bump)], 256)
    sp = entropy.cayley_transfer(gamma)
    j = np.argmin(np.abs(sp.us - 1.0))
    assert sp.us[j] == pytest.approx(1.0, abs=1e-12)  # theta = pi/2 -> u = 1


def test_cayley_rejects_nontrivial_infinity(su2):
    gamma = loops.loop_from_factors(su2, [(su2.basis[0],
                                           lambda th: 0.4 * np.sin(th))], 128)
    with pytest.raises(NotSplittableError, match="theta = pi") as err:
        entropy.cayley_transfer(gamma)
    [(value, derivative)] = err.value.residuals.values()
    assert list(err.value.residuals) == [math.pi]
    assert value > 1e-9 and math.isnan(derivative)


def test_cayley_inverse_mismatched_grid_raises(su2):
    gamma = loops.loop_from_factors(su2, [(su2.basis[0], circle_bump)], 256)
    sp = entropy.cayley_transfer(gamma)
    # a count no grid loop may have is refused before any sample is read
    with pytest.raises(NumericError, match="power of two"):
        entropy.cayley_inverse(sp, 200)
    # a finer grid has angles that are not on the transferred one
    with pytest.raises(NumericError) as err:
        entropy.cayley_inverse(sp, 512)
    assert "theta indices [" in str(err.value)
    # a coarser grid whose angles are all on the transferred one still works
    back = entropy.cayley_inverse(sp, 128)
    assert np.abs(back.samples - gamma.samples[::2]).max() < 1e-9


@pytest.mark.parametrize("window", [entropy.GaussianWindow, entropy.PolyBump])
def test_zero_width_window_is_refused(su2, window):
    """A zero width made total_energy 0.0 instead of failing."""
    with pytest.raises(NumericError, match=r"width must be > 0, got 0\.0"):
        entropy.LinePath(su2, [(normalized_generator(su2), window(0.0, 0.0, 0.8))])
    with pytest.raises(NumericError, match="width must be > 0"):
        window(0.0, -1.0, 0.8)


def test_zero_rate_is_refused(su2):
    """TransformedProfile(rate=0) ended in a ZeroDivisionError, and a Connes
    cocycle whose dilation rate e^{2 pi t} underflows to 0 was built
    without complaint."""
    with pytest.raises(NumericError, match="rate must be nonzero"):
        entropy.TransformedProfile(entropy.PolyBump(), rate=0.0)
    path = entropy.LinePath(su2, [(normalized_generator(su2),
                                   entropy.PolyBump(1.5, 1.0, 0.9))])
    with pytest.raises(NumericError, match="rate must be nonzero"):
        entropy.connes_cocycle_path(path, -200.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_profile_fields_are_refused(value):
    """Each field is checked at construction; GaussianWindow(amplitude=inf),
    for one, ended in a numpy RuntimeWarning."""
    for window in (entropy.GaussianWindow, entropy.PolyBump):
        for name in ("center", "width", "amplitude"):
            with pytest.raises(NumericError, match=f"{name} must be finite"):
                window(**{name: value})
    for name in ("rate", "sign"):
        with pytest.raises(NumericError, match=f"{name} must be finite"):
            entropy.TransformedProfile(entropy.GaussianWindow(), **{name: value})


@pytest.mark.parametrize("n_factors", [0, 1, 2, 3, 4])
def test_eigendecompositions_are_made_where_read(su3, eigh_calls, n_factors):
    """A path of one or two factors reads only its Gram matrix, so its
    partition and Bekenstein checks decompose nothing, and ``evaluate``
    decomposes each factor once, on first use; a longer path decomposes
    each factor once, at construction, for its integrand."""
    rng = np.random.default_rng(n_factors)
    path = entropy.LinePath(su3, [
        (random_antihermitian(su3, rng), entropy.GaussianWindow(c, 0.8, 0.9))
        for c in np.linspace(-1.0, 1.0, n_factors)])
    made = n_factors if n_factors >= 3 else 0
    assert len(eigh_calls) == made
    path.partition(quadrature.DEFAULT_TOL)
    for r in (0.5, 1.0, 5.0):
        entropy.bekenstein_check(path, r)
    entropy.qnec_profile(path, np.linspace(-3.0, 3.0, 7))
    assert len(eigh_calls) == made
    for _ in range(2):
        path.evaluate(np.linspace(-2.0, 2.0, 5))
        assert len(eigh_calls) == n_factors


def test_factors_are_fixed_at_construction(su2):
    """The hull, the integrand's constants and the partitions are cached
    for the factors given, so the factors cannot be appended to."""
    path = gaussian_path(su2)
    assert isinstance(path.factors, tuple)
    with pytest.raises(AttributeError):
        path.factors.append((normalized_generator(su2, 1),
                             entropy.PolyBump(3.0, 1.0, 1.0)))
    assert path.n_factors == 1
