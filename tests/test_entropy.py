import math

import numpy as np
import pytest
from scipy.special import erf, erfc

from loopnet import entropy, lie, loops
from loopnet.errors import NotSplittableError, NumericError, VerificationError

from conftest import random_line_path


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
    with pytest.raises(ValueError):
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


def test_qnec_profile_fd_verification_error(su2):
    path = gaussian_path(su2)
    with pytest.raises(VerificationError) as err:
        entropy.qnec_profile(path, np.linspace(-3, 3, 31), fd_tolerance=1e-12)
    assert err.value.residual > 1e-12


@pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("window", [entropy.GaussianWindow, entropy.PolyBump])
def test_non_finite_window_raises(su2, window, width):
    path = entropy.LinePath(su2, [(normalized_generator(su2),
                                   window(0.0, width, 0.8))])
    with pytest.raises(NumericError, match="bounds must be finite"):
        entropy.total_energy(path)
    with pytest.raises(NumericError, match="bounds must be finite"):
        entropy.entropy_interval(path, 1.0)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="bounds must be finite"):
        entropy.qnec_profile(path, np.linspace(-3, 3, 31))


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_non_finite_integrand_raises(su2, amplitude):
    path = entropy.LinePath(su2, [(normalized_generator(su2),
                                   entropy.PolyBump(0.3, 1.0, amplitude))])
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
    with pytest.raises(ValueError):
        entropy.cayley_transfer(gamma)


def test_cayley_inverse_mismatched_grid_raises(su2):
    gamma = loops.loop_from_factors(su2, [(su2.basis[0], circle_bump)], 256)
    sp = entropy.cayley_transfer(gamma)
    with pytest.raises(NumericError) as err:
        entropy.cayley_inverse(sp, 200)
    assert "theta indices [" in str(err.value)
    # a coarser grid whose angles are all on the transferred one still works
    back = entropy.cayley_inverse(sp, 128)
    assert np.abs(back.samples - gamma.samples[::2]).max() < 1e-9
