import math
import time
import warnings

import numpy as np
import pytest

from loopnet import entropy, lie, loops, soliton
from loopnet.errors import (AlgebraMismatchError, CapacityError, ConfigError,
                            LoopnetError, NormDivergedError, NotSplittableError,
                            NumericError, ResolutionError)
from loopnet.loops import FourierLoopElement, ScalarField

from conftest import random_antihermitian


def unit(su2, i):
    return su2.basis[i]


def random_element(algebra, rng, max_mode=4, n_modes=8, real_form=False):
    coeffs = {}
    for _ in range(n_modes):
        k = int(rng.integers(-max_mode, max_mode + 1))
        a = rng.normal(size=(algebra.n,) * 2) + 1j * rng.normal(size=(algebra.n,) * 2)
        coeffs[k] = coeffs.get(k, 0) + 0.3 * a
    x = FourierLoopElement(coeffs, algebra)
    if real_form:
        sym = {}
        for k, a in x.coefficients.items():
            sym[k] = sym.get(k, 0) + 0.5 * a
            sym[-k] = sym.get(-k, 0) - 0.5 * a.conj().T
        x = FourierLoopElement(sym, algebra, real_form=True)
    return x


def random_field(rng, max_mode=4, n_modes=6, real=True):
    coeffs = {}
    for _ in range(n_modes):
        k = int(rng.integers(0, max_mode + 1))
        v = 0.4 * (rng.normal() + 1j * rng.normal())
        coeffs[k] = coeffs.get(k, 0) + v
        if real:
            coeffs[-k] = coeffs.get(-k, 0) + np.conj(v)
    return ScalarField(coeffs, real=real or None)


# ---------------------------------------------------------------------------
# Construction and pointwise evaluation
# ---------------------------------------------------------------------------

def _reality_residual(coefficients, n):
    """The per-coefficient reality rule: max_k |a_{-k} + (a_k)^dagger|_F over
    the modes kept."""
    coeffs = {int(k): np.asarray(a, dtype=complex) for k, a in coefficients.items()
              if np.linalg.norm(a) > 1e-16}
    zero = np.zeros((n, n))
    return max((np.linalg.norm(coeffs.get(-k, zero) + a.conj().T)
                for k, a in coeffs.items()), default=0.0)


def _near_real_coefficients(rng, n):
    """Coefficients with a_{-k} = -(a_k)^dagger up to a residual of 1e-13 to
    1e-11; zero entries make the absolute tolerance decide, and some partners
    are left out."""
    coeffs = {}
    for k in range(int(rng.integers(0, 4))):
        scale = 10.0 ** rng.uniform(-3, 3)
        a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        a *= rng.random((n, n)) < 0.6
        if k == 0:
            a = a - a.conj().T
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        partner = -a.conj().T + 10.0 ** rng.uniform(-13, -11) * noise / np.abs(noise).max()
        coeffs[k] = partner if k == 0 else a
        if k and rng.random() < 0.9:
            coeffs[-k] = partner
    return coeffs


def test_reality_check_matches_per_coefficient_rule():
    """One residual, one tolerance: an untagged element is real-form exactly
    when the same coefficients are accepted with a real-form tag."""
    rng = np.random.default_rng(26)
    verdicts = []
    for trial in range(300):
        algebra = lie.build_su(2 + trial % 2)
        coeffs = _near_real_coefficients(rng, algebra.n)
        inside = bool(_reality_residual(coeffs, algebra.n) <= 1e-12)
        assert FourierLoopElement(coeffs, algebra).real_form is inside
        if inside:
            assert FourierLoopElement(coeffs, algebra, real_form=True).real_form
        else:
            with pytest.raises(ValueError, match="reality residual"):
                FourierLoopElement(coeffs, algebra, real_form=True)
        verdicts.append(inside)
    # the trials see both outcomes
    assert len(set(verdicts)) == 2


def test_reality_check_is_absolute(su2):
    """A at mode 1 with -A^dagger (1 + 1e-6) at mode -1 is off by 1e-6 |A|:
    neither inferred real-form nor accepted with the tag."""
    a = su2.basis[0] + 2.0 * su2.basis[2]
    coeffs = {1: a, -1: -a.conj().T * (1 + 1e-6)}
    assert FourierLoopElement(coeffs, su2).real_form is False
    with pytest.raises(NumericError, match="reality residual"):
        FourierLoopElement(coeffs, su2, real_form=True)


_NON_FINITE = [np.nan, np.inf, complex(0.0, -np.inf)]
_NON_FINITE_IDS = ["nan", "inf", "imag-inf"]


@pytest.mark.parametrize("bad", _NON_FINITE, ids=_NON_FINITE_IDS)
def test_loop_element_refuses_non_finite_coefficient(su2, bad):
    # a NaN norm is not above the drop threshold, so it was dropped silently
    with pytest.raises(NumericError, match="finite"):
        FourierLoopElement({0: su2.basis[0], 1: np.full((2, 2), bad)}, su2)


@pytest.mark.parametrize("bad", _NON_FINITE, ids=_NON_FINITE_IDS)
def test_scalar_field_refuses_non_finite_coefficient(bad):
    with pytest.raises(NumericError, match="finite"):
        ScalarField({0: 1.0, 2: bad})


@pytest.mark.parametrize("bad", _NON_FINITE, ids=_NON_FINITE_IDS)
def test_grid_loop_refuses_non_finite_samples(su2, bad):
    # under default warning filters a NaN residual compares False with the
    # tolerance, so the check must not rest on that comparison
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(NumericError, match="special unitary"):
            loops.GridLoop(np.full((4, 2, 2), bad, dtype=complex), su2)


def test_grid_loop_refuses_wrong_shape_and_non_su_samples(su2):
    with pytest.raises(AlgebraMismatchError, match="sample shape"):
        loops.GridLoop(np.ones((4, 3, 3), dtype=complex), su2)
    for bad in (2 * np.eye(2), np.diag([1j, 1j])):   # not unitary; det -1
        with pytest.raises(NumericError, match="not special unitary"):
            loops.GridLoop(np.broadcast_to(bad, (4, 2, 2)), su2)


@pytest.mark.parametrize("coeffs", [
    {1: 0.3 + 0.1j, -1: 0.3 - 0.1j},
    {1: 0.3 + 0.1j, -1: 0.3 - 0.1j + 1e-12},
    {1: 0.3 + 0.1j, -1: 0.3 - 0.1j + 2e-12},
    {0: 1.0 + 1e-6j},
    {0: 1.0, 2: 1e-13},
    {2: 1.0, -2: 1.0 + 1e-9},
    {},
], ids=["real", "near-tol", "above-tol", "imag-mode-0", "unpaired-tiny",
        "off-1e-9", "empty"])
def test_scalar_field_tag_agrees_with_inferred(coeffs):
    """The untagged field is real exactly when the ``real`` tag is accepted."""
    inferred = ScalarField(coeffs).real
    want = bool(max((abs(np.conj(v) - coeffs.get(-k, 0.0))
                     for k, v in coeffs.items()), default=0.0) <= 1e-12)
    assert inferred is want
    if inferred:
        assert ScalarField(coeffs, real=True).real
    else:
        with pytest.raises(ValueError, match="real tag violated"):
            ScalarField(coeffs, real=True)


def test_scalar_field_real_values():
    h = ScalarField({0: 0.5, 1: 0.2 + 0.1j, -1: 0.2 - 0.1j})
    thetas = np.linspace(0.0, 2 * np.pi, 17)
    assert np.array_equal(h.real_values(thetas), h.evaluate(thetas).real)
    with pytest.raises(NumericError, match="not real"):
        ScalarField({1: 0.2}).real_values(thetas)


@pytest.mark.parametrize("field", [
    ScalarField({1: 0.2}),                        # a complex exponential
    ScalarField({0: 1e-12j}),                     # imaginary part below 1e-12
    ScalarField({1: 0.2, -1: 0.2}, real=False),   # tagged not real
], ids=["exp", "tiny-imag", "tagged-false"])
def test_loop_from_factors_refuses_non_real_field(su2, field):
    with pytest.raises(NumericError, match="not real"):
        loops.loop_from_factors(su2, [(su2.basis[0], field)], 16)


def _evaluate_all_modes(h, thetas):
    """h(theta) with one complex exp per stored mode, k = 0 included."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    ik = 1j * np.array(list(h.coefficients), dtype=float)
    vs = np.array(list(h.coefficients.values()), dtype=complex)
    return np.exp(thetas[:, None] * ik) @ vs


@pytest.mark.parametrize("coeffs", [
    {0: 1.0, 1: 0.15, -1: 0.15},
    {0: 0.8, 2: 0.1 - 0.05j, -2: 0.1 + 0.05j, 5: 0.3j, -5: -0.3j},
    {0: 0.5 + 0.2j, 1: 0.3, 3: -0.7j, -2: 0.25},
    {0: 2.5},
    {},
    {-1: 0.4, -3: 0.1 + 0.9j},
], ids=["real", "real-multi", "non-real", "mode-0", "empty", "negative-only"])
def test_scalar_field_evaluate_matches_all_modes_sum(coeffs):
    h = ScalarField(coeffs)
    scale = max(1.0, sum(abs(v) for v in h.coefficients.values()))
    for thetas in (np.linspace(0.0, 2 * np.pi, 257), 0.7):
        got = h.evaluate(thetas)
        want = _evaluate_all_modes(h, thetas)
        assert got.dtype == complex and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * scale


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def test_element_sum_and_difference(su2):
    rng = np.random.default_rng(14)
    x = random_element(su2, rng, max_mode=3)
    y = random_element(su2, rng, max_mode=5)
    zero = np.zeros((2, 2))
    thetas = loops.circle_grid(16)
    for got, sign in ((x + y, 1.0), (x - y, -1.0)):
        assert got.algebra is su2
        assert set(got.coefficients) == set(x.coefficients) | set(y.coefficients)
        for k, a in got.coefficients.items():
            assert np.array_equal(a, x.coefficients.get(k, zero)
                                  + sign * y.coefficients.get(k, zero))
        assert np.abs(got.evaluate(thetas)
                      - (x.evaluate(thetas) + sign * y.evaluate(thetas))).max() < 1e-14
    # the real form survives a sum, and a difference with itself is empty
    xr = random_element(su2, rng, real_form=True)
    yr = random_element(su2, rng, real_form=True)
    assert (xr + yr).real_form and (xr - yr).real_form
    assert (x - x).coefficients == {}
    with pytest.raises(AlgebraMismatchError):
        x + FourierLoopElement({0: np.zeros((3, 3))}, lie.build_su(3))


def test_sobolev_norm_single_mode(su2):
    a = su2.basis[0] / np.linalg.norm(su2.basis[0])
    x = FourierLoopElement({1: a}, su2)
    assert loops.sobolev_norm(x, 1.5) == pytest.approx(2 ** 1.5)
    zero = FourierLoopElement({}, su2)
    for s, p in ((0, 1), (1.5, 1), (1, 2)):
        assert loops.sobolev_norm(zero, s, p) == 0.0


def test_sobolev_norm_three_modes(su2):
    a = su2.basis[0] / np.linalg.norm(su2.basis[0])
    x = FourierLoopElement({0: a, 1: a, -1: -a.conj().T}, su2)
    assert loops.sobolev_norm(x, 1, 2) == pytest.approx(3.0)


def test_sobolev_monotone_in_s(su2):
    rng = np.random.default_rng(0)
    for _ in range(30):
        x = random_element(su2, rng)
        for s1, s2 in ((0.0, 1.0), (1.5, 2.0), (1.5, 3.0)):
            assert loops.sobolev_norm(x, s1) <= loops.sobolev_norm(x, s2) + 1e-12


def test_norm_diverged_flag(su2):
    x = FourierLoopElement({1: su2.basis[0]}, su2, decay_rate=2.0)
    loops.sobolev_norm(x, 0.5, 1.0)  # (0.5 - 2)*1 < -1: fine
    with pytest.raises(NormDivergedError):
        loops.sobolev_norm(x, 1.5, 1.0)


def test_action_norm_estimates(su2):
    rng = np.random.default_rng(1)
    for _ in range(200):
        h = random_field(rng)
        x = random_element(su2, rng)
        for s, p in ((1.0, 1.0), (1.0, 2.0), (1.5, 2.0)):
            hs = loops.sobolev_norm(h, s)
            lhs_d = loops.sobolev_norm(loops.act_derivation(h, x), s, p)
            assert lhs_d <= hs * loops.sobolev_norm(x, s + 1, p) + 1e-10
            lhs_m = loops.sobolev_norm(loops.multiply_field(h, x), s, p)
            assert lhs_m <= hs * loops.sobolev_norm(x, s, p) + 1e-10


# ---------------------------------------------------------------------------
# Derivation / multiplication / cocycle B
# ---------------------------------------------------------------------------

def test_act_derivation_examples(su2):
    a = su2.basis[0]
    x = FourierLoopElement({2: a, -1: a}, su2)
    one = ScalarField.constant(1.0)
    dx = loops.act_derivation(one, x)
    assert np.abs(dx.coefficients[2] - 2j * a).max() < 1e-14
    assert np.abs(dx.coefficients[-1] + 1j * a).max() < 1e-14
    const = FourierLoopElement({0: a}, su2)
    assert not loops.act_derivation(one, const).coefficients
    h = ScalarField({1: 1.0})
    y = FourierLoopElement({1: a}, su2)
    hy = loops.act_derivation(h, y)
    assert list(hy.coefficients) == [2]
    assert np.abs(hy.coefficients[2] - 1j * a).max() < 1e-14


def test_multiply_field_examples(su2):
    a = su2.basis[1]
    x = FourierLoopElement({-1: a}, su2)
    assert np.abs(loops.multiply_field(ScalarField.constant(1.0), x)
                  .coefficients[-1] - a).max() < 1e-14
    h = ScalarField({1: 1.0})
    hx = loops.multiply_field(h, x)
    assert list(hx.coefficients) == [0]
    assert np.abs(hx.coefficients[0] - a).max() < 1e-14


def test_central_term_B(su2):
    rng = np.random.default_rng(2)
    a, b = su2.basis[0], su2.basis[1]
    x = FourierLoopElement({1: a}, su2)
    y = FourierLoopElement({-1: b}, su2)
    assert loops.central_term_B(x, y) == pytest.approx(-1j * np.trace(a @ b))
    const_x = FourierLoopElement({0: a}, su2)
    const_y = FourierLoopElement({0: b}, su2)
    assert loops.central_term_B(const_x, const_y) == 0
    for _ in range(20):
        u = random_element(su2, rng)
        v = random_element(su2, rng)
        assert abs(loops.central_term_B(u, u)) < 1e-12
        assert abs(loops.central_term_B(u, v)
                   + loops.central_term_B(v, u)) < 1e-12


# ---------------------------------------------------------------------------
# Grid loops and currents
# ---------------------------------------------------------------------------

def test_maurer_cartan_constant_loop(su2):
    g = lie.group_exp(su2.basis_element(2))
    samples = np.broadcast_to(g, (64, 2, 2)).copy()
    loop = loops.GridLoop(samples, su2)
    cur = loops.maurer_cartan(loop, "left")
    assert not cur.coefficients


def test_maurer_cartan_single_generator(su2):
    x0 = su2.basis[0]
    f = lambda th: 0.6 * np.sin(th) + 0.2 * np.cos(2 * th)
    fp = lambda th: 0.6 * np.cos(th) - 0.4 * np.sin(2 * th)
    loop = loops.loop_from_factors(su2, [(x0, f)], 256)
    th = loop.thetas
    for side in ("left", "right"):
        cur = loops.maurer_cartan(loop, side)
        assert cur.real_form
        vals = cur.evaluate(th)
        assert np.abs(vals - fp(th)[:, None, None] * x0).max() < 1e-12


def test_maurer_cartan_product_rule(su2):
    x1, x2 = su2.basis[0], su2.basis[1]
    f1 = lambda th: 0.5 * np.sin(th)
    f2 = lambda th: 0.3 * np.cos(2 * th)
    fp1 = lambda th: 0.5 * np.cos(th)
    fp2 = lambda th: -0.6 * np.sin(2 * th)
    loop = loops.loop_from_factors(su2, [(x1, f1), (x2, f2)], 256)
    th = loop.thetas
    g1 = loops.loop_from_factors(su2, [(x1, f1)], 256)
    expect = (fp1(th)[:, None, None] * x1
              + np.einsum("jab,bc,jdc->jad", g1.samples,
                          np.asarray(x2, complex), g1.samples.conj())
              * fp2(th)[:, None, None])
    vals = loops.maurer_cartan(loop, "right").evaluate(th)
    assert np.abs(vals - expect).max() < 1e-11


def test_loop_from_factors_without_factors_is_identity(su2):
    gamma = loops.loop_from_factors(su2, [], 16)
    assert np.array_equal(gamma.samples, np.broadcast_to(np.eye(2), (16, 2, 2)))


def test_fourier_modes_of_known_samples(su2):
    a, b = su2.basis[0], su2.basis[1]
    th = loops.circle_grid(16)
    assert np.array_equal(th, loops.identity_loop(su2, 16).thetas)
    samples = 0.5 * a + np.exp(3j * th)[:, None, None] * b
    ks, hats, norms = loops.fourier_modes(samples)
    assert sorted(ks) == list(range(-8, 8))
    want = {0: 0.5 * a, 3: b}
    for k, c, nrm in zip(ks, hats, norms):
        w = want.get(int(k), np.zeros((2, 2)))
        assert np.abs(c - w).max() < 1e-15
        assert nrm == pytest.approx(np.linalg.norm(w), abs=1e-15)


def test_mode_cut_keeps_modes_up_to_max_above_relative_floor(su2):
    a, b = su2.basis[0], su2.basis[1]
    th = loops.circle_grid(16)
    wave = lambda k: np.exp(1j * k * th)[:, None, None]
    # modes 0 (norm 1), 3 (1e-13), 5 (1e-15) and the Nyquist mode -8 (0.5)
    samples = a + 1e-13 * wave(3) * b + 1e-15 * wave(5) * a + 0.5 * wave(8) * b
    assert list(loops._mode_cut(samples, 8)) == [0, 3, -8]     # FFT order
    assert list(loops._mode_cut(samples, 7)) == [0, 3]
    # the floor is 1e-14 of the largest norm, not an absolute one
    assert list(loops._mode_cut(1e-20 * samples, 8)) == [0, 3, -8]
    np.testing.assert_allclose(loops._mode_cut(samples, 8)[-8], 0.5 * b,
                               atol=1e-15)


def test_loop_fourier_coefficients_keep_nyquist_mode(su2):
    # x_0^2 = -1/2, so exp(0.3 (-1)^j x_0) has the Nyquist part
    # sqrt(2) sin(0.3 / sqrt(2)) x_0; the whole series is kept, so the
    # coefficients sum back to every sample
    gamma = loops.loop_from_factors(
        su2, [(su2.basis[0], lambda th: 0.3 * np.cos(4 * th))], 8)
    coeffs = loops.loop_fourier_coefficients(gamma)
    assert -4 in coeffs
    nyquist = np.sqrt(2) * np.sin(0.3 / np.sqrt(2)) * su2.basis[0]
    np.testing.assert_allclose(coeffs[-4], nyquist, atol=1e-15)
    rebuilt = sum(np.exp(1j * k * gamma.thetas)[:, None, None] * c
                  for k, c in coeffs.items())
    np.testing.assert_allclose(rebuilt, gamma.samples, atol=1e-15)


def test_resolution_guard(su2):
    f = lambda th: 0.8 * np.sin(7 * th)
    loop = loops.loop_from_factors(su2, [(su2.basis[0], f)], 16)
    with pytest.raises(ResolutionError) as err:
        loops.maurer_cartan(loop, "left")
    assert err.value.suggested_n == 32


def test_cocycle_c_examples(su2):
    x0 = su2.basis[0]
    const = loops.identity_loop(su2, 64)
    probe = FourierLoopElement({1: x0, -1: x0}, su2)
    assert loops.cocycle_c(const, probe) == 0.0
    # gamma = exp(f X): c(gamma, const X) = -l <X,X> mean(f') = 0 for periodic f
    f = lambda th: 0.7 * np.sin(th)
    gamma = loops.loop_from_factors(su2, [(x0, f)], 256)
    assert abs(loops.cocycle_c(gamma, FourierLoopElement({0: x0}, su2))) < 1e-13
    # single-generator test element y = 2 x0 cos(theta): the integrand is
    # a cos^2(theta) * 2 tr(x0 x0), so c = -l * a * tr(x0 x0) = +0.7
    y = FourierLoopElement({1: x0, -1: x0}, su2)
    got = loops.cocycle_c(gamma, y)
    assert got == pytest.approx(0.7, abs=1e-12)
    # cross-generator element pairs to zero by orthonormality
    w = su2.basis[1]
    yw = FourierLoopElement({1: w, -1: w}, su2)
    assert loops.cocycle_c(gamma, yw) == pytest.approx(0.0, abs=1e-12)


def test_cocycle_identity_random_pairs(su2):
    rng = np.random.default_rng(4)
    for _ in range(5):
        g1 = loops.loop_from_factors(
            su2, [(random_antihermitian(su2, rng),
                   lambda th, a=rng.uniform(0.2, 0.7), k=int(rng.integers(1, 3)):
                   a * np.sin(k * th))], 256)
        g2 = loops.loop_from_factors(
            su2, [(random_antihermitian(su2, rng),
                   lambda th, a=rng.uniform(0.2, 0.7), k=int(rng.integers(1, 3)):
                   a * np.cos(k * th))], 256)
        x = random_element(su2, rng, max_mode=3, real_form=True)
        lhs = loops.cocycle_c(g1 @ g2, x)
        xs = x.evaluate(g2.thetas)
        ad = np.einsum("jab,jbc,jdc->jad", g2.samples, xs, g2.samples.conj())
        hats = np.fft.fft(ad, axis=0) / 256
        ks = np.fft.fftfreq(256, d=1 / 256).astype(int)
        adx = FourierLoopElement(
            {int(k): hats[i] for i, k in enumerate(ks)
             if np.linalg.norm(hats[i]) > 1e-13}, su2)
        rhs = loops.cocycle_c(g2, x) + loops.cocycle_c(g1, adx)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_cocycle_b_is_the_right_current_paired_with_x(su2):
    # b(gamma, X) = c(gamma^-1, X) = l * mean <gamma' gamma^-1, X>, the mean
    # of a product of two Fourier series being sum_k tr(m_k x_{-k})
    rng = np.random.default_rng(13)
    for level in (1.0, 3.0):
        gamma = loops.loop_from_factors(
            su2, [(random_antihermitian(su2, rng),
                   lambda th: 0.5 * np.sin(th) + 0.3 * np.cos(2 * th)),
                  (random_antihermitian(su2, rng), lambda th: 0.4 * np.cos(th))],
            256)
        x = random_element(su2, rng, max_mode=3, real_form=True)
        right = loops.maurer_cartan(gamma, "right").coefficients
        zero = np.zeros((2, 2))
        want = level * sum(np.trace(m @ x.coefficients.get(-k, zero))
                           for k, m in right.items())
        assert abs(want.imag) < 1e-14
        assert abs(want.real) > 0.05
        assert loops.cocycle_b(gamma, x, level) == pytest.approx(want.real,
                                                                 abs=1e-13)


def test_cocycle_field(su2):
    x2 = np.sqrt(2) * su2.basis[0]  # tr(x2^2) = -2
    f = lambda th: 0.6 * np.sin(th) + 0.2 * np.cos(2 * th)
    fp = lambda th: 0.6 * np.cos(th) - 0.4 * np.sin(2 * th)
    gamma = loops.loop_from_factors(su2, [(x2, f)], 256)
    one = ScalarField.constant(1.0)
    got = loops.cocycle_c_field(gamma, one)
    th = gamma.thetas
    assert got == pytest.approx(np.mean(fp(th) ** 2), abs=1e-12)
    assert loops.cocycle_c_field(loops.identity_loop(su2, 64), one) == 0.0
    # b(gamma, h) = c(gamma^-1, h)
    assert loops.cocycle_b_field(gamma, one) == pytest.approx(
        loops.cocycle_c_field(gamma.inverse(), one))


def test_cocycle_field_sign(su2):
    rng = np.random.default_rng(6)
    one = ScalarField.constant(1.0)
    for _ in range(100):
        gamma = loops.loop_from_factors(
            su2, [(random_antihermitian(su2, rng, scale=rng.uniform(0.3, 1.2)),
                   lambda th, a=rng.uniform(0.2, 0.8), k=int(rng.integers(1, 4)),
                   b=rng.uniform(0, 0.4): a * np.sin(k * th) + b * np.cos(th))],
            128)
        assert loops.cocycle_c_field(gamma, one) >= 0.0


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _split_test_loop(su2, n=256):
    prof = lambda th: 0.7 * (1 - np.cos(th)) ** 2 * (1 + np.cos(th)) ** 2
    return loops.loop_from_factors(su2, [(su2.basis[0], prof)], n)


def test_split_loop_reconstruction(su2):
    gamma = _split_test_loop(su2)
    pair = loops.split_loop(gamma, 0.0, np.pi)
    recon = pair.left @ pair.right
    assert np.abs(recon.samples - gamma.samples).max() < 1e-15
    eye = np.eye(2)
    th = gamma.thetas
    on_left = (th > 0) & (th < np.pi)
    for j in range(gamma.n_samples):
        if on_left[j]:
            assert np.abs(pair.right.samples[j] - eye).max() < 1e-15
        else:
            assert np.abs(pair.left.samples[j] - eye).max() < 1e-15


def test_split_identity_loop(su2):
    pair = loops.split_loop(loops.identity_loop(su2, 64), 0.0, np.pi)
    assert np.abs(pair.left.samples - np.eye(2)).max() == 0
    assert np.abs(pair.right.samples - np.eye(2)).max() == 0


def test_split_loop_supported_in_arc(su2):
    # profile vanishing to eighth order at 0 and pi, supported in (0, pi);
    # high-order flatness keeps the spectral derivative at the seams below
    # the splitting tolerance
    prof = lambda th: 0.5 * np.where((th % (2 * np.pi)) < np.pi,
                                     np.sin(th % (2 * np.pi)) ** 8, 0.0)
    gamma = loops.loop_from_factors(su2, [(su2.basis[1], prof)], 256)
    pair = loops.split_loop(gamma, 0.0, np.pi)
    assert np.abs(pair.left.samples - gamma.samples).max() < 1e-15
    assert np.abs(pair.right.samples - np.eye(2)).max() < 1e-15


@pytest.mark.parametrize("call,error,words", [
    (lambda su2: loops.sobolev_norm(ScalarField({0: 1.0}), 1.0, 0.5),
     NumericError, "p must be >= 1"),
    (lambda su2: loops.identity_loop(su2, 8) @ loops.identity_loop(su2, 16),
     AlgebraMismatchError, "sample counts differ"),
    (lambda su2: loops.maurer_cartan(loops.identity_loop(su2, 8), "up"),
     ConfigError, "side must be"),
], ids=["sobolev-p", "product-grids", "current-side"])
def test_argument_refusals_are_typed(su2, call, error, words):
    # typed LoopnetErrors that are ValueErrors too, so that callers catching
    # either see them
    with pytest.raises(LoopnetError, match=words) as err:
        call(su2)
    assert isinstance(err.value, error)
    assert isinstance(err.value, ValueError)


def test_split_refuses_off_grid_and_coinciding_cuts(su2):
    gamma = loops.identity_loop(su2, 16)
    with pytest.raises(NumericError, match="not a grid point"):
        loops.split_loop(gamma, 0.1, np.pi)
    with pytest.raises(NumericError, match="coincide"):
        loops.split_loop(gamma, np.pi / 2, np.pi / 2 + 2 * np.pi)


def test_split_precondition_violation(su2):
    gamma = loops.loop_from_factors(su2, [(su2.basis[0],
                                           lambda th: 0.5 * np.sin(th))], 128)
    with pytest.raises(NotSplittableError) as err:
        loops.split_loop(gamma, np.pi / 2, 3 * np.pi / 2)
    assert err.value.residuals


# ---------------------------------------------------------------------------
# Semidirect exponential
# ---------------------------------------------------------------------------

def test_semidirect_alpha_zero(su2):
    x0 = su2.basis[0]
    x = FourierLoopElement({1: 0.4 * x0, -1: 0.4 * x0}, su2)
    loop, rot = loops.semidirect_exp(x, 0.0, None, 1.0, 128)
    assert rot == 0.0
    want = loops.loop_from_factors(su2, [(x0, lambda th: 0.8 * np.cos(th))], 128)
    assert np.abs(loop.samples - want.samples).max() < 1e-12


def test_semidirect_pure_rotation(su2):
    zero = FourierLoopElement({}, su2)
    loop, rot = loops.semidirect_exp(zero, 2.0, None, 0.75, 64)
    assert rot == pytest.approx(1.5)
    assert np.abs(loop.samples - np.eye(2)).max() < 1e-14


def test_semidirect_cos_profile_ode(su2):
    x0 = su2.basis[0]
    x = FourierLoopElement({1: 0.4 * x0, -1: 0.4 * x0}, su2)
    loop, rot = loops.semidirect_exp(x, 1.0, None, 1.0, 256, verify=True)
    assert rot == pytest.approx(1.0)
    # flow-averaged closed form: exp(0.8 (sin t - sin(t-1)) X0)
    want = loops.loop_from_factors(
        su2, [(x0, lambda th: 0.8 * (np.sin(th) - np.sin(th - 1.0)))], 256)
    assert np.abs(loop.samples - want.samples).max() < 1e-10


def test_semidirect_general_field(su2):
    x0 = su2.basis[2]
    x = FourierLoopElement({1: 0.3 * x0, -1: 0.3 * x0}, su2)
    h = ScalarField({0: 1.0, 1: 0.15, -1: 0.15})
    loop, rot = loops.semidirect_exp(x, 0.7, h, 1.0, 256, verify=True)
    assert rot == pytest.approx(0.7)


@pytest.mark.parametrize("h", [None, ScalarField({0: 1.0, 1: 0.15, -1: 0.15})],
                         ids=["rigid", "general"])
def test_semidirect_noncommuting_verified(su2, h):
    # two non-commuting generator directions: the values of X do not commute
    # along the flow, and the time-ordered exponential still passes the check
    x = FourierLoopElement({1: 0.6 * su2.basis[0], -1: 0.6 * su2.basis[0],
                            0: 0.8 * su2.basis[1]}, su2)
    _, rot = loops.semidirect_exp(x, 1.0, h, 1.0, 128, verify=True)
    assert rot == 1.0


def test_semidirect_refuses_non_real_inputs(su2):
    x0 = su2.basis[0]
    with pytest.raises(NumericError, match="real-form element"):
        loops.semidirect_exp(FourierLoopElement({1: x0}, su2), 1.0, None, 1.0, 16)
    x = FourierLoopElement({1: x0, -1: x0}, su2)
    with pytest.raises(NumericError, match="flow field must be real"):
        loops.semidirect_exp(x, 1.0, ScalarField({1: 0.2}), 1.0, 16)


def test_semidirect_verify_flags_aliased_modes(su2, monkeypatch):
    # X modes 32 and 40 do not fit a 64-point grid (the rule asks |k| < 16):
    # the Magnus product would read X off the grid and the ODE check the
    # aliased modes, so the element is refused before any work
    x = FourierLoopElement({32: 0.2 * su2.basis[0], -32: 0.2 * su2.basis[0],
                            40: 0.15 * su2.basis[1], -40: 0.15 * su2.basis[1]},
                           su2)
    monkeypatch.setattr(loops, "_magnus_product", None)
    with pytest.raises(ResolutionError, match="above mode N/4") as err:
        loops.semidirect_exp(x, 0.6, None, 0.5, 64)
    assert err.value.suggested_n == 128


def test_semidirect_step_bound_refuses_before_any_work(su2, monkeypatch):
    # t = 1e7 plans 2.9e8 Magnus steps and 1e10 steps of the RK4 check
    x0 = su2.basis[0]
    x = FourierLoopElement({1: 0.4 * x0, -1: 0.4 * x0}, su2)
    monkeypatch.setattr(loops, "_magnus_product", None)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="MAX_STEPS") as err:
        loops.semidirect_exp(x, 1.0, None, 1e7, 256, verify=False)
    assert time.perf_counter() - start < 1.0
    assert err.value.estimate > loops.MAX_STEPS


def test_unverified_call_plans_no_check_steps(su2, monkeypatch):
    # t = 101 plans 178 Magnus steps; only the RK4 check, 101,000 steps,
    # would exceed MAX_STEPS, and verify=False does not run it
    a, alpha, t = 0.05, 0.01, 101.0
    x0 = su2.basis[0]
    x = FourierLoopElement({1: a * x0, -1: a * x0}, su2)
    assert loops._magnus_steps(x, alpha, ScalarField.constant(1.0), t) == 178
    loop, rot = loops.semidirect_exp(x, alpha, None, t, 16, verify=False)
    assert rot == pytest.approx(alpha * t)
    # X commutes with itself along the flow: exp(f x0), f the integral of X
    f = lambda th: (2 * a / alpha) * (np.sin(th) - np.sin(th - alpha * t))
    want = loops.loop_from_factors(su2, [(x0, f)], 16)
    assert np.abs(loop.samples - want.samples).max() < 1e-10
    # with the check, its steps are still refused before any work
    monkeypatch.setattr(loops, "_magnus_product", None)
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="RK4 check"):
        loops.semidirect_exp(x, alpha, None, t, 16, verify=True)
    assert time.perf_counter() - start < 1.0


def test_check_of_a_large_element_takes_the_magnus_steps(su2):
    # |X| ~ 800: round(|t| / 1e-3) would be one RK4 step, 4.8e-4 off; the
    # check takes the 13 Magnus steps and verifies the closed form
    a, t = 400.0, 1e-3
    x0 = su2.basis[0]
    x = FourierLoopElement({1: a * x0, -1: a * x0}, su2)
    h = ScalarField.constant(1.0)
    assert loops._magnus_steps(x, 1.0, h, t) == 13
    assert loops._ode_steps(x, 1.0, h, t, loops._ODE_DT) == 13
    loop, _ = loops.semidirect_exp(x, 1.0, h, t, 256, verify=True)
    f = lambda th: 2 * a * (np.sin(th) - np.sin(th - t))
    want = loops.loop_from_factors(su2, [(x0, f)], 256)
    assert np.abs(loop.samples - want.samples).max() < 1e-12
    assert loops._ode_gap(loop, x, 1.0, h, t) <= loops._ODE_TOL


def test_step_bound_counts_each_step_loop(su2):
    x0 = su2.basis[0]
    x = FourierLoopElement({1: 0.4 * x0, -1: 0.4 * x0}, su2)
    rigid = ScalarField.constant(1.0)
    general = ScalarField({0: 1.0, 1: 0.15, -1: 0.15})
    # the RK4 check takes round(|t| / 1e-3) steps: |t| = 100 is the largest
    loops._check_steps(x, 1.0, rigid, -100.0)
    with pytest.raises(CapacityError, match="RK4 check"):
        loops._check_steps(x, 1.0, rigid, 100.001)
    loops._check_steps(x, 1.0, rigid, 100.001, verify=False)
    # a fast turn: Magnus steps grow with |alpha| times the top mode of X
    with pytest.raises(CapacityError, match="Magnus product"):
        loops._check_steps(x, 1e5, rigid, 1.0)
    # a long flow of a varying field: 256 * 1.3 * |alpha t| steps
    with pytest.raises(CapacityError, match="flow of h"):
        loops._check_steps(FourierLoopElement({}, su2), 1e4, general, 1.0)
    for t in (math.inf, math.nan):
        with pytest.raises(CapacityError):
            loops._check_steps(x, 1.0, rigid, t)


def test_sample_count_bound():
    assert loops._check_sample_count(loops.MAX_SAMPLES) == loops.MAX_SAMPLES
    for samples in (2 * loops.MAX_SAMPLES, 2 ** 40):
        with pytest.raises(CapacityError) as err:
            loops._check_sample_count(samples)
        assert err.value.estimate == samples


@pytest.mark.parametrize("n_samples, error", [
    (3, NumericError), (1000, NumericError), (2 ** 17, CapacityError),
    (256.0, NumericError), (2.5, NumericError)])
@pytest.mark.parametrize("name", [
    "semidirect_exp", "loop_from_factors", "identity_loop", "zeta_t",
    "rotation_cocycle_2pi", "cayley_inverse"])
def test_sample_count_is_checked_before_any_work(monkeypatch, su2, name,
                                                 n_samples, error):
    b = su2.basis[0]
    x = FourierLoopElement({1: 0.1 * b, -1: 0.1 * b}, su2, real_form=True)
    path = soliton.SolitonPath.linear(su2, np.diag([0.5j, -0.5j]))
    line = entropy.cayley_transfer(loops.identity_loop(su2, 64))
    calls = {
        "semidirect_exp": lambda n: loops.semidirect_exp(x, 0.5, n_samples=n),
        "loop_from_factors": lambda n: loops.loop_from_factors(su2, [(b, np.sin)], n),
        "identity_loop": lambda n: loops.identity_loop(su2, n),   # builds no grid
        "zeta_t": lambda n: soliton.zeta_t(path, 1.0, n),
        "rotation_cocycle_2pi": lambda n: soliton.rotation_cocycle_2pi(path, n),
        "cayley_inverse": lambda n: entropy.cayley_inverse(line, n),
    }

    def no_grid(n_samples):
        raise AssertionError(f"a grid of {n_samples} samples was built first")

    for module in (loops, soliton, entropy):
        monkeypatch.setattr(module, "circle_grid", no_grid)
    with pytest.raises(error):
        calls[name](n_samples)


def test_sample_count_must_be_an_integer(su2):
    """A float count is refused by value, integral or not; a numpy integer
    is a count like any other."""
    for bad in (256.0, 2.5):
        with pytest.raises(NumericError, match=f"integer, got {bad!r}"):
            loops._check_sample_count(bad)
    count = np.int64(256)
    assert loops._check_sample_count(count) == 256
    assert loops.identity_loop(su2, count).samples.shape == (256, 2, 2)
    b = su2.basis[0]
    x = FourierLoopElement({1: 0.1 * b, -1: 0.1 * b}, su2, real_form=True)
    loop, _ = loops.semidirect_exp(x, 0.5, n_samples=count)
    assert loop.samples.shape == (256, 2, 2)


def test_element_resolution_is_the_sampled_loops_rule(su2):
    # modes below N/4 pass; at N/4, up to _TAIL_GUARD times the largest norm
    b = su2.basis[0]
    main = {15: 0.1 * b, -15: 0.1 * b}
    loops.semidirect_exp(FourierLoopElement(main, su2), 0.6, None, 0.5, 64)

    def with_tail(ratio):
        return FourierLoopElement({**main, 16: ratio * 0.1 * b,
                                   -16: ratio * 0.1 * b}, su2)

    loops._check_element_resolution(with_tail(0.5 * loops._TAIL_GUARD), 64)
    with pytest.raises(ResolutionError) as err:
        loops._check_element_resolution(with_tail(2 * loops._TAIL_GUARD), 64)
    assert err.value.suggested_n == 128
    loops._check_element_resolution(with_tail(2 * loops._TAIL_GUARD), 128)


# ---------------------------------------------------------------------------
# Kernel bound
# ---------------------------------------------------------------------------

def test_kernel_bound_trivial_cases():
    assert loops.kernel_bound_check(0.0, 5, 3)
    for eps in (0.0, 0.5, 2.0):
        for k in (0, 1, 7):
            assert loops.kernel_bound_check(eps, 0, k)
    with pytest.raises(NumericError, match="need eps >= 0"):
        loops.kernel_bound_check(-1.0, 0, 0)


def test_kernel_bound_sweep():
    eps = np.arange(0.0, 10.0 + 1e-9, 0.1)
    assert loops.kernel_bound_sweep(eps, range(-8, 9), range(0, 33))


def test_star_involution(su2):
    rng = np.random.default_rng(12)
    x = random_element(su2, rng)
    star = x.star()
    for k, a in x.coefficients.items():
        assert np.abs(star.coefficients[-k] - a.conj().T).max() < 1e-14
    y = random_element(su2, rng, real_form=True)
    minus = (-1.0) * y
    ystar = y.star()
    for k in y.coefficients:
        assert np.abs(ystar.coefficients[k] - minus.coefficients[k]).max() < 1e-12
