import numpy as np
import pytest

from loopnet import lie, loops
from loopnet.errors import (NormDivergedError, NotSplittableError,
                            ResolutionError, VerificationError)
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

def _reality_oracle(coefficients, n, real_form):
    """The per-coefficient reality rule: the untagged verdict, or for a tagged
    element whether it is rejected."""
    coeffs = {int(k): np.asarray(a, dtype=complex) for k, a in coefficients.items()
              if np.linalg.norm(a) > 1e-16}
    zero = np.zeros((n, n))
    if real_form is None:
        return all(np.allclose(coeffs.get(-k, zero), -a.conj().T, atol=1e-12)
                   for k, a in coeffs.items())
    worst = max((np.linalg.norm(coeffs.get(-k, zero) + a.conj().T)
                 for k, a in coeffs.items()), default=0.0)
    return worst > 1e-12


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
    rng = np.random.default_rng(26)
    verdicts = {None: [], True: []}
    for trial in range(300):
        algebra = lie.build_su(2 + trial % 2)
        coeffs = _near_real_coefficients(rng, algebra.n)
        want = _reality_oracle(coeffs, algebra.n, None)
        assert FourierLoopElement(coeffs, algebra).real_form is want
        verdicts[None].append(want)
        rejected = _reality_oracle(coeffs, algebra.n, True)
        if rejected:
            with pytest.raises(ValueError, match="reality residual"):
                FourierLoopElement(coeffs, algebra, real_form=True)
        else:
            assert FourierLoopElement(coeffs, algebra, real_form=True).real_form
        verdicts[True].append(rejected)
    # both rules see both outcomes
    assert all(len(set(v)) == 2 for v in verdicts.values())


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


def test_semidirect_noncommuting_rejected(su2):
    # two non-commuting generator directions: no pointwise closed form
    x = FourierLoopElement({1: 0.6 * su2.basis[0], -1: 0.6 * su2.basis[0],
                            0: 0.8 * su2.basis[1]}, su2)
    with pytest.raises(VerificationError) as err:
        loops.semidirect_exp(x, 1.0, None, 1.0, 128)
    assert err.value.residual > 1e-6


# ---------------------------------------------------------------------------
# Kernel bound
# ---------------------------------------------------------------------------

def test_kernel_bound_trivial_cases():
    assert loops.kernel_bound_check(0.0, 5, 3)
    for eps in (0.0, 0.5, 2.0):
        for k in (0, 1, 7):
            assert loops.kernel_bound_check(eps, 0, k)
    with pytest.raises(ValueError):
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
