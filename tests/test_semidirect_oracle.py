"""``loops.semidirect_exp`` and its ODE check against the original routines.

``_flow_angles_per_node`` below is the original flow: a separate
1000-step RK4 pass from the grid angles for every Gauss node time, each
with its own step time/1000.  The one-pass flow visits the node times in
order of size and never takes a longer step, so the two agree to rounding.

``loops._ode_pointwise`` is the original ODE check: RK4 on the grid
samples, with X and Re h applied pointwise and d_theta by an FFT pair in
every stage.  Both it and the one-pass flow now step through the one
``loops._rk4``; the loops each wrote out before are kept below
(``_flow_angles_inline``, ``_ode_pointwise_inline``) and give the same
arrays bit for bit.  ``loops._ode_step_map`` applies the same RK4 recurrence to
the same semi-discrete operator as one sparse Fourier-space step map, so
the two agree to rounding; ``loops._ode_exponential`` takes the step map
when few Fourier modes couple.
"""

import math

import numpy as np
import pytest

from loopnet import lie, loops
from loopnet.errors import VerificationError
from loopnet.loops import FourierLoopElement, ScalarField


def _flow_angles_per_node(h, thetas, time, n_steps=1000):
    """Integrate d theta/ds = h(theta) from the given angles for the given time."""
    if n_steps <= 0:
        return thetas.copy()
    dt = time / n_steps
    th = thetas.astype(float).copy()

    def rhs(t):
        return h.evaluate(t).real

    for _ in range(n_steps):
        k1 = rhs(th)
        k2 = rhs(th + 0.5 * dt * k1)
        k3 = rhs(th + 0.5 * dt * k2)
        k4 = rhs(th + dt * k3)
        th += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return th


def _node_times(alpha, t):
    nodes, weights = np.polynomial.legendre.leggauss(64)
    taus = 0.5 * t * (nodes + 1.0)
    return -alpha * taus, weights


def _oracle_angles(h, thetas, times):
    """Every node's own pass at once: the time is broadcast per angle."""
    tiled = np.tile(thetas, len(times))
    per_point = np.repeat(times, len(thetas))
    return _flow_angles_per_node(h, tiled, per_point).reshape(len(times), -1)


def _oracle_samples(x, alpha, h, t, thetas):
    """The old general-field samples at the given angles: per-node flows,
    per-sample eigh."""
    times, weights = _node_times(alpha, t)
    n = x.algebra.n
    ys = np.zeros((len(thetas), n, n), dtype=complex)
    for pre, w in zip(_oracle_angles(h, thetas, times), weights):
        ys += (0.5 * t * w) * x.evaluate(pre)
    samples = np.empty((len(thetas), n, n), dtype=complex)
    for j in range(len(thetas)):
        w, u = np.linalg.eigh(1j * ys[j])
        samples[j] = (u * np.exp(-1j * w)) @ u.conj().T
    return samples


def _random_field(rng):
    coeffs = {0: 1.0}
    for k in rng.choice([1, 2, 3], size=int(rng.integers(1, 4)), replace=False):
        v = 0.12 * (rng.normal() + 1j * rng.normal())
        coeffs[int(k)] = v
        coeffs[-int(k)] = np.conj(v)
    return ScalarField(coeffs, real=True)


_GENERAL = ScalarField({0: 1.0, 1: 0.15, -1: 0.15})
_RNG = np.random.default_rng(20)
_CASES = [
    ("general", _GENERAL, 0.7, 1.0),
    ("general-negative-alpha", _GENERAL, -0.7, 1.0),
    ("rigid", ScalarField.constant(1.0), 1.3, 0.8),
    ("alpha-zero", _GENERAL, 0.0, 1.0),
] + [(f"random-{i}", _random_field(_RNG), float(_RNG.uniform(-1.5, 1.5)),
      float(_RNG.uniform(0.3, 2.0))) for i in range(4)]


@pytest.mark.parametrize("name,h,alpha,t", _CASES, ids=[c[0] for c in _CASES])
def test_flow_angles_match_per_node(name, h, alpha, t):
    thetas = 2 * np.pi * np.arange(8) / 8 + 0.1
    times, _ = _node_times(alpha, t)
    got = loops._flow_angles(h, thetas, times)
    want = _oracle_angles(h, thetas, times)
    assert got.shape == (64, 8)
    assert np.abs(got - want).max() <= 1e-12
    if alpha == 0.0:
        assert np.array_equal(got, np.broadcast_to(thetas, got.shape))


@pytest.mark.parametrize("alpha,t", [(-1.1, 1.5), (1.5, 2.0)])
def test_flow_rigid_field_is_a_rotation(alpha, t):
    # RK4 is exact for h = 1; what is left is rounding over ~1000 additions
    # (the per-node route is 4.4e-13 off here)
    thetas = 2 * np.pi * np.arange(32) / 32
    times, _ = _node_times(alpha, t)
    got = loops._flow_angles(ScalarField.constant(1.0), thetas, times)
    assert np.abs(got - (thetas + times[:, None])).max() <= 2e-13


def _flow_angles_inline(h, thetas, times):
    """``loops._flow_angles`` with its own RK4 loop written out."""
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(thetas)))
    h_max = np.abs(times).max(initial=0.0) / loops._FLOW_STEPS
    th = thetas.astype(float).copy()
    s = 0.0

    def rhs(t):
        return h.evaluate(t).real

    for k in np.argsort(np.abs(times), kind="stable"):
        gap = times[k] - s
        if gap != 0.0:
            m = math.ceil(abs(gap) / h_max)
            dt = gap / m
            for _ in range(m):
                k1 = rhs(th)
                k2 = rhs(th + 0.5 * dt * k1)
                k3 = rhs(th + 0.5 * dt * k2)
                k4 = rhs(th + dt * k3)
                th += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s = times[k]
        out[k] = th
    return out


@pytest.mark.parametrize("name,h,alpha,t", _CASES, ids=[c[0] for c in _CASES])
def test_flow_angles_match_inline_rk4(name, h, alpha, t):
    thetas = 2 * np.pi * np.arange(8) / 8 + 0.1
    times, _ = _node_times(alpha, t)
    assert np.array_equal(loops._flow_angles(h, thetas, times),
                          _flow_angles_inline(h, thetas, times))


class _CountingField(ScalarField):
    calls = 0

    def evaluate(self, thetas):
        type(self).calls += 1
        return super().evaluate(thetas)


def test_flow_is_one_pass():
    # 4 field evaluations per step; the steps add up to n_steps plus at most
    # one per node from rounding each gap up
    h = _CountingField({0: 1.0, 1: 0.15, -1: 0.15})
    _CountingField.calls = 0
    times, _ = _node_times(0.7, 1.0)
    loops._flow_angles(h, np.linspace(0.0, 6.0, 8), times)
    steps = loops._FLOW_STEPS
    assert 4 * steps <= _CountingField.calls <= 4 * (steps + len(times))


def test_semidirect_samples_match_per_node(su2):
    # the input of test_semidirect_general_field; every sample depends only
    # on its own angle, so every 8th grid angle is checked against the oracle
    x0 = su2.basis[2]
    x = FourierLoopElement({1: 0.3 * x0, -1: 0.3 * x0}, su2)
    loop, _ = loops.semidirect_exp(x, 0.7, _GENERAL, 1.0, 256, verify=False)
    want = _oracle_samples(x, 0.7, _GENERAL, 1.0, loop.thetas[::8])
    assert np.abs(loop.samples[::8] - want).max() <= 1e-14


def test_semidirect_negative_alpha_passes_ode_check(su2):
    x0 = su2.basis[0]
    x = FourierLoopElement({1: 0.25 * x0, -1: 0.25 * x0, 2: 0.1j * x0,
                            -2: -0.1j * x0}, su2)
    h = ScalarField({0: 0.8, 2: 0.1 - 0.05j, -2: 0.1 + 0.05j})
    loop, rot = loops.semidirect_exp(x, -1.2, h, 0.9, 128, verify=True)
    assert rot == pytest.approx(-1.2 * 0.9)
    assert math.isfinite(float(np.abs(loop.samples).max()))


# ---------------------------------------------------------------------------
# The ODE check
# ---------------------------------------------------------------------------

def _steps(t):
    return max(1, int(round(abs(t) / loops._ODE_DT)))


def _cos_element(algebra, amplitude, direction):
    x0 = np.einsum("i,iab->ab", np.asarray(direction), algebra.basis)
    return FourierLoopElement({1: amplitude * x0, -1: amplitude * x0}, algebra)


def _real_form(algebra, modes):
    """sum_k c_k B_k e^{ik theta} plus its mirror -c_k^* B_k^dagger e^{-ik theta}."""
    coeffs = {}
    for k, (c, i) in modes.items():
        b = algebra.basis[i]
        coeffs[k] = coeffs.get(k, 0) + c * b
        coeffs[-k] = coeffs.get(-k, 0) - np.conj(c) * b.conj().T
    return FourierLoopElement(coeffs, algebra, real_form=True)


def _ode_cases():
    su2, su3 = lie.build_su(2), lie.build_su(3)
    return [
        # the benchmark's seed-3 inputs, N = 256
        ("bench-rigid", _cos_element(su2, 0.3585649167143624,
                                     [-0.9639838129186612, 0.15770475218982766,
                                      -0.2141597991396718]),
         1.0, ScalarField.constant(1.0), 1.0, 256),
        ("bench-general", _cos_element(su2, 0.2594128642240399,
                                       [-0.10544421577028558, -0.9879343967346355,
                                        -0.11343343911369938]),
         0.7, _GENERAL, 1.0, 256),
        ("negative-alpha-and-t",
         _real_form(su2, {0: (0.3j, 1), 1: (0.2 + 0.1j, 0), 2: (0.1, 2)}),
         -0.8, ScalarField({0: 0.9, 1: 0.1 - 0.2j, -1: 0.1 + 0.2j}), -0.6, 128),
        ("t-zero", _real_form(su2, {1: (0.4, 0)}), 1.0, _GENERAL, 0.0, 64),
        ("su3-two-mode-complex-h",
         _real_form(su3, {0: (0.2j, 7), 1: (0.25 - 0.1j, 0), 2: (0.1j, 4)}),
         0.9, ScalarField({0: 1.1, 1: 0.12 + 0.08j, -1: 0.12 - 0.08j,
                           2: -0.05 + 0.06j, -2: -0.05 - 0.06j}), 1.0, 512),
        # X modes 32 = N/2 and 40 > N/2 alias onto the grid's modes mod N
        ("aliased-x-modes", _real_form(su2, {32: (0.2, 0), 40: (0.15j, 1),
                                             3: (0.2, 2)}),
         0.6, _GENERAL, 0.5, 64),
        # c_{-k} = conj(c_k) only to ~1e-13: the ODE uses Re h
        ("h-reality-off-1e-13", _real_form(su2, {1: (0.3, 0), 0: (0.2j, 1)}),
         0.7, ScalarField({0: 1.0 + 1e-13j, 1: 0.15 + 0.1j,
                           -1: 0.15 - 0.1j + 1e-13}, real=True), 1.0, 128),
    ]


_ODE_CASES = _ode_cases()


@pytest.mark.parametrize("name,x,alpha,h,t,n_samples", _ODE_CASES,
                         ids=[c[0] for c in _ODE_CASES])
def test_ode_step_map_matches_pointwise_rk4(name, x, alpha, h, t, n_samples):
    got = loops._ode_step_map(x, alpha, h, t, n_samples, _steps(t))
    want = loops._ode_pointwise(x, alpha, h, t, n_samples, _steps(t))
    assert got.shape == want.shape == (n_samples, x.algebra.n, x.algebra.n)
    assert np.abs(got - want).max() <= 1e-13
    # few modes couple in every case, so the check takes the step map
    assert np.array_equal(
        loops._ode_exponential(x, alpha, h, t, n_samples, loops._ODE_DT), got)


def _ode_pointwise_inline(x, alpha, h, t, n_samples, n_steps):
    """``loops._ode_pointwise`` with its own RK4 loop written out."""
    thetas = loops.circle_grid(n_samples)
    xs = x.evaluate(thetas)
    hv = h.evaluate(thetas).real[:, None, None]
    gam = np.broadcast_to(np.eye(x.algebra.n, dtype=complex),
                          (n_samples, x.algebra.n, x.algebra.n)).copy()

    def rhs(g):
        return (np.einsum("jab,jbc->jac", xs, g)
                - alpha * hv * loops._spectral_derivative(g))

    step = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(gam)
        k2 = rhs(gam + 0.5 * step * k1)
        k3 = rhs(gam + 0.5 * step * k2)
        k4 = rhs(gam + step * k3)
        gam = gam + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return gam


@pytest.mark.parametrize("name,x,alpha,h,t,n_samples", _ODE_CASES,
                         ids=[c[0] for c in _ODE_CASES])
def test_ode_pointwise_matches_inline_rk4(name, x, alpha, h, t, n_samples):
    # 50 steps of the recurrence; more would repeat the same arithmetic
    assert np.array_equal(
        loops._ode_pointwise(x, alpha, h, t, n_samples, 50),
        _ode_pointwise_inline(x, alpha, h, t, n_samples, 50))


def _many_modes(algebra, top):
    """A real-form element with every mode 1..top on the first basis element."""
    return _real_form(algebra, {k: (0.3 / top, 0) for k in range(1, top + 1)})


@pytest.mark.parametrize("n,n_samples,top,t,step_map", [
    (2, 256, 8, 1.0, True),     # 4-fold sumset 65 modes: P ~1.8x faster
    (2, 256, 12, 1.0, False),   # 97 modes: P ~1.3x slower
    (3, 512, 4, 1.0, True),     # 33 modes: P ~2.9x faster
    (3, 512, 8, 1.0, False),    # 65 modes: P ~1.4x slower
    (3, 1024, 32, 1.0, False),  # 257 modes: P ~4x slower
    (2, 256, 4, 0.01, False),   # 10 steps do not pay for forming P
])
def test_ode_route_follows_coupled_modes(n, n_samples, top, t, step_map):
    # the ratios are timings of both routes on one x86 core
    x = _many_modes(lie.build_su(n), top)
    h = ScalarField.constant(1.0)
    assert loops._step_map_pays(x, h, n_samples, _steps(t)) is step_map


def test_many_mode_check_is_pointwise_rk4(su2):
    x = _many_modes(su2, 16)
    got = loops._ode_exponential(x, 0.8, _GENERAL, 0.05, 64, loops._ODE_DT)
    want = loops._ode_pointwise(x, 0.8, _GENERAL, 0.05, 64, _steps(0.05))
    assert np.array_equal(got, want)


def test_ode_uses_the_real_part_of_h():
    # the h of the last case against the field of its real part,
    # (h_k + conj(h_-k)) / 2, given exactly
    _, x, alpha, h, t, n_samples = _ODE_CASES[-1]
    re_h = ScalarField({k: 0.5 * (h.coefficients.get(k, 0.0)
                                  + np.conj(h.coefficients.get(-k, 0.0)))
                        for k in (-1, 0, 1)})
    got = loops._ode_step_map(x, alpha, h, t, n_samples, _steps(t))
    want = loops._ode_step_map(x, alpha, re_h, t, n_samples, _steps(t))
    assert np.array_equal(got, want)


def test_noncommuting_rejection_residual_matches_pointwise_rk4(su2):
    # the input of test_semidirect_noncommuting_rejected
    x = FourierLoopElement({1: 0.6 * su2.basis[0], -1: 0.6 * su2.basis[0],
                            0: 0.8 * su2.basis[1]}, su2)
    loop, _ = loops.semidirect_exp(x, 1.0, None, 1.0, 128, verify=False)
    ode = loops._ode_pointwise(x, 1.0, ScalarField.constant(1.0), 1.0, 128,
                               _steps(1.0))
    want = float(np.abs(loop.samples - ode).max())
    with pytest.raises(VerificationError) as err:
        loops.semidirect_exp(x, 1.0, None, 1.0, 128)
    assert want > loops._ODE_TOL
    assert err.value.residual == pytest.approx(want, abs=1e-12)
