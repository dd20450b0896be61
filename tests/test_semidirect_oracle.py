"""``loops.semidirect_exp`` and its ODE check against the original routines.

``semidirect_exp`` takes the time-ordered exponential of X along the
characteristics of the flow in sixth-order Magnus steps.  The routes it
replaced were exact only when the values of X commute along the flow, and
on such inputs they stay here as its oracles: ``_oracle_samples`` is the
original general-field route (the pointwise exponential of a 64-node Gauss
average, with per-node flows and a per-sample eigh), and
``_fourier_average`` the original rigid one (a_k -> a_k (1 - e^{-ik alpha
t}) / (ik alpha)).  On non-commuting inputs the oracle is
``loops._ode_pointwise`` at 4,000 steps.

``_flow_angles_per_node`` below is the original flow: a separate
1000-step RK4 pass from the grid angles for every node time, each with
its own step time/1000.  The one-pass flow visits the node times in order
of size and takes its step count N from the field (``loops._flow_steps``,
233 on the general field here, 1,498 on case random-1).  It
stays within 1e-12 of the 1000-step oracle, and within 5e-13 of the same
oracle at 4,000 steps on a seeded family of random fields.

``loops._ode_pointwise`` is the original ODE check: RK4 on the grid
samples, with X and Re h applied pointwise and d_theta by an FFT pair in
every stage.  Both it and the one-pass flow now step through the one
``loops._rk4``; the loops each wrote out before are kept below
(``_flow_angles_inline``, ``_ode_pointwise_inline``) and give the same
arrays bit for bit.  ``loops._ode_step_map`` applies the same RK4 recurrence to
the same semi-discrete operator as one sparse Fourier-space step map, so
the two agree to rounding; ``loops._ode_exponential`` takes the step map
when few Fourier modes couple.  ``multivector_step_map`` is that map as it
applied P to the (N n, n) array of the columns in every step; the
single-vector product with a block diagonal of P gives its samples bit
for bit.

``_magnus_exponents_aos`` and ``_magnus_product_aos`` are the Magnus
exponents and product as they were formed with the matrix axes innermost,
each n x n product a batched ``@``, the product taking its step factors
from a given exponential, and its node angles from one flow pass
(``_node_angles_aos``) whatever its blocks.  The exponents in the
(a, b, step, angle) layout of ``loops._magnus_exponents`` equal them bit
for bit, and with the same factors the products differ in rounding alone.
``_planar_values_from_zeros`` is the mode sum ``loops._planar_values`` as
it started from zeros, equal to it byte for byte.  The step factors were the
stacked-eigh exponentials of ``lie.exp_antihermitian``; they are now
Taylor polynomials (``loops._planar_exp``), and the oracle of both is
``_magnus_product_longdouble``, the product of the same exponents with
every factor and product in long double.
"""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from loopnet import lie, loops
from loopnet.loops import FourierLoopElement, ScalarField

from conftest import random_antihermitian


def _flow_angles_per_node(h, thetas, time, n_steps=1000):
    """Integrate d theta/ds = h(theta) from the given angles for the given time.

    The steps update the displacement d = theta - theta_0, with h read at
    theta_0 + d, so their rounding scales with the displacement and not with
    the angles, which reach 2 pi.
    """
    if n_steps <= 0:
        return thetas.copy()
    dt = time / n_steps
    th0 = thetas.astype(float)
    d = np.zeros_like(th0)

    def rhs(d):
        return h.evaluate(th0 + d).real

    for _ in range(n_steps):
        k1 = rhs(d)
        k2 = rhs(d + 0.5 * dt * k1)
        k3 = rhs(d + 0.5 * dt * k2)
        k4 = rhs(d + dt * k3)
        d += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return th0 + d


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
    # RK4 is exact for h = 1, and the step rule takes one step per node
    # time; what is left is rounding (the per-node route is 4.4e-13 off here)
    thetas = 2 * np.pi * np.arange(32) / 32
    times, _ = _node_times(alpha, t)
    got = loops._flow_angles(ScalarField.constant(1.0), thetas, times)
    assert np.abs(got - (thetas + times[:, None])).max() <= 2e-13


def _flow_angles_inline(h, thetas, times):
    """``loops._flow_angles`` with its own RK4 loop written out."""
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), len(thetas)))
    reach = np.abs(times).max(initial=0.0)
    h_max = reach / loops._flow_steps(h, reach)
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
    # 4 field evaluations per step; the steps add up to the rule's N plus at
    # most one per node from rounding each gap up
    h = _CountingField({0: 1.0, 1: 0.15, -1: 0.15})
    _CountingField.calls = 0
    times, _ = _node_times(0.7, 1.0)
    loops._flow_angles(h, np.linspace(0.0, 6.0, 8), times)
    steps = loops._flow_steps(h, np.abs(times).max())
    assert 4 * steps <= _CountingField.calls <= 4 * (steps + len(times))


def _flow_family():
    """Seeded random fields with |alpha| >= 0.4, both signs of alpha and t."""
    rng = np.random.default_rng(21)
    return [(f"family-{i}", _random_field(rng),
             float(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.5)),
             float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)))
            for i in range(6)]


_FLOW_FAMILY = _flow_family()


@pytest.mark.parametrize("name,h,alpha,t", _FLOW_FAMILY,
                         ids=[c[0] for c in _FLOW_FAMILY])
def test_flow_steps_are_accurate_across_fields(name, h, alpha, t):
    # 4 angles at 8 of the 64 node times, the farthest included, against the
    # per-node pass at 4,000 steps; constant fields take the exact rotation
    thetas = 2 * np.pi * np.arange(4) / 4 + 0.3
    every, _ = _node_times(alpha, t)
    times = every[::9]
    assert times[-1] == every[-1]
    tiled = np.tile(thetas, len(times))
    want = _flow_angles_per_node(h, tiled, np.repeat(times, len(thetas)),
                                 n_steps=4000).reshape(len(times), -1)
    assert np.abs(loops._flow_angles(h, thetas, times) - want).max() <= 5e-13


def test_semidirect_samples_match_per_node(su2):
    # the input of test_semidirect_general_field; every sample depends only
    # on its own angle, so every 8th grid angle is checked against the oracle
    x0 = su2.basis[2]
    x = FourierLoopElement({1: 0.3 * x0, -1: 0.3 * x0}, su2)
    loop, _ = loops.semidirect_exp(x, 0.7, _GENERAL, 1.0, 256, verify=False)
    want = _oracle_samples(x, 0.7, _GENERAL, 1.0, loop.thetas[::8])
    assert np.abs(loop.samples[::8] - want).max() <= 1e-14


def _fourier_average(x, alpha, speed, t, thetas):
    """The old rigid-field samples: the pointwise exponential of the
    flow-averaged symbol, averaged mode by mode."""
    avg = {k: t * a if k * alpha * speed == 0.0 else
           a * (1.0 - np.exp(-1j * k * alpha * speed * t)) / (1j * k * alpha * speed)
           for k, a in x.coefficients.items()}
    return lie.exp_antihermitian(FourierLoopElement(avg, x.algebra).evaluate(thetas))


@pytest.mark.parametrize("speed,alpha,t", [(1.0, 1.3, 0.8), (0.6, -0.9, -1.2)])
def test_semidirect_rigid_matches_fourier_average(su2, speed, alpha, t):
    # one generator direction, modes 0, +-1 and +-3: its values commute
    x0 = su2.basis[1]
    x = FourierLoopElement({0: 0.2 * x0, 1: 0.3j * x0, -1: -0.3j * x0,
                            3: 0.1 * x0, -3: 0.1 * x0}, su2)
    h = ScalarField.constant(speed)
    loop, _ = loops.semidirect_exp(x, alpha, h, t, 128, verify=False)
    want = _fourier_average(x, alpha, speed, t, loop.thetas)
    # measured 1.2e-14 and 9.8e-15
    assert np.abs(loop.samples - want).max() <= 5e-14


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


def multivector_step_map(x, alpha, h, t, n_samples, n_steps):
    """``loops._ode_step_map`` as it applied P to the (N n, n) array of the
    n columns of gamma in every step: SciPy's multi-vector product."""
    n = x.algebra.n
    modes = np.arange(n_samples)

    def shift(k, weights):
        """Mode m to mode m + k (mod N), with weight weights[m]."""
        return scipy.sparse.coo_array(
            (weights, ((modes + k) % n_samples, modes)), shape=(n_samples,) * 2)

    # state row m * n + a holds row a of the mode-m coefficient
    size = n_samples * n
    gen = scipy.sparse.csr_array((size, size), dtype=complex)
    for k, a in x.coefficients.items():
        gen += scipy.sparse.kron(shift(k, np.ones(n_samples)), a)
    deriv = -alpha * loops._derivative_symbol(n_samples)
    for k, coeff in loops._re_modes(h).items():
        gen += scipy.sparse.kron(shift(k, coeff * deriv), np.eye(n))
    step = t / n_steps
    eye = scipy.sparse.identity(size, dtype=complex, format="csr")
    prop = eye
    for j in (4, 3, 2, 1):
        prop = eye + (step / j) * (gen @ prop)
    gam = np.zeros((size, n), dtype=complex)
    gam[:n] = np.eye(n)
    for _ in range(n_steps):
        gam = prop @ gam
        # exact coefficients are at most 1 in size; the near-empty high modes
        # are zeroed below 1e-250 so they never hold subnormal numbers, whose
        # arithmetic is many times slower
        parts = gam.view(float)
        parts[np.abs(parts) < 1e-250] = 0.0
    return np.fft.ifft(gam.reshape(n_samples, n, n), axis=0, norm="forward")


@pytest.mark.parametrize("name,x,alpha,h,t,n_samples", _ODE_CASES,
                         ids=[c[0] for c in _ODE_CASES])
def test_ode_step_map_is_the_multivector_map_bit_for_bit(name, x, alpha, h, t,
                                                         n_samples):
    # the block diagonal repeats P's own arrays, so every row sums the same
    # terms in the same order as P applied to one column
    got = loops._ode_step_map(x, alpha, h, t, n_samples, _steps(t))
    want = multivector_step_map(x, alpha, h, t, n_samples, _steps(t))
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def _csr_bytes(a):
    return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


@pytest.mark.parametrize("name,x,alpha,h,t,n_samples", _ODE_CASES,
                         ids=[c[0] for c in _ODE_CASES])
def test_block_diagonal_holds_n_copies_of_p(name, x, alpha, h, t, n_samples):
    # exactly n nnz(P) entries, in P's order block by block, in at most n
    # times P's memory; on su3 at N = 512, with int64 indices, P holds
    # 74,220 entries in 1.79 MB and the operator 222,660 in 5.38 MB
    n = x.algebra.n
    prop = loops._step_propagator(x, alpha, h, t, n_samples, _steps(t))
    ops = loops._block_diagonal(prop, n)
    size = n_samples * n
    assert ops.shape == (n * size, n * size)
    assert ops.nnz == n * prop.nnz
    assert _csr_bytes(ops) <= n * _csr_bytes(prop)
    for c in range(n):
        block = ops[c * size:(c + 1) * size, c * size:(c + 1) * size]
        assert np.array_equal(block.indptr, prop.indptr)
        assert np.array_equal(block.indices, prop.indices)
        assert block.data.tobytes() == prop.data.tobytes()


_HASH_SEED_PROBE = """
import hashlib, json, sys
sys.path[:0] = sys.argv[1:]
import test_semidirect_oracle as oracle
from loopnet import loops
out = []
for name, x, alpha, h, t, n_samples in oracle._ODE_CASES:
    prop = loops._step_propagator(x, alpha, h, t, n_samples, oracle._steps(t))
    ops = loops._block_diagonal(prop, x.algebra.n)
    samples = loops._ode_exponential(x, alpha, h, t, n_samples, loops._ODE_DT)
    out.append([name, [str(a.dtype) for a in (prop.indices, prop.indptr,
                                                ops.indices, ops.indptr)],
                hashlib.sha256(samples.tobytes()).hexdigest()])
print(json.dumps(out))
"""


@functools.lru_cache(maxsize=None)
def _hash_seed_probes():
    """The probe's (name, index types, sample hash) rows of every
    ``_ODE_CASES`` case, in processes under PYTHONHASHSEED 0 and 1."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(loops.__file__))
    runs = [subprocess.Popen([sys.executable, "-c", _HASH_SEED_PROBE, tests, src],
                             env=dict(os.environ, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, text=True)
            for seed in ("0", "1")]
    printed = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    return tuple(map(json.loads, printed))


@pytest.mark.parametrize("case", range(len(_ODE_CASES)),
                         ids=[c[0] for c in _ODE_CASES])
def test_step_map_is_int64_and_the_same_bytes_under_two_hash_seeds(case):
    # SciPy's sparse-matrix sums pick their index type from the contents of
    # their output buffers, unset entries included, so a P built through
    # one could change type from process to process (and speed with it)
    first, second = (rows[case] for rows in _hash_seed_probes())
    assert first[0] == _ODE_CASES[case][0]
    assert first[1] == ["int64"] * 4
    assert first == second


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
    (2, 256, 8, 1.0, True),     # 4-fold sumset 65 modes: 274 / 662 ms
    (2, 256, 12, 1.0, True),    # 97 modes: 398 / 660 ms
    (3, 512, 4, 1.0, True),     # 33 modes: 495 / 1541 ms
    (3, 512, 8, 1.0, True),     # 65 modes: 780 / 1586 ms
    (3, 1024, 32, 1.0, False),  # 257 modes: 8513 / 1994 ms
    (2, 256, 4, 0.01, False),   # 10 steps do not pay for forming P: 9 / 7 ms
])
def test_ode_route_follows_coupled_modes(n, n_samples, top, t, step_map):
    # the times are step map / pointwise RK4, each route whole, min of 2 on
    # one x86 core with one BLAS thread; the route is the faster one
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


# ---------------------------------------------------------------------------
# Non-commuting inputs and the Magnus steps
# ---------------------------------------------------------------------------

_ODE_REFERENCE_STEPS = 4000


def _two_direction_su2():
    """0.4 x_0 + 0.3 x_1 at modes +-1 and 0.5 x_1 at mode 0: its values at
    different angles do not commute."""
    su2 = lie.build_su(2)
    x0, x1 = (su2.basis_element(i).matrix for i in (0, 1))
    return FourierLoopElement({1: 0.4 * x0 + 0.3 * x1, -1: 0.4 * x0 + 0.3 * x1,
                               0: 0.5 * x1}, su2)


_NONCOMMUTING = {
    "su2-rigid": (_two_direction_su2(), 1.0, ScalarField.constant(1.0), 1.0),
    "su2-general": (_two_direction_su2(), 1.0, _GENERAL, 1.0),
    "su2-general-negative-t": (_two_direction_su2(), 1.0, _GENERAL, -1.0),
    "su3-complex-h": {c[0]: c[1:5] for c in _ODE_CASES}["su3-two-mode-complex-h"],
}


@functools.lru_cache(maxsize=None)
def _ode_reference(name):
    x, alpha, h, t = _NONCOMMUTING[name]
    return loops._ode_pointwise(x, alpha, h, t, 64, _ODE_REFERENCE_STEPS)


@pytest.mark.parametrize("name", list(_NONCOMMUTING))
def test_noncommuting_matches_pointwise_rk4(name):
    # measured 1.4e-14 to 2.6e-14; the first-Magnus-term route it replaces
    # was 3.2e-2 off on the su2 element and 7.9e-3 on the su3 one
    x, alpha, h, t = _NONCOMMUTING[name]
    loop, rot = loops.semidirect_exp(x, alpha, h, t, 64, verify=True)
    assert rot == alpha * t
    assert np.abs(loop.samples - _ode_reference(name)).max() <= 1e-12


def test_magnus_steps_converge_at_sixth_order():
    # the error falls 2^6 = 64-fold per doubling (measured 64.7, 64.1, 64.0);
    # at 32 steps it is still 1e-13, far above the reference's own error
    x, alpha, h, t = _NONCOMMUTING["su2-general"]
    thetas = loops.circle_grid(64)
    errors = [np.abs(loops._magnus_product(x, alpha, h, t, thetas, m)
                     - _ode_reference("su2-general")).max()
              for m in (4, 8, 16, 32)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(48 <= r <= 80 for r in ratios), ratios


def _mode_sum(x, thetas):
    """X at ``thetas``, shape (len(thetas), n, n), as
    ``FourierLoopElement.evaluate`` summed it before it read
    ``loops._planar_values``: one exp(ik theta) per mode, in coefficient
    order."""
    n = x.algebra.n
    out = np.zeros((len(thetas), n, n), dtype=complex)
    for k, a in x.coefficients.items():
        out += np.exp(1j * k * thetas)[:, None, None] * a
    return out


def _node_angles_aos(alpha, h, t, thetas, n_steps):
    """The angles at which the Magnus steps read X, shape (n_steps, 3,
    len(thetas)), from one flow pass through all the node times."""
    taus = (np.arange(n_steps)[:, None] + loops._MAGNUS_NODES) * (t / n_steps)
    times = (-alpha * (t - taus)).ravel()
    if h.modes() in ([], [0]):
        # a constant field flows by the exact rotation theta + h_0 s
        speed = h.coefficients.get(0, complex(0.0)).real
        angles = thetas + speed * times[:, None]
    else:
        angles = loops._flow_angles(h, thetas, times)
    return angles.reshape(n_steps, 3, len(thetas))


def _magnus_exponents_aos(x, angles, step):
    """The Magnus exponents as ``loops._magnus_exponents`` formed them with
    the matrix axes innermost, from node angles (step, node, angle), shape
    (steps, angles, n, n), each product a batched ``@``."""
    n = x.algebra.n
    a1, a2, a3 = _mode_sum(x, angles.ravel()).reshape(
        *angles.shape, n, n).swapaxes(0, 1)

    def bracket(p, q):
        # p, q anti-hermitian: qp = (pq)^dagger
        pq = p @ q
        return pq - pq.conj().swapaxes(-1, -2)

    # Blanes-Casas-Oteo-Ros, Phys. Rep. 470 (2009): the three-node step
    b1 = step * a2
    b2 = (math.sqrt(15.0) * step / 3.0) * (a3 - a1)
    b3 = (10.0 * step / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = bracket(b1, b2)
    c2 = (-1.0 / 60.0) * bracket(b1, 2.0 * b3 + c1)
    return b1 + b3 / 12.0 + bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def _magnus_product_aos(x, alpha, h, t, thetas, n_steps, exp):
    """The Magnus product as ``loops._magnus_product`` forms it from
    ``_magnus_exponents_aos``: the node angles from one flow pass, then
    each block's step factors ``exp`` of its exponents, (step, angle, n,
    n), each applied by a batched ``@``, the latest step on the left."""
    n = x.algebra.n
    per_block = max(1, min(loops._MAGNUS_BLOCK, loops._MAGNUS_ENTRIES // (n * n))
                    // len(thetas))
    angles = _node_angles_aos(alpha, h, t, thetas, n_steps)
    out = np.broadcast_to(np.eye(n, dtype=complex), (len(thetas), n, n))
    for first in range(0, n_steps, per_block):
        for factor in exp(_magnus_exponents_aos(
                x, angles[first:first + per_block], t / n_steps)):
            out = factor @ out
    return out


def _taylor_aos(stack):
    """``loops._planar_exp`` of a stack laid out (..., n, n), in that layout."""
    return np.moveaxis(loops._planar_exp(np.moveaxis(stack, (-2, -1), (0, 1))),
                       (0, 1), (-2, -1))


def _exp_longdouble(stack, degree=30):
    """The Taylor series of exp through ``degree``, in clongdouble, of a
    stack laid out (..., n, n); up to |stack| = 1/16 its tail is below
    1e-60."""
    out = np.broadcast_to(np.eye(stack.shape[-1], dtype=np.clongdouble),
                          stack.shape).copy()
    term = out.copy()
    for k in range(1, degree + 1):
        term = (stack @ term) / k
        out += term
    return out


def _magnus_product_longdouble(x, alpha, h, t, thetas, n_steps):
    """The product of the same step exponents as ``loops._magnus_product``,
    block by block, with every factor (``_exp_longdouble``) and every
    product in clongdouble, whose eps is 1.1e-19."""
    return _magnus_product_aos(
        x, alpha, h, t, thetas, n_steps,
        lambda stack: _exp_longdouble(stack.astype(np.clongdouble)))


def _magnus_cases():
    """The non-commuting inputs on 64 points, the benchmark's two on 256,
    the su3 ODE case on 512 and an su4 element, general and rigid, on 128."""
    cases = {c[0]: c[1:] for c in _ODE_CASES}
    su4 = lie.build_su(4)
    x4 = _real_form(su4, {0: (0.2j, 3), 1: (0.25 - 0.1j, 0), 2: (0.1j, 9)})
    out = {name: (*spec, 64) for name, spec in _NONCOMMUTING.items()}
    for name in ("bench-rigid", "bench-general", "su3-two-mode-complex-h"):
        out[name] = cases[name]
    out["su4-general"] = (x4, 0.8, _GENERAL, 0.9, 128)
    out["su4-rigid"] = (x4, 0.8, ScalarField.constant(1.0), 0.9, 128)
    return out


_MAGNUS_CASES = _magnus_cases()


def _magnus_case(name):
    """(x, alpha, h, t, grid angles, Magnus steps) of a case."""
    x, alpha, h, t, n_samples = _MAGNUS_CASES[name]
    return (x, alpha, h, t, loops.circle_grid(n_samples),
            loops._magnus_steps(x, alpha, h, t))


# None: the default block, 2^10 points (4 steps on su2 at 256 angles, 16 at
# 64, 2 on su3 at 512, 8 on su4 at 128); one step a block; 4; and the whole
# product as one block
_BLOCKINGS = [None, 1, 4, 1000]


@functools.lru_cache(maxsize=None)
def _default_block_bytes(name):
    """The bytes of a case's ``_magnus_product`` at the default block."""
    x, alpha, h, t, thetas, m = _magnus_case(name)
    return loops._magnus_product(x, alpha, h, t, thetas, m).tobytes()


@pytest.mark.parametrize("steps_per_block", _BLOCKINGS[1:])
@pytest.mark.parametrize("name", list(_MAGNUS_CASES))
def test_magnus_product_is_the_same_bytes_in_every_blocking(name, steps_per_block,
                                                            monkeypatch):
    # the node angles come from one flow pass whatever the blocks, and every
    # block here takes the Taylor degree of the whole product, so the blocks
    # move no bit: the oracles below run at the default block alone
    want = _default_block_bytes(name)
    x, alpha, h, t, thetas, m = _magnus_case(name)
    points = steps_per_block * len(thetas)
    monkeypatch.setattr(loops, "_MAGNUS_BLOCK", points)
    monkeypatch.setattr(loops, "_MAGNUS_ENTRIES", points * x.algebra.n ** 2)
    assert loops._magnus_product(x, alpha, h, t, thetas, m).tobytes() == want


@pytest.mark.parametrize("name", list(_MAGNUS_CASES))
def test_planar_magnus_matches_the_aos_route(name):
    # the node angles and the exponents are the same arithmetic laid out
    # (node, step, angle) and (a, b, step, angle), bit for bit.  With the
    # same Taylor factors on both sides, the products differ only in the
    # rounding of the n x n products (the batched @ rounds with fused
    # multiply-adds), by at most 7.5 eps
    x, alpha, h, t, thetas, m = _magnus_case(name)
    n = x.algebra.n
    [nodes] = loops._node_angles(alpha, h, t, thetas, m, m)
    angles = _node_angles_aos(alpha, h, t, thetas, m)
    assert np.array_equal(nodes, angles.transpose(1, 0, 2))
    planar = loops._magnus_exponents(x, nodes, t / m)
    assert planar.shape == (n, n, m, len(thetas))
    assert np.array_equal(planar.transpose(2, 3, 0, 1),
                          _magnus_exponents_aos(x, angles, t / m))
    got = loops._magnus_product(x, alpha, h, t, thetas, m)
    assert got.shape == (len(thetas), n, n) and got.flags.c_contiguous
    assert (np.abs(got - _magnus_product_aos(x, alpha, h, t, thetas, m, _taylor_aos)).max()
            <= 10 * np.finfo(float).eps)


@pytest.mark.parametrize("name", list(_MAGNUS_CASES))
def test_magnus_product_is_within_10_eps_of_a_long_double_product(name):
    # against the product of the same exponents in clongdouble, the Taylor
    # factors multiplied in the planar layout are 3.5-8.4 eps off, the
    # stacked-eigh factors (lie.exp_antihermitian) through the batched @
    # 17-76 eps
    x, alpha, h, t, thetas, m = _magnus_case(name)
    want = _magnus_product_longdouble(x, alpha, h, t, thetas, m)
    taylor = np.abs(loops._magnus_product(x, alpha, h, t, thetas, m) - want).max()
    eigh = np.abs(_magnus_product_aos(x, alpha, h, t, thetas, m,
                                      lie.exp_antihermitian) - want).max()
    eps = np.finfo(float).eps
    assert taylor <= 10 * eps
    assert taylor <= eigh


def test_taylor_terms_at_the_largest_magnus_exponent():
    # an exponent is the three-node Gauss rule of X over its step plus
    # brackets of order (|step| size)^2 |step| turn, where _magnus_steps
    # keeps |step| (size + turn) <= 1/16, so its Frobenius norm is at most
    # 1/16; the exponents of the Magnus cases reach 0.034
    largest = 1.0 / 16.0
    terms = lie._taylor_terms(largest)
    assert terms == 9
    assert largest ** terms / math.factorial(terms) <= 2.0 ** -53
    assert largest ** (terms - 1) / math.factorial(terms - 1) > 2.0 ** -53
    assert lie._taylor_terms(0.0) == 1
    assert lie._taylor_terms(0.034) == 8
    for name, (x, alpha, h, t, n_samples) in _MAGNUS_CASES.items():
        m = loops._magnus_steps(x, alpha, h, t)
        [nodes] = loops._node_angles(alpha, h, t, loops.circle_grid(n_samples), m, m)
        exponents = loops._magnus_exponents(x, nodes, t / m)
        assert np.linalg.norm(exponents, axis=(0, 1)).max() <= largest, name
    # the dropped tail is below (1/16)^9 / 9! = 4.0e-17, and at that norm
    # the polynomial is within rounding of the long-double series
    # (measured 0.25 eps)
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        algebra = lie.build_su(n)
        stack = np.array([random_antihermitian(algebra, rng, largest)
                          for _ in range(64)])
        want = _exp_longdouble(stack.astype(np.clongdouble))
        assert np.abs(_taylor_aos(stack) - want).max() <= np.finfo(float).eps


def test_planar_exp_takes_the_degree_of_the_rule(su3, monkeypatch):
    # Horner's rule makes one product per degree past the first, and the
    # degree is the rule's at the largest Frobenius norm of the stack: 8
    # at 0.034 (the rule is conservative, so one term fewer would still be
    # accurate and only this count tells it)
    rng = np.random.default_rng(3)
    stack = np.array([random_antihermitian(su3, rng, scale)
                      for scale in (0.01, 0.034, 0.02)])
    calls = []
    matmul = loops._planar_matmul
    monkeypatch.setattr(loops, "_planar_matmul",
                        lambda p, q: calls.append(1) or matmul(p, q))
    got = _taylor_aos(stack)
    assert len(calls) == lie._taylor_terms(0.034) - 1 == 7
    want = _exp_longdouble(stack.astype(np.clongdouble))
    assert np.abs(got - want).max() <= np.finfo(float).eps


def test_semidirect_exp_takes_no_eigh(su2, eigh_calls):
    for h in (None, _GENERAL):
        loops.semidirect_exp(_cos_element(su2, 0.3, [0.6, 0.0, 0.8]), 0.7, h,
                             1.0, 64, verify=True)
    assert eigh_calls == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_values_are_the_mode_sum_bit_for_bit(n):
    # one exp per |k| and conj(e^{ik theta}) for e^{-ik theta} give the
    # numbers of one exp per mode, with a k = 0 mode, partners apart in the
    # coefficient order, and a mode (3) without its -k partner
    algebra = lie.build_su(n)
    rng = np.random.default_rng(n)
    coeffs = {k: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
              for k in (2, 0, -1, 3, -2, 1, 5, -5)}
    x = FourierLoopElement(coeffs, algebra)
    angles = rng.uniform(-20.0, 20.0, size=(3, 5, 16))
    want = _mode_sum(x, angles.ravel())
    got = loops._planar_values(x, angles)
    assert got.shape == (n, n, 3, 5, 16)
    assert np.array_equal(np.moveaxis(got, (0, 1), (-2, -1)).reshape(-1, n, n), want)
    values = x.evaluate(angles.ravel())
    assert values.flags.c_contiguous
    assert np.array_equal(values, want)


def _planar_values_from_zeros(x, angles):
    """``loops._planar_values`` as it summed the modes into zeros, each
    term a fresh full-size product."""
    n = x.algebra.n
    out = np.zeros((n, n, *angles.shape), dtype=complex)
    spread = (slice(None), slice(None)) + (None,) * angles.ndim
    kept = {}
    for k, a in x.coefficients.items():
        phase = kept.pop(-k, None)
        if phase is None:
            phase = np.exp(1j * abs(k) * angles)
            if k and -k in x.coefficients:
                kept[k] = phase
        out += (phase if k >= 0 else phase.conj()) * a[spread]
    return out


@pytest.mark.parametrize("name", list(_MAGNUS_CASES))
def test_planar_values_are_the_sum_from_zeros_bit_for_bit(name):
    # bytes, so a signed zero counts too: a first term whose entry is
    # -0.0 (a zero entry of a coefficient times a phase, as on all but the
    # two bench cases) is +0.0 in a sum that starts from zeros, and so in
    # the values
    x, alpha, h, t, n_samples = _MAGNUS_CASES[name]
    m = loops._magnus_steps(x, alpha, h, t)
    [nodes] = loops._node_angles(alpha, h, t, loops.circle_grid(n_samples), m, m)
    want = _planar_values_from_zeros(x, nodes)
    assert loops._planar_values(x, nodes).tobytes() == want.tobytes()
    thetas = np.linspace(-7.0, 7.0, 301)
    values = np.moveaxis(_planar_values_from_zeros(x, thetas), (0, 1), (-2, -1))
    assert x.evaluate(thetas).tobytes() == np.ascontiguousarray(values).tobytes()


def test_planar_values_of_one_mode_and_of_none(su2):
    # with one mode the first term is the whole sum: its -0.0 entries (the
    # zero entries of the coefficient times phases of negative real part)
    # must come out +0.0 as from zeros; with none the values are zeros
    angles = np.linspace(-7.0, 7.0, 60).reshape(3, 20)
    for coeffs in ({1: su2.basis[0]}, {-2: su2.basis[2]}, {}):
        x = FourierLoopElement(coeffs, su2, real_form=False)
        want = _planar_values_from_zeros(x, angles)
        assert loops._planar_values(x, angles).tobytes() == want.tobytes()
    assert not want.any() and want.shape == (2, 2, 3, 20)


def _blocked(name, steps_per_block, monkeypatch):
    """``_magnus_product`` on a 64-point grid in blocks of the given size."""
    x, alpha, h, t = _NONCOMMUTING[name]
    monkeypatch.setattr(loops, "_MAGNUS_BLOCK", steps_per_block * 64)
    return loops._magnus_product(x, alpha, h, t, loops.circle_grid(64),
                                 loops._magnus_steps(x, alpha, h, t))


def test_magnus_blocks_bound_memory(monkeypatch):
    # 4 steps a block: 10 blocks in place of one.  A rigid step reads the
    # same angles in any block, so the product is the same
    peaks, results = [], []
    for steps_per_block in (40, 4):
        tracemalloc.start()
        try:
            results.append(_blocked("su2-rigid", steps_per_block, monkeypatch))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 4
    assert np.array_equal(*results)


def test_magnus_blocks_of_a_general_field(monkeypatch):
    # 45 steps in blocks of 16 and of 1: the node angles come from one flow
    # pass whatever the blocks, and every block here takes the Taylor
    # degree of the whole product, so the blocks move no bit
    one = _blocked("su2-general", 45, monkeypatch)
    for steps_per_block in (16, 1):
        assert np.array_equal(_blocked("su2-general", steps_per_block, monkeypatch), one)


def test_semidirect_exp_flows_once_whatever_the_blocks(monkeypatch):
    # the benchmark's general call, verified, in blocks of one step and in
    # one block: one _flow_angles pass through all 69 node times, with the
    # same RK4 steps (4 field evaluations a step)
    _, x, alpha, _, t, n_samples = _ODE_CASES[1]
    passes = []
    flow = loops._flow_angles
    monkeypatch.setattr(loops, "_flow_angles",
                        lambda *args: passes.append(1) or flow(*args))
    evaluations = []
    for steps_per_block in (1, 1000):
        monkeypatch.setattr(loops, "_MAGNUS_BLOCK", steps_per_block * n_samples)
        h = _CountingField({0: 1.0, 1: 0.15, -1: 0.15})
        _CountingField.calls = 0
        passes.clear()
        loops.semidirect_exp(x, alpha, h, t, n_samples, verify=True)
        assert len(passes) == 1
        evaluations.append(_CountingField.calls)
    assert evaluations[0] == evaluations[1] >= 4 * 232


def test_magnus_product_memory_on_bench_inputs():
    # the node angles (3 M N floats: 0.17 and 0.14 MB) and the arrays of
    # one block (4 steps of 256 angles, 64 KB an array); measured 1.18 and
    # 1.16 MB, where the product in one block took 6.3 and 5.2 MB
    for name, x, alpha, h, t, n_samples in _ODE_CASES[:2]:
        thetas = loops.circle_grid(n_samples)
        m = loops._magnus_steps(x, alpha, h, t)
        tracemalloc.start()
        try:
            loops._magnus_product(x, alpha, h, t, thetas, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20, name


@pytest.mark.parametrize("name", list(_MAGNUS_CASES))
def test_node_angles_in_segments_are_the_one_pass_bit_for_bit(name):
    # a general field flows segment by segment from the last, then again
    # from each later segment's start, with the steps of one pass: every
    # segmenting gives its angles, and a constant field the same rotation
    x, alpha, h, t, n_samples = _MAGNUS_CASES[name]
    thetas = loops.circle_grid(n_samples)
    m = loops._magnus_steps(x, alpha, h, t)
    [whole] = loops._node_angles(alpha, h, t, thetas, m, m)
    for per_segment in (1, 7):
        segments = list(loops._node_angles(alpha, h, t, thetas, m, per_segment))
        assert len(segments) == -(-m // per_segment)
        assert np.array_equal(np.concatenate(segments, axis=1), whole)


def test_semidirect_exp_in_segments_flows_a_segment_twice(monkeypatch):
    # the benchmark's general call in the shortest segments, sqrt(23) = 4
    # steps: 6 flow passes from the last segment, then 5 segments again,
    # where one segment takes one pass.  The samples move no bit
    _, x, alpha, _, t, n_samples = _ODE_CASES[1]
    passes, runs = [], []
    flow = loops._flow_angles
    monkeypatch.setattr(loops, "_flow_angles",
                        lambda *args: passes.append(1) or flow(*args))
    for segment in (loops._MAGNUS_SEGMENT, 1):
        monkeypatch.setattr(loops, "_MAGNUS_SEGMENT", segment)
        h = _CountingField({0: 1.0, 1: 0.15, -1: 0.15})
        _CountingField.calls = 0
        passes.clear()
        grid, _ = loops.semidirect_exp(x, alpha, h, t, n_samples, verify=False)
        runs.append((len(passes), _CountingField.calls, grid.samples.tobytes()))
    (one, once, want), (many, evaluations, got) = runs
    assert (one, many) == (1, 11)
    assert got == want
    assert once < evaluations < 2 * once


def test_magnus_product_memory_at_many_steps():
    # 4000 rigid steps on 64 angles, in segments of 1024 steps whose node
    # angles take 1.5 MB: at most three of them are held at once, as the
    # next segment is laid out.  Measured 4.7 MB; all 4000 steps' angles at
    # once took 11.9 MB
    x, alpha, h, t = _NONCOMMUTING["su2-rigid"]
    m = loops._magnus_steps(x, alpha, h, 100 * t)
    assert m == 4000
    tracemalloc.start()
    try:
        loops._magnus_product(x, alpha, h, 100 * t, loops.circle_grid(64), m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


def test_magnus_blocks_cap_matrix_entries(monkeypatch):
    # 2^10 (step, angle) points a block, 16 steps of 64 angles, and at most
    # _MAGNUS_ENTRIES matrix entries (2^18, which binds from su17 up): with
    # the cap lowered to 3 steps of su2 at 64 angles, and below one step
    assert loops._MAGNUS_BLOCK == 1 << 10 and loops._MAGNUS_ENTRIES == 1 << 18
    x, alpha, h, t = _NONCOMMUTING["su2-rigid"]
    m = loops._magnus_steps(x, alpha, h, t)
    sizes, blocks = [], []
    exponents = loops._magnus_exponents
    monkeypatch.setattr(loops, "_magnus_exponents", lambda x, nodes, step: (
        sizes.append(nodes.shape[1]) or exponents(x, nodes, step)))
    for entries in (loops._MAGNUS_ENTRIES, 3 * 64 * 4, 1):
        monkeypatch.setattr(loops, "_MAGNUS_ENTRIES", entries)
        sizes.clear()
        loops._magnus_product(x, alpha, h, t, loops.circle_grid(64), m)
        blocks.append(max(sizes))
    assert blocks == [16, 3, 1]


def test_magnus_steps_on_bench_inputs():
    # ceil(16 |t| (sum_k |a_k|_F + |alpha| sum_k |h_k| max|k|)): 16 (0.717 + 1)
    # and 16 (0.519 + 0.7 * 1.3)
    for (name, x, alpha, h, t, _), want in zip(_ODE_CASES[:2], (28, 23)):
        assert loops._magnus_steps(x, alpha, h, t) == want, name
    _, x, alpha, h, _, _ = _ODE_CASES[0]
    assert loops._magnus_steps(x, alpha, h, 0.0) == 1
    assert loops._magnus_steps(x, alpha, h, -1.0) == 28


def test_flow_steps_on_bench_inputs():
    # ceil(256 max|s| sum_k |h_k| max|k|), max|s| = |alpha t| (1 + z) / 2 at
    # the last 64-point Gauss node z: 256 * 0.69975 * 1.3 on the benchmark's
    # general field, and 1,498 > 1000 on the strong random-1 field
    cases = {c[0]: c[1:] for c in _CASES}
    for name, want in (("general", 233), ("general-negative-alpha", 233),
                       ("random-1", 1498)):
        h, alpha, t = cases[name]
        times, _ = _node_times(alpha, t)
        assert loops._flow_steps(h, np.abs(times).max()) == want, name
    # the Magnus node times of the benchmark's call reach 0.7 (1 - 0.113/23)
    _, x, alpha, h, t, _ = _ODE_CASES[1]
    taus = (np.arange(23)[:, None] + loops._MAGNUS_NODES) / 23
    assert loops._magnus_steps(x, alpha, h, t) == 23
    assert loops._flow_steps(h, np.abs(alpha * (t - taus)).max()) == 232
    # alpha = 0 or t = 0: every node time is 0, so no step is taken
    thetas = np.linspace(0.0, 6.0, 8)
    for alpha, t in ((0.0, 1.0), (0.7, 0.0)):
        h = _CountingField({0: 1.0, 1: 0.15, -1: 0.15})
        _CountingField.calls = 0
        times, _ = _node_times(alpha, t)
        assert loops._flow_steps(h, np.abs(times).max()) == 1
        got = loops._flow_angles(h, thetas, times)
        assert _CountingField.calls == 0
        assert np.array_equal(got, np.broadcast_to(thetas, got.shape))
