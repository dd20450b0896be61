"""The one-pass flow of ``loops.semidirect_exp`` against the per-node passes.

``_flow_angles_per_node`` below is the original routine: a separate
1000-step RK4 pass from the grid angles for every Gauss node time, each
with its own step time/1000.  The one-pass flow visits the node times in
order of size and never takes a longer step, so the two agree to rounding.
"""

import math

import numpy as np
import pytest

from loopnet import loops
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
