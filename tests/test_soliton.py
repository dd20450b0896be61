import math

import numpy as np
import pytest

from loopnet import lie, soliton
from loopnet.errors import CompositionUnsupportedError, NumericError
from loopnet.loops import ScalarField
from loopnet.soliton import (InvalidSolitonError, LinearFactor, PeriodicFactor,
                             SolitonPath)

from conftest import bench_workloads

A_HALF = np.diag([0.5j, -0.5j])
A_QUARTER = np.diag([0.25j, -0.25j])


@pytest.fixture()
def half_twist(su2):
    return SolitonPath.linear(su2, A_HALF)


@pytest.fixture()
def quarter_twist(su2):
    return SolitonPath.linear(su2, A_QUARTER)


@pytest.fixture()
def dressed_quarter(su2):
    # off-diagonal periodic conjugator in front of a noncentral linear twist
    f = ScalarField({1: 0.2, -1: 0.2})
    return SolitonPath(su2, [PeriodicFactor(su2.basis[0], f),
                             LinearFactor(A_QUARTER)])


def test_jump_values(su2, half_twist, quarter_twist):
    h = soliton.jump(half_twist)
    assert np.abs(h + np.eye(2)).max() < 1e-12
    h4 = soliton.jump(quarter_twist)
    assert np.abs(h4 - np.diag([1j, -1j])).max() < 1e-12
    # smooth periodic path is an ordinary loop: jump Id
    ordinary = SolitonPath(su2, [PeriodicFactor(su2.basis[1],
                                                ScalarField({2: 0.3, -2: 0.3}))])
    assert np.abs(soliton.jump(ordinary) - np.eye(2)).max() < 1e-12


def test_jump_x_independence_checked(su2):
    # two non-commuting linear factors: the twist depends on the base point
    b = np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=complex)
    bad = SolitonPath(su2, [LinearFactor(A_QUARTER), LinearFactor(b)])
    with pytest.raises(InvalidSolitonError):
        soliton.jump(bad)
    # a failed check keeps nothing: the next call checks again and raises
    with pytest.raises(InvalidSolitonError):
        soliton.jump(bad)


def test_extendability(half_twist, quarter_twist):
    v = soliton.extendability(half_twist)
    assert v.central and v.extendable and v.center_index == 1
    v4 = soliton.extendability(quarter_twist)
    assert not v4.central and not v4.extendable and v4.center_index is None


def test_extendability_trivial(su2):
    ordinary = SolitonPath(su2, [PeriodicFactor(su2.basis[0],
                                                ScalarField({1: 0.2, -1: 0.2}))])
    v = soliton.extendability(ordinary)
    assert v.central and v.center_index == 0


def test_zeta_t_linear_is_constant(half_twist):
    loop = soliton.zeta_t(half_twist, 0.7)
    want = np.diag([np.exp(0.35j), np.exp(-0.35j)])
    assert np.abs(loop.samples - want).max() < 1e-12


def test_zeta_t_zero(dressed_quarter):
    loop = soliton.zeta_t(dressed_quarter, 0.0)
    assert np.abs(loop.samples - np.eye(2)).max() < 1e-12


def test_zeta_t_periodicity_noncentral(dressed_quarter):
    # periodicity of the derived loop holds even for a noncentral twist;
    # zeta_t raises if the grid comparison over one period fails
    for t in (0.3, 1.0, 2 * math.pi):
        soliton.zeta_t(dressed_quarter, t, 128)


def test_zeta_t_one_parameter_property(dressed_quarter):
    t, s = 0.9, -0.4
    n = 128
    phis = 2 * np.pi * np.arange(n) / n
    lhs = soliton.zeta_t(dressed_quarter, t + s, n).samples
    zt = soliton.zeta_t(dressed_quarter, t, n).samples
    zs_rot = np.einsum(
        "jab,jcb->jac", dressed_quarter.evaluate(phis - t),
        dressed_quarter.evaluate(phis - t - s).conj())
    rhs = np.einsum("jab,jbc->jac", zt, zs_rot)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_rotation_cocycle_central(half_twist):
    loop = soliton.rotation_cocycle_2pi(half_twist)
    assert np.abs(loop.samples + np.eye(2)).max() < 1e-10


def test_rotation_cocycle_ordinary(su2):
    ordinary = SolitonPath(su2, [PeriodicFactor(su2.basis[2],
                                                ScalarField({1: 0.4, -1: 0.4}))])
    loop = soliton.rotation_cocycle_2pi(ordinary)
    assert np.abs(loop.samples - np.eye(2)).max() < 1e-10


def test_rotation_cocycle_noncentral_nonconstant(dressed_quarter):
    loop = soliton.rotation_cocycle_2pi(dressed_quarter)
    spread = np.abs(loop.samples - loop.samples[0]).max()
    assert spread > 1e-2


def test_compose_torus(su2, half_twist, quarter_twist):
    combined = soliton.compose(half_twist, quarter_twist)
    want = soliton.jump(half_twist) @ soliton.jump(quarter_twist)
    assert np.abs(soliton.jump(combined) - want).max() < 1e-12


def test_compose_inverse_trivial(su2, half_twist):
    round_trip = soliton.compose(half_twist, soliton.inverse(half_twist))
    assert np.abs(soliton.jump(round_trip) - np.eye(2)).max() < 1e-12


def test_compose_central_with_ordinary(su2, half_twist):
    ordinary = SolitonPath(su2, [PeriodicFactor(su2.basis[0],
                                                ScalarField({1: 0.3, -1: 0.3}))])
    combined = soliton.compose(half_twist, ordinary)
    assert np.abs(soliton.jump(combined) - soliton.jump(half_twist)).max() < 1e-12


def test_compose_unsupported(su2, quarter_twist):
    off_torus = SolitonPath(su2, [PeriodicFactor(su2.basis[0],
                                                 ScalarField({1: 0.3, -1: 0.3}))])
    with pytest.raises(CompositionUnsupportedError):
        soliton.compose(quarter_twist, off_torus)


def test_compose_refuses_mixed_algebras(half_twist):
    su3_path = SolitonPath.linear(lie.build_su(3), np.diag([0.5j, -0.5j, 0.0]))
    with pytest.raises(CompositionUnsupportedError, match="different algebras"):
        soliton.compose(half_twist, su3_path)


def test_equivalence_keys(su2, half_twist, quarter_twist):
    k1 = soliton.equivalence_key(half_twist)
    k2 = soliton.equivalence_key(quarter_twist)
    assert np.abs(k1 - k2).max() > 0.5
    # right multiplication by a torus-valued ordinary loop leaves the key
    diag_loop = SolitonPath(su2, [PeriodicFactor(np.diag([0.5j, -0.5j]),
                                                 ScalarField({1: 0.4, -1: 0.4}))])
    shifted = soliton.compose(quarter_twist, diag_loop)
    assert np.abs(soliton.equivalence_key(shifted) - k2).max() < 1e-12


def test_equivalence_key_requires_torus(su2, dressed_quarter):
    with pytest.raises(CompositionUnsupportedError):
        soliton.equivalence_key(dressed_quarter)


def test_conjugated_family(su2, quarter_twist):
    c, s = math.cos(0.3), math.sin(0.3)
    g = np.array([[c, s], [-s, c]], dtype=complex)
    conj = soliton.conjugate(quarter_twist, g)
    key = soliton.jump(conj)
    want = g @ soliton.jump(quarter_twist) @ g.conj().T
    assert np.abs(key - want).max() < 1e-12
    assert soliton.keys_conjugate(key, soliton.jump(quarter_twist))
    assert not soliton.keys_conjugate(key, np.eye(2))


def test_path_without_factors_is_identity(su3):
    xs = np.linspace(-7.0, 7.0, 9)
    vals = SolitonPath(su3, []).evaluate(xs)
    assert np.array_equal(vals, np.broadcast_to(np.eye(3), (9, 3, 3)))


@pytest.mark.parametrize("field", [
    ScalarField({1: 0.3}),                        # a complex exponential
    ScalarField({0: 1e-12j}),                     # imaginary part below 1e-12
    ScalarField({1: 0.3, -1: 0.3}, real=False),   # tagged not real
], ids=["exp", "tiny-imag", "tagged-false"])
def test_periodic_factor_refuses_non_real_field(su2, field):
    path = SolitonPath(su2, [PeriodicFactor(su2.basis[0], field)])
    with pytest.raises(NumericError, match="not real"):
        path.evaluate(np.linspace(0.0, 1.0, 5))


def test_torus_valued_is_absolute(su2):
    """Off-diagonal entries up to 1e-12 still count as diagonal."""
    def path(eps):
        return SolitonPath(su2, [LinearFactor(
            np.array([[0.5j, eps], [-eps, -0.5j]]))])

    assert path(0.0).is_torus_valued()
    assert path(1e-12).is_torus_valued()
    assert not path(2e-12).is_torus_valued()


def test_factors_are_decomposed_once(su3, eigh_calls):
    """A path decomposes each generator once, at construction; evaluating,
    jumps and derived loops decompose nothing more."""
    lin = np.diag([1j / 3, 1j / 3, -2j / 3])
    zeta = SolitonPath(su3, [PeriodicFactor(su3.basis[2],
                                            ScalarField({1: 0.2, -1: 0.2})),
                             LinearFactor(lin), LinearFactor(-lin)])
    assert len(eigh_calls) == 3
    zeta.evaluate(np.linspace(-7.0, 7.0, 9))
    soliton.extendability(zeta)
    soliton.zeta_t(zeta, 0.7, 64)
    assert len(eigh_calls) == 3


def test_factors_cannot_be_appended_to(su2, half_twist):
    assert isinstance(half_twist.factors, tuple)
    with pytest.raises(AttributeError):
        half_twist.factors.append(LinearFactor(A_QUARTER))
    assert np.abs(soliton.jump(half_twist) + np.eye(2)).max() < 1e-12


def _counting_evaluations(monkeypatch):
    """Spy on ``SolitonPath.evaluate``: a dict from each path to the
    number of its evaluations at the 2 x 32 points of a jump check."""
    counts = {}
    evaluate = SolitonPath.evaluate

    def counting(self, xs):
        if np.size(xs) == 2 * soliton._JUMP_CHECKS:
            counts[self] = counts.get(self, 0) + 1
        return evaluate(self, xs)

    monkeypatch.setattr(SolitonPath, "evaluate", counting)
    return counts


def test_each_path_verifies_its_jump_once(su2, monkeypatch):
    counts = _counting_evaluations(monkeypatch)
    f = ScalarField({1: 0.2, -1: 0.2})
    zeta = SolitonPath(su2, [PeriodicFactor(np.diag([0.3j, -0.3j]), f),
                             LinearFactor(A_QUARTER)])
    dressed = SolitonPath(su2, [PeriodicFactor(su2.basis[0], f),
                                LinearFactor(A_HALF)])
    eta = SolitonPath.linear(su2, A_HALF)
    soliton.extendability(zeta)
    soliton.equivalence_key(zeta)
    both = soliton.compose(zeta, eta)
    soliton.jump(both)
    soliton.jump(zeta)
    # a non-torus left path is composed through its (central) verdict
    mixed = soliton.compose(dressed, zeta)
    soliton.extendability(dressed)
    soliton.zeta_t(dressed, 0.5, 16)
    soliton.jump(mixed)
    assert counts == {zeta: 1, both: 1, dressed: 1, mixed: 1}


def test_returned_jumps_are_read_only(half_twist):
    h = soliton.jump(half_twist)
    verdict = soliton.extendability(half_twist)
    for jump in (h, verdict.jump, soliton.equivalence_key(half_twist)):
        with pytest.raises(ValueError):
            jump[0, 0] = 0.0
    assert np.abs(soliton.jump(half_twist) + np.eye(2)).max() < 1e-12


def _twist_oracle(zeta):
    """``jump`` before paths kept their verified twist: the check made
    afresh on every call, kept verbatim."""
    xs = np.linspace(0.0, 2 * math.pi, soliton._JUMP_CHECKS, endpoint=False)
    both = zeta.evaluate(np.concatenate([xs, xs + 2 * math.pi]))
    vals, shifted = both[:soliton._JUMP_CHECKS], both[soliton._JUMP_CHECKS:]
    twists = np.einsum("jba,jbc->jac", vals.conj(), shifted)
    h = twists[0]
    assert float(np.abs(twists - h).max()) <= soliton._JUMP_TOL
    return h


@pytest.mark.parametrize("seed", range(4))
def test_bench_soliton_items_match_the_uncached_jumps(seed):
    """Verdict, key, composed jump and conjugated jump of the 12 benchmark
    paths, as the benchmark item forms them, equal byte for byte what a
    fresh check of each path gives."""
    bench = bench_workloads()
    for spec in bench.oneshot_sweep_setup(seed, None)["solitons"]:
        n = spec["n"]
        algebra = lie.build_su(n)
        a = np.array(spec["linear"])
        per = np.diag(1j * np.array(spec["periodic"] + [-sum(spec["periodic"])]))
        c1, c2 = spec["fourier"]
        factors = [PeriodicFactor(per, ScalarField({0: c2, 1: c1, -1: c1})),
                   LinearFactor(np.diag(1j * a))]
        zeta = SolitonPath(algebra, factors)
        verdict = soliton.extendability(zeta)
        key = soliton.equivalence_key(zeta)
        eta = SolitonPath.linear(algebra, np.diag(-0.5j * a))
        composed = soliton.jump(soliton.compose(zeta, eta))
        g = lie.group_exp(algebra.element(bench._generator(algebra, spec["conjugator"])))
        moved = soliton.jump(soliton.conjugate(zeta, g))

        h = _twist_oracle(SolitonPath(algebra, factors))
        centers = [k for k, z in enumerate(lie.center_elements(n))
                   if np.abs(h - z).max() <= soliton._JUMP_TOL]
        assert (verdict.central, verdict.center_index, verdict.extendable) == (
            bool(centers), centers[0] if centers else None, bool(centers))
        for got in (verdict.jump, key):
            assert got.tobytes() == h.tobytes()
        want = _twist_oracle(SolitonPath(algebra, factors + list(eta.factors)))
        assert composed.tobytes() == want.tobytes()
        want = _twist_oracle(soliton.conjugate(SolitonPath(algebra, factors), g))
        assert moved.tobytes() == want.tobytes()
