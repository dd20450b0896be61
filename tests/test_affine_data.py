from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from loopnet import affine_data, lie
from loopnet.errors import CapacityError, UnsupportedAlgebraError


def brute_force_alcove_count(n, level):
    """Independent enumerator: for A_{n-1} the pairing <lambda, theta> is the
    plain coordinate sum, checked here without the Gram machinery."""
    rank = n - 1
    return sum(1 for coords in product(range(level + 1), repeat=rank)
               if sum(coords) <= level)


def test_alcove_su2_counts(su2):
    weights = affine_data.alcove(su2, 1)
    assert [w.weight for w in weights] == [(0,), (1,)]
    for level in range(1, 7):
        got = affine_data.alcove(su2, level)
        assert len(got) == level + 1
        assert len(got) == brute_force_alcove_count(2, level)


def test_alcove_su3(su3):
    weights = affine_data.alcove(su3, 1)
    assert len(weights) == 3 == brute_force_alcove_count(3, 1)
    for level in (2, 3):
        assert len(affine_data.alcove(su3, level)) == \
            brute_force_alcove_count(3, level)


def test_alcove_theta_pairing_is_exact(su3):
    for w in affine_data.alcove(su3, 3):
        assert w.theta_pairing == sum(w.weight)
        assert w.theta_pairing <= 3


def test_conformal_weights_su2(su2):
    data = affine_data.level_data(su2, 1)
    assert affine_data.conformal_weight((0,), data) == 0
    assert affine_data.conformal_weight((1,), data) == Fraction(1, 4)
    # the Casimir splits as <w,w> = 1/2 and <w, 2 rho> = 1
    weights = {w.weight: w for w in affine_data.alcove(su2, 1)}
    assert weights[(1,)].casimir == Fraction(3, 2)


def test_conformal_weights_su3(su3):
    data = affine_data.level_data(su3, 1)
    assert affine_data.conformal_weight((1, 0), data) == Fraction(1, 3)
    assert affine_data.conformal_weight((0, 1), data) == Fraction(1, 3)


def test_conformal_weight_domain_error(su2):
    data = affine_data.level_data(su2, 1)
    with pytest.raises(ValueError):
        affine_data.conformal_weight((2,), data)  # outside the level-1 alcove
    with pytest.raises(ValueError):
        affine_data.conformal_weight((-1,), data)


def test_central_charge_exact(su2, su3):
    assert affine_data.level_data(su2, 1).central_charge == 1
    assert affine_data.level_data(su3, 1).central_charge == 2
    e8 = lie.simple_type_record("E8")
    assert affine_data.level_data(e8, 1).central_charge == 8
    b2 = lie.simple_type_record("B", 2)
    assert affine_data.level_data(b2, 1).central_charge == Fraction(10, 4)


def test_central_charge_at_least_one_all_families():
    for rec in lie.simple_type_table(8):
        for level in range(1, 11):
            c = affine_data.level_data(rec, level).central_charge
            assert c >= 1, (rec, level, c)


def test_bounds_su2(su2):
    rep = affine_data.alcove_bounds(su2, 1)
    assert rep.c_ge_1
    assert rep.m == pytest.approx(1.0)
    assert rep.h_max_bound == pytest.approx(1.0 / 12.0)
    assert rep.max_bare_h <= rep.h_max_bound + 1e-12
    assert rep.all_within_bound
    assert rep.max_dressed_h == Fraction(1, 4)


def test_bounds_sweep():
    for n in (2, 3, 4):
        alg = lie.build_su(n)
        for level in (1, 2, 3):
            rep = affine_data.alcove_bounds(alg, level)
            assert rep.c_ge_1
            assert rep.m is not None and rep.m > 0
            assert rep.all_within_bound


def test_bounds_max_bare_h_matches_fraction_route():
    # the per-weight Fraction route the integer norms replaced, bit for bit
    for n in (2, 3, 4, 5):
        alg = lie.build_su(n)
        roots = affine_data._roots_for(alg)
        for level in range(1, 7):
            denom = 2 * (level + n)
            want = max(float(roots.pair(w.weight, w.weight) / denom)
                       for w in affine_data.alcove(alg, level))
            assert affine_data.alcove_bounds(alg, level).max_bare_h == want


def test_bounds_table_only_families():
    rep = affine_data.alcove_bounds(lie.simple_type_record("G2"), 2)
    assert rep.c_ge_1
    assert rep.m is None and rep.all_within_bound is None


def test_non_type_a_alcove_unsupported():
    with pytest.raises(UnsupportedAlgebraError):
        affine_data.alcove(lie.simple_type_record("F4"), 1)


def test_level_validation(su2):
    with pytest.raises(ValueError):
        affine_data.level_data(su2, 0)
    with pytest.raises(ValueError):
        affine_data.alcove(su2, 0)


def _alcove_fraction_gram(n, level):
    """The alcove as enumerated before the integer Gram: every pairing summed
    as Fractions of the Gram matrix of the fundamental weights."""
    rank = n - 1
    gram = [[Fraction(min(i, j) * n - i * j, n) for j in range(1, rank + 1)]
            for i in range(1, rank + 1)]
    theta = (2,) if rank == 1 else tuple(1 if i in (0, rank - 1) else 0
                                         for i in range(rank))
    rho = (1,) * rank

    def pair(a, b):
        total = Fraction(0)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    total += ai * bj * gram[i][j]
        return total

    denom = 2 * (level + n)
    out = []
    for coords in product(range(level + 1), repeat=rank):
        pairing = pair(coords, theta)
        if pairing <= level:
            cas = pair(coords, coords) + 2 * pair(coords, rho)
            out.append((coords, cas, cas / denom, pairing))
    return sorted(out)


@pytest.mark.parametrize("n,max_level", [(2, 8), (3, 8), (4, 8), (5, 6)])
def test_alcove_integer_gram_matches_fraction_gram(n, max_level, monkeypatch):
    algebra = lie.build_su(n)
    for level in range(1, max_level + 1):
        want = _alcove_fraction_gram(n, level)
        got = [(w.weight, w.casimir, w.conformal_weight, w.theta_pairing)
               for w in affine_data.alcove(algebra, level)]
        assert got == want
        assert all(type(v) is Fraction for row in got for v in row[1:])
        assert all(type(a) is int for row in got for a in row[0])
        # a small block puts many block edges inside the box
        with monkeypatch.context() as m:
            m.setattr(affine_data, "_ALCOVE_CHUNK", 7)
            assert [(w.weight, w.casimir, w.conformal_weight, w.theta_pairing)
                    for w in affine_data.alcove(algebra, level)] == want


def test_alcove_refuses_box_past_limit(monkeypatch):
    """A level box of more than MAX_ALCOVE_BOX coordinates, or with pairings
    past int64, is refused before any block is built."""
    su5 = lie.build_su(5)
    with pytest.raises(CapacityError) as err:
        affine_data.alcove(su5, 100000)
    assert err.value.estimate == 100001 ** 4
    affine_data._scannable_roots(su5, 8)    # 9^4 = 6561 coordinates
    su3 = lie.build_su(3)
    monkeypatch.setattr(affine_data, "MAX_ALCOVE_BOX", 16)
    assert len(affine_data.alcove(su3, 3)) == 10
    with pytest.raises(CapacityError):
        affine_data.alcove_bounds(su3, 4)
    # with the box limit lifted, su2 at level 4e9 still has pairings up to
    # 4e9 (4e9 + 2) > 2^63 and is refused; 3e9 is below that bound
    monkeypatch.setattr(affine_data, "MAX_ALCOVE_BOX", 10 ** 12)
    su2 = lie.build_su(2)
    affine_data._scannable_roots(su2, 3 * 10 ** 9)
    with pytest.raises(CapacityError):
        affine_data._scannable_roots(su2, 4 * 10 ** 9)


def test_box_chunks_are_the_lexicographic_box():
    for side, rank in ((1, 3), (3, 1), (4, 3), (2, 5)):
        blocks = list(affine_data._box_chunks(side, rank))
        assert all(b.dtype == np.int64 for b in blocks)
        assert np.concatenate(blocks).tolist() == [
            list(c) for c in product(range(side), repeat=rank)]
