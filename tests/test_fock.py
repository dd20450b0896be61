import dataclasses
import functools
import gc
import itertools
import math
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import affine_data, fock, lie, loops, soliton
from loopnet.errors import (AlgebraMismatchError, CapacityError, ConfigError,
                            InvalidRankError, LoopnetError, NumericError,
                            WindowError)
from loopnet.loops import FourierLoopElement, ScalarField

from conftest import random_antihermitian


@pytest.fixture(scope="module")
def space6(su2):
    return fock.build_fock(2, 6)


def brute_force_masks(n, cutoff):
    """Independent enumeration over all mode subsets: the occupation mask of
    every state, bit (k + cutoff) * n + j for the window mode (k, j)."""
    modes = [(k, j) for k in range(-cutoff, cutoff + 1) for j in range(n)]
    masks = set()
    # iterate over subsets of "excited" modes: particles at k >= 0, holes at k < 0
    for size in range(len(modes) + 1):
        for combo in itertools.combinations(modes, size):
            if sum(abs(k) for k, _ in combo) <= cutoff:
                occupied = {(k, j) for k, j in modes
                            if (k < 0) != ((k, j) in combo)}
                masks.add(sum(1 << (k + cutoff) * n + j for k, j in occupied))
    return masks


def oracle_states(n, cutoff, charge=None):
    """The basis by the builder the word arrays replaced: the same
    excitation recurrence, then each word decoded into its (particles,
    holes) and the states sorted as (energy, charge, particles, holes,
    word) tuples."""
    excitations = list(fock._excitations(n, cutoff))
    sums = {dq: np.cumsum([0] + [c for c, q, _ in excitations if q == dq])
            for dq in (1, -1)}
    spent = {1: 0, -1: 0}
    sea = (1 << cutoff * n) - 1
    words = np.array([sea], dtype=np.uint64)
    energies, charges = np.zeros(1, int), np.zeros(1, int)
    for cost, dq, bit in excitations:
        fits = energies + cost <= cutoff
        words = np.concatenate([words, words[fits] ^ np.uint64(1 << bit)])
        energies = np.concatenate([energies, energies[fits] + cost])
        charges = np.concatenate([charges, charges[fits] + dq])
        spent[dq] += 1
        if charge is not None:
            keep = fock._reaching(charge, charges, cutoff - energies, sums, spent)
            words, energies, charges = words[keep], energies[keep], charges[keep]
    # a word's flipped modes in bit order are its holes (k < 0), then its
    # particles, each in ascending (k, color) order
    modes = [(p // n - cutoff, p % n) for p in range((2 * cutoff + 1) * n)]
    states = []
    for e, q, word in zip(energies.tolist(), charges.tolist(), words.tolist()):
        flipped, flips = [], word ^ sea
        while flips:
            low = flips & -flips
            flipped.append(modes[low.bit_length() - 1])
            flips ^= low
        holes = (len(flipped) - q) // 2
        states.append((e, q, tuple(flipped[holes:]), tuple(flipped[:holes]), word))
    states.sort()
    return states


def assert_matches_oracle(space):
    """The space's (energy, charge) blocks hold the oracle's words and come
    in the oracle's order; inside a block the two orders may differ."""
    def blocks(states):
        return [(key, {word for *_, word in block}) for key, block
                in itertools.groupby(states, key=lambda state: state[:2])]

    states = oracle_states(space.n, space.cutoff, space.charge)
    assert space.dim == len(states)
    assert blocks(zip(space.energies.tolist(), space.charges.tolist(),
                      space.words.tolist())) == blocks(states)


def test_build_fock_dimensions(su2):
    assert fock.build_fock(2, 0).dim == 4
    got = fock.build_fock(2, 1).dim
    assert got == len(brute_force_masks(2, 1))
    assert fock.build_fock(2, 2).dim == len(brute_force_masks(2, 2))


@pytest.mark.parametrize("n, cutoff", [(2, 1), (2, 2), (3, 1)])
def test_build_fock_masks_match_brute_force(n, cutoff):
    space = fock.build_fock(n, cutoff)
    masks = brute_force_masks(n, cutoff)
    assert set(space.words.tolist()) == masks and space.dim == len(masks)
    assert fock._count_states(n, cutoff, None) == len(masks)
    assert_matches_oracle(space)
    sorted_words, order = space._mask_lookup
    assert np.all(np.diff(sorted_words) > 0)
    assert np.array_equal(space.words[order], sorted_words)


def test_build_fock_one_state_space_is_fast():
    # su30 at cutoff 0, charge 0: only the vacuum, among 2^30 zero-mode subsets
    start = time.perf_counter()
    space = fock.build_fock(30, 0, charge=0)
    assert time.perf_counter() - start < 0.25
    assert space.dim == 1 and space.words.tolist() == [0]   # an empty window
    assert space.vacuum_index == 0


def test_build_fock_ordering_and_vacuum(space6):
    assert np.all(np.diff(space6.energies) >= 0)
    iv = space6.vacuum_index
    assert space6.energies[iv] == 0
    assert space6.charges[iv] == 0
    assert space6.words[iv] == (1 << 6 * 2) - 1   # the filled sea
    # energy-0 subspace is the 2^n zero-mode exterior algebra
    assert int(np.sum(space6.energies == 0)) == 4


def test_spaces_compare_by_identity():
    a, b = fock.build_fock(2, 2), fock.build_fock(2, 2)
    assert a == a and a != b
    assert {a: "a", b: "b"}[a] == "a"


@pytest.mark.parametrize("n,cutoff", [(2, 6), (3, 4), (4, 3), (5, 0), (5, 1),
                                      (5, 2), (6, 1)])
def test_build_fock_sector_matches_filtered_full_space(n, cutoff):
    # a charge sector is the full space filtered by charge, in the same order,
    # and the sectors together, sorted, are the full space again; each is
    # the oracle's basis block by block, and the vacuum is the filled sea
    full = fock.build_fock(n, cutoff)
    assert_matches_oracle(full)
    sea = (1 << cutoff * n) - 1
    assert full.words[full.vacuum_index] == sea
    sectors = []
    for q in sorted(set(full.charges.tolist()) | {-cutoff - 1, n + cutoff + 1}):
        sector = fock.build_fock(n, cutoff, charge=q)
        assert_matches_oracle(sector)
        keep = np.flatnonzero(full.charges == q)
        assert np.array_equal(sector.words, full.words[keep])
        assert np.array_equal(sector.energies, full.energies[keep])
        assert np.array_equal(sector.charges, full.charges[keep])
        if q == 0:
            assert sector.words[sector.vacuum_index] == sea
        else:
            with pytest.raises(ValueError, match="charge-0 sector"):
                sector.vacuum_index
        sectors += zip(sector.energies.tolist(), sector.charges.tolist(),
                       sector.words.tolist())
    sectors.sort()
    assert sectors == list(zip(full.energies.tolist(), full.charges.tolist(),
                               full.words.tolist()))


def test_capacity_error():
    with pytest.raises(CapacityError) as err:
        fock.build_fock(2, 6, dim_limit=100)
    assert err.value.estimate == 1520
    assert str(err.value) == "truncated dimension 1520 exceeds limit 100"


def test_capacity_count_stops_early_past_the_mask():
    # su2 at these cutoffs is far too wide for the mask; the width is checked
    # before the count starts, and the estimate is the bits requested
    for cutoff in (400, 10 ** 6):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="64-bit mask") as err:
            fock.build_fock(2, cutoff)
        assert time.perf_counter() - start < 0.25
        assert err.value.estimate == (2 * cutoff + 1) * 2


def test_capacity_width_check_needs_no_count(monkeypatch):
    def no_count(*args):
        raise AssertionError("counted a window wider than the mask")

    monkeypatch.setattr(fock, "_count_states", no_count)
    for n, cutoff in ((2, 16), (13, 2), (65, 0)):
        with pytest.raises(CapacityError, match="64-bit mask") as err:
            fock._check_capacity(n, cutoff, None, None)
        assert err.value.estimate == (2 * cutoff + 1) * n


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: "su%d" % n)
def test_count_states_matches_build_fock(n):
    # every cutoff 0..8 whose window fits the mask, every charge that some
    # state has and a margin of unreachable ones; the charge sectors partition
    # the space, so their dimensions add up to the count over all charges
    for cutoff in range(9):
        if (2 * cutoff + 1) * n > fock.MASK_BITS:
            continue
        total = 0
        for charge in range(-cutoff - n - 2, cutoff + n + 3):
            dim = fock.build_fock(n, cutoff, charge=charge, dim_limit=10 ** 6).dim
            assert fock._count_states(n, cutoff, charge) == dim, (cutoff, charge)
            total += dim
        assert fock._count_states(n, cutoff, None) == total, cutoff


def test_unreachable_charge_is_refused_at_once():
    # no su2 state within these cutoffs has charge 10^6, and the window is
    # refused by the mask width before any count
    for cutoff in (200, 10 ** 6):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="64-bit mask") as err:
            fock.build_fock(2, cutoff, charge=10 ** 6)
        assert time.perf_counter() - start < 0.25
        assert err.value.estimate == (2 * cutoff + 1) * 2
    assert fock.build_fock(2, 4, charge=10 ** 6).dim == 0


def test_reachable_charge_past_the_mask_is_refused_at_once():
    # charge 100 is reachable at these cutoffs, so no count could stop early;
    # the mask width refuses the window before the count starts
    for cutoff in (10 ** 4, 10 ** 6):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="64-bit mask") as err:
            fock.build_fock(2, cutoff, charge=100)
        assert time.perf_counter() - start < 0.25
        assert err.value.estimate == (2 * cutoff + 1) * 2


@pytest.mark.parametrize("n, cutoff, dim, dim_limit",
                         [(5, 6, 34002, 10 ** 6), (6, 5, 33665, 10 ** 6),
                          (13, 2, 6592, None)])
def test_mask_width_capacity_error(n, cutoff, dim, dim_limit):
    # within the dimension limit, but (2N+1)*n window modes exceed the
    # 64-bit occupation mask (su13/2 does so within the default limit)
    assert fock._count_states(n, cutoff, 0) == dim
    with pytest.raises(CapacityError, match="64-bit mask") as err:
        fock.build_fock(n, cutoff, charge=0, dim_limit=dim_limit)
    assert err.value.estimate == (2 * cutoff + 1) * n
    assert f"{(2 * cutoff + 1) * n} bits" in str(err.value)


@pytest.mark.parametrize("call, error, words", [
    (lambda: fock.build_fock(1, 3), InvalidRankError, "n >= 2"),
    (lambda: fock.build_fock(2, -1), WindowError, "cutoff >= 0"),
    (lambda: fock.hs_defect({0: np.eye(2)}, 0), WindowError, "window must be >= 1"),
    (lambda: fock.hs_defect({}, 4), NumericError, "at least one"),
    (lambda: fock.current(fock.build_fock(2, 2), np.eye(3), 1),
     AlgebraMismatchError, "generator shape"),
    (lambda: fock.current(fock.build_fock(2, 2), 1j * np.eye(2), 0),
     NumericError, "traceless"),
    (lambda: fock.adjoint_action_check(
        fock.build_fock(2, 4, charge=0),
        FourierLoopElement({1: lie.build_su(2).basis[0]}, lie.build_su(2)),
        FourierLoopElement({}, lie.build_su(2))),
     NumericError, "real-form element"),
    (lambda: fock.identity_operator(fock.build_fock(2, 2))
     @ fock.identity_operator(fock.build_fock(2, 2)),
     AlgebraMismatchError, "different truncated spaces"),
    (lambda: fock.identity_reports(2, 4, identities=("afine",)),
     ConfigError, "afine"),
    (lambda: fock.build_fock(2, 2, charge=1).vacuum_index,
     WindowError, "charge-0 sector"),
], ids=["build-rank", "build-cutoff", "hs-window", "hs-empty", "current-shape",
        "current-trace", "adjoint-real-form", "product-spaces",
        "unknown-identity", "charged-vacuum"])
def test_argument_refusals_are_typed(call, error, words):
    # typed LoopnetErrors that are ValueErrors too, so that callers catching
    # either see them
    with pytest.raises(LoopnetError, match=words) as err:
        call()
    assert isinstance(err.value, error)
    assert isinstance(err.value, ValueError)


def test_charged_vacuum_cocycle_is_refused_before_any_work(su2, monkeypatch):
    """A charged sector holds no vacuum: the check is refused before it
    reads a grading or forms a vacuum column."""
    space = fock.build_fock(2, 4, charge=1)
    x = FourierLoopElement({1: su2.basis[0], -1: su2.basis[0]}, su2)
    monkeypatch.setattr(fock, "_pi_grading", None)
    monkeypatch.setattr(fock, "_vacuum_column", None)
    with pytest.raises(WindowError, match="charge-0 sector"):
        fock.vacuum_cocycle_check(space, x, x)
    assert not space.hops


def test_identity_reports_refuse_what_the_sector_cannot_run(monkeypatch):
    """A charged sector holds no vacuum: a requested vacuum cocycle is
    refused before the space is built, not dropped from the reports, and
    the default list is what the sector runs."""
    with monkeypatch.context() as patch:
        patch.setattr(fock, "build_fock", None)
        for identities in [("vacuum-cocycle",), ("affine", "vacuum-cocycle")]:
            with pytest.raises(WindowError, match="vacuum-cocycle"):
                fock.identity_reports(2, 4, identities=identities, charge=1)
    reports = fock.identity_reports(2, 4, charge=1)
    assert tuple(r["identity"] for r in reports) == fock.IDENTITIES[:-1]
    assert all(r["pass"] for r in reports)
    for charge in (None, 0):
        assert fock._sector_identities(charge) == fock.IDENTITIES


@pytest.mark.parametrize("mode_range", [0, -1])
def test_identity_reports_refuse_an_empty_mode_range(mode_range, monkeypatch):
    """mode_range < 1 probes no mode; it is refused before the space is
    built, as the scenario parser refuses it, not widened to |m| <= 1."""
    monkeypatch.setattr(fock, "build_fock", None)
    with pytest.raises(WindowError, match="mode_range >= 1"):
        fock.identity_reports(2, 4, mode_range=mode_range)


def test_current_grading_is_the_one_mode_rule(space6, su2):
    """A current x(m) carries the grading of pi(x) with the one mode m:
    degree -m, max_raise max(0, -m), protected_energy cutoff - max_raise."""
    for m in range(-space6.cutoff, space6.cutoff + 1):
        op = fock.current(space6, su2.basis[0], m)
        grading = (op.degree, op.protected_energy, op.max_raise)
        assert grading == tuple(fock._pi_grading(space6, [m], space6.cutoff))
        assert grading == (-m, space6.cutoff - max(0, -m), max(0, -m))


def test_sugawara_grading_matches_its_entries(space6):
    """L_m, and the L_{-m} the suites read from it, carry degree -m,
    protected_energy cutoff - |m| and max_raise max(0, -m): every stored
    entry moves the energy by exactly -m."""
    energies = space6.energies
    for m in range(-(space6.cutoff // 2), space6.cutoff // 2 + 1):
        op = fock.sugawara(space6, m)
        grading = (op.degree, op.protected_energy, op.max_raise)
        assert grading == tuple(fock._sugawara_grading(space6, m))
        assert grading == (-m, space6.cutoff - abs(m), max(0, -m))
        coo = op.matrix.tocoo()
        assert coo.nnz and np.all(energies[coo.row] - energies[coo.col] == -m)
        factor = fock._sugawara_factor(fock.sugawara(space6, abs(m)), m)
        assert (factor.protected_energy, factor.max_raise) == grading[1:]


def test_charge_sector_restriction(su2):
    full = fock.build_fock(2, 3)
    sectors = [fock.build_fock(2, 3, charge=q) for q in range(-5, 8)]
    assert sum(s.dim for s in sectors) == full.dim


@pytest.mark.parametrize("n, cutoff", [(2, 6), (3, 4), (4, 3)])
def test_level_one_alcove_weights_are_fock_sectors_and_solitons(n, cutoff):
    # each level-1 weight omega_k is three things: the Fock charge sectors
    # q = k mod n, whose lowest-energy states are C(n, k) eigenvectors of the
    # Sugawara L_0 with eigenvalue h(omega_k) = k(n - k)/2n; the linear
    # soliton exp(x A_k) with centre index k; and 1/2 sum_j alpha_j^2 for
    # the eigenvalues i alpha_j of A_k
    algebra = lie.build_su(n)
    weights = affine_data.alcove(algebra, 1)
    assert len(weights) == n
    h = {}
    for w in weights:
        k = w.weight.index(1) + 1 if any(w.weight) else 0
        h[k] = w.conformal_weight
        assert h[k] == Fraction(k * (n - k), 2 * n)
        alphas = [Fraction(k, n)] * (n - k) + [Fraction(k, n) - 1] * k
        assert sum(a * a for a in alphas) / 2 == h[k]
        a_k = 1j * np.diag([float(a) for a in alphas])
        path = soliton.SolitonPath.linear(algebra, a_k)
        assert soliton.extendability(path).center_index == k
    for q in range(-1, n + 2):
        k = q % n
        space = fock.build_fock(n, cutoff, charge=q)
        ground = np.flatnonzero(space.energies == space.energies.min())
        assert len(ground) == math.comb(n, k)
        columns = fock.sugawara(space, 0).matrix[:, ground].toarray()
        want = np.zeros_like(columns)
        want[ground, np.arange(len(ground))] = float(h[k])
        assert np.abs(columns - want).max() <= 1e-10, q


def test_current_window_error(space6, su2):
    with pytest.raises(WindowError):
        fock.current(space6, su2.basis[0], 7)


def test_pi_element_refuses_modes_outside_the_window(space6, su2):
    # the grading gate on its own: pi_element's window (default: the cutoff)
    # and the vacuum cocycle check's, cutoff // 2
    x0 = su2.basis[0]
    element = lambda k: FourierLoopElement({k: x0, -k: x0}, su2)
    assert fock.pi_element(space6, element(2), max_mode=2).matrix.nnz > 0
    with pytest.raises(WindowError, match="modes up to 2, window allows 1"):
        fock.pi_element(space6, element(2), max_mode=1)
    with pytest.raises(WindowError, match="modes up to 7, window allows 6"):
        fock.pi_element(space6, element(7))
    fock.vacuum_cocycle_check(space6, element(3), element(1))
    for x, y in ((element(4), element(1)), (element(1), element(4))):
        with pytest.raises(WindowError, match="modes up to 4, window allows 3"):
            fock.vacuum_cocycle_check(space6, x, y)


def test_zero_mode_annihilates_vacuum(space6, su2):
    for x in (su2.basis[0], np.array([[0, 1], [0, 0]], complex)):
        op = fock.current(space6, x, 0)
        col = op.matrix[:, space6.vacuum_index]
        assert np.abs(col.toarray()).max() == 0


@pytest.mark.parametrize("n, cutoff, charge, hops",
                         [(2, 6, 0, 52), (3, 4, 0, 81), (2, 5, None, 44),
                          (3, 3, None, 63)],
                         ids=["su2-N6-q0", "su3-N4-q0", "su2-N5", "su3-N3"])
def test_hop_tables_are_column_sorted_and_adjoint_pairs(n, cutoff, charge, hops):
    # the vacuum cocycle reads these two facts: the vacuum column of E_ij(m)
    # is the head of its table, and E_ij(m)^dagger = E_ji(-m) with equal signs
    space = fock.build_fock(n, cutoff, charge=charge)
    keys = [(i, j, m) for i in range(n) for j in range(n)
            for m in range(-cutoff, cutoff + 1)]
    assert len(keys) == hops
    for i, j, m in keys:
        rows, cols, signs = fock._hop(space, i, j, m)
        assert np.all(np.diff(cols) >= 0), (i, j, m)
        t_rows, t_cols, t_signs = fock._hop(space, j, i, -m)
        order = np.lexsort((cols, rows))
        t_order = np.lexsort((t_rows, t_cols))
        assert np.array_equal(rows[order], t_cols[t_order]), (i, j, m)
        assert np.array_equal(cols[order], t_rows[t_order]), (i, j, m)
        assert np.array_equal(signs[order], t_signs[t_order]), (i, j, m)


def test_level_one_relation_ladder(space6):
    e = np.array([[0, 1], [0, 0]], complex)
    f = np.array([[0, 0], [1, 0]], complex)
    h = e @ f - f @ e
    lhs = fock.commutator(fock.current(space6, e, 1), fock.current(space6, f, -1))
    rhs = fock.current(space6, h, 0) + complex(np.trace(e @ f)) * \
        fock.identity_operator(space6)
    assert (lhs - rhs).max_protected_abs() < 1e-12


def test_current_adjoint(space6, su2):
    for m in (0, 1, 2):
        op = fock.current(space6, su2.basis[1], m)
        resid = op.adjoint() + fock.current(space6, su2.basis[1], -m)
        assert resid.max_protected_abs() < 1e-12


@pytest.mark.parametrize("n, cutoff", [(2, 6), (3, 4)], ids=["su2-N6", "su3-N4"])
def test_public_current_adjoint_is_the_negated_opposite_mode(n, cutoff):
    """x(m)^dagger = -x(-m) through public ``current`` and
    ``FockOperator.adjoint``, entry for entry and in grading, for every
    real-form basis element and every |m| <= cutoff on the charge-0 sector:
    the identity suites check the adjoint on the hops alone."""
    space = fock.build_fock(n, cutoff, charge=0)
    for x in lie.build_su(n).basis:
        for m in range(-cutoff, cutoff + 1):
            got = fock.current(space, x, m).adjoint()
            want = -1 * fock.current(space, x, -m)
            for part in ("indices", "indptr", "data"):
                assert np.array_equal(getattr(got.matrix, part),
                                      getattr(want.matrix, part)), (m, part)
            assert ((got.degree, got.protected_energy, got.max_raise)
                    == (want.degree, want.protected_energy, want.max_raise)), m


@pytest.mark.parametrize("n, cutoff", [(2, 6), (3, 4)], ids=["su2-N6", "su3-N4"])
def test_a_flipped_hop_sign_fails_the_suites(n, cutoff, monkeypatch):
    """One sign of E_01(1) flipped in its hop table: the affine, commutator,
    Virasoro and adjoint suites, which all read that hop, fail."""
    build = fock._build_hops

    def flipped(space, j, m, width=None):
        tables = build(space, j, m, width)
        if (j, m) == (1, 1):
            rows, cols, signs = tables[0]
            signs = signs.copy()
            signs[0] = -signs[0]
            tables[0] = (rows, cols, signs)
        return tables

    monkeypatch.setattr(fock, "_build_hops", flipped)
    reports = {r["identity"]: r for r in fock.identity_reports(n, cutoff, charge=0)}
    for name in ("affine", "commutator", "virasoro", "adjoint"):
        assert not reports[name]["pass"], reports[name]
        assert reports[name]["residual_max"] >= 0.5, reports[name]


def test_identity_suite_su2(space6, su2):
    reports = fock.identity_reports(2, 6, tol=1e-10)
    assert {r["identity"] for r in reports} == {
        "affine", "commutator", "virasoro", "rotation", "adjoint",
        "vacuum-cocycle"}
    for r in reports:
        assert r["pass"], r


def test_identity_suite_su3_sector():
    # the charge-0 sector cuts the cutoff-6 dimension to a tractable size
    # (1867 states) while keeping every identity exact on protected columns
    reports = fock.identity_reports(3, 6, charge=0, mode_range=1, tol=1e-10)
    for r in reports:
        assert r["pass"], r


def test_identity_suite_su3_cutoff8_sector():
    reports = fock.identity_reports(3, 8, charge=0, mode_range=1, tol=1e-10)
    assert fock._count_states(3, 8, 0) == 8446
    assert len(reports) == 6
    for r in reports:
        assert r["pass"], r


def test_identity_reports_rejects_unknown_names():
    with pytest.raises(ValueError, match="afine"):
        fock.identity_reports(2, 4, identities=("afine", "rotation"))


def test_identity_reports_follow_identities_order():
    reports = fock.identity_reports(
        2, 4, identities=tuple(reversed(fock.IDENTITIES)))
    assert tuple(r["identity"] for r in reports) == fock.IDENTITIES


@pytest.mark.parametrize("cutoff", [0, 1])
def test_identity_reports_need_cutoff_two(cutoff):
    with pytest.raises(WindowError, match="cutoff >= 2"):
        fock.identity_reports(2, cutoff, identities=("commutator",))


def test_identity_suite_builds_each_mode_operator_once(monkeypatch):
    """Each L_m and each hop factor E_ij(m) is built at most once per call,
    and no current is: the suites' currents are the hops.  L_m is built for
    m >= 0 only; L_{-m} is read from it."""
    builds = []
    hop_factor, sugawara = fock._hop_factor, fock.sugawara

    def counting_hop(space, i, j, m):
        builds.append(("hop", i, j, m))
        return hop_factor(space, i, j, m)

    def counting_sugawara(space, m):
        builds.append(("sugawara", m))
        return sugawara(space, m)

    def refused(*args):
        raise AssertionError("a current built by an identity suite")

    monkeypatch.setattr(fock, "current", refused)
    monkeypatch.setattr(fock, "_hop_factor", counting_hop)
    monkeypatch.setattr(fock, "sugawara", counting_sugawara)
    for n, cutoff, charge in [(2, 6, None), (2, 6, 0), (3, 4, 0)]:
        builds.clear()
        reports = fock.identity_reports(n, cutoff, charge=charge)
        assert all(r["pass"] for r in reports)
        assert builds and len(set(builds)) == len(builds)
        assert {build[1:3] for build in builds if build[0] == "hop"} == set(
            itertools.product(range(n), repeat=2))
        assert sorted(m for kind, *m in builds if kind == "sugawara") == [
            [m] for m in range(cutoff // 2 + 1)]


@pytest.mark.parametrize("n, cutoff, charge", [(2, 6, 0), (3, 4, 0), (2, 8, None)],
                         ids=["su2-N6-q0", "su3-N4-q0", "su2-N8-all-charges"])
def test_suite_leaves_every_hop_table_column_ordered(monkeypatch, n, cutoff, charge):
    """The prefix cuts of ``_stacked_product`` and the vacuum heads of
    ``_vacuum_column`` read each cached hop by ascending column: checked on
    every table a whole suite leaves in its space's cache."""
    spaces = []

    def recording(*args, **kwargs):
        spaces.append(build(*args, **kwargs))
        return spaces[-1]

    build = fock.build_fock
    monkeypatch.setattr(fock, "build_fock", recording)
    fock.identity_reports(n, cutoff, charge=charge)
    (space,) = spaces
    assert len(space.hops) == n * n * (2 * cutoff + 1)
    for key, (rows, cols, signs) in space.hops.items():
        assert len(rows) == len(cols) == len(signs), key
        assert np.all(np.diff(cols) >= 0), key


def test_suite_factors_are_made_once_and_not_kept(monkeypatch):
    """Each operator's column-ordered entries (its ``_Factor``) are made at
    most once per ``identity_reports`` call, and nothing holds them after
    the call: not the operator, whose fields stay as they were, and not the
    space's hop cache."""
    made = {}
    operators = []
    entries = []
    factor = fock._factor

    def counting(op):
        made[id(op)] = made.get(id(op), 0) + 1
        operators.append(op)
        out = factor(op)
        entries.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(fock, "_factor", counting)
    fields = {f.name for f in dataclasses.fields(fock.FockOperator)}
    for n, cutoff, charge in [(2, 6, 0), (3, 4, 0)]:
        made.clear()
        operators.clear()
        entries.clear()
        fock.identity_reports(n, cutoff, charge=charge)
        assert operators and max(made.values()) == 1
        gc.collect()
        assert all(ref() is None for ref in entries)
        for op in operators:
            assert set(vars(op)) == fields
            assert op.matrix.format == "csr"
            assert all(len(hop) == 3 for hop in op.space.hops.values())


def test_grouped_identities_use_no_operator_arithmetic(monkeypatch):
    """The five grouped suites form no FockOperator sum or product: one
    sparse product per left hop of the affine pairs (9 on su3) and one for
    each of the other four suites."""
    def refuse(*args):
        raise AssertionError("FockOperator arithmetic in a grouped suite")

    for op in ("__matmul__", "__add__", "__sub__", "__rmul__"):
        monkeypatch.setattr(fock.FockOperator, op, refuse)
    group_worst = fock._group_worst
    calls = []

    def counting(space, residuals):
        calls.append(len(residuals))
        return group_worst(space, residuals)

    monkeypatch.setattr(fock, "_group_worst", counting)
    reports = fock.identity_reports(
        3, 4, charge=0,
        identities=("affine", "commutator", "virasoro", "rotation", "adjoint"))
    assert all(r["pass"] for r in reports)
    assert len(calls) == 9 + 4
    # affine: every unordered pair of the 9 hops x 5 modes, by left hop
    assert calls[:9] == [5 * 44 - 10 - 25 * h for h in range(9)]
    assert sum(calls[:9]) == 45 * 44 // 2
    assert calls[9:] == [5 * 5, 21, 9 * 5, 9 * 3]   # adjoint: modes 0..2


@pytest.mark.parametrize("n, cutoff, columns", [(3, 4, 1), (2, 6, 14)])
def test_identity_reports_count_protected_columns(n, cutoff, columns):
    reports = {r["identity"]: r for r in fock.identity_reports(n, cutoff, charge=0)}
    for name in ("affine", "commutator", "virasoro"):
        assert reports[name]["columns"] == columns
    assert reports["vacuum-cocycle"]["columns"] == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("charge", [None, 0])
def test_vacuum_cocycle_reports_the_vacuum_column(n, charge):
    """One column, the vacuum, also where the space holds all charges and
    with them 2^n states of energy 0."""
    space = fock.build_fock(n, 4, charge=charge)
    assert np.count_nonzero(space.energies == 0) == (2 ** n if charge is None else 1)
    report, = fock.identity_reports(n, 4, identities=("vacuum-cocycle",),
                                    charge=charge)
    assert (report["block"], report["columns"], report["pass"]) == (0, 1, True)


def test_unprotected_residual_raises_window_error(space6, su2):
    # the charge-3 sector of su2/4 starts at energy 1, above every block
    with pytest.raises(WindowError, match="no protected columns"):
        fock.identity_reports(2, 4, charge=3, identities=("affine",))
    op = fock.current(space6, su2.basis[0], 1)
    op.protected_energy = -1
    with pytest.raises(WindowError, match="no protected columns"):
        op.max_protected_abs()


# (n, cutoff, larger cutoff, charge): the truncation-honesty pairs
_LARGER_CUTOFF = [(2, 6, 9, 0), (2, 6, 9, None), (3, 4, 6, 0), (3, 4, 6, None)]
# an expression of 1-3 factors: a factor is a current x(m) of a basis
# element ("x", element, m), its adjoint ("x*", ...) or ("L", 0, m), and a
# product or sum is (join, left, right)
_FACTORS = (st.tuples(st.sampled_from(["x", "x*"]), st.integers(0, 2),
                      st.integers(-2, 2))
            | st.tuples(st.just("L"), st.just(0), st.integers(-1, 1)))


@st.composite
def _expressions(draw):
    """1-3 factors joined one at a time, each on a drawn side."""
    factors = draw(st.lists(_FACTORS, min_size=1, max_size=3))
    expr = factors.pop()
    for factor in factors:
        join = draw(st.sampled_from(["@", "+"]))
        expr = (join, factor, expr) if draw(st.booleans()) else (join, expr, factor)
    return expr


@functools.cache
def _honesty_space(n, cutoff, charge):
    return fock.build_fock(n, cutoff, charge=charge)


@functools.cache
def _honesty_factor(n, cutoff, charge, kind, gen, m):
    space = _honesty_space(n, cutoff, charge)
    algebra = lie.build_su(n)
    if kind == "L":
        return fock.sugawara(space, m)
    op = fock.current(space, algebra.basis[gen], m)
    return op.adjoint() if kind == "x*" else op


def _embedding(small, large):
    """Rows of ``large`` holding the states of ``small``: each word shifted
    past the delta * n sea modes the larger window adds, which are filled."""
    shift = (large.cutoff - small.cutoff) * small.n
    big = (small.words << np.uint64(shift)) | np.uint64((1 << shift) - 1)
    order = np.argsort(large.words)
    rows = order[np.minimum(np.searchsorted(large.words[order], big),
                            large.dim - 1)]
    assert np.array_equal(large.words[rows], big)
    return rows


@pytest.mark.parametrize("pair", _LARGER_CUTOFF,
                         ids=lambda p: "su%d-N%d-in-N%d-q%s" % p)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(expr=_expressions())
def test_protected_columns_agree_with_a_larger_cutoff(pair, expr):
    # the protected columns of an expression on the smaller space are exact,
    # so on the smaller space's rows they equal the same expression on the
    # larger space, applied to those columns
    n, cutoff, larger, charge = pair
    small, large = _honesty_space(n, cutoff, charge), _honesty_space(n, larger, charge)
    rows = _embedding(small, large)
    # the larger space's states within the smaller cutoff are the embedded ones
    assert np.array_equal(np.sort(rows), np.flatnonzero(large.energies <= cutoff))
    assert np.array_equal(large.energies[rows], small.energies)
    assert np.array_equal(large.charges[rows], small.charges)

    def on_small(expr):
        """The expression by ``FockOperator`` arithmetic, and a bound on its
        1-norm from its factors' 1-norms, which bounds the rounding of any
        entry."""
        if expr[0] not in ("@", "+"):
            op = _honesty_factor(n, cutoff, charge, *expr)
            return op, scipy.sparse.linalg.norm(op.matrix, 1)
        join, (a, norm_a), (b, norm_b) = expr[0], on_small(expr[1]), on_small(expr[2])
        return (a @ b, norm_a * norm_b) if join == "@" else (a + b, norm_a + norm_b)

    def on_columns(expr, block):
        """The expression on the larger space times ``block``."""
        if expr[0] not in ("@", "+"):
            return _honesty_factor(n, larger, charge, *expr).matrix @ block
        join, left, right = expr
        if join == "@":
            return on_columns(left, on_columns(right, block))
        return on_columns(left, block) + on_columns(right, block)

    op, scale = on_small(expr)
    cols = np.flatnonzero(op.protected_columns())
    unit = scipy.sparse.identity(large.dim, dtype=complex, format="csc")
    want = on_columns(expr, unit[:, rows[cols]]).tocsr()[rows]
    diff = (op.matrix[:, cols] - want).tocsr()
    assert np.abs(diff.data).max(initial=0.0) <= 1e-14 * scale


def test_sum_carries_the_larger_max_raise(su2):
    """A sum lifts energy as far as its more lifting operand does:
    P = (x(1) x(-1)) (h(0) + x(-2)) on su2/6 is exact up to energy 3, not 4,
    and on those columns it agrees with P built on a cutoff-10 space."""
    def product(space):
        x = functools.partial(fock.current, space, su2.basis[0])
        h0 = fock.current(space, su2.basis[2], 0)
        return (x(1) @ x(-1)) @ (h0 + x(-2))

    small, large = _honesty_space(2, 6, 0), _honesty_space(2, 10, 0)
    p = product(small)
    assert p.protected_energy == 3
    rows = _embedding(small, large)
    cols = np.flatnonzero(p.protected_columns())
    want = product(large).matrix[rows][:, rows[cols]]
    assert np.abs((p.matrix[:, cols] - want).toarray()).max() <= 1e-14


def test_rotation_commutator_sign(space6, su2):
    d = fock.rotation_generator(space6)
    x1 = fock.current(space6, su2.basis[0], 1)
    resid = fock.commutator(d, x1) + 1.0 * x1
    assert resid.max_protected_abs() < 1e-12


def test_sugawara_window(space6):
    with pytest.raises(WindowError):
        fock.sugawara(space6, 4)


@pytest.mark.parametrize("n, cutoff, charge", [
    (2, 6, 0), (3, 4, 0), (4, 4, 0), (2, 5, None), (3, 3, None)])
def test_sugawara_entries_are_exact(n, cutoff, charge):
    # each stored entry of 2n(n+1) L_m is a nonzero integer, and L_{-m} is
    # L_m^dagger entry for entry: the Casimir tensor leaves no rounding residue
    space = fock.build_fock(n, cutoff, charge=charge)
    modes = {m: fock.sugawara(space, m).matrix
             for m in range(-(cutoff // 2), cutoff // 2 + 1)}
    for m, mat in modes.items():
        scaled = 2 * n * (n + 1) * mat.data
        assert np.abs(scaled - np.round(scaled.real)).max(initial=0.0) <= 1e-12, m
        assert np.round(scaled.real).all(), m
        adjoint = mat.conj().T.tocsr()
        partner = modes[-m]
        adjoint.sort_indices()
        partner.sort_indices()
        assert np.array_equal(partner.indptr, adjoint.indptr), m
        assert np.array_equal(partner.indices, adjoint.indices), m
        assert np.array_equal(partner.data, adjoint.data), m


def test_central_charge_vacuum_expectation(space6):
    l2 = fock.sugawara(space6, 2)
    lm2 = fock.sugawara(space6, -2)
    comm = fock.commutator(l2, lm2)
    iv = space6.vacuum_index
    assert comm.matrix[iv, iv] == pytest.approx(0.5, abs=1e-10)


def test_l0_spectrum_per_sector(space6):
    l0 = fock.sugawara(space6, 0)
    dense = l0.dense()
    assert np.abs(dense - dense.conj().T).max() < 1e-12
    mins = {}
    for q in (0, 1, -1, 2):
        idx = np.nonzero(space6.charges == q)[0]
        mins[q] = np.linalg.eigvalsh(dense[np.ix_(idx, idx)]).min()
    assert mins[0] == pytest.approx(0.0, abs=1e-10)
    assert mins[1] == pytest.approx(0.25, abs=1e-10)
    assert mins[-1] == pytest.approx(0.25, abs=1e-10)
    assert mins[2] == pytest.approx(0.0, abs=1e-10)


def test_l0_one_particle_weight(space6):
    l0 = fock.sugawara(space6, 0)
    sea = (1 << 6 * 2) - 1
    idx = np.flatnonzero(space6.words == sea | 1 << 6 * 2)   # a particle at (0, 0)
    col = l0.matrix[:, idx[0]].toarray().ravel()
    assert col[idx[0]] == pytest.approx(0.25, abs=1e-12)


def test_operator_norm_estimate(space6, su2):
    # || pi(X) xi ||_t <= sqrt(2(l+g)) |X|_{|t|+1/2} || xi ||_{t+1/2}
    rng = np.random.default_rng(8)
    const = np.sqrt(2.0 * (1 + 2))
    energies = space6.energies
    for _ in range(25):
        a = random_antihermitian(su2, rng)
        b = random_antihermitian(su2, rng)
        x = FourierLoopElement({0: a, 2: 0.5 * b, -2: -0.5 * b.conj().T}, su2,
                               real_form=True)
        px = fock.pi_element(space6, x)
        xi = rng.normal(size=space6.dim) + 1j * rng.normal(size=space6.dim)
        xi[energies > space6.cutoff - 2] = 0.0
        v = px.matrix @ xi
        for t in (0.0, 1.0):
            lhs = np.linalg.norm((1.0 + energies) ** t * v)
            rhs = const * loops.sobolev_norm(x, t + 0.5) * \
                np.linalg.norm((1.0 + energies) ** (t + 0.5) * xi)
            assert lhs <= rhs + 1e-9


def test_stress_tensor_bound(space6):
    # ||(1+L0)^k L_n xi|| <= sqrt(c/2) (1+|n|)^{k+3/2} ||(1+L0)^{k+1} xi||
    rng = np.random.default_rng(9)
    l0 = fock.sugawara(space6, 0).matrix
    one_plus = l0 + scipy.sparse.identity(space6.dim, format="csr")

    def power_apply(k, vec):
        for _ in range(k):
            vec = one_plus @ vec
        return vec

    for n in (-2, -1, 1, 2):
        ln = fock.sugawara(space6, n)
        for _ in range(10):
            xi = rng.normal(size=space6.dim) + 1j * rng.normal(size=space6.dim)
            xi[space6.energies > space6.cutoff - abs(n) - 1] = 0.0
            v = ln.matrix @ xi
            for k in (0, 1):
                lhs = np.linalg.norm(power_apply(k, v))
                rhs = np.sqrt(0.5) * (1 + abs(n)) ** (k + 1.5) * \
                    np.linalg.norm(power_apply(k + 1, xi))
                assert lhs <= rhs + 1e-9


def test_heat_contraction_bound(su2):
    # ||[x(m), e^{-eps d}]|| <= 2 sqrt(l+g) (1+|m|)^{3/2} ||X||_F
    space = fock.build_fock(2, 4)
    d = np.asarray(space.energies, dtype=float)
    for eps in (0.05, 0.3, 1.0):
        e_heat = np.diag(np.exp(-eps * d))
        for m in (-2, 1, 3):
            x = su2.basis[0]
            xm = fock.current(space, x, m).dense()
            comm = xm @ e_heat - e_heat @ xm
            bound = 2.0 * np.sqrt(3.0) * (1 + abs(m)) ** 1.5 * np.linalg.norm(x)
            assert np.linalg.norm(comm, 2) <= bound + 1e-9


def test_vacuum_cocycle_examples(space6, su2):
    e = np.array([[0, 1], [0, 0]], complex)
    f = np.array([[0, 0], [1, 0]], complex)
    x = FourierLoopElement({1: e, -1: f}, su2)       # constants pair to zero
    y = FourierLoopElement({0: su2.basis[2]}, su2)
    assert abs(fock.vacuum_cocycle_check(space6, y, y)) < 1e-12
    xe = FourierLoopElement({1: e}, su2)
    yf = FourierLoopElement({-1: f}, su2)
    got = fock.vacuum_cocycle_check(space6, xe, yf)
    assert got == pytest.approx(1j * loops.central_term_B(xe, yf), abs=1e-12)
    assert got == pytest.approx(complex(np.trace(e @ f)), abs=1e-12)
    # antisymmetry
    assert fock.vacuum_cocycle_check(space6, xe, yf) == pytest.approx(
        -fock.vacuum_cocycle_check(space6, yf, xe), abs=1e-12)


def test_vacuum_cocycle_random(space6, su2):
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = fock._random_polynomial(su2, rng, 3)
        y = fock._random_polynomial(su2, rng, 3)
        got = fock.vacuum_cocycle_check(space6, x, y)
        want = 1j * loops.central_term_B(x, y)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt defect
# ---------------------------------------------------------------------------

def test_hs_defect_constant_loop():
    rep = fock.hs_defect({0: np.eye(2)}, 8)
    assert rep.fourier_value == 0.0
    assert rep.truncated_value == 0.0


def test_hs_defect_diagonal_phase_loop():
    data = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}
    for window in (2, 8):
        rep = fock.hs_defect(data, window)
        assert rep.fourier_value == pytest.approx(2.0, abs=1e-15)
        assert rep.truncated_value == pytest.approx(2.0, abs=1e-12)
        assert rep.tail_ok


def test_hs_defect_monotone_in_window(su2):
    gamma = loops.loop_from_factors(
        su2, [(su2.basis[0], lambda th: 0.9 * np.sin(th) + 0.3 * np.cos(2 * th))],
        512)
    data = loops.loop_fourier_coefficients(gamma)
    values = [fock.hs_defect(data, k).truncated_value for k in (2, 4, 8, 16, 64)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    full = fock.hs_defect(data, 64)
    assert full.truncated_value <= full.fourier_value + 1e-12
    assert full.relative_gap <= 1e-3


def test_hs_defect_tail_warning():
    data = {k: 0.1 * np.eye(2) for k in range(-6, 7)}
    rep = fock.hs_defect(data, 2)
    assert not rep.tail_ok


def test_hs_defect_rejects_empty_data():
    with pytest.raises(ValueError, match="at least one"):
        fock.hs_defect({}, 4)


@pytest.mark.parametrize("data", [
    {0: np.eye(2), 1: np.eye(3)},
    {0: np.ones((2, 3))},
    {0: np.ones(2)},
], ids=["ragged", "non-square", "vector"])
def test_hs_defect_rejects_mismatched_shapes(data):
    with pytest.raises(AlgebraMismatchError):
        fock.hs_defect(data, 4)


def test_hs_defect_refuses_non_finite_coefficient():
    # a NaN mass gave an all-NaN report with tail_ok False
    with pytest.raises(NumericError, match="finite"):
        fock.hs_defect({0: np.eye(2), 1: np.full((2, 2), np.nan)}, 4)


def test_hs_defect_huge_window_allocates_nothing_window_sized():
    # one dense block matrix at this window would take ~2.6e14 bytes
    data = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0]), 3: 0.1 * np.eye(2)}
    tracemalloc.start()
    try:
        rep = fock.hs_defect(data, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.truncated_value == rep.fourier_value
    assert rep.fourier_value == pytest.approx(2.0 + 3 * 0.02, rel=1e-15)


# ---------------------------------------------------------------------------
# Exponential implementers
# ---------------------------------------------------------------------------

def test_implement_exponential_first_order(su2):
    # e^{eps pi(X)} pi(Y) e^{-eps pi(X)} - pi(Y) - eps [pi(X), pi(Y)] = O(eps^2)
    space = fock.build_fock(2, 4)
    a = su2.basis[0]
    b = su2.basis[1]
    x = FourierLoopElement({1: 0.5 * a, -1: 0.5 * a}, su2)
    y = FourierLoopElement({1: 0.5 * b, -1: 0.5 * b}, su2)
    px = fock.pi_element(space, x).dense()
    py = fock.pi_element(space, y).dense()
    comm = px @ py - py @ px
    resids = []
    for eps in (1e-2, 1e-3):
        import scipy.linalg
        u = scipy.linalg.expm(eps * px)
        uinv = scipy.linalg.expm(-eps * px)
        d = u @ py @ uinv - py - eps * comm
        resids.append(np.linalg.norm(d, 2))
    ratio = resids[0] / resids[1]
    assert 60 < ratio < 140  # second-order scaling


def test_implement_exponential_scalar_part(su2):
    # vacuum expectation of the first-order defect is eps * i * B(X, Y)
    space = fock.build_fock(2, 6)
    a, b = su2.basis[0], su2.basis[1]
    x = FourierLoopElement({1: 0.4 * a, -1: 0.4 * a}, su2)
    y = FourierLoopElement({1: 0.3 * b, -1: 0.3 * b}, su2)
    got = fock.vacuum_cocycle_check(space, x, y)
    assert got == pytest.approx(1j * loops.central_term_B(x, y), abs=1e-12)


def test_mode_cut_bounds_of_each_caller(su2, monkeypatch):
    """One Fourier cut, three bounds: loop_fourier_coefficients keeps the
    Nyquist mode -N/2, maurer_cartan stops at N/2 - 1, and the adjoint
    check's right-hand side at the cutoff."""
    seen = []
    cut = loops._mode_cut

    def spy(samples, max_mode):
        seen.append((len(samples), max_mode))
        return cut(samples, max_mode)

    monkeypatch.setattr(loops, "_mode_cut", spy)
    monkeypatch.setattr(fock, "_mode_cut", spy)
    gamma = loops.loop_from_factors(
        su2, [(su2.basis[0], lambda th: 0.3 * np.sin(th))], 32)
    loops.loop_fourier_coefficients(gamma)
    loops.maurer_cartan(gamma)
    x = FourierLoopElement({1: 0.2 * su2.basis[0], -1: 0.2 * su2.basis[0]},
                           su2)
    fock.adjoint_action_check(fock.build_fock(2, 4, charge=0), x, x)
    assert seen == [(32, 16), (32, 15), (fock._ADJOINT_SAMPLES, 4)]


def test_adjoint_action_report(su2):
    space = fock.build_fock(2, 8, charge=0, dim_limit=40000)
    x = FourierLoopElement({1: 0.2 * su2.basis[0], -1: 0.2 * su2.basis[0]},
                           su2)
    y = FourierLoopElement({1: 0.25 * su2.basis[1], -1: 0.25 * su2.basis[1]},
                           su2)
    report = fock.adjoint_action_check(space, x, y, block_energy=1,
                                       tolerance=1e-3)
    assert report["identity"] == "adjoint-action"
    assert report["residual_max"] < 1e-3
    assert report["pass"]
