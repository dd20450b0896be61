import itertools
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from loopnet import affine_data, fock, lie, loops
from loopnet.errors import AlgebraMismatchError, CapacityError, WindowError
from loopnet.loops import FourierLoopElement, ScalarField

from conftest import random_antihermitian


@pytest.fixture(scope="module")
def space6(su2):
    return fock.build_fock(2, 6)


@pytest.fixture(scope="module")
def level1_su2(su2):
    return affine_data.level_data(su2, 1)


def brute_force_dimension(n, cutoff):
    """Independent state count: explicit enumeration over all mode subsets."""
    modes = [(k, j) for k in range(-cutoff, cutoff + 1) for j in range(n)]
    count = 0
    # iterate over subsets of "excited" modes: particles at k >= 0, holes at k < 0
    excitable = [(abs(k), (k, j)) for k, j in modes]
    for size in range(len(excitable) + 1):
        for combo in itertools.combinations(excitable, size):
            if sum(e for e, _ in combo) <= cutoff:
                count += 1
    return count


def test_build_fock_dimensions(su2):
    assert fock.build_fock(2, 0).dim == 4
    got = fock.build_fock(2, 1).dim
    assert got == brute_force_dimension(2, 1)
    assert fock.build_fock(2, 2).dim == brute_force_dimension(2, 2)


def test_build_fock_ordering_and_vacuum(space6):
    assert np.all(np.diff(space6.energies) >= 0)
    iv = space6.vacuum_index
    assert space6.energies[iv] == 0
    assert space6.charges[iv] == 0
    assert space6.occupations[iv] == ((), ())
    # energy-0 subspace is the 2^n zero-mode exterior algebra
    assert int(np.sum(space6.energies == 0)) == 4


@pytest.mark.parametrize("n,cutoff", [(2, 6), (3, 4), (4, 3)])
def test_build_fock_sector_matches_filtered_full_space(n, cutoff):
    # a charge sector is the full space filtered by charge, in the same order,
    # and the sectors together, sorted, are the full space again
    full = fock.build_fock(n, cutoff)
    sectors = []
    for q in sorted(set(full.charges.tolist()) | {-cutoff - 1, n + cutoff + 1}):
        sector = fock.build_fock(n, cutoff, charge=q)
        keep = np.flatnonzero(full.charges == q)
        assert sector.masks == [full.masks[i] for i in keep]
        assert np.array_equal(sector.energies, full.energies[keep])
        assert np.array_equal(sector.charges, full.charges[keep])
        assert sector.occupations == [full.occupations[i] for i in keep]
        sectors += [(e, c, occ, m) for e, c, occ, m in zip(
            sector.energies.tolist(), sector.charges.tolist(),
            sector.occupations, sector.masks)]
    sectors.sort()
    assert [m for *_, m in sectors] == full.masks
    assert [e for e, *_ in sectors] == full.energies.tolist()
    assert [c for _, c, *_ in sectors] == full.charges.tolist()


def test_capacity_error():
    with pytest.raises(CapacityError) as err:
        fock.build_fock(2, 6, dim_limit=100)
    assert err.value.estimate == 1520
    assert "at least" not in str(err.value)   # fits the mask: counted exactly


def test_capacity_count_stops_early_past_the_mask():
    # su2 at cutoff 400 is far too wide for the mask; the full count takes
    # seconds, while its lower bound passes the limit after a few modes
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="dimension at least") as err:
        fock.build_fock(2, 400)
    assert time.perf_counter() - start < 0.25
    assert err.value.estimate > fock.DEFAULT_DIM_LIMIT


@pytest.mark.parametrize("n, cutoff, dim, dim_limit",
                         [(5, 6, 34002, 10 ** 6), (6, 5, 33665, 10 ** 6),
                          (13, 2, 6592, None)])
def test_mask_width_capacity_error(n, cutoff, dim, dim_limit):
    # within the dimension limit, but (2N+1)*n window modes exceed the
    # 64-bit occupation mask (su13/2 does so within the default limit)
    assert fock._count_states(n, cutoff, 0) == dim
    with pytest.raises(CapacityError, match="64-bit mask") as err:
        fock.build_fock(n, cutoff, charge=0, dim_limit=dim_limit)
    assert err.value.estimate == dim
    assert f"{(2 * cutoff + 1) * n} bits" in str(err.value)


def test_charge_sector_restriction(su2):
    full = fock.build_fock(2, 3)
    sectors = [fock.build_fock(2, 3, charge=q) for q in range(-5, 8)]
    assert sum(s.dim for s in sectors) == full.dim


def test_current_window_error(space6, su2):
    with pytest.raises(WindowError):
        fock.current(space6, su2.basis[0], 7)


def test_zero_mode_annihilates_vacuum(space6, su2):
    for x in (su2.basis[0], np.array([[0, 1], [0, 0]], complex)):
        op = fock.current(space6, x, 0)
        col = op.matrix[:, space6.vacuum_index]
        assert np.abs(col.toarray()).max() == 0


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
    builds = []
    current, sugawara = fock.current, fock.sugawara

    def counting_current(space, x, m):
        builds.append(("current", np.asarray(x).tobytes(), m))
        return current(space, x, m)

    def counting_sugawara(space, m, data):
        builds.append(("sugawara", m))
        return sugawara(space, m, data)

    monkeypatch.setattr(fock, "current", counting_current)
    monkeypatch.setattr(fock, "sugawara", counting_sugawara)
    for n, cutoff, charge in [(2, 6, None), (3, 4, 0)]:
        builds.clear()
        reports = fock.identity_reports(n, cutoff, charge=charge)
        assert all(r["pass"] for r in reports)
        assert builds and len(set(builds)) == len(builds)


def test_grouped_identities_use_no_operator_arithmetic(monkeypatch):
    """The five grouped suites form no FockOperator sum or product: one
    sparse product per affine basis pair (12 sampled on su3) and one for
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
    assert len(calls) == 12 + 3 + 1
    assert calls[:12] == [25] * 12
    assert calls[-1] == 3 * 3   # adjoint: 3 generators, modes 0..2


@pytest.mark.parametrize("n, cutoff, columns", [(3, 4, 1), (2, 6, 14)])
def test_identity_reports_count_protected_columns(n, cutoff, columns):
    reports = {r["identity"]: r for r in fock.identity_reports(n, cutoff, charge=0)}
    for name in ("affine", "commutator", "virasoro"):
        assert reports[name]["columns"] == columns
    assert reports["vacuum-cocycle"]["columns"] == 1


def test_unprotected_residual_raises_window_error(space6, su2):
    # the charge-3 sector of su2/4 starts at energy 1, above every block
    with pytest.raises(WindowError, match="no protected columns"):
        fock.identity_reports(2, 4, charge=3, identities=("affine",))
    op = fock.current(space6, su2.basis[0], 1)
    op.protected_energy = -1
    with pytest.raises(WindowError, match="no protected columns"):
        op.max_protected_abs()


def test_rotation_commutator_sign(space6, su2):
    d = fock.rotation_generator(space6)
    x1 = fock.current(space6, su2.basis[0], 1)
    resid = fock.commutator(d, x1) + 1.0 * x1
    assert resid.max_protected_abs() < 1e-12


def test_sugawara_window(space6, level1_su2):
    with pytest.raises(WindowError):
        fock.sugawara(space6, 4, level1_su2)


def test_central_charge_vacuum_expectation(space6, level1_su2):
    l2 = fock.sugawara(space6, 2, level1_su2)
    lm2 = fock.sugawara(space6, -2, level1_su2)
    comm = fock.commutator(l2, lm2)
    iv = space6.vacuum_index
    assert comm.matrix[iv, iv] == pytest.approx(0.5, abs=1e-10)


def test_l0_spectrum_per_sector(space6, level1_su2):
    l0 = fock.sugawara(space6, 0, level1_su2)
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


def test_l0_one_particle_weight(space6, level1_su2):
    l0 = fock.sugawara(space6, 0, level1_su2)
    idx = [i for i in range(space6.dim)
           if space6.occupations[i] == (((0, 0),), ())]
    col = l0.matrix[:, idx[0]].toarray().ravel()
    assert col[idx[0]] == pytest.approx(0.25, abs=1e-12)


def test_operator_norm_estimate(space6, su2, level1_su2):
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


def test_stress_tensor_bound(space6, level1_su2):
    # ||(1+L0)^k L_n xi|| <= sqrt(c/2) (1+|n|)^{k+3/2} ||(1+L0)^{k+1} xi||
    rng = np.random.default_rng(9)
    l0 = fock.sugawara(space6, 0, level1_su2).matrix
    one_plus = l0 + scipy.sparse.identity(space6.dim, format="csr")

    def power_apply(k, vec):
        for _ in range(k):
            vec = one_plus @ vec
        return vec

    for n in (-2, -1, 1, 2):
        ln = fock.sugawara(space6, n, level1_su2)
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
