"""The cached hop table of ``loopnet.fock`` against the per-state loop it replaced.

``_bilinear`` below is the original pure-Python assembly of the
normal-ordered bilinear sum_k a^dag(k-m) X a(k): one state, one mode and one
matrix entry at a time, with the target row found in its own dict of the
space's words.  It shares no code with the vectorized hop table, so agreement to
1e-14 checks the sign parity, the row lookup and the mode range of the new
path.  ``_oracle_adjoint_residual`` is the adjoint-action check by the dense
``implement_exponential`` route, the whole exp(pi(X)) by ``scipy.linalg.expm``,
against which the column-restricted route of ``_exp_action`` (the in-package
truncated Taylor action) is compared; ``_exp_action`` itself is checked
against ``scipy.sparse.linalg.expm_multiply``.
``_hs_dense_truncated`` is the windowed Hardy defect ||[P, M]||_2^2 from the
whole block matrix M, against which the counted block pairs of
``hs_defect`` are compared.  ``_oracle_suite`` holds the identity residuals
on the hops E_ij(m) as whole ``FockOperator`` expressions (each hop a
``_hop_op``, SciPy's CSR of its table), against which the grouped,
column-restricted evaluation of ``identity_reports`` is compared;
``_sampled_basis_residuals`` keeps the suite's earlier residuals on seeded
orthonormal basis pairs as a check of public ``current`` and
``commutator``.  ``_stacked_csr_oracle`` is the preallocated COO fill that
the concatenating ``_stacked_csr`` replaced, ``_factor_oracle`` the stable
argsort by column that the suites' factors, read where their entries are
made, replaced, and ``_hop_oracle``, ``_vacuum_column_loop`` and
``_random_polynomial_loop`` are the one-at-a-time loops behind the batched
hop build, vacuum column and random element; those five must agree bit for
bit, or to 1e-14 where the sum order may change.  ``_hop_oracle`` lists the
diagonal zero-mode hop E_ii(0) one +1 per filled mode, as the tables did
before each state's entries were summed into one count; the vacuum column
loop reads those per-mode tables.
``_vacuum_cocycle_general`` is the vacuum check by five vacuum columns,
before paired rows were read from columns,
``_vacuum_cocycle_three_columns`` the check before the column of
pi([X, Y]) was formed on its zero mode alone, and ``_grouped_reports_oracle``
the grouped hop suite with every factor read from an operator built apart;
all three must agree bit for bit.  ``_term_order_columns`` sums pi(x) on a
column prefix from the full hop tables, against which the width-limited
tables of the adjoint-action check are compared.
"""

import itertools
import math
from functools import cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from loopnet import affine_data, fock, lie, loops
from loopnet.errors import NumericError, WindowError
from loopnet.loops import FourierLoopElement

from conftest import bench_workloads


def _apply_annihilate(mask, bit):
    if not (mask >> bit) & 1:
        return None
    sign = -1 if (mask & ((1 << bit) - 1)).bit_count() & 1 else 1
    return mask & ~(1 << bit), sign


def _apply_create(mask, bit):
    if (mask >> bit) & 1:
        return None
    sign = -1 if (mask & ((1 << bit) - 1)).bit_count() & 1 else 1
    return mask | (1 << bit), sign


def _bilinear(space, xmat, m):
    """Matrix of the normal-ordered bilinear sum_k a^dag(k-m) X a(k)."""
    n, cutoff = space.n, space.cutoff
    entries = [(i, j, xmat[i, j]) for i in range(n) for j in range(n)
               if abs(xmat[i, j]) > 1e-15]
    if m == 0 and abs(np.trace(xmat)) > 1e-12:
        raise ValueError("zero-mode currents are defined for traceless "
                         "generators only")

    def mode_bit(k, color):
        return (k + cutoff) * n + color

    k_lo = max(-cutoff, -cutoff + m)
    k_hi = min(cutoff, cutoff + m)
    index = {word: row for row, word in enumerate(space.words.tolist())}
    rows, cols, data = [], [], []
    for col, mask in enumerate(space.words.tolist()):
        for k in range(k_lo, k_hi + 1):
            for i, j, xij in entries:
                res = _apply_annihilate(mask, mode_bit(k, j))
                if res is None:
                    continue
                mid, s1 = res
                res = _apply_create(mid, mode_bit(k - m, i))
                if res is None:
                    continue
                out, s2 = res
                row = index.get(out)
                if row is not None:
                    rows.append(row)
                    cols.append(col)
                    data.append(xij * s1 * s2)
    mat = scipy.sparse.csr_matrix(
        (np.array(data, dtype=complex), (rows, cols)),
        shape=(space.dim, space.dim))
    mat.sum_duplicates()
    return mat


def _oracle_pi(space, x):
    mat = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for k, a in x.coefficients.items():
        mat = mat + _bilinear(space, a, k)
    return mat


def _oracle_vacuum_cocycle(space, x, y):
    """The full-matrix route: form the whole commutator, read one element."""
    half = space.cutoff // 2
    px = fock.pi_element(space, x, max_mode=half)
    py = fock.pi_element(space, y, max_mode=half)
    pbr = fock.pi_element(space, loops.bracket_elements(x, y),
                          max_mode=2 * half)
    resid = fock.commutator(px, py) - pbr
    if resid.protected_energy < 0:
        raise WindowError("vacuum column not protected")
    iv = space.vacuum_index
    return complex(resid.matrix[iv, iv])


def _max_diff(a, b):
    d = (a - b).tocsr()
    return float(np.abs(d.data).max()) if d.nnz else 0.0


# su2/6: the full space and each of its nonempty charge sectors, -4..6
SPACES = [(2, 6, q) for q in (None, *range(-4, 7))] + [(3, 4, 0), (2, 8, 0)]


@pytest.fixture(scope="module")
def spaces():
    return {spec: fock.build_fock(*spec) for spec in SPACES}


@pytest.mark.parametrize("spec", SPACES, ids=lambda s: "su%d-N%d-q%s" % s)
def test_current_matches_oracle(spaces, spec):
    space = spaces[spec]
    n, cutoff, _ = spec
    algebra = lie.build_su(n)
    rng = np.random.default_rng(cutoff * 10 + n)
    generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    generic -= np.trace(generic) / n * np.eye(n)
    gens = list(algebra.basis) + [generic]
    for m in range(-cutoff, cutoff + 1):
        for x in gens:
            got = fock.current(space, x, m).matrix
            want = _bilinear(space, np.asarray(x, complex), m)
            assert got.shape == want.shape
            assert _max_diff(got, want) <= 1e-14, (m, x)


def test_current_traceful_nonzero_modes_match_oracle(spaces):
    space = spaces[(2, 6, 0)]
    x = np.array([[1.0, 2.0], [0.5, 3.0j]])
    for m in (-3, 1, 6):
        got = fock.current(space, x, m).matrix
        assert _max_diff(got, _bilinear(space, x, m)) <= 1e-14


def test_current_high_mask_bits_match_oracle():
    # su8 at cutoff 3 uses 56 of the 64 mask bits; hop between the lowest
    # and the highest color so the sign parity spans almost the whole word
    space = fock.build_fock(8, 3, charge=0)
    x = np.zeros((8, 8), complex)
    x[0, 7], x[7, 0] = 1.0, -0.5j
    for m in range(-3, 4):
        got = fock.current(space, x, m).matrix
        assert _max_diff(got, _bilinear(space, x, m)) <= 1e-14, m


def test_current_traceful_zero_mode_rejected(spaces):
    space = spaces[(2, 6, 0)]
    with pytest.raises(ValueError, match="traceless"):
        fock.current(space, np.eye(2), 0)
    with pytest.raises(ValueError, match="traceless"):
        fock.pi_element(space, FourierLoopElement({0: 1j * np.eye(2)},
                                                  lie.build_su(2)))


@pytest.mark.parametrize("spec", [(2, 6, 0), (2, 6, 1), (3, 4, 0), (2, 8, 0)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_pi_element_matches_oracle(spaces, spec):
    space = spaces[spec]
    n, cutoff, _ = spec
    algebra = lie.build_su(n)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = fock._random_polynomial(algebra, rng, cutoff)
        got = fock.pi_element(space, x).matrix
        assert _max_diff(got, _oracle_pi(space, x)) <= 1e-14


def test_sugawara_matches_oracle(spaces):
    """The Casimir-tensor assembly equals the basis sum of oracle products,
    on su2/6 and on su3/4, the benchmark's su3 space, whose Casimir terms
    on the diagonal hops E_cc(0) cancel exactly for m = 0 and -1."""
    for spec in [(2, 6, 0), (3, 4, 0)]:
        space = spaces[spec]
        algebra = lie.build_su(spec[0])
        data = affine_data.level_data(algebra, 1)
        bilinear = cache(lambda i, sign, k: _bilinear(
            space, sign * algebra.basis[i], k))
        half = space.cutoff // 2
        for m in range(-half, half + 1):
            want = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=complex)
            for mp in range(math.ceil(-m / 2), space.cutoff - max(m, 0) + 1):
                weight = 1.0 if 2 * mp == -m else 2.0
                for i in range(algebra.dimension):
                    want = want + weight * (bilinear(i, 1, -mp)
                                            @ bilinear(i, -1, mp + m))
            want = want / (2.0 * (data.level + data.dual_coxeter))
            got = fock.sugawara(space, m).matrix
            assert _max_diff(got, want) <= 1e-13, (spec, m)


def test_vacuum_cocycle_matches_full_matrix_route(spaces):
    space = spaces[(2, 6, 0)]
    algebra = lie.build_su(2)
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = fock._random_polynomial(algebra, rng, 3)
        y = fock._random_polynomial(algebra, rng, 3)
        got = fock.vacuum_cocycle_check(space, x, y)
        assert abs(got - _oracle_vacuum_cocycle(space, x, y)) <= 1e-14


@pytest.mark.parametrize("deficit", range(0, 8))
def test_vacuum_cocycle_protection_matches_full_matrix_route(
        spaces, monkeypatch, deficit):
    """Both routes raise WindowError for exactly the same protected ranges.

    With modes capped at cutoff/2 the vacuum column is always protected, so
    the factors' ``protected_energy`` is lowered by ``deficit`` to reach the
    guard.  Both routes read it from ``_pi_grading``: ``pi_element`` for the
    full matrices and the vacuum check for its guard.
    """
    space = spaces[(2, 6, 0)]
    algebra = lie.build_su(2)
    rng = np.random.default_rng(deficit)
    x = fock._random_polynomial(algebra, rng, 3)
    y = fock._random_polynomial(algebra, rng, 3)
    exact = fock._pi_grading

    def shallow(space, modes, max_mode):
        grading = exact(space, modes, max_mode)
        return grading._replace(
            protected_energy=grading.protected_energy - deficit)

    monkeypatch.setattr(fock, "_pi_grading", shallow)
    try:
        want = _oracle_vacuum_cocycle(space, x, y)
    except WindowError:
        with pytest.raises(WindowError, match="not protected"):
            fock.vacuum_cocycle_check(space, x, y)
    else:
        assert abs(fock.vacuum_cocycle_check(space, x, y) - want) <= 1e-14


def implement_exponential(space, x):
    """Unitary implementer exp(pi(X)) of the loop exp(X), as a dense exponential.

    Exactness degrades with energy (the exponential mixes all grades), so the
    result carries no protected columns.
    """
    mat = scipy.linalg.expm(fock.pi_element(space, x).dense())
    return fock.FockOperator(scipy.sparse.csr_matrix(mat), space, None, -1,
                             space.cutoff)


def test_implement_exponential_zero(su2):
    space = fock.build_fock(2, 4)
    u = implement_exponential(space, FourierLoopElement({}, su2))
    assert np.abs(u.dense() - np.eye(space.dim)).max() < 1e-14


def _oracle_adjoint_residual(space, x, y, block_energy=None, n_samples=256):
    """Residual of the adjoint-action check by the dense route: the whole
    exp(pi(X)) from ``implement_exponential`` and sparse products with it."""
    if block_energy is None:
        block_energy = space.cutoff // 4
    gamma = fock._loop_of_element(x, n_samples)
    u = implement_exponential(space, x)
    lhs = (u @ fock.pi_element(space, y)) @ u.adjoint()
    ys = y.evaluate(gamma.thetas)
    conj = np.einsum("jab,jbc,jdc->jad", gamma.samples, ys, gamma.samples.conj())
    hats = np.fft.fft(conj, axis=0) / n_samples
    ks = np.fft.fftfreq(n_samples, d=1.0 / n_samples).astype(int)
    keep = {int(k): hats[i] for i, k in enumerate(ks)
            if abs(k) <= space.cutoff and np.linalg.norm(hats[i]) > 1e-13}
    ady = FourierLoopElement(keep, x.algebra)
    c_val = loops.cocycle_c(gamma, y)
    rhs = fock.pi_element(space, ady) + (1j * c_val) * fock.identity_operator(space)
    return fock._max_abs_on_columns((lhs - rhs).matrix,
                                    fock._protected_width(space, block_energy))


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_adjoint_action_columns_match_dense_route(spaces, spec):
    space = spaces[spec]
    algebra = lie.build_su(spec[0])
    rng = np.random.default_rng(spec[1])
    for block in (0, 1, space.cutoff // 4):
        a = 0.3 * sum(rng.normal() * b for b in algebra.basis)
        x = FourierLoopElement({1: a, -1: a}, algebra)
        y = fock._random_polynomial(algebra, rng, 2)
        got = fock.adjoint_action_check(space, x, y, block_energy=block)
        want = _oracle_adjoint_residual(space, x, y, block_energy=block)
        assert abs(got["residual_max"] - want) <= 1e-12 * max(1.0, want)


def _bench_adjoint_input():
    """The benchmark's adjoint-action input at seed 3: su2, cutoff 8, charge
    0 (dim 1008), X and Y cosine loops, the 14 columns of energy <= 2."""
    su2 = lie.build_su(2)
    space = fock.build_fock(2, 8, charge=0)

    def cos_loop(amplitude, direction):
        a = amplitude * np.einsum("i,iab->ab", direction, su2.basis)
        return FourierLoopElement({1: a, -1: a}, su2)

    angle = 0.7142223654075871
    x = cos_loop(0.22345771514092144, [math.cos(angle), math.sin(angle), 0.0])
    y = cos_loop(0.2391228190495662,
                 [-0.43746644693708076, -0.34895933469603135, -0.8287644360931212])
    cols = np.flatnonzero(space.energies <= 2)
    e_cols = np.zeros((space.dim, len(cols)), dtype=complex)
    e_cols[cols, np.arange(len(cols))] = 1.0
    return (fock.pi_element(space, x).matrix, fock.pi_element(space, y).matrix,
            e_cols)


def _one_norm(a):
    return float(abs(a).sum(axis=0).max())


def test_exp_action_matches_expm_multiply_on_bench_input():
    import scipy.sparse.linalg

    px, py, e_cols = _bench_adjoint_input()
    assert e_cols.shape == (1008, 14)
    assert 1.5 < _one_norm(px) < fock._TAYLOR_THETA   # one Taylor step
    inner = fock._exp_action(-px, e_cols)
    want = scipy.sparse.linalg.expm_multiply(-px, e_cols)
    assert np.abs(inner - want).max() <= 1e-14
    outer = fock._exp_action(px, py @ inner)
    want = scipy.sparse.linalg.expm_multiply(px, py @ want)
    assert np.abs(outer - want).max() <= 1e-14


def test_exp_action_matches_expm_multiply_in_many_steps():
    import scipy.sparse.linalg

    px, _, e_cols = _bench_adjoint_input()
    a = 15.0 * px
    assert _one_norm(a) >= 20.0
    got = fock._exp_action(a, e_cols)
    assert np.abs(got - scipy.sparse.linalg.expm_multiply(a, e_cols)).max() <= 1e-14
    # unitary: the columns stay orthonormal after 12 steps
    assert np.abs(got.conj().T @ got - np.eye(e_cols.shape[1])).max() <= 1e-14


def test_exp_action_degenerate_inputs():
    """A = 0 takes no step and returns a copy of B.  A block with no columns
    comes back empty; ``expm_multiply`` divides by the column count there
    (ZeroDivisionError), so the dense ``expm`` is the oracle."""
    import scipy.sparse.linalg

    px, _, e_cols = _bench_adjoint_input()
    zero = fock.pi_element(fock.build_fock(2, 8, charge=0),
                           FourierLoopElement({}, lie.build_su(2))).matrix
    assert _one_norm(zero) == 0.0
    got = fock._exp_action(zero, e_cols)
    assert np.abs(got - scipy.sparse.linalg.expm_multiply(zero, e_cols)).max() <= 1e-14
    assert got is not e_cols and np.array_equal(got, e_cols)
    empty = np.zeros((px.shape[0], 0), dtype=complex)
    got = fock._exp_action(px, empty)
    want = scipy.linalg.expm(px.toarray()) @ empty
    assert got.shape == want.shape == (px.shape[0], 0)


def test_adjoint_action_window_guard(spaces):
    space = spaces[(2, 6, 0)]
    su2 = lie.build_su(2)
    a = su2.basis[0]
    x = FourierLoopElement({2: a, -2: a}, su2)
    with pytest.raises(WindowError):
        fock.adjoint_action_check(space, x, x)


def test_adjoint_action_without_columns_is_refused(spaces):
    """No basis state at or below ``block_energy``: the check has nothing to
    compare and says so, instead of passing on an empty residual."""
    space = spaces[(2, 6, 0)]
    su2 = lie.build_su(2)
    x = FourierLoopElement({1: 0.2 * su2.basis[0], -1: 0.2 * su2.basis[0]}, su2)
    with pytest.raises(WindowError, match="no basis state"):
        fock.adjoint_action_check(space, x, x, block_energy=-1)


@pytest.mark.parametrize("spec", [(2, 8, 0), (3, 5, 0)]
                         + [(2, 6, q) for q in (None, *range(-4, 7))],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_width_limited_hop_tables_are_heads_of_the_full_tables(spec):
    """``_build_hops`` on the first ``width`` source states gives, for every
    (i, j, m), the entries of the full table in the first ``width``
    columns, byte for byte and in the same integer types."""
    space = fock.build_fock(*spec)
    n, cutoff, _ = spec
    widths = {1, int(fock._protected_width(space, cutoff // 4)),
              space.dim // 2, space.dim}
    for j, m, width in itertools.product(range(n), range(-cutoff, cutoff + 1),
                                         sorted(widths)):
        heads = fock._build_hops(space, j, m, width)
        for i in range(n):
            full = fock._hop(space, i, j, m)
            end = full[1].searchsorted(width)
            for got, want in zip(heads[i], full):
                assert got.dtype == want.dtype
                assert got.tobytes() == want[:end].tobytes(), (i, j, m, width)


def _spied_pi_columns(monkeypatch):
    """Spy on ``fock._pi_columns``: the list of (space, x, width, block,
    modes of the cached hops at the call) of each call."""
    calls = []
    pi_columns = fock._pi_columns

    def spied(space, x, width):
        cached = {m for *_, m in space.hops}
        block = pi_columns(space, x, width)
        calls.append((space, x, width, block, cached))
        return block

    monkeypatch.setattr(fock, "_pi_columns", spied)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_adjoint_right_side_is_the_csr_columns_on_the_bench_input(seed, monkeypatch):
    """The right side pi(Ad(gamma) Y) on the checked columns equals the
    columns of ``pi_element``, byte for byte, on the benchmark's input;
    the tables of the modes that only Ad(gamma) Y has stay out of
    ``space.hops``, and the residuals are the ones the full matrix gave."""
    bench = bench_workloads()
    spec = bench.oneshot_sweep_setup(seed, None)["adjoint"]
    su2 = lie.build_su(2)
    x = bench._cos_element(su2, spec["x"], [math.cos(spec["x_angle"]),
                                            math.sin(spec["x_angle"]), 0.0])
    y = bench._cos_element(su2, spec["y"], spec["y_dir"])
    n, cutoff, charge = bench._ADJOINT_SPACE
    space = fock.build_fock(n, cutoff, charge=charge)
    calls = _spied_pi_columns(monkeypatch)
    report = fock.adjoint_action_check(space, x, y)
    ((_, ady, width, block, cached),) = calls
    assert width == 14 and max(ady.modes()) == cutoff
    assert cached == {m for *_, m in space.hops} == {-1, 1}
    want = fock.pi_element(space, ady).matrix[:, :width].toarray()
    assert block.tobytes() == want.tobytes()
    residuals = {3: 9.825993024901251e-08, 7: 1.2809882833919974e-07}
    if seed in residuals:
        assert report["residual_max"] == residuals[seed]


def _term_order_columns(space, x, width):
    """pi(x) on its first ``width`` columns from the full hop tables, each
    entry summed in the order of the terms."""
    terms = [(coef, hop) for k, a in x.coefficients.items()
             for coef, hop in fock._hop_terms(space, a, k)]
    block = np.zeros((space.dim, space.dim), dtype=complex)
    for coef, (rows, cols, signs) in terms:
        np.add.at(block, (rows, cols), signs.astype(complex) * coef)
    return block[:, :width]


def test_pi_columns_on_su3_sum_in_term_order():
    """On su3 the block from width-limited tables equals, byte for byte,
    the block from the cached full tables and a term-order sum of the full
    tables.  The CSR of ``pi_element`` is matched to 1e-14: it sums the
    three E_ii(0) entries on the diagonal in the order of SciPy's per-row
    index sort, which does not keep the order of equal columns in rows of
    more than 16 entries."""
    algebra = lie.build_su(3)
    space = fock.build_fock(3, 5, charge=0)
    x = fock._random_polynomial(algebra, np.random.default_rng(4), 5)
    width = int(fock._protected_width(space, 1))
    fresh = fock._pi_columns(space, x, width)
    assert not space.hops
    csr = fock.pi_element(space, x).matrix[:, :width].toarray()
    cached = fock._pi_columns(space, x, width)
    assert fresh.tobytes() == cached.tobytes()
    assert fresh.tobytes() == _term_order_columns(space, x, width).tobytes()
    assert np.abs(fresh - csr).max() <= 1e-14


def test_pi_columns_refuse_as_pi_element_does(spaces):
    space = spaces[(2, 6, 0)]
    su2 = lie.build_su(2)
    wide = FourierLoopElement({7: su2.basis[0], -7: su2.basis[0]}, su2)
    traceful = FourierLoopElement({0: np.eye(2, dtype=complex)}, su2)
    for x, error in ((wide, WindowError), (traceful, NumericError)):
        with pytest.raises(error) as want:
            fock.pi_element(space, x)
        with pytest.raises(error) as got:
            fock._pi_columns(space, x, 5)
        assert str(got.value) == str(want.value)


def _hs_dense_truncated(fourier_data, window):
    """||[P, M]||_2^2 from the dense block matrix M_{pq} = g_{p-q}, |p|, |q| <=
    window, and the Hardy projection P = [q >= 0], summed exactly by
    ``math.fsum`` over the entries' squared magnitudes: ``np.linalg.norm``'s
    pairwise sum of a 1,539 x 1,539 matrix is off by up to ~1.5e-14 relative,
    depending on the BLAS threads."""
    data = {int(k): np.asarray(v, dtype=complex) for k, v in fourier_data.items()}
    n = next(iter(data.values())).shape[0]
    size = (2 * window + 1) * n
    big = np.zeros((size, size), dtype=complex)
    offsets = {p: (p + window) * n for p in range(-window, window + 1)}
    for p in range(-window, window + 1):
        for q in range(-window, window + 1):
            g = data.get(p - q)
            if g is not None:
                big[offsets[p]:offsets[p] + n, offsets[q]:offsets[q] + n] = g
    pdiag = np.zeros(size)
    pdiag[offsets[0]:] = 1.0   # the modes q >= 0 come last
    comm = pdiag[:, None] * big - big * pdiag[None, :]
    return math.fsum((comm.real ** 2 + comm.imag ** 2).ravel())


@pytest.mark.parametrize("n", [2, 3], ids=lambda n: "su%d" % n)
@pytest.mark.parametrize("window", [1, 2, 7, 64, 256])
def test_hs_defect_counts_match_dense_blocks(n, window):
    algebra = lie.build_su(n)
    rng = np.random.default_rng(10 * n + window)
    x = 0.7 * sum(rng.normal() * b for b in algebra.basis)
    gamma = loops.loop_from_factors(
        algebra, [(x, lambda th: np.sin(th) + 0.4 * np.cos(2 * th))], 64)
    data = loops.loop_fourier_coefficients(gamma)
    # modes at the window's edge, in (window, 2 window] and beyond 2 window,
    # where the count falls to zero
    for k in {window, window + 1, 2 * window - 1, 2 * window, 2 * window + 1,
              2 * window + 5}:
        for mode in (k, -k):
            data[mode] = data.get(mode, 0) + 0.1 * (
                rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    got = fock.hs_defect(data, window).truncated_value
    want = _hs_dense_truncated(data, window)
    assert want > 0.0
    assert abs(got - want) <= 1e-14 * want


def _hop_op(space, i, j, m):
    """E_ij(m) as a ``FockOperator``: SciPy's CSR of its cached hop table,
    under the one-mode grading stated here, degree -m, exact on columns of
    energy at most cutoff - max(0, -m), raising by at most max(0, -m)."""
    rows, cols, signs = fock._hop(space, i, j, m)
    mat = scipy.sparse.csr_matrix((signs.astype(complex), (rows, cols)),
                                  shape=(space.dim, space.dim))
    raise_ = max(0, -m)
    return fock.FockOperator(mat, space, -m, space.cutoff - raise_, raise_)


def _unit(n, i, j):
    e = np.zeros((n, n), complex)
    e[i, j] = 1.0
    return e


def _oracle_suite(n, cutoff, mode_range=2, charge=None, seed=7):
    """The space and the residual generators of ``identity_reports`` as
    whole ``FockOperator`` expressions, in the suite's order: every hop
    E_ij(m) a ``_hop_op``, every residual built by operator arithmetic, and
    the report loop below takes its protected energy and
    ``max_protected_abs``.  The affine right side is read from the matrix
    units, [e_ij, e_kl] by matrix products and the central term from
    tr(e_ij e_kl), not from the Kronecker deltas the suite spells out.
    name -> (residuals, starting block, tolerance) at the default tolerance
    1e-10."""
    tol = 1e-10
    algebra = lie.build_su(n)
    data = affine_data.level_data(algebra, 1)
    space = fock.build_fock(n, cutoff, charge=charge)
    rng = np.random.default_rng(seed)
    mode_range = max(1, min(mode_range, cutoff // 2))
    modes = range(-mode_range, mode_range + 1)
    hops = list(itertools.product(range(n), repeat=2))
    hop = cache(lambda i, j, m: _hop_op(space, i, j, m))
    lmode = cache(lambda m: fock.sugawara(space, m))

    def affine():
        probes = [(i, j, a) for i, j in hops for a in modes]
        for (i, j, a), (k, l, b) in itertools.combinations(probes, 2):
            x, y = _unit(n, i, j), _unit(n, k, l)
            brk = x @ y - y @ x
            resid = fock.commutator(hop(i, j, a), hop(k, l, b))
            for p, q in np.argwhere(brk).tolist():
                resid = resid - brk[p, q] * hop(p, q, a + b)
            if a + b == 0:
                pairing = complex(np.trace(x @ y))
                resid = resid - (a * pairing) * fock.identity_operator(space)
            yield resid

    def stress_current():
        for m in modes:
            for k in modes:
                yield (fock.commutator(lmode(m), hop(0, 1, k))
                       + float(k) * hop(0, 1, m + k))

    def virasoro():
        c_val = float(data.central_charge)
        for a in modes:
            for b in modes:
                if abs(a + b) > cutoff // 2 and a != b:
                    continue   # L_{a+b} is outside the Sugawara window
                resid = fock.commutator(lmode(a), lmode(b))
                if a != b:
                    resid = resid - float(a - b) * lmode(a + b)
                if a + b == 0:
                    central = c_val * a * (a * a - 1) / 12.0
                    resid = resid - central * fock.identity_operator(space)
                yield resid

    def rotation():
        d_op = fock.rotation_generator(space)
        for i, j in hops:
            for m in modes:
                yield fock.commutator(d_op, hop(i, j, m)) + float(m) * hop(i, j, m)

    def adjoint():
        for i, j in hops:
            for m in range(0, mode_range + 1):
                yield hop(i, j, m).adjoint() - hop(j, i, -m)

    def vacuum_cocycle():
        for _ in range(10):
            x = fock._random_polynomial(algebra, rng, cutoff // 2)
            y = fock._random_polynomial(algebra, rng, cutoff // 2)
            yield abs(fock.vacuum_cocycle_check(space, x, y)
                      - 1j * loops.central_term_B(x, y))

    suite = {"affine": (affine, cutoff, tol),
             "commutator": (stress_current, cutoff, tol),
             "virasoro": (virasoro, cutoff, tol),
             "rotation": (rotation, cutoff, tol),
             "adjoint": (adjoint, cutoff, tol),
             "vacuum-cocycle": (vacuum_cocycle, 0, max(tol, 1e-12))}
    if charge not in (None, 0):
        del suite["vacuum-cocycle"]
    return space, suite


def _sampled_basis_residuals(n, cutoff, mode_range=2, charge=None, seed=7):
    """The residuals ``identity_reports`` ran before its currents were the
    hops, verbatim: public ``current`` of orthonormal basis elements, 12
    seeded basis pairs of the affine relation where there are more, the
    commutator and rotation on basis[0], and the adjoint on three basis
    elements, each a whole ``FockOperator``.  name -> residual generator."""
    algebra = lie.build_su(n)
    space = fock.build_fock(n, cutoff, charge=charge)
    rng = np.random.default_rng(seed)
    mode_range = max(1, min(mode_range, cutoff // 2))
    modes = range(-mode_range, mode_range + 1)

    basis = [algebra.basis[i] for i in range(algebra.dimension)]
    pair_idx = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
    if len(pair_idx) > 12:
        sel = rng.choice(len(pair_idx), size=12, replace=False)
        pair_idx = [pair_idx[int(s)] for s in sel]

    currents = {}

    def cur(xm, m):
        key = (xm.tobytes(), m)
        if key not in currents:
            currents[key] = fock.current(space, xm, m)
        return currents[key]

    lmode = cache(lambda m: fock.sugawara(space, m))

    def affine():
        for (i, j) in pair_idx:
            xm, ym = basis[i], basis[j]
            brk = xm @ ym - ym @ xm
            pairing = complex(np.trace(xm @ ym))
            for a in modes:
                for b in modes:
                    lhs = fock.commutator(cur(xm, a), cur(ym, b))
                    rhs = cur(brk, a + b)
                    if a + b == 0:
                        rhs = rhs + (a * pairing) * fock.identity_operator(space)
                    yield lhs - rhs

    def stress_current():
        for m in modes:
            for k in modes:
                yield (fock.commutator(lmode(m), cur(basis[0], k))
                       + float(k) * cur(basis[0], m + k))

    def rotation():
        d_op = fock.rotation_generator(space)
        for m in modes:
            yield (fock.commutator(d_op, cur(basis[0], m))
                   + float(m) * cur(basis[0], m))

    def adjoint():
        for i in range(min(3, len(basis))):
            for m in range(0, mode_range + 1):
                yield cur(basis[i], m).adjoint() + cur(basis[i], -m)

    return {"affine": affine, "commutator": stress_current,
            "rotation": rotation, "adjoint": adjoint}


def _oracle_reports(suite):
    """The report loop of ``identity_reports`` over whole-operator residuals."""
    reports = []
    for name, (residuals, block, tolerance) in suite.items():
        worst = 0.0
        for resid in residuals():
            if isinstance(resid, fock.FockOperator):
                block = min(block, resid.protected_energy)
                resid = resid.max_protected_abs()
            worst = max(worst, resid)
        reports.append(fock._report(name, block, worst, tolerance))
    return reports


GROUPED = ("affine", "commutator", "virasoro", "rotation", "adjoint")
SUITE_CASES = [(2, 6, None, 1), (2, 6, None, 2), (3, 4, 0, 1), (3, 4, 0, 2),
               (2, 4, 1, 1), (2, 4, 1, 2)]


def _suite_id(case):
    return "su%d-N%d-q%s-r%d" % case


@pytest.mark.parametrize("case", SUITE_CASES, ids=_suite_id)
def test_grouped_residuals_match_operator_arithmetic(case, monkeypatch):
    """Residual by residual, the (coef, left, right) term lists evaluated
    alone by ``_group_worst`` carry the protected energy of the whole
    operator and its worst protected entry to 1e-14."""
    n, cutoff, charge, mode_range = case
    group_worst = fock._group_worst
    groups = []

    def recording(space, residuals):
        groups.append((space, residuals))
        return group_worst(space, residuals)

    monkeypatch.setattr(fock, "_group_worst", recording)
    _, oracle = _oracle_suite(n, cutoff, mode_range, charge)
    for name in GROUPED:
        groups.clear()
        fock.identity_reports(n, cutoff, identities=(name,),
                              mode_range=mode_range, charge=charge)
        got = [(space, terms) for space, group in groups for terms in group]
        want = list(oracle[name][0]())
        assert len(got) == len(want) > 0
        for (space, terms), resid in zip(got, want):
            worst, prot = group_worst(space, [terms])
            assert prot == resid.protected_energy, name
            assert abs(worst - resid.max_protected_abs()) <= 1e-14, name


@pytest.mark.parametrize("case", SUITE_CASES, ids=_suite_id)
def test_identity_reports_match_operator_arithmetic(case):
    n, cutoff, charge, mode_range = case
    space, oracle = _oracle_suite(n, cutoff, mode_range, charge)
    got = fock.identity_reports(n, cutoff, mode_range=mode_range, charge=charge)
    want = _oracle_reports(oracle)
    assert [r["identity"] for r in got] == [r["identity"] for r in want]
    for g, w in zip(got, want):
        assert (g["block"], g["pass"]) == (w["block"], w["pass"]), g
        assert abs(g["residual_max"] - w["residual_max"]) <= 1e-14, g
        if g["identity"] == "vacuum-cocycle":
            assert (g["block"], g["columns"]) == (0, 1), g
        else:
            assert g["columns"] == np.count_nonzero(space.energies <= g["block"])
        if g["identity"] in ("affine", "rotation", "adjoint"):
            assert g["residual_max"] == w["residual_max"] == 0.0, g


@pytest.mark.parametrize("case", SUITE_CASES, ids=_suite_id)
def test_sampled_basis_residuals_hold_through_public_current(case):
    """The orthonormal-basis residuals of public ``current`` and
    ``commutator`` hold to 1e-13 on the block the hop suite reports."""
    n, cutoff, charge, mode_range = case
    reports = {r["identity"]: r for r in fock.identity_reports(
        n, cutoff, mode_range=mode_range, charge=charge)}
    for name, residuals in _sampled_basis_residuals(
            n, cutoff, mode_range, charge).items():
        resids = list(residuals())
        assert resids, name
        assert min(r.protected_energy for r in resids) == reports[name]["block"]
        assert max(r.max_protected_abs() for r in resids) <= 1e-13, name


def test_operator_difference_is_bit_identical_to_sum_of_negative(spaces):
    space = spaces[(2, 6, 0)]
    x = np.array([[0, 1], [0, 0]], complex)
    ops = [fock.current(space, x, 1), fock.current(space, x.T, -1),
           fock.sugawara(space, 1), fock.identity_operator(space)]
    for a in ops:
        for b in ops:
            got, want = a - b, a + (-1.0) * b
            assert ((got.degree, got.protected_energy, got.max_raise)
                    == (want.degree, want.protected_energy, want.max_raise))
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.matrix, part),
                                      getattr(want.matrix, part))


def _stacked_csr_oracle(blocks, shape):
    """The assembler that the concatenating ``_stacked_csr`` replaced, kept
    verbatim: a preallocated COO fill, block by block, that cuts a block to
    its first ``width`` columns by a mask over all of its entries."""
    keeps = [None if width is None else cols < width
             for _, cols, _, width, *_ in blocks]
    sizes = [len(cols) if keep is None else np.count_nonzero(keep)
             for (_, cols, *_), keep in zip(blocks, keeps)]
    total = sum(sizes)
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows = np.empty(total, dtype=index)
    cols = np.empty(total, dtype=index)
    data = np.empty(total, dtype=complex)
    pos = 0
    for (r, c, d, _, row_offset, col_offset, coef), keep, size in zip(
            blocks, keeps, sizes):
        if keep is not None:
            r, c, d = r[keep], c[keep], d[keep]
        end = pos + size
        np.add(r, row_offset, out=rows[pos:end])
        np.add(c, col_offset, out=cols[pos:end])
        np.multiply(d, coef, out=data[pos:end])
        pos = end
    mat = scipy.sparse.csr_matrix((data, (rows, cols)), shape=shape)
    mat.eliminate_zeros()
    return mat


def _by_count(blocks):
    """Blocks (rows, cols, data, width, ...) as ``_stacked_csr`` takes
    them: the width replaced by the length of the prefix it keeps."""
    return [(r, c, d, None if w is None else int(c.searchsorted(w)), *rest)
            for r, c, d, w, *rest in blocks]


def _random_blocks(rng, shape, count):
    """Column-ordered blocks with int8 hop signs or complex data, cut or
    uncut, at random offsets, with real or complex coefficients; every
    third block is followed by its exact negative, which cancels it."""
    blocks = []
    for _ in range(count):
        height = int(rng.integers(1, shape[0] + 1))
        span = int(rng.integers(1, shape[1] + 1))
        size = int(rng.integers(0, 3 * max(height, span)))
        cols = np.sort(rng.integers(0, span, size)).astype(np.int32)
        rows = rng.integers(0, height, size).astype(np.int32)
        if rng.random() < 0.5:
            data = rng.choice(np.array([-1, 1], dtype=np.int8), size)
        else:
            data = rng.normal(size=size) + 1j * rng.normal(size=size)
        width = None if rng.random() < 0.3 else int(rng.integers(0, span + 1))
        coef = (complex(rng.normal(), rng.normal()) if rng.random() < 0.5
                else float(rng.normal()))
        block = (rows, cols, data, width, int(rng.integers(0, shape[0] - height + 1)),
                 int(rng.integers(0, shape[1] - span + 1)), coef)
        blocks.append(block)
        if len(blocks) % 3 == 0:
            blocks.append((*block[:6], -coef))
    return blocks


def _assert_same_csr(got, want, tol=1e-14):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max(initial=0.0) <= tol


@pytest.mark.parametrize("seed", range(12))
def test_stacked_csr_matches_preallocated_fill(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
    blocks = _random_blocks(rng, shape, int(rng.integers(1, 25)))
    want = _stacked_csr_oracle(blocks, shape)
    _assert_same_csr(fock._stacked_csr(_by_count(blocks), shape), want)
    assert not np.any(want.data == 0)


def test_stacked_csr_drops_what_cancels():
    rows = np.array([0, 2, 1, 0], np.int32)
    cols = np.array([0, 0, 1, 2], np.int32)
    signs = np.array([1, -1, 1, 1], np.int8)
    blocks = [(rows, cols, signs, 2, 1, 3, 0.5j), (rows, cols, signs, 2, 1, 3, -0.5j),
              (rows, cols, signs, None, 0, 0, 2.0)]
    got = fock._stacked_csr(_by_count(blocks), (4, 5))
    _assert_same_csr(got, _stacked_csr_oracle(blocks, (4, 5)))
    assert got.nnz == 4


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0), (2, 6, None)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_assemble_is_bit_identical_to_preallocated_fill(spaces, spec):
    """The bilinears of every basis element and of a generic matrix, at
    every mode: the zero modes of the diagonal ones repeat their diagonal
    entries and go through the summing route, the rest through the
    (row, col) order; both give the preallocated fill bit for bit."""
    space = spaces[spec]
    n, cutoff, _ = spec
    rng = np.random.default_rng(n)
    generic = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    generic -= np.trace(generic) / n * np.eye(n)
    for x in [*lie.build_su(n).basis, generic]:
        for m in range(-cutoff, cutoff + 1):
            terms = fock._hop_terms(space, x, m)
            got = fock._assemble(space, terms)
            want = _stacked_csr_oracle([(*hop, None, 0, 0, coef)
                                        for coef, hop in terms],
                                       (space.dim, space.dim))
            _assert_same_csr(got, want, tol=0.0)


def test_empty_sum_has_no_entries_by_either_route(spaces):
    """No term: the CSR of ``_assemble`` is the oracle's empty matrix, and
    the column-ordered entries read from it are empty with every ``starts``
    0."""
    space = spaces[(2, 6, 0)]
    shape = (space.dim, space.dim)
    _assert_same_csr(fock._assemble(space, []), _stacked_csr_oracle([], shape),
                     tol=0.0)
    factor = fock._factor(fock.current(space, np.zeros((2, 2)), 1))
    assert not any(map(len, factor[:3]))
    assert np.array_equal(factor.starts, np.zeros(space.dim + 1))


def _random_polynomial_loop(algebra, rng, max_mode):
    """The per-element loop that ``fock._random_polynomial`` replaced."""
    coeffs = {}
    for k in map(int, rng.integers(1, max_mode + 1, size=2)):
        a = sum(rng.normal() * algebra.basis[i] + 1j * rng.normal() * algebra.basis[i]
                for i in range(algebra.dimension))
        coeffs[k] = coeffs.get(k, 0) + a
        coeffs[-k] = coeffs.get(-k, 0) + (-a.conj().T)
    z = sum(rng.normal() * algebra.basis[i] for i in range(algebra.dimension))
    coeffs[0] = coeffs.get(0, 0) + z
    return coeffs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_polynomial_is_bit_identical_to_the_loop(n):
    algebra = lie.build_su(n)
    for seed in range(10):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for max_mode in (1, 2, 3):
            got = fock._random_polynomial(algebra, got_rng, max_mode).coefficients
            want = _random_polynomial_loop(algebra, want_rng, max_mode)
            assert list(got) == list(want)
            for k in want:
                assert np.array_equal(got[k], want[k]), (seed, k)
        assert got_rng.random() == want_rng.random()


def _hop_oracle(space, i, j, m):
    """E_ij(m) built alone, as ``fock._hop`` built it before a miss built
    every target color of the source color at once."""
    n, cutoff = space.n, space.cutoff
    words = space.words
    sorted_words, order = space._mask_lookup
    ks = np.arange(max(-cutoff, -cutoff + m), min(cutoff, cutoff + m) + 1)
    one = np.uint64(1)
    src = one << ((ks + cutoff) * n + j).astype(np.uint64)[None, :]
    dst = one << ((ks - m + cutoff) * n + i).astype(np.uint64)[None, :]
    state = words[:, None]
    mid = state & ~src
    ok = ((state & src) != 0) & ((mid & dst) == 0)
    parity = (np.bitwise_count(state & (src - one))
              + np.bitwise_count(mid & (dst - one))) & 1
    cols, kk = np.nonzero(ok)
    target = (mid | dst)[cols, kk]
    pos = np.minimum(np.searchsorted(sorted_words, target), len(words) - 1)
    found = sorted_words[pos] == target
    return (order[pos[found]].astype(np.int32), cols[found].astype(np.int32),
            (1 - 2 * parity[cols[found], kk[found]]).astype(np.int8))


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0), (2, 5, None), (4, 3, 1)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_hops_built_by_source_color_equal_hops_built_alone(spec):
    # the diagonal zero-mode tables E_ii(0) hold the per-mode entries summed
    n, cutoff, charge = spec
    space = fock.build_fock(n, cutoff, charge=charge)
    for i, j in itertools.product(range(n), repeat=2):
        for m in range(-cutoff, cutoff + 1):
            want = _hop_oracle(space, i, j, m)
            if i == j and m == 0:
                want = _summed_by_entry(*want)
            for got, part in zip(fock._hop(space, i, j, m), want):
                assert got.dtype == part.dtype
                assert np.array_equal(got, part), (i, j, m)


def _summed_by_entry(rows, cols, signs):
    """A column-ordered table with the entries of each (row, col) summed."""
    key = cols.astype(np.int64) * (rows.max(initial=0) + 1) + rows
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    total = np.zeros(len(first), dtype=np.int64)
    np.add.at(total, inverse, signs)
    return rows[first], cols[first], total.astype(np.int8)


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0), (2, 5, None), (4, 3, 1)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_diagonal_zero_mode_tables_count_filled_modes(spec):
    # one entry per state, on the diagonal, holding the number of filled
    # window modes of its color; no (row, col) repeats in any table.  A
    # color has at most MASK_BITS // 2 = 32 window modes (su2), so the
    # count is far inside int8
    assert fock.MASK_BITS // 2 <= np.iinfo(np.int8).max
    n, cutoff, charge = spec
    space = fock.build_fock(n, cutoff, charge=charge)
    window = np.arange(2 * cutoff + 1) * n
    for i in range(n):
        rows, cols, counts = fock._hop(space, i, i, 0)
        filled = sum((space.words >> np.uint64(b + i)) & np.uint64(1)
                     for b in window.tolist()).astype(np.int64)
        assert counts.dtype == np.int8
        assert np.array_equal(rows, cols)
        assert np.array_equal(cols, np.flatnonzero(filled))
        assert np.array_equal(counts, filled[filled > 0])
        assert counts.max() <= 2 * cutoff + 1
    for (i, j, m), (rows, cols, _) in space.hops.items():
        assert np.all(np.diff(cols) >= 0), (i, j, m)
        assert len(np.unique(cols.astype(np.int64) * space.dim + rows)) == len(rows)


def _vacuum_column_loop(space, coefficients):
    """The hop-by-hop loop that ``fock._vacuum_column`` replaced, over the
    per-mode tables of ``_hop_oracle``: a diagonal zero-mode coefficient is
    added once per filled mode."""
    rows, values = [], []
    for k, a in coefficients:
        if k > 0:
            continue
        for coef, (hop_rows, cols, signs) in fock._hop_terms(space, a, k,
                                                              _hop_oracle):
            end = cols.searchsorted(1)
            rows.append(hop_rows[:end])
            values.append(coef * signs[:end])
    column = np.zeros(space.dim, dtype=complex)
    if rows:
        np.add.at(column, np.concatenate(rows), np.concatenate(values))
    return column


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_vacuum_column_is_bit_identical_to_the_loop(spaces, spec):
    space = spaces[spec]
    algebra = lie.build_su(spec[0])
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = fock._random_polynomial(algebra, rng, spec[1] // 2)
        for coefficients in (x.coefficients.items(),
                             [(-k, a.conj().T) for k, a in x.coefficients.items()]):
            got = fock._vacuum_column(space, coefficients)
            assert np.array_equal(got, _vacuum_column_loop(space, coefficients))


def _factor_oracle(op):
    """The ``_Factor`` as a stable argsort of op's CSR column indices made
    it, kept verbatim: the sort keeps each column's rows ascending."""
    mat, dim = op.matrix, op.space.dim
    by_column = np.argsort(mat.indices, kind="stable")
    rows = np.repeat(np.arange(dim, dtype=mat.indices.dtype), np.diff(mat.indptr))
    cols = mat.indices[by_column]
    return fock._Factor(rows[by_column], cols, mat.data[by_column],
                        cols.searchsorted(np.arange(dim + 1)), op.protected_energy,
                        op.max_raise)


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0), (2, 8, None)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_factor_matches_argsort_oracle(spec, monkeypatch):
    """Every factor an identity suite reads, by each route that makes one:
    the hops read from their tables, L_m and L_{-m} read from L_{|m|}, and
    the adjoint hops, d and the identity read from their CSC.  Each equals
    the argsort oracle of the operator built apart (``_hop_op``,
    ``sugawara``, or the operator itself): the same entries by column, in
    value and bit for bit in data, and the same ``starts`` and grading.  A
    hop's entries are its table's, which lists a column's entries by window
    mode, not by row: summed, they are the oracle's, and its ``starts``
    count them as listed.
    Every factor in a term the suite evaluates was checked."""
    checked = {}

    def same_entries(got, want):
        for name, g, w in zip(fock._Factor._fields, got, want):
            assert np.array_equal(g, w), name
        assert got.data.tobytes() == want.data.tobytes()

    def same_sums(got, want):
        dim = len(got.starts) - 1
        assert np.array_equal(got.starts, got.cols.searchsorted(np.arange(dim + 1)))
        summed = scipy.sparse.csc_matrix(
            (got.data.astype(complex), (got.rows, got.cols)), shape=(dim, dim))
        for g, w in [(summed.indices, want.rows), (summed.indptr, want.starts),
                     (summed.data, want.data), (got[4:], want[4:])]:
            assert np.array_equal(g, w)

    def compared(route, public, same=same_entries):
        def made(*args):
            got = route(*args)
            same(got, _factor_oracle(public(*args)))
            checked[id(got)] = got
            return got
        return made

    read = []
    group_worst = fock._group_worst

    def reading(space, residuals):
        read.extend(f for terms in residuals for _, *pair in terms for f in pair)
        return group_worst(space, residuals)

    monkeypatch.setattr(fock, "_hop_factor", compared(fock._hop_factor, _hop_op,
                                                      same_sums))
    monkeypatch.setattr(fock, "_sugawara_factor", compared(
        fock._sugawara_factor, lambda l_op, m: fock.sugawara(l_op.space, m)))
    monkeypatch.setattr(fock, "_factor", compared(fock._factor, lambda op: op))
    monkeypatch.setattr(fock, "_group_worst", reading)
    n, cutoff, charge = spec
    fock.identity_reports(n, cutoff, charge=charge)
    assert read and all(id(f) in checked for f in read)
    assert len(checked) >= 45


def _vacuum_cocycle_general(space, x, y):
    """``vacuum_cocycle_check`` before it read vacuum rows from vacuum
    columns: five columns by the hop-by-hop loop, each row the conjugate of
    pi(X*) Omega."""
    br = loops.bracket_elements(x, y)
    col_x, col_y, col_br = (_vacuum_column_loop(space, z.coefficients.items())
                            for z in (x, y, br))
    row_x, row_y = (_vacuum_column_loop(
        space, [(-k, a.conj().T) for k, a in z.coefficients.items()]).conj()
        for z in (x, y))
    return complex(row_x @ col_y - row_y @ col_x - col_br[space.vacuum_index])


def _vacuum_cocycle_three_columns(space, x, y):
    """``vacuum_cocycle_check`` when it formed the whole vacuum column of
    pi([X, Y]) to read its entry 0, kept verbatim after the guards."""
    br = loops.bracket_elements(x, y)
    col_x, col_y, col_br = (fock._vacuum_column(space, z.coefficients.items())
                            for z in (x, y, br))
    row_x, row_y = (
        -col.conj() if fock._paired(z) else fock._vacuum_column(
            space, ((-k, a.conj().T) for k, a in z.coefficients.items())).conj()
        for z, col in ((x, col_x), (y, col_y)))
    comm = row_x @ col_y - row_y @ col_x
    return complex(comm - col_br[space.vacuum_index])


@pytest.mark.parametrize("spec,seed", [((2, 6, 0), 3), ((3, 4, 0), 3),
                                       ((2, 6, 0), 7), ((3, 4, 0), 7),
                                       ((2, 8, 0), 3), ((2, 8, 0), 7)],
                         ids=lambda v: "su%d-N%d-q%s" % v if isinstance(v, tuple)
                         else "seed%d" % v)
def test_vacuum_cocycle_equals_the_three_column_route(spec, seed):
    """The vacuum column of pi([X, Y]) formed on its zero mode alone
    leaves the check bit for bit as the whole column gave it, on the
    elements the identity suite draws at ``seed``."""
    n, cutoff, _ = spec
    space = fock.build_fock(*spec)
    algebra = lie.build_su(n)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        x = fock._random_polynomial(algebra, rng, cutoff // 2)
        y = fock._random_polynomial(algebra, rng, cutoff // 2)
        got = fock.vacuum_cocycle_check(space, x, y)
        want = _vacuum_cocycle_three_columns(space, x, y)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def _counting_vacuum_columns(monkeypatch):
    """Spy on ``fock._vacuum_column``: the list to which each call appends
    the modes of its coefficients."""
    calls = []
    vacuum_column = fock._vacuum_column

    def counting(space, coefficients):
        coefficients = list(coefficients)
        calls.append([k for k, _ in coefficients])
        return vacuum_column(space, coefficients)

    monkeypatch.setattr(fock, "_vacuum_column", counting)
    return calls


@pytest.mark.parametrize("spec", [(2, 6, 0), (3, 4, 0), (4, 3, 0)],
                         ids=lambda s: "su%d-N%d-q%s" % s)
def test_paired_vacuum_rows_match_the_general_route(spec, monkeypatch):
    """On exactly paired elements the row -conj(pi(X) Omega) gives the same
    check, bit for bit, as the row conj(pi(X*) Omega) of the general route,
    forced here by a ``_paired`` that answers False, and as the five-column
    loop; the paired route forms three vacuum columns, the last of
    pi([X, Y]) on its zero mode alone."""
    n, cutoff, _ = spec
    space = fock.build_fock(*spec)
    algebra = lie.build_su(n)
    rng = np.random.default_rng(5)
    calls = _counting_vacuum_columns(monkeypatch)
    for _ in range(10):
        x = fock._random_polynomial(algebra, rng, cutoff // 2)
        y = fock._random_polynomial(algebra, rng, cutoff // 2)
        assert fock._paired(x) and fock._paired(y)
        calls.clear()
        got = fock.vacuum_cocycle_check(space, x, y)
        assert len(calls) == 3 and calls[2] == [0]
        with monkeypatch.context() as patch:
            patch.setattr(fock, "_paired", lambda z: False)
            general = fock.vacuum_cocycle_check(space, x, y)
        assert len(calls) == 3 + 5
        want = _vacuum_cocycle_general(space, x, y)
        assert np.complex128(got).tobytes() == np.complex128(general).tobytes()
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def test_nearly_paired_element_takes_the_general_route(monkeypatch):
    """A real-form-tagged element whose coefficients pair only to ~1e-13 is
    not ``_paired``: its row is formed from pi(X*) Omega (a fourth vacuum
    column), and the check equals the five-column loop bit for bit."""
    space = fock.build_fock(2, 6, charge=0)
    algebra = lie.build_su(2)
    rng = np.random.default_rng(9)
    x = fock._random_polynomial(algebra, rng, 3)
    y = fock._random_polynomial(algebra, rng, 3)
    k = max(x.coefficients)
    near = dict(x.coefficients)
    near[-k] = near[-k] + 1e-13 * algebra.basis[0]
    x_near = FourierLoopElement(near, algebra, real_form=True)
    assert x_near.real_form and not fock._paired(x_near)
    calls = _counting_vacuum_columns(monkeypatch)
    got = fock.vacuum_cocycle_check(space, x_near, y)
    assert calls == [list(z.coefficients) for z in (x_near, y)] + [
        [0], [-m for m in x_near.coefficients]]
    want = _vacuum_cocycle_general(space, x_near, y)
    assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def _grouped_reports_oracle(n, cutoff, charge, seed, mode_range=2, tol=1e-10):
    """``identity_reports`` on the hops, verbatim but for the factors:
    every factor the argsort oracle of an operator built apart (``_hop_op``,
    ``sugawara`` at every mode, its own L_{-m} included, the adjoint of
    ``_hop_op``, d and the identity), and the vacuum cocycle by five vacuum
    columns and reported on the one vacuum column it reads."""
    algebra = lie.build_su(n)
    space = fock.build_fock(n, cutoff, charge=charge)
    rng = np.random.default_rng(seed)
    mode_range = min(mode_range, cutoff // 2)
    modes = range(-mode_range, mode_range + 1)
    hops = list(itertools.product(range(n), repeat=2))

    hop = cache(lambda i, j, m: _factor_oracle(_hop_op(space, i, j, m)))
    lmode = cache(lambda m: _factor_oracle(fock.sugawara(space, m)))
    eye = _factor_oracle(fock.identity_operator(space))

    def bracket(a, b):
        return [(1.0, a, b), (-1.0, b, a)]

    def affine():
        probes = [(i, j, a) for i, j in hops for a in modes]
        pairs = itertools.combinations(probes, 2)
        for _, by_left in itertools.groupby(pairs, key=lambda pq: pq[0][:2]):
            group = []
            for (i, j, a), (k, l, b) in by_left:
                terms = bracket(hop(i, j, a), hop(k, l, b))
                if j == k:
                    terms.append((-1.0, eye, hop(i, l, a + b)))
                if l == i:
                    terms.append((1.0, eye, hop(k, j, a + b)))
                if a + b == 0 and j == k and l == i:
                    terms.append((-float(a), eye, eye))
                group.append(terms)
            yield group

    def stress_current():
        yield [[*bracket(lmode(m), hop(0, 1, k)), (float(k), eye, hop(0, 1, m + k))]
               for m in modes for k in modes]

    def virasoro():
        c_val = float(affine_data.level_data(algebra, 1).central_charge)
        group = []
        for a in modes:
            for b in modes:
                if abs(a + b) > cutoff // 2 and a != b:
                    continue
                terms = bracket(lmode(a), lmode(b))
                if a != b:
                    terms.append((-float(a - b), eye, lmode(a + b)))
                if a + b == 0:
                    terms.append((-c_val * a * (a * a - 1) / 12.0, eye, eye))
                group.append(terms)
        yield group

    def rotation():
        d_op = _factor_oracle(fock.rotation_generator(space))
        yield [[*bracket(d_op, hop(i, j, m)), (float(m), eye, hop(i, j, m))]
               for i, j in hops for m in modes]

    def adjoint():
        yield [[(1.0, eye, _factor_oracle(_hop_op(space, i, j, m).adjoint())),
                (-1.0, eye, hop(j, i, -m))]
               for i, j in hops for m in range(mode_range + 1)]

    def vacuum_cocycle():
        for _ in range(10):
            x = fock._random_polynomial(algebra, rng, cutoff // 2)
            y = fock._random_polynomial(algebra, rng, cutoff // 2)
            yield abs(_vacuum_cocycle_general(space, x, y)
                      - 1j * loops.central_term_B(x, y))

    suite = {"affine": (affine, cutoff, tol),
             "commutator": (stress_current, cutoff, tol),
             "virasoro": (virasoro, cutoff, tol),
             "rotation": (rotation, cutoff, tol),
             "adjoint": (adjoint, cutoff, tol),
             "vacuum-cocycle": (vacuum_cocycle, 0, max(tol, 1e-12))}
    reports = []
    for name, (residuals, block, tolerance) in suite.items():
        if name == "vacuum-cocycle" and charge not in (None, 0):
            continue
        worst = 0.0
        for resid in residuals():
            if isinstance(resid, list):
                resid, prot = fock._group_worst(space, resid)
                block = min(block, prot)
            worst = max(worst, resid)
        columns = (1 if name == "vacuum-cocycle"
                   else int(fock._protected_width(space, block)))
        reports.append(fock._report(name, block, worst, tolerance, columns=columns))
    return reports


@pytest.mark.parametrize("case", [(2, 6, None, 7), (2, 6, None, 3), (3, 4, 0, 7),
                                  (3, 4, 0, 3), (4, 3, 0, 7), (2, 4, 1, 7)],
                         ids=lambda c: "su%d-N%d-q%s-seed%d" % c)
def test_identity_reports_are_bit_identical_to_the_grouped_route(case):
    n, cutoff, charge, seed = case
    got = fock.identity_reports(n, cutoff, charge=charge, seed=seed)
    want = _grouped_reports_oracle(n, cutoff, charge, seed)
    assert [r["identity"] for r in got] == [r["identity"] for r in want]
    assert got == want


def _per_mode_hops(monkeypatch):
    """Serve every hop from ``_hop_oracle``, whose E_ii(0) lists one +1 per
    filled mode, as the cached tables did before they summed them."""
    tables = {}

    def hop(space, i, j, m):
        key = (id(space), i, j, m)
        if key not in tables:
            tables[key] = _hop_oracle(space, i, j, m)
        return tables[key]

    monkeypatch.setattr(fock, "_hop", hop)


def _bench_suite_seeds(workload_seed):
    """The suite seeds the benchmark's ``operator_suites`` draws for its
    two spaces (su2/6, su3/4) at a workload seed."""
    rng = np.random.default_rng(workload_seed)
    return [int(rng.integers(2 ** 31)) for _ in range(2)]


@pytest.mark.parametrize("workload_seed", [3, 7])
def test_summed_zero_mode_tables_leave_the_suites_bit_identical(workload_seed,
                                                                monkeypatch):
    # the benchmark's two suites, the Sugawara modes in CSR and the vacuum
    # check, with the summed tables and with the per-mode ones.  The seeds
    # reach the vacuum cocycle alone, so at workload seed 3 the suites run
    # that identity and no Sugawara mode is compared; seed 7 runs them all
    full = workload_seed == 7
    rng = np.random.default_rng(workload_seed)
    for seed, (n, cutoff) in zip(_bench_suite_seeds(workload_seed), ((2, 6), (3, 4))):
        algebra = lie.build_su(n)
        x, y = (fock._random_polynomial(algebra, rng, cutoff // 2) for _ in range(2))

        def outputs():
            space = fock.build_fock(n, cutoff, charge=0)
            sugawara = [fock.sugawara(space, m).matrix
                        for m in range(cutoff // 2 + 1 if full else 0)]
            return (fock.identity_reports(n, cutoff, None if full else ("vacuum-cocycle",),
                                          mode_range=2, charge=0, seed=seed),
                    [(op.indptr.tobytes(), op.indices.tobytes(), op.data.tobytes())
                     for op in sugawara],
                    fock.vacuum_cocycle_check(space, x, y))

        summed = outputs()
        with monkeypatch.context() as m:
            _per_mode_hops(m)
            per_mode = outputs()
        assert summed[0] == per_mode[0]
        assert summed[1] == per_mode[1]
        assert np.array_equal(summed[2], per_mode[2])
