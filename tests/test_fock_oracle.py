"""The cached hop table of ``loopnet.fock`` against the per-state loop it replaced.

``_bilinear`` below is the original pure-Python assembly of the
normal-ordered bilinear sum_k a^dag(k-m) X a(k): one state, one mode and one
matrix entry at a time, with the target row found in the space's dict
index.  It shares no code with the vectorized hop table, so agreement to
1e-14 checks the sign parity, the row lookup and the mode range of the new
path.  ``_oracle_adjoint_residual`` is the adjoint-action check by the dense
``implement_exponential`` route, the whole exp(pi(X)) by ``scipy.linalg.expm``,
against which the column-restricted ``expm_multiply`` route is compared.
"""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from loopnet import affine_data, fock, lie, loops
from loopnet.errors import WindowError
from loopnet.loops import FourierLoopElement


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
    rows, cols, data = [], [], []
    for col, mask in enumerate(space.masks):
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
                row = space.index.get(out)
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
    """The Casimir-tensor assembly equals the basis sum of oracle products."""
    space = spaces[(2, 6, 0)]
    algebra = lie.build_su(2)
    data = affine_data.level_data(algebra, 1)
    for m in range(-3, 4):
        want = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=complex)
        for mp in range(math.ceil(-m / 2), space.cutoff - max(m, 0) + 1):
            weight = 1.0 if 2 * mp == -m else 2.0
            for x in algebra.basis:
                want = want + weight * (_bilinear(space, x, -mp)
                                        @ _bilinear(space, -x, mp + m))
        want = want / (2.0 * (data.level + data.dual_coxeter))
        got = fock.sugawara(space, m, data).matrix
        assert _max_diff(got, want) <= 1e-13, m


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
    guard.
    """
    space = spaces[(2, 6, 0)]
    algebra = lie.build_su(2)
    rng = np.random.default_rng(deficit)
    x = fock._random_polynomial(algebra, rng, 3)
    y = fock._random_polynomial(algebra, rng, 3)
    exact = fock.pi_element

    def shallow(space, elem, max_mode=None):
        op = exact(space, elem, max_mode)
        return fock.FockOperator(op.matrix, op.space, op.degree,
                                 op.protected_energy - deficit, op.max_raise)

    monkeypatch.setattr(fock, "pi_element", shallow)
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
                                    space.energies <= block_energy)


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


def test_adjoint_action_window_guard(spaces):
    space = spaces[(2, 6, 0)]
    su2 = lie.build_su(2)
    a = su2.basis[0]
    x = FourierLoopElement({2: a, -2: a}, su2)
    with pytest.raises(WindowError):
        fock.adjoint_action_check(space, x, x)
