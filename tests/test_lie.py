import ast
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loopnet import cli, errors, lie
from loopnet.errors import (AlgebraMismatchError, CapacityError, InvalidRankError,
                            NumericError)


def test_build_su2_invariants(su2):
    assert su2.dimension == 3
    assert su2.dual_coxeter == 2
    for x in su2.basis:
        assert np.abs(x.conj().T + x).max() < 1e-12
        assert abs(np.trace(x)) < 1e-12
    gram = -np.einsum("iab,jba->ij", su2.basis, su2.basis)
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_build_su3_table_values(su3):
    assert su3.dimension == 8
    assert su3.dual_coxeter == 3


def test_highest_root_normalization(su2):
    # trace form on diag(1,-1) gives 2, the defining normalization
    h = su2.element(np.diag([1.0, -1.0]))
    assert lie.basic_form(h, h) == pytest.approx(2.0)


def test_basic_form_examples(su2):
    x = su2.element(np.diag([1j, -1j]))
    assert lie.basic_form(x, x) == pytest.approx(-2.0)
    zero = su2.element(np.zeros((2, 2)))
    assert lie.basic_form(x, zero) == 0
    # orthonormal basis pairs by brute-force trace
    for i in range(3):
        for j in range(3):
            val = lie.basic_form(su2.basis_element(i), su2.basis_element(j))
            assert val == pytest.approx(-float(i == j), abs=1e-12)


def test_basic_form_negative_definite_on_real_form(su2):
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeff = rng.normal(size=3)
        x = su2.element(np.einsum("i,iab->ab", coeff, su2.basis))
        val = lie.basic_form(x, x)
        assert abs(val.imag) < 1e-12
        assert val.real < 0


def test_bracket_sl2_relations(su2):
    e = su2.element([[0, 1], [0, 0]])
    f = su2.element([[0, 0], [1, 0]])
    h = lie.bracket(e, f)
    assert np.abs(h.matrix - np.diag([1.0, -1.0])).max() < 1e-14
    x = su2.basis_element(1)
    assert np.abs(lie.bracket(x, x).matrix).max() == 0


def test_bracket_jacobi_random(su2):
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (su2.element(rng.normal(size=(2, 2))
                               + 1j * rng.normal(size=(2, 2)))
                   for _ in range(3))
        total = (lie.bracket(a, lie.bracket(b, c)).matrix
                 + lie.bracket(b, lie.bracket(c, a)).matrix
                 + lie.bracket(c, lie.bracket(a, b)).matrix)
        assert np.abs(total).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_casimir_dual_coxeter(n):
    alg = lie.build_su(n)
    for idx in range(alg.dimension):
        y = alg.basis_element(idx)
        total = np.zeros((n, n), dtype=complex)
        for i in range(alg.dimension):
            xi = alg.basis_element(i)
            total += lie.bracket(xi, lie.bracket(-1 * xi, y)).matrix
        assert np.abs(total - 2 * n * y.matrix).max() < 1e-10


def test_structure_constants_computed_once_read_only():
    alg = lie.build_su(3)
    assert "structure_constants" not in vars(alg)
    c = alg.structure_constants
    assert c is alg.structure_constants
    assert c.shape == (8, 8, 8) and c.dtype == float
    assert not c.flags.writeable
    # [x_i, x_j] = sum_h c[h, i, j] x_h
    for i in range(8):
        for j in range(8):
            comm = alg.basis[i] @ alg.basis[j] - alg.basis[j] @ alg.basis[i]
            assert np.abs(np.einsum("h,hab->ab", c[:, i, j], alg.basis)
                          - comm).max() < 1e-13


def test_structure_constant_symmetries(su3):
    c = su3.structure_constants
    # c^h_ij = c^i_jh = -c^i_hj
    assert np.abs(c - np.transpose(c, (1, 2, 0))).max() < 1e-12
    assert np.abs(c + np.transpose(np.transpose(c, (1, 2, 0)), (0, 2, 1))).max() < 1e-12
    assert np.abs(c + np.transpose(c, (0, 2, 1))).max() < 1e-12  # antisymmetry in ij


def test_center_elements():
    z2 = lie.center_elements(2)
    assert np.abs(z2[0] - np.eye(2)).max() < 1e-14
    assert np.abs(z2[1] + np.eye(2)).max() < 1e-14
    z3 = lie.center_elements(3)
    for z in z3:
        assert np.linalg.det(z) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(z - z[0, 0] * np.eye(3)).max() < 1e-14
    probe = np.diag([1j, -1j])
    assert all(np.abs(probe - z).max() > 0.5 for z in z2)


def test_group_exp(su2):
    zero = su2.element(np.zeros((2, 2)))
    assert np.abs(lie.group_exp(zero) - np.eye(2)).max() < 1e-14
    x = su2.element(np.diag([1j * np.pi / 2, -1j * np.pi / 2]))
    assert np.abs(lie.group_exp(x) - np.diag([1j, -1j])).max() < 1e-12
    rng = np.random.default_rng(5)
    coeff = rng.normal(size=3)
    y = su2.element(np.einsum("i,iab->ab", coeff, su2.basis))
    u = lie.group_exp(y)
    uinv = lie.group_exp(-1 * y)
    assert np.abs(u @ uinv - np.eye(2)).max() < 1e-12
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_group_exp_matches_expm(n):
    import scipy.linalg

    algebra = lie.build_su(n)
    rng = np.random.default_rng(40 + n)
    for norm in (0.1, 1.0, 3.0, 10.0):
        coeff = rng.normal(size=algebra.dimension)
        x = np.einsum("i,iab->ab", norm * coeff / np.linalg.norm(coeff),
                      algebra.basis)
        got = lie.group_exp(algebra.element(x, real_form=True))
        assert np.abs(got - scipy.linalg.expm(x)).max() <= 1e-13


def test_errors(su2, su3):
    with pytest.raises(InvalidRankError):
        lie.build_su(1)
    with pytest.raises(InvalidRankError):
        lie.center_elements(0)
    with pytest.raises(AlgebraMismatchError):
        lie.basic_form(su2.basis_element(0), su3.basis_element(0))
    with pytest.raises(AlgebraMismatchError):
        lie.bracket(su2.basis_element(0), su3.basis_element(0))
    with pytest.raises(NumericError, match="non-finite"):
        lie.group_exp(su2.element(np.full((2, 2), np.nan)))
    with pytest.raises(ValueError, match="real-form"):
        lie.group_exp(su2.element(1j * su2.basis[0]))


def test_simple_type_table():
    table = lie.simple_type_table(8)
    by_key = {(r.family, r.rank): r for r in table}
    assert by_key[("A", 1)].complex_dimension == 3
    assert by_key[("A", 2)].dual_coxeter == 3
    assert by_key[("B", 3)].complex_dimension == 21
    assert by_key[("B", 3)].dual_coxeter == 5
    assert by_key[("C", 4)].complex_dimension == 36
    assert by_key[("C", 4)].dual_coxeter == 5
    assert by_key[("D", 5)].complex_dimension == 45
    assert by_key[("D", 5)].dual_coxeter == 8
    assert by_key[("E6", 6)].complex_dimension == 78
    assert by_key[("E7", 7)].complex_dimension == 133
    assert by_key[("E8", 8)].dual_coxeter == 30
    assert by_key[("F4", 4)].complex_dimension == 52
    assert by_key[("G2", 2)].dual_coxeter == 4
    for rec in table:
        assert rec.dual_coxeter + 1 <= rec.complex_dimension


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exp_antihermitian_matches_per_sample_eigh(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
    stack = 0.7 * (a - a.conj().transpose(0, 2, 1))
    want = np.empty_like(stack)
    for j in range(len(stack)):
        w, u = np.linalg.eigh(1j * stack[j])
        want[j] = (u * np.exp(-1j * w)) @ u.conj().T
    got = lie.exp_antihermitian(stack)
    assert np.abs(got - want).max() <= 1e-14
    nested = lie.exp_antihermitian(stack.reshape(5, 8, n, n))
    assert np.abs(nested.reshape(stack.shape) - want).max() <= 1e-14


def test_exp_antihermitian_matches_expm(su3):
    import scipy.linalg

    x = 1.3 * su3.basis[2] - 0.4 * su3.basis[7]
    got = lie.exp_antihermitian(x[None])[0]
    assert np.abs(got - scipy.linalg.expm(x)).max() <= 1e-13
    assert np.array_equal(lie.exp_antihermitian(np.zeros((3, 3, 3))),
                          np.broadcast_to(np.eye(3), (3, 3, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exp_profile_matches_expm(n):
    import scipy.linalg

    algebra = lie.build_su(n)
    rng = np.random.default_rng(20 + n)
    x = np.einsum("i,iab->ab", rng.normal(size=algebra.dimension), algebra.basis)
    fs = np.array([0.0, 1.0, -1.0, 0.35, -2.6])
    got = lie.exp_profile(*lie.eig_antihermitian(x), fs)
    assert got.shape == (len(fs), n, n)
    for f, g in zip(fs, got):
        assert np.abs(g - scipy.linalg.expm(f * x)).max() <= 1e-13


def test_as_generator(su2):
    x = su2.basis[1]
    assert np.array_equal(lie.as_generator(su2.basis_element(1), 2), x)
    assert np.array_equal(lie.as_generator(x.tolist(), 2), x)
    with pytest.raises(ValueError, match="generator shape"):
        lie.as_generator(np.zeros((3, 3)), 2)
    with pytest.raises(ValueError, match="generators must be anti-hermitian"):
        lie.as_generator(1j * x, 2)


def test_as_generator_refuses_off_and_nonfinite():
    """The anti-hermitian test is max |m + m*| <= 1e-12, absolute: a matrix
    1e-6 off, which a relative 1e-5 rule accepted, is refused, and so is a
    matrix with a NaN or an infinite entry."""
    off = np.array([[1j, 1.0], [-1.0 + 1e-6, -1j]])
    near = np.array([[0.0, 0.7071], [-0.70710678, 0.0]])
    for bad in (off, near, np.array([[np.nan, 0.0], [0.0, 0.0]]),
                np.array([[1j, np.inf], [-np.inf, -1j]])):
        with pytest.raises(ValueError, match="generators must be anti-hermitian"):
            lie.as_generator(bad, 2)
    # the tolerance itself: a gap of exactly 1e-12 passes, one ulp more fails
    edge = np.diag([5e-13 + 1j, -1j])
    assert lie._antihermitian_gap(edge) == 1e-12
    assert np.array_equal(lie.as_generator(edge, 2), edge)
    edge[0, 0] = np.nextafter(5e-13, 1.0) + 1j
    with pytest.raises(ValueError, match="anti-hermitian"):
        lie.as_generator(edge, 2)


def test_algebra_element_tag_agrees_with_inferred(su3):
    """An untagged element is real-form exactly when the tag is accepted."""
    rng = np.random.default_rng(5)
    verdicts = []
    for _ in range(200):
        x = np.einsum("i,iab->ab", rng.normal(size=8), su3.basis)
        noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = x + 10.0 ** rng.uniform(-14, -10) * noise
        inferred = su3.element(m).real_form
        assert inferred is (lie._antihermitian_gap(m) <= 1e-12)
        if inferred:
            assert su3.element(m, real_form=True).real_form
        else:
            with pytest.raises(ValueError, match="tagged real-form"):
                su3.element(m, real_form=True)
        verdicts.append(inferred)
    assert len(set(verdicts)) == 2
    assert su3.element(np.full((3, 3), np.nan)).real_form is False


def test_build_su_refuses_oversized_basis():
    """The (n^2 - 1, n, n) complex basis is refused above MAX_BASIS_BYTES,
    before anything of that size is allocated; su30 is still built."""
    def nbytes(n):
        return (n * n - 1) * n * n * 16

    largest = max(n for n in range(2, 200) if nbytes(n) <= lie.MAX_BASIS_BYTES)
    assert largest >= 30
    tracemalloc.start()
    try:
        for n in (largest + 1, 200, 10**6):
            with pytest.raises(CapacityError, match="basis needs") as err:
                lie.build_su(n)
            assert err.value.estimate == nbytes(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_package_has_no_relative_tolerance_tests():
    """``allclose``/``isclose`` carry a hidden rtol = 1e-5; every membership
    and closeness test in the package states its own absolute residual."""
    pattern = re.compile(r"\b(?:all|is)close\(")
    package = Path(lie.__file__).parent
    hits = [f"{path.name}:{i}"
            for path in sorted(package.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_package_has_no_scipy_linalg():
    """``scipy.linalg`` and ``scipy.sparse.linalg`` are test oracles only;
    the package's exponentials are its own."""
    pattern = re.compile(r"scipy(?:\.sparse)?\.linalg|"
                         r"from scipy(?:\.sparse)? import[^#]*\blinalg\b")
    package = Path(lie.__file__).parent
    hits = [f"{path.name}:{i}"
            for path in sorted(package.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_cli_maps_library_refusals_in_one_place():
    """Only ``cli._accepted`` turns a library refusal into a ConfigError: no
    other handler in the CLI catches a library input error, or turns what
    it catches, bar a JSON syntax error, into a ConfigError."""
    library = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, ValueError)
               and cls is not errors.ConfigError} | {"ValueError"}
    tree = ast.parse(Path(cli.__file__).read_text())
    inside = {id(node) for helper in tree.body
              if isinstance(helper, ast.FunctionDef) and helper.name == "_accepted"
              for node in ast.walk(helper)}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or id(node) in inside:
            continue
        caught = ({getattr(n, "id", None) or getattr(n, "attr", None)
                   for n in ast.walk(node.type)} - {None}
                  if node.type else {"ValueError"})   # a bare except
        config = any(isinstance(n, ast.Raise) and "ConfigError" in ast.unparse(n)
                     for n in ast.walk(node))
        if caught & library or config and caught - {"json", "JSONDecodeError"}:
            hits.append(f"cli.py:{node.lineno}")
    assert hits == []


_IMPORT_GUARD = """
import sys
from loopnet import cli, fock, lie
from loopnet.loops import FourierLoopElement

su2 = lie.build_su(2)
lie.group_exp(su2.basis_element(0))
x = FourierLoopElement({1: 0.2 * su2.basis[0], -1: 0.2 * su2.basis[0]}, su2)
assert fock.adjoint_action_check(fock.build_fock(2, 4), x, x)["pass"]
assert cli.main(["alcove", "--algebra", "su3", "--level", "2",
                 "--out-dir", sys.argv[1]]) == 0
loaded = [m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules]
assert loaded == [], loaded
"""


def test_workload_paths_do_not_load_scipy_linalg(tmp_path):
    """A fresh interpreter that imports the package and the CLI, takes one
    group exponential and one adjoint-action check and runs an alcove task
    never loads ``scipy.linalg`` or ``scipy.sparse.linalg``."""
    src = str(Path(lie.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD,
                           str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
