"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none deferred to configuration.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from loopnet import affine_data, entropy, fock, lie, loops, soliton
from loopnet.loops import FourierLoopElement, ScalarField

from conftest import random_line_path


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {description} {detail}".rstrip())
    assert ok, f"criterion {num}: {description} {detail}"


@pytest.fixture(scope="module")
def su2():
    return lie.build_su(2)


@pytest.fixture(scope="module")
def su3():
    return lie.build_su(3)


@pytest.fixture(scope="module")
def space_su2(su2):
    return fock.build_fock(2, 6)


@pytest.fixture(scope="module")
def space_su3(su3):
    return fock.build_fock(3, 4)


@pytest.fixture(scope="module")
def level_su2(su2):
    return affine_data.level_data(su2, 1)


@pytest.fixture(scope="module")
def level_su3(su3):
    return affine_data.level_data(su3, 1)


def test_criterion_01_stress_current_commutator(su2, space_su2):
    t0 = time.perf_counter()
    lmodes = {m: fock.sugawara(space_su2, m) for m in range(-2, 3)}
    worst = 0.0
    for m in range(-2, 3):
        for k in range(-2, 3):
            for i in range(su2.dimension):
                resid = fock.commutator(
                    lmodes[m], fock.current(space_su2, su2.basis[i], k)) \
                    + float(k) * fock.current(space_su2, su2.basis[i], m + k)
                worst = max(worst, resid.max_protected_abs())
    elapsed = time.perf_counter() - t0
    _criterion(1, "stress-current commutator residual <= 1e-10 within 30 s",
               worst <= 1e-10 and elapsed <= 30.0,
               f"(residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_central_charge(space_su2, space_su3):
    results = []
    for space, c in ((space_su2, 1.0), (space_su3, 2.0)):
        comm = fock.commutator(fock.sugawara(space, 2),
                               fock.sugawara(space, -2))
        iv = space.vacuum_index
        got = complex(comm.matrix[iv, iv])
        results.append(abs(got - c / 2))
    _criterion(2, "vacuum [L2, L-2] expectation equals c/2 to 1e-10",
               all(r <= 1e-10 for r in results),
               f"(residuals {results[0]:.2e}, {results[1]:.2e})")


def test_criterion_03_conformal_weights(space_su2, level_su2, space_su3,
                                        level_su3, su2, su3):
    checks = []
    l0 = fock.sugawara(space_su2, 0).dense()
    expected_su2 = {0: affine_data.conformal_weight((0,), level_su2),
                    1: affine_data.conformal_weight((1,), level_su2)}
    for q, h in expected_su2.items():
        idx = np.nonzero(space_su2.charges == q)[0]
        low = np.linalg.eigvalsh(l0[np.ix_(idx, idx)]).min()
        checks.append(abs(low - float(h)))
    l0 = fock.sugawara(space_su3, 0).dense()
    expected_su3 = {0: affine_data.conformal_weight((0, 0), level_su3),
                    1: affine_data.conformal_weight((1, 0), level_su3),
                    2: affine_data.conformal_weight((0, 1), level_su3)}
    for q, h in expected_su3.items():
        idx = np.nonzero(space_su3.charges == q)[0]
        low = np.linalg.eigvalsh(l0[np.ix_(idx, idx)]).min()
        checks.append(abs(low - float(h)))
    _criterion(3, "lowest L0 per charge sector matches exact h to 1e-10",
               max(checks) <= 1e-10, f"(worst {max(checks):.2e})")


def test_criterion_04_affine_level(su2, space_su2):
    e = np.array([[0, 1], [0, 0]], complex)
    f = np.array([[0, 0], [1, 0]], complex)
    pairs = [(e, f), (f, e)] + [(su2.basis[i], su2.basis[j])
                                for i in range(3) for j in range(3)]
    worst = 0.0
    for x, y in pairs:
        brk = x @ y - y @ x
        lhs = fock.commutator(fock.current(space_su2, x, 1),
                              fock.current(space_su2, y, -1))
        rhs = fock.current(space_su2, brk, 0) + complex(np.trace(x @ y)) * \
            fock.identity_operator(space_su2)
        worst = max(worst, (lhs - rhs).max_protected_abs())
    _criterion(4, "level-1 relation [x(1), y(-1)] - [x,y](0) = <x,y> Id "
               "to 1e-10", worst <= 1e-10, f"(residual {worst:.2e})")


def test_criterion_05_vacuum_cocycle(su2, space_su2):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        x = fock._random_polynomial(su2, rng, 3)
        y = fock._random_polynomial(su2, rng, 3)
        got = fock.vacuum_cocycle_check(space_su2, x, y)
        want = 1j * loops.central_term_B(x, y)
        worst = max(worst, abs(got - want))
    _criterion(5, "vacuum cocycle equals i B(X, Y) on 50 random pairs to "
               "1e-12", worst <= 1e-12, f"(worst {worst:.2e})")


def test_criterion_06_entropy_closed_form(su2):
    c, w, a = 0.3, 1.1, 0.8
    x = np.sqrt(2.0) * su2.basis[0]
    path = entropy.LinePath(su2, [(x, entropy.GaussianWindow(c, w, a))])
    beta = 2.0 / w ** 2

    def oracle(t):
        tau = t - c
        return a * a * (math.exp(-beta * tau * tau) / (2 * beta)
                        - tau * math.sqrt(math.pi) / (2 * math.sqrt(beta))
                        * erfc(math.sqrt(beta) * tau))

    t0 = time.perf_counter()
    grid = np.linspace(-4.0, 4.0, 101)
    worst = max(abs(entropy.entropy_right(path, float(t)) - oracle(float(t)))
                for t in grid)
    elapsed = time.perf_counter() - t0
    _criterion(6, "quadrature S(t) matches the error-function oracle to 1e-8 "
               "on 101 points within 5 s",
               worst <= 1e-8 and elapsed <= 5.0,
               f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_07_qnec(su2):
    x = np.sqrt(2.0) * su2.basis[0]
    y = np.sqrt(2.0) * su2.basis[1]
    paths = [
        entropy.LinePath(su2, [(x, entropy.GaussianWindow(0.0, 1.0, 0.9))]),
        entropy.LinePath(su2, [(x, entropy.GaussianWindow(-0.8, 0.7, 0.8)),
                               (y, entropy.PolyBump(1.0, 1.2, -1.1))]),
    ]
    ok = True
    details = []
    for path in paths:
        prof = entropy.qnec_profile(path, np.linspace(-4, 4, 81),
                                    fd_tolerance=1e-4, fd_spacing=1e-2)
        d2 = np.diff(prof.S, 2)
        scale = np.abs(prof.s_dd_analytic).max()
        rel = np.abs(prof.s_dd_fd - prof.s_dd_analytic).max() / scale
        ok = ok and d2.min() >= -1e-8 and rel <= 1e-4
        details.append(f"d2min {d2.min():.1e} fd {rel:.1e}")
    _criterion(7, "S convex (second differences >= -1e-8) and analytic vs "
               "finite-difference S'' within 1e-4", ok,
               "(" + "; ".join(details) + ")")


def test_criterion_08_sum_rule(su2):
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        path = random_line_path(su2, rng)
        e_tot = entropy.total_energy(path)
        t1, t2 = rng.uniform(-4, 4, size=2)
        lhs = (entropy.entropy_right(path, t1)
               - entropy.entropy_right(path, t2)
               + entropy.entropy_left(path, t2)
               - entropy.entropy_left(path, t1))
        want = (t2 - t1) * 2 * math.pi * e_tot
        worst = max(worst, abs(lhs - want)
                    / max(1.0, 2 * math.pi * abs(e_tot)))
        assert abs(lhs - want) <= 1e-8 * max(1.0, 2 * math.pi * abs(e_tot))
    _criterion(8, "entropy sum rule on 100 random draws to 1e-8",
               True, f"(worst scaled residual {worst:.2e})")


def test_criterion_09_bekenstein(su2):
    rng = np.random.default_rng(555)
    violations = 0
    for _ in range(100):
        path = random_line_path(su2, rng)
        for r in (0.5, 1.0, 5.0):
            if not entropy.bekenstein_check(path, r).holds:
                violations += 1
    _criterion(9, "interval entropy bounded by pi r E on 100 paths x 3 radii",
               violations == 0, f"({violations} violations)")


def test_criterion_10_hs_defect(su2):
    data = {1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])}
    exact_ok = True
    for window in (2, 8):
        rep = fock.hs_defect(data, window)
        exact_ok = exact_ok and abs(rep.fourier_value - 2.0) == 0.0 \
            and abs(rep.truncated_value - 2.0) <= 1e-12
    gamma = loops.loop_from_factors(
        su2, [(su2.basis[0], lambda th: 0.9 * np.sin(th) + 0.4 * np.cos(2 * th))],
        1024)
    smooth = fock.hs_defect(loops.loop_fourier_coefficients(gamma), 256)
    _criterion(10, "Hardy-compression defect: exact value 2 for diag(z, 1/z), "
               "smooth-loop gap <= 1e-3 at window 256",
               exact_ok and smooth.relative_gap <= 1e-3,
               f"(gap {smooth.relative_gap:.2e})")


def test_criterion_11_semidirect_exponential(su2):
    x = FourierLoopElement({1: 0.4 * su2.basis[0], -1: 0.4 * su2.basis[0]},
                           su2)
    loop, rotation = loops.semidirect_exp(x, 1.0, None, 1.0, n_samples=256,
                                          verify=False)
    ode = loops._ode_exponential(x, 1.0, ScalarField.constant(1.0), 1.0, 256,
                                 1e-3)
    resid = float(np.abs(loop.samples - ode).max())
    _criterion(11, "closed-form semidirect exponential vs ODE within 1e-6 "
               "at t = 1, N = 256",
               resid <= 1e-6 and rotation == 1.0, f"(sup residual {resid:.2e})")


def test_criterion_12_kernel_bound():
    eps = np.arange(0.0, 10.0 + 1e-12, 0.1)
    ok = loops.kernel_bound_sweep(eps, range(-8, 9), range(0, 33))
    _criterion(12, "kernel bound sweep over eps x n x k has no violations", ok)


def test_criterion_13_alcove(su2, su3):
    ok = True
    details = []
    for level in range(1, 7):
        weights = affine_data.alcove(su2, level)
        brute = sum(1 for a in range(level + 1) if a <= level)
        ok = ok and len(weights) == level + 1 == brute
    got3 = affine_data.alcove(su3, 1)
    brute3 = sum(1 for a in range(2) for b in range(2) if a + b <= 1)
    ok = ok and len(got3) == 3 == brute3
    for alg, levels in ((su2, range(1, 7)), (su3, (1, 2, 3))):
        for level in levels:
            rep = affine_data.alcove_bounds(alg, level)
            ok = ok and rep.c_ge_1 and bool(rep.all_within_bound)
            details.append(f"c={rep.central_charge}")
    _criterion(13, "alcove counts match brute force; c >= 1 and weight-norm "
               "bound hold", ok)


def test_criterion_14_soliton(su2):
    half = soliton.SolitonPath.linear(su2, np.diag([0.5j, -0.5j]))
    quarter = soliton.SolitonPath.linear(su2, np.diag([0.25j, -0.25j]))
    v_half = soliton.extendability(half)
    v_quarter = soliton.extendability(quarter)
    loop = soliton.rotation_cocycle_2pi(half)
    const_resid = float(np.abs(loop.samples + np.eye(2)).max())
    ok = (v_half.central and v_half.extendable and v_half.center_index == 1
          and const_resid <= 1e-10
          and not v_quarter.central and not v_quarter.extendable)
    _criterion(14, "half twist central/extendable with constant -Id rotation "
               "cocycle; quarter twist not extendable", ok,
               f"(constancy residual {const_resid:.2e})")


def test_criterion_15_cocycle_chain_identity(su2):
    rng = np.random.default_rng(777)
    us = np.linspace(0.01, 8.0, 64)
    worst = 0.0
    for _ in range(20):
        factors = []
        for _ in range(int(rng.integers(1, 3))):
            coeff = rng.normal(size=3)
            coeff *= rng.uniform(0.5, 1.4) / np.linalg.norm(coeff)
            gen = np.einsum("i,iab->ab", coeff, su2.basis)
            factors.append((gen, entropy.PolyBump(rng.uniform(1.2, 4.0),
                                                  rng.uniform(0.4, 1.1),
                                                  rng.uniform(-1.2, 1.2))))
        path = entropy.LinePath(su2, factors)
        t, s = rng.uniform(-0.5, 0.5, size=2)
        ct = entropy.connes_cocycle_path(path, t)
        cs = entropy.connes_cocycle_path(path, s)
        cts = entropy.connes_cocycle_path(path, t + s)
        lhs = cts.result.evaluate(us)
        rhs = np.einsum("jab,jbc->jac", ct.result.evaluate(us),
                        cs.result.evaluate(math.exp(2 * math.pi * t) * us))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    _criterion(15, "cocycle chain identity pointwise to 1e-10 on 20 random "
               "draws", worst <= 1e-10, f"(worst {worst:.2e})")
