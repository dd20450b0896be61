"""The three benchmark workloads: seeded inputs, the work, and its oracles.

Each workload is a closed-loop batch: one process, one Python thread, and
every item starts when the previous one has finished.  ``setup(seed, out)``
makes the inputs from the seed alone (plain numbers and scenario files, no
loopnet objects), and ``items(inputs)`` lists the work as named callables.
An item builds its loopnet objects, runs them, and compares the outputs with
an oracle through ``Checks``; an item that raises counts as one failed check.

The oracles are closed forms or exact counts that do not go through the code
under test wherever one exists; every tolerance is the one pinned in the
repository's tests or the function's own default, never a wider one.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import erf, erfc

from loopnet import affine_data, entropy, fock, lie, loops, soliton
from loopnet.loops import FourierLoopElement, ScalarField

IDENTITIES = ("affine", "commutator", "virasoro", "rotation", "adjoint",
              "vacuum-cocycle")
IDENTITY_TOL = 1e-10       # identity_reports default, pinned in test_fock
ORACLE_TOL = 1e-8          # erf closed forms, pinned in test_entropy
FD_RELATIVE = 1e-4         # qnec_profile fd_tolerance, criterion 7
BEKENSTEIN_RADII = (0.5, 1.0, 5.0)


class Checks:
    """Oracle comparisons of one worker: attempted, failed, worst errors."""

    def __init__(self):
        self.total = 0
        self.failed = 0
        self.worst: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> None:
        self.total += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def within(self, err: float, tol: float, what: str,
               note: str | None = None) -> None:
        err = float(err)
        if note is not None:
            self.worst[note] = max(self.worst.get(note, 0.0), err)
        self.check(err <= tol, f"{what}: {err:.3e} > {tol:.1e}")


def _unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _generator(algebra, coeff) -> np.ndarray:
    return np.einsum("i,iab->ab", np.asarray(coeff, float), algebra.basis)


def _jsonable_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


# ---------------------------------------------------------------------------
# operator_suites: many calls on a few Fock spaces
# ---------------------------------------------------------------------------

_SUITES = ((2, 6), (3, 4))   # (n, cutoff), both at charge 0


def operator_suites_setup(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    return {"suites": [{"n": n, "cutoff": c, "charge": 0, "mode_range": 2,
                        "seed": int(rng.integers(2 ** 31))}
                       for n, c in _SUITES]}


def operator_suites_sizes(inputs: dict) -> dict:
    return {"spaces": [{"algebra": f"su{s['n']}", "cutoff": s["cutoff"],
                        "charge": s["charge"],
                        "dim": fock._count_states(s["n"], s["cutoff"],
                                                  s["charge"]),
                        "mode_range": s["mode_range"]}
                       for s in inputs["suites"]]}


def _identity_suite(spec: dict, checks: Checks) -> None:
    reports = fock.identity_reports(spec["n"], spec["cutoff"],
                                    mode_range=spec["mode_range"],
                                    charge=spec["charge"], seed=spec["seed"])
    label = f"su{spec['n']}/{spec['cutoff']}"
    checks.check(tuple(r["identity"] for r in reports) == IDENTITIES,
                 f"{label}: identity list")
    for rep in reports:
        # the vacuum-cocycle entry compares against 1j * central_term_B
        checks.within(rep["residual_max"], IDENTITY_TOL,
                      f"{label} {rep['identity']}", "fock.worst_residual")


def operator_suites_items(inputs: dict) -> list:
    return [(f"suite-su{s['n']}-{s['cutoff']}",
             lambda checks, s=s: _identity_suite(s, checks))
            for s in inputs["suites"]]


# ---------------------------------------------------------------------------
# entropy_profiles: the CLI on generated scenarios
# ---------------------------------------------------------------------------

def _line_factor(gen, profile, center, width, amplitude) -> dict:
    return {"generator": {"matrix": _jsonable_matrix(gen)}, "profile": profile,
            "parameters": {"center": center, "width": width,
                           "amplitude": amplitude}}


def _scenario(family: str, loop_specs: list, out_dir: Path) -> dict:
    tasks = []
    for spec in loop_specs:
        tasks.append({"task": "entropy-profile", "loop": spec["name"],
                      "grid": {"start": -4.0, "stop": 4.0, "num": 161}})
        tasks.append({"task": "bekenstein", "loop": spec["name"],
                      "radii": list(BEKENSTEIN_RADII)})
    return {"algebra": {"family": family, "level": 1},
            "grid_samples": 256,
            "tolerances": {"quadrature": 1e-10, "identity": 1e-10,
                           "fd_relative": FD_RELATIVE},
            "output": {"dir": str(out_dir), "format": "csv",
                       "plot_data": False},
            "loops": loop_specs, "tasks": tasks}


def entropy_profiles_setup(seed: int, out: Path) -> dict:
    """Write two strict-JSON scenarios and validate them with the CLI parser.

    su2: the README's Gaussian loop (centered, so the interval entropy has a
    closed form) and criterion 7's Gaussian x bump path on two orthogonal,
    hence non-commuting, directions.  su3: a three-factor path.  Window
    widths stay at or above criterion 7's (Gaussian 0.7, bump 1.2).  The
    pinned finite-difference stencil (spacing 1e-2) errs by about
    1.3e-4 / width^2 of the peak at a bump, 3.3e-5 / width^2 at a Gaussian,
    so narrower windows would trip its 1e-4: a resolution limit of the
    check, not a defect.  Bumps therefore get at least 1.3, which bounds
    the error by 7.9e-5 (the largest over seeds 0-999).  Generators have
    tr(X^2) = -2.
    """
    from loopnet import cli

    rng = np.random.default_rng(seed)
    su2, su3 = lie.build_su(2), lie.build_su(3)
    root2 = math.sqrt(2.0)
    width, amplitude = rng.uniform(0.9, 1.1), rng.uniform(0.7, 0.9)
    gauss = {"name": "gauss", "kind": "line", "factors": [_line_factor(
        root2 * _generator(su2, _unit(rng, 3)), "gaussian", 0.0, width,
        amplitude)]}
    a = _unit(rng, 3)
    b = rng.normal(size=3)
    b = b - (b @ a) * a
    b /= np.linalg.norm(b)
    w2 = {"name": "w2", "kind": "line", "factors": [
        _line_factor(root2 * _generator(su2, a), "gaussian",
                     -0.8 + rng.uniform(-0.1, 0.1), rng.uniform(0.7, 0.8),
                     0.8 * rng.uniform(0.9, 1.1)),
        _line_factor(root2 * _generator(su2, b), "bump",
                     1.0 + rng.uniform(-0.1, 0.1), rng.uniform(1.3, 1.4),
                     -1.1 * rng.uniform(0.9, 1.1))]}
    tri = {"name": "su3x3", "kind": "line", "factors": [
        _line_factor(root2 * _generator(su3, _unit(rng, 8)), "gaussian",
                     -1.9 + rng.uniform(-0.1, 0.1), rng.uniform(0.85, 1.0),
                     rng.uniform(0.5, 0.8)),
        _line_factor(root2 * _generator(su3, _unit(rng, 8)), "bump",
                     rng.uniform(-0.1, 0.1), rng.uniform(1.5, 1.6),
                     -rng.uniform(0.6, 0.9)),
        _line_factor(root2 * _generator(su3, _unit(rng, 8)), "gaussian",
                     1.9 + rng.uniform(-0.1, 0.1), rng.uniform(0.8, 0.95),
                     rng.uniform(0.5, 0.8))]}
    runs = []
    for family, specs in (("su2", [gauss, w2]), ("su3", [tri])):
        run_dir = out / family
        text = json.dumps(_scenario(family, specs, run_dir), indent=1)
        cli.validate_config(text)
        config = out / f"{family}.json"
        config.write_text(text)
        runs.append({"family": family, "config": str(config),
                     "out_dir": str(run_dir),
                     "loops": [s["name"] for s in specs]})
    return {"runs": runs, "gauss": {"width": width, "amplitude": amplitude}}


def entropy_profiles_sizes(inputs: dict) -> dict:
    return {"scenarios": [{"algebra": r["family"], "paths": len(r["loops"])}
                          for r in inputs["runs"]],
            "grid_points_per_profile": 161,
            "bekenstein_radii": list(BEKENSTEIN_RADII)}


def _s_right_oracle(t: float, width: float, amplitude: float) -> float:
    """Error-function form of S(t) for a centered Gaussian, tr(X^2) = -2."""
    beta = 2.0 / width ** 2
    return amplitude ** 2 * (
        math.exp(-beta * t * t) / (2 * beta)
        - t * math.sqrt(math.pi) / (2 * math.sqrt(beta))
        * erfc(math.sqrt(beta) * t))


def _interval_oracle(r: float, width: float, amplitude: float) -> float:
    beta = 2.0 / width ** 2
    sb = math.sqrt(beta)
    i0 = math.sqrt(math.pi / beta) * erf(sb * r)
    i2 = (i0 - 2 * r * math.exp(-beta * r * r)) / (2 * beta)
    return amplitude ** 2 * (r * r * i0 - i2) / (2 * r)


def _entropy_cli_run(run: dict, gauss: dict, checks: Checks) -> None:
    from loopnet import cli

    code = cli.main(["entropy-profile", "--config", run["config"],
                     "--out-dir", run["out_dir"]])
    checks.check(code == 0, f"{run['family']}: CLI exit code {code}")
    out = Path(run["out_dir"])
    report = json.loads((out / "report.json").read_text())
    for task in report["tasks"]:
        checks.check(task["status"] == "pass",
                     f"{run['family']} {task['task']}: {task['status']}")
    for name in run["loops"]:
        with open(out / f"{name}_profile.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        analytic = np.array([float(r["S_dd_analytic"]) for r in rows])
        fd = np.array([float(r["S_dd_fd"]) for r in rows])
        checks.within(np.abs(fd - analytic).max() / np.abs(analytic).max(),
                      FD_RELATIVE, f"{name}: fd_vs_analytic")
        bek = json.loads((out / f"{name}_bekenstein.json").read_text())
        for row in bek:
            checks.check(row["holds"] is True, f"{name}: Bekenstein r={row['r']}")
        if name != "gauss":
            continue
        w, a = gauss["width"], gauss["amplitude"]
        for r in rows:
            t = float(r["t"])
            checks.within(abs(float(r["S"]) - _s_right_oracle(t, w, a)),
                          ORACLE_TOL, f"gauss: S({t})", "entropy.oracle_max_err")
        for row in bek:
            checks.within(abs(row["interval_entropy"]
                              - _interval_oracle(row["r"], w, a)),
                          ORACLE_TOL, f"gauss: interval r={row['r']}",
                          "entropy.oracle_max_err")


def entropy_profiles_items(inputs: dict) -> list:
    return [(f"cli-{run['family']}",
             lambda checks, run=run: _entropy_cli_run(run, inputs["gauss"],
                                                     checks))
            for run in inputs["runs"]]


# ---------------------------------------------------------------------------
# oneshot_sweep: one call on each of many objects
# ---------------------------------------------------------------------------

_N_BEKENSTEIN_PATHS = 100
_SEMIDIRECT_SAMPLES = 256
_HS_SAMPLES, _HS_WINDOW = 1024, 256
_ADJOINT_SPACE = (2, 8, 0)          # su2, cutoff 8, charge 0: dim 1008
_ALCOVES = [(n, level) for n in (3, 4, 5) for level in range(1, 9)]


def _random_line_path(rng) -> list:
    """Factor parameters as in the tests' random_line_path helper."""
    factors = []
    for _ in range(int(rng.integers(1, 4))):
        coeff = _unit(rng, 3) * rng.uniform(0.5, 1.6)
        factors.append({"coeff": coeff.tolist(),
                        "kind": "gaussian" if rng.random() < 0.5 else "bump",
                        "center": rng.uniform(-2.0, 2.0),
                        "width": rng.uniform(0.3, 1.5),
                        "amplitude": rng.uniform(-1.4, 1.4)})
    return factors


def _soliton_specs(rng) -> list:
    """Torus-valued twisted paths with known jumps exp(2 pi A).

    A periodic diagonal factor has trivial jump, so the jump of the path is
    exp(2 pi i diag(a)) of its linear factor: central for su2 exactly when
    a is a half-integer, and for su3 when a = (k/3, k/3, -2k/3).
    """
    specs = []
    for i in range(12):
        n = 2 if i < 8 else 3
        if n == 2:
            a = [0.5, 1.0, 1.5][i % 3] if i % 2 == 0 else rng.uniform(0.1, 0.4)
            diag = [a, -a]
        else:
            k = int(rng.integers(1, 3))
            diag = ([k / 3, k / 3, -2 * k / 3] if i % 2 == 0 else
                    [rng.uniform(0.1, 0.3), rng.uniform(0.05, 0.1), 0.0])
            diag[2] = -(diag[0] + diag[1])
        periodic = rng.uniform(-0.5, 0.5, size=n - 1).tolist()
        specs.append({"n": n, "linear": diag, "periodic": periodic,
                      "fourier": [rng.uniform(0.1, 0.4), rng.uniform(-0.3, 0.3)],
                      "conjugator": _unit(rng, n * n - 1).tolist()})
    return specs


def oneshot_sweep_setup(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "rigid": {"amplitude": rng.uniform(0.35, 0.45),
                  "direction": _unit(rng, 3).tolist()},
        "general": {"amplitude": rng.uniform(0.25, 0.35),
                    "direction": _unit(rng, 3).tolist(), "alpha": 0.7},
        # x stays in the (x_0, x_1) plane: rotating within it conjugates by a
        # diagonal U(1), so exp(pi(x)) keeps one sparsity pattern for every seed
        "adjoint": {"x": rng.uniform(0.15, 0.25), "x_angle": rng.uniform(0, 2 * np.pi),
                    "y": rng.uniform(0.2, 0.3), "y_dir": _unit(rng, 3).tolist()},
        "bekenstein": [_random_line_path(rng) for _ in range(_N_BEKENSTEIN_PATHS)],
        "hs": {"sin": rng.uniform(0.8, 1.0), "cos2": rng.uniform(0.3, 0.5),
               "direction": _unit(rng, 3).tolist()},
        "solitons": _soliton_specs(rng),
    }


def oneshot_sweep_sizes(inputs: dict) -> dict:
    n, cutoff, charge = _ADJOINT_SPACE
    return {"semidirect_samples": _SEMIDIRECT_SAMPLES,
            "adjoint_space": {"algebra": f"su{n}", "cutoff": cutoff,
                              "charge": charge,
                              "dim": fock._count_states(n, cutoff, charge)},
            "bekenstein_paths": len(inputs["bekenstein"]),
            "bekenstein_radii": list(BEKENSTEIN_RADII),
            "hs_samples": _HS_SAMPLES, "hs_window": _HS_WINDOW,
            "soliton_paths": len(inputs["solitons"]),
            "alcoves": [f"su{n}@{level}" for n, level in _ALCOVES]}


def _cos_element(su2, amplitude: float, direction) -> FourierLoopElement:
    x0 = _generator(su2, direction)
    return FourierLoopElement({1: amplitude * x0, -1: amplitude * x0}, su2)


def _semidirect_rigid(spec: dict, checks: Checks) -> None:
    """h = 1, alpha = t = 1: exp(2a (sin th - sin(th - 1)) X0) in closed form."""
    su2 = lie.build_su(2)
    a = spec["amplitude"]
    x0 = _generator(su2, spec["direction"])
    loop, rotation = loops.semidirect_exp(_cos_element(su2, a, spec["direction"]),
                                          1.0, None, 1.0, _SEMIDIRECT_SAMPLES)
    th = 2 * np.pi * np.arange(_SEMIDIRECT_SAMPLES) / _SEMIDIRECT_SAMPLES
    f = 2 * a * (np.sin(th) - np.sin(th - 1.0))
    # X0^2 = -Id/2 for a unit su2 direction, so exp(f X0) = cos(f/r2) + r2 sin(f/r2) X0
    r2 = math.sqrt(2.0)
    want = (np.cos(f / r2)[:, None, None] * np.eye(2)
            + (r2 * np.sin(f / r2))[:, None, None] * x0)
    checks.within(np.abs(loop.samples - want).max(), 1e-10, "rigid semidirect")
    checks.check(rotation == 1.0, "rigid semidirect rotation")


def _semidirect_general(spec: dict, checks: Checks) -> None:
    """h = 1 + 0.3 cos th; semidirect_exp raises when its ODE check fails."""
    su2 = lie.build_su(2)
    h = ScalarField({0: 1.0, 1: 0.15, -1: 0.15})
    alpha = spec["alpha"]
    _, rotation = loops.semidirect_exp(
        _cos_element(su2, spec["amplitude"], spec["direction"]), alpha, h, 1.0,
        _SEMIDIRECT_SAMPLES, verify=True)
    checks.check(rotation == alpha, "general semidirect rotation")


def _adjoint_action(spec: dict, checks: Checks) -> None:
    su2 = lie.build_su(2)
    n, cutoff, charge = _ADJOINT_SPACE
    space = fock.build_fock(n, cutoff, charge=charge)
    x_dir = [math.cos(spec["x_angle"]), math.sin(spec["x_angle"]), 0.0]
    rep = fock.adjoint_action_check(space, _cos_element(su2, spec["x"], x_dir),
                                    _cos_element(su2, spec["y"], spec["y_dir"]))
    checks.within(rep["residual_max"], rep["tolerance"], "adjoint action",
                  "fock.worst_residual")


def _bekenstein_path(factors: list, checks: Checks) -> None:
    su2 = lie.build_su(2)
    built = []
    for f in factors:
        window = entropy.GaussianWindow if f["kind"] == "gaussian" else entropy.PolyBump
        built.append((_generator(su2, f["coeff"]),
                      window(f["center"], f["width"], f["amplitude"])))
    path = entropy.LinePath(su2, built)
    for r in BEKENSTEIN_RADII:
        checks.check(entropy.bekenstein_check(path, r).holds,
                     f"Bekenstein r={r}")


def _hs_defect(spec: dict, checks: Checks) -> None:
    su2 = lie.build_su(2)
    for window in (2, 8):
        rep = fock.hs_defect({1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])},
                             window)
        checks.check(rep.fourier_value == 2.0, f"diag(z, 1/z) window {window}")
        checks.within(abs(rep.truncated_value - 2.0), 1e-12,
                      f"diag(z, 1/z) truncated, window {window}")
    s, c = spec["sin"], spec["cos2"]
    gamma = loops.loop_from_factors(
        su2, [(_generator(su2, spec["direction"]),
               lambda th: s * np.sin(th) + c * np.cos(2 * th))], _HS_SAMPLES)
    rep = fock.hs_defect(loops.loop_fourier_coefficients(gamma), _HS_WINDOW)
    checks.within(rep.relative_gap, 1e-3, "smooth-loop HS gap")


def _soliton(spec: dict, checks: Checks) -> None:
    n = spec["n"]
    algebra = lie.build_su(n)
    a = np.array(spec["linear"])
    lin = np.diag(1j * a)
    per = np.diag(1j * np.array(spec["periodic"] + [-sum(spec["periodic"])]))
    c1, c2 = spec["fourier"]
    profile = ScalarField({0: c2, 1: c1, -1: c1})
    zeta = soliton.SolitonPath(algebra, [soliton.PeriodicFactor(per, profile),
                                         soliton.LinearFactor(lin)])
    want = np.diag(np.exp(2j * np.pi * a))
    centers = [k for k in range(n)
               if np.abs(want - np.exp(2j * np.pi * k / n) * np.eye(n)).max() <= 1e-9]
    verdict = soliton.extendability(zeta)
    checks.check(verdict.central == bool(centers)
                 and verdict.center_index == (centers[0] if centers else None),
                 f"soliton su{n} {a.tolist()}: verdict")
    checks.within(np.abs(soliton.equivalence_key(zeta) - want).max(), 1e-10,
                  f"soliton su{n}: equivalence key")
    eta = soliton.SolitonPath.linear(algebra, np.diag(-0.5j * a))
    both = soliton.compose(zeta, eta)
    checks.within(np.abs(soliton.jump(both) - np.diag(np.exp(1j * np.pi * a))).max(),
                  1e-10, f"soliton su{n}: composed jump")
    g = lie.group_exp(algebra.element(_generator(algebra, spec["conjugator"])))
    moved = soliton.jump(soliton.conjugate(zeta, g))
    checks.check(soliton.keys_conjugate(moved, want),
                 f"soliton su{n}: conjugated key")


def _alcove(n: int, level: int, checks: Checks) -> None:
    algebra = lie.build_su(n)
    weights = affine_data.alcove(algebra, level)
    checks.check(len(weights) == math.comb(level + n - 1, n - 1),
                 f"alcove su{n}@{level}: count {len(weights)}")
    rep = affine_data.alcove_bounds(algebra, level)
    checks.check(rep.central_charge == Fraction(level * (n * n - 1), level + n),
                 f"alcove su{n}@{level}: central charge")
    checks.check(rep.c_ge_1 and bool(rep.all_within_bound),
                 f"alcove su{n}@{level}: bounds")


def oneshot_sweep_items(inputs: dict) -> list:
    items = [("semidirect-rigid", lambda c: _semidirect_rigid(inputs["rigid"], c)),
             ("semidirect-general",
              lambda c: _semidirect_general(inputs["general"], c)),
             ("adjoint-action", lambda c: _adjoint_action(inputs["adjoint"], c))]
    items += [(f"bekenstein-{i}", lambda c, f=f: _bekenstein_path(f, c))
              for i, f in enumerate(inputs["bekenstein"])]
    items.append(("hs-defect", lambda c: _hs_defect(inputs["hs"], c)))
    items += [(f"soliton-{i}", lambda c, s=s: _soliton(s, c))
              for i, s in enumerate(inputs["solitons"])]
    items += [(f"alcove-su{n}-{level}", lambda c, n=n, level=level:
               _alcove(n, level, c)) for n, level in _ALCOVES]
    return items


WORKLOADS = {
    "operator_suites": (operator_suites_setup, operator_suites_items,
                        operator_suites_sizes),
    "entropy_profiles": (entropy_profiles_setup, entropy_profiles_items,
                         entropy_profiles_sizes),
    "oneshot_sweep": (oneshot_sweep_setup, oneshot_sweep_items,
                      oneshot_sweep_sizes),
}
