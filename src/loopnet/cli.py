"""Scenario-driven command line: verification suites, entropy profiles, reports.

Subcommands
-----------
verify           run the operator-identity suite (task type ``fock-verify``)
entropy-profile  entropy/QNEC profiles and Bekenstein checks
alcove           exact alcove tables as CSV (plus ``--dump-table`` for the
                 simple-type table as JSON)
hs-defect        Hilbert-Schmidt defect of the Hardy compression of a loop
soliton          twisted-loop classification (``soliton classify``)
exp-check        closed-form semidirect exponential vs ODE integration

All subcommands accept ``--config scenario.json`` (strict JSON: unknown keys
are rejected with a JSON pointer), ``--out-dir``, ``--fail-fast`` and
``--parallel``.  Exit code 0 means every executed task passed, 1 that some
invariant failed, 2 that the configuration was rejected.

Artifacts (CSV/JSON) are byte-stable for a fixed scenario and package
version; ``report.json`` additionally carries wall-clock timings and is
exempt from byte-stability.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, affine_data, entropy, fock, lie, loops
from . import soliton as soliton_mod
from .errors import CapacityError, ConfigError, LoopnetError

__all__ = ["Scenario", "RunReport", "validate_config", "run_scenario",
           "export_profile", "main"]

_TASK_TYPES = ("fock-verify", "entropy-profile", "bekenstein", "hs-defect",
               "alcove", "soliton-classify", "exp-ode-check")

_SUBCOMMAND_TASKS = {
    "verify": ("fock-verify",),
    "entropy-profile": ("entropy-profile", "bekenstein"),
    "alcove": ("alcove",),
    "hs-defect": ("hs-defect",),
    "soliton": ("soliton-classify",),
    "exp-check": ("exp-ode-check",),
}

_DEFAULTS = {
    "grid_samples": 256,
    "fock_cutoff": 6,
    "tolerances": {"quadrature": 1e-10, "identity": 1e-10, "fd_relative": 1e-4},
}


# ---------------------------------------------------------------------------
# Strict parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: dict, pointer: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"missing required key {key!r}", pointer)


def _expect(obj, types, pointer, what):
    if not isinstance(obj, types):
        raise ConfigError(f"{what} must be {types}, got {type(obj).__name__}",
                          pointer)
    return obj


def _parse_complex(v, pointer):
    if not (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        raise ConfigError("complex numbers are [re, im] pairs", pointer)
    return complex(v[0], v[1])


def _parse_generator(spec, algebra, pointer):
    _expect(spec, dict, pointer, "generator")
    if len(spec) != 1:
        raise ConfigError("generator needs exactly one of basis/matrix/diag",
                          pointer)
    if "basis" in spec:
        i = _expect(spec["basis"], int, f"{pointer}/basis", "basis index")
        if not 0 <= i < algebra.dimension:
            raise ConfigError(f"basis index out of range 0..{algebra.dimension - 1}",
                              f"{pointer}/basis")
        return algebra.basis[i]
    if "diag" in spec:
        entries = _expect(spec["diag"], list, f"{pointer}/diag", "diagonal")
        if len(entries) != algebra.n:
            raise ConfigError(f"diagonal needs {algebra.n} entries",
                              f"{pointer}/diag")
        vals = [_parse_complex(v, f"{pointer}/diag/{i}")
                for i, v in enumerate(entries)]
        return np.diag(vals)
    if "matrix" in spec:
        rows = _expect(spec["matrix"], list, f"{pointer}/matrix", "matrix")
        mat = np.array([[_parse_complex(v, f"{pointer}/matrix/{i}/{j}")
                         for j, v in enumerate(row)]
                        for i, row in enumerate(rows)])
        if mat.shape != (algebra.n, algebra.n):
            raise ConfigError(f"matrix must be {algebra.n} x {algebra.n}",
                              f"{pointer}/matrix")
        return mat
    raise ConfigError("generator needs one of basis/matrix/diag", pointer)


_PROFILE_KINDS = ("gaussian", "bump", "fourier")


def _parse_factor(spec, algebra, pointer):
    _expect(spec, dict, pointer, "factor")
    _require_keys(spec, {"generator": True, "profile": True, "parameters": True},
                  pointer)
    gen = _parse_generator(spec["generator"], algebra, f"{pointer}/generator")
    profile = spec["profile"]
    if profile not in _PROFILE_KINDS:
        raise ConfigError(f"profile must be one of {_PROFILE_KINDS}",
                          f"{pointer}/profile")
    params = _expect(spec["parameters"], dict, f"{pointer}/parameters",
                     "parameters")
    if profile in ("gaussian", "bump"):
        _require_keys(params, {"center": False, "width": False,
                               "amplitude": False}, f"{pointer}/parameters")
        got = {k: float(_expect(params.get(k, d), (int, float),
                                f"{pointer}/parameters/{k}", k))
               for k, d in (("center", 0.0), ("width", 1.0), ("amplitude", 1.0))}
        if got["width"] <= 0:
            raise ConfigError("width must be positive",
                              f"{pointer}/parameters/width")
        return gen, profile, got
    _require_keys(params, {"coefficients": True}, f"{pointer}/parameters")
    coeffs = {}
    for i, item in enumerate(_expect(params["coefficients"], list,
                                     f"{pointer}/parameters/coefficients",
                                     "coefficient list")):
        if not (isinstance(item, list) and len(item) == 3
                and isinstance(item[0], int)):
            raise ConfigError("fourier coefficients are [k, re, im] triples",
                              f"{pointer}/parameters/coefficients/{i}")
        coeffs[item[0]] = coeffs.get(item[0], 0.0) + complex(item[1], item[2])
    return gen, profile, {"coefficients": coeffs}


@dataclass(frozen=True)
class LoopSpec:
    name: str
    kind: str                      # "line" | "circle"
    factors: tuple


@dataclass(frozen=True)
class Scenario:
    algebra_n: int
    level: int
    grid_samples: int
    fock_cutoff: int
    dim_limit: int | None
    tolerances: dict
    output_dir: str
    output_format: str
    plot_data: bool
    loops: tuple
    tasks: tuple

    def algebra(self):
        return lie.build_su(self.algebra_n)

    def loop_spec(self, ref, pointer):
        if isinstance(ref, int):
            if not 0 <= ref < len(self.loops):
                raise ConfigError(f"loop index {ref} out of range", pointer)
            return self.loops[ref]
        for spec in self.loops:
            if spec.name == ref:
                return spec
        raise ConfigError(f"no loop named {ref!r}", pointer)


_TASK_KEYS = {
    "fock-verify": {"task": True, "cutoff": False, "identities": False,
                    "tolerance": False, "charge": False, "mode_range": False},
    "entropy-profile": {"task": True, "loop": True, "grid": False, "out": False},
    "bekenstein": {"task": True, "loop": True, "radii": False, "out": False},
    "hs-defect": {"task": True, "loop": True, "window": False, "out": False},
    "alcove": {"task": True, "levels": False, "out": False},
    "soliton-classify": {"task": True, "soliton": True, "out": False},
    "exp-ode-check": {"task": True, "element": True, "alpha": False,
                      "time": False, "out": False},
}

_IDENTITY_NAMES = ("affine", "commutator", "virasoro", "rotation", "adjoint",
                   "vacuum-cocycle")


def validate_config(text: str) -> Scenario:
    """Parse and strictly validate a scenario; fill documented defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    _expect(raw, dict, "", "scenario")
    _require_keys(raw, {"algebra": False, "grid_samples": False,
                        "fock_cutoff": False, "dim_limit": False,
                        "tolerances": False, "output": False,
                        "loops": False, "tasks": False}, "")

    alg = raw.get("algebra", {"family": "su2", "level": 1})
    _expect(alg, dict, "/algebra", "algebra")
    _require_keys(alg, {"family": True, "level": False}, "/algebra")
    m = re.fullmatch(r"su([2-9]\d*)", str(alg["family"]))
    if not m:
        raise ConfigError("family must be a string key 'su2', 'su3', ...",
                          "/algebra/family")
    n = int(m.group(1))
    level = alg.get("level", 1)
    if not isinstance(level, int) or level < 1:
        raise ConfigError("level must be a positive integer", "/algebra/level")

    grid_samples = raw.get("grid_samples", _DEFAULTS["grid_samples"])
    if not isinstance(grid_samples, int) or grid_samples < 4 \
            or grid_samples & (grid_samples - 1):
        raise ConfigError("grid_samples must be a power of two >= 4",
                          "/grid_samples")
    cutoff = raw.get("fock_cutoff", _DEFAULTS["fock_cutoff"])
    if not isinstance(cutoff, int) or cutoff < 1:
        raise ConfigError("fock_cutoff must be a positive integer",
                          "/fock_cutoff")
    dim_limit = raw.get("dim_limit")
    if dim_limit is not None and (not isinstance(dim_limit, int) or dim_limit < 1):
        raise ConfigError("dim_limit must be a positive integer", "/dim_limit")

    tol = dict(_DEFAULTS["tolerances"])
    tol_raw = raw.get("tolerances", {})
    _expect(tol_raw, dict, "/tolerances", "tolerances")
    _require_keys(tol_raw, {k: False for k in tol}, "/tolerances")
    for k, v in tol_raw.items():
        if not isinstance(v, (int, float)) or v <= 0:
            raise ConfigError("tolerances must be positive numbers",
                              f"/tolerances/{k}")
        tol[k] = float(v)

    out = raw.get("output", {})
    _expect(out, dict, "/output", "output")
    _require_keys(out, {"dir": False, "format": False, "plot_data": False},
                  "/output")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'", "/output/format")
    plot_data = out.get("plot_data", False)
    if not isinstance(plot_data, bool):
        raise ConfigError("plot_data must be a boolean", "/output/plot_data")

    algebra = lie.build_su(n)
    specs = []
    for i, lraw in enumerate(_expect(raw.get("loops", []), list, "/loops",
                                     "loops")):
        ptr = f"/loops/{i}"
        _expect(lraw, dict, ptr, "loop spec")
        _require_keys(lraw, {"name": False, "kind": False, "factors": True}, ptr)
        kind = lraw.get("kind", "line")
        if kind not in ("line", "circle"):
            raise ConfigError("kind must be 'line' or 'circle'", f"{ptr}/kind")
        factors = tuple(
            _parse_factor(f, algebra, f"{ptr}/factors/{j}")
            for j, f in enumerate(_expect(lraw["factors"], list,
                                          f"{ptr}/factors", "factors")))
        for j, (_, profile, _) in enumerate(factors):
            if kind == "line" and profile == "fourier":
                raise ConfigError("line paths need windowed profiles "
                                  "(gaussian or bump)", f"{ptr}/factors/{j}")
        specs.append(LoopSpec(str(lraw.get("name", f"loop{i}")), kind, factors))

    tasks = []
    for i, traw in enumerate(_expect(raw.get("tasks", []), list, "/tasks",
                                     "tasks")):
        ptr = f"/tasks/{i}"
        _expect(traw, dict, ptr, "task")
        name = traw.get("task")
        if name not in _TASK_TYPES:
            raise ConfigError(f"unknown task {name!r}; expected one of "
                              f"{_TASK_TYPES}", f"{ptr}/task")
        _require_keys(traw, _TASK_KEYS[name], ptr)
        if name == "fock-verify":
            c = traw.get("cutoff", cutoff)
            if not isinstance(c, int) or c < 1:
                raise ConfigError("cutoff must be a positive integer",
                                  f"{ptr}/cutoff")
            # surface capacity problems at validation time
            try:
                fock._check_capacity(n, c, traw.get("charge"), dim_limit)
            except CapacityError as err:
                raise ConfigError(f"cutoff {c}: {err}", f"{ptr}/cutoff") from None
            ids = traw.get("identities", list(_IDENTITY_NAMES))
            if not (isinstance(ids, list) and ids
                    and all(x in _IDENTITY_NAMES for x in ids)):
                raise ConfigError(f"identities must be a nonempty subset of "
                                  f"{_IDENTITY_NAMES}", f"{ptr}/identities")
        if name in ("entropy-profile", "bekenstein", "hs-defect"):
            self_ref = traw["loop"]
            if not isinstance(self_ref, (int, str)):
                raise ConfigError("loop reference must be an index or a name",
                                  f"{ptr}/loop")
        tasks.append(dict(traw))

    scenario = Scenario(n, level, grid_samples, cutoff, dim_limit, tol,
                        str(out.get("dir", ".")), fmt, plot_data,
                        tuple(specs), tuple(tasks))
    # resolve loop references now so bad names fail at validation time
    for i, task in enumerate(tasks):
        if "loop" in task:
            scenario.loop_spec(task["loop"], f"/tasks/{i}/loop")
    return scenario


# ---------------------------------------------------------------------------
# Loop construction from validated specs
# ---------------------------------------------------------------------------

def _line_path(scenario: Scenario, spec: LoopSpec,
               paths: dict[str, entropy.LinePath]) -> entropy.LinePath:
    """The run's one LinePath of a line loop, so its panel partition is built once."""
    path = paths.get(spec.name)
    if path is not None:
        return path
    if spec.kind != "line":
        raise ConfigError(f"loop {spec.name!r} is not a line path")
    factors = []
    for gen, profile, params in spec.factors:
        if profile == "gaussian":
            window = entropy.GaussianWindow(params["center"], params["width"],
                                            params["amplitude"])
        else:
            window = entropy.PolyBump(params["center"], params["width"],
                                      params["amplitude"])
        factors.append((gen, window))
    return paths.setdefault(spec.name, entropy.LinePath(
        scenario.algebra(), factors, level=scenario.level))


def _circle_profile(profile: str, params: dict):
    if profile == "fourier":
        return loops.ScalarField(params["coefficients"])
    center, width, amp = params["center"], params["width"], params["amplitude"]

    def wrapped(thetas, c=center, w=width, a=amp, kind=profile):
        d = np.angle(np.exp(1j * (np.asarray(thetas) - c)))
        s = d / w
        if kind == "gaussian":
            return a * np.exp(-s * s)
        return a * np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 4, 0.0)

    return wrapped


def _circle_loop(scenario: Scenario, spec: LoopSpec) -> loops.GridLoop:
    if spec.kind != "circle":
        raise ConfigError(f"loop {spec.name!r} is not a circle loop")
    factors = [(gen, _circle_profile(profile, params))
               for gen, profile, params in spec.factors]
    return loops.loop_from_factors(scenario.algebra(), factors,
                                   scenario.grid_samples)


def _fourier_element(scenario: Scenario, factors) -> loops.FourierLoopElement:
    """Sum (not product) of profile * generator terms as a loop-algebra element."""
    algebra = scenario.algebra()
    coeffs: dict[int, np.ndarray] = {}
    for gen, profile, params in factors:
        if profile != "fourier":
            raise ConfigError("algebra elements need 'fourier' profiles")
        for k, v in params["coefficients"].items():
            coeffs[k] = coeffs.get(k, 0) + v * gen
    return loops.FourierLoopElement(coeffs, algebra)


# ---------------------------------------------------------------------------
# Serialization helpers (byte-stable)
# ---------------------------------------------------------------------------

def _jmat(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def export_profile(profile: entropy.EntropyProfile, fmt: str = "csv",
                   name: str = "profile", plot_data: bool = False) -> list[tuple[str, bytes]]:
    """Serialize a profile; returns (relative path, bytes) artifact pairs."""
    artifacts = []
    columns = [
        ("t", profile.grid), ("S", profile.S), ("S_bar", profile.S_bar),
        ("S_prime", profile.S_prime), ("S_dd_analytic", profile.s_dd_analytic),
        ("S_dd_fd", profile.s_dd_fd), ("density", profile.density),
    ]
    if fmt == "csv":
        lines = [",".join(c for c, _ in columns)]
        for i in range(len(profile.grid)):
            lines.append(",".join(repr(float(vals[i])) for _, vals in columns))
        artifacts.append((f"{name}.csv", ("\n".join(lines) + "\n").encode()))
    elif fmt == "json":
        artifacts.append((f"{name}.json", _json_bytes({
            **{c: [float(v) for v in vals] for c, vals in columns},
            "total_energy": float(profile.total_energy),
        })))
    else:
        raise ConfigError(f"unknown profile format {fmt!r}")
    if plot_data:
        for cname, vals in columns[1:]:
            rows = "\n".join(f"{repr(float(t))} {repr(float(v))}"
                             for t, v in zip(profile.grid, vals))
            artifacts.append((f"{name}_{cname}.dat", (rows + "\n").encode()))
    return artifacts


# ---------------------------------------------------------------------------
# Task handlers: pure computation, return (result, artifacts)
# ---------------------------------------------------------------------------

def _run_fock_verify(scenario, task, paths):
    reports = fock.identity_reports(
        scenario.algebra_n, task.get("cutoff", scenario.fock_cutoff),
        level=scenario.level,
        identities=tuple(task.get("identities", _IDENTITY_NAMES)),
        mode_range=task.get("mode_range", 2),
        tol=task.get("tolerance", scenario.tolerances["identity"]),
        charge=task.get("charge"), dim_limit=scenario.dim_limit)
    ok = all(r["pass"] for r in reports)
    result = {"status": "pass" if ok else "fail",
              "residuals": {r["identity"]: r["residual_max"] for r in reports}}
    return result, [("fock_verify.json", _json_bytes(reports))]

def _run_entropy_profile(scenario, task, paths):
    spec = scenario.loop_spec(task["loop"], "loop")
    path = _line_path(scenario, spec, paths)
    grid_spec = task.get("grid", {})
    lo, hi = path.support()
    start = grid_spec.get("start", lo - 1.0)
    stop = grid_spec.get("stop", hi + 1.0)
    num = grid_spec.get("num", 161)
    grid = np.linspace(start, stop, num)
    profile = entropy.qnec_profile(
        path, grid, fd_tolerance=scenario.tolerances["fd_relative"],
        tol=scenario.tolerances["quadrature"])
    name = task.get("out", f"{spec.name}_profile")
    artifacts = export_profile(profile, scenario.output_format, name,
                               scenario.plot_data)
    result = {"status": "pass",
              "residuals": {"fd_vs_analytic": float(np.max(np.abs(
                  profile.s_dd_fd - profile.s_dd_analytic)))},
              "total_energy": float(profile.total_energy)}
    return result, artifacts

def _run_bekenstein(scenario, task, paths):
    spec = scenario.loop_spec(task["loop"], "loop")
    path = _line_path(scenario, spec, paths)
    radii = task.get("radii", [0.5, 1.0, 5.0])
    rows = []
    ok = True
    for r in radii:
        rep = entropy.bekenstein_check(path, float(r))
        ok = ok and rep.holds
        rows.append({"r": float(r), "interval_entropy": float(rep.interval_entropy),
                     "bound": float(rep.bound), "holds": rep.holds,
                     "ratio": float(rep.ratio)})
    name = task.get("out", f"{spec.name}_bekenstein")
    result = {"status": "pass" if ok else "fail",
              "residuals": {"worst_ratio": max(r["ratio"] for r in rows)}}
    return result, [(f"{name}.json", _json_bytes(rows))]

def _run_hs_defect(scenario, task, paths):
    spec = scenario.loop_spec(task["loop"], "loop")
    gamma = _circle_loop(scenario, spec)
    window = task.get("window", scenario.grid_samples // 2)
    data = loops.loop_fourier_coefficients(gamma)
    rep = fock.hs_defect(data, window)
    name = task.get("out", f"{spec.name}_hs_defect")
    payload = {"fourier_value": float(rep.fourier_value),
               "truncated_value": float(rep.truncated_value),
               "window": rep.window, "relative_gap": float(rep.relative_gap),
               "tail_ok": rep.tail_ok, "tail_fraction": float(rep.tail_fraction)}
    result = {"status": "pass" if rep.relative_gap <= 1e-3 else "fail",
              "residuals": {"relative_gap": rep.relative_gap}}
    return result, [(f"{name}.json", _json_bytes(payload))]

def _run_alcove(scenario, task, paths):
    algebra = scenario.algebra()
    levels = task.get("levels", [scenario.level])
    lines = ["family,level,weight,casimir,h,c"]
    ok = True
    for lev in levels:
        data = affine_data.level_data(algebra, int(lev))
        bounds = affine_data.alcove_bounds(algebra, int(lev))
        ok = ok and bounds.c_ge_1 and bool(bounds.all_within_bound)
        for w in affine_data.alcove(algebra, int(lev)):
            weight = " ".join(str(a) for a in w.weight)
            lines.append(f"A{scenario.algebra_n - 1},{lev},{weight},"
                         f"{w.casimir},{w.conformal_weight},{data.central_charge}")
    name = task.get("out", "alcove")
    result = {"status": "pass" if ok else "fail", "residuals": {}}
    return result, [(f"{name}.csv", ("\n".join(lines) + "\n").encode())]

def _run_soliton(scenario, task, paths):
    algebra = scenario.algebra()
    sraw = task["soliton"]
    factors = []
    for j, fraw in enumerate(_expect(sraw.get("factors", []), list,
                                     "/soliton/factors", "factors")):
        gen, profile, params = _parse_factor(fraw, algebra,
                                             f"/soliton/factors/{j}")
        if profile != "fourier":
            raise ConfigError("twisted-path factors use 'fourier' profiles",
                              f"/soliton/factors/{j}")
        factors.append(soliton_mod.PeriodicFactor(
            gen, loops.ScalarField(params["coefficients"])))
    if "linear" in sraw:
        gen = _parse_generator(sraw["linear"], algebra, "/soliton/linear")
        factors.append(soliton_mod.LinearFactor(gen))
    path = soliton_mod.SolitonPath(algebra, factors)
    verdict = soliton_mod.extendability(path)
    name = task.get("out", "soliton_verdict")
    payload = {"jump": _jmat(verdict.jump), "central": verdict.central,
               "center_index": verdict.center_index,
               "extendable": verdict.extendable}
    result = {"status": "pass", "residuals": {},
              "extendable": verdict.extendable}
    return result, [(f"{name}.json", _json_bytes(payload))]

def _run_exp_check(scenario, task, paths):
    element = _fourier_element(scenario, [
        _parse_factor(f, scenario.algebra(), f"/element/factors/{j}")
        for j, f in enumerate(task["element"]["factors"])])
    alpha = float(task.get("alpha", 1.0))
    t = float(task.get("time", 1.0))
    try:
        _, rotation = loops.semidirect_exp(element, alpha, None, t,
                                           n_samples=scenario.grid_samples)
        residual, ok = 0.0, True
    except LoopnetError as exc:
        residual = getattr(exc, "residual", math.nan)
        rotation, ok = alpha * t, False
    name = task.get("out", "exp_check")
    payload = {"alpha": float(alpha), "time": float(t),
               "rotation": float(rotation), "pass": ok}
    result = {"status": "pass" if ok else "fail",
              "residuals": {"ode_sup": residual}}
    return result, [(f"{name}.json", _json_bytes(payload))]


# Handlers take (scenario, task, paths); ``paths`` maps each line loop's
# name to the LinePath built for it in this run.
_HANDLERS = {
    "fock-verify": _run_fock_verify,
    "entropy-profile": _run_entropy_profile,
    "bekenstein": _run_bekenstein,
    "hs-defect": _run_hs_defect,
    "alcove": _run_alcove,
    "soliton-classify": _run_soliton,
    "exp-ode-check": _run_exp_check,
}


@dataclass
class RunReport:
    version: str
    tasks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(t["status"] == "pass" for t in self.tasks
                   if t["status"] != "skipped")

    def to_json(self) -> dict:
        return {"version": self.version, "tasks": self.tasks,
                "passed": self.passed}


def run_scenario(scenario: Scenario, out_dir: str | None = None,
                 task_filter: tuple[str, ...] | None = None,
                 fail_fast: bool = False, parallel: bool = False) -> RunReport:
    """Execute the scenario's tasks in declared order and write artifacts.

    ``task_filter`` restricts to the given task types (used by the
    subcommands); skipped tasks are recorded as such, never silently
    dropped.  Artifact writes happen sequentially in task order regardless
    of ``parallel``.
    """
    report = RunReport(__version__)
    out_base = Path(out_dir if out_dir is not None else scenario.output_dir)
    selected = []
    for i, task in enumerate(scenario.tasks):
        if task_filter is not None and task["task"] not in task_filter:
            report.tasks.append({"task": task["task"], "index": i,
                                 "status": "skipped", "residuals": {},
                                 "elapsed_s": 0.0, "artifacts": []})
        else:
            selected.append((i, task))
    paths: dict[str, entropy.LinePath] = {}

    def execute(item):
        i, task = item
        t0 = time.perf_counter()
        try:
            result, artifacts = _HANDLERS[task["task"]](scenario, task, paths)
        except LoopnetError as exc:
            result, artifacts = {"status": "error", "residuals": {},
                                 "message": str(exc)}, []
        result.update({"task": task["task"], "index": i,
                       "elapsed_s": time.perf_counter() - t0})
        return i, result, artifacts

    outputs = []
    if parallel and len(selected) > 1:
        with concurrent.futures.ThreadPoolExecutor() as pool:
            outputs = list(pool.map(execute, selected))
    else:
        for item in selected:
            outputs.append(execute(item))
            if fail_fast and outputs[-1][1]["status"] != "pass":
                break

    outputs.sort(key=lambda o: o[0])
    out_base.mkdir(parents=True, exist_ok=True)
    for _, result, artifacts in outputs:
        written = []
        for relpath, blob in artifacts:
            target = out_base / relpath
            target.write_bytes(blob)
            written.append(str(target))
        result["artifacts"] = written
        report.tasks.append(result)
    report.tasks.sort(key=lambda t: t["index"])
    (out_base / "report.json").write_bytes(_json_bytes(report.to_json()))
    return report


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopnet",
        description="Loop-group conformal-net numerics: verification suites, "
                    "entropy profiles, alcove tables, twisted-loop verdicts.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--out-dir", help="artifact directory (default from config)")
        p.add_argument("--fail-fast", action="store_true")
        p.add_argument("--parallel", action="store_true")

    p = sub.add_parser("verify", help="operator-identity suite")
    common(p)
    p.add_argument("--algebra", help="string key, e.g. su2 (config-free mode)")
    p.add_argument("--cutoff", type=int, help="energy cutoff (config-free mode)")
    p.add_argument("--identities", help="comma list of identity names")

    p = sub.add_parser("entropy-profile", help="entropy/QNEC profiles")
    common(p)

    p = sub.add_parser("alcove", help="exact alcove tables")
    common(p)
    p.add_argument("--algebra", help="string key, e.g. su3 (config-free mode)")
    p.add_argument("--level", type=int, help="level (config-free mode)")
    p.add_argument("--dump-table", metavar="PATH",
                   help="also dump the simple-type table as JSON")

    p = sub.add_parser("hs-defect", help="Hardy-compression defect")
    common(p)

    p = sub.add_parser("soliton", help="twisted-loop classification")
    p.add_argument("action", nargs="?", default="classify",
                   choices=["classify"])
    common(p)

    p = sub.add_parser("exp-check", help="semidirect exponential vs ODE")
    common(p)
    return parser


def _config_free_scenario(args) -> Scenario | None:
    """Build a minimal scenario from flags when no --config was given."""
    if args.command == "verify" and args.algebra:
        ids = (args.identities.split(",") if args.identities
               else list(_IDENTITY_NAMES))
        cfg = {"algebra": {"family": args.algebra, "level": 1},
               "tasks": [{"task": "fock-verify", "identities": ids,
                          **({"cutoff": args.cutoff} if args.cutoff else {})}]}
        return validate_config(json.dumps(cfg))
    if args.command == "alcove" and args.algebra:
        cfg = {"algebra": {"family": args.algebra,
                           "level": args.level or 1},
               "tasks": [{"task": "alcove"}]}
        return validate_config(json.dumps(cfg))
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            scenario = validate_config(Path(args.config).read_text())
        else:
            scenario = _config_free_scenario(args)
            if scenario is None:
                print("error: --config required (or config-free flags for "
                      "verify/alcove)", file=sys.stderr)
                return 2
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if getattr(args, "dump_table", None):
        table = [{"family": r.family, "rank": r.rank,
                  "complex_dimension": r.complex_dimension,
                  "dual_coxeter": r.dual_coxeter}
                 for r in lie.simple_type_table()]
        target = Path(args.dump_table)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(_json_bytes(table))

    report = run_scenario(scenario, out_dir=args.out_dir,
                          task_filter=_SUBCOMMAND_TASKS[args.command],
                          fail_fast=args.fail_fast, parallel=args.parallel)
    for t in report.tasks:
        status = t["status"].upper()
        extras = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in t.get("residuals", {}).items())
        print(f"[{status}] {t['task']} ({t['elapsed_s']:.2f}s) {extras}".rstrip())
    executed = [t for t in report.tasks if t["status"] != "skipped"]
    print(f"{sum(t['status'] == 'pass' for t in executed)}/{len(executed)} "
          f"tasks passed")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
