"""Scenario-driven command line: verification suites, entropy profiles, reports.

Each subcommand (``verify``, ``entropy-profile``, ``alcove``, ``hs-defect``,
``soliton classify``, ``exp-check``; ``loopnet --help`` describes them) runs
the scenario's tasks of the types that the task table ``_TASKS``, the one
list of task types, assigns to it.  All accept ``--config scenario.json``
(strict JSON: unknown keys, wrong types, NaN and Infinity are rejected at
every depth with a JSON pointer), ``--out-dir`` and ``--fail-fast``; ``verify``
and ``alcove`` also run config-free from flags, and ``alcove --dump-table``
writes the simple-type table as JSON.  Exit code 0 means every executed task
passed, 1 that some invariant failed, 2 that the configuration was rejected.

The module keeps no copy of the library: each loop is built once per
scenario, on first use, report artifacts are the library reports' own
fields, and the scenario defaults are the library's named defaults.

Artifacts (CSV/JSON) are byte-stable for a fixed scenario and package
version; ``report.json`` additionally carries wall-clock timings and is
exempt from byte-stability.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, affine_data, entropy, fock, lie, loops, quadrature
from . import soliton as soliton_mod
from .errors import ConfigError, LoopnetError

__all__ = ["Scenario", "RunReport", "validate_config", "run_scenario",
           "export_profile", "main"]

# ---------------------------------------------------------------------------
# Strict parsing
# ---------------------------------------------------------------------------
#
# Every field of a scenario, at every depth, is read here (a task's field
# table is its entry in ``_TASKS``), by one parser per field:
# parse(value, pointer, ctx, fields), ``pointer`` being the JSON pointer of
# ``value``, ``ctx`` what the caller hands down (the scenario-level fields for
# loops and tasks, the algebra for factors) and ``fields`` the fields of the
# enclosing object parsed so far.  Parsers that need neither take *_.

_REQUIRED = object()   # table default of a key that must be given


@dataclass(frozen=True)
class _Inherited:
    """Table default copied from the scenario-level field at ``pointer``;
    errors in the copy name that field, the one to mend."""
    pointer: str

    def read(self, top):
        for key in self.pointer.split("/")[1:]:
            top = top[key]
        return top


def _show(v) -> str:
    return json.dumps(v)[:40]


def _fields(raw, pointer, table, ctx=None) -> dict:
    """Parse a JSON object by its field table {key: (parse, default)}.

    Unknown keys are rejected.  A missing key takes its default, a JSON
    value or a function of (ctx, fields parsed so far) that gives one, and
    the default is parsed like a given value, an ``_Inherited`` one at its
    own pointer; ``_REQUIRED`` marks a key without one.  Keys parse in table
    order.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"must be an object, got {_show(raw)}", pointer)
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key {key!r}", f"{pointer}/{key}")
    fields = {}
    for key, (parse, default) in table.items():
        where = f"{pointer}/{key}"
        if key in raw:
            value = raw[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}", pointer)
        elif isinstance(default, _Inherited):
            value, where = default.read(ctx), default.pointer
        else:
            value = default(ctx, fields) if callable(default) else default
        fields[key] = parse(value, where, ctx, fields)
    return fields


def _object(table):
    """Parser of a nested object whose fields need no context."""
    return lambda v, pointer, *_: _fields(v, pointer, table)


def _number(v, pointer, *_, positive=False) -> float:
    """A finite JSON number, never a boolean, as a float (> 0 if ``positive``)."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max or positive and v <= 0):
        kind = "positive number" if positive else "number"
        raise ConfigError(f"must be a finite {kind}, got {_show(v)}", pointer)
    return float(v)


def _int(v, pointer, *_, minimum=1, maximum=None) -> int:
    """A JSON integer, never a boolean, of at least ``minimum`` and at most
    ``maximum`` (None: no bound)."""
    if (isinstance(v, bool) or not isinstance(v, int)
            or minimum is not None and v < minimum
            or maximum is not None and v > maximum):
        bound = "" if minimum is None else f" >= {minimum}"
        if maximum is not None:
            bound += f" and <= {maximum}"
        raise ConfigError(f"must be an integer{bound}, got {_show(v)}", pointer)
    return v


_positive = functools.partial(_number, positive=True)


def _accepted(rule, pointer, *args, **kwargs):
    """rule(*args, **kwargs), a library call that checks its own input; its
    refusal (a LoopnetError) becomes a ConfigError at ``pointer``, same message."""
    try:
        return rule(*args, **kwargs)
    except LoopnetError as err:
        raise ConfigError(str(err), pointer) from None


def _optional(parse):
    """``parse`` that also lets JSON null through as None."""
    return lambda v, *args: None if v is None else parse(v, *args)


def _string(v, pointer, *_) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"must be a nonempty string, got {_show(v)}", pointer)
    return v


def _name(v, pointer, *_) -> str:
    """A loop or artifact name; artifacts are written under it, so no '/'."""
    if "/" in _string(v, pointer):
        raise ConfigError("a name cannot contain '/'", pointer)
    return v


def _choice(*options):
    """Parser of one of ``options``, matched in value and type (1 is not True)."""
    def parse(v, pointer, *_):
        if not any(type(v) is type(o) and v == o for o in options):
            raise ConfigError(f"must be one of {options}, got {_show(v)}", pointer)
        return v
    return parse


def _list(v, pointer, ctx=None, *_, item, length=None, empty=False) -> tuple:
    """A JSON list, each entry parsed as item(entry, pointer, ctx); nonempty
    unless ``empty``, of exactly ``length`` entries if that is given."""
    if (not isinstance(v, list) or not (v or empty)
            or length is not None and len(v) != length):
        want = "a nonempty list" if length is None else f"a list of {length} entries"
        raise ConfigError(f"must be {want}, got {_show(v)}", pointer)
    return tuple(item(x, f"{pointer}/{i}", ctx) for i, x in enumerate(v))


def _parse_complex(v, pointer, *_) -> complex:
    re_part, im_part = _list(v, pointer, item=_number, length=2)
    return complex(re_part, im_part)


def _parse_generator(spec, pointer, algebra, *_) -> np.ndarray:
    """{"basis": i}, {"diag": [z, ...]} or {"matrix": [[z, ...], ...]}, z = [re, im].

    The matrix must pass ``lie.as_generator``, the test LinePath and
    SolitonPath apply, so a hermitian matrix is never exponentiated.
    """
    if not (isinstance(spec, dict) and len(spec) == 1):
        raise ConfigError("generator needs exactly one of basis/diag/matrix",
                          pointer)
    (key, value), = spec.items()
    at, n = f"{pointer}/{key}", algebra.n
    if key == "basis":
        i = _int(value, at, minimum=0)
        if i >= algebra.dimension:
            raise ConfigError(f"basis index out of range 0..{algebra.dimension - 1}", at)
        mat = algebra.basis[i]
    elif key == "diag":
        mat = np.diag(_list(value, at, item=_parse_complex, length=n))
    elif key == "matrix":
        row = functools.partial(_list, item=_parse_complex, length=n)
        mat = np.array(_list(value, at, item=row, length=n))
    else:
        raise ConfigError(f"unknown key {key!r}", at)
    return _accepted(lie.as_generator, pointer, mat, n)


def _coefficient(v, pointer, *_) -> tuple:
    if not (isinstance(v, list) and len(v) == 3):
        raise ConfigError("fourier coefficients are [k, re, im] triples", pointer)
    return (_int(v[0], f"{pointer}/0", minimum=None),
            complex(_number(v[1], f"{pointer}/1"), _number(v[2], f"{pointer}/2")))


def _fourier_field(v, pointer, *_) -> loops.ScalarField:
    """A real scalar field from [k, re, im] triples; repeated k add up."""
    coeffs = {}
    for k, c in _list(v, pointer, item=_coefficient):
        coeffs[k] = coeffs.get(k, 0.0) + c
    return _accepted(loops.ScalarField, pointer, coeffs, real=True)


_WINDOWS = {"gaussian": entropy.GaussianWindow, "bump": entropy.PolyBump}


_PROFILE_FIELDS = {
    "fourier": {"coefficients": (_fourier_field, _REQUIRED)},
    "gaussian": {"center": (_number, 0.0), "width": (_number, 1.0),
                 "amplitude": (_number, 1.0)},
}
_PROFILE_FIELDS["bump"] = _PROFILE_FIELDS["gaussian"]


def _parameters(v, pointer, _, factor):
    """A fourier profile's ScalarField, or a window built from finite
    fields, which can refuse only its width."""
    params = _fields(v, pointer, _PROFILE_FIELDS[factor["profile"]])
    if factor["profile"] == "fourier":
        return params["coefficients"]
    return _accepted(_WINDOWS[factor["profile"]], f"{pointer}/width", **params)


_FACTOR_FIELDS = {"generator": (_parse_generator, _REQUIRED),
                  "profile": (_choice(*_PROFILE_FIELDS), _REQUIRED),
                  "parameters": (_parameters, _REQUIRED)}


def _parse_factor(spec, pointer, algebra, *_) -> tuple:
    """(generator, profile, parameters); a fourier profile's parameters are
    its ScalarField, a window profile's its GaussianWindow or PolyBump."""
    return tuple(_fields(spec, pointer, _FACTOR_FIELDS, algebra).values())


def _factors(v, pointer, algebra, *_, profiles) -> tuple:
    """A nonempty factor list whose profiles are all among ``profiles``."""
    factors = _list(v, pointer, algebra, item=_parse_factor)
    for j, (_, profile, _) in enumerate(factors):
        if profile not in profiles:
            raise ConfigError(f"profile must be one of {profiles} here",
                              f"{pointer}/{j}/profile")
    return factors


_fourier_factors = functools.partial(_factors, profiles=("fourier",))


def _wrapped_window(window):
    """A window profile made 2 pi-periodic for circle loops: the window's
    derivative at the angle from its center, wrapped into (-pi, pi]."""
    shifted = replace(window, center=0.0)
    return lambda thetas: shifted.derivative(
        np.angle(np.exp(1j * (np.asarray(thetas) - window.center))))


def _loop_factors(v, pointer, algebra, loop) -> tuple:
    """Line loops: (generator, window) pairs for LinePath.  Circle loops:
    (generator, scalar field or periodic window) pairs for loop_from_factors."""
    if loop["kind"] == "line":
        return tuple((gen, window) for gen, _, window
                     in _factors(v, pointer, algebra, profiles=tuple(_WINDOWS)))
    return tuple((gen, params if profile == "fourier"
                  else _wrapped_window(params))
                 for gen, profile, params
                 in _factors(v, pointer, algebra, profiles=tuple(_PROFILE_FIELDS)))


@dataclass(frozen=True)
class LoopSpec:
    """A parsed loop.  ``built`` is its library object, made on first use
    and kept: a LinePath for a line loop, a GridLoop of ``grid_samples``
    samples for a circle loop."""
    name: str
    kind: str                      # "line" | "circle"
    factors: tuple
    algebra: lie.CompactSimpleAlgebra = field(repr=False, compare=False)
    level: int = field(repr=False, compare=False)
    grid_samples: int = field(repr=False, compare=False)

    @functools.cached_property
    def built(self):
        if self.kind == "line":
            return entropy.LinePath(self.algebra, self.factors, level=self.level)
        return loops.loop_from_factors(self.algebra, self.factors, self.grid_samples)


_LOOP_FIELDS = {"name": (_optional(_name), None),
                "kind": (_choice("line", "circle"), "line"),
                "factors": (_loop_factors, _REQUIRED)}


def _loop(v, pointer, top, *_) -> LoopSpec:
    algebra, level = top["algebra"]
    return LoopSpec(**_fields(v, pointer, _LOOP_FIELDS, algebra), algebra=algebra,
                    level=level, grid_samples=top["grid_samples"])


def _loops(v, pointer, _, top) -> tuple:
    """Loop specs with distinct names, ``loop<i>`` where none is given."""
    specs = []
    for i, spec in enumerate(_list(v, pointer, top, item=_loop, empty=True)):
        spec = replace(spec, name=spec.name or f"loop{i}")
        if any(s.name == spec.name for s in specs):
            raise ConfigError(f"duplicate loop name {spec.name!r}",
                              f"{pointer}/{i}/name")
        specs.append(spec)
    return tuple(specs)


def _loop_ref(kind):
    """Parser of a task's reference, by index or name, to a ``kind`` loop."""
    def parse(v, pointer, top, _):
        specs = top["loops"]
        by_index = (isinstance(v, int) and not isinstance(v, bool)
                    and 0 <= v < len(specs))
        spec = specs[v] if by_index else next(
            (s for s in specs if s.name == v), None)
        if spec is None:
            raise ConfigError(f"no loop with index or name {_show(v)}", pointer)
        if spec.kind != kind:
            raise ConfigError(f"loop {spec.name!r} is not a {kind} loop", pointer)
        return spec
    return parse


# qnec_profile queries 3 num points at once; num = 100,000 peaks near 150 MB
# resident and takes 8-9 s on a three-factor su3 path (2-core x86 VM)
MAX_GRID_POINTS = 100_000


def _grid(v, pointer, _, task) -> tuple:
    """(start, stop, num) for np.linspace; the ends default to one unit
    beyond the loop's support, and num is at most MAX_GRID_POINTS."""
    lo, hi = entropy._support_hull(task["loop"].factors)
    num = functools.partial(_int, minimum=3, maximum=MAX_GRID_POINTS)
    grid = _fields(v, pointer, {"start": (_number, lo - 1.0),
                                "stop": (_number, hi + 1.0),
                                "num": (num, 161)})
    if not grid["start"] < grid["stop"]:
        raise ConfigError("grid start must be below stop", pointer)
    return tuple(grid.values())


def _cutoff(v, pointer, top, task) -> int:
    """An energy cutoff of at least 2, the smallest the identity suite can
    probe, whose truncated space fits the dimension limit."""
    cutoff = _int(v, pointer, minimum=2)
    _accepted(fock._check_capacity, pointer, top["algebra"][0].n, cutoff,
              task["charge"], top["dim_limit"])
    return cutoff


def _identities(v, pointer, _, task) -> tuple:
    """A nonempty list of identity names, each one the task's sector can
    run: a charged sector holds no vacuum, so it refuses the vacuum cocycle
    here rather than skip it without a word."""
    names = _list(v, pointer, item=_choice(*fock.IDENTITIES))
    _accepted(fock._check_identities, pointer, names, task["charge"])
    return names


def _soliton(v, pointer, top, _) -> tuple:
    """The factors of a SolitonPath: periodic ones, then the linear one."""
    spec = _fields(v, pointer, {"factors": (_optional(_fourier_factors), None),
                                "linear": (_optional(_parse_generator), None)},
                   top["algebra"][0])
    if spec["factors"] is None and spec["linear"] is None:
        raise ConfigError("a soliton needs factors or linear", pointer)
    factors = [soliton_mod.PeriodicFactor(gen, scalar)
               for gen, _, scalar in spec["factors"] or ()]
    if spec["linear"] is not None:
        factors.append(soliton_mod.LinearFactor(spec["linear"]))
    return tuple(factors)


def _element(v, pointer, top, _) -> loops.FourierLoopElement:
    """Sum (not product) of profile * generator terms as a loop-algebra
    element, which must be in the compact real form to 1e-12."""
    algebra = top["algebra"][0]
    spec = _fields(v, pointer, {"factors": (_fourier_factors, _REQUIRED)},
                   algebra)
    coeffs: dict[int, np.ndarray] = {}
    for gen, _, scalar in spec["factors"]:
        for k, c in scalar.coefficients.items():
            coeffs[k] = coeffs.get(k, 0) + c * gen
    x = _accepted(loops.FourierLoopElement, pointer, coeffs, algebra,
                  real_form=True)
    _accepted(loops._check_element_resolution, pointer, x, top["grid_samples"])
    return x


_EXP_FIELD = loops.ScalarField.constant(1.0)   # the flow field of exp-ode-check


def _time(v, pointer, _, task) -> float:
    """The time of an exp-ode-check task, whose semidirect exponential and
    RK4 check must each plan at most ``loops.MAX_STEPS`` steps."""
    t = _number(v, pointer)
    _accepted(loops._check_steps, pointer, task["element"], task["alpha"],
              _EXP_FIELD, t)
    return t


def _alcove_level(v, pointer, top, *_) -> int:
    """A level whose alcove box ``affine_data.alcove`` scans (the default
    list holds the scenario level, refused at /algebra/level)."""
    level = _int(v, pointer)
    _accepted(affine_data._scannable_roots, pointer, top["algebra"][0], level)
    return level


def _task(v, pointer, top, *_) -> dict:
    """A task, its fields read by the field table of its type in ``_TASKS``."""
    name = v.get("task") if isinstance(v, dict) else None
    if not isinstance(name, str) or name not in _TASKS:
        raise ConfigError(f"unknown task {_show(name)}; expected one of "
                          f"{tuple(_TASKS)}", f"{pointer}/task")
    if name == "fock-verify" and top["algebra"][1] != 1:
        raise ConfigError(f"task {pointer} (fock-verify) runs the level-1 "
                          "fermionic model; the level must be 1", "/algebra/level")
    fields = {k: x for k, x in v.items() if k != "task"}
    return {"task": name, **_fields(fields, pointer, _TASKS[name].fields, top)}


def _family(v, pointer, *_) -> lie.CompactSimpleAlgebra:
    m = re.fullmatch(r"su([2-9]\d*)", v) if isinstance(v, str) else None
    if not m:
        raise ConfigError("family must be a string key 'su2', 'su3', ...", pointer)
    return _accepted(lie.build_su, pointer, int(m.group(1)))


def _algebra(v, pointer, *_) -> tuple:
    """(algebra, level); the algebra is built here, once per scenario."""
    alg = _fields(v, pointer, {"family": (_family, _REQUIRED), "level": (_int, 1)})
    return alg["family"], alg["level"]


def _grid_samples(v, pointer, *_) -> int:
    return _accepted(loops._check_sample_count, pointer,
                     _int(v, pointer, minimum=None))


_SCENARIO_FIELDS = {
    "algebra": (_algebra, {"family": "su2"}),
    "grid_samples": (_grid_samples, loops.DEFAULT_SAMPLES),
    "fock_cutoff": (_int, 6),
    "dim_limit": (_optional(_int), None),
    "tolerances": (_object({
        "quadrature": (_positive, quadrature.DEFAULT_TOL),
        "identity": (_positive, fock.DEFAULT_IDENTITY_TOL),
        "fd_relative": (_positive, entropy.DEFAULT_FD_TOLERANCE)}), {}),
    "output": (_object({"dir": (_string, "."),
                        "format": (_choice("csv", "json"), "csv"),
                        "plot_data": (_choice(False, True), False)}), {}),
    "loops": (_loops, []),
    "tasks": (lambda v, p, _, top: _list(v, p, top, item=_task, empty=True), []),
}


@dataclass(frozen=True)
class Scenario:
    algebra: lie.CompactSimpleAlgebra
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

    @property
    def algebra_n(self) -> int:
        return self.algebra.n


def validate_config(text: str) -> Scenario:
    """Parse and strictly validate a scenario; fill documented defaults.

    NaN and Infinity, which Python's JSON reader accepts, are rejected
    wherever a number is expected.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    top = _fields(raw, "", _SCENARIO_FIELDS)
    out = top["output"]
    return Scenario(*top["algebra"], top["grid_samples"], top["fock_cutoff"],
                    top["dim_limit"], top["tolerances"], out["dir"],
                    out["format"], out["plot_data"], top["loops"], top["tasks"])


# ---------------------------------------------------------------------------
# Serialization helpers (byte-stable)
# ---------------------------------------------------------------------------

def _jmat(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _payload(report) -> dict:
    """A library report's fields, matrices through ``_jmat``."""
    return asdict(report, dict_factory=lambda items: {
        k: _jmat(v) if isinstance(v, np.ndarray) else v for k, v in items})


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
    # tolist() gives the Python floats that repr writes, one join per line
    lists = [vals.tolist() for _, vals in columns]
    if fmt == "csv":
        lines = [",".join(c for c, _ in columns)]
        lines += [",".join(map(repr, row)) for row in zip(*lists)]
        artifacts.append((f"{name}.csv", ("\n".join(lines) + "\n").encode()))
    elif fmt == "json":
        artifacts.append((f"{name}.json", _json_bytes({
            **{c: vals for (c, _), vals in zip(columns, lists)},
            "total_energy": float(profile.total_energy),
        })))
    else:
        raise ConfigError(f"unknown profile format {fmt!r}")
    if plot_data:
        for (cname, _), vals in zip(columns[1:], lists[1:]):
            rows = "\n".join(f"{t!r} {v!r}" for t, v in zip(lists[0], vals))
            artifacts.append((f"{name}_{cname}.dat", (rows + "\n").encode()))
    return artifacts


# ---------------------------------------------------------------------------
# Task handlers: pure computation on parsed fields, return (result, artifacts)
# ---------------------------------------------------------------------------

def _run_fock_verify(scenario, task):
    reports = fock.identity_reports(
        scenario.algebra_n, task["cutoff"], identities=task["identities"],
        mode_range=task["mode_range"], tol=task["tolerance"], charge=task["charge"],
        dim_limit=scenario.dim_limit)
    ok = all(r["pass"] for r in reports)
    result = {"status": "pass" if ok else "fail",
              "residuals": {r["identity"]: r["residual_max"] for r in reports},
              "vacuum_only": _vacuum_only(reports, task["charge"])}
    return result, [("fock_verify.json", _json_bytes(reports))]

def _vacuum_only(reports, charge) -> list[str]:
    """The operator identities whose protected block is the vacuum alone,
    one column of a sector that holds it, so that their verdict says
    nothing of any excited state.  The vacuum cocycle, a vacuum expectation
    by definition, is not named."""
    if charge not in (None, 0):
        return []
    return [r["identity"] for r in reports
            if r["columns"] == 1 and r["identity"] != "vacuum-cocycle"]

def _run_entropy_profile(scenario, task):
    profile = entropy.qnec_profile(
        task["loop"].built, np.linspace(*task["grid"]),
        fd_tolerance=scenario.tolerances["fd_relative"],
        tol=scenario.tolerances["quadrature"])
    artifacts = export_profile(profile, scenario.output_format, task["out"],
                               scenario.plot_data)
    result = {"status": "pass",
              "residuals": {"fd_vs_analytic": float(np.max(np.abs(
                  profile.s_dd_fd - profile.s_dd_analytic)))},
              "total_energy": float(profile.total_energy)}
    return result, artifacts

def _run_bekenstein(scenario, task):
    reports = entropy.bekenstein_checks(task["loop"].built, task["radii"],
                                        scenario.tolerances["quadrature"])
    result = {"status": "pass" if all(rep.holds for rep in reports) else "fail",
              "residuals": {"worst_ratio": max(rep.ratio for rep in reports)}}
    rows = [{"r": r, **_payload(rep)} for r, rep in zip(task["radii"], reports)]
    return result, [(f"{task['out']}.json", _json_bytes(rows))]

def _run_hs_defect(scenario, task):
    rep = fock.hs_defect(loops.loop_fourier_coefficients(task["loop"].built),
                         task["window"])
    result = {"status": "pass" if rep.relative_gap <= 1e-3 else "fail",
              "residuals": {"relative_gap": rep.relative_gap}}
    return result, [(f"{task['out']}.json", _json_bytes(_payload(rep)))]

def _run_alcove(scenario, task):
    lines = ["family,level,weight,casimir,h,c"]
    ok = True
    for lev in task["levels"]:
        data = affine_data.level_data(scenario.algebra, lev)
        scan = affine_data._scan(scenario.algebra, data)
        weights = affine_data._weights(scan)
        bounds = affine_data._type_a_bounds(scan)
        ok = ok and bounds.c_ge_1 and bool(bounds.all_within_bound)
        for w in weights:
            weight = " ".join(str(a) for a in w.weight)
            lines.append(f"A{scenario.algebra_n - 1},{lev},{weight},"
                         f"{w.casimir},{w.conformal_weight},{data.central_charge}")
    result = {"status": "pass" if ok else "fail", "residuals": {}}
    return result, [(f"{task['out']}.csv", ("\n".join(lines) + "\n").encode())]

def _run_soliton(scenario, task):
    path = soliton_mod.SolitonPath(scenario.algebra, list(task["soliton"]))
    verdict = soliton_mod.extendability(path)
    result = {"status": "pass", "residuals": {},
              "extendable": verdict.extendable}
    return result, [(f"{task['out']}.json", _json_bytes(_payload(verdict)))]

def _run_exp_check(scenario, task):
    x, alpha, t, h = task["element"], task["alpha"], task["time"], _EXP_FIELD
    try:
        loop, _ = loops.semidirect_exp(x, alpha, h, t, scenario.grid_samples,
                                       verify=False)
        residual, ok = loops._ode_gap(loop, x, alpha, h, t), True
    except LoopnetError as exc:
        residual, ok = getattr(exc, "residual", math.nan), False
    payload = {"alpha": alpha, "time": t, "rotation": float(alpha * t), "pass": ok}
    result = {"status": "pass" if ok else "fail",
              "residuals": {"ode_sup": residual}}
    return result, [(f"{task['out']}.json", _json_bytes(payload))]


def _named(suffix):
    """Default artifact name: the task's loop name plus ``suffix``."""
    return lambda _, task: task["loop"].name + suffix


# The one list of task types: each maps to the subcommand that runs it, its
# field table {field: (parser, default)}, read after ``task`` itself, and its
# handler (scenario, task) -> (result, artifacts).
_TaskType = collections.namedtuple("_TaskType", "subcommand fields run")
_TASKS = {
    "fock-verify": _TaskType("verify", {
        "charge": (_optional(functools.partial(_int, minimum=None)), None),
        "cutoff": (_cutoff, _Inherited("/fock_cutoff")),
        "identities": (_identities, lambda _, task: list(
            fock._sector_identities(task["charge"]))),
        "tolerance": (_positive, _Inherited("/tolerances/identity")),
        "mode_range": (_int, fock.DEFAULT_MODE_RANGE)}, _run_fock_verify),
    "entropy-profile": _TaskType("entropy-profile", {
        "loop": (_loop_ref("line"), _REQUIRED),
        "grid": (_grid, {}),
        "out": (_name, _named("_profile"))}, _run_entropy_profile),
    "bekenstein": _TaskType("entropy-profile", {
        "loop": (_loop_ref("line"), _REQUIRED),
        "radii": (functools.partial(_list, item=_positive), [0.5, 1.0, 5.0]),
        "out": (_name, _named("_bekenstein"))}, _run_bekenstein),
    "hs-defect": _TaskType("hs-defect", {
        "loop": (_loop_ref("circle"), _REQUIRED),
        "window": (_int, lambda top, _: top["grid_samples"] // 2),
        "out": (_name, _named("_hs_defect"))}, _run_hs_defect),
    "alcove": _TaskType("alcove", {
        "levels": (functools.partial(_list, item=_alcove_level),
                   lambda top, _: [_alcove_level(
                       top["algebra"][1], "/algebra/level", top)]),
        "out": (_name, "alcove")}, _run_alcove),
    "soliton-classify": _TaskType("soliton", {
        "soliton": (_soliton, _REQUIRED),
        "out": (_name, "soliton_verdict")}, _run_soliton),
    "exp-ode-check": _TaskType("exp-check", {
        "element": (_element, _REQUIRED),
        "alpha": (_number, 1.0), "time": (_time, 1.0),
        "out": (_name, "exp_check")}, _run_exp_check),
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
                 fail_fast: bool = False) -> RunReport:
    """Execute the scenario's tasks in declared order and write artifacts.

    ``task_filter`` restricts to the given task types (used by the
    subcommands); skipped tasks are recorded as such, never silently
    dropped.  With ``fail_fast`` no task runs after the first that does not
    pass.
    """
    report = RunReport(__version__)
    out_base = Path(out_dir if out_dir is not None else scenario.output_dir)
    out_base.mkdir(parents=True, exist_ok=True)
    stopped = False
    for i, task in enumerate(scenario.tasks):
        if task_filter is not None and task["task"] not in task_filter:
            report.tasks.append({"task": task["task"], "index": i,
                                 "status": "skipped", "residuals": {},
                                 "elapsed_s": 0.0, "artifacts": []})
            continue
        if stopped:
            continue
        t0 = time.perf_counter()
        try:
            result, artifacts = _TASKS[task["task"]].run(scenario, task)
        except LoopnetError as exc:
            result, artifacts = {"status": "error", "residuals": {},
                                 "message": str(exc)}, []
        result.update({"task": task["task"], "index": i,
                       "elapsed_s": time.perf_counter() - t0})
        written = []
        for relpath, blob in artifacts:
            target = out_base / relpath
            target.write_bytes(blob)
            written.append(str(target))
        result["artifacts"] = written
        report.tasks.append(result)
        stopped = fail_fast and result["status"] != "pass"
    (out_base / "report.json").write_bytes(_json_bytes(report.to_json()))
    return report


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every ``main`` call reuses it."""
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

    p = sub.add_parser("verify", help="operator-identity suite")
    common(p)
    p.add_argument("--algebra", help="string key, e.g. su2 (config-free mode)")
    p.add_argument("--cutoff", type=int, help="energy cutoff (config-free mode)")
    p.add_argument("--identities", default=",".join(fock.IDENTITIES),
                   help="comma list of identity names (default: all)")

    p = sub.add_parser("entropy-profile", help="entropy/QNEC profiles")
    common(p)

    p = sub.add_parser("alcove", help="exact alcove tables")
    common(p)
    p.add_argument("--algebra", help="string key, e.g. su3 (config-free mode)")
    p.add_argument("--level", type=int, default=1, help="level (config-free mode)")
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
        cfg = {"algebra": {"family": args.algebra, "level": 1},
               "tasks": [{"task": "fock-verify",
                          "identities": args.identities.split(","),
                          **({} if args.cutoff is None else {"cutoff": args.cutoff})}]}
        return validate_config(json.dumps(cfg))
    if args.command == "alcove" and args.algebra:
        cfg = {"algebra": {"family": args.algebra, "level": args.level},
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
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if getattr(args, "dump_table", None):
        target = Path(args.dump_table)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(_json_bytes([_payload(r) for r in lie.simple_type_table()]))

    report = run_scenario(scenario, out_dir=args.out_dir,
                          task_filter=tuple(name for name, kind in _TASKS.items()
                                            if kind.subcommand == args.command),
                          fail_fast=args.fail_fast)
    for t in report.tasks:
        status = t["status"].upper()
        extras = [f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                  for k, v in t.get("residuals", {}).items()]
        if t.get("vacuum_only"):
            extras.append("vacuum-only=" + ",".join(t["vacuum_only"]))
        print(f"[{status}] {t['task']} ({t['elapsed_s']:.2f}s) "
              f"{' '.join(extras)}".rstrip())
    executed = [t for t in report.tasks if t["status"] != "skipped"]
    print(f"{sum(t['status'] == 'pass' for t in executed)}/{len(executed)} "
          f"tasks passed")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
