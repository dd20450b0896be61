import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopnet import cli, entropy
from loopnet.errors import ConfigError


MINIMAL = json.dumps({"algebra": {"family": "su2", "level": 1}})


def scenario_text(**overrides):
    base = {
        "algebra": {"family": "su2", "level": 1},
        "fock_cutoff": 3,
        "output": {"dir": ".", "format": "csv"},
        "loops": [
            {"name": "gauss", "kind": "line", "factors": [
                {"generator": {"diag": [[0.0, 0.70710678118654752],
                                        [0.0, -0.70710678118654752]]},
                 "profile": "gaussian",
                 "parameters": {"center": 0.0, "width": 1.0,
                                "amplitude": 0.8}}]},
            {"name": "circle", "kind": "circle", "factors": [
                {"generator": {"basis": 0}, "profile": "bump",
                 "parameters": {"center": 0.0, "width": 2.0,
                                "amplitude": 0.5}}]},
        ],
        "tasks": [],
    }
    base.update(overrides)
    return json.dumps(base)


def test_defaults_filled():
    s = cli.validate_config(MINIMAL)
    assert s.grid_samples == 256
    assert s.fock_cutoff == 6
    assert s.tolerances["quadrature"] == 1e-10
    assert s.algebra_n == 2 and s.level == 1


def test_unknown_task_rejected():
    text = scenario_text(tasks=[{"task": "frobnicate"}])
    with pytest.raises(ConfigError) as err:
        cli.validate_config(text)
    assert "/tasks/0/task" in str(err.value)


def test_unknown_key_rejected_with_pointer():
    with pytest.raises(ConfigError) as err:
        cli.validate_config(json.dumps({"algebre": {}}))
    assert err.value.pointer == "/algebre"
    text = scenario_text()
    raw = json.loads(text)
    raw["loops"][0]["factors"][0]["parameters"]["sigma"] = 1.0
    with pytest.raises(ConfigError) as err:
        cli.validate_config(json.dumps(raw))
    assert "/loops/0/factors/0/parameters" in err.value.pointer


def test_capacity_surfaced_at_validation():
    # cutoff 400 is far past the 64-bit mask: its count stops at a lower bound
    for cutoff, words in ((40, "dimension"), (400, "dimension at least")):
        text = scenario_text(tasks=[{"task": "fock-verify", "cutoff": cutoff}])
        with pytest.raises(ConfigError) as err:
            cli.validate_config(text)
        assert err.value.pointer == "/tasks/0/cutoff"
        assert words in str(err.value)


@pytest.mark.parametrize("fock_cutoff, words", [(1, "integer >= 2"),
                                                (40, "dimension")])
def test_inherited_cutoff_error_names_fock_cutoff(fock_cutoff, words):
    # the task has no cutoff of its own
    text = scenario_text(fock_cutoff=fock_cutoff, tasks=[{"task": "fock-verify"}])
    with pytest.raises(ConfigError) as err:
        cli.validate_config(text)
    assert err.value.pointer == "/fock_cutoff"
    assert words in str(err.value)


def test_fock_cutoff_unused_without_fock_verify():
    cli.validate_config(scenario_text(fock_cutoff=1, tasks=[{"task": "alcove"}]))


def test_mask_width_surfaced_at_validation():
    # su2 at cutoff 16: 47155 charge-0 states, (2*16+1)*2 = 66 window modes
    raw = json.loads(scenario_text(tasks=[{"task": "fock-verify", "cutoff": 16,
                                           "charge": 0}]))
    raw["dim_limit"] = 100000
    with pytest.raises(ConfigError) as err:
        cli.validate_config(json.dumps(raw))
    assert err.value.pointer == "/tasks/0/cutoff"
    assert "64-bit mask" in str(err.value)


def test_bad_loop_reference():
    text = scenario_text(tasks=[{"task": "bekenstein", "loop": "nope"}])
    with pytest.raises(ConfigError):
        cli.validate_config(text)


def test_unknown_family():
    with pytest.raises(ConfigError):
        cli.validate_config(json.dumps({"algebra": {"family": "so5"}}))


def test_large_family_validates_without_structure_constants():
    """su30's structure constants need a (899, 899, 30, 30) complex
    intermediate, 10.8 GiB; validation never reads them, so they are not
    computed and the peak stays small."""
    tracemalloc.start()
    try:
        scenario = cli.validate_config(json.dumps({"algebra": {"family": "su30"}}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scenario.algebra.dimension == 899
    assert "structure_constants" not in vars(scenario.algebra)
    assert peak < 100 * 2**20


def test_grid_num_capped_at_validation():
    """A grid of 10^7 points would have qnec_profile query 3 * 10^7 points;
    it is refused at its pointer before anything of that size exists."""
    def grid(num):
        return scenario_text(tasks=[{"task": "entropy-profile", "loop": "gauss",
                                     "grid": {"num": num}}])

    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            cli.validate_config(grid(10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.pointer == "/tasks/0/grid/num"
    assert f"<= {cli.MAX_GRID_POINTS}, got 10000000" in str(err.value)
    assert peak < 10 * 2**20
    for num in (3, cli.MAX_GRID_POINTS):
        assert cli.validate_config(grid(num)).tasks[0]["grid"][2] == num


def test_alcove_level_box_capped_at_validation(tmp_path, capsys):
    """su5 at level 100000 would scan about 10^20 coordinates; it is refused
    at the pointer of its level, /algebra/level for the default list."""
    def alcove(**task):
        return json.dumps({"algebra": {"family": "su5", "level": 100000},
                           "tasks": [{"task": "alcove", **task}]})

    with pytest.raises(ConfigError) as err:
        cli.validate_config(alcove())
    assert err.value.pointer == "/algebra/level"
    assert "100004000060000400001 coordinates" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.validate_config(alcove(levels=[8, 100000]))
    assert err.value.pointer == "/tasks/0/levels/1"
    # the scenario level only matters to an alcove task that scans it
    assert cli.validate_config(alcove(levels=[8])).tasks[0]["levels"] == (8,)
    rc = cli.main(["alcove", "--algebra", "su5", "--level", "100000",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error: /algebra/level:" in capsys.readouterr().err


def test_quadrature_tolerance_below_rounding_is_a_task_error(tmp_path):
    """At tol 1e-14 the quadrature cannot certify its panels in double
    precision; the task ends in an AccuracyError, not a memory error, the
    run exits 1 and report.json is written."""
    config = tmp_path / "scenario.json"
    config.write_text(scenario_text(
        tolerances={"quadrature": 1e-14},
        tasks=[{"task": "entropy-profile", "loop": "gauss"}]))
    out = tmp_path / "out"
    rc = cli.main(["entropy-profile", "--config", str(config),
                   "--out-dir", str(out)])
    assert rc == 1
    (task,) = json.loads((out / "report.json").read_text())["tasks"]
    assert task["status"] == "error"
    assert "quadrature stalled" in task["message"]
    assert task["artifacts"] == []


def _parent_wrapped_window(profile, center, width, amplitude):
    """The periodic window formula ``_wrapped_window`` replaced."""
    def wrapped(thetas):
        s = np.angle(np.exp(1j * (np.asarray(thetas) - center))) / width
        if profile == "gaussian":
            return amplitude * np.exp(-s * s)
        return amplitude * np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 4, 0.0)
    return wrapped


@pytest.mark.parametrize("profile", ["gaussian", "bump"])
def test_wrapped_window_is_the_window_derivative(profile):
    """Bit for bit the formula it replaced, on grids across the +-pi wrap."""
    thetas = np.concatenate([np.linspace(-3 * np.pi, 3 * np.pi, 2001),
                             np.linspace(0.0, 2 * np.pi, 256, endpoint=False),
                             [np.pi, -np.pi, np.nextafter(np.pi, 4.0)]])
    for center in (0.0, 2.9, -3.1, np.pi):
        for width in (0.4, 2.0, 5.0):
            params = {"center": center, "width": width, "amplitude": -1.3}
            got = cli._wrapped_window(profile, **params)(thetas)
            want = _parent_wrapped_window(profile, **params)(thetas)
            assert np.array_equal(got, want)


def test_line_path_rejects_fourier_profile():
    raw = json.loads(scenario_text())
    raw["loops"][0]["factors"][0]["profile"] = "fourier"
    raw["loops"][0]["factors"][0]["parameters"] = {
        "coefficients": [[1, 0.1, 0.0]]}
    with pytest.raises(ConfigError):
        cli.validate_config(json.dumps(raw))


def test_export_profile_empty_and_roundtrip():
    empty = entropy.EntropyProfile(
        grid=np.array([]), S=np.array([]), S_bar=np.array([]),
        S_prime=np.array([]), s_dd_analytic=np.array([]),
        s_dd_fd=np.array([]), density=np.array([]), total_energy=0.0)
    (name, blob), = cli.export_profile(empty, "csv", "empty")
    assert name == "empty.csv"
    assert blob.decode().strip() == \
        "t,S,S_bar,S_prime,S_dd_analytic,S_dd_fd,density"
    grid = np.linspace(-1, 1, 5)
    prof = entropy.EntropyProfile(
        grid=grid, S=grid ** 2, S_bar=grid + 2, S_prime=-grid,
        s_dd_analytic=np.ones(5), s_dd_fd=np.ones(5),
        density=np.full(5, 1 / (2 * np.pi)), total_energy=1.25)
    (jname, jblob), = cli.export_profile(prof, "json", "p")
    data = json.loads(jblob)
    assert data["total_energy"] == 1.25
    assert data["t"] == [float(v) for v in grid]
    assert data["S"] == [float(v) for v in grid ** 2]
    plots = cli.export_profile(prof, "csv", "p", plot_data=True)
    names = {n for n, _ in plots}
    assert {"p.csv", "p_S.dat", "p_S_bar.dat", "p_S_prime.dat",
            "p_S_dd_analytic.dat", "p_S_dd_fd.dat", "p_density.dat"} == names


FULL_TASKS = [
    # no cutoff of its own: it takes the scenario's fock_cutoff, 3
    {"task": "fock-verify", "identities": ["affine", "rotation"]},
    {"task": "entropy-profile", "loop": "gauss",
     "grid": {"start": -3.0, "stop": 3.0, "num": 41}},
    {"task": "bekenstein", "loop": "gauss", "radii": [0.5, 1.0]},
    {"task": "hs-defect", "loop": "circle", "window": 32},
    {"task": "alcove", "levels": [1, 2]},
    {"task": "soliton-classify",
     "soliton": {"linear": {"diag": [[0.0, 0.5], [0.0, -0.5]]}}},
    {"task": "exp-ode-check", "element": {"factors": [
        {"generator": {"basis": 0}, "profile": "fourier",
         "parameters": {"coefficients": [[1, 0.4, 0.0], [-1, 0.4, 0.0]]}}]},
     "alpha": 1.0, "time": 1.0},
]


@pytest.fixture()
def full_scenario(tmp_path):
    return cli.validate_config(scenario_text(tasks=FULL_TASKS)), tmp_path


def test_run_scenario_all_tasks(full_scenario):
    scenario, tmp_path = full_scenario
    report = cli.run_scenario(scenario, out_dir=str(tmp_path))
    assert report.passed
    statuses = {t["task"]: t["status"] for t in report.tasks}
    assert all(v == "pass" for v in statuses.values())
    produced = {p.name for p in tmp_path.iterdir()}
    assert "gauss_profile.csv" in produced
    assert "alcove.csv" in produced
    assert "report.json" in produced
    verdict = json.loads((tmp_path / "soliton_verdict.json").read_text())
    assert verdict["central"] and verdict["extendable"]
    assert verdict["center_index"] == 1
    header = (tmp_path / "gauss_profile.csv").read_text().splitlines()[0]
    assert header == "t,S,S_bar,S_prime,S_dd_analytic,S_dd_fd,density"


def test_run_scenario_filter_and_skip(full_scenario):
    scenario, tmp_path = full_scenario
    report = cli.run_scenario(scenario, out_dir=str(tmp_path),
                              task_filter=("alcove",))
    by_task = {t["task"]: t["status"] for t in report.tasks}
    assert by_task["alcove"] == "pass"
    assert by_task["fock-verify"] == "skipped"
    assert report.passed


def test_artifacts_byte_stable(full_scenario, tmp_path_factory):
    scenario, _ = full_scenario
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(tag)
        cli.run_scenario(scenario, out_dir=str(out),
                         task_filter=("entropy-profile", "bekenstein",
                                      "alcove"))
        outs.append(out)
    for name in ("gauss_profile.csv", "gauss_bekenstein.json", "alcove.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_line_loop_built_once_per_run(full_scenario, monkeypatch):
    built = []

    class CountingPath(entropy.LinePath):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(entropy, "LinePath", CountingPath)
    scenario, tmp_path = full_scenario
    report = cli.run_scenario(scenario, out_dir=str(tmp_path),
                              task_filter=("entropy-profile", "bekenstein"))
    assert report.passed
    assert len(built) == 1
    assert len(built[0]._partitions) == 1
    cli.run_scenario(scenario, out_dir=str(tmp_path),
                     task_filter=("entropy-profile", "bekenstein"))
    assert len(built) == 2


def test_bekenstein_uses_scenario_quadrature(tmp_path, monkeypatch):
    built = []

    class CapturingPath(entropy.LinePath):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(entropy, "LinePath", CapturingPath)
    scenario = cli.validate_config(scenario_text(
        tolerances={"quadrature": 1e-3},
        tasks=[{"task": "bekenstein", "loop": "gauss", "radii": [0.5, 1.0]}]))
    assert cli.run_scenario(scenario, out_dir=str(tmp_path)).passed
    (path,) = built
    assert list(path._partitions) == [1e-3]
    rows = json.loads((tmp_path / "gauss_bekenstein.json").read_text())
    for row in rows:
        rep = entropy.bekenstein_check(path, row["r"], 1e-3)
        assert row == {"r": row["r"],
                       "interval_entropy": float(rep.interval_entropy),
                       "bound": float(rep.bound), "holds": rep.holds,
                       "ratio": float(rep.ratio)}


def test_config_free_verify_rejects_cutoff_zero(tmp_path, capsys):
    rc = cli.main(["verify", "--algebra", "su2", "--cutoff", "0",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "configuration error: /tasks/0/cutoff:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_entry_points(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(scenario_text(tasks=[{"task": "alcove"}]))
    rc = cli.main(["alcove", "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "alcove.csv").exists()
    rc = cli.main(["verify", "--config", str(tmp_path / "missing.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"tasks": [{"task": "nope"}]}')
    assert cli.main(["verify", "--config", str(bad)]) == 2


def test_main_config_free_alcove(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["alcove", "--algebra", "su3", "--level", "2",
                   "--out-dir", str(out),
                   "--dump-table", str(out / "table.json")])
    assert rc == 0
    table = json.loads((out / "table.json").read_text())
    assert {"family": "E8", "rank": 8, "complex_dimension": 248,
            "dual_coxeter": 30} in table
    lines = (out / "alcove.csv").read_text().splitlines()
    assert lines[0] == "family,level,weight,casimir,h,c"
    assert len(lines) == 1 + 6  # A2 level 2 alcove has 6 weights


def test_main_config_free_verify(tmp_path):
    rc = cli.main(["verify", "--algebra", "su2", "--cutoff", "3",
                   "--identities", "rotation,adjoint",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    reports = json.loads((tmp_path / "fock_verify.json").read_text())
    assert {r["identity"] for r in reports} == {"rotation", "adjoint"}
    assert all(r["pass"] for r in reports)


def test_unprotected_fock_sector_reports_error(tmp_path, capsys):
    # su2's charge-3 sector starts at energy 1, so at cutoff 4 no column is
    # protected for the affine residuals
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "algebra": {"family": "su2", "level": 1},
        "tasks": [{"task": "fock-verify", "identities": ["affine"],
                   "cutoff": 4, "charge": 3}]}))
    rc = cli.main(["verify", "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "[ERROR] fock-verify" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    [task] = report["tasks"]
    assert task["status"] == "error"
    assert "no protected columns" in task["message"]
    assert report["passed"] is False


def test_fail_fast_stops_after_failure(tmp_path):
    # a hs-defect task with a severely windowed loop fails its gap check;
    # with --fail-fast the following task must not run
    text = scenario_text(tasks=[
        {"task": "hs-defect", "loop": "circle", "window": 1},
        {"task": "alcove"},
    ])
    scenario = cli.validate_config(text)
    report = cli.run_scenario(scenario, out_dir=str(tmp_path), fail_fast=True)
    statuses = [t["status"] for t in report.tasks]
    assert statuses[0] == "fail"
    assert len(statuses) == 1
    assert not report.passed


# ---------------------------------------------------------------------------
# Malformed scenarios: exit 2 with a JSON pointer, never a traceback
# ---------------------------------------------------------------------------

_HERMITIAN = {"diag": [[0.5, 0.0], [-0.5, 0.0]]}
_FOURIER = {"generator": {"basis": 0}, "profile": "fourier",
            "parameters": {"coefficients": [[1, 0.4, 0.0], [-1, 0.4, 0.0]]}}
_GAUSSIAN = {"generator": {"basis": 0}, "profile": "gaussian",
             "parameters": {"width": 1.0}}


def _full_raw():
    return json.loads(scenario_text(tasks=FULL_TASKS))


def _put(raw, pointer, value):
    """Replace the value at a JSON pointer (every step must exist)."""
    *parents, last = pointer.strip("/").split("/")
    node = raw
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = value


# (subcommand, pointer to replace, new value, pointer the error must name);
# task indices follow FULL_TASKS, loop 0 is the line loop, loop 1 the circle
MALFORMED = [
    ("entropy-profile", "/tasks/1/grid", 3, "/tasks/1/grid"),
    ("entropy-profile", "/tasks/1/grid", {"points": 5}, "/tasks/1/grid/points"),
    ("entropy-profile", "/tasks/1/grid", {"num": "x"}, "/tasks/1/grid/num"),
    ("entropy-profile", "/tasks/1/grid", {"num": 2}, "/tasks/1/grid/num"),
    ("entropy-profile", "/tasks/1/grid", {"num": 10**7}, "/tasks/1/grid/num"),
    ("entropy-profile", "/tasks/1/grid", {"start": 3.0, "stop": -3.0},
     "/tasks/1/grid"),
    ("entropy-profile", "/tasks/1/loop", "circle", "/tasks/1/loop"),
    ("entropy-profile", "/tasks/2/radii", "abc", "/tasks/2/radii"),
    ("entropy-profile", "/tasks/2/radii", [-1.0], "/tasks/2/radii/0"),
    ("entropy-profile", "/tasks/2/radii", [], "/tasks/2/radii"),
    ("hs-defect", "/tasks/3/window", "x", "/tasks/3/window"),
    ("hs-defect", "/tasks/3/window", 0, "/tasks/3/window"),
    ("hs-defect", "/tasks/3/loop", "gauss", "/tasks/3/loop"),
    ("alcove", "/tasks/4/levels", ["x"], "/tasks/4/levels/0"),
    ("alcove", "/tasks/4/levels", [0], "/tasks/4/levels/0"),
    ("alcove", "/tasks/4/levels", [1, 10**6], "/tasks/4/levels/1"),
    ("alcove", "/tasks/4/out", 5, "/tasks/4/out"),
    ("alcove", "/tasks/4/out", "sub/alcove", "/tasks/4/out"),
    ("verify", "/tasks/0/cutoff", True, "/tasks/0/cutoff"),
    ("verify", "/tasks/0/cutoff", 1, "/tasks/0/cutoff"),
    ("verify", "/fock_cutoff", 1, "/fock_cutoff"),
    ("verify", "/tasks/0/tolerance", "x", "/tasks/0/tolerance"),
    ("verify", "/tasks/0/charge", "x", "/tasks/0/charge"),
    ("verify", "/tasks/0/mode_range", 1.5, "/tasks/0/mode_range"),
    ("verify", "/algebra/level", 2, "/algebra/level"),
    ("soliton", "/tasks/5/soliton", {"lineer": {"basis": 0}},
     "/tasks/5/soliton/lineer"),
    ("soliton", "/tasks/5/soliton", 5, "/tasks/5/soliton"),
    ("soliton", "/tasks/5/soliton", {}, "/tasks/5/soliton"),
    ("soliton", "/tasks/5/soliton/linear", _HERMITIAN,
     "/tasks/5/soliton/linear"),
    ("soliton", "/tasks/5/soliton", {"factors": [_GAUSSIAN]},
     "/tasks/5/soliton/factors/0/profile"),
    ("soliton", "/tasks/5/soliton", {"factors": [
        {**_FOURIER, "parameters": {"coefficients": [[1, 0.4, 0.0]]}}]},
     "/tasks/5/soliton/factors/0/parameters/coefficients"),
    ("exp-check", "/tasks/6/element", 5, "/tasks/6/element"),
    ("exp-check", "/tasks/6/element/factors", [], "/tasks/6/element/factors"),
    ("exp-check", "/tasks/6/element", {"factors": [_FOURIER], "scale": 2},
     "/tasks/6/element/scale"),
    ("exp-check", "/tasks/6/element/factors", [_GAUSSIAN],
     "/tasks/6/element/factors/0/profile"),
    ("exp-check", "/tasks/6/element/factors/0/parameters/coefficients",
     [[1, 0.4, 0.0]], "/tasks/6/element/factors/0/parameters/coefficients"),
    ("exp-check", "/tasks/6/alpha", "x", "/tasks/6/alpha"),
    ("exp-check", "/tasks/6/time", math.nan, "/tasks/6/time"),
    ("entropy-profile", "/loops/0/factors/0/generator", _HERMITIAN,
     "/loops/0/factors/0/generator"),
    ("hs-defect", "/loops/1/factors/0/generator", _HERMITIAN,
     "/loops/1/factors/0/generator"),
    ("entropy-profile", "/loops/0/factors/0/parameters/width", math.nan,
     "/loops/0/factors/0/parameters/width"),
    ("entropy-profile", "/loops/0/factors/0/parameters/width", math.inf,
     "/loops/0/factors/0/parameters/width"),
    ("entropy-profile", "/loops/0/factors", [], "/loops/0/factors"),
    ("entropy-profile", "/loops/1/name", "gauss", "/loops/1/name"),
    ("hs-defect", "/loops/1/factors/0", {**_FOURIER, "parameters": {
        "coefficients": [[1, 0.4, 0.0]]}},
     "/loops/1/factors/0/parameters/coefficients"),
]


@pytest.mark.parametrize("command,target,value,pointer", MALFORMED,
                         ids=[f"{p}<-{json.dumps(v)[:16]}"
                              for _, _, v, p in MALFORMED])
def test_malformed_config_exits_2(command, target, value, pointer, tmp_path,
                                  capsys):
    raw = _full_raw()
    _put(raw, target, value)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(raw))
    rc = cli.main([command, "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"configuration error: {pointer}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _leaves(node, pointer=""):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [pointer]
    return [leaf for key, child in items
            for leaf in _leaves(child, f"{pointer}/{key}")]


_FULL_LEAVES = _leaves(_full_raw())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FULL_LEAVES),
       st.sampled_from([None, True, "x", [], [1], {}, {"a": 1}, math.nan]))
def test_wrong_typed_leaf_is_config_error(target, value):
    raw = _full_raw()
    _put(raw, target, value)
    try:
        cli.validate_config(json.dumps(raw))
    except ConfigError:
        pass
