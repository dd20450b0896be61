import inspect
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopnet import cli, entropy, fock, loops, quadrature
from loopnet.errors import CapacityError, ConfigError, NumericError

from conftest import random_antihermitian


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
    # su2 at cutoff 11 fits the mask (46 bits) with 27276 states, over the
    # 20000 limit; cutoffs 40 and 400 are refused by the mask width first
    for cutoff, words in ((11, "dimension 27276"), (40, "64-bit mask"),
                          (400, "64-bit mask")):
        text = scenario_text(tasks=[{"task": "fock-verify", "cutoff": cutoff}])
        with pytest.raises(ConfigError) as err:
            cli.validate_config(text)
        assert err.value.pointer == "/tasks/0/cutoff"
        assert words in str(err.value)


@pytest.mark.parametrize("fock_cutoff, words", [(1, "integer >= 2"),
                                                (11, "dimension"),
                                                (40, "64-bit mask")])
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


@pytest.mark.parametrize("profile", ["gaussian", "bump"])
def test_wrapped_window_is_the_window_derivative(profile):
    """Bit for bit the derivative of the window moved to 0, at the angle
    from its center wrapped by ``np.angle``, on grids across the +-pi wrap."""
    thetas = np.concatenate([np.linspace(-3 * np.pi, 3 * np.pi, 2001),
                             np.linspace(0.0, 2 * np.pi, 256, endpoint=False),
                             [np.pi, -np.pi, np.nextafter(np.pi, 4.0)]])
    for center in (0.0, 2.9, -3.1, np.pi):
        for width in (0.4, 2.0, 5.0):
            window = cli._WINDOWS[profile](center=center, width=width, amplitude=-1.3)
            angles = np.angle(np.exp(1j * (thetas - center)))
            want = cli._WINDOWS[profile](0.0, width, -1.3).derivative(angles)
            assert np.array_equal(cli._wrapped_window(window)(thetas), want)


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


def _export_profile_per_cell(profile, fmt, name, plot_data):
    """The writer ``export_profile`` replaced, kept as its oracle: each cell
    written as ``repr(float(vals[i]))`` in a generator."""
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
    else:
        artifacts.append((f"{name}.json", cli._json_bytes({
            **{c: [float(v) for v in vals] for c, vals in columns},
            "total_energy": float(profile.total_energy),
        })))
    if plot_data:
        for cname, vals in columns[1:]:
            rows = "\n".join(f"{repr(float(t))} {repr(float(v))}"
                             for t, v in zip(profile.grid, vals))
            artifacts.append((f"{name}_{cname}.dat", (rows + "\n").encode()))
    return artifacts


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_profile_bytes_match_the_per_cell_writer(fmt, su3):
    rng = np.random.default_rng(30)
    path = entropy.LinePath(su3, [
        (random_antihermitian(su3, rng), entropy.GaussianWindow(c, 0.8, 0.9))
        for c in (-1.0, 0.2, 1.1)])
    prof = entropy.qnec_profile(path, np.linspace(-4.0, 4.0, 41))
    got = cli.export_profile(prof, fmt, "p", plot_data=True)
    assert got == _export_profile_per_cell(prof, fmt, "p", plot_data=True)
    assert len(got) == 7


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


def test_exp_check_passes_on_two_directions(tmp_path):
    # 0.4 x_0 + 0.3 x_1 at modes +-1 and 0.5 x_1 at mode 0: the values of
    # the element do not commute along the flow
    task = {"task": "exp-ode-check", "element": {"factors": [
        {"generator": {"basis": 0}, "profile": "fourier",
         "parameters": {"coefficients": [[1, 0.4, 0.0], [-1, 0.4, 0.0]]}},
        {"generator": {"basis": 1}, "profile": "fourier",
         "parameters": {"coefficients": [[1, 0.3, 0.0], [-1, 0.3, 0.0],
                                         [0, 0.5, 0.0]]}}]},
        "alpha": 1.0, "time": 1.0}
    scenario = cli.validate_config(scenario_text(tasks=[task]))
    report = cli.run_scenario(scenario, out_dir=str(tmp_path))
    assert [t["status"] for t in report.tasks] == ["pass"]
    assert json.loads((tmp_path / "exp_check.json").read_text())["pass"]


def test_exp_check_refuses_an_element_outside_the_real_form(tmp_path, capsys):
    # the generator is anti-hermitian to 1e-12 (4e-13 on its diagonal), but
    # at amplitude 400 the element is 3.2e-10 off the real form, which the
    # semidirect exponential needs: refused at validation, not a crash
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"algebra": {"family": "su2"}, "tasks": [
        {"task": "exp-ode-check", "element": {"factors": [
            {"generator": {"matrix": [[[4e-13, 0.5], [0.3, 0.0]],
                                      [[-0.3, 0.0], [0.0, -0.5]]]},
             "profile": "fourier", "parameters": {
                 "coefficients": [[1, 400.0, 0.0], [-1, 400.0, 0.0]]}}]}}]}))
    rc = cli.main(["exp-check", "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error: /tasks/0/element: real-form tag" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_exp_check_reports_the_measured_gap(tmp_path, capsys, monkeypatch):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"algebra": {"family": "su2"},
                                  "tasks": [FULL_TASKS[6]]}))
    argv = ["exp-check", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    gap = report["tasks"][0]["residuals"]["ode_sup"]
    assert 0.0 < gap <= loops._ODE_TOL
    # a real verification failure: the same gap against a tolerance below it
    monkeypatch.setattr(loops, "_ODE_TOL", gap / 2)
    assert cli.main(argv) == 1
    assert "[FAIL] exp-ode-check" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (failed,) = report["tasks"]
    assert failed["status"] == "fail"
    assert failed["residuals"]["ode_sup"] == gap
    assert json.loads((tmp_path / "out" / "exp_check.json").read_text()) == {
        "alpha": 1.0, "time": 1.0, "rotation": 1.0, "pass": False}


def test_exp_check_refuses_an_aliased_element(tmp_path, capsys):
    # modes +-32 and +-40 alias on 64 samples, where the ODE check's Fourier
    # step map folds them mod N but the Magnus product reads X exactly; the
    # grid resolves modes below N/4 only
    element = {"factors": [{"generator": {"basis": 0}, "profile": "fourier",
                            "parameters": {"coefficients": [
                                [k, 0.3, 0.0] for k in (32, -32, 40, -40)]}}]}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "algebra": {"family": "su2"}, "grid_samples": 64,
        "tasks": [FULL_TASKS[6], {"task": "exp-ode-check", "element": element,
                                  "out": "aliased"}]}))
    rc = cli.main(["exp-check", "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "/tasks/1/element" in err and "above mode N/4" in err
    assert not (tmp_path / "out").exists()


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
    # the spec keeps its LinePath: a second run of the scenario builds none
    cli.run_scenario(scenario, out_dir=str(tmp_path),
                     task_filter=("entropy-profile", "bekenstein"))
    assert len(built) == 1


def test_circle_loop_built_once_per_scenario(tmp_path, monkeypatch):
    built = []
    make = loops.loop_from_factors
    monkeypatch.setattr(loops, "loop_from_factors",
                        lambda *args: built.append(args) or make(*args))
    scenario = cli.validate_config(scenario_text(tasks=[
        {"task": "hs-defect", "loop": "circle"},
        {"task": "hs-defect", "loop": "circle", "window": 16, "out": "w16"}]))
    assert cli.run_scenario(scenario, out_dir=str(tmp_path)).passed
    assert len(built) == 1
    assert json.loads((tmp_path / "w16.json").read_text())["window"] == 16


@pytest.mark.parametrize("argv, ran", [
    (["verify"], ["fock-verify"]),
    (["entropy-profile"], ["entropy-profile", "bekenstein"]),
    (["alcove"], ["alcove"]),
    (["hs-defect"], ["hs-defect"]),
    (["soliton", "classify"], ["soliton-classify"]),
    (["exp-check"], ["exp-ode-check"]),
])
def test_each_subcommand_runs_its_task_types(argv, ran, tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(scenario_text(tasks=FULL_TASKS))
    out = tmp_path / "out"
    assert cli.main([*argv, "--config", str(config), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [t["task"] for t in report["tasks"]] == [t["task"] for t in FULL_TASKS]
    assert [t["task"] for t in report["tasks"] if t["status"] != "skipped"] == ran


def test_defaults_are_the_library_s():
    s = cli.validate_config(scenario_text(tasks=[{"task": "fock-verify"}]))
    assert s.grid_samples == loops.DEFAULT_SAMPLES
    assert s.tolerances == {"quadrature": quadrature.DEFAULT_TOL,
                            "identity": fock.DEFAULT_IDENTITY_TOL,
                            "fd_relative": entropy.DEFAULT_FD_TOLERANCE}
    (task,) = s.tasks
    assert task["mode_range"] == fock.DEFAULT_MODE_RANGE
    assert task["tolerance"] == fock.DEFAULT_IDENTITY_TOL
    # and the library's signatures take the same named values
    for f, param, want in [
            (loops.loop_from_factors, "n_samples", loops.DEFAULT_SAMPLES),
            (loops.semidirect_exp, "n_samples", loops.DEFAULT_SAMPLES),
            (quadrature.panel_partition, "tol", quadrature.DEFAULT_TOL),
            (entropy.qnec_profile, "tol", quadrature.DEFAULT_TOL),
            (entropy.qnec_profile, "fd_tolerance", entropy.DEFAULT_FD_TOLERANCE),
            (fock.identity_reports, "tol", fock.DEFAULT_IDENTITY_TOL),
            (fock.identity_reports, "mode_range", fock.DEFAULT_MODE_RANGE)]:
        assert inspect.signature(f).parameters[param].default == want, f.__name__


def test_unreachable_charge_refused_at_once():
    # no su2 state below cutoff 10^6 has charge 10^6, and the window is
    # refused by the mask width before any count
    task = {"task": "fock-verify", "cutoff": 10 ** 6, "charge": 10 ** 6}
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="64-bit mask") as err:
        cli.validate_config(scenario_text(tasks=[task]))
    assert time.perf_counter() - start < 0.25
    assert err.value.pointer == "/tasks/0/cutoff"


def test_reachable_charge_past_the_mask_refused_at_once():
    # charge 100 is reachable at these cutoffs: the window is refused by the
    # mask width before the space is counted
    for cutoff in (10 ** 4, 10 ** 6):
        task = {"task": "fock-verify", "cutoff": cutoff, "charge": 100}
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="64-bit mask") as err:
            cli.validate_config(scenario_text(tasks=[task]))
        assert time.perf_counter() - start < 0.25
        assert err.value.pointer == "/tasks/0/cutoff"


def test_alcove_task_scans_each_level_once(tmp_path, monkeypatch):
    """The table and its bounds read one scan of each level's alcove."""
    from loopnet import affine_data

    scanned = []
    scan = affine_data._scan

    def counting_scan(algebra, data):
        scanned.append(data.level)
        return scan(algebra, data)

    monkeypatch.setattr(affine_data, "_scan", counting_scan)
    scenario = cli.validate_config(json.dumps(
        {"algebra": {"family": "su3"},
         "tasks": [{"task": "alcove", "levels": [1, 3, 5]}]}))
    report = cli.run_scenario(scenario, out_dir=str(tmp_path))
    assert report.passed
    assert scanned == [1, 3, 5]
    lines = (tmp_path / "alcove.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 + 10 + 21


def _casimir_by_fraction_gram(coords, n):
    """<lambda, lambda + 2 rho> summed as Fractions of the Gram matrix
    ((min(i, j) n - i j) / n) of the A_{n-1} fundamental weights."""
    rank = n - 1
    gram = [[Fraction(min(i, j) * n - i * j, n) for j in range(1, rank + 1)]
            for i in range(1, rank + 1)]
    shifted = [a + 2 for a in coords]
    return sum(coords[i] * gram[i][j] * shifted[j]
               for i in range(rank) for j in range(rank))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_alcove_csv_is_the_per_weight_table(tmp_path, n):
    """The alcove task's CSV, byte for byte, as the Fractions of the
    per-weight route print: the Casimir, h as the Casimir over 2(l + g)
    and c, for every weight with coordinate sum at most the level."""
    levels = list(range(1, 9))
    scenario = cli.validate_config(json.dumps(
        {"algebra": {"family": f"su{n}"},
         "tasks": [{"task": "alcove", "levels": levels}]}))
    assert cli.run_scenario(scenario, out_dir=str(tmp_path)).passed
    lines = ["family,level,weight,casimir,h,c"]
    for level in levels:
        charge = Fraction(level * (n * n - 1), level + n)
        for coords in itertools.product(range(level + 1), repeat=n - 1):
            if sum(coords) <= level:
                cas = _casimir_by_fraction_gram(coords, n)
                lines.append(f"A{n - 1},{level},{' '.join(map(str, coords))},"
                             f"{cas},{cas / (2 * (level + n))},{charge}")
    assert (tmp_path / "alcove.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


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
    assert [row["r"] for row in rows] == [0.5, 1.0]
    for row in rows:
        assert list(row) == ["bound", "holds", "interval_entropy", "r", "ratio"]
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


@pytest.mark.parametrize("argv,pointer", [
    (["alcove", "--algebra", "su3", "--level", "0"], "/algebra/level"),
    (["verify", "--algebra", "su2", "--identities", ""],
     "/tasks/0/identities/0"),
    (["alcove", "--algebra", "su200", "--level", "1"], "/algebra/family"),
], ids=["level-0", "identities-empty", "family-su200"])
def test_config_free_flags_passed_through(argv, pointer, tmp_path, capsys):
    """A given flag reaches validation as given, so a bad value is refused
    at its pointer instead of falling back to a default."""
    rc = cli.main(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"configuration error: {pointer}:" in err
    assert "Traceback" not in err
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


def test_charged_fock_task_defaults_to_what_its_sector_runs(tmp_path, capsys):
    # a charged sector holds no vacuum, so its default list leaves out the
    # vacuum cocycle, which it would refuse if asked for
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "algebra": {"family": "su2", "level": 1},
        "tasks": [{"task": "fock-verify", "cutoff": 4, "charge": 1}]}))
    [task] = cli.validate_config(config.read_text()).tasks
    assert task["identities"] == fock.IDENTITIES[:-1]
    rc = cli.main(["verify", "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    reports = json.loads((tmp_path / "out" / "fock_verify.json").read_text())
    assert tuple(r["identity"] for r in reports) == fock.IDENTITIES[:-1]


@pytest.mark.parametrize("n, cutoff, vacuum_only", [
    (3, 4, ["affine", "commutator", "virasoro"]), (2, 6, [])],
    ids=["su3-N4", "su2-N6"])
def test_vacuum_only_verdicts_are_named(tmp_path, capsys, n, cutoff, vacuum_only):
    # on su3/4 at charge 0, two modes |m| = 2 raise the energy by 4, so the
    # affine, commutator and virasoro blocks are the vacuum alone
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({
        "algebra": {"family": f"su{n}", "level": 1},
        "tasks": [{"task": "fock-verify", "cutoff": cutoff, "charge": 0}]}))
    rc = cli.main(["verify", "--config", str(config),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    [line] = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("[PASS] fock-verify")]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    [task] = report["tasks"]
    assert task["vacuum_only"] == vacuum_only
    reports = json.loads((tmp_path / "out" / "fock_verify.json").read_text())
    assert [r["identity"] for r in reports
            if r["columns"] == 1 and r["identity"] != "vacuum-cocycle"] == vacuum_only
    if vacuum_only:
        assert line.endswith(" vacuum-only=" + ",".join(vacuum_only))
    else:
        assert "vacuum-only" not in line


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
# entries 0.7071 and -0.70710678 differ by 6.8e-6: not anti-hermitian to 1e-12
_NEAR_ANTIHERMITIAN = {"matrix": [[[0.0, 0.0], [0.7071, 0.0]],
                                  [[-0.70710678, 0.0], [0.0, 0.0]]]}
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
    ("verify", "/tasks/0", {"task": "fock-verify", "charge": 1,
                            "identities": ["rotation", "vacuum-cocycle"]},
     "/tasks/0/identities"),
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
    ("exp-check", "/tasks/6/time", 1e7, "/tasks/6/time"),
    ("exp-check", "/tasks/6/alpha", 1e6, "/tasks/6/time"),
    ("entropy-profile", "/loops/0/factors/0/generator", _HERMITIAN,
     "/loops/0/factors/0/generator"),
    ("entropy-profile", "/loops/0/factors/0/generator", _NEAR_ANTIHERMITIAN,
     "/loops/0/factors/0/generator"),
    ("verify", "/algebra/family", "su200", "/algebra/family"),
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
    ("entropy-profile", "/grid_samples", 6, "/grid_samples"),
    ("entropy-profile", "/grid_samples", 2, "/grid_samples"),
    ("entropy-profile", "/grid_samples", -8, "/grid_samples"),
    ("entropy-profile", "/grid_samples", 2 ** 40, "/grid_samples"),
    ("entropy-profile", "/loops/0/factors/0/parameters/width", 0,
     "/loops/0/factors/0/parameters/width"),
    ("entropy-profile", "/loops/0/factors/0/parameters/width", -1,
     "/loops/0/factors/0/parameters/width"),
    ("hs-defect", "/loops/1/factors/0/parameters/width", 0,
     "/loops/1/factors/0/parameters/width"),
    ("hs-defect", "/loops/1/factors/0/parameters/width", -1,
     "/loops/1/factors/0/parameters/width"),
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


def _accepts(raw) -> bool:
    try:
        cli.validate_config(json.dumps(raw))
    except ConfigError:
        return False
    return True


def _constructs(window, width) -> bool:
    try:
        window(0.0, width, 1.0)
    except NumericError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(0, entropy.GaussianWindow), (1, entropy.PolyBump)]),
       st.one_of(st.sampled_from([0, 0.0, -0.0, 1e-300, -1e-300, 1, -1]),
                 st.floats(-2.0, 2.0)))
def test_window_width_rule_is_the_window_s(loop, width):
    """The line loop's gaussian and the circle loop's bump accept a width
    exactly when the window class does."""
    index, window = loop
    raw = json.loads(scenario_text())
    raw["loops"][index]["factors"][0]["parameters"]["width"] = width
    assert _accepts(raw) == _constructs(window, width)


@settings(max_examples=150, deadline=None)
@given(st.integers(-8, 300))
@example(loops.MAX_SAMPLES)
@example(2 * loops.MAX_SAMPLES)
@example(2 ** 40)
def test_grid_samples_rule_is_the_grid_loop_s(samples):
    """grid_samples is accepted exactly when a GridLoop takes that many
    samples: a power of two >= 4 and at most loops.MAX_SAMPLES."""
    raw = json.loads(scenario_text())
    raw["grid_samples"] = samples
    try:
        loops._check_sample_count(samples)
        rule = True
    except (NumericError, CapacityError):
        rule = False
    assert rule == (4 <= samples <= loops.MAX_SAMPLES
                    and samples & (samples - 1) == 0)
    assert _accepts(raw) == rule


def test_exp_check_time_past_the_step_bound_is_refused_at_once():
    # time 1e7 would plan 2.9e8 Magnus steps and 1e10 steps of the RK4 check
    raw = _full_raw()
    _put(raw, "/tasks/6/time", 1e7)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="MAX_STEPS") as err:
        cli.validate_config(json.dumps(raw))
    assert time.perf_counter() - start < 1.0
    assert err.value.pointer == "/tasks/6/time"
