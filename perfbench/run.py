"""loopnet benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --determinism

Run from the root of a checkout; the package is imported from ``src/``.

With ``--trace 0`` the run first starts one discarded worker (it compiles
the bytecode), then cycles of five set-up-only workers and one whole
repetition of the workload, each in a fresh process, for as long as another
cycle still fits in ``--seconds`` (at least one).  It reports the end-to-end
metrics of BENCHMARK.json: medians over the repetitions, and for ``setup_s``
over every worker that set up.  Both are in seconds at the reference speed
of ``speed.py``, which takes out the host's slow spells; the raw times are
kept in the record.

With ``--trace 1`` it runs one untraced and one traced repetition of the same
seed and reports the per-layer metrics of BENCHMARK.json: self times and
exact counters from the traced worker, plus the traced and untraced raw wall
times and the tracing overhead, the difference of their ``wall_s``.

``--determinism`` runs the traced worker twice on the seed and once on the
next seed, and checks that every exact counter repeats bit for bit and that
both seeds pass every oracle.

The last line of standard output is the result object; a provenance line
precedes it, and the full record (with the span file of a traced run) is
kept under ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RESULTS = OUT / "results"
WORKLOADS = ("operator_suites", "entropy_profiles", "oneshot_sweep")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0     # every worker must end within this much of the start
BLAS_THREADS = 1        # one Python thread and one BLAS thread: steadier than nproc


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts worker processes one after another and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.scratch = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.env = _worker_env()
        self.count = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def worker(self, seed: int | None = None, trace: bool = False,
               setup_only: bool = False) -> dict:
        seed = self.seed if seed is None else seed
        self.count += 1
        work = self.scratch / str(self.count)
        result = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(seed),
               "--out-dir", str(work), "--result", str(result)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.perf_counter()
        cmd += ["--spawned", repr(spawned)]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL,
                              timeout=max(1.0, self.deadline - spawned))
        if proc.returncode != 0:
            raise RuntimeError(f"{self.workload} worker exited with code "
                               f"{proc.returncode}")
        out = json.loads(result.read_text())
        if trace:
            RESULTS.mkdir(parents=True, exist_ok=True)
            shutil.move(work / "spans.json",
                        RESULTS / f"spans-{self.workload}-{seed}.json")
        shutil.rmtree(work)
        return out

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _provenance(runner: Runner, rep: dict, seconds: int, trace: int) -> dict:
    return {"git_sha": _git_sha(), **rep["versions"],
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "workload": runner.workload,
            "seed": runner.seed, "seconds": seconds, "trace": trace,
            "input_sizes": rep["sizes"]}


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _result(reps, values: dict, units: dict, consistent: bool) -> dict:
    return {
        "correct": consistent and all(r["checks_failed"] == 0 for r in reps),
        "attempted": sum(r["checks_total"] for r in reps),
        "failed": sum(r["checks_failed"] for r in reps),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _measure(runner: Runner, seconds: int, units: dict):
    start = time.perf_counter()
    runner.worker(setup_only=True)          # compiles bytecode; discarded
    setups, reps = [], []
    while True:
        cycle_start = time.perf_counter()
        setups += [runner.worker(setup_only=True)
                   for _ in range(SETUP_PROBES)]
        reps.append(runner.worker())
        last = time.perf_counter() - cycle_start
        if time.perf_counter() - start + last > seconds:
            break
    setups += reps
    values = {"wall_s": statistics.median(r["wall_s"] for r in reps),
              "setup_s": statistics.median(r["setup_s"] for r in setups),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
              "checks_total": reps[0]["checks_total"]}
    same_checks = len({r["checks_total"] for r in reps}) == 1
    detail = {"setup_samples": [[r["setup_s"], r["raw_setup_s"]]
                                for r in setups],
              "reps": [{k: r[k] for k in ("wall_s", "raw_wall_s", "kernel_s",
                                          "samples", "item_s", "setup_s",
                                          "raw_setup_s", "peak_rss_mb",
                                          "checks_total", "checks_failed")}
                       for r in reps]}
    return _result(reps, values, units, same_checks), detail, reps[0]


def _traced(runner: Runner, units: dict):
    runner.worker(setup_only=True)          # compiles bytecode; discarded
    plain = runner.worker()
    traced = runner.worker(trace=True)
    values = dict.fromkeys(units, 0.0)
    values.update(traced["layers"])
    values.update(traced["worst"])
    # self times are raw seconds, so the two walls are raw as well; the
    # overhead is taken at the reference speed, like wall_s
    values["bench.untraced_wall_s"] = plain["raw_wall_s"]
    values["bench.traced_wall_s"] = traced["raw_wall_s"]
    values["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    within = values["bench.layer_self_sum_s"] <= traced["raw_wall_s"]
    detail = {name: {k: rep[k] for k in ("wall_s", "raw_wall_s", "kernel_s",
                                         "item_s", "setup_s")}
              for name, rep in (("untraced", plain), ("traced", traced))}
    return _result((plain, traced), values, units, within), detail, plain


def _exact(layers: dict, units: dict) -> dict:
    """Per-layer values that are counts, not times or floating residuals."""
    return {k: v for k, v in layers.items()
            if k in units and units[k] not in ("s", "abs")}


def _determinism(runner: Runner, units: dict) -> int:
    runner.worker(setup_only=True)
    first = runner.worker(trace=True)
    again = runner.worker(trace=True)
    other = runner.worker(seed=runner.seed + 1, trace=True)
    a, b = _exact(first["layers"], units), _exact(again["layers"], units)
    differ = sorted(k for k in a if a[k] != b[k])
    report = {"workload": runner.workload, "seed": runner.seed,
              "exact_counters": len(a), "differ": differ,
              "failed": [first["checks_failed"], again["checks_failed"],
                         other["checks_failed"]],
              "ok": not differ and first["checks_failed"] == 0
              and again["checks_failed"] == 0 and other["checks_failed"] == 0}
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--determinism", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "loopnet" / "__init__.py").is_file():
        print(f"no loopnet sources under {ROOT / 'src'}; run from the root "
              "of a loopnet checkout", file=sys.stderr)
        return 2
    specs = _metric_specs()
    runner = Runner(args.workload, args.seed)
    try:
        if args.determinism:
            return _determinism(runner, specs["per_layer"])
        if args.trace:
            result, detail, rep = _traced(runner, specs["per_layer"])
        else:
            result, detail, rep = _measure(runner, args.seconds,
                                           specs["end_to_end"])
    finally:
        runner.close()
    provenance = _provenance(runner, rep, args.seconds, args.trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "detail": detail,
                                  "result": result}, indent=1))
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
