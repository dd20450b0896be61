"""Smoke test of what the benchmark worker needs from the package.

``perfbench/worker.py`` reaches into loopnet by name (``identity_reports``
with ``seed=``, ``fock._count_states``, the public functions that the tracing
wrappers replace), so a library change can break the benchmark without
breaking any other test.  Each case runs one worker process the way
``perfbench/run.py`` does and reads its result file.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


def _run_worker(tmp_path, workload, *flags):
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", "3",
           "--out-dir", str(tmp_path / "out"), "--result", str(result),
           *flags, "--spawned", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


# exact work counters of the traced seed-3 runs, so that a change of the
# work done shows here and not only when two runs of one tree are compared;
# None pins a counter that is never recorded: the identity suites build no
# current, and their one operator operation is the adjoint of each hop
COUNTERS = {
    "operator_suites": {"fock.states": 629, "fock.current.calls": None,
                        "fock.current.nnz": None, "fock.sugawara.calls": 7,
                        "fock.sugawara.nnz": 13_098,
                        "fock.operator_algebra.calls": 39},
    "entropy_profiles": {"entropy.integrand_calls": 42,
                         "entropy.integrand_points": 47_386},
    "oneshot_sweep": {"fock.pi_element.nnz": 42_480,
                      "loops.field_evaluations": 1_068, "lie.eigh_calls": 209},
}


@pytest.mark.parametrize("workload", ["operator_suites", "entropy_profiles",
                                      "oneshot_sweep"])
def test_traced_workload_passes_its_checks(tmp_path, workload):
    result = _run_worker(tmp_path, workload, "--trace")
    assert result["checks_total"] > 0
    assert result["checks_failed"] == 0, result["worst"]
    assert result["layers"]
    counters = COUNTERS.get(workload, {})
    assert {name: result["layers"].get(name) for name in counters} == counters


def test_oneshot_sweep_sets_up(tmp_path):
    result = _run_worker(tmp_path, "oneshot_sweep", "--setup-only")
    assert result["sizes"]
    assert "checks_failed" not in result   # a set-up-only run checks nothing
