"""One workload process: set up from the seed, run every item, write a result.

    python3 perfbench/worker.py --workload W --seed N --out-dir DIR \
        --result FILE --spawned T [--trace] [--setup-only]

``run.py`` starts this script once per repetition, so every repetition pays
for interpreter start, imports and input generation the way a command-line
run does, and no cache survives from one repetition to the next.  The
result file holds the set-up time, from ``--spawned`` (the parent's
``time.perf_counter`` just before the spawn; it is CLOCK_MONOTONIC, so the
two processes share it) to inputs ready, and the wall time of the items,
each raw and in seconds at the reference speed of ``speed.py``, the oracle
counts and the peak resident memory.
"""

from __future__ import annotations

# The set-up probe starts before any other import, since imports are most
# of set-up; ``speed`` needs only the standard library.
import speed

SETUP_PROBE = speed.SpeedProbe(speed.python_kernel, speed.PYTHON_REFERENCE_S,
                               speed.SETUP_INTERVAL_S)
SETUP_PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import loopnet
    if Path(loopnet.__file__).resolve().parent != ROOT / "src" / "loopnet":
        print(f"imported loopnet from {loopnet.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    import numpy
    import scipy

    from workloads import WORKLOADS, Checks

    setup, list_items, sizes = WORKLOADS[args.workload]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inputs = setup(args.seed, out)
    items = list_items(inputs)
    ready = time.perf_counter()
    SETUP_PROBE.stop()

    result = {"raw_setup_s": ready - args.spawned,
              "setup_s": SETUP_PROBE.normalised(args.spawned, ready),
              "sizes": sizes(inputs),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not args.setup_only:
        probe = speed.SpeedProbe(speed.mixed_kernel, speed.MIXED_REFERENCE_S,
                                 speed.WORK_INTERVAL_S)
        probe.start()
        recorder = None
        if args.trace:
            import tracing
            recorder = tracing.Recorder()
            tracing.install(recorder)
        checks = Checks()
        item_s = []
        for run_id, (name, item) in enumerate(items):
            if recorder is not None:
                recorder.run_id = run_id
            started = time.perf_counter()
            try:
                item(checks)
            except Exception:   # an item that raised is a failed check
                print(f"item {name} raised:", file=sys.stderr)
                traceback.print_exc()
                checks.total += 1
                checks.failed += 1
            item_s.append(time.perf_counter() - started)
        end = time.perf_counter()
        probe.stop()
        result["raw_wall_s"] = end - ready
        result["wall_s"] = probe.normalised(probe.ends[0], end)
        result["kernel_s"] = probe.median_kernel_s()
        result["samples"] = len(probe.times)
        result["item_s"] = item_s
        result["checks_total"] = checks.total
        result["checks_failed"] = checks.failed
        result["worst"] = checks.worst
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            result["layers"] = tracing.layer_metrics(recorder)
            recorder.dump(out / "spans.json")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
