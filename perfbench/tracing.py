"""Span recorder and the wrappers that trace loopnet from outside the package.

``install(recorder)`` replaces the public functions of every loopnet module
(and a few methods) by wrappers that open a span around the call and count
the work in its arguments or result.  Nothing inside the package changes:
the wrappers are installed only in a traced worker process, after its inputs
are ready, and the untraced worker never imports this module.

A span is (name, start, end, parent, run id).  Spans are kept in memory and
written out once at the end.  The layer of a span is the part of its name
before the first dot, which is the loopnet module it belongs to.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("lie", "loops", "fock", "affine_data", "entropy", "quadrature",
          "soliton", "cli")

# Span names that group several entry points into one measured unit.
_GROUPED = {
    "entropy.entropy_right": "entropy.functionals",
    "entropy.entropy_left": "entropy.functionals",
    "entropy.entropy_interval": "entropy.functionals",
    "entropy.total_energy": "entropy.functionals",
    "fock.commutator": "fock.operator_algebra",
}


class Recorder:
    """In-memory spans and exact counters of one traced worker."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.run_id = -1
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.open_names: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.open_names[name] += 1
        self.counts[name + ".calls"] += 1
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.open_names[self.names[idx]] -= 1

    def active(self, name: str) -> bool:
        return self.open_names[name] > 0

    def self_times(self) -> dict[str, float]:
        """Span time minus the time of its direct children, summed per name."""
        out: defaultdict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            out[name] += dur
            parent = self.parents[i]
            if parent >= 0:
                out[self.names[parent]] -= dur
        return dict(out)

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [[index[n], s, e, p, r] for n, s, e, p, r in zip(
            self.names, self.starts, self.ends, self.parents, self.runs)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "names": table, "spans": spans,
                       "counts": dict(self.counts)}, fh)


def _nnz_hook(name):
    def hook(rec, result, args, kwargs):
        nnz = int(result.matrix.nnz)
        rec.counts[name + ".nnz"] += nnz
        if rec.active("fock.vacuum_cocycle_check"):
            rec.counts["fock.vacuum_nnz"] += nnz
    return hook


def _operator_hook(rec, result, args, kwargs):
    if rec.active("fock.vacuum_cocycle_check"):
        rec.counts["fock.vacuum_nnz"] += int(result.matrix.nnz)


def _build_fock_hook(rec, result, args, kwargs):
    rec.counts["fock.states"] += result.dim


def _adjoint_hook(rec, result, args, kwargs):
    space = args[0] if args else kwargs["space"]
    rec.counts["fock.adjoint_action_check.dim"] = max(
        rec.counts["fock.adjoint_action_check.dim"], space.dim)


def _alcove_hook(rec, result, args, kwargs):
    rec.counts["affine_data.weights"] += len(result)


def _qnec_hook(rec, result, args, kwargs):
    rec.counts["entropy.grid_points"] += len(result.grid)


def _current_square_hook(rec, result, args, kwargs):
    points = len(result)
    rec.counts["entropy.integrand_points"] += points
    if rec.active("entropy.qnec_profile"):
        rec.counts["entropy.qnec_points"] += points


def _run_scenario_hook(rec, result, args, kwargs):
    for task in result.tasks:
        if task["status"] != "skipped":
            rec.counts["cli.tasks"] += 1
        # report.json carries wall-clock timings and is left out on purpose:
        # the counter must repeat bit for bit.
        for path in task.get("artifacts", []):
            rec.counts["cli.artifact_bytes"] += os.path.getsize(path)


_HOOKS = {
    "fock.current": _nnz_hook("fock.current"),
    "fock.sugawara": _nnz_hook("fock.sugawara"),
    "fock.pi_element": _nnz_hook("fock.pi_element"),
    "fock.build_fock": _build_fock_hook,
    "fock.adjoint_action_check": _adjoint_hook,
    "affine_data.alcove": _alcove_hook,
    "entropy.qnec_profile": _qnec_hook,
    "cli.run_scenario": _run_scenario_hook,
}


def _span(rec: Recorder, name: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, result, args, kwargs)
        return result

    return wrapper


def _quadrature_span(rec: Recorder, fn):
    """Span around the quadrature that also counts its integrand calls.

    Every panel evaluates the integrand twice (10- and 21-point rules), so
    panels = integrand calls / 2.
    """
    def counted(f):
        def integrand(us):
            rec.counts["quadrature.integrand_calls"] += 1
            return f(us)
        return integrand

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        idx = rec.open("quadrature.adaptive_gauss_legendre")
        try:
            return fn(counted(f), *args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _counter(rec: Recorder, calls: str, points: str | None, fn):
    """Count calls (and points of the last positional argument), no span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[calls] += 1
        if points is not None:
            rec.counts[points] += int(np.size(args[-1]))
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap loopnet's public functions and the traced methods with spans."""
    import loopnet
    from loopnet import (affine_data, cli, entropy, fock, lie, loops,
                         quadrature, soliton)

    modules = {"lie": lie, "loops": loops, "fock": fock,
               "affine_data": affine_data, "entropy": entropy,
               "quadrature": quadrature, "soliton": soliton, "cli": cli}
    namespaces = [loopnet, *modules.values()]
    replaced = {}
    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = _GROUPED.get(f"{layer}.{attr}", f"{layer}.{attr}")
            if name == "quadrature.adaptive_gauss_legendre":
                replaced[fn] = _quadrature_span(rec, fn)
            else:
                replaced[fn] = _span(rec, name, fn, _HOOKS.get(name))
    # modules bind each other's functions by name (``from .x import f``),
    # so every namespace holding the original object gets the wrapper
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(ns, attr, replaced[value])

    # ``-`` and ``commutator`` are built from the other operations; only the
    # primitive ones count the nnz they build, so no matrix is counted twice
    for op in ("__matmul__", "__add__", "__sub__", "__rmul__", "adjoint"):
        setattr(fock.FockOperator, op,
                _span(rec, "fock.operator_algebra",
                      getattr(fock.FockOperator, op),
                      None if op == "__sub__" else _operator_hook))
    entropy.LinePath.current_square = _span(
        rec, "entropy.current_square", entropy.LinePath.current_square,
        _current_square_hook)
    entropy.LinePath.__init__ = _span(
        rec, "entropy.LinePath", entropy.LinePath.__init__)
    soliton.SolitonPath.__init__ = _counter(
        rec, "soliton.paths", None, soliton.SolitonPath.__init__)
    loops.ScalarField.evaluate = _counter(
        rec, "loops.field_evaluations", "loops.field_points",
        loops.ScalarField.evaluate)
    np.linalg.eigh = _counter(rec, "lie.eigh_calls", None, np.linalg.eigh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Self time of every span name and layer, every counter, and ratios.

    The caller picks the names BENCHMARK.json lists; a name that never
    occurred reads 0.
    """
    selfs = rec.self_times()
    c = rec.counts
    out: dict[str, float] = dict(c)
    out.update({f"{name}.self_s": v for name, v in selfs.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                     if k.split(".", 1)[0] == layer)
    out["bench.layer_self_sum_s"] = sum(out[f"{layer}.self_s"]
                                        for layer in LAYERS)
    out["entropy.integrand_calls"] = c["entropy.current_square.calls"]
    out["entropy.points_per_grid_point"] = _ratio(
        c["entropy.qnec_points"], c["entropy.grid_points"])
    out["fock.nnz_per_vacuum_element"] = _ratio(
        c["fock.vacuum_nnz"], c["fock.vacuum_cocycle_check.calls"])
    out["quadrature.calls"] = c["quadrature.adaptive_gauss_legendre.calls"]
    out["quadrature.panels"] = c["quadrature.integrand_calls"] // 2
    out["soliton.jump_calls"] = c["soliton.jump.calls"]
    return out
