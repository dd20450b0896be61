import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from loopnet import entropy, lie


@pytest.fixture(scope="session")
def su2():
    return lie.build_su(2)


@pytest.fixture(scope="session")
def su3():
    return lie.build_su(3)


@pytest.fixture()
def eigh_calls(monkeypatch):
    """A list that grows by one at every np.linalg.eigh call of the test."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
    return calls


def random_antihermitian(algebra, rng, scale=1.0):
    """Random real-form element as a combination of the orthonormal basis."""
    coeff = rng.normal(size=algebra.dimension)
    coeff *= scale / np.linalg.norm(coeff)
    return np.einsum("i,iab->ab", coeff, algebra.basis)


def random_line_path(algebra, rng, max_factors=3, level=1):
    """Random product path with gaussian or polynomial windows."""
    n_factors = int(rng.integers(1, max_factors + 1))
    factors = []
    for _ in range(n_factors):
        gen = random_antihermitian(algebra, rng, scale=rng.uniform(0.5, 1.6))
        center = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.3, 1.5)
        amp = rng.uniform(-1.4, 1.4)
        if rng.random() < 0.5:
            prof = entropy.GaussianWindow(center, width, amp)
        else:
            prof = entropy.PolyBump(center, width, amp)
        factors.append((gen, prof))
    return entropy.LinePath(algebra, factors, level=level)


@functools.cache
def bench_workloads():
    """``perfbench/workloads.py``, loaded once, for tests on the benchmark's
    own inputs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
