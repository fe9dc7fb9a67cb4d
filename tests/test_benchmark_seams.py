"""The library seams that the benchmark's traced mode and its warm-up call.

``perfbench/sweep.py`` times one objective evaluation per family kind
through library internals, and every workload warms up through the public
API at zero effort.  Neither runs in the benchmark's own tests, so a
deleted or renamed symbol that only they read would pass the rest of the
suite and break ``perfbench/run.py --trace 1``.  These tests run both, as
cheaply as the benchmark runs them.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402

harness.load_library()

import sweep  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("kind", sorted(sweep.OBJECTIVE_FAMILIES))
def test_sweep_objective_evaluates(kind):
    assert math.isfinite(sweep._objective(kind)())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_warm_up_runs(name):
    workloads.warm_up(workloads.build(name, 1))
