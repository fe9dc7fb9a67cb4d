"""The library seams that the benchmark's traced mode and its warm-up call.

``perfbench/sweep.py`` times one objective evaluation per family kind
through library internals, and every workload warms up through the public
API at zero effort.  Neither runs in the benchmark's own tests, so a
deleted or renamed symbol that only they read would pass the rest of the
suite and break ``perfbench/run.py --trace 1``.  These tests run both, as
cheaply as the benchmark runs them, and check that the sweep's decode is
the map a solve evaluates from its default start.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402

harness.load_library()

import sweep  # noqa: E402
import workloads  # noqa: E402
from resourcekit import affinity, feasible, indicators, states  # noqa: E402


@pytest.mark.parametrize("kind", sorted(sweep.OBJECTIVE_FAMILIES))
def test_sweep_objective_evaluates(kind):
    assert math.isfinite(sweep._objective(kind)())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_warm_up_runs(name):
    workloads.warm_up(workloads.build(name, 1))


@pytest.mark.parametrize("kind", sorted(sweep.OBJECTIVE_FAMILIES))
def test_sweep_decodes_a_density_matrix(kind):
    # the sweep times sigma of a random theta in the default start's layout
    dims, k = sweep.OBJECTIVE_FAMILIES[kind]
    family = feasible.build_family(kind, dims, k)
    theta = np.random.default_rng(7).standard_normal(family.param_len)
    sigma = indicators._decode_raw(family, theta)
    assert sigma.shape == (family.d, family.d)
    assert np.abs(sigma - sigma.conj().T).max() <= 1e-14
    assert abs(np.trace(sigma) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(sigma).min() >= -1e-14


@pytest.mark.parametrize("kind", sorted(sweep.OBJECTIVE_FAMILIES))
def test_sweep_layout_is_the_solve_start(kind):
    # at no effort a solve scores its default start, which is the sigma
    # that the sweep's layout decodes the start vector to
    dims, k = sweep.OBJECTIVE_FAMILIES[kind]
    family = feasible.build_family(kind, dims, k)
    rho = states.random_mixed(list(dims), family.d, seed=[7, family.d])
    start = indicators._decode_raw(family, family._default.start[0].view(float))
    res = indicators.max_affinity(rho, family, 0.5, seed=0, max_iter=0)
    assert np.abs(res.witness.data - start).max() <= 1e-12
    assert res.affinity == pytest.approx(
        affinity.alpha_affinity(rho, states.validate(start, dims), 0.5), abs=1e-12)
