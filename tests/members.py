"""Explicit random members of a family, for the tests that need one."""

from math import prod

import numpy as np

import resourcekit as rk
from resourcekit.feasible import _assemble_product


def random_members(kind, dims, k, seed):
    """(weight, pure state) pairs with weights summing to 1: two components
    per structure of the family's pool, with random amplitudes on the
    support (multilevel) or random factors on each part (the correlation
    kinds)."""
    rng, dims = np.random.default_rng(seed), tuple(dims)
    states = []
    for structure in 2 * rk.build_family(kind, dims, k).pool:
        if kind == "multilevel":
            amps = np.zeros(prod(dims), dtype=complex)
            amps[list(structure)] = rng.standard_normal(2 * len(structure)).view(complex)
        else:
            amps = _assemble_product(dims, structure, [
                rng.standard_normal(2 * prod(dims[i] for i in part)).view(complex)
                for part in structure])
        states.append(rk.pure_state(amps, dims))
    weights = rng.dirichlet(np.ones(len(states)))
    return [rk.WitnessComponent(float(w), psi) for w, psi in zip(weights, states)]


def mixture(comps, dims):
    """The density matrix of a list of (weight, pure state) pairs."""
    return rk.validate(sum(w * psi.projector().data for w, psi in comps), dims)
