"""Refusal paths of the library's public entry points, one case each."""

import numpy as np
import pytest

import resourcekit as rk
from resourcekit.errors import (
    ChannelInvalid,
    DimensionMismatch,
    EmptySet,
    NonPositiveEntry,
)
from resourcekit.feasible import enumerate_partitions
from resourcekit.indicators import max_affinity


def _qubit():
    return rk.random_mixed([2], 2, seed=1)


def _qutrit():
    return rk.random_mixed([3], 3, seed=2)


CASES = {
    "power-mean-shape": (DimensionMismatch, lambda: rk.power_mean_bound([1.0, 2.0], [1.0], 2.0)),
    "power-mean-sign": (NonPositiveEntry,
                        lambda: rk.power_mean_bound([1.0, -2.0], [0.5, 0.5], 2.0)),
    "channel-pair-dims": (DimensionMismatch, lambda: rk.data_processing_sum(
        _qubit(), _qutrit(), rk.identity_channel(2), 0.5)),
    "kraus-shapes": (ChannelInvalid, lambda: rk.kraus_channel([np.eye(2), np.eye(3)])),
    "monomial-no-outcome": (ChannelInvalid, lambda: rk.make_monomial_incoherent(3, 0, 1)),
    "random-channel-no-outcome": (ChannelInvalid, lambda: rk.random_channel(3, 0, 1)),
    "local-product-no-site": (ChannelInvalid, lambda: rk.make_local_product([])),
    "embed-pure-dims": (DimensionMismatch,
                        lambda: rk.embed_pure(rk.build_embedding(2), rk.random_pure([3], 3))),
    "partitions-of-nothing": (EmptySet, lambda: enumerate_partitions(0, exactly_k_parts=1)),
    "family-kind": (ValueError, lambda: rk.build_family("coherent", (2, 2), 1)),
    "max-affinity-dims": (DimensionMismatch, lambda: max_affinity(
        _qubit(), rk.build_family("multilevel", (3,), 2), 0.5, seed=0)),
    "variant": (ValueError, lambda: rk.multilevel_coherence(_qutrit(), 2, 0.5, "mean", seed=0)),
    "label": (ValueError, lambda: rk.compute_indicator(_qutrit(), "purity", 2, 0.5, seed=0)),
    "random-mixed-rank-high": (DimensionMismatch, lambda: rk.random_mixed([3], 4, 1)),
    "random-mixed-rank-zero": (DimensionMismatch, lambda: rk.random_mixed([3], 0, 1)),
}


@pytest.mark.parametrize("case", CASES)
def test_each_refusal_raises_its_error(case):
    error, call = CASES[case]
    with pytest.raises(error):
        call()
