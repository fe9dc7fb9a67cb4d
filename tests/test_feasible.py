import numpy as np
import pytest

import resourcekit as rk
from resourcekit.errors import BadLength, EmptySet, NTooLarge, WitnessEncodingError
from resourcekit.feasible import (
    WitnessComponent,
    decode_mixture,
    is_feasible_pure,
    structure_pool,
)

from oracles import partial_transpose


def test_coherent_rank_basics():
    assert rk.coherent_rank_pure(rk.basis_pure([4], 0)) == 1
    uniform = rk.pure_state([1, 1, 1])
    assert rk.coherent_rank_pure(uniform) == 3
    for i in range(10):
        # full support almost surely
        assert rk.coherent_rank_pure(rk.random_pure([4], seed=[1, i])) == 4


def test_enumerate_partitions_counts():
    two_parts = rk.enumerate_partitions(3, exactly_k_parts=2)
    assert set(two_parts.partitions) == {((0,), (1, 2)), ((0, 1), (2,)),
                                         ((0, 2), (1,))}
    capped = rk.enumerate_partitions(3, max_part_size=2)
    assert len(capped.partitions) == 4
    fine = rk.enumerate_partitions(4, exactly_k_parts=4)
    assert fine.partitions == (((0,), (1,), (2,), (3,)),)
    with pytest.raises(NTooLarge):
        rk.enumerate_partitions(7, exactly_k_parts=2)
    with pytest.raises(ValueError):
        rk.enumerate_partitions(3)


def test_build_family_multilevel_one_is_diagonal():
    fam = rk.build_family("multilevel", (3,), 1, m=3)
    theta = np.random.default_rng(0).standard_normal(fam.param_len)
    sigma = rk.decode(fam, theta)
    off = sigma.data - np.diag(np.diag(sigma.data))
    assert np.abs(off).max() <= 1e-12


def test_build_family_separable_two_qubits():
    fam = rk.build_family("separable", (2, 2), 2, m=4)
    assert all(s == ((0,), (1,)) for s in fam.structures)


def test_structure_pool_counts_and_cycling():
    assert len(structure_pool("multilevel", (4,), 2)) == 6
    assert len(structure_pool("separable", (2, 2, 2), 2)) == 3
    assert len(structure_pool("producible", (2, 2, 2), 2)) == 4
    pool = structure_pool("producible", (2, 2, 2), 2)
    fam = rk.build_family("producible", (2, 2, 2), 2, m=2 * len(pool))
    assert list(fam.structures) == pool + pool


def test_family_empty_set():
    with pytest.raises(EmptySet):
        rk.build_family("separable", (2, 2), 3)
    with pytest.raises(EmptySet):
        rk.build_family("multilevel", (2,), 5)


def test_decode_zero_theta_gives_maximally_mixed():
    fam = rk.build_family("multilevel", (2,), 1, m=2)
    sigma = rk.decode(fam, np.zeros(fam.param_len))
    assert np.abs(sigma.data - np.eye(2) / 2).max() <= 1e-12


def test_decode_components_respect_support():
    fam = rk.build_family("multilevel", (4,), 2, m=8)
    theta = np.random.default_rng(1).standard_normal(fam.param_len)
    for comp in decode_mixture(fam, theta):
        assert rk.coherent_rank_pure(comp.state) <= 2
        assert set(np.flatnonzero(np.abs(comp.state.amps) > 0)) <= set(comp.structure)


def test_decode_separable_members_are_ppt():
    fam = rk.build_family("separable", (2, 2), 2, m=6)
    for i in range(10):
        theta = np.random.default_rng([2, i]).standard_normal(fam.param_len)
        sigma = rk.decode(fam, theta)
        pt = partial_transpose(sigma.data, [2, 2], 1)
        assert np.linalg.eigvalsh(pt).min() >= -1e-10


def test_decode_bad_length():
    fam = rk.build_family("multilevel", (2,), 1, m=2)
    with pytest.raises(BadLength):
        rk.decode(fam, np.zeros(fam.param_len + 1))


def test_producible_one_matches_fully_separable():
    # members of producible(1) and separable(n) are the same set: mixtures
    # of fully product pure states; cross-check decoded members both ways
    fam_p = rk.build_family("producible", (2, 2, 2), 1, m=4)
    fam_s = rk.build_family("separable", (2, 2, 2), 3, m=4)
    for i in range(6):
        theta = np.random.default_rng([3, i]).standard_normal(fam_p.param_len)
        for comp in decode_mixture(fam_p, theta):
            assert is_feasible_pure("separable", 3, comp.state)
        theta = np.random.default_rng([4, i]).standard_normal(fam_s.param_len)
        for comp in decode_mixture(fam_s, theta):
            assert is_feasible_pure("producible", 1, comp.state)


def test_family_nesting_of_members():
    fam = rk.build_family("multilevel", (4,), 2, m=6)
    theta = np.random.default_rng(5).standard_normal(fam.param_len)
    for comp in decode_mixture(fam, theta):
        assert is_feasible_pure("multilevel", 2, comp.state)
        assert is_feasible_pure("multilevel", 3, comp.state)
    fam_s = rk.build_family("separable", (2, 2, 2), 3, m=4)
    theta = np.random.default_rng(6).standard_normal(fam_s.param_len)
    for comp in decode_mixture(fam_s, theta):
        assert is_feasible_pure("separable", 2, comp.state)
    fam_p = rk.build_family("producible", (2, 2, 2), 1, m=4)
    theta = np.random.default_rng(7).standard_normal(fam_p.param_len)
    for comp in decode_mixture(fam_p, theta):
        assert is_feasible_pure("producible", 2, comp.state)


def test_encode_round_trip_multilevel():
    fam = rk.build_family("multilevel", (3,), 2, m=6)
    theta = np.random.default_rng(8).standard_normal(fam.param_len)
    comps = decode_mixture(fam, theta)
    sigma = rk.decode(fam, theta)
    again = rk.decode(fam, rk.encode(fam, comps))
    assert np.abs(sigma.data - again.data).max() <= 1e-12


def test_encode_round_trip_correlation():
    for kind, k in (("separable", 2), ("producible", 2)):
        fam = rk.build_family(kind, (2, 2, 2), k, m=6)
        theta = np.random.default_rng(9).standard_normal(fam.param_len)
        comps = decode_mixture(fam, theta)
        sigma = rk.decode(fam, theta)
        again = rk.decode(fam, rk.encode(fam, comps))
        assert np.abs(sigma.data - again.data).max() <= 1e-12


def test_encode_refuses_components_without_a_free_slot():
    # the mixture is never altered to fit: too few slots, or a component
    # whose structure no slot admits, raises
    fam = rk.build_family("multilevel", (3,), 1, m=2)
    comps = [(1 / 3, rk.basis_pure([3], i), (i,)) for i in range(3)]
    with pytest.raises(WitnessEncodingError):
        rk.encode(fam, [WitnessComponent(*c) for c in comps])
    sep = rk.build_family("separable", (2, 2), 2, m=2)
    bell = rk.pure_state([1, 0, 0, 1], (2, 2))
    with pytest.raises(WitnessEncodingError):
        rk.encode(sep, [WitnessComponent(1.0, bell)])


def test_factorize_fully_product():
    psi = rk.tensor_pure(rk.tensor_pure(rk.basis_pure([2], 0), rk.pure_state([1, 1])),
                         rk.basis_pure([2], 1))
    fac = rk.factorize_pure(psi)
    assert fac.parts == ((0,), (1,), (2,))
    assert fac.separability_depth == 3
    assert fac.entanglement_depth == 1


def test_factorize_bell_times_zero():
    bell = rk.pure_state([1, 0, 0, 1], (2, 2))
    psi = rk.tensor_pure(bell, rk.basis_pure([2], 0))
    fac = rk.factorize_pure(psi)
    assert fac.parts == ((0, 1), (2,))
    assert fac.separability_depth == 2
    assert fac.entanglement_depth == 2


def test_factorize_ghz_is_one_block():
    ghz = rk.pure_state([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
    fac = rk.factorize_pure(ghz)
    assert fac.parts == ((0, 1, 2),)
    assert fac.separability_depth == 1
    assert fac.entanglement_depth == 3


def test_factorize_permutation_covariance():
    a = rk.random_pure([2], seed=10)
    bell = rk.pure_state([1, 0, 0, 1], (2, 2))
    # a (x) bell and its cyclic relabeling bell (x) a
    psi = rk.tensor_pure(a, bell)
    fac = rk.factorize_pure(psi)
    assert fac.parts == ((0,), (1, 2))
    flipped = rk.tensor_pure(bell, a)
    fac2 = rk.factorize_pure(flipped)
    assert fac2.parts == ((0, 1), (2,))


def test_factorize_reconstruction_and_limits():
    psi = rk.random_pure([2, 2, 2], seed=11)
    fac = rk.factorize_pure(psi)  # generic state: single block
    assert fac.parts == ((0, 1, 2),)
    with pytest.raises(NTooLarge):
        rk.factorize_pure(rk.random_pure([2] * 7, seed=12))
    prod = rk.tensor_pure(rk.random_pure([2], seed=13), rk.random_pure([3], seed=14))
    fac = rk.factorize_pure(prod)
    rebuilt = np.kron(fac.factors[0].amps, fac.factors[1].amps)
    assert 1.0 - abs(np.vdot(rebuilt, prod.amps)) <= 1e-10
