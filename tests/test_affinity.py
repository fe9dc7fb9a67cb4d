import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resourcekit as rk
from resourcekit.errors import (
    AlphaOutOfRange,
    BadExponent,
    BadWeights,
    DimensionMismatch,
    NonPositiveEntry,
)

ALPHAS = (0.3, 0.5, 0.7)


def test_self_affinity_is_one():
    for i, alpha in enumerate(ALPHAS):
        rho = rk.random_mixed([3], 2 + i % 2, seed=[1, i])
        assert rk.alpha_affinity(rho, rho, alpha) == pytest.approx(1.0, abs=1e-10)


def test_orthogonal_projectors_have_zero_affinity():
    a = rk.basis_pure([3], 0).projector()
    b = rk.basis_pure([3], 2).projector()
    assert rk.alpha_affinity(a, b, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_plus_against_maximally_mixed():
    # rho pure so rho^a = rho; sigma^(1-a) = 2^(a-1) I; trace gives 2^(-1/2)
    plus = rk.pure_state([1, 1]).projector()
    mixed = rk.validate(np.eye(2) / 2, [2])
    assert rk.alpha_affinity(plus, mixed, 0.5) == pytest.approx(2 ** -0.5, abs=1e-12)


def test_alpha_and_dimension_validation():
    rho = rk.random_mixed([2], 2, seed=2)
    with pytest.raises(AlphaOutOfRange):
        rk.alpha_affinity(rho, rho, 1.0)
    with pytest.raises(AlphaOutOfRange):
        rk.alpha_affinity(rho, rho, 0.0)
    with pytest.raises(DimensionMismatch):
        rk.alpha_affinity(rho, rk.random_mixed([3], 3, seed=3), 0.5)


def test_bounds_and_separation_sampled():
    for i in range(60):
        alpha = ALPHAS[i % 3]
        rho = rk.random_mixed([3], 1 + i % 3, seed=[4, i])
        sig = rk.random_mixed([3], 3, seed=[5, i])
        val = rk.alpha_affinity(rho, sig, alpha)
        assert 0.0 <= val <= 1.0
        if rk.trace_distance(rho, sig) > 1e-3:
            assert val < 1.0 - 1e-6


def test_unitary_invariance_and_multiplicativity():
    for i in range(30):
        alpha = ALPHAS[i % 3]
        rho = rk.random_mixed([3], 3, seed=[6, i])
        sig = rk.random_mixed([3], 2, seed=[7, i])
        u = rk.random_unitary(3, seed=[8, i])
        rho_u = rk.validate(u @ rho.data @ u.conj().T, [3])
        sig_u = rk.validate(u @ sig.data @ u.conj().T, [3])
        base = rk.alpha_affinity(rho, sig, alpha)
        assert rk.alpha_affinity(rho_u, sig_u, alpha) == pytest.approx(base, abs=1e-9)

        rho2 = rk.random_mixed([2], 2, seed=[9, i])
        sig2 = rk.random_mixed([2], 2, seed=[10, i])
        joint = rk.alpha_affinity(rk.tensor(rho, rho2), rk.tensor(sig, sig2), alpha)
        assert joint == pytest.approx(base * rk.alpha_affinity(rho2, sig2, alpha),
                                      abs=1e-9)


def test_joint_concavity_and_data_processing():
    for i in range(30):
        alpha = ALPHAS[i % 3]
        pairs = [(rk.random_mixed([3], 3, seed=[11, i, j]),
                  rk.random_mixed([3], 3, seed=[12, i, j])) for j in range(2)]
        lam = np.random.default_rng([13, i]).dirichlet(np.ones(2))
        mix_r = rk.validate(sum(l * p[0].data for l, p in zip(lam, pairs)), [3])
        mix_s = rk.validate(sum(l * p[1].data for l, p in zip(lam, pairs)), [3])
        avg = sum(l * rk.alpha_affinity(p[0], p[1], alpha) for l, p in zip(lam, pairs))
        assert rk.alpha_affinity(mix_r, mix_s, alpha) >= avg - 1e-8

        chan = rk.random_channel(3, 2, seed=[14, i])
        before = rk.alpha_affinity(pairs[0][0], pairs[0][1], alpha)
        after = rk.alpha_affinity(rk.apply(chan, pairs[0][0]),
                                  rk.apply(chan, pairs[0][1]), alpha)
        assert after >= before - 1e-8


# ---------------------------------------------------------------------------
# Scalar certificates.
# ---------------------------------------------------------------------------

def test_holder_constant_vectors():
    cert = rk.holder_negative_exponent_bound(np.ones(5), np.ones(5), 2.0, -1.0)
    assert cert.slack >= -1e-12
    assert cert.rhs == pytest.approx(5.0)


def test_holder_single_element_is_tight():
    cert = rk.holder_negative_exponent_bound([1.7], [0.4], 1.3, -0.7)
    assert abs(cert.slack) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8),
       st.floats(0.1, 3.0), st.floats(-3.0, -0.1))
def test_holder_random_instances(a, p, q):
    rng = np.random.default_rng(len(a))
    b = rng.uniform(0.05, 10.0, size=len(a))
    cert = rk.holder_negative_exponent_bound(np.array(a), b, p, q)
    assert cert.slack >= -1e-10


def test_holder_input_validation():
    with pytest.raises(NonPositiveEntry):
        rk.holder_negative_exponent_bound([1.0, 0.0], [1.0, 1.0], 2.0, -1.0)
    with pytest.raises(BadExponent):
        rk.holder_negative_exponent_bound([1.0], [1.0], -2.0, -1.0)
    with pytest.raises(DimensionMismatch):
        rk.holder_negative_exponent_bound([1.0, 2.0], [1.0], 2.0, -1.0)


def test_power_mean_stationary_weights_are_tight():
    # weights proportional to x make the bound an equality
    x = np.array([0.3, 1.1, 2.4, 0.7])
    q = x / x.sum()
    for t in (1.5, 2.0, 3.7):
        cert = rk.power_mean_bound(x, q, t)
        assert abs(cert.slack) <= 1e-10


def test_power_mean_single_element():
    cert = rk.power_mean_bound([2.3], [1.0], 2.5)
    assert abs(cert.slack) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8),
       st.floats(1.001, 4.0), st.integers(0, 10 ** 6))
def test_power_mean_random_instances(x, t, seed):
    q = np.random.default_rng(seed).dirichlet(np.ones(len(x)))
    cert = rk.power_mean_bound(np.array(x), q, t)
    assert cert.slack >= -1e-10


def test_power_mean_input_validation():
    with pytest.raises(BadWeights):
        rk.power_mean_bound([1.0, 1.0], [0.9, 0.2], 2.0)
    with pytest.raises(BadExponent):
        rk.power_mean_bound([1.0], [1.0], 1.0)


# ---------------------------------------------------------------------------
# Channel certificates.
# ---------------------------------------------------------------------------

def _pair(seed, d=3):
    return (rk.random_mixed([d], d, seed=[seed, 0]),
            rk.random_mixed([d], d, seed=[seed, 1]))


def test_selective_power_sum_unitary_is_tight():
    rho, sig = _pair(20)
    chan = rk.unitary_channel(rk.random_unitary(3, seed=21))
    cert = rk.selective_power_sum(rho, sig, chan, 0.5)
    assert abs(cert.slack) <= 1e-10
    expected = rk.alpha_affinity(rho, sig, 0.5) ** 2
    assert cert.lhs == pytest.approx(expected, abs=1e-10)


def test_selective_power_sum_equal_states():
    rho, _ = _pair(22)
    chan = rk.random_channel(3, 2, seed=23)
    cert = rk.selective_power_sum(rho, rho, chan, 0.5)
    assert cert.lhs == pytest.approx(1.0, abs=1e-9)
    assert cert.rhs == pytest.approx(1.0, abs=1e-9)


def test_selective_power_sum_sampled():
    for i in range(40):
        alpha = ALPHAS[i % 3]
        rho, sig = _pair(100 + i, d=2 + i % 3)
        chan = rk.random_projective(2 + i % 3, 1, seed=[24, i]) if i % 2 \
            else rk.random_channel(2 + i % 3, 2, seed=[24, i])
        assert rk.selective_power_sum(rho, sig, chan, alpha).slack >= -1e-8


def test_block_diagonal_single_kraus_reduces_to_invariance():
    rho, sig = _pair(25)
    chan = rk.unitary_channel(rk.random_unitary(3, seed=26))
    cert = rk.block_diagonal_affinity(rho, sig, chan, 0.5)
    assert abs(cert.slack) <= 1e-10
    assert cert.rhs == pytest.approx(rk.alpha_affinity(rho, sig, 0.5), abs=1e-10)


def test_block_diagonal_qubit_dephasing_by_hand():
    # two diagonal Kraus operators on a qubit; build the 4x4 block states
    # by hand and evaluate both sides with raw numpy as the oracle
    rho, sig = _pair(27, d=2)
    k0 = np.diag([1.0, np.sqrt(0.3)]).astype(complex)
    k1 = np.diag([0.0, np.sqrt(0.7)]).astype(complex)
    chan = rk.kraus_channel([k0, k1])
    cert = rk.block_diagonal_affinity(rho, sig, chan, 0.5)

    def herm_sqrt(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T

    big_r = np.zeros((4, 4), complex)
    big_s = np.zeros((4, 4), complex)
    for i, k in enumerate((k0, k1)):
        big_r[2 * i:2 * i + 2, 2 * i:2 * i + 2] = k @ rho.data @ k.conj().T
        big_s[2 * i:2 * i + 2, 2 * i:2 * i + 2] = k @ sig.data @ k.conj().T
    lhs_oracle = np.trace(herm_sqrt(big_r) @ herm_sqrt(big_s)).real
    assert cert.lhs == pytest.approx(lhs_oracle, abs=1e-10)
    assert abs(cert.slack) <= 1e-10


def test_block_diagonal_sampled_equality():
    for i in range(40):
        alpha = ALPHAS[i % 3]
        d = 2 + i % 2
        rho, sig = _pair(200 + i, d=d)
        chan = rk.random_channel(d, 1 + i % 3, seed=[28, i])
        assert abs(rk.block_diagonal_affinity(rho, sig, chan, alpha).slack) <= 1e-9


def test_data_processing_sum_cases():
    rho, sig = _pair(29)
    unitary = rk.unitary_channel(rk.random_unitary(3, seed=30))
    assert abs(rk.data_processing_sum(rho, sig, unitary, 0.5).slack) <= 1e-10
    chan = rk.random_channel(3, 3, seed=31)
    cert = rk.data_processing_sum(rho, rho, chan, 0.5)
    assert cert.lhs == pytest.approx(1.0, abs=1e-10)
    assert cert.slack >= -1e-8
    for i in range(40):
        rho_i, sig_i = _pair(300 + i, d=2 + i % 3)
        chan_i = rk.random_channel(2 + i % 3, 2, seed=[32, i])
        assert rk.data_processing_sum(rho_i, sig_i, chan_i, ALPHAS[i % 3]).slack >= -1e-8


def test_selective_loss_cases():
    rho, sig = _pair(33)
    unitary = rk.unitary_channel(rk.random_unitary(3, seed=34))
    assert abs(rk.selective_loss_bound(rho, sig, unitary, 0.5).slack) <= 1e-10
    chan = rk.random_channel(3, 2, seed=35)
    cert = rk.selective_loss_bound(rho, rho, chan, 0.5)
    assert cert.lhs == pytest.approx(0.0, abs=1e-9)
    assert cert.rhs == pytest.approx(0.0, abs=1e-9)
    for i in range(40):
        rho_i, sig_i = _pair(400 + i, d=2 + i % 3)
        chan_i = rk.random_channel(2 + i % 3, 3, seed=[36, i])
        assert rk.selective_loss_bound(rho_i, sig_i, chan_i, ALPHAS[i % 3]).slack >= -1e-8


def test_shared_outcome_pass_matches_each_certificate():
    # the appendix-b suite takes all four channel certificates from one pass
    # through the outcomes; each must equal its own function's, bit for bit,
    # including a projective measurement with an outcome of probability 0
    from resourcekit.affinity import _channel_certificates
    cases = [(rk.random_channel(2 + i % 3, 1 + i % 3, seed=[37, i]), *_pair(500 + i, d=2 + i % 3))
             for i in range(12)]
    cases.append((rk.dephasing_channel(2), rk.basis_pure([2], 0).projector(),
                  rk.random_mixed([2], 2, seed=38)))
    for i, (chan, rho, sig) in enumerate(cases):
        alpha = ALPHAS[i % 3]
        shared = _channel_certificates(rho, sig, chan, alpha, seed=i)
        assert shared == [f(rho, sig, chan, alpha, seed=i)
                          for f in (rk.selective_power_sum, rk.data_processing_sum,
                                    rk.selective_loss_bound, rk.block_diagonal_affinity)]


def test_certificate_csv_format():
    cert = rk.power_mean_bound([1.0, 2.0], [0.25, 0.75], 2.0, alpha=0.5, seed=7)
    text = rk.certificates_to_csv([cert])
    lines = text.strip().split("\n")
    assert lines[0] == "label,seed,alpha,lhs,rhs,slack"
    fields = lines[1].split(",")
    assert fields[0] == "power-mean"
    assert fields[1] == "7"
    assert float(fields[5]) == pytest.approx(cert.slack)
