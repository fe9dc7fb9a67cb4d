import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resourcekit as rk
from resourcekit.affinity import _outcomes
from resourcekit.channels import OUTCOME_THRESHOLD
from resourcekit.errors import ChannelInvalid, DimensionMismatch, NonFinite
from resourcekit.feasible import WitnessComponent, coherent_rank_pure, factorize_pure
from resourcekit.verify import _selective_witnesses


def test_identity_channel_is_identity():
    rho = rk.random_mixed([3], 3, seed=1)
    out = rk.apply(rk.identity_channel(3), rho)
    assert np.abs(out.data - rho.data).max() <= 1e-12


def test_full_dephasing_keeps_diagonal():
    rho = rk.random_mixed([4], 4, seed=2)
    out = rk.apply(rk.dephasing_channel(4), rho)
    assert np.abs(out.data - np.diag(np.diag(rho.data))).max() <= 1e-12


def test_random_channel_preserves_trace():
    rho = rk.random_mixed([3], 3, seed=3)
    chan = rk.random_channel(3, 3, seed=4)
    out = rk.apply(chan, rho)
    assert abs(np.trace(out.data).real - 1.0) <= 1e-10


def test_selective_projective_measurement_of_plus():
    plus = rk.pure_state([1, 1]).projector()
    outcomes = rk.selective_apply(rk.dephasing_channel(2), plus)
    assert len(outcomes) == 2
    for i, (p, post) in enumerate(outcomes):
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.abs(post.data - rk.basis_pure([2], i).projector().data).max() <= 1e-12


def test_selective_unitary_single_outcome():
    rho = rk.random_mixed([2], 2, seed=5)
    u = rk.random_unitary(2, seed=6)
    outcomes = rk.selective_apply(rk.unitary_channel(u), rho)
    assert len(outcomes) == 1
    assert outcomes[0][0] == pytest.approx(1.0, abs=1e-12)


def test_selective_resums_to_apply():
    rho = rk.random_mixed([3], 3, seed=7)
    chan = rk.random_channel(3, 3, seed=8)
    direct = rk.apply(chan, rho).data
    resummed = sum(p * post.data for p, post in rk.selective_apply(chan, rho))
    assert np.abs(direct - resummed).max() <= 1e-10


def test_monomial_single_outcome_is_diagonal_phase_unitary():
    chan = rk.make_monomial_incoherent(4, 1, seed=9)
    assert chan.outcomes == 1
    k = chan.kraus[0]
    off = k - np.diag(np.diag(k))
    assert np.abs(off).max() == 0.0
    assert np.abs(np.abs(np.diag(k)) - 1.0).max() <= 1e-12


def test_monomial_keeps_basis_states_diagonal():
    chan = rk.make_monomial_incoherent(3, 3, seed=10)
    for i in range(3):
        for _, post in rk.selective_apply(chan, rk.basis_pure([3], i).projector()):
            off = post.data - np.diag(np.diag(post.data))
            assert np.abs(off).max() <= 1e-12


def test_monomial_never_increases_coherence_rank():
    for trial in range(20):
        chan = rk.make_monomial_incoherent(4, 1 + trial % 3, seed=[11, trial])
        psi = rk.random_pure([4], seed=[12, trial])
        rank_in = coherent_rank_pure(psi)
        for k in chan.kraus:
            amps = k @ psi.amps
            if np.linalg.norm(amps) <= 1e-12:
                continue
            assert coherent_rank_pure(rk.pure_state(amps, (4,))) <= rank_in


def test_local_product_identity_and_unitaries():
    ident = rk.make_local_product([rk.identity_channel(2), rk.identity_channel(2)])
    rho = rk.random_mixed([2, 2], 4, seed=13)
    assert np.abs(rk.apply(ident, rho).data - rho.data).max() <= 1e-12
    u1 = rk.unitary_channel(rk.random_unitary(2, seed=14))
    u2 = rk.unitary_channel(rk.random_unitary(2, seed=15))
    combo = rk.make_local_product([u1, u2])
    assert combo.outcomes == 1


def test_local_product_dephasing_tensor_identity():
    chan = rk.make_local_product([rk.dephasing_channel(2), rk.identity_channel(2)])
    assert chan.outcomes == 2
    acc = sum(k.conj().T @ k for k in chan.kraus)
    assert np.abs(acc - np.eye(4)).max() <= 1e-10


def test_local_product_preserves_product_structure():
    a = rk.random_pure([2], seed=16)
    b = rk.random_pure([2], seed=17)
    prod = rk.tensor(a.projector(), b.projector())
    chan = rk.make_local_product([rk.random_channel(2, 2, seed=18),
                                  rk.random_channel(2, 2, seed=19)])
    for _, post in rk.selective_apply(chan, prod):
        spec = rk.spectral(post)
        psi = rk.PureState(post.dims, spec.eigenvectors[:, 0].copy())
        assert spec.eigenvalues[0] >= 1.0 - 1e-10
        fac = factorize_pure(psi)
        assert fac.separability_depth == 2


def test_kraus_validation_errors():
    with pytest.raises(ChannelInvalid):
        rk.kraus_channel([np.eye(2) * 0.5])
    with pytest.raises(ChannelInvalid):
        rk.kraus_channel([])
    # an isometry passes the completeness check but is not unitary
    with pytest.raises(ChannelInvalid):
        rk.unitary_channel(np.eye(3)[:, :2])
    with pytest.raises(ChannelInvalid):
        rk.unitary_channel(np.diag([1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        rk.apply(rk.identity_channel(3), rk.random_mixed([2], 2, seed=20))


@pytest.mark.parametrize("make,args", [(rk.random_channel, (3, 2.5, 1)),
                                       (rk.random_channel, (3, True, 1)),
                                       (rk.make_monomial_incoherent, (3, 2.5, 1)),
                                       (rk.make_monomial_incoherent, (3, True, 1)),
                                       (rk.random_projective, (3, 2.5, 1)),
                                       (rk.random_projective, (3, True, 1)),
                                       (rk.random_projective, (3, 5, 1))])
def test_channel_counts_are_refused_not_truncated(make, args):
    # a fractional count ended in a numpy TypeError, a bool read as 1, and a
    # projective rank above d built the measurement [I, 0]
    with pytest.raises(ChannelInvalid):
        make(*args)


def test_channel_counts_read_integral_floats_as_dims_do():
    for make, args in ((rk.random_channel, (3, 2)), (rk.make_monomial_incoherent, (3, 2)),
                       (rk.random_projective, (3, 2))):
        whole, fraction = make(*args, 1), make(args[0], float(args[1]), 1)
        assert [k.tobytes() for k in whole.kraus] == [k.tobytes() for k in fraction.kraus]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("ops", [[[[NAN, 0], [0, 1]]],
                                 [[[1, 0], [0, INF]]],
                                 [[[1, 0], [0, 0]], [[0, 0], [NAN, 0]]]])
def test_kraus_channel_refuses_non_finite_entries(ops):
    # a NaN completeness defect compares false with the tolerance, so
    # non-finite entries must be caught first
    with pytest.raises(NonFinite):
        rk.kraus_channel([np.array(k, dtype=complex) for k in ops])


def test_kraus_channel_refuses_an_overflowing_defect():
    # finite entries whose defect overflows are incomplete, not non-finite
    with pytest.raises(ChannelInvalid):
        rk.kraus_channel([np.array([[1e200, -1e200], [1e200, 1e200]])])


def test_channel_json_refuses_the_nan_literal():
    # Python's json parses NaN; the channel it describes must still be refused
    with pytest.raises(NonFinite):
        rk.channel_from_json('{"kraus": [[[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]]}')


def test_channel_json_names_what_is_wrong():
    # a document that is not an object, has no kraus field or a kraus that
    # is not a list raises ValueError naming it, as a state file does
    with pytest.raises(ValueError, match="JSON object"):
        rk.channel_from_json("[1, 2]")
    with pytest.raises(ValueError, match="'kraus'"):
        rk.channel_from_json('{"ops": []}')
    with pytest.raises(ValueError, match="list of matrices"):
        rk.channel_from_json('{"kraus": 5}')


def _monomial(chan):
    return all((np.count_nonzero(k, axis=0) <= 1).all() for k in chan.kraus)


def test_amplitude_damping_is_monomial():
    k0 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
    chan = rk.kraus_channel([k0, k1])
    assert _monomial(chan)


def test_incoherent_constructors_are_monomial():
    # the coherence suites rely on this by construction; nothing rechecks it
    for d in (2, 3, 4):
        assert _monomial(rk.dephasing_channel(d))
        for outcomes in (1, 2, 3):
            assert _monomial(rk.make_monomial_incoherent(d, outcomes, seed=[23, d, outcomes]))
    assert not _monomial(rk.unitary_channel(np.array([[1, 1], [1, -1]]) / np.sqrt(2)))


def test_channel_json_round_trip():
    chan = rk.make_local_product([rk.dephasing_channel(2), rk.identity_channel(2)])
    again = rk.channel_from_json(rk.channel_to_json(chan))
    assert again.outcomes == chan.outcomes
    for a, b in zip(again.kraus, chan.kraus):
        assert np.abs(a - b).max() == 0.0
    # files that also carry a class tag and per-site factors still load
    doc = json.loads(rk.channel_to_json(chan))
    deph = json.loads(rk.channel_to_json(rk.dephasing_channel(2)))["kraus"]
    ident = json.loads(rk.channel_to_json(rk.identity_channel(2)))["kraus"][0]
    doc.update(tag="local_product", site_dims=[2, 2],
               site_factors=[[k, ident] for k in deph])
    loaded = rk.channel_from_json(json.dumps(doc))
    for a, b in zip(loaded.kraus, chan.kraus):
        assert np.abs(a - b).max() == 0.0


def test_random_channel_deterministic():
    a = rk.random_channel(3, 2, seed=21)
    b = rk.random_channel(3, 2, seed=21)
    for ka, kb in zip(a.kraus, b.kraus):
        assert ka.tobytes() == kb.tobytes()


def _unit_trace_psd(m):
    return (abs(np.trace(m).real - 1.0) <= 1e-12
            and np.abs(m - m.conj().T).max() <= 1e-12
            and np.linalg.eigvalsh(m)[0] >= -1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
       st.lists(st.floats(0.01, 2.0) | st.floats(-2.0, -0.01),
                min_size=1, max_size=4))
def test_selective_paths_keep_the_same_outcomes(d, seed, exps):
    # Kraus operators sqrt(c_i) U_i give outcome i probability c_i under every
    # state; c_i = 1e-12 * 10^x straddles OUTCOME_THRESHOLD by at least 2%,
    # and one more outcome takes the rest.  The selective paths keep exactly
    # the outcomes above the threshold, each with a unit-trace PSD post-state
    c = OUTCOME_THRESHOLD * 10.0 ** np.array(exps)
    c = np.append(c, 1.0 - c.sum())
    chan = rk.kraus_channel([np.sqrt(ci) * rk.random_unitary(d, [seed, i])
                             for i, ci in enumerate(c)])
    rho = rk.random_mixed([d], 1 + seed % d, seed=[seed, 8])
    sigma = rk.random_mixed([d], d, seed=[seed, 9])
    expected = c[c > OUTCOME_THRESHOLD]

    applied = rk.selective_apply(chan, rho)
    outcomes = [(p, q, r, s) for p, q, r, s, _ in _outcomes([chan], [rho], [sigma], 0.5)[0]
                if p > OUTCOME_THRESHOLD and q > OUTCOME_THRESHOLD]
    spec = rk.spectral(rho)
    comps = [WitnessComponent(float(w), rk.pure_state(v))
             for w, v in zip(spec.eigenvalues, spec.eigenvectors.T) if w > 0.0]
    pushed = list(_selective_witnesses(chan, rho, comps))

    for kept in ([p for p, _ in applied], [p for p, *_ in outcomes], [p for p, *_ in pushed]):
        assert np.allclose(kept, expected, rtol=1e-12, atol=0.0)
    assert [p for p, _ in applied] == [p for p, *_ in outcomes] == [p for p, *_ in pushed]
    posts = ([post.data for _, post in applied] + [r / p for p, _, r, _ in outcomes]
             + [s / q for _, q, _, s in outcomes] + [post.data for _, post, _ in pushed])
    assert all(_unit_trace_psd(m) for m in posts)
    assert all(abs(sum(comp.weight for comp in wit) - 1.0) <= 1e-12 for *_, wit in pushed)
