import json

import numpy as np
import pytest

import resourcekit as rk
from resourcekit.embedding import _embedded_partition, embed_pure, map_components, theorem3_check
from resourcekit.errors import DTooLarge, KOutOfRange
from resourcekit.feasible import factorize_pure

ALPHAS = (0.3, 0.5, 0.7)


def test_build_embedding_d2_structure():
    emb = rk.build_embedding(2)
    u = emb.unitary
    assert u.shape == (8, 8)
    assert emb.dims == (2, 2, 2)
    # real permutation matrix and involution
    assert np.abs(u @ u - np.eye(8)).max() <= 1e-12
    assert np.minimum(np.abs(u), np.abs(u - 1.0)).max() <= 1e-12
    assert (u.sum(axis=0) == 1).all() and (u.sum(axis=1) == 1).all()


def test_embedding_dimension_limits():
    with pytest.raises(DTooLarge):
        rk.build_embedding(5)
    with pytest.raises(DTooLarge):
        rk.build_embedding(1)


def test_build_embedding_is_built_once_per_d():
    # the map is immutable, so one is shared per d
    emb = rk.build_embedding(3)
    assert rk.build_embedding(3) is emb
    assert not emb.unitary.flags.writeable
    with pytest.raises(ValueError):
        emb.unitary[0, 0] = 2.0


def test_flag_action_on_basis_states():
    emb = rk.build_embedding(2)
    # |0>|00> -> |0>|10>: ancilla qubit 0 flips on level 0
    vec = np.zeros(8)
    vec[0] = 1.0
    out = emb.unitary @ vec
    expect = np.zeros(8)
    expect[0 * 4 + 2] = 1.0  # ancilla index 10 binary = 2
    assert np.abs(out - expect).max() == 0.0


def test_embed_pure_matches_manual_construction():
    emb = rk.build_embedding(3)
    psi = rk.random_pure([3], seed=1)
    embedded = embed_pure(emb, psi)
    manual = np.zeros(24, dtype=complex)
    for i, c in enumerate(psi.amps):
        manual[i * 8 + (1 << (2 - i))] = c
    overlap = abs(np.vdot(manual, embedded.amps))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_embed_state_diagonal_is_product_mixture():
    emb = rk.build_embedding(2)
    rho = rk.validate(np.diag([0.7, 0.3]), [2])
    out = rk.embed_state(emb, rho)
    off = out.data - np.diag(np.diag(out.data))
    assert np.abs(off).max() <= 1e-12
    spec = rk.spectral(out)
    for lam, col in zip(spec.eigenvalues, spec.eigenvectors.T):
        if lam > 1e-12:
            fac = factorize_pure(rk.PureState(out.dims, col.copy()))
            assert fac.separability_depth == 3


def test_embed_state_spectrum_is_padded():
    emb = rk.build_embedding(3)
    rho = rk.random_mixed([3], 3, seed=2)
    out = rk.embed_state(emb, rho)
    got = np.sort(np.linalg.eigvalsh(out.data))[::-1]
    want = np.concatenate([np.sort(np.linalg.eigvalsh(rho.data))[::-1],
                           np.zeros(24 - 3)])
    assert np.abs(got - want).max() <= 1e-10


def test_map_witness_preserves_affinity():
    # witnesses embed with embed_state, exactly like the states they score
    for i in range(12):
        d = 2 + i % 2
        emb = rk.build_embedding(d)
        rho = rk.random_mixed([d], d, seed=[3, i])
        sig = rk.random_mixed([d], d, seed=[4, i])
        alpha = ALPHAS[i % 3]
        src = rk.alpha_affinity(rho, sig, alpha)
        dst = rk.alpha_affinity(rk.embed_state(emb, rho),
                                rk.embed_state(emb, sig), alpha)
        assert dst == pytest.approx(src, abs=1e-10)
    same = rk.random_mixed([2], 2, seed=5)
    emb = rk.build_embedding(2)
    assert rk.alpha_affinity(rk.embed_state(emb, same),
                             rk.embed_state(emb, same), 0.5) == pytest.approx(1.0, abs=1e-10)


def test_depth_correspondence_examples():
    emb = rk.build_embedding(3)
    info = rk.depth_correspondence_pure(emb, rk.basis_pure([3], 0))
    assert info == {"rank": 1, "sep_depth": 4, "ent_depth": 1}
    info = rk.depth_correspondence_pure(emb, rk.pure_state([1, 1, 0]))
    assert info == {"rank": 2, "sep_depth": 2, "ent_depth": 3}
    info = rk.depth_correspondence_pure(emb, rk.pure_state([1, 1, 1]))
    assert info == {"rank": 3, "sep_depth": 1, "ent_depth": 4}


def test_depth_correspondence_reads_rank_and_depths_off_one_factorization():
    # rank and depths come from one factorization: a tiny middle amplitude
    # splits its flag qubit off, so all three read rank 2
    emb = rk.build_embedding(3)
    for small in (1e-12, 1e-6):
        info = rk.depth_correspondence_pure(emb, rk.pure_state([1, small, 1]))
        assert info == {"rank": 2, "sep_depth": 2, "ent_depth": 3}


def test_depth_correspondence_sampled():
    for d in (2, 3, 4):
        emb = rk.build_embedding(d)
        rng = np.random.default_rng(d)
        for i in range(15):
            rank = 1 + i % d
            support = sorted(rng.choice(d, size=rank, replace=False).tolist())
            amps = np.zeros(d, dtype=complex)
            amps[support] = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
            if np.abs(amps[support]).min() < 0.05:
                continue
            info = rk.depth_correspondence_pure(emb, rk.pure_state(amps))
            expected = (d + 1, 1) if rank == 1 else (d - rank + 1, rank + 1)
            assert (info["rank"], info["sep_depth"], info["ent_depth"]) == (rank, *expected)


def test_mapped_components_are_structurally_product():
    emb = rk.build_embedding(3)
    comps = [(0.5, rk.pure_state([1, 1, 0])), (0.5, rk.pure_state([0, 1, 1]))]
    mapped = map_components(emb, comps)
    for support, comp in zip(((0, 1), (1, 2)), mapped):
        fac = factorize_pure(comp.state)
        assert fac.parts == _embedded_partition(emb, support)
        assert fac.separability_depth == 2  # d - |support| + 1 = 3 - 2 + 1
        assert fac.entanglement_depth == 3  # |support| + 1


def test_theorem3_diagonal_state_is_all_zero():
    rho = rk.validate(np.diag([0.6, 0.4]), [2])
    rows = theorem3_check(rho, 2, 0.5, seed=6, max_iter=100)
    for row in rows:
        assert row.rhs <= 1e-9
        assert row.lhs <= 1e-9


def test_theorem3_plus_state_evaluation_only():
    # the mapped witness is scored, never searched, so it reproduces the
    # coherence bound exactly on every transported indicator
    plus = rk.pure_state([1, 1]).projector()
    rows = theorem3_check(plus, 2, 0.5, seed=7)
    target = 1.0 - 2.0 ** -0.5
    for row in rows:
        if "avg" not in row.rhs_label:
            assert row.rhs == pytest.approx(target, abs=1e-12)
            assert row.lhs == pytest.approx(target, abs=1e-12)
        assert row.slack >= -1e-12


def test_theorem3_random_qutrits():
    for i, (k, alpha) in enumerate([(2, 0.3), (2, 0.7), (3, 0.5)]):
        rho = rk.random_mixed([3], 3, seed=[8, i])
        rows = theorem3_check(rho, k, alpha, seed=[9, i], max_iter=150)
        assert len(rows) == 4
        for row in rows:
            assert row.slack >= -1e-8


def test_theorem3_input_validation():
    rho = rk.random_mixed([2], 2, seed=10)
    with pytest.raises(KOutOfRange):
        theorem3_check(rho, 3, 0.5, seed=1)
    big = rk.random_mixed([4], 4, seed=11)
    with pytest.raises(DTooLarge):
        theorem3_check(big, 2, 0.5, seed=1)
    # an order that is not an integer is refused, not truncated
    for k in (2.5, True):
        with pytest.raises(ValueError, match="k must be"):
            theorem3_check(rho, k, 0.5, seed=1)


def test_transport_report_json():
    rho = rk.validate(np.diag([0.6, 0.4]), [2])
    rows = theorem3_check(rho, 2, 0.5, seed=12, max_iter=50)
    doc = json.loads(rk.transport_report_json(rows))
    assert len(doc["rows"]) == 4
    row = doc["rows"][0]
    assert set(row) == {"lhs_label", "rhs_label", "lhs", "rhs", "slack"}


def test_theorem3_scores_the_transported_witness_without_search(monkeypatch):
    # no correlation family is searched: every solve is the coherence one,
    # and every slack is roundoff
    import resourcekit.indicators as indicators
    kinds = []
    original = indicators.max_affinity

    def recording(rho, family, *args, **kwargs):
        kinds.append(family.kind)
        return original(rho, family, *args, **kwargs)

    monkeypatch.setattr(indicators, "max_affinity", recording)
    for i in range(20):
        rho = rk.random_mixed([3], 3, seed=[16, i])
        rows = theorem3_check(rho, 3, ALPHAS[i % 3], seed=[17, i])
        assert len(rows) == 4
        for row in rows:
            assert row.slack >= -1e-9
    assert kinds and set(kinds) == {"multilevel"}


def test_theorem3_factorizes_each_mapped_component_once(monkeypatch):
    # one partition table per transport, covering every mapped component,
    # gives both its partition check and its membership in both families;
    # no factor is built
    import resourcekit.embedding as embedding
    import resourcekit.feasible as feasible
    from resourcekit.feasible import _finest_parts
    tables = []

    def counted(stack, dims):
        tables.append(np.array(stack))
        return _finest_parts(stack, dims)

    def refused(psi):
        raise AssertionError("factorize_pure called")

    monkeypatch.setattr(embedding, "_finest_parts", counted)
    monkeypatch.setattr(feasible, "_finest_parts", counted)
    monkeypatch.setattr(feasible, "factorize_pure", refused)
    for k in (2, 3):
        rho = rk.random_mixed([3], 3, seed=[18, k])
        coh = rk.multilevel_coherence(rho, k, 0.5, seed=19, max_iter=200)
        tables.clear()
        theorem3_check(rho, k, 0.5, seed=19, max_iter=200)
        mapped = map_components(rk.build_embedding(3), coh.components)
        assert len(tables) == 1
        assert len(coh.components) > 0
        assert np.array_equal(tables[0], [c.state.amps for c in mapped])
