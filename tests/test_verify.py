import numpy as np
import pytest

from resourcekit.affinity import InequalityCertificate
from resourcekit.verify import (
    SUITE_NAMES,
    TOLERANCES,
    all_passed,
    run_suite,
    summarize,
)

SEED = 20240601


@pytest.mark.parametrize("name,n", [("affinity-props", 25), ("appendix-b", 25),
                                    ("theorem1", 12), ("embedding", 10),
                                    ("theorem3", 12)])
def test_fast_suites_pass(name, n):
    certs = run_suite(name, SEED, n)
    assert certs
    assert all_passed(certs)


def test_theorem1_constructive_counts():
    from resourcekit.verify import run_theorem1
    certs = run_theorem1(SEED, 6, 2)
    labels = {c.label for c in certs}
    assert {"order3-witness-convexity", "order3-witness-avg-monotonicity",
            "order3-witness-channel-monotonicity",
            "order3-witness-tensor-subadditivity"} <= labels
    assert all_passed(certs)


def test_theorem2_suite_small():
    certs = run_suite("theorem2", SEED, 4)
    assert all_passed(certs)
    summary = summarize(certs)
    for label in ("zero-on-members", "local-unitary-witness",
                  "witness-mixing-convexity", "locc-monotonicity",
                  "locc-avg-monotonicity", "tensor-subadditivity",
                  "family-nesting"):
        assert summary[label]["count"] >= 4


def test_theorem3_suite_small():
    certs = run_suite("theorem3", SEED, 2)
    assert all_passed(certs)
    summary = summarize(certs)
    assert summary["transport-witness-feasible"]["count"] == 6
    assert summary["transport-witness-feasible"]["min_slack"] == 0.0


def test_theorem3_reports_a_witness_outside_the_families(monkeypatch):
    # a coherence component on all k levels maps outside separable(d-k+2)
    # and producible(k); the suite records a failed feasibility certificate
    # instead of raising
    import dataclasses

    import resourcekit.embedding as embedding
    from resourcekit.feasible import WitnessComponent
    from resourcekit.states import pure_state

    real = embedding.multilevel_coherence

    def too_wide(rho, k, alpha, variant="plain", **kwargs):
        res = real(rho, k, alpha, variant, **kwargs)
        amps = np.zeros(rho.d)
        amps[:k] = 1.0
        return dataclasses.replace(
            res, components=(WitnessComponent(1.0, pure_state(amps)),))

    monkeypatch.setattr(embedding, "multilevel_coherence", too_wide)
    summary = summarize(run_suite("theorem3", SEED, 1))
    assert summary["transport-witness-feasible"]["count"] == 3
    assert not summary["transport-witness-feasible"]["passed"]


def test_summary_flags_corrupted_certificate():
    certs = run_suite("appendix-b", SEED, 5)
    bad = InequalityCertificate("power-mean", 1.0, 0.0, -1.0, False, 0.5, SEED)
    assert all_passed(certs)
    assert not all_passed(list(certs) + [bad])
    summary = summarize(list(certs) + [bad])
    assert not summary["power-mean"]["passed"]


def test_equality_labels_use_absolute_slack():
    good = InequalityCertificate("self-affinity", 1.0, 1.0, 0.0, True)
    above = InequalityCertificate("self-affinity", 1.0 + 1e-3, 1.0, -1e-3, True)
    assert all_passed([good])
    assert not all_passed([above])


def test_summary_rejects_unknown_label():
    made_up = InequalityCertificate("made-up-label", 0.0, 1.0, 1.0, False, 0.5, SEED)
    with pytest.raises(ValueError, match="made-up-label"):
        summarize([made_up])
    with pytest.raises(ValueError):
        all_passed([made_up])


def test_every_emitted_label_has_a_tolerance():
    for name in SUITE_NAMES:
        n = 2 if name == "theorem2" else 6
        for cert in run_suite(name, SEED, n):
            assert cert.label in TOLERANCES


def test_run_suite_all_and_unknown():
    certs = run_suite("all", SEED, 2)
    assert all_passed(certs)
    with pytest.raises(ValueError):
        run_suite("nonsense", SEED, 2)


@pytest.mark.parametrize("n_samples", [2.5, True, np.float64(1.5), "2", -1])
def test_run_suite_refuses_counts_that_are_not_integers(n_samples):
    # a fraction was truncated to a sample count, and a bool taken as one,
    # by run_suite and by each suite's runner (run_appendix_b(1, 2.5) ran 2)
    from resourcekit.verify import SUITES
    for name in ("appendix-b", "all"):
        with pytest.raises(ValueError, match="n_samples"):
            run_suite(name, SEED, n_samples)
    for run in SUITES.values():
        with pytest.raises(ValueError, match="n_samples"):
            run(SEED, n_samples)


@pytest.mark.parametrize("seed", [True, "3", 1.5, -1, None])
def test_run_suite_refuses_seeds_that_are_not_integers(seed, monkeypatch):
    # True ran and was stamped on every certificate, "3" likewise; 1.5, -1
    # and None failed inside numpy, and theorem1 took True until its order-3
    # part.  Each runner reads its seed before any sample
    from resourcekit import verify

    def no_sample(*args, **kwargs):
        raise AssertionError("a sample ran")
    monkeypatch.setattr(verify, "_rng", no_sample)
    monkeypatch.setattr(verify, "_random_mixed", no_sample)
    monkeypatch.setattr(verify, "build_embedding", no_sample)
    monkeypatch.setattr(verify, "random_mixed", no_sample)
    for name in ("appendix-b", "all"):
        with pytest.raises(ValueError, match="seed must be"):
            run_suite(name, seed, 1)
    for run in verify.SUITES.values():
        with pytest.raises(ValueError, match="seed must be"):
            run(seed, 1)


def test_run_suite_keeps_integer_seeds():
    from resourcekit.affinity import certificates_to_csv
    csv = certificates_to_csv(run_suite("appendix-b", SEED, 3))
    assert certificates_to_csv(run_suite("appendix-b", np.int64(SEED), 3)) == csv
    assert all(type(c.seed) is int for c in run_suite("appendix-b", np.int64(SEED), 3))


@pytest.mark.parametrize("n_constructive", [1.5, True, np.float64(0.5), -1])
def test_theorem1_refuses_constructive_counts_that_are_not_integers(n_constructive):
    from resourcekit.verify import run_theorem1
    with pytest.raises(ValueError, match="n_constructive"):
        run_theorem1(SEED, 0, n_constructive=n_constructive)


def test_theorem1_constructive_default_is_a_tenth_of_the_samples(monkeypatch):
    # min(n, max(1, n // 10)) at every n, 30 at the default 300
    from resourcekit import verify
    counts = []
    monkeypatch.setattr(verify, "_theorem1_constructive",
                        lambda seed, nc: counts.append(nc) or [])
    for n in (None, 0, 1, 9, 10, 25, np.int64(31)):
        verify.run_theorem1(SEED, n)
    assert counts == [30, 0, 1, 1, 1, 2, 3]
    verify.run_theorem1(SEED, 4, n_constructive=np.int64(2))
    assert counts[-1] == 2 and type(counts[-1]) is int


def test_run_suite_takes_numpy_integers():
    assert run_suite("appendix-b", SEED, np.int64(3)) == run_suite("appendix-b", SEED, 3)


def test_suites_are_deterministic():
    from resourcekit.affinity import certificates_to_csv
    a = certificates_to_csv(run_suite("appendix-b", SEED, 10))
    b = certificates_to_csv(run_suite("appendix-b", SEED, 10))
    assert a == b


def test_scored_rejects_a_component_outside_the_family():
    # a transported witness is scored, never searched: an entangled component
    # raises instead of being placed or projected
    from resourcekit.affinity import alpha_affinity
    from resourcekit.errors import WitnessEncodingError
    from resourcekit.states import basis_pure, pure_state, random_mixed
    from resourcekit.indicators import _scored

    rho = random_mixed((2, 2), 4, [SEED, 1])
    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    with pytest.raises(WitnessEncodingError):
        _scored(rho, "separable", 2, [(0.5, basis_pure((2, 2), 0)), (0.5, bell)], 0.5)
    product = basis_pure((2, 2), 1)
    assert _scored(rho, "separable", 2, [(2.0, product)], 0.5) == pytest.approx(
        alpha_affinity(rho, product.projector(), 0.5), abs=1e-12)


def test_depth_violation_fails_a_certificate(monkeypatch):
    # a partition table that merges every part breaks the depth
    # correspondence; the suite must report failing certificates, not raise
    def merged(stack, dims):
        return [(tuple(range(len(dims))),)] * len(stack)

    monkeypatch.setattr("resourcekit.embedding._finest_parts", merged)
    certs = run_suite("embedding", 1, 2)
    assert all_passed(certs) is False
    assert not summarize(certs)["depth-separability"]["passed"]


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts the matrices decomposed through numpy.linalg's eigh and
    eigvalsh in [0] (a stack counts each of its matrices) and the calls
    in [1]."""
    from math import prod


    counts = [0, 0]
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, **kwargs):
            counts[0] += prod(np.shape(a)[:-2])
            counts[1] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def test_channel_certificates_decompose_each_state_once(eig_calls):
    # sample 0: a qubit pair and a two-outcome projective measurement.  One
    # eigh per validated state (rho, sigma), one per conjugate K rho K^dag
    # and K sigma K^dag (2 x 2), shared by all four channel certificates,
    # and two for the block-diagonal pair; A(rho, sigma) reads the cache
    from resourcekit.verify import run_appendix_b
    run_appendix_b(SEED, 1)
    assert eig_calls[0] == 2 + 4 + 2


def test_affinity_props_reuse_each_state_spectrum(eig_calls):
    # sample 0 (d = 2): one eigh per validated state (rho, sigma, both
    # rotations, rho2, sigma2, rho_b, sigma_b, both mixtures, both channel
    # images), one per tensor product on first use, one trace distance, and
    # the two conjugates of each of the two channel outcomes; every other
    # affinity reads the states' cached spectra
    from resourcekit.verify import run_affinity_props
    run_affinity_props(SEED, 1)
    assert eig_calls[0] == 12 + 2 + 1 + 4


# The suites evaluate their samples in groups, as stacks; the per-sample
# loops they replaced are kept in reference_suites.py.
def _stacked(name, seed, n):
    from resourcekit.verify import run_theorem1
    if name == "theorem1":
        return run_theorem1(seed, n, n_constructive=0)
    return run_suite(name, seed, n)


def _reference(name):
    import reference_suites
    return {"affinity-props": reference_suites.affinity_props,
            "appendix-b": reference_suites.appendix_b,
            "theorem1": reference_suites.theorem1_order2,
            "embedding": reference_suites.embedding}[name]


STACKED_SUITES = ("affinity-props", "appendix-b", "theorem1", "embedding")


@pytest.mark.parametrize("name", STACKED_SUITES)
@pytest.mark.parametrize("seed", [SEED, 3, 77])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_stacked_suites_equal_the_per_sample_loops(name, seed, n):
    assert _stacked(name, seed, n) == _reference(name)(seed, n)


@pytest.mark.parametrize("name,n", [("affinity-props", 24), ("appendix-b", 36),
                                    ("theorem1", 44), ("embedding", 21)])
@pytest.mark.parametrize("seed", [5, 2 ** 40 + 11])
def test_stacked_suites_equal_the_per_sample_loops_at_workload_size(name, n, seed):
    from resourcekit.affinity import certificates_to_csv
    stacked, reference = _stacked(name, seed, n), _reference(name)(seed, n)
    assert stacked == reference
    assert certificates_to_csv(stacked) == certificates_to_csv(reference)


@pytest.mark.parametrize("name,n", [("affinity-props", 24), ("appendix-b", 36),
                                    ("theorem1", 44)])
def test_suites_decompose_per_group_not_per_sample(eig_calls, name, n):
    # a workload-sized call decomposes several matrices per eigh call, and
    # twice the samples take the same eigh calls: their count is fixed by
    # the groups (shapes and exponents), not by the samples
    _stacked(name, SEED, n)
    matrices, calls = eig_calls
    assert 5 * calls < matrices
    _stacked(name, SEED, 2 * n)
    assert eig_calls[1] == 2 * calls


# The embedding suite reads every sample's depths off one partition table;
# reference_suites.py keeps the recursive factorization it ran per sample.
@pytest.mark.parametrize("seed", [1, 5, 77])
@pytest.mark.parametrize("n", [0, 1, 7, 21])
def test_embedding_depths_equal_the_recursive_factorization(seed, n):
    import reference_suites
    assert run_suite("embedding", seed, n) == reference_suites.embedding(seed, n)


# Both theorem suites check convexity, monotonicity and subadditivity through
# one definition of each transported claim; reference_suites.py keeps the two
# suites' own transports they replaced.
@pytest.mark.parametrize("seed", [SEED, 77])
def test_shared_claims_equal_each_suites_own_transports(seed):
    import reference_suites
    from resourcekit.verify import run_theorem1, run_theorem2
    assert run_theorem1(seed, 6, n_constructive=3) == (
        reference_suites.theorem1_order2(seed, 6)
        + reference_suites.theorem1_constructive(seed, 3))
    # n = 4 covers both dims and both family kinds of every theorem2 claim
    assert run_theorem2(seed, 4) == reference_suites.theorem2(seed, 4)
