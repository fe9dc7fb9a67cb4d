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
                                    ("theorem1", 12), ("embedding", 10)])
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
        n = 2 if name in ("theorem2", "theorem3") else 6
        for cert in run_suite(name, SEED, n):
            assert cert.label in TOLERANCES


def test_run_suite_all_and_unknown():
    certs = run_suite("all", SEED, 2)
    assert all_passed(certs)
    with pytest.raises(ValueError):
        run_suite("nonsense", SEED, 2)


def test_suites_are_deterministic():
    from resourcekit.affinity import certificates_to_csv
    a = certificates_to_csv(run_suite("appendix-b", SEED, 10))
    b = certificates_to_csv(run_suite("appendix-b", SEED, 10))
    assert a == b
