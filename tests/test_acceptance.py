"""End-to-end acceptance gate.

Each test exercises one exit criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to
see them).  Tolerances are pinned here and in the suite tolerance table;
nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

import resourcekit as rk
from resourcekit.cli import main
from resourcekit.verify import all_passed, run_suite, summarize

SEED = 20250808


def _report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_closed_form_oracle_agreement():
    t0 = time.time()
    worst = 0.0
    bad_witnesses = 0
    for d in (2, 3, 4):
        for i in range(50):
            rho = rk.random_mixed([d], d, seed=[SEED, 1, d, i])
            for alpha in (0.3, 0.5, 0.7):
                res = rk.multilevel_coherence(rho, 2, alpha, seed=[SEED, 2, d, i],
                                              restarts=1, max_iter=100)
                cf_plain, _ = rk.closed_form_k2(rho, alpha)
                worst = max(worst, abs(res.value - cf_plain))
                bad_witnesses += not rk.check_witness(res, rho)
    elapsed = time.time() - t0
    _report(1, worst <= 1e-6 and bad_witnesses == 0 and elapsed < 60.0,
            f"indicator vs closed form on 450 runs: worst |diff| = {worst:.2e}, "
            f"{bad_witnesses} witnesses failing revalidation, {elapsed:.1f}s (< 60s)")


def test_criterion_2_derived_anchor_values():
    plus = rk.pure_state([1, 1]).projector()
    res_p = rk.multilevel_coherence(plus, 2, 0.5, seed=SEED, restarts=1, max_iter=150)
    res_a = rk.multilevel_coherence(plus, 2, 0.5, "avg", seed=SEED,
                                    restarts=1, max_iter=150)
    mx3 = rk.pure_state([1, 1, 1]).projector()
    res_q = rk.multilevel_coherence(mx3, 2, 0.5, seed=SEED, restarts=1, max_iter=150)
    err_p = abs(res_p.value - (1.0 - 2.0 ** -0.5))
    err_a = abs(res_a.value - 0.5)
    err_q = abs(res_q.value - (1.0 - 3.0 ** -0.5))
    ok = err_p <= 1e-9 and err_a <= 1e-9 and err_q <= 1e-9
    _report(2, ok, f"anchor errors: plus {err_p:.2e}, plus-avg {err_a:.2e}, "
                   f"qutrit {err_q:.2e} (all <= 1e-9)")


def test_criterion_3_affinity_property_suite():
    t0 = time.time()
    certs = run_suite("affinity-props", SEED, 500)
    elapsed = time.time() - t0
    summary = summarize(certs)
    counts_ok = all(summary[label]["count"] >= 500 for label in
                    ("self-affinity", "unitary-invariance", "multiplicativity",
                     "joint-concavity", "cptp-monotonicity", "selective-loss"))
    counts_ok &= summary["bounds"]["count"] >= 1000
    counts_ok &= summary["separation"]["count"] >= 450
    _report(3, all_passed(certs) and counts_ok and elapsed < 180.0,
            f"core affinity properties over >= 500 instances each, "
            f"worst deficits ok, {elapsed:.1f}s (< 180s)")


def test_criterion_4_scalar_certificate_suite():
    t0 = time.time()
    certs = run_suite("appendix-b", SEED, 500)
    elapsed = time.time() - t0
    summary = summarize(certs)
    counts_ok = all(summary[label]["count"] >= 500 for label in
                    ("holder-negative-exponent", "power-mean",
                     "selective-power-sum", "kraus-sum-dominance",
                     "selective-loss", "block-diagonal-equality"))
    _report(4, all_passed(certs) and counts_ok and elapsed < 120.0,
            f"scalar and channel certificates over >= 500 instances each, "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_5_coherence_indicator_suite():
    certs = run_suite("theorem1", SEED, None)
    summary = summarize(certs)
    closed = ("order2-convexity", "order2-channel-monotonicity",
              "order2-avg-monotonicity", "order2-tensor-subadditivity")
    constructive = ("order3-witness-convexity", "order3-witness-avg-monotonicity",
                    "order3-witness-channel-monotonicity",
                    "order3-witness-tensor-subadditivity")
    counts_ok = all(summary[label]["count"] >= 300 for label in closed)
    counts_ok &= all(summary[label]["count"] >= 30 for label in constructive)
    _report(5, all_passed(certs) and counts_ok,
            "coherence indicator properties: closed forms (>=300 each, "
            "slack >= -1e-9) and order-3 witness transport (>=30 each, "
            "slack >= -1e-8)")


def test_criterion_6_correlation_indicator_suite():
    t0 = time.time()
    certs = run_suite("theorem2", SEED, 30)
    elapsed = time.time() - t0
    summary = summarize(certs)
    labels = ("zero-on-members", "local-unitary-witness",
              "witness-mixing-convexity", "locc-avg-monotonicity",
              "locc-monotonicity", "tensor-subadditivity", "family-nesting")
    counts_ok = all(summary[label]["count"] >= 30 for label in labels)
    _report(6, all_passed(certs) and counts_ok and elapsed < 600.0,
            f"correlation indicator properties over >= 30 instances each, "
            f"{elapsed:.1f}s (< 600s)")


def test_criterion_7_embedding_depth_correspondence():
    certs = run_suite("embedding", SEED, 100)
    summary = summarize(certs)
    counts_ok = (summary["depth-separability"]["count"] == 300
                 and summary["depth-entanglement"]["count"] == 300)
    exact = (summary["depth-separability"]["min_slack"] == 0.0
             and summary["depth-entanglement"]["min_slack"] == 0.0)
    _report(7, all_passed(certs) and counts_ok and exact,
            "rank/depth correspondence exact on 100 sampled pure states per "
            "dimension, zero failures")


def test_criterion_8_witness_transport_suite():
    t0 = time.time()
    certs = run_suite("theorem3", SEED, 20)
    elapsed = time.time() - t0
    summary = summarize(certs)
    transports = ("transport-nonseparability", "transport-nonseparability-avg",
                  "transport-entanglement", "transport-entanglement-avg")
    counts_ok = all(summary[label]["count"] == 60 for label in transports)
    feasible = (summary["transport-witness-feasible"]["count"] == 60
                and summary["transport-witness-feasible"]["min_slack"] == 0.0)
    _report(8, all_passed(certs) and counts_ok and feasible and elapsed < 600.0,
            f"four transported inequalities on 20 states per (d, k), all "
            f"witnesses feasible, {elapsed:.1f}s (< 600s)")


def test_criterion_9_verify_all_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["verify", "--suite", "all", "--seed", str(SEED),
                     "--n-samples", "2", "--out", str(out)])
        assert code == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report(9, identical, "verify-all CSV byte-identical across two runs "
                          f"({out1.stat().st_size} bytes)")
