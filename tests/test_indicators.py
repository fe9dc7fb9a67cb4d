import dataclasses
import os
import subprocess
import sys
import zlib
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resourcekit as rk
from resourcekit.errors import BadWeights, KOutOfRange, WitnessEncodingError
from resourcekit.indicators import (
    _STALL,
    _STEPS,
    LABELS,
    _evaluate,
    _line_search,
    _value,
    max_affinity,
)

from members import mixture, random_members
from oracles import (
    BELL_SEPARABLE_MAX_HALF,
    max_affinity_support,
    qutrit_two_level_max,
)

ALPHAS = (0.3, 0.5, 0.7)


def test_closed_form_diagonal_state_is_zero():
    rho = rk.validate(np.diag([0.5, 0.3, 0.2]), [3])
    for alpha in ALPHAS:
        plain, avg = rk.closed_form_k2(rho, alpha)
        assert abs(plain) <= 1e-12
        assert abs(avg) <= 1e-12


def test_closed_form_plus_state_anchor():
    plus = rk.pure_state([1, 1]).projector()
    plain, avg = rk.closed_form_k2(plus, 0.5)
    assert plain == pytest.approx(1.0 - 2.0 ** -0.5, abs=1e-9)
    assert avg == pytest.approx(0.5, abs=1e-9)


def test_closed_form_maximally_coherent_qudit():
    for d in (3, 4):
        psi = rk.pure_state(np.ones(d)).projector()
        for alpha in ALPHAS:
            plain, _ = rk.closed_form_k2(psi, alpha)
            assert plain == pytest.approx(1.0 - d ** (alpha - 1.0), abs=1e-9)


def test_max_affinity_reaches_family_members():
    fam = rk.build_family("multilevel", (3,), 2)
    comps = random_members("multilevel", (3,), 2, 0)
    rho = mixture(comps, (3,))
    res = max_affinity(rho, fam, 0.5, seed=1, max_iter=100,
                       witness=comps)
    assert res.affinity >= 1.0 - 1e-6


def test_optimizer_matches_closed_form_without_injection():
    # no search runs at support size 1: max_affinity answers it with the
    # closed form, whatever the effort
    for d, i in ((2, 0), (2, 1), (3, 2)):
        rho = rk.random_mixed([d], d, seed=[20, i])
        fam = rk.build_family("multilevel", (d,), 1)
        res = max_affinity(rho, fam, 0.5, seed=[21, i], max_iter=1500)
        cf = 1.0 - rk.closed_form_k2(rho, 0.5)[0]
        assert res.affinity == pytest.approx(cf, abs=1e-6)


def test_closed_form_inside_frank_wolfe_bracket():
    # the independent oracle certifies [lb, ub] around the order-2 maximum,
    # on full-rank and on rank-deficient (singular) states
    for d in (2, 3, 4):
        cases = [(rk.random_mixed([d], d, seed=[22, d, i]), alpha)
                 for i, alpha in enumerate((0.3, 0.5, 0.7, 0.5))]
        cases += [(rk.random_mixed([d], rank, seed=[22, d, rank]), alpha)
                  for rank in range(1, d) for alpha in (0.3, 0.5, 0.7)]
        for rho, alpha in cases:
            lb, ub = max_affinity_support(rho.data, alpha, 1)
            cf = 1.0 - rk.closed_form_k2(rho, alpha)[0]
            assert lb - 1e-9 <= cf <= ub + 1e-9


def test_max_affinity_rejects_witness_that_fits_no_slot():
    # multilevel: a component on more levels than the family allows
    rho = rk.random_mixed([3], 3, seed=23)
    fam = rk.build_family("multilevel", (3,), 1)
    with pytest.raises(WitnessEncodingError):
        max_affinity(rho, fam, 0.5, seed=24, max_iter=0,
                     witness=[(1.0, rk.pure_state([1, 1, 0]))])
    # correlation: a component that is not a product across any partition
    rho = rk.random_mixed([2, 2], 4, seed=25)
    fam = rk.build_family("separable", (2, 2), 2)
    with pytest.raises(WitnessEncodingError):
        max_affinity(rho, fam, 0.5, seed=24, max_iter=0,
                     witness=[(1.0, rk.pure_state([1, 0, 0, 1], (2, 2)))])


def _same_result(a, b):
    return (a.witness.data.tobytes() == b.witness.data.tobytes()
            and a.iterations == b.iterations)


def test_unread_arguments_change_nothing():
    rho = rk.random_mixed([2, 2], 4, seed=30)
    # compute_indicator drops m and restarts, theorem3_check drops restarts
    for label, state in (("coherence", rk.random_mixed([3], 3, seed=32)),
                         ("nonseparability_avg", rho)):
        plain = rk.compute_indicator(state, label, 2, 0.5, seed=33, max_iter=100)
        extra = rk.compute_indicator(state, label, 2, 0.5, seed=33, max_iter=100,
                                     restarts=3, m=5)
        assert extra.value == plain.value and _same_result(extra, plain)
    qutrit = rk.random_mixed([3], 3, seed=34)
    assert (rk.theorem3_check(qutrit, 3, 0.5, seed=35, max_iter=50, restarts=3)
            == rk.theorem3_check(qutrit, 3, 0.5, seed=35, max_iter=50))
    # nothing below them takes either argument
    with pytest.raises(TypeError):
        rk.multilevel_coherence(qutrit, 3, 0.5, seed=35, restarts=3)
    with pytest.raises(TypeError):
        rk.multipartite_correlation(rho, "nonseparability", 2, 0.5, seed=35, m=5)


def test_correlation_witness_start_reads_the_membership_rule():
    # e2 = 3e-10 passes the factorization reader's purity threshold but not
    # encode's fidelity check: the component is a product for
    # is_feasible_pure, so the solve must start from it
    e2 = 3e-10
    psi = rk.pure_state([np.sqrt(1 - e2), 0, 0, np.sqrt(e2)], (2, 2))
    assert rk.is_feasible_pure("separable", 2, psi)
    rho = rk.random_mixed([2, 2], 4, seed=26)
    fam = rk.build_family("separable", (2, 2), 2)
    start = rk.alpha_affinity(rho, psi.projector(), 0.5)
    for max_iter in (0, 100):
        res = max_affinity(rho, fam, 0.5, seed=27, max_iter=max_iter, witness=[(1.0, psi)])
        assert res.affinity >= start - 1e-9
        as_result = rk.multipartite_correlation(rho, "nonseparability", 2, 0.5, seed=27,
                                                max_iter=max_iter, witness=[(1.0, psi)])
        assert rk.check_witness(as_result, rho)


def test_max_affinity_witness_consistency():
    rho = rk.random_mixed([3], 3, seed=32)
    fam = rk.build_family("multilevel", (3,), 2)
    res = max_affinity(rho, fam, 0.7, seed=33, max_iter=300)
    assert rk.alpha_affinity(rho, res.witness, 0.7) == pytest.approx(
        res.affinity, abs=1e-9)
    assert sum(c.weight for c in res.components) == pytest.approx(1.0, abs=1e-9)


def test_multilevel_coherence_k2_matches_closed_form():
    for i in range(6):
        d = 2 + i % 3
        rho = rk.random_mixed([d], d, seed=[40, i])
        for alpha in ALPHAS:
            result = rk.multilevel_coherence(rho, 2, alpha, seed=[41, i],
                                             max_iter=150)
            cf_plain, _ = rk.closed_form_k2(rho, alpha)
            assert result.value == pytest.approx(cf_plain, abs=1e-6)


def test_multilevel_coherence_k2_witness_carries_closed_form():
    # the closed-form value always comes with the witness that attains it,
    # whatever the optimizer options
    rho = rk.random_mixed([3], 3, seed=1)
    cf_plain, cf_avg = rk.closed_form_k2(rho, 0.5)
    for opts in ({}, {"max_iter": 50}, {"max_iter": 0}):
        plain = rk.multilevel_coherence(rho, 2, 0.5, seed=2, **opts)
        avg = rk.multilevel_coherence(rho, 2, 0.5, "avg", seed=2, **opts)
        for res in (plain, avg):
            assert rk.check_witness(res, rho)
            assert res.iterations == 0
            assert res.affinity_upper == res.best_affinity
        assert plain.value == cf_plain
        assert avg.value == pytest.approx(cf_avg, abs=1e-12)


def test_multilevel_coherence_plus_anchor():
    plus = rk.pure_state([1, 1]).projector()
    res = rk.multilevel_coherence(plus, 2, 0.5, seed=7, max_iter=100)
    assert res.value == pytest.approx(1.0 - 2.0 ** -0.5, abs=1e-9)
    res_avg = rk.multilevel_coherence(plus, 2, 0.5, "avg", seed=7,
                                      max_iter=100)
    assert res_avg.value == pytest.approx(0.5, abs=1e-9)


def test_multilevel_coherence_qutrit_order3_anchor():
    # frozen oracle: symmetric two-level mixture caps the affinity at
    # (2/3)^(1-alpha); certified by the Frank-Wolfe bracket in oracles.py
    mx3 = rk.pure_state([1, 1, 1]).projector()
    for alpha in ALPHAS:
        res = rk.multilevel_coherence(mx3, 3, alpha, seed=11)
        assert res.value == pytest.approx(1.0 - qutrit_two_level_max(alpha), abs=1e-9)


def _noisy_plus(d, fidelity):
    plus = np.ones((d, d)) / d
    return rk.validate(fidelity * plus + (1 - fidelity) * (np.eye(d) - plus) / (d - 1), [d])


def test_multilevel_coherence_exact_on_noisy_plus_states():
    # Basis permutations fix rho and the family, so by concavity some optimum
    # is permutation invariant: a mixture of |+_d> and its complement, with
    # fidelity to |+_d> at most (k-1)/d in multilevel(k-1).  Hence
    # max A = F^a f^(1-a) + (1-F)^a (1-f)^(1-a) with f = min(F, (k-1)/d).
    for d in range(3, 7):
        for k in range(3, d + 1):
            for alpha in ALPHAS:
                for fid in (1.0, 0.9, 0.6, 0.3, 1.0 / d):
                    f = min(fid, (k - 1) / d)
                    exact = (fid ** alpha * f ** (1 - alpha)
                             + (1 - fid) ** alpha * (1 - f) ** (1 - alpha))
                    res = rk.multilevel_coherence(_noisy_plus(d, fid), k, alpha, seed=1)
                    assert abs(res.best_affinity - exact) <= 1e-9
                    assert res.best_affinity - 1e-12 <= exact <= res.affinity_upper + 1e-12


def test_multilevel_coherence_singular_optimum():
    # two three-level states mix into a rank-2 ququart inside multilevel(3):
    # the optimum is rho itself, where the gradient of sigma^(1-alpha) blows up
    rng = np.random.default_rng(7)
    comps = []
    for weight, levels in ((0.6, [0, 1, 2]), (0.4, [1, 2, 3])):
        amps = np.zeros(4, dtype=complex)
        amps[levels] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        comps.append((weight, rk.pure_state(amps)))
    rho = rk.validate(sum(w * psi.projector().data for w, psi in comps), [4])
    for alpha in ALPHAS:
        res = rk.multilevel_coherence(rho, 4, alpha, seed=1)
        assert res.best_affinity >= 1.0 - 1e-9
        assert rk.check_witness(res, rho)


def test_multilevel_coherence_agrees_with_oracle_both_sides():
    # each side's lower end stays below the other side's upper end
    cases = ((3, 3, 0.3), (3, 3, 0.5), (3, 3, 0.7), (4, 3, 0.3), (4, 4, 0.5), (4, 3, 0.7))
    for i, (d, k, alpha) in enumerate(cases):
        rho = rk.random_mixed([d], d, seed=[140, i])
        lb, ub = max_affinity_support(rho.data, alpha, k - 1, iters=300)
        res = rk.multilevel_coherence(rho, k, alpha, seed=[141, i])
        assert lb - 1e-9 <= res.affinity_upper
        assert res.best_affinity <= ub + 1e-9
        assert res.best_affinity <= res.affinity_upper


def test_qutrit_anchor_recompute_via_frank_wolfe():
    mx3 = rk.pure_state([1, 1, 1]).projector()
    lb, ub = max_affinity_support(mx3.data, 0.5, 2, iters=3000, gap_stop=1e-4)
    assert lb - 1e-9 <= qutrit_two_level_max(0.5) <= ub + 1e-9


def test_multilevel_coherence_zero_on_low_rank_mixtures():
    comps = random_members("multilevel", (3,), 2, 3)
    rho = mixture(comps, (3,))
    res = rk.multilevel_coherence(rho, 3, 0.5, seed=5, max_iter=100, witness=comps)
    assert res.value <= 1e-6


def test_multilevel_coherence_k_range():
    rho = rk.random_mixed([3], 3, seed=50)
    with pytest.raises(KOutOfRange):
        rk.multilevel_coherence(rho, 1, 0.5, seed=1)
    with pytest.raises(KOutOfRange):
        rk.multilevel_coherence(rho, 4, 0.5, seed=1)


def test_correlation_zero_on_product_state():
    psi = rk.tensor_pure(rk.random_pure([2], seed=60), rk.random_pure([2], seed=61))
    rho = psi.projector()
    wit = [(1.0, psi)]
    for kind, k in (("nonseparability", 1), ("nonseparability", 2),
                    ("entanglement", 2), ("entanglement", 3)):
        res = rk.multipartite_correlation(rho, kind, k, 0.5, seed=62, max_iter=100,
                                          witness=wit)
        assert res.value <= 1e-6


def test_bell_nonseparability_anchor():
    # from symmetric-state analysis (tests/oracles.py, BELL_SEPARABLE_MAX_HALF);
    # no certified search re-derives it
    bell = rk.pure_state([1, 0, 0, 1], (2, 2)).projector()
    res = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5,
                                      seed=70, max_iter=2000)
    assert res.value == pytest.approx(1.0 - BELL_SEPARABLE_MAX_HALF, abs=1e-9)
    assert res.affinity_upper == 1.0
    assert rk.check_witness(res, bell)


def test_bell_value_monotone_in_effort():
    # more iterations from the same seeded start never lower the affinity
    rho = rk.random_mixed([2, 2, 2], 8, seed=71)
    values = [rk.multipartite_correlation(rho, "entanglement", 2, 0.5, seed=71,
                                          max_iter=max_iter).best_affinity
              for max_iter in (0, 5, 20, 200)]
    assert values == sorted(values)
    bell = rk.pure_state([1, 0, 0, 1], (2, 2)).projector()
    weak = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5, seed=71, max_iter=3)
    strong = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5, seed=71,
                                         max_iter=400)
    assert strong.value <= weak.value + 1e-12


def _isotropic(d, fid):
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(phi, phi)
    return rk.validate(fid * proj + (1 - fid) * (np.eye(d * d) - proj) / (d * d - 1), [d, d])


def _werner(d, anti):
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    p_anti, p_sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
    return rk.validate(anti * p_anti / (d * (d - 1) / 2)
                       + (1 - anti) * p_sym / (d * (d + 1) / 2), [d, d])


def test_correlation_exact_on_isotropic_states():
    # U (x) U* fixes rho and both families, so by concavity some optimum is
    # isotropic, and an isotropic state is separable iff its fidelity to
    # Phi+ is at most 1/d: max A = F^a f^(1-a) + (1-F)^a (1-f)^(1-a), with
    # f = min(F, 1/d).  Werner states, fixed by U (x) U, are separable iff
    # their antisymmetric weight is at most 1/2: the same formula with F
    # that weight and f = min(F, 1/2).  On two parties both labels solve
    # separable(2).
    for d in (2, 3):
        for fid in (0.9, 0.7, 0.4):
            for rho, f in ((_isotropic(d, fid), min(fid, 1.0 / d)),
                           (_werner(d, fid), min(fid, 0.5))):
                for alpha in ALPHAS:
                    exact = (fid ** alpha * f ** (1 - alpha)
                             + (1 - fid) ** alpha * (1 - f) ** (1 - alpha))
                    for label in ("nonseparability", "entanglement"):
                        res = rk.compute_indicator(rho, label, 2, alpha, seed=1, max_iter=200)
                        assert abs(res.best_affinity - exact) <= 1e-9


def _noisy_ghz(p):
    ghz = np.zeros(8)
    ghz[[0, 7]] = 2 ** -0.5
    return rk.validate(p * np.outer(ghz, ghz) + (1 - p) * np.eye(8) / 8, (2, 2, 2))


def _ghz_producible_max(p, alpha):
    """max over z in [0, 1/8] of p0^a ((1-4z)/2)^b + q^a ((1-8z)/2)^b + 6 q^a z^b,
    concave in z: bisection on the sign of its derivative."""
    beta, p0, q = 1.0 - alpha, p + (1 - p) / 8, (1 - p) / 8
    if p <= 0.2:
        return 1.0
    lo, hi = 0.0, 0.125
    for _ in range(100):
        z = (lo + hi) / 2
        slope = (-2 * p0 ** alpha * ((1 - 4 * z) / 2) ** (beta - 1)
                 - 4 * q ** alpha * ((1 - 8 * z) / 2) ** (beta - 1)
                 + 6 * q ** alpha * z ** (beta - 1))
        lo, hi = (z, hi) if slope > 0 else (lo, z)
    z = (lo + hi) / 2
    return (p0 ** alpha * ((1 - 4 * z) / 2) ** beta + q ** alpha * ((1 - 8 * z) / 2) ** beta
            + 6 * q ** alpha * z ** beta)


@pytest.mark.parametrize("p", [0.15, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_correlation_exact_on_noisy_ghz_states(p, alpha):
    # rho_p = p |GHZ_3><GHZ_3| + (1 - p) I/8, largest GHZ-basis weight
    # p0 = p + (1 - p)/8, the others q = (1 - p)/8.  Over GHZ-diagonal
    # states, A = sum_i p_i^a s_i^b.  A GHZ-diagonal state is biseparable
    # iff its largest weight is at most 1/2 (Guehne & Seevinck, NJP 12,
    # 053002 (2010)), so max A over separable(2) is 1 for p0 <= 1/2 and else
    # 2^-b (p0^a + (1 - p0)^a).  For producible(1) the value is the maximum
    # of A over the states that are PPT across every cut, on the face left by
    # symmetry (_ghz_producible_max), 1 for p <= 1/5.  The default solve
    # meets both to 1e-9
    beta, p0 = 1.0 - alpha, p + (1 - p) / 8
    rho = _noisy_ghz(p)
    for label, exact in (
            ("nonseparability", 1.0 if p0 <= 0.5 else 2 ** -beta * (p0 ** alpha + (1 - p0) ** alpha)),
            ("entanglement", _ghz_producible_max(p, alpha))):
        res = rk.compute_indicator(rho, label, 2, alpha, seed=0)
        assert abs(res.best_affinity - exact) <= 1e-9
        assert rk.check_witness(res, rho)


@pytest.mark.parametrize("kind,dims,k", [("multilevel", (3,), 2), ("separable", (2, 2), 2)])
def test_a_start_better_than_the_ascent_is_kept(kind, dims, k, monkeypatch):
    # no solve ends below its start, so the branch that keeps the start is
    # forced: from a solved witness, a stand-in L-BFGS scores the start, then
    # returns a worse point (all factors 1 + 1j).  The result is the
    # max_iter=0 result, the start scored, with its certified bound where
    # the hull has one
    from resourcekit import indicators
    rho = rk.random_mixed(list(dims), prod(dims), seed=136)
    family = rk.build_family(kind, dims, k)
    witness = max_affinity(rho, family, 0.5, seed=137).components
    start = max_affinity(rho, family, 0.5, seed=137, witness=witness, max_iter=0)

    def worse(fun, x, maxiter):
        f_start = fun(x.copy())[0]
        y = np.ones_like(x)
        assert fun(y.copy())[0] > f_start + 0.01    # -f: y is worse
        return y, 1
    monkeypatch.setattr(indicators, "_lbfgs", worse)
    res = max_affinity(rho, family, 0.5, seed=137, witness=witness, max_iter=1)
    assert res.iterations == 1
    assert res.affinity == start.affinity and res.upper == start.upper
    assert res.witness.data.tobytes() == start.witness.data.tobytes()
    assert [(w, psi.amps.tobytes()) for w, psi in res.components] == [
        (w, psi.amps.tobytes()) for w, psi in start.components]
    assert res.upper >= res.affinity
    assert (res.upper < 1.0) == (kind == "multilevel")


@pytest.mark.parametrize("k", [2.5, 3.9, True, np.float64(2.5)])
def test_orders_are_refused_not_truncated(k):
    # int(k) read 3.9 as 3; 2.5 reached itertools as a TypeError
    rho = rk.random_mixed([2, 2, 2], 8, seed=139)
    for label in ("coherence", "nonseparability", "entanglement_avg"):
        with pytest.raises(ValueError, match="k must be"):
            rk.compute_indicator(rho, label, k, 0.5, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            rk.indicator_suite(rho, [0.5], [(label, k)], seed=0)


def test_numpy_integer_orders_report_as_ints():
    import json
    rho = rk.random_mixed([3], 3, seed=140)
    rows = rk.indicator_suite(rho, [0.5], [("coherence", np.int64(3))], seed=0, max_iter=20)
    assert type(rows[0].k) is int
    assert json.loads(rk.results_to_json(rows))["results"][0]["k"] == 3


def test_correlation_beats_the_product_oracle_bracket():
    # the oracle's upper end is not an upper bound: an explicit product
    # mixture reaches above its 0.98312347 here
    rho = rk.random_mixed([2, 2], 4, seed=[9, 0])
    res = rk.compute_indicator(rho, "nonseparability", 2, 0.3, seed=1, max_iter=200)
    assert res.best_affinity >= 0.98330
    assert rk.check_witness(res, rho)


def test_no_nelder_mead_anywhere(monkeypatch):
    # every optimizer call of the correlation suite and of each correlation
    # label is L-BFGS-B on the hull, run by _lbfgs, with an uncertified
    # upper end; scipy's minimize wrapper is on no solve path
    from resourcekit import indicators
    from resourcekit.verify import all_passed, run_suite
    runs = []
    original = indicators._lbfgs

    def recording(fun, x, maxiter):
        runs.append(maxiter)
        return original(fun, x, maxiter)

    def refused(*args, **kwargs):
        raise AssertionError("scipy.optimize.minimize reached from a solve")

    monkeypatch.setattr(indicators, "_lbfgs", recording)
    monkeypatch.setattr(indicators, "minimize", refused)
    assert all_passed(run_suite("theorem2", 3, 4))
    suite_runs = len(runs)
    rho = rk.random_mixed([2, 2, 2], 8, seed=72)
    for label in LABELS[2:]:
        res = rk.compute_indicator(rho, label, 2, 0.5, seed=73, max_iter=100)
        assert rk.check_witness(res, rho)
        assert res.affinity_upper == 1.0
    assert 0 < suite_runs < len(runs)


IMPORT_GUARD = """
import sys
import resourcekit as rk
from resourcekit import indicators
from resourcekit.verify import all_passed
gains, search = [], indicators._line_search

def counted(*args):
    t, gain = search(*args)
    gains.append(gain)
    return t, gain

indicators._line_search = counted
rk.compute_indicator(rk.random_mixed([3], 3, seed=11), "coherence", 3, 0.5, seed=1)
rk.compute_indicator(rk.random_mixed([2, 2, 2], 8, seed=1), "entanglement", 2, 0.5,
                     seed=1, max_iter=200)
assert max(gains) > indicators._STALL, "no Frank-Wolfe step taken"
assert all_passed(rk.run_suite("theorem1", 1, 1))
assert "scipy.optimize" not in sys.modules, "scipy.optimize imported"
import scipy.optimize._lbfgsb
assert scipy.optimize._lbfgsb.setulb is indicators.setulb
"""

SCIPY_FIRST = """
import sys
import scipy.optimize._lbfgsb as loaded
from resourcekit import indicators
assert indicators.setulb is loaded.setulb
assert sys.modules["scipy.optimize._lbfgsb"] is loaded
"""


@pytest.mark.parametrize("script", [IMPORT_GUARD, SCIPY_FIRST], ids=["guard", "scipy-first"])
def test_solves_never_import_scipy_optimize(script):
    # setulb is loaded from its extension file and the line search is a
    # grid, so neither the import nor an order-3 coherence solve, a
    # producible solve that takes Frank-Wolfe steps or a theorem1 pass
    # imports the scipy.optimize package; a later import
    # of it still binds its _lbfgsb module, with the same setulb.  Where
    # scipy.optimize came first, its own module is used.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _hull_objective(hull, rho_a, beta, rejects):
    """The hull solver's objective on ``hull``'s start layout, counting its
    evaluations; where ``rejects(theta)`` holds it rejects the step, as
    _hull_max does a failed or non-finite one."""
    from resourcekit.indicators import _evaluate
    layout, calls = hull.start[1], {"fg": 0, "rejected": 0}

    def objective(theta):
        calls["fg"] += 1
        if rejects(theta):
            calls["rejected"] += 1
            return np.inf, np.zeros_like(theta)
        s, pullback = hull.map((theta.view(complex), layout))
        f, g, tr, _ = _evaluate(s, rho_a, beta)
        return -f, -pullback(g, tr).view(float)
    return objective, calls


REJECTS = {
    "none": lambda x0: lambda theta: False,
    # about one point in two past the start
    "scattered": lambda x0: lambda theta: (zlib.crc32(theta.tobytes()) % 2 == 0
                                           and theta.tobytes() != x0.tobytes()),
}


@pytest.mark.parametrize("kind,dims,k,seed", [("multilevel", (3,), 2, 74),
                                              ("producible", (2, 2, 2), 1, 77)])
@pytest.mark.parametrize("maxiter", [4, 2000])
@pytest.mark.parametrize("reject", sorted(REJECTS))
def test_lbfgs_driver_matches_scipy_bit_for_bit(kind, dims, k, seed, maxiter, reject):
    # _lbfgs drives scipy's private setulb; scipy's minimize is the
    # reference for its iterates, iteration count and evaluations: runs
    # stopped at their cap, runs to convergence (both ask for f and the
    # gradient again at an unchanged x, which the last evaluation answers),
    # and runs with steps rejected as (inf, 0)
    from scipy.optimize import minimize

    from resourcekit.feasible import _Products, _Supports
    from resourcekit.indicators import _lbfgs
    d, alpha = int(np.prod(dims)), 0.5
    rho_a = rk.frac_power(rk.random_mixed(list(dims), d, seed=seed), alpha)
    family = rk.build_family(kind, dims, k)
    hull = _Supports(family) if kind == "multilevel" else _Products(family, None, 75)
    x0 = hull.start[0].view(float)
    ours, mine = _hull_objective(hull, rho_a, 1.0 - alpha, REJECTS[reject](x0))
    theirs, ref = _hull_objective(hull, rho_a, 1.0 - alpha, REJECTS[reject](x0))
    x, nit = _lbfgs(ours, x0, maxiter)
    res = minimize(theirs, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": maxiter, "ftol": 1e-15, "gtol": 1e-12})
    assert x.tobytes() == res.x.tobytes()
    assert nit == res.nit and mine == ref
    assert (mine["rejected"] > 0) == (reject != "none")
    if reject == "none":
        assert (nit == maxiter) == (maxiter == 4)
    assert x0.tobytes() == hull.start[0].view(float).tobytes()   # the start is not written


@pytest.mark.parametrize("kind,dims,k", [
    ("separable", (2, 2), 2), ("separable", (2, 3), 2), ("separable", (2, 2, 2), 2),
    ("separable", (2, 2, 2), 3), ("producible", (2, 2, 2), 1),
    ("producible", (2, 2, 2, 2), 2), ("multilevel", (3,), 2), ("multilevel", (4,), 3)])
def test_product_pullback_matches_central_differences(kind, dims, k):
    # the pullback of a fixed Hermitian H is the gradient of Tr(H sigma(z))
    # on z's float view, also from basis states, whose rows hold exact
    # zeros (product factors, or amplitudes on a support)
    from resourcekit.feasible import _Products, _Supports
    d = int(np.prod(dims))
    rng = np.random.default_rng([120, d, k])
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    basis = [(0.5, rk.basis_pure(dims, 0)), (0.5, rk.basis_pure(dims, d - 1))]
    for witness in (None, basis):
        family = rk.build_family(kind, dims, k)
        hull = (_Supports(family, witness) if kind == "multilevel"
                else _Products(family, witness, 121))
        z, layout = hull.start

        def value(theta):
            return np.real(np.sum(h * hull.map((theta.view(complex), layout))[0].T))

        theta, step = z.view(float).copy(), 1e-6
        grad = hull.map((z, layout))[1](h, value(theta)).view(float)
        assert np.isfinite(grad).all()
        diffs = np.array([(value(theta + step * e) - value(theta - step * e)) / (2 * step)
                          for e in np.eye(len(theta))])
        assert np.abs(grad - diffs).max() <= 1e-7 * np.abs(diffs).max()


@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3)])
def test_multilevel_frank_wolfe_reaches_the_maximum(d, k, monkeypatch):
    # from one basis state, L-BFGS cannot leave the start's support: only
    # Frank-Wolfe steps add the rows that reach the maximum found from I/d
    from resourcekit import feasible
    calls = []

    def counted(self, x, t, where, original=feasible._Supports.add):
        calls.append(t)
        return original(self, x, t, where)
    monkeypatch.setattr(feasible._Supports, "add", counted)
    rho, family = rk.random_mixed([d], 2, seed=[125, d, k]), rk.build_family("multilevel", (d,), k)
    best = rk.max_affinity(rho, family, 0.5, seed=0).affinity
    calls.clear()
    res = rk.max_affinity(rho, family, 0.5, seed=0, witness=[(1.0, rk.basis_pure((d,), 0))],
                          max_iter=2000)
    assert calls
    assert abs(res.affinity - best) <= 1e-12
    assert res.upper >= best


def test_no_oracle_answer_is_discarded(monkeypatch):
    # the oracle runs where its answer decides a step or certifies the
    # upper bound; a correlation solve stopped at its cap has neither
    from resourcekit import feasible
    calls = []
    for hull in (feasible._Supports, feasible._Products):
        def counted(self, g, tr, original=hull.oracle):
            calls.append(type(self).__name__)
            return original(self, g, tr)
        monkeypatch.setattr(hull, "oracle", counted)
    rho = rk.random_mixed([2, 2, 2], 8, seed=122)
    for label in LABELS[2:]:
        rk.compute_indicator(rho, label, 2, 0.5, seed=123, max_iter=0)
    assert calls == []
    rk.compute_indicator(rk.random_mixed([3], 3, seed=124), "coherence", 3, 0.5, seed=123,
                         max_iter=0)
    assert calls == ["_Supports"]
    res = rk.compute_indicator(rho, "entanglement", 2, 0.5, seed=123, max_iter=20)
    assert res.iterations == 20 and calls == ["_Supports"]


def _counted_solve(monkeypatch, solve):
    """``solve()`` with the hull solver's evaluations (their f), oracle
    calls and line searches recorded."""
    from resourcekit import feasible, indicators
    seen = {"f": [], "oracle": 0, "line_search": 0}
    evaluate, search = indicators._evaluate, indicators._line_search

    def evaluated(*args):
        out = evaluate(*args)
        seen["f"].append(out[0])
        return out

    def searched(*args):
        seen["line_search"] += 1
        return search(*args)
    for hull in (feasible._Supports, feasible._Products):
        def counted(self, g, tr, original=hull.oracle):
            seen["oracle"] += 1
            return original(self, g, tr)
        monkeypatch.setattr(hull, "oracle", counted)
    monkeypatch.setattr(indicators, "_evaluate", evaluated)
    monkeypatch.setattr(indicators, "_line_search", searched)
    return solve(), seen


def test_a_member_solve_stops_at_affinity_one(monkeypatch):
    # the affinity is at most 1, so a separable(2) solve on a mixture of
    # its products ends at its first evaluation at 1 - 1e-12 or above: the
    # first L-BFGS iterate there ends the run, and neither the oracle nor a
    # line search runs
    from resourcekit.indicators import _MEMBER
    rho = mixture(random_members("separable", (2, 2, 2), 2, 150), (2, 2, 2))
    res, seen = _counted_solve(monkeypatch, lambda: rk.compute_indicator(
        rho, "nonseparability", 2, 0.5, seed=151, max_iter=200))
    assert seen["oracle"] == 0 and seen["line_search"] == 0
    assert seen["f"][-1] >= _MEMBER > max(seen["f"][:-1])
    assert res.best_affinity >= 1.0 - 1e-12 and res.iterations < 200
    assert rk.check_witness(res, rho)


def test_a_multilevel_member_has_a_tight_upper_bound(monkeypatch):
    # 1 - f bounds the gap whatever the oracle: a member's certified bound
    # is 1, which is tight, and the exact oracle is not asked
    rho = mixture(random_members("multilevel", (3,), 2, 152), (3,))
    res, seen = _counted_solve(monkeypatch,
                               lambda: rk.multilevel_coherence(rho, 3, 0.5, seed=153))
    assert seen["oracle"] == 0
    assert res.best_affinity >= 1.0 - 1e-12
    assert res.affinity_upper == 1.0


def test_lbfgs_stops_on_its_first_iterate_at_the_target():
    # on f = Rosenbrock - 1, whose minimum is -1, a run ends at the first
    # iterate with f <= -(1 - 1e-12): a run capped at m iterates follows the
    # same path, so that iterate is the end of the first capped run there
    from resourcekit.indicators import _MEMBER, _lbfgs

    def fun(x):
        r, u = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * r - 2.0 * u
        g[1:] += 200.0 * r
        return np.sum(100.0 * r ** 2 + u ** 2) - 1.0, g
    x0 = np.array([-1.2, 1.0, -0.5, 0.8])
    first = next(m for m in range(1, 200) if -fun(_lbfgs(fun, x0, m)[0])[0] >= _MEMBER)
    x, nit = _lbfgs(fun, x0, 10 ** 4)
    assert nit == first and x.tobytes() == _lbfgs(fun, x0, first)[0].tobytes()


def _result_bytes(res):
    return (res.affinity, res.upper, res.iterations, res.witness.data.tobytes(),
            [(w, psi.amps.tobytes()) for w, psi in res.components])


@pytest.mark.parametrize("kind,dims,k,max_iter", [("producible", (2, 2, 2), 1, 200),
                                                  ("multilevel", (3,), 2, 2000)])
def test_solves_below_one_do_not_see_the_stop(kind, dims, k, max_iter, monkeypatch):
    # a capped producible(1) solve and a rank-2 qutrit's order-3 coherence
    # solve stay below affinity 1: they are byte-equal whether or not the
    # stop can fire
    from resourcekit import indicators
    rho = rk.random_mixed(list(dims), 2, seed=154)
    family = rk.build_family(kind, dims, k)
    res = max_affinity(rho, family, 0.5, seed=155, max_iter=max_iter)
    monkeypatch.setattr(indicators, "_MEMBER", np.inf)
    assert _result_bytes(max_affinity(rho, family, 0.5, seed=155, max_iter=max_iter)) == (
        _result_bytes(res))
    assert res.affinity < 1.0 - 1e-6
    assert (res.iterations == max_iter) == (kind == "producible")     # only it is capped


@pytest.mark.parametrize("kind,dims,k,rank,witness", [("multilevel", (4,), 3, 2, True),
                                                      ("producible", (2, 2, 2), 1, 8, False)])
def test_the_last_lbfgs_iterate_is_not_evaluated_again(kind, dims, k, rank, witness,
                                                       monkeypatch):
    # an L-BFGS run that ends on its last evaluation hands back that point,
    # which the solve keeps: a stand-in that evaluates the run's start once
    # more after the run makes the solve map and decompose the end again, so
    # it costs two evaluations more per run, and the result is the same bytes
    from resourcekit import indicators
    rho = rk.random_mixed(list(dims), rank, seed=[156, k, 1])
    family = rk.build_family(kind, dims, k)
    start = [(1.0, rk.basis_pure(dims, 0))] if witness else None

    def solve():
        return max_affinity(rho, family, 0.5, seed=157, witness=start, max_iter=200)
    res, seen = _counted_solve(monkeypatch, solve)
    monkeypatch.undo()
    lbfgs, runs = indicators._lbfgs, []

    def evaluated_again(fun, x, maxiter):
        thetas = []

        def recorded(theta):
            thetas.append(theta.tobytes())
            return fun(theta)
        end, nit = lbfgs(recorded, x, maxiter)
        runs.append(end.tobytes() == thetas[-1])
        assert fun(x.copy())[0] < np.inf
        return end, nit
    monkeypatch.setattr(indicators, "_lbfgs", evaluated_again)
    again, seen_again = _counted_solve(monkeypatch, solve)
    assert len(runs) > 1 and all(runs)
    assert len(seen_again["f"]) == len(seen["f"]) + 2 * len(runs)
    assert _result_bytes(again) == _result_bytes(res)


def _reference_evaluate(s, rho_a, beta):
    """The hull objective written out plainly: f = Tr(rho_a sigma^beta) with
    eigenvalues below 64 eps of the largest taken as zero, G by
    Daleckii-Krein with eigenvalues floored at 1e-12 of the largest,
    Tr(G sigma) as the sum of G * sigma^T, and eig(sigma)."""
    w, v = np.linalg.eigh(s)
    r = v.conj().T @ rho_a @ v
    kept = np.where(w < 64 * np.finfo(float).eps * w.max(), 0.0, w)
    f = float(np.clip(kept, 0.0, None) ** beta @ r.diagonal().real)
    x = np.maximum(w, 1e-12 * w[-1])
    lr = np.log(x)[:, None] - np.log(x)
    same = lr == 0.0
    lr[same] = 1.0
    slopes = np.expm1(beta * lr) / np.expm1(lr)
    slopes[same] = beta
    g = v @ (slopes * x ** (beta - 1.0) * r) @ v.conj().T
    return f, g, float(np.real(np.sum(g * s.T))), w


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.lists(st.sampled_from((0.0, 1e-15, 0.1, 0.3, 1.0)), min_size=4, max_size=4),
       st.booleans())
def test_evaluate_matches_the_reference_formula(d, seed, alpha, spectrum, rotate):
    # repeated eigenvalues, exactly (diagonal sigma) or to roundoff (rotated),
    # and eigenvalues under the floor, which the gradient lifts to it
    w = np.array(spectrum[:d]) + np.eye(d)[0]
    w /= w.sum()
    u = rk.random_unitary(d, [seed, 0]) if rotate else np.eye(d)
    sigma = (u * w) @ u.conj().T
    rho_a = rk.frac_power(rk.random_mixed([d], d, seed=[seed, 1]), alpha)
    f, g, tr, ws = _evaluate(sigma, rho_a, 1.0 - alpha)
    rf, rg, rtr, rws = _reference_evaluate(sigma, rho_a, 1.0 - alpha)
    scale = np.abs(rg).max()
    assert abs(f - rf) <= 1e-12 * max(abs(rf), 1.0)
    assert np.abs(g - rg).max() <= 1e-12 * scale
    assert abs(tr - rtr) <= 1e-12 * scale
    assert ws.tobytes() == rws.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 0.95),
       st.booleans(), st.booleans())
@example(d=3, seed=1592, alpha=0.6385358539940307, full_rank=False, gradient_atom=True)
def test_grid_gain_bounds_every_step(d, seed, alpha, full_rank, gradient_atom):
    # phi(t) = f(sigma + t (A - sigma)) is concave, so the best of the grid's
    # log-steps gains at least 1/e of the best step of a dense scan of the
    # same range: a grid gain <= _STALL leaves no step gaining > e * _STALL.
    # The step taken is the best grid node.  The example has a singular
    # sigma: eigensolver noise raised to beta must not enter phi.
    beta = 1.0 - alpha
    rank = d if full_rank else 1 + seed % (d - 1)
    sigma = rk.random_mixed([d], rank, seed=[seed, 0]).data
    rho_a = rk.frac_power(rk.random_mixed([d], 1 + seed % d, seed=[seed, 1]), alpha)
    f, g, _, _ = _evaluate(sigma, rho_a, beta)
    psi = np.linalg.eigh(g)[1][:, -1] if gradient_atom else rk.random_pure([d], [seed, 2]).amps
    atom = np.outer(psi, psi.conj())

    def gains(u):
        return _value(sigma + np.exp(u)[:, None, None] * (atom - sigma), rho_a, beta) - f

    grid = gains(_STEPS).max()
    dense = gains(np.linspace(_STEPS[0], _STEPS[-1], 2000)).max()
    assert np.e * max(grid, 0.0) + 1e-15 >= dense
    t, gain = _line_search(sigma, atom, f, rho_a, beta)
    assert 0.0 < t <= 1.0
    assert gain == grid
    assert gain == pytest.approx(gains(np.log([t]))[0], abs=1e-15)


def test_a_stalled_frank_wolfe_attempt_is_one_stacked_eigh(monkeypatch):
    # every Frank-Wolfe attempt costs one eigh of the stacked grid and takes
    # a grid node: one that gains nothing ends the solve (the rank-2
    # ququart's coherence solve), and the producible solve takes steps that
    # gain
    from resourcekit import indicators
    shapes, attempts = [], []
    eigh, search = np.linalg.eigh, indicators._line_search

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def recorded(*args):
        start = len(shapes)
        t, gain = search(*args)
        attempts.append((t, gain, shapes[start:]))
        return t, gain

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(indicators, "_line_search", recorded)
    rk.compute_indicator(rk.random_mixed([4], 2, seed=0), "coherence", 3, 0.5, seed=1,
                         max_iter=300)
    assert len(attempts) == 1
    t, gain, calls = attempts.pop()
    assert gain <= _STALL
    assert t in np.exp(_STEPS)
    assert calls == [(len(_STEPS), 4, 4)]

    rk.compute_indicator(rk.random_mixed([2, 2, 2], 8, seed=1), "entanglement", 2, 0.5,
                         seed=1, max_iter=200)
    assert attempts
    for t, _, calls in attempts:
        assert t in np.exp(_STEPS)
        assert calls == [(len(_STEPS), 8, 8)]
    assert max(gain for _, gain, _ in attempts) > _STALL


def test_product_hull_starts_on_the_coarsest_partitions():
    # a partition that refines another adds nothing to the hull: on three
    # qubits producible(2) is the separable(2) hull and producible(3) the
    # whole state space, so both solve as such
    rho = rk.random_mixed([2, 2, 2], 4, seed=5)
    top = rk.compute_indicator(rho, "entanglement", 4, 0.5, seed=1, max_iter=100)
    assert top.best_affinity >= 1.0 - 1e-12
    ent = rk.compute_indicator(rho, "entanglement", 3, 0.5, seed=1, max_iter=100)
    sep = rk.compute_indicator(rho, "nonseparability", 2, 0.5, seed=1, max_iter=100)
    assert ent.best_affinity == sep.best_affinity
    for res in (top, ent, sep):
        assert rk.check_witness(res, rho)


def test_correlation_k_ranges():
    rho = rk.random_mixed([2, 2], 4, seed=80)
    with pytest.raises(KOutOfRange):
        rk.multipartite_correlation(rho, "nonseparability", 3, 0.5, seed=1)
    with pytest.raises(KOutOfRange):
        rk.multipartite_correlation(rho, "entanglement", 1, 0.5, seed=1)
    with pytest.raises(KOutOfRange):
        rk.multipartite_correlation(rho, "entanglement", 4, 0.5, seed=1)
    with pytest.raises(ValueError):
        rk.multipartite_correlation(rho, "something", 2, 0.5, seed=1)


def test_plain_and_avg_variants_share_affinity():
    rho = rk.random_mixed([3], 3, seed=90)
    plain = rk.multilevel_coherence(rho, 2, 0.7, "plain", seed=91,
                                    max_iter=150)
    avg = rk.multilevel_coherence(rho, 2, 0.7, "avg", seed=91,
                                  max_iter=150)
    assert plain.best_affinity == avg.best_affinity
    assert avg.value == pytest.approx(1.0 - plain.best_affinity ** (1 / 0.7),
                                      abs=1e-12)


def test_injected_witness_upper_bounds_value():
    # value <= 1 - A(rho, W) for an injected witness W, whichever solver
    # answers: the closed form (k = 2) or the hull (k = 3 and the correlations)
    rho = rk.random_mixed([3], 3, seed=100)
    for k in (2, 3):
        comps = random_members("multilevel", (3,), k - 1, 101)
        sigma0 = mixture(comps, (3,))
        res = rk.multilevel_coherence(rho, k, 0.5, seed=102, max_iter=200, witness=comps)
        assert res.value <= 1.0 - rk.alpha_affinity(rho, sigma0, 0.5) + 1e-9

    rho = rk.random_mixed([2, 2], 4, seed=103)
    comps = random_members("separable", (2, 2), 2, 104)
    sigma0 = mixture(comps, (2, 2))
    res = rk.multipartite_correlation(rho, "nonseparability", 2, 0.5, seed=105,
                                      max_iter=200, witness=comps)
    assert res.value <= 1.0 - rk.alpha_affinity(rho, sigma0, 0.5) + 1e-9


def test_multilevel_coherence_k2_rejects_a_wider_witness():
    # order 2 checks a witness like every other order, then needs no start
    rho = rk.random_mixed([3], 3, seed=106)
    with pytest.raises(WitnessEncodingError):
        rk.multilevel_coherence(rho, 2, 0.5, seed=107,
                                witness=[(1.0, rk.pure_state([1, 1, 0]))])


def test_witness_weights_are_validated():
    # a zero, NaN or negative weight used to crash eigh, or reach a
    # fractional power, or pass unread at order 2
    qutrit, pair = rk.random_mixed([3], 3, seed=108), rk.random_mixed([2, 2], 4, seed=108)
    cases = ((qutrit, "coherence", 2, [rk.basis_pure((3,), 0), rk.basis_pure((3,), 1)]),
             (qutrit, "coherence", 3, [rk.pure_state([1, 1, 0]), rk.pure_state([0, 1, 1])]),
             (pair, "nonseparability", 2, [rk.basis_pure((2, 2), 0),
                                           rk.pure_state([1, 1, 1, 1], (2, 2))]))
    for rho, label, k, (psi, phi) in cases:
        for weights in ((0.0,), (np.nan,), (-1.0,), (np.inf,), (0.0, 0.0), (1.0, -0.5)):
            witness = list(zip(weights, (psi, phi)))
            with pytest.raises(BadWeights):
                rk.compute_indicator(rho, label, k, 0.5, seed=109, max_iter=20,
                                     witness=witness)
        res = rk.compute_indicator(rho, label, k, 0.5, seed=109, max_iter=20,
                                   witness=[(0.0, psi), (2.0, phi)])
        assert rk.check_witness(res, rho)


def test_indicator_determinism_and_suite():
    rho = rk.random_mixed([3], 3, seed=110)
    kwargs = dict(seed=111, max_iter=150)
    a = rk.multilevel_coherence(rho, 2, 0.5, **kwargs)
    b = rk.multilevel_coherence(rho, 2, 0.5, **kwargs)
    assert a.value == b.value
    assert a.witness.data.tobytes() == b.witness.data.tobytes()

    assert rk.indicator_suite(rho, [0.5], [], seed=1) == []
    rows = rk.indicator_suite(rho, [0.3, 0.5], [("coherence", 2)],
                              seed=112, max_iter=100)
    assert [r.alpha for r in rows] == [0.3, 0.5]
    single = rk.compute_indicator(rho, "coherence", 2, 0.3, seed=112,
                                  max_iter=100)
    assert single.value == rows[0].value

    csv_a = rk.results_to_csv(rows)
    rows_again = rk.indicator_suite(rho, [0.3, 0.5], [("coherence", 2)],
                                    seed=112, max_iter=100)
    assert rk.results_to_csv(rows_again) == csv_a
    assert csv_a.splitlines()[0] == "label,k,alpha,value,best_affinity,seed"


def test_results_json_embeds_witness():
    import json
    rho = rk.random_mixed([2], 2, seed=120)
    rows = rk.indicator_suite(rho, [0.5], [("coherence", 2)], seed=121,
                              max_iter=100)
    doc = json.loads(rk.results_to_json(rows))
    assert doc["results"][0]["witness"]["dims"] == [2]


def test_check_witness_revalidation():
    rho = rk.random_mixed([3], 3, seed=130)
    res = rk.multilevel_coherence(rho, 2, 0.5, seed=131, max_iter=150)
    assert rk.check_witness(res, rho)


def test_check_witness_ties_witness_to_components():
    # rho has affinity 1 with itself, but it is not the component mixture
    rho = rk.random_mixed([3], 3, seed=132)
    res = rk.multilevel_coherence(rho, 2, 0.5, seed=133)
    forged = dataclasses.replace(res, witness=rho, best_affinity=1.0)
    assert not rk.check_witness(forged, rho)


def _with_components(res, rho, comps):
    """The result re-pointed at new components, with a matching witness and
    best affinity, so that only component membership can fail."""
    comps = tuple(rk.WitnessComponent(w, psi) for w, psi in comps)
    witness = rk.validate(sum(w * psi.projector().data for w, psi in comps), rho.dims)
    return dataclasses.replace(res, components=comps, witness=witness,
                               best_affinity=rk.alpha_affinity(rho, witness, res.alpha))


def test_check_witness_counts_every_amplitude_encode_counts():
    # a 1e-12 amplitude on a third level puts a component outside
    # multilevel(2) for encode, and so for check_witness
    rho = rk.random_mixed([3], 3, seed=134)
    res = rk.multilevel_coherence(rho, 3, 0.5, seed=135, max_iter=50)
    assert rk.check_witness(res, rho)
    w, psi = res.components[0]
    amps = psi.amps.copy()
    amps[np.flatnonzero(amps == 0)[0]] = 1e-12 * np.abs(amps).max()
    tilted = rk.pure_state(amps, psi.dims)
    assert rk.coherent_rank_pure(tilted) == 3
    with pytest.raises(WitnessEncodingError):
        rk.encode(rk.build_family("multilevel", (3,), 2), [(1.0, tilted)])
    forged = _with_components(res, rho, [(w, tilted)] + list(res.components[1:]))
    assert not rk.check_witness(forged, rho)


def test_check_witness_checks_light_components():
    rho = rk.random_mixed([3], 3, seed=136)
    res = rk.multilevel_coherence(rho, 3, 0.5, seed=137, max_iter=50)
    light = 1e-10
    comps = [(w * (1.0 - light), psi) for w, psi in res.components]
    comps.append((light, rk.pure_state([1, 1, 1])))
    assert not rk.check_witness(_with_components(res, rho, comps), rho)


def test_reported_seed_reproduces_the_run():
    rho = rk.random_mixed([3], 3, seed=5)
    opts = dict(max_iter=100)
    first = rk.compute_indicator(rho, "coherence", 3, 0.5, seed=[1, 2], **opts)
    again = rk.compute_indicator(rho, "coherence", 3, 0.5, seed=first.seed, **opts)
    assert isinstance(first.seed, int)
    assert again.seed == first.seed
    assert again.value == first.value
    assert again.witness.data.tobytes() == first.witness.data.tobytes()


KERNEL_CASES = [("multilevel", (3,), 2), ("multilevel", (4,), 3), ("separable", (2, 2), 2),
                ("separable", (2, 2, 2), 2), ("producible", (2, 2, 2), 1)]


def _solver_objective(hull, rho_a, beta, monkeypatch):
    """The objective _hull_max hands L-BFGS on ``hull``'s start layout,
    caught by a stand-in _lbfgs that reports the run at its cap."""
    from resourcekit import indicators
    caught = []

    def stand_in(fun, x, maxiter):
        caught.append(fun)
        return x, maxiter
    monkeypatch.setattr(indicators, "_lbfgs", stand_in)
    indicators._hull_max(None, rho_a, 1.0 - beta, hull, 1)
    return caught[0]


@pytest.mark.parametrize("kind,dims,k", KERNEL_CASES)
@pytest.mark.parametrize("start", ["default", "basis"])
def test_hull_objective_matches_the_reference_bit_for_bit(kind, dims, k, start, monkeypatch):
    # the solver's map, pullback and eigensolver against the formulation
    # they replaced (reference_suites.hull_objective): the same f and
    # gradient bytes at seeded points, from I/d or random starts and from
    # basis states, whose rows hold exact zeros (kept at half the points);
    # a NaN point is a rejected step, with no warning
    import warnings

    import reference_suites
    from resourcekit.feasible import _Products, _Supports
    d, beta = int(np.prod(dims)), 0.4
    family = rk.build_family(kind, dims, k)
    witness = None if start == "default" else [(0.5, rk.basis_pure(dims, 0)),
                                                (0.5, rk.basis_pure(dims, d - 1))]
    hull = _Supports(family, witness) if kind == "multilevel" else _Products(family, witness, 126)
    rho_a = rk.frac_power(rk.random_mixed(list(dims), d, seed=[127, d, k]), 1.0 - beta)
    ours = _solver_objective(hull, rho_a, beta, monkeypatch)
    theirs = reference_suites.hull_objective(hull, hull.start[1], rho_a, beta)
    x0, rng = hull.start[0].view(float), np.random.default_rng([128, d, k])
    for i in range(20):
        theta = x0 + 0.3 * rng.standard_normal(len(x0)) * ((x0 != 0) if i % 2 else 1)
        f, grad = ours(theta.copy())
        rf, rgrad = theirs(theta.copy())
        assert np.isfinite(f) and np.float64(f).tobytes() == np.float64(rf).tobytes()
        assert grad.tobytes() == rgrad.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, grad = ours(np.full_like(x0, np.nan))
    assert f == np.inf and grad.tobytes() == np.zeros_like(x0).tobytes()


@pytest.mark.parametrize("d", range(2, 25))
def test_eigh_helper_matches_numpy_bit_for_bit(d):
    # the hull objective's eigensolver calls the LAPACK gufunc behind
    # np.linalg.eigh directly; a numpy that changed either would show here
    from resourcekit.indicators import _eigh
    rng = np.random.default_rng([129, d])
    a = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    stack = np.concatenate([a + a.conj().transpose(0, 2, 1),   # Hermitian, degenerate, singular
                            [np.eye(d), np.diag(np.arange(d) % 2 + 0j)]])
    for mats in (stack, *stack):
        w, v = _eigh(mats)
        rw, rv = np.linalg.eigh(mats)
        assert w.tobytes() == rw.tobytes() and v.tobytes() == rv.tobytes()


def test_evaluate_rejects_what_eigh_cannot_decompose():
    # where LAPACK does not converge (here: NaN entries), _evaluate raises
    # LinAlgError as np.linalg.eigh does, and nothing is warned about
    import warnings
    rho_a = rk.frac_power(rk.random_mixed([3], 3, seed=130), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _evaluate(np.full((3, 3), np.nan + 0j), rho_a, 0.5)


@pytest.mark.parametrize("max_iter", [2.5, True, False, np.float64(1.5), "3", -1, None])
def test_max_iter_must_be_a_count(max_iter):
    # a fraction or a bool was truncated to an iteration count
    rho = rk.random_mixed([3], 3, seed=131)
    family = rk.build_family("multilevel", (3,), 2)
    with pytest.raises(ValueError, match="max_iter"):
        max_affinity(rho, family, 0.5, seed=0, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        rk.multilevel_coherence(rho, 3, 0.5, seed=0, max_iter=max_iter)


def test_max_iter_takes_numpy_integers():
    rho = rk.random_mixed([3], 3, seed=131)
    family = rk.build_family("multilevel", (3,), 2)
    a = max_affinity(rho, family, 0.5, seed=0, max_iter=np.int64(3))
    b = max_affinity(rho, family, 0.5, seed=0, max_iter=3)
    assert a.iterations == b.iterations <= 3 and a.affinity == b.affinity
