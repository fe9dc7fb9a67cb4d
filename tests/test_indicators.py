import numpy as np
import pytest

import resourcekit as rk
from resourcekit.errors import KOutOfRange, WitnessEncodingError
from resourcekit.feasible import decode_mixture
from resourcekit.indicators import closed_form_witness, max_affinity

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
    fam = rk.build_family("multilevel", (3,), 2, m=3)
    theta = np.random.default_rng(0).standard_normal(fam.param_len)
    comps = decode_mixture(fam, theta)
    rho = rk.decode(fam, theta)
    res = max_affinity(rho, fam, 0.5, seed=1, restarts=1, max_iter=100,
                       init_witnesses=[comps])
    assert res.affinity >= 1.0 - 1e-6


def test_optimizer_matches_closed_form_without_injection():
    # independent check of the search itself: no closed-form start is given
    for d, m, i in ((2, 2, 0), (2, 4, 1), (3, 3, 2)):
        rho = rk.random_mixed([d], d, seed=[20, i])
        fam = rk.build_family("multilevel", (d,), 1, m=m)
        res = max_affinity(rho, fam, 0.5, seed=[21, i], restarts=6, max_iter=1500)
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
    rho = rk.random_mixed([3], 3, seed=23)
    fam = rk.build_family("multilevel", (3,), 1, m=1)
    with pytest.raises(WitnessEncodingError):
        max_affinity(rho, fam, 0.5, seed=24, restarts=1, max_iter=0,
                     init_witnesses=[closed_form_witness(rho, 0.5)])


def test_max_affinity_monotone_in_restarts():
    rho = rk.random_mixed([3], 3, seed=30)
    fam = rk.build_family("multilevel", (3,), 2, m=3)
    few = max_affinity(rho, fam, 0.5, seed=31, restarts=2, max_iter=300)
    more = max_affinity(rho, fam, 0.5, seed=31, restarts=4, max_iter=300)
    assert more.affinity >= few.affinity - 1e-12


def test_max_affinity_witness_consistency():
    rho = rk.random_mixed([3], 3, seed=32)
    fam = rk.build_family("multilevel", (3,), 2, m=3)
    res = max_affinity(rho, fam, 0.7, seed=33, restarts=2, max_iter=300)
    assert rk.alpha_affinity(rho, res.witness, 0.7) == pytest.approx(
        res.affinity, abs=1e-9)
    assert sum(c.weight for c in res.components) == pytest.approx(1.0, abs=1e-9)


def test_multilevel_coherence_k2_matches_closed_form():
    for i in range(6):
        d = 2 + i % 3
        rho = rk.random_mixed([d], d, seed=[40, i])
        for alpha in ALPHAS:
            result = rk.multilevel_coherence(rho, 2, alpha, seed=[41, i],
                                             restarts=1, max_iter=150)
            cf_plain, _ = rk.closed_form_k2(rho, alpha)
            assert result.value == pytest.approx(cf_plain, abs=1e-6)


def test_multilevel_coherence_k2_witness_carries_closed_form():
    # the closed-form value always comes with the witness that attains it,
    # whatever the slot count or optimizer options
    rho = rk.random_mixed([3], 3, seed=1)
    cf_plain, cf_avg = rk.closed_form_k2(rho, 0.5)
    for m in (1, 2, None):
        plain = rk.multilevel_coherence(rho, 2, 0.5, seed=2, m=m)
        avg = rk.multilevel_coherence(rho, 2, 0.5, "avg", seed=2, m=m,
                                      restarts=1, max_iter=50)
        for res in (plain, avg):
            assert rk.check_witness(res, rho)
            assert (res.restarts, res.iterations, res.spread) == (0, 0, 0.0)
        assert plain.value == cf_plain
        assert avg.value == pytest.approx(cf_avg, abs=1e-12)


def test_multilevel_coherence_plus_anchor():
    plus = rk.pure_state([1, 1]).projector()
    res = rk.multilevel_coherence(plus, 2, 0.5, seed=7, restarts=1, max_iter=100)
    assert res.value == pytest.approx(1.0 - 2.0 ** -0.5, abs=1e-9)
    res_avg = rk.multilevel_coherence(plus, 2, 0.5, "avg", seed=7,
                                      restarts=1, max_iter=100)
    assert res_avg.value == pytest.approx(0.5, abs=1e-9)


def test_multilevel_coherence_qutrit_order3_anchor():
    # frozen oracle: symmetric two-level mixture caps the affinity at
    # (2/3)^(1-alpha); certified by the Frank-Wolfe bracket in oracles.py
    mx3 = rk.pure_state([1, 1, 1]).projector()
    for alpha in ALPHAS:
        res = rk.multilevel_coherence(mx3, 3, alpha, seed=11, m=6,
                                      restarts=10, max_iter=2500)
        assert res.value == pytest.approx(1.0 - qutrit_two_level_max(alpha), abs=2e-3)


@pytest.mark.slow
def test_qutrit_anchor_recompute_via_frank_wolfe():
    mx3 = rk.pure_state([1, 1, 1]).projector()
    lb, ub = max_affinity_support(mx3.data, 0.5, 2, iters=3000, gap_stop=1e-4)
    assert lb - 1e-9 <= qutrit_two_level_max(0.5) <= ub + 1e-9


def test_multilevel_coherence_zero_on_low_rank_mixtures():
    fam = rk.build_family("multilevel", (3,), 2, m=3)
    theta = np.random.default_rng(3).standard_normal(fam.param_len)
    comps = decode_mixture(fam, theta)
    rho = rk.decode(fam, theta)
    res = rk.multilevel_coherence(rho, 3, 0.5, seed=5, m=3, restarts=1,
                                  max_iter=100, init_witnesses=[comps])
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
    wit = [(1.0, psi, ((0,), (1,)))]
    for kind, k in (("nonseparability", 1), ("nonseparability", 2),
                    ("entanglement", 2), ("entanglement", 3)):
        res = rk.multipartite_correlation(rho, kind, k, 0.5, seed=62, m=4,
                                          restarts=1, max_iter=100,
                                          init_witnesses=[wit])
        assert res.value <= 1e-6


def test_bell_nonseparability_anchor():
    # certified by symmetric-state analysis and the Frank-Wolfe bracket
    bell = rk.pure_state([1, 0, 0, 1], (2, 2)).projector()
    res = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5,
                                      seed=70, m=2, restarts=8, max_iter=2000)
    assert res.value == pytest.approx(1.0 - BELL_SEPARABLE_MAX_HALF, abs=2e-3)
    assert res.value > 0.1


def test_bell_value_monotone_in_effort():
    bell = rk.pure_state([1, 0, 0, 1], (2, 2)).projector()
    weak = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5,
                                       seed=71, m=8, restarts=2, max_iter=400)
    strong = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5,
                                         seed=71, m=8, restarts=4, max_iter=400)
    assert strong.value <= weak.value + 1e-12


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
                                    restarts=1, max_iter=150)
    avg = rk.multilevel_coherence(rho, 2, 0.7, "avg", seed=91,
                                  restarts=1, max_iter=150)
    assert plain.best_affinity == avg.best_affinity
    assert avg.value == pytest.approx(1.0 - plain.best_affinity ** (1 / 0.7),
                                      abs=1e-12)


def test_injected_witness_upper_bounds_value():
    rho = rk.random_mixed([3], 3, seed=100)
    fam = rk.build_family("multilevel", (3,), 1, m=3)
    theta = np.random.default_rng(101).standard_normal(fam.param_len)
    sigma0 = rk.decode(fam, theta)
    res = rk.multilevel_coherence(rho, 2, 0.5, seed=102, m=3, restarts=1,
                                  max_iter=200, init_witnesses=[decode_mixture(fam, theta)])
    assert res.value <= 1.0 - rk.alpha_affinity(rho, sigma0, 0.5) + 1e-9


def test_indicator_determinism_and_suite():
    rho = rk.random_mixed([3], 3, seed=110)
    kwargs = dict(seed=111, restarts=2, max_iter=150)
    a = rk.multilevel_coherence(rho, 2, 0.5, **kwargs)
    b = rk.multilevel_coherence(rho, 2, 0.5, **kwargs)
    assert a.value == b.value
    assert a.witness.data.tobytes() == b.witness.data.tobytes()

    assert rk.indicator_suite(rho, [0.5], [], seed=1) == []
    rows = rk.indicator_suite(rho, [0.3, 0.5], [("coherence", 2)],
                              seed=112, restarts=1, max_iter=100)
    assert [r.alpha for r in rows] == [0.3, 0.5]
    single = rk.compute_indicator(rho, "coherence", 2, 0.3, seed=112,
                                  restarts=1, max_iter=100)
    assert single.value == rows[0].value

    csv_a = rk.results_to_csv(rows)
    rows_again = rk.indicator_suite(rho, [0.3, 0.5], [("coherence", 2)],
                                    seed=112, restarts=1, max_iter=100)
    assert rk.results_to_csv(rows_again) == csv_a
    assert csv_a.splitlines()[0] == "label,k,alpha,value,best_affinity,restarts,spread,seed"


def test_results_json_embeds_witness():
    import json
    rho = rk.random_mixed([2], 2, seed=120)
    rows = rk.indicator_suite(rho, [0.5], [("coherence", 2)], seed=121,
                              restarts=1, max_iter=100)
    doc = json.loads(rk.results_to_json(rows))
    assert doc["results"][0]["witness"]["dims"] == [2]


def test_check_witness_revalidation():
    rho = rk.random_mixed([3], 3, seed=130)
    res = rk.multilevel_coherence(rho, 2, 0.5, seed=131, restarts=1, max_iter=150)
    assert rk.check_witness(res, rho)
