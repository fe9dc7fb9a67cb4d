import dataclasses

import numpy as np
import pytest

import resourcekit as rk
from resourcekit.errors import BadWeights, KOutOfRange, WitnessEncodingError
from resourcekit.feasible import decode_mixture
from resourcekit.indicators import LABELS, max_affinity

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
    res = max_affinity(rho, fam, 0.5, seed=1, max_iter=100,
                       witness=comps)
    assert res.affinity >= 1.0 - 1e-6


def test_optimizer_matches_closed_form_without_injection():
    # no search runs at support size 1: max_affinity answers it with the
    # closed form, whatever the slot count m and the effort
    for d, m, i in ((2, 2, 0), (2, 4, 1), (3, 3, 2)):
        rho = rk.random_mixed([d], d, seed=[20, i])
        fam = rk.build_family("multilevel", (d,), 1, m=m)
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
    # build_family's slot count m does not reach the hull
    rho = rk.random_mixed([2, 2], 4, seed=30)
    results = [max_affinity(rho, rk.build_family("separable", (2, 2), 2, m=m), 0.5,
                            seed=31, max_iter=300) for m in (2, 8)]
    assert results[1].affinity == results[0].affinity
    assert _same_result(*results)
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
    fam = rk.build_family("multilevel", (3,), 2, m=3)
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
    # from symmetric-state analysis; the product-oracle Frank-Wolfe bracket
    # agrees but is not certified (tests/oracles.py, max_affinity_product)
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


def test_correlation_exact_on_isotropic_states():
    # U (x) U* fixes rho and both families, so by concavity some optimum is
    # isotropic, and an isotropic state is separable iff its fidelity to
    # Phi+ is at most 1/d: max A = F^a f^(1-a) + (1-F)^a (1-f)^(1-a), with
    # f = min(F, 1/d).  On two parties both labels solve separable(2).
    for d in (2, 3):
        for fid in (0.9, 0.7, 0.4):
            f = min(fid, 1.0 / d)
            rho = _isotropic(d, fid)
            for alpha in ALPHAS:
                exact = (fid ** alpha * f ** (1 - alpha)
                         + (1 - fid) ** alpha * (1 - f) ** (1 - alpha))
                for label in ("nonseparability", "entanglement"):
                    res = rk.compute_indicator(rho, label, 2, alpha, seed=1, max_iter=200)
                    assert abs(res.best_affinity - exact) <= 1e-9


def test_correlation_beats_the_product_oracle_bracket():
    # the oracle's upper end is not an upper bound: an explicit product
    # mixture reaches above its 0.98312347 here
    rho = rk.random_mixed([2, 2], 4, seed=[9, 0])
    res = rk.compute_indicator(rho, "nonseparability", 2, 0.3, seed=1, max_iter=200)
    assert res.best_affinity >= 0.98330
    assert rk.check_witness(res, rho)


def test_no_nelder_mead_anywhere(monkeypatch):
    # every optimizer call of the correlation suite and of each correlation
    # label is L-BFGS on the hull, with an uncertified upper end
    from resourcekit import indicators
    from resourcekit.verify import all_passed, run_suite
    methods = []
    original = indicators.minimize

    def recording(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return original(*args, **kwargs)

    monkeypatch.setattr(indicators, "minimize", recording)
    assert all_passed(run_suite("theorem2", 3, 4))
    rho = rk.random_mixed([2, 2, 2], 8, seed=72)
    for label in LABELS[2:]:
        res = rk.compute_indicator(rho, label, 2, 0.5, seed=73, max_iter=100)
        assert rk.check_witness(res, rho)
        assert res.affinity_upper == 1.0
    assert methods and set(methods) == {"L-BFGS-B"}


@pytest.mark.parametrize("kind,dims,k", [
    ("separable", (2, 2), 2), ("separable", (2, 3), 2), ("separable", (2, 2, 2), 2),
    ("separable", (2, 2, 2), 3), ("producible", (2, 2, 2), 1),
    ("producible", (2, 2, 2, 2), 2)])
def test_product_pullback_matches_central_differences(kind, dims, k):
    # the pullback of a fixed Hermitian H is the gradient of Tr(H sigma(z))
    # on z's float view, also from basis product states, whose factors
    # hold exact zeros
    from resourcekit.indicators import _Products
    d = int(np.prod(dims))
    rng = np.random.default_rng([120, d, k])
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    basis = [(0.5, rk.basis_pure(dims, 0)), (0.5, rk.basis_pure(dims, d - 1))]
    for witness in (None, basis):
        hull = _Products(kind, dims, k, witness, 121)
        z, layout = hull.start

        def value(theta):
            return np.real(np.sum(h * hull.map((theta.view(complex), layout))[0].T))

        theta, step = z.view(float).copy(), 1e-6
        grad = hull.map((z, layout))[1](h, value(theta)).view(float)
        assert np.isfinite(grad).all()
        diffs = np.array([(value(theta + step * e) - value(theta - step * e)) / (2 * step)
                          for e in np.eye(len(theta))])
        assert np.abs(grad - diffs).max() <= 1e-7 * np.abs(diffs).max()


def test_no_oracle_answer_is_discarded(monkeypatch):
    # the oracle runs where its answer decides a step or certifies the
    # upper bound; a correlation solve stopped at its cap has neither
    from resourcekit import indicators
    calls = []
    for hull in (indicators._Blocks, indicators._Products):
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
    assert calls == ["_Blocks"]
    res = rk.compute_indicator(rho, "entanglement", 2, 0.5, seed=123, max_iter=20)
    assert res.iterations == 20 and calls == ["_Blocks"]


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
        fam = rk.build_family("multilevel", (3,), k - 1, m=3)
        theta = np.random.default_rng(101).standard_normal(fam.param_len)
        sigma0 = rk.decode(fam, theta)
        res = rk.multilevel_coherence(rho, k, 0.5, seed=102, max_iter=200,
                                      witness=decode_mixture(fam, theta))
        assert res.value <= 1.0 - rk.alpha_affinity(rho, sigma0, 0.5) + 1e-9

    rho = rk.random_mixed([2, 2], 4, seed=103)
    fam = rk.build_family("separable", (2, 2), 2, m=2)
    theta = np.random.default_rng(104).standard_normal(fam.param_len)
    sigma0 = rk.decode(fam, theta)
    res = rk.multipartite_correlation(rho, "nonseparability", 2, 0.5, seed=105,
                                      max_iter=200,
                                      witness=decode_mixture(fam, theta))
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
        rk.encode(rk.build_family("multilevel", (3,), 2, m=3), [(1.0, tilted)])
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
