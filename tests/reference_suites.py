"""Per-sample reference loops of the suites that evaluate samples as stacks.

These are the loops of ``run_affinity_props``, ``run_appendix_b``, the
order-2 part of ``run_theorem1`` and ``run_embedding`` as they were before
the suites grouped their samples: one sample at a time, through the
per-state API only.  ``tests/test_verify.py`` requires the suites to emit
the same certificates, bit for bit.
"""

import numpy as np

from resourcekit.affinity import (
    _affinity_raw,
    _cert,
    alpha_affinity,
    block_diagonal_affinity,
    data_processing_sum,
    holder_negative_exponent_bound,
    power_mean_bound,
    selective_loss_bound,
    selective_power_sum,
)
from resourcekit.channels import (
    apply as channel_apply,
    make_monomial_incoherent,
    random_channel,
    random_projective,
    selective_apply,
)
from resourcekit.embedding import build_embedding, depth_correspondence_pure, embed_state
from resourcekit.indicators import closed_form_k2
from resourcekit.states import (
    _rng,
    random_mixed,
    random_unitary,
    tensor,
    trace_distance,
    validate,
)
from resourcekit.verify import ALPHA_GRID, _subadditivity_certs, _unambiguous_pure


def affinity_props(seed, n):
    certs = []
    for i in range(n):
        alpha = ALPHA_GRID[i % 3]
        d = 2 + i % 3
        rho = random_mixed((d,), 1 + i % d, [seed, 0, i, 0])
        sig = random_mixed((d,), d, [seed, 0, i, 1])

        a = _affinity_raw(rho.data, sig.data, alpha)
        certs.append(_cert("bounds", 0.0, a, alpha=alpha, seed=seed))
        certs.append(_cert("bounds", a, 1.0, alpha=alpha, seed=seed))
        certs.append(_cert("self-affinity", alpha_affinity(rho, rho, alpha), 1.0,
                           equality=True, alpha=alpha, seed=seed))
        if trace_distance(rho, sig) > 1e-3:
            certs.append(_cert("separation", a, 1.0 - 1e-6, alpha=alpha, seed=seed))

        u = random_unitary(d, [seed, 0, i, 2])
        rot = lambda m: validate(u @ m.data @ u.conj().T, m.dims)
        certs.append(_cert("unitary-invariance",
                           alpha_affinity(rot(rho), rot(sig), alpha),
                           alpha_affinity(rho, sig, alpha),
                           equality=True, alpha=alpha, seed=seed))

        rho2 = random_mixed((2,), 2, [seed, 0, i, 3])
        sig2 = random_mixed((2,), 2, [seed, 0, i, 4])
        certs.append(_cert("multiplicativity",
                           alpha_affinity(tensor(rho, rho2), tensor(sig, sig2), alpha),
                           alpha_affinity(rho, sig, alpha) * alpha_affinity(rho2, sig2, alpha),
                           equality=True, alpha=alpha, seed=seed))

        lam = _rng([seed, 0, i, 5]).dirichlet(np.ones(2))
        rho_b = random_mixed((d,), d, [seed, 0, i, 6])
        sig_b = random_mixed((d,), d, [seed, 0, i, 7])
        mix_r = validate(lam[0] * rho.data + lam[1] * rho_b.data, (d,))
        mix_s = validate(lam[0] * sig.data + lam[1] * sig_b.data, (d,))
        certs.append(_cert("joint-concavity",
                           lam[0] * alpha_affinity(rho, sig, alpha)
                           + lam[1] * alpha_affinity(rho_b, sig_b, alpha),
                           alpha_affinity(mix_r, mix_s, alpha),
                           alpha=alpha, seed=seed))

        chan = random_channel(d, 2 + i % 2, [seed, 0, i, 8])
        certs.append(_cert("cptp-monotonicity",
                           alpha_affinity(rho, sig, alpha),
                           alpha_affinity(channel_apply(chan, rho),
                                          channel_apply(chan, sig), alpha),
                           alpha=alpha, seed=seed))
        certs.append(selective_loss_bound(rho, sig, chan, alpha, seed=seed))
    return certs


def appendix_b(seed, n):
    certs = []
    for i in range(n):
        rng = _rng([seed, 1, i])
        size = 1 + int(rng.integers(8))
        a = np.abs(rng.standard_normal(size)) + 0.05
        b = np.abs(rng.standard_normal(size)) + 0.05
        p = float(0.1 + 2.9 * rng.random())
        q = float(-0.1 - 2.9 * rng.random())
        certs.append(holder_negative_exponent_bound(a, b, p, q, seed=seed))

        x = np.abs(rng.standard_normal(size)) + 0.05
        qvec = rng.dirichlet(np.ones(size))
        t = float(1.0 + 3.0 * rng.random()) + 1e-6
        certs.append(power_mean_bound(x, qvec, t, seed=seed))

        alpha = ALPHA_GRID[i % 3]
        d = 2 + i % 3
        rho = random_mixed((d,), d, [seed, 1, i, 0])
        sig = random_mixed((d,), d, [seed, 1, i, 1])
        if i % 2:
            chan = random_channel(d, 2 + i % 2, [seed, 1, i, 2])
        else:
            chan = random_projective(d, 1 + i % (d - 1), [seed, 1, i, 2])
        certs.extend(f(rho, sig, chan, alpha, seed=seed)
                     for f in (selective_power_sum, data_processing_sum,
                               selective_loss_bound, block_diagonal_affinity))
    return certs


def theorem1_order2(seed, n):
    certs = []
    for i in range(n):
        alpha = ALPHA_GRID[i % 3]
        d = 2 + i % 3
        rho1 = random_mixed((d,), d, [seed, 2, i, 0])
        rho2 = random_mixed((d,), d, [seed, 2, i, 1])

        lam = _rng([seed, 2, i, 2]).dirichlet(np.ones(2))
        mix = validate(lam[0] * rho1.data + lam[1] * rho2.data, (d,))
        c_mix = closed_form_k2(mix, alpha)[0]
        certs.append(_cert("order2-convexity", c_mix,
                           lam[0] * closed_form_k2(rho1, alpha)[0]
                           + lam[1] * closed_form_k2(rho2, alpha)[0],
                           alpha=alpha, seed=seed))

        chan = make_monomial_incoherent(d, 1 + i % 3, [seed, 2, i, 3])
        plain, avg = closed_form_k2(rho1, alpha)
        out_plain, out_avg = closed_form_k2(channel_apply(chan, rho1), alpha)
        certs.append(_cert("order2-channel-monotonicity", out_plain, plain,
                           alpha=alpha, seed=seed))
        certs.append(_cert("order2-channel-monotonicity", out_avg, avg,
                           alpha=alpha, seed=seed))
        lhs_avg = sum(p * closed_form_k2(r, alpha)[1]
                      for p, r in selective_apply(chan, rho1))
        certs.append(_cert("order2-avg-monotonicity", lhs_avg, avg,
                           alpha=alpha, seed=seed))

        small1 = random_mixed((2 + i % 2,), 2 + i % 2, [seed, 2, i, 4])
        small2 = random_mixed((2 + (i + 1) % 2,), 2 + (i + 1) % 2, [seed, 2, i, 5])
        certs.extend(_subadditivity_certs(
            "order2-tensor-subadditivity", closed_form_k2(tensor(small1, small2), alpha),
            closed_form_k2(small1, alpha), closed_form_k2(small2, alpha), alpha, seed))
    return certs


def embedding(seed, n):
    certs = []
    for d in (2, 3, 4):
        emb = build_embedding(d)
        u = emb.unitary
        certs.append(_cert("flag-involution",
                           float(np.abs(u @ u - np.eye(u.shape[0])).max()), 0.0,
                           equality=True, seed=seed))
        certs.append(_cert("flag-permutation",
                           float(np.minimum(np.abs(u), np.abs(u - 1.0)).max()), 0.0,
                           equality=True, seed=seed))
        anc = 2 ** d
        for i in range(d):
            vec = np.zeros(d * anc)
            vec[i * anc] = 1.0
            out = u @ vec
            expect = np.zeros(d * anc)
            expect[i * anc + (1 << (d - 1 - i))] = 1.0
            certs.append(_cert("flag-action", float(np.abs(out - expect).max()), 0.0,
                               equality=True, seed=seed))

        for i in range(n):
            rank = 1 + i % d
            psi = _unambiguous_pure(seed, (5, d, i), d, rank)
            info = depth_correspondence_pure(emb, psi)
            expect_sep = d + 1 if rank == 1 else d - rank + 1
            expect_ent = 1 if rank == 1 else rank + 1
            certs.append(_cert("depth-separability", float(info["sep_depth"]),
                               float(expect_sep), equality=True, seed=seed))
            certs.append(_cert("depth-entanglement", float(info["ent_depth"]),
                               float(expect_ent), equality=True, seed=seed))

    for i in range(2 * n):
        alpha = ALPHA_GRID[i % 3]
        d = 2 + i % 2
        emb = build_embedding(d)
        rho = random_mixed((d,), d, [seed, 5, 9, i, 0])
        sig = random_mixed((d,), d, [seed, 5, 9, i, 1])
        a_src = alpha_affinity(rho, sig, alpha)
        a_emb = alpha_affinity(embed_state(emb, rho), embed_state(emb, sig), alpha)
        certs.append(_cert("affinity-preservation", a_emb, a_src,
                           equality=True, alpha=alpha, seed=seed))
    return certs
