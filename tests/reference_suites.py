"""Reference loops for the certificate suites.

These are the loops of ``run_affinity_props``, ``run_appendix_b``, the
order-2 part of ``run_theorem1`` and ``run_embedding`` as they were before
the suites grouped their samples: one sample at a time, through the
per-state API only.  ``tests/test_verify.py`` requires the suites to emit
the same certificates, bit for bit.

``factorize_pure`` and ``depth_correspondence_pure`` are the recursive
bipartition search that the ``embedding`` suite ran per sample before it
read every sample's partition off one purity table
(``feasible._finest_parts``): a split subset's factor is a top
eigenvector, the remainder a contraction, each searched again.

``theorem1_constructive`` and ``theorem2`` are the order-3 checks of
``run_theorem1`` and ``run_theorem2`` as they were before the suites shared
one definition of each transported claim (``verify._mixing``,
``verify._monotone`` and ``verify._subadditive``): each suite wrote its own
convexity, monotonicity and subadditivity transports, with the witness
helpers below.

``hull_objective`` and ``hull_components`` are the hull solver's
objective (its row map, pullback and ``_evaluate``) and its readout as they
were before the evaluation was trimmed to its arithmetic: z concatenated
with [1, 0] on every call, a cofactor array of ones for one-slot rows,
``np.linalg.eigh``, and ``pure_state`` per component.  ``tests/test_indicators.py`` and
``tests/test_feasible.py`` require the solver to match them bit for bit.

``Partition`` and ``product_oracle`` are the correlation hull's linear
oracle as it was before it read the gather templates: each partition wrote
its product structure down a second time, as einsum subscripts that name
subsystems, and each factor's form was one einsum.
``tests/test_feasible.py`` requires the oracle to match them to roundoff.

``coarsest_pool`` is a correlation family's pool as it was before
``build_family`` read it off part sizes: every admissible partition, pruned
of those that refine another by an all-pairs check.
``tests/test_feasible.py`` requires the pools to be equal.
"""

import itertools
from functools import reduce
from math import prod

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
    make_local_product,
    make_monomial_incoherent,
    random_channel,
    random_projective,
    selective_apply,
)
from resourcekit.embedding import build_embedding, embed_pure, embed_state
from resourcekit.errors import NTooLarge
from resourcekit.feasible import (
    _DROP_WEIGHT,
    _ORACLE_SHARE,
    _ORACLE_STARTS,
    _ORACLE_SWEEPS,
    _ORACLE_TOL,
    FACTOR_PURITY_TOL,
    MAX_SUBSYSTEMS,
    RECONSTRUCT_TOL,
    Factorization,
    WitnessComponent,
    _assemble_product,
    _reduced,
    _top_eigvec,
    build_family,
    enumerate_partitions,
)
from resourcekit.indicators import (
    _EIG_FLOOR,
    _power_slopes,
    _scored,
    _variant_value,
    closed_form_k2,
)
from resourcekit.states import (
    _flushed,
    _rng,
    pure_state,
    random_mixed,
    random_unitary,
    tensor,
    trace_distance,
    validate,
)
from resourcekit.verify import (
    ALPHA_GRID,
    _pushed,
    _selective_witnesses,
    _solve,
    _subadditivity_certs,
    _t2_config,
    _unambiguous_pure,
)


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


def _split_recursive(amps, dims, labels):
    """Finest factorization of a pure state given as (amps, local dims)."""
    n = len(dims)
    if n == 1:
        return [(labels, amps)]
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), size):
            red = _reduced(amps, dims, subset)
            purity = float((np.abs(red) ** 2).sum())  # Tr(red^2) for Hermitian red
            if purity >= 1.0 - FACTOR_PURITY_TOL:
                phi = _top_eigvec(red)
                comp = [i for i in range(n) if i not in subset]
                shaped = amps.reshape(dims)
                rest = np.tensordot(phi.conj().reshape([dims[i] for i in subset]),
                                    shaped.transpose(list(subset) + comp),
                                    axes=(range(size), range(size)))
                rest = rest.reshape(-1)
                rest = rest / np.linalg.norm(rest)
                left = _split_recursive(phi, [dims[i] for i in subset],
                                        [labels[i] for i in subset])
                right = _split_recursive(rest, [dims[i] for i in comp],
                                         [labels[i] for i in comp])
                return left + right
    return [(labels, amps)]


def factorize_pure(psi):
    """Finest tensor factorization found by recursive bipartition search.

    A subset of subsystems splits off iff its reduced state has purity at
    least 1 - FACTOR_PURITY_TOL.  The tensor product of the returned factors
    reproduces the input up to global phase, with fidelity gap below 1e-8
    (guaranteed whenever splits happen well clear of the threshold, which
    holds for eigensolver noise ~1e-12 on one side and physical entanglement
    on the other).
    """
    n = len(psi.dims)
    if n > MAX_SUBSYSTEMS:
        raise NTooLarge(f"factorization capped at n={MAX_SUBSYSTEMS}, got {n}")
    pieces = _split_recursive(psi.amps, list(psi.dims), list(range(n)))
    pieces.sort(key=lambda item: min(item[0]))
    parts = tuple(tuple(labels) for labels, _ in pieces)
    factors = tuple(pure_state(amps, tuple(psi.dims[i] for i in labels))
                    for labels, amps in pieces)
    rebuilt = _assemble_product(psi.dims, parts, [f.amps for f in factors])
    fid_gap = 1.0 - abs(np.vdot(rebuilt, psi.amps))
    if fid_gap > RECONSTRUCT_TOL:
        raise ArithmeticError(
            f"factor reconstruction fidelity gap {fid_gap:.3e} exceeds {RECONSTRUCT_TOL}")
    return Factorization(parts, factors)


def depth_correspondence_pure(emb, psi):
    """Rank of the source state and both depths of its embedding, all read
    off one structure, the embedding's finest factorization: the rank is 1
    when it is fully product, else the entanglement depth - 1."""
    fac = factorize_pure(embed_pure(emb, psi))
    ent = fac.entanglement_depth
    return {"rank": 1 if ent == 1 else ent - 1,
            "sep_depth": fac.separability_depth, "ent_depth": ent}


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


def _apply_to_components(channel, comps):
    """Unnormalized witness image under the full channel, component-wise."""
    return [c for op in channel.kraus for c in _pushed(op, comps)]


def _rotated(u, comps):
    return [WitnessComponent(w, pure_state(u @ psi.amps, psi.dims)) for w, psi in comps]


def _scaled(comps, factor):
    return [WitnessComponent(w * factor, psi) for w, psi in comps]


def _tensor_components(left, right, dims):
    return [WitnessComponent(wa * wb, pure_state(np.kron(a.amps, b.amps), dims))
            for wa, a in left for wb, b in right]


def _values(affinity, alpha):
    """(plain, avg) indicator values of a maximal affinity."""
    return _variant_value(affinity, alpha, "plain"), _variant_value(affinity, alpha, "avg")


def theorem1_constructive(seed, nc):
    """Order-3 checks on qutrits: every comparison transports the witness."""
    certs = []
    d, k = 3, 3
    opts = {"max_iter": 300}
    for i in range(nc):
        alpha = ALPHA_GRID[i % 3]
        rho1 = random_mixed((d,), d, [seed, 3, i, 0])
        rho2 = random_mixed((d,), d, [seed, 3, i, 1])
        r1 = _solve(rho1, "multilevel", k - 1, alpha, (seed, 3, i, 2), **opts)
        r2 = _solve(rho2, "multilevel", k - 1, alpha, (seed, 3, i, 3), **opts)

        # convexity of the plain indicator via mixed witnesses
        lam = _rng([seed, 3, i, 4]).dirichlet(np.ones(2))
        mix = validate(lam[0] * rho1.data + lam[1] * rho2.data, (d,))
        mixed_wit = _scaled(r1.components, lam[0]) + _scaled(r2.components, lam[1])
        rm = _scored(mix, "multilevel", k - 1, mixed_wit, alpha)
        certs.append(_cert("order3-witness-convexity", 1.0 - rm,
                           lam[0] * (1.0 - r1.affinity) + lam[1] * (1.0 - r2.affinity),
                           alpha=alpha, seed=seed))

        # channel monotonicity and average monotonicity under monomial maps
        chan = make_monomial_incoherent(d, 2, [seed, 3, i, 6])
        moved = _apply_to_components(chan, r1.components)
        ro = _scored(channel_apply(chan, rho1), "multilevel", k - 1, moved, alpha)
        certs.append(_cert("order3-witness-channel-monotonicity",
                           1.0 - ro, 1.0 - r1.affinity,
                           alpha=alpha, seed=seed))

        lhs = 0.0
        for p, rho_i, wit in _selective_witnesses(chan, rho1, r1.components):
            ri = _scored(rho_i, "multilevel", k - 1, wit, alpha)
            lhs += p * _variant_value(ri, alpha, "avg")
        certs.append(_cert("order3-witness-avg-monotonicity", lhs,
                           _variant_value(r1.affinity, alpha, "avg"),
                           alpha=alpha, seed=seed))

        # tensor subadditivity: order (k-1)^2 + 1 on the 9-level product
        joint = tensor(rho1, rho2)
        tens_wit = _tensor_components(r1.components, r2.components, joint.dims)
        rt = _scored(joint, "multilevel", (k - 1) ** 2, tens_wit, alpha)
        certs.extend(_subadditivity_certs(
            "order3-witness-tensor-subadditivity", _values(rt, alpha),
            _values(r1.affinity, alpha), _values(r2.affinity, alpha), alpha, seed))
    return certs


def theorem2(seed, n_samples=None):
    n = 30 if n_samples is None else int(n_samples)
    certs = []
    opts = {"max_iter": 200}

    # members of each family score (numerically) zero: two random product
    # atoms per partition of the pool, in random proportions
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        rng, pool = _rng([seed, 4, 0, i]), build_family(kind, dims, famk).pool
        atoms = []
        for parts in pool + pool:
            factors = [rng.standard_normal(2 * prod(dims[j] for j in part)).view(complex)
                       for part in parts]
            atoms.append(pure_state(_assemble_product(dims, parts, factors), dims))
        member_comps = list(zip(rng.dirichlet(np.ones(len(atoms))), atoms))
        member = validate(sum(w * psi.projector().data for w, psi in member_comps), dims)
        rz = _scored(member, kind, famk, member_comps, alpha)
        certs.append(_cert("zero-on-members", 1.0 - rz, 0.0,
                           alpha=alpha, seed=seed))

    # local-unitary covariance at the witness level
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        rho = random_mixed(dims, prod(dims), [seed, 4, 1, i])
        r1 = _solve(rho, kind, famk, alpha, (seed, 4, 1, i, 0), **opts)
        u_full = reduce(np.kron, [random_unitary(2, [seed, 4, 1, i, j])
                                  for j in range(len(dims))])
        rho_u = validate(u_full @ rho.data @ u_full.conj().T, dims)
        r2 = _scored(rho_u, kind, famk, _rotated(u_full, r1.components), alpha)
        certs.append(_cert("local-unitary-witness", 1.0 - r1.affinity, 1.0 - r2,
                           equality=True, alpha=alpha, seed=seed))

    # convexity of the plain indicators via witness mixing
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        rho_a = random_mixed(dims, prod(dims), [seed, 4, 2, i, 0])
        rho_b = random_mixed(dims, prod(dims), [seed, 4, 2, i, 1])
        ra = _solve(rho_a, kind, famk, alpha, (seed, 4, 2, i, 2), **opts)
        rb = _solve(rho_b, kind, famk, alpha, (seed, 4, 2, i, 3), **opts)
        lam = _rng([seed, 4, 2, i, 4]).dirichlet(np.ones(2))
        mix = validate(lam[0] * rho_a.data + lam[1] * rho_b.data, dims)
        rmix = _scored(mix, kind, famk,
                       _scaled(ra.components, lam[0]) + _scaled(rb.components, lam[1]), alpha)
        certs.append(_cert("witness-mixing-convexity", 1.0 - rmix,
                           lam[0] * (1.0 - ra.affinity) + lam[1] * (1.0 - rb.affinity),
                           alpha=alpha, seed=seed))

    # monotonicity under one-round product channels, direct and on average
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        rho = random_mixed(dims, prod(dims), [seed, 4, 3, i])
        r1 = _solve(rho, kind, famk, alpha, (seed, 4, 3, i, 0), **opts)
        locc = make_local_product([random_channel(2, 2, [seed, 4, 3, i, j])
                                   for j in range(len(dims))])
        moved = _apply_to_components(locc, r1.components)
        rl = _scored(channel_apply(locc, rho), kind, famk, moved, alpha)
        certs.append(_cert("locc-monotonicity", 1.0 - rl,
                           1.0 - r1.affinity, alpha=alpha, seed=seed))

        lhs = 0.0
        for p, rho_i, wit in _selective_witnesses(locc, rho, r1.components):
            ri = _scored(rho_i, kind, famk, wit, alpha)
            lhs += p * _variant_value(ri, alpha, "avg")
        certs.append(_cert("locc-avg-monotonicity", lhs,
                           _variant_value(r1.affinity, alpha, "avg"),
                           alpha=alpha, seed=seed))

    # tensor subadditivity on two 2-qubit factors (4 qubits total)
    for i in range(n):
        alpha = ALPHA_GRID[i % 3]
        dims = (2, 2)
        kind, famk = ("separable", 2) if i % 2 == 0 else ("producible", 1)
        rho_a = random_mixed(dims, prod(dims), [seed, 4, 4, i, 0])
        rho_b = random_mixed(dims, prod(dims), [seed, 4, 4, i, 1])
        ra = _solve(rho_a, kind, famk, alpha, (seed, 4, 4, i, 2), **opts)
        rb = _solve(rho_b, kind, famk, alpha, (seed, 4, 4, i, 3), **opts)
        joint = tensor(rho_a, rho_b)
        tens_wit = _tensor_components(ra.components, rb.components, joint.dims)
        rj = _scored(joint, kind, famk, tens_wit, alpha)
        certs.extend(_subadditivity_certs(
            "tensor-subadditivity", _values(rj, alpha),
            _values(ra.affinity, alpha), _values(rb.affinity, alpha), alpha, seed))

    # nesting: a finer separability witness serves every coarser order
    for i in range(n):
        alpha = ALPHA_GRID[i % 3]
        dims = (2, 2, 2)
        rho = random_mixed(dims, prod(dims), [seed, 4, 5, i])
        rf = _solve(rho, "separable", 3, alpha, (seed, 4, 5, i, 0), **opts)
        rn = _scored(rho, "separable", 2, rf.components, alpha)
        certs.append(_cert("family-nesting",
                           _variant_value(rn, alpha, "avg"),
                           _variant_value(rf.affinity, alpha, "avg"),
                           alpha=alpha, seed=seed))
    return certs


def _gathered(z, idx):
    """Products psi (rows, d) of the entries that the table idx (rows, slots,
    d) gathers from z followed by [1, 0], and per slot the product of the
    other slots' entries, from running products."""
    f = np.concatenate((z, [1.0, 0.0]))[idx]
    if f.shape[1] == 2:
        return f[:, 0] * f[:, 1], f[:, ::-1]
    rest, psi = np.ones_like(f), f[:, -1]
    for s in range(1, f.shape[1]):           # forward: the slots before s
        np.multiply(rest[:, s - 1], f[:, s - 1], out=rest[:, s])
    for s in range(f.shape[1] - 2, -1, -1):  # backward: times the slots after s
        rest[:, s] *= psi
        psi = psi * f[:, s]
    return psi, rest


def _table(hull, layout):
    widths, tmpl = hull.widths[list(layout)], hull.tmpls[list(layout)]
    return np.where(tmpl < 0, widths.sum() - 1 - tmpl,
                    (np.cumsum(widths) - widths)[:, None, None] + tmpl)


def hull_map(hull, x):
    """sigma, and its pullback (G, Tr(G sigma)) -> the gradient of Tr(G sigma) on z."""
    z, layout = x
    idx = _table(hull, layout)
    scatter = (2 * idx[..., None] + np.arange(2)).ravel()
    psi, rest = _gathered(z, idx)
    n = np.vdot(psi, psi).real

    def pullback(g, tr):
        dpsi = (2.0 / n) * (psi @ g.T - tr * psi)
        w = dpsi[:, None, :] * rest.conj()      # real, imaginary parts interleaved
        return np.bincount(scatter, w.view(float).ravel(),
                           2 * len(z) + 4)[:-4].view(complex)
    return psi.T @ psi.conj() / n, pullback


def evaluate(s, rho_a, beta):
    w, v = np.linalg.eigh(s)
    vh = v.conj().T
    r = vh @ rho_a @ v
    f = float(_flushed(w) ** beta @ r.diagonal().real)
    g = v @ (_power_slopes(np.maximum(w, _EIG_FLOOR * w[-1]), beta) * r) @ vh
    return f, g, float((g * s.T).sum().real), w


def hull_objective(hull, layout, rho_a, beta):
    """theta -> (-f, the gradient of -f), (inf, 0) for a rejected step."""
    def objective(theta):
        s, pullback = hull_map(hull, (theta.view(complex), layout))
        try:
            f, g, tr, _ = evaluate(s, rho_a, beta)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)       # a rejected step
        grad = pullback(g, tr).view(float)
        if not np.isfinite(f + grad.sum()):
            return np.inf, np.zeros_like(theta)
        return -f, -grad
    return objective


def hull_components(hull, x):
    psi = _gathered(x[0], _table(hull, x[1]))[0]
    weights = np.sum(np.abs(psi) ** 2, axis=1)
    total = weights.sum()
    return [WitnessComponent(float(w / total), pure_state(v / np.sqrt(w), hull.dims))
            for w, v in zip(weights, psi) if w / total > _DROP_WEIGHT]


class Partition:
    """Product vectors over one partition, a row of factors per vector."""

    def __init__(self, dims, partition):
        letters, batch = "abcdef"[:len(dims)], "z" if len(partition) > 1 else ""
        self.count, self.shapes = len(partition), [[dims[i] for i in part] for part in partition]
        self.sizes = [prod(shape) for shape in self.shapes]
        sub = ["z" + "".join(letters[i] for i in part) for part in partition]
        co = ["z" + s[1:].upper() for s in sub]
        self.forms = [",".join([letters + letters.upper()] + sub[:q] + co[:q] + sub[q + 1:]
                               + co[q + 1:]) + "->" + batch + sub[q][1:] + co[q][1:]
                      for q in range(self.count)]

    def form(self, gt, phis, q):
        """<phi|G|phi> as a form on factor q, one matrix per start."""
        phis = [phi.reshape([len(phi)] + shape) for phi, shape in zip(phis, self.shapes)]
        return np.einsum(self.forms[q], gt, *[phi.conj() for phi in phis[:q]], *phis[:q],
                         *[phi.conj() for phi in phis[q + 1:]], *phis[q + 1:]
                         ).reshape(-1, self.sizes[q], self.sizes[q])


def product_oracle(dims, pool, rng, g, tr):
    """(largest <phi|G|phi> found, phi, (pool index, row)), drawing the
    starts from ``rng``."""
    best, gt = (-np.inf, None, None), g.reshape(tuple(dims) * 2)
    for j, partition in enumerate(pool):
        p = Partition(dims, partition)
        phis = [rng.standard_normal((_ORACLE_STARTS, 2 * s)).view(complex) for s in p.sizes]
        value = np.full(_ORACLE_STARTS, -np.inf)
        for _ in range(_ORACLE_SWEEPS):
            for q in range(p.count):
                lam, vec = np.linalg.eigh(p.form(gt, phis, q))
                phis[q] = vec[..., -1]
            gain, value = lam[:, -1] - value, lam[:, -1]
            if p.count == 1 or gain.max() <= max(_ORACLE_TOL * np.abs(value).max(),
                                                 _ORACLE_SHARE * (value.max() - tr)):
                break
        z = int(np.argmax(value))
        if value[z] > best[0]:
            atom = _assemble_product(dims, partition, [phi[z] for phi in phis])
            best = (value[z], atom, (j, np.concatenate([phi[z] for phi in phis])))
    return best


def coarsest_pool(kind, n, k):
    """The separable(k) or producible(k) pool on n subsystems: the
    partitions into exactly k parts, or with parts of at most k subsystems,
    less every one that refines another (each of its parts lies in a part
    of the other)."""
    if kind == "separable":
        pool = enumerate_partitions(n, exactly_k_parts=k).partitions
    else:
        pool = enumerate_partitions(n, max_part_size=min(k, n)).partitions
    return tuple(p for p in pool
                 if not any(q != p and all(any(set(f) <= set(c) for c in q) for f in p)
                            for q in pool))
