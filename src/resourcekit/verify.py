"""Named certificate suites.

Each suite samples seeded instances, evaluates both sides of every claimed
inequality (or equality), and returns the raw certificates; ``summarize``
applies the tolerance policy.  All comparisons between two optimized
quantities are stated constructively through transported witnesses, because
optimizer outputs are one-sided bounds: scoring the mapped witness on the
second side makes the claimed inequality hold by construction whenever the
mapping is sound, so a violated certificate is a genuine counterexample and
never an optimizer artifact.

The suites without a solver (``affinity-props``, ``appendix-b``, the
order-2 part of ``theorem1`` and the affinity preservation of
``embedding``) evaluate their samples in groups of one shape, as stacks;
see "Samples as stacks" below.
"""

from __future__ import annotations

from functools import reduce
from math import prod

import numpy as np

from .affinity import (
    InequalityCertificate,
    _cert,
    _channel_certificates,
    _clamped,
    _loss,
    _outcomes,
    _state_affinity,
    holder_negative_exponent_bound,
    power_mean_bound,
)
from .channels import (
    OUTCOME_THRESHOLD,
    _conjugates,
    _post_states,
    _summed,
    apply as channel_apply,
    make_local_product,
    make_monomial_incoherent,
    random_channel,
    random_projective,
)
from .embedding import (
    build_embedding,
    depth_correspondence,
    embed_state,
    theorem3_check,
)
from .errors import FeasibilityCheckFailed, WitnessEncodingError
from .feasible import WitnessComponent, _assemble_product, _mixture, build_family
from .indicators import _closed_forms, _scored, _seed_key, _variant_value, max_affinity
from .states import (
    PureState,
    _count,
    _half_trace_norms,
    _random_mixed,
    _rng,
    _validated,
    pure_state,
    random_mixed,
    random_unitary,
    tensor,
    validate,
)

ALPHA_GRID = (0.3, 0.5, 0.7)

SUITE_NAMES = ("affinity-props", "appendix-b", "theorem1", "theorem2",
               "embedding", "theorem3")

# Pass policy: a certificate passes iff slack >= -tol (inequalities) or
# |slack| <= tol (equalities).  Kept in one table so the policy has a single
# home; operations themselves report raw numbers only.
TOLERANCES = {
    "bounds": 1e-10,
    "self-affinity": 1e-10,
    "separation": 0.0,
    "unitary-invariance": 1e-9,
    "multiplicativity": 1e-9,
    "joint-concavity": 1e-8,
    "cptp-monotonicity": 1e-8,
    "selective-loss": 1e-8,
    "holder-negative-exponent": 1e-8,
    "power-mean": 1e-8,
    "selective-power-sum": 1e-8,
    "block-diagonal-equality": 1e-9,
    "kraus-sum-dominance": 1e-8,
    "order2-convexity": 1e-9,
    "order2-channel-monotonicity": 1e-9,
    "order2-avg-monotonicity": 1e-9,
    "order2-tensor-subadditivity": 1e-9,
    "order3-witness-convexity": 1e-8,
    "order3-witness-avg-monotonicity": 1e-8,
    "order3-witness-channel-monotonicity": 1e-8,
    "order3-witness-tensor-subadditivity": 1e-8,
    "zero-on-members": 1e-9,
    "local-unitary-witness": 1e-9,
    "witness-mixing-convexity": 1e-8,
    "locc-avg-monotonicity": 1e-8,
    "locc-monotonicity": 1e-8,
    "tensor-subadditivity": 1e-8,
    "family-nesting": 1e-8,
    "flag-involution": 1e-9,
    "flag-permutation": 1e-12,
    "flag-action": 1e-12,
    "affinity-preservation": 1e-9,
    "depth-separability": 1e-9,
    "depth-entanglement": 1e-9,
    "transport-nonseparability": 1e-9,
    "transport-nonseparability-avg": 1e-9,
    "transport-entanglement": 1e-9,
    "transport-entanglement-avg": 1e-9,
    "transport-witness-feasible": 0.0,
}


def _deficit(cert: InequalityCertificate) -> float:
    return -abs(cert.slack) if cert.equality else cert.slack


def summarize(certs):
    """Per-label (count, worst deficit, tolerance, passed).  A label with no
    entry in TOLERANCES raises ValueError."""
    out = {}
    for c in certs:
        entry = out.setdefault(c.label, {"count": 0, "min_slack": np.inf})
        entry["count"] += 1
        entry["min_slack"] = min(entry["min_slack"], _deficit(c))
    for label, entry in out.items():
        if label not in TOLERANCES:
            raise ValueError(f"certificate label {label!r} has no tolerance")
        tol = TOLERANCES[label]
        entry["tol"] = tol
        entry["passed"] = entry["min_slack"] >= -tol
    return out


def all_passed(certs) -> bool:
    return all(entry["passed"] for entry in summarize(certs).values())


# ---------------------------------------------------------------------------
# Samples as stacks.  A suite draws each sample's inputs one sample at a
# time from its own seeded streams, then evaluates the samples whose shapes
# and exponents agree together: one validation (one eigh) per stack of
# states, one power and trace product per stack of affinities.  Certificates
# are emitted in sample order, so a report does not depend on the grouping.
# ---------------------------------------------------------------------------

def _groups(keys):
    """Positions 0..len(keys)-1 grouped by equal key, each group in order."""
    groups = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _split(keys, fn, *columns):
    """``fn`` on the rows of ``columns`` (equal-length sequences) whose keys
    are equal, one call per key; its per-row results, in row order."""
    out = [None] * len(keys)
    for rows in _groups(keys):
        for k, result in zip(rows, fn(*([col[k] for k in rows] for col in columns))):
            out[k] = result
    return out


def _data(states) -> np.ndarray:
    return np.array([rho.data for rho in states])


def _affinities(rhos, sigmas, alpha):
    """alpha_affinity of each pair, with one power per side."""
    return [_clamped(a) for a in _state_affinity(rhos, sigmas, alpha)]


def _mixtures(lam, first, second, dims):
    """lam[k, 0] first[k] + lam[k, 1] second[k], validated as one stack."""
    return _validated(lam[:, :1, None] * _data(first) + lam[:, 1:, None] * _data(second), dims)


def _applied(channels, states, dims):
    """channels.apply of each channel (of one outcome count) to its state,
    validated as one stack; also the stacked traces and conjugates."""
    p, parts = _conjugates(np.array([ch.kraus for ch in channels]), _data(states))
    return _validated(_summed(parts), dims), p, parts


# ---------------------------------------------------------------------------
# Suite: core affinity identities and monotonicity properties.
# ---------------------------------------------------------------------------

def run_affinity_props(seed, n_samples=None):
    """Bounds, self-affinity, separation, unitary invariance,
    multiplicativity, joint concavity and CPTP/selective monotonicity of the
    affinity on seeded states.  Samples are evaluated in groups by i % 3,
    which fixes d and alpha; the channel part splits a group by outcome
    count (2 + i % 2).  Certificates are emitted in sample order."""
    seed = _count(seed, "seed")
    n = 500 if n_samples is None else _count(n_samples, "n_samples")
    rows = [None] * n
    for idx in _groups([i % 3 for i in range(n)]):
        alpha, d = ALPHA_GRID[idx[0] % 3], 2 + idx[0] % 3
        dims = (d,)
        seeds = lambda tag: [[seed, 0, i, tag] for i in idx]
        draw = lambda tag, space=dims: _random_mixed(space, [prod(space)] * len(idx), seeds(tag))
        rho = _random_mixed(dims, [1 + i % d for i in idx], seeds(0))
        sig = draw(1)
        a = _state_affinity(rho, sig, alpha)
        aff = [_clamped(x) for x in a]    # alpha_affinity(rho, sig, alpha)
        selfs = _affinities(rho, rho, alpha)
        dist = _half_trace_norms(_data(rho) - _data(sig))

        u = np.array([random_unitary(d, s) for s in seeds(2)])
        rot = lambda states: _validated(u @ _data(states) @ u.conj().swapaxes(1, 2), dims)
        rotated = _affinities(rot(rho), rot(sig), alpha)

        rho2, sig2 = draw(3, (2,)), draw(4, (2,))
        joint = _affinities([tensor(x, y) for x, y in zip(rho, rho2)],
                            [tensor(x, y) for x, y in zip(sig, sig2)], alpha)
        aff2 = _affinities(rho2, sig2, alpha)

        lam = np.array([_rng(s).dirichlet(np.ones(2)) for s in seeds(5)])
        rho_b, sig_b = draw(6), draw(7)
        aff_b = _affinities(rho_b, sig_b, alpha)
        mixed = _affinities(_mixtures(lam, rho, rho_b, dims),
                            _mixtures(lam, sig, sig_b, dims), alpha)

        chans = [random_channel(d, 2 + i % 2, s) for i, s in zip(idx, seeds(8))]
        shapes = [ch.outcomes for ch in chans]
        moved = _split(shapes, lambda c, r, s: _affinities(
            _applied(c, r, dims)[0], _applied(c, s, dims)[0], alpha), chans, rho, sig)
        outcomes = _split(shapes, lambda c, r, s: _outcomes(c, r, s, alpha), chans, rho, sig)

        for k, i in enumerate(idx):
            row = [_cert("bounds", 0.0, a[k], alpha=alpha, seed=seed),
                   _cert("bounds", a[k], 1.0, alpha=alpha, seed=seed),
                   _cert("self-affinity", selfs[k], 1.0, equality=True, alpha=alpha, seed=seed)]
            if dist[k] > 1e-3:
                row.append(_cert("separation", a[k], 1.0 - 1e-6, alpha=alpha, seed=seed))
            row += [_cert("unitary-invariance", rotated[k], aff[k],
                          equality=True, alpha=alpha, seed=seed),
                    _cert("multiplicativity", joint[k], aff[k] * aff2[k],
                          equality=True, alpha=alpha, seed=seed),
                    _cert("joint-concavity", lam[k, 0] * aff[k] + lam[k, 1] * aff_b[k],
                          mixed[k], alpha=alpha, seed=seed),
                    _cert("cptp-monotonicity", aff[k], moved[k], alpha=alpha, seed=seed),
                    _loss(outcomes[k], a[k], alpha, seed)]
            rows[i] = row
    return [c for row in rows for c in row]


# ---------------------------------------------------------------------------
# Suite: scalar and channel inequality certificates.
# ---------------------------------------------------------------------------

def run_appendix_b(seed, n_samples=None):
    """Reverse-Hoelder and power-mean certificates on seeded vectors (one
    sample at a time), and the four channel certificates on seeded states
    and channels, in groups by i % 3, which fixes d and alpha, split by
    outcome count (projective measurements for even i, three-outcome
    channels for odd i).  Certificates are emitted in sample order."""
    seed = _count(seed, "seed")
    n = 500 if n_samples is None else _count(n_samples, "n_samples")
    rows = []
    for i in range(n):
        rng = _rng([seed, 1, i])
        size = 1 + int(rng.integers(8))
        a = np.abs(rng.standard_normal(size)) + 0.05
        b = np.abs(rng.standard_normal(size)) + 0.05
        p = float(0.1 + 2.9 * rng.random())
        q = float(-0.1 - 2.9 * rng.random())
        x = np.abs(rng.standard_normal(size)) + 0.05
        qvec = rng.dirichlet(np.ones(size))
        t = float(1.0 + 3.0 * rng.random()) + 1e-6
        rows.append([holder_negative_exponent_bound(a, b, p, q, seed=seed),
                     power_mean_bound(x, qvec, t, seed=seed)])

    for idx in _groups([i % 3 for i in range(n)]):
        alpha, d = ALPHA_GRID[idx[0] % 3], 2 + idx[0] % 3
        rho = _random_mixed((d,), [d] * len(idx), [[seed, 1, i, 0] for i in idx])
        sig = _random_mixed((d,), [d] * len(idx), [[seed, 1, i, 1] for i in idx])
        chans = [random_channel(d, 2 + i % 2, [seed, 1, i, 2]) if i % 2
                 else random_projective(d, 1 + i % (d - 1), [seed, 1, i, 2]) for i in idx]
        certs = _split([ch.outcomes for ch in chans], lambda r, s, c: _channel_certificates(
            r, s, c, alpha, seed=seed), rho, sig, chans)
        for i, four in zip(idx, certs):
            rows[i] += four
    return [c for row in rows for c in row]


# ---------------------------------------------------------------------------
# Witness transport shared by the theorem suites: ``_mixing``, ``_monotone``
# and ``_subadditive`` map explicit witnesses (mixed, pushed through a channel
# or its outcomes, tensored) to feasible ones for the image state and score
# them there (``_scored``), so each claimed inequality holds by construction.
# ---------------------------------------------------------------------------

def _solve(rho, kind, k, alpha, tags, **effort):
    """Best affinity of rho against kind(k) on its convex hull, seeded by
    ``tags`` (the correlation kinds draw their start from it)."""
    return max_affinity(rho, build_family(kind, rho.dims, k), alpha,
                        seed=_seed_key(tags), **effort)


def _pushed(op: np.ndarray, comps):
    """Unnormalized witness image under one Kraus operator."""
    out = []
    for w, psi in comps:
        amps = op @ psi.amps
        nrm2 = float(np.real(np.vdot(amps, amps)))
        if nrm2 > 0.0:
            out.append(WitnessComponent(w * nrm2, pure_state(amps, psi.dims)))
    return out


def _selective_witnesses(channel, rho, comps):
    """Yield (p_i, rho_i, witness_i) for every outcome that both the state
    and the witness reach; witness_i is the normalized pushed witness."""
    probs, outs = _conjugates(np.array(channel.kraus), rho.data)
    for op, p, out in zip(channel.kraus, probs.tolist(), outs):
        if p <= OUTCOME_THRESHOLD:
            continue
        pushed = _pushed(op, comps)
        q = sum(w for w, _ in pushed)
        if q <= OUTCOME_THRESHOLD:
            continue
        yield p, validate(out / p, rho.dims), [WitnessComponent(w / q, psi)
                                               for w, psi in pushed]


def _solved(tags, dims, kind, k, alpha, **effort):
    """A seeded state on ``dims`` (stream ``tags``) and its solve against
    kind(k), seeded by ``tags + (0,)``."""
    rho = random_mixed(dims, prod(dims), list(tags))
    return rho, _solve(rho, kind, k, alpha, tags + (0,), **effort)


def _pair(tags, dims, kind, k, alpha, **effort):
    """Two seeded states (streams ``tags + (0|1,)``) and their solves,
    seeded by ``tags + (2|3,)``."""
    rhos = [random_mixed(dims, prod(dims), [*tags, j]) for j in (0, 1)]
    return [(rho, _solve(rho, kind, k, alpha, tags + (2 + j,), **effort))
            for j, rho in enumerate(rhos)]


def _mixing(label, tags, pair, kind, k, alpha, seed):
    """Convexity of the plain indicator: the lam-mixed witness (lam drawn
    from ``tags + (4,)``) is feasible for the lam-mixed state."""
    (rho1, r1), (rho2, r2) = pair
    lam = _rng([*tags, 4]).dirichlet(np.ones(2))
    mix = validate(lam[0] * rho1.data + lam[1] * rho2.data, rho1.dims)
    wit = [WitnessComponent(w * lam[j], psi)
           for j, r in enumerate((r1, r2)) for w, psi in r.components]
    return _cert(label, 1.0 - _scored(mix, kind, k, wit, alpha),
                 lam[0] * (1.0 - r1.affinity) + lam[1] * (1.0 - r2.affinity),
                 alpha=alpha, seed=seed)


def _monotone(labels, rho, r, channel, kind, k, alpha, seed):
    """Monotonicity of the plain indicator under ``channel`` (the witness
    pushed through every Kraus operator) and of the averaged indicator over
    its selective outcomes; ``labels`` names the two certificates."""
    moved = [c for op in channel.kraus for c in _pushed(op, r.components)]
    ro = _scored(channel_apply(channel, rho), kind, k, moved, alpha)
    lhs = 0.0
    for p, rho_i, wit in _selective_witnesses(channel, rho, r.components):
        lhs += p * _variant_value(_scored(rho_i, kind, k, wit, alpha), alpha, "avg")
    return [_cert(labels[0], 1.0 - ro, 1.0 - r.affinity, alpha=alpha, seed=seed),
            _cert(labels[1], lhs, _variant_value(r.affinity, alpha, "avg"),
                  alpha=alpha, seed=seed)]


def _subadditive(label, pair, kind, k, alpha, seed):
    """Tensor subadditivity of both variants: the product witness is
    feasible for the product state in kind(k)."""
    (rho1, r1), (rho2, r2) = pair
    joint = tensor(rho1, rho2)
    wit = [WitnessComponent(wa * wb, pure_state(np.kron(a.amps, b.amps), joint.dims))
           for wa, a in r1.components for wb, b in r2.components]
    rj = _scored(joint, kind, k, wit, alpha)
    return _subadditivity_certs(label, *([_variant_value(a, alpha, v) for v in ("plain", "avg")]
                                         for a in (rj, r1.affinity, r2.affinity)), alpha, seed)


def _subadditivity_certs(label, joint, left, right, alpha, seed):
    """Tensor subadditivity of both variants, from (plain, avg) value pairs."""
    return [_cert(label, joint[v], left[v] + right[v], alpha=alpha, seed=seed)
            for v in (0, 1)]


# ---------------------------------------------------------------------------
# Suite: coherence indicator properties.
# ---------------------------------------------------------------------------

def run_theorem1(seed, n_samples=None, n_constructive=None):
    """Order-2 convexity, channel and average monotonicity and tensor
    subadditivity of the coherence indicators (closed form), then the
    order-3 checks on transported witnesses (:func:`_theorem1_constructive`).
    The order-2 samples are evaluated in groups by i % 3, which fixes d,
    alpha and the channel's outcome count; the small systems split a group
    by their dims (i % 2).  Certificates are emitted in sample order.
    ``n_constructive`` (None: n // 10, at least 1 and at most n) counts the
    order-3 samples."""
    seed = _count(seed, "seed")
    n = 300 if n_samples is None else _count(n_samples, "n_samples")
    nc = (min(n, max(1, n // 10)) if n_constructive is None
          else _count(n_constructive, "n_constructive"))
    rows = [None] * n
    for idx in _groups([i % 3 for i in range(n)]):
        alpha, d = ALPHA_GRID[idx[0] % 3], 2 + idx[0] % 3
        dims = (d,)
        draw = lambda space, tag, ids=idx: _random_mixed(
            space, [prod(space)] * len(ids), [[seed, 2, i, tag] for i in ids])
        rho1, rho2 = draw(dims, 0), draw(dims, 1)
        lam = np.array([_rng([seed, 2, i, 2]).dirichlet(np.ones(2)) for i in idx])
        c_mix = _closed_forms(_mixtures(lam, rho1, rho2, dims), alpha)
        c1, c2 = _closed_forms(rho1, alpha), _closed_forms(rho2, alpha)

        chans = [make_monomial_incoherent(d, 1 + i % 3, [seed, 2, i, 3]) for i in idx]
        out, p, parts = _applied(chans, rho1, dims)
        c_out = _closed_forms(out, alpha)
        posts = [_post_states(pk, parts_k, dims) for pk, parts_k in zip(p, parts)]
        c_post = iter(_closed_forms([r for post in posts for _, r in post], alpha))

        def subadditivity(ids):
            small1 = draw((2 + ids[0] % 2,), 4, ids)
            small2 = draw((2 + (ids[0] + 1) % 2,), 5, ids)
            return zip(_closed_forms([tensor(x, y) for x, y in zip(small1, small2)], alpha),
                       _closed_forms(small1, alpha), _closed_forms(small2, alpha))
        small = _split([i % 2 for i in idx], subadditivity, idx)

        for k, i in enumerate(idx):
            (plain, avg), (out_plain, out_avg) = c1[k], c_out[k]
            lhs_avg = sum(pi * next(c_post)[1] for pi, _ in posts[k])
            rows[i] = [
                _cert("order2-convexity", c_mix[k][0],
                      lam[k, 0] * plain + lam[k, 1] * c2[k][0], alpha=alpha, seed=seed),
                _cert("order2-channel-monotonicity", out_plain, plain, alpha=alpha, seed=seed),
                _cert("order2-channel-monotonicity", out_avg, avg, alpha=alpha, seed=seed),
                _cert("order2-avg-monotonicity", lhs_avg, avg, alpha=alpha, seed=seed),
                *_subadditivity_certs("order2-tensor-subadditivity", *small[k], alpha, seed)]

    certs = [c for row in rows for c in row]
    certs.extend(_theorem1_constructive(seed, nc))
    return certs


def _theorem1_constructive(seed, nc):
    """Order-3 checks on qutrits: every comparison transports the witness."""
    certs = []
    for i in range(nc):
        alpha, tags = ALPHA_GRID[i % 3], (seed, 3, i)
        pair = _pair(tags, (3,), "multilevel", 2, alpha, max_iter=300)
        chan = make_monomial_incoherent(3, 2, [seed, 3, i, 6])
        # convexity of the plain indicator via mixed witnesses
        certs.append(_mixing("order3-witness-convexity", tags, pair, "multilevel", 2,
                             alpha, seed))
        # channel monotonicity and average monotonicity under monomial maps
        certs += _monotone(("order3-witness-channel-monotonicity",
                            "order3-witness-avg-monotonicity"),
                           *pair[0], chan, "multilevel", 2, alpha, seed)
        # tensor subadditivity: order (k-1)^2 + 1 on the 9-level product
        certs += _subadditive("order3-witness-tensor-subadditivity", pair, "multilevel", 4,
                              alpha, seed)
    return certs


# ---------------------------------------------------------------------------
# Suite: correlation indicator properties.
# ---------------------------------------------------------------------------

def _t2_config(i):
    """Cycle instance configurations over systems and family kinds."""
    dims = (2, 2) if i % 2 == 0 else (2, 2, 2)
    kind, famk = ("separable", 2) if i % 4 < 2 else ("producible", 1)
    return ALPHA_GRID[i % 3], dims, kind, famk


def run_theorem2(seed, n_samples=None):
    seed = _count(seed, "seed")
    n = 30 if n_samples is None else _count(n_samples, "n_samples")
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
        member = validate(_mixture(member_comps), dims)
        rz = _scored(member, kind, famk, member_comps, alpha)
        certs.append(_cert("zero-on-members", 1.0 - rz, 0.0,
                           alpha=alpha, seed=seed))

    # local-unitary covariance at the witness level
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        rho, r1 = _solved((seed, 4, 1, i), dims, kind, famk, alpha, **opts)
        u_full = reduce(np.kron, [random_unitary(2, [seed, 4, 1, i, j])
                                  for j in range(len(dims))])
        rho_u = validate(u_full @ rho.data @ u_full.conj().T, dims)
        rotated = [WitnessComponent(w, pure_state(u_full @ psi.amps, dims))
                   for w, psi in r1.components]
        r2 = _scored(rho_u, kind, famk, rotated, alpha)
        certs.append(_cert("local-unitary-witness", 1.0 - r1.affinity, 1.0 - r2,
                           equality=True, alpha=alpha, seed=seed))

    # convexity of the plain indicators via witness mixing
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        tags = (seed, 4, 2, i)
        certs.append(_mixing("witness-mixing-convexity", tags,
                             _pair(tags, dims, kind, famk, alpha, **opts),
                             kind, famk, alpha, seed))

    # monotonicity under one-round product channels, direct and on average
    for i in range(n):
        alpha, dims, kind, famk = _t2_config(i)
        locc = make_local_product([random_channel(2, 2, [seed, 4, 3, i, j])
                                   for j in range(len(dims))])
        certs += _monotone(("locc-monotonicity", "locc-avg-monotonicity"),
                           *_solved((seed, 4, 3, i), dims, kind, famk, alpha, **opts),
                           locc, kind, famk, alpha, seed)

    # tensor subadditivity on two 2-qubit factors (4 qubits total)
    for i in range(n):
        alpha = ALPHA_GRID[i % 3]
        kind, famk = ("separable", 2) if i % 2 == 0 else ("producible", 1)
        certs += _subadditive("tensor-subadditivity",
                              _pair((seed, 4, 4, i), (2, 2), kind, famk, alpha, **opts),
                              kind, famk, alpha, seed)

    # nesting: a finer separability witness serves every coarser order
    for i in range(n):
        alpha = ALPHA_GRID[i % 3]
        rho, rf = _solved((seed, 4, 5, i), (2, 2, 2), "separable", 3, alpha, **opts)
        rn = _scored(rho, "separable", 2, rf.components, alpha)
        certs.append(_cert("family-nesting",
                           _variant_value(rn, alpha, "avg"),
                           _variant_value(rf.affinity, alpha, "avg"),
                           alpha=alpha, seed=seed))
    return certs


# ---------------------------------------------------------------------------
# Suite: embedding structure and depth correspondences.
# ---------------------------------------------------------------------------

def _unambiguous_pure(seed, tags, d, rank) -> PureState:
    rng = _rng([seed, *tags])
    while True:
        support = sorted(rng.choice(d, size=rank, replace=False).tolist())
        amps = np.zeros(d, dtype=complex)
        vals = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        mags = np.abs(vals)
        if mags.min() < 0.05 * mags.max():
            continue
        amps[support] = vals
        return pure_state(amps, (d,))


def run_embedding(seed, n_samples=None):
    seed = _count(seed, "seed")
    n = 100 if n_samples is None else _count(n_samples, "n_samples")
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

        psis = [_unambiguous_pure(seed, (5, d, i), d, 1 + i % d) for i in range(n)]
        for i, info in enumerate(depth_correspondence(emb, psis)):
            rank = 1 + i % d
            expect_sep = d + 1 if rank == 1 else d - rank + 1
            expect_ent = 1 if rank == 1 else rank + 1
            certs.append(_cert("depth-separability", float(info["sep_depth"]),
                               float(expect_sep), equality=True, seed=seed))
            certs.append(_cert("depth-entanglement", float(info["ent_depth"]),
                               float(expect_ent), equality=True, seed=seed))

    # affinity preservation, in groups by i % 6 (d and alpha), in sample order
    rows = [None] * (2 * n)
    for idx in _groups([i % 6 for i in range(2 * n)]):
        alpha, d = ALPHA_GRID[idx[0] % 3], 2 + idx[0] % 2
        emb = build_embedding(d)
        rho = _random_mixed((d,), [d] * len(idx), [[seed, 5, 9, i, 0] for i in idx])
        sig = _random_mixed((d,), [d] * len(idx), [[seed, 5, 9, i, 1] for i in idx])
        a_src = _affinities(rho, sig, alpha)
        a_emb = _affinities([embed_state(emb, x) for x in rho],
                            [embed_state(emb, x) for x in sig], alpha)
        for i, lhs, rhs in zip(idx, a_emb, a_src):
            rows[i] = _cert("affinity-preservation", lhs, rhs,
                            equality=True, alpha=alpha, seed=seed)
    certs.extend(rows)
    return certs


# ---------------------------------------------------------------------------
# Suite: transported coherence-to-correlation bounds.
# ---------------------------------------------------------------------------

def run_theorem3(seed, n_samples=None):
    seed = _count(seed, "seed")
    n = 20 if n_samples is None else _count(n_samples, "n_samples")
    certs = []
    for d, k in ((2, 2), (3, 2), (3, 3)):
        for i in range(n):
            alpha = ALPHA_GRID[i % 3]
            rho = random_mixed((d,), d, [seed, 6, d, k, i])
            try:
                rows = theorem3_check(rho, k, alpha, seed=_seed_key([seed, 6, d, k, i]),
                                      max_iter=150)
            except (FeasibilityCheckFailed, WitnessEncodingError):
                certs.append(_cert("transport-witness-feasible", 0.0, 1.0,
                                   equality=True, alpha=alpha, seed=seed))
                continue
            certs.append(_cert("transport-witness-feasible", 1.0, 1.0,
                               equality=True, alpha=alpha, seed=seed))
            for row in rows:
                base = row.lhs_label.split("[")[0]
                label = ("transport-" + base.replace("_avg", "-avg"))
                certs.append(_cert(label, row.lhs, row.rhs, alpha=alpha, seed=seed))
    return certs


SUITES = {
    "affinity-props": run_affinity_props,
    "appendix-b": run_appendix_b,
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "embedding": run_embedding,
    "theorem3": run_theorem3,
}


def run_suite(name, seed, n_samples=None):
    """The certificates of suite ``name`` (or of every suite, "all") at
    ``seed``; a ``seed`` or ``n_samples`` (None: each suite's default) that
    is negative or not an integer raises ValueError before any sample runs."""
    if name == "all":
        certs = []
        for sub in SUITE_NAMES:
            certs.extend(SUITES[sub](seed, n_samples))
        return certs
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return SUITES[name](seed, n_samples)
