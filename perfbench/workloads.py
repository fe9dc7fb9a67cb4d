"""The benchmark's three workloads as fixed, seeded operation lists.

An operation is one call into the library's public API.  Each workload is a
list of operations grouped into periods of a fixed mix; the run issues
them in order, closed loop, and stops only at a period boundary so every
run measures the same mix.  The list itself is the accuracy set: accuracy
metrics are taken over one full pass, which therefore never depends on
how fast the code is.

* ``certify``: certificate-suite calls (no optimizer), rotating through
  ``affinity-props``, ``appendix-b``, ``embedding`` and the order-2 part of
  ``theorem1``.  Sample counts are chosen so each call costs about the same.
* ``coherence``: ``compute_indicator`` with ``coherence``/``coherence_avg``
  on frozen anchors and seeded Ginibre qutrits and ququarts.
* ``correlation``: ``compute_indicator`` with ``nonseparability`` and
  ``entanglement`` (plain and averaged) on the Bell anchor and seeded 2-
  and 3-qubit Ginibre states, interleaved with ``theorem3_check``
  transports.

Anchors are frozen whole, optimizer seed included, so their error is the
same for every workload seed; the seed-to-seed behaviour of the optimizer
shows in ``bound_mean``, which is averaged over all solves of a pass.
``certify`` runs no optimizer: its exact references are the suites'
equality certificates (|slack| is the error), and its reported indicator
values are the order-2 coherences (closed form) of ``order2-convexity``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from resourcekit import embedding, feasible, indicators, states, verify

ALPHAS = (0.3, 0.5, 0.7)

# Errors below this read as it: it is the library's witness-check tolerance,
# and roundoff under it is not an accuracy change.
ERROR_RESOLUTION = 1e-9

# certify: samples per suite call, set so each call costs about 0.1 s here.
CERTIFY_SAMPLES = (("affinity-props", 24), ("appendix-b", 36),
                   ("embedding", 21), ("theorem1", 44))
CERTIFY_PERIODS = 25

# coherence: one effort for every solve.  A period holds two anchors and
# twelve seeded (d, k) solves, 3 of 8 of them order 2.  The second half
# swaps the order-2 ququart for a qutrit, so that the operation where
# latency_tail_ms reads (eleventh slowest of a pass) lies inside one cost
# group rather than on the edge between two.
COHERENCE_OPTS = {"restarts": 2, "max_iter": 300}
COHERENCE_RANK = 2   # full-rank inputs sit near I/d, where values are small and vary most
COHERENCE_HALVES = (((3, 2), (3, 3), (4, 3), (4, 2), (4, 4), (3, 3)),
                    ((3, 2), (3, 3), (4, 3), (3, 2), (4, 4), (3, 3)))

# correlation: the theorem2 suite's effort and family sizes (two slots per
# partition); transports at the theorem3 suite's effort, one per period.
CORRELATION_OPTS = {"restarts": 1, "max_iter": 200}
TRANSPORT_OPTS = {"restarts": 1, "max_iter": 150}
TRANSPORTS = ((2, 2), (3, 2), (3, 3))

@dataclass(frozen=True)
class Op:
    """One library call plus what the benchmark reads from its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]          # False counts as a failed operation
    bounds: Callable[[object], list]         # reported indicator values
    errors: Callable[[object], list]         # |reported - exact| where exact is known
    inputs: tuple                            # what the call receives, for comparison
    order2: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    period: int


def _seed(*words) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


def _ginibre(dims, seed) -> states.DensityMatrix:
    d = int(np.prod(dims))
    return states.random_mixed(list(dims), d, seed=seed)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _suite_call(name, n, seed):
    if name == "theorem1":
        return lambda: verify.run_theorem1(seed, n, n_constructive=0)
    return lambda: verify.run_suite(name, seed, n)


def _certify(seed) -> Workload:
    ops = []
    for p in range(CERTIFY_PERIODS):
        for j, (name, n) in enumerate(CERTIFY_SAMPLES):
            op_seed = _seed(seed, 0, p, j)
            ops.append(Op(
                label=f"{name}[n={n}]",
                call=_suite_call(name, n, op_seed),
                check=lambda certs: bool(certs) and verify.all_passed(certs),
                bounds=lambda certs: [c.lhs for c in certs if c.label == "order2-convexity"],
                errors=lambda certs: [abs(c.slack) for c in certs if c.equality],
                inputs=(name, n, op_seed),
            ))
    return Workload("certify", tuple(ops), len(CERTIFY_SAMPLES))


# ---------------------------------------------------------------------------
# coherence / correlation indicator solves
# ---------------------------------------------------------------------------

def _indicator_op(rho, label, k, alpha, seed, opts, exact=None) -> Op:
    def errors(res):
        return [] if exact is None else [abs(res.value - exact)]

    return Op(
        label=f"{label}[k={k}] dims={rho.dims} alpha={alpha}",
        call=lambda: indicators.compute_indicator(rho, label, k, alpha, seed=seed, **opts),
        check=lambda res: indicators.check_witness(res, rho),
        bounds=lambda res: [res.value],
        errors=errors,
        inputs=(label, k, alpha, seed, rho.data.tobytes()),
        order2=label.startswith("coherence") and k == 2,
    )


def _uniform(d) -> states.DensityMatrix:
    return states.pure_state(np.ones(d)).projector()


def coherence_anchors() -> list[Op]:
    """|+> at order 2 (alpha 1/2 and 0.7), the uniform qutrit at orders 2
    and 3 for every alpha."""
    cases = [(2, 2, 0.5), (2, 2, 0.7)] + [(3, k, a) for a in ALPHAS for k in (2, 3)]
    anchors = []
    for d, k, alpha in cases:
        # order 2: 1 - d^(alpha-1), the closed form; order 3: 1 - (2/3)^(1-alpha)
        exact = 1.0 - d ** (alpha - 1.0) if k == 2 else 1.0 - (2.0 / 3.0) ** (1.0 - alpha)
        anchors.append(_indicator_op(_uniform(d), "coherence", k, alpha,
                                     1000 + len(anchors), COHERENCE_OPTS, exact=exact))
    return anchors


def _coherence(seed) -> Workload:
    anchors = coherence_anchors()
    ops = []
    for p, anchor in enumerate(anchors):
        ops.append(anchor)
        for j, (d, k) in enumerate(COHERENCE_HALVES[p % 2]):
            label = "coherence" if (p + j) % 2 == 0 else "coherence_avg"
            rho = states.random_mixed([d], COHERENCE_RANK, seed=[seed, 1, p, j])
            ops.append(_indicator_op(rho, label, k, ALPHAS[(p + j) % 3],
                                     _seed(seed, 1, p, j), COHERENCE_OPTS))
    return Workload("coherence", tuple(ops), 2 * (1 + len(COHERENCE_HALVES[0])))


def _theorem2_slots(dims, label) -> int:
    n = len(dims)
    if label.startswith("nonseparability"):
        parts = feasible.enumerate_partitions(n, exactly_k_parts=2)
    else:
        parts = feasible.enumerate_partitions(n, max_part_size=1)
    return 2 * len(parts.partitions)


def _correlation_indicator(rho, label, alpha, seed, exact=None) -> Op:
    opts = dict(CORRELATION_OPTS, m=_theorem2_slots(rho.dims, label))
    return _indicator_op(rho, label, 2, alpha, seed, opts, exact=exact)


def _transport_op(rho, k, alpha, seed) -> Op:
    def check(rows):
        return bool(rows) and all(row.slack >= -verify.TOLERANCES[_transport_label(row)]
                                  for row in rows)

    return Op(
        label=f"theorem3_check[d={rho.d},k={k}] alpha={alpha}",
        call=lambda: embedding.theorem3_check(rho, k, alpha, seed=seed, **TRANSPORT_OPTS),
        check=check,
        bounds=lambda rows: [row.lhs for row in rows],
        errors=lambda rows: [],
        inputs=("theorem3_check", k, alpha, seed, rho.data.tobytes()),
        order2=k == 2,
    )


def _transport_label(row) -> str:
    """Certificate label of a transport row, as the theorem3 suite names it."""
    return "transport-" + row.lhs_label.split("[")[0].replace("_avg", "-avg")


def correlation_anchors() -> list[Op]:
    """The Bell state at alpha 1/2 against both order-2 families."""
    bell = states.pure_state([1, 0, 0, 1], (2, 2)).projector()
    # plain: 1 - 2^(-1/2); averaged: 1 - (2^(-1/2))^(1/alpha) = 1/2
    cases = (("nonseparability", 1.0 - 2.0 ** -0.5), ("entanglement", 1.0 - 2.0 ** -0.5),
             ("nonseparability_avg", 0.5))
    return [_correlation_indicator(bell, label, 0.5, 2000 + p, exact=exact)
            for p, (label, exact) in enumerate(cases)]


def _correlation(seed) -> Workload:
    """Per period: the two-qubit family under both labels, three qubits
    against both families, each plain and averaged; one transport and one
    Bell anchor.  On two qubits both order-2 families are the product
    states, which is why one two-qubit solve per label suffices."""
    anchors = correlation_anchors()
    ops = []
    for p, ((d, k), anchor) in enumerate(zip(TRANSPORTS, anchors)):
        for j, pair in enumerate(("nonseparability", "entanglement")):
            for half, suffix in enumerate(("", "_avg")):
                for i, (base, dims) in enumerate(((pair, (2, 2)),
                                                  ("nonseparability", (2, 2, 2)),
                                                  ("entanglement", (2, 2, 2)))):
                    tag = (p, j, half, i)
                    ops.append(_correlation_indicator(
                        _ginibre(dims, [seed, 2, *tag]), base + suffix,
                        ALPHAS[(p + j + half + i) % 3], _seed(seed, 2, *tag)))
                if (j, half) == (0, 0):
                    ops.append(_transport_op(_ginibre((d,), [seed, 3, p]), k,
                                             ALPHAS[p % 3], _seed(seed, 3, p)))
                elif (j, half) == (0, 1):
                    ops.append(anchor)
    return Workload("correlation", tuple(ops), len(ops) // len(TRANSPORTS))


BUILDERS = {"certify": _certify, "coherence": _coherence, "correlation": _correlation}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](int(seed))


def warm_up(workload: Workload) -> None:
    """Run each code path once, so first-call costs fall in set-up rather
    than in the first timed operation.  Solves run at no optimizer effort."""
    if workload.name == "certify":
        for op in workload.ops[:workload.period]:
            op.call()
        return
    zero = {"restarts": 1, "max_iter": 0}
    rho = _ginibre((3,), 0)
    for k in (2, 3):
        indicators.compute_indicator(rho, "coherence", k, 0.5, seed=0, **zero)
    if workload.name == "correlation":
        indicators.compute_indicator(_ginibre((2, 2, 2), 0), "nonseparability", 2, 0.5,
                                     seed=0, **zero)
        embedding.theorem3_check(_ginibre((2,), 0), 2, 0.5, seed=0, **zero)
