"""Coherence-to-correlation embedding.

A d-level system is joined by d ancilla qubits under one flag rule: on
basis level i, flip ancilla qubit i.  The flag unitary and both state maps
are read off that permutation.  The embedding converts basis-support
structure into tensor-product structure: a pure state occupying r levels
embeds into a state whose finest factorization has one entangled block of
r+1 subsystems plus d-r untouched ancillas.  Consequences checked here:

* rank/depth correspondence for pure states (separability depth d-r+1 and
  entanglement depth r+1 for r >= 2; fully product for r = 1);
* affinity preservation of the embedding (unitary + pure ancilla);
* transport of coherence witnesses to correlation witnesses: the mapped
  witness is scored on the embedded state, which turns every order-k
  coherence bound into bounds on the correlation indicators of the
  embedded state without a correlation search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (DimensionMismatch, DTooLarge, FeasibilityCheckFailed, KOutOfRange,
                     WitnessEncodingError)
from .feasible import WitnessComponent, _coarsens, _effective_support, _finest_parts
from .indicators import _mixed, _variant_value, multilevel_coherence
from .states import DensityMatrix, PureState, _trusted, pure_state

MIN_D, MAX_D = 2, 4


@dataclass(frozen=True, eq=False)
class EmbeddingMap:
    """Flag-ancilla embedding for a d-level system (d ancilla qubits)."""

    d: int
    unitary: np.ndarray
    dims: tuple[int, ...]

    @property
    def total_dim(self) -> int:
        return self.d * 2 ** self.d


def _flagged(d: int, level, ancillas):
    """The flag rule: basis index of |level> (x) |ancillas> after ancilla
    qubit ``level`` is flipped (big-endian qubit order).  Vectorizes over
    integer arrays."""
    return level * 2 ** d + (ancillas ^ (1 << (d - 1 - level)))


@cache
def build_embedding(d: int) -> EmbeddingMap:
    """Flag unitary: the permutation matrix of the flag rule.

    The rule flips one bit, so the unitary is a real 0/1 permutation matrix
    and its own inverse.  The map is immutable (its unitary is read-only),
    so one is built per d and shared.
    """
    if not MIN_D <= d <= MAX_D:
        raise DTooLarge(f"embedding supports {MIN_D} <= d <= {MAX_D}, got {d}")
    n = d * 2 ** d
    level, ancillas = np.divmod(np.arange(n), 2 ** d)
    u = np.zeros((n, n))
    u[_flagged(d, level, ancillas), np.arange(n)] = 1.0
    u.setflags(write=False)
    return EmbeddingMap(d, u, (d,) + (2,) * d)


def _check_d(emb: EmbeddingMap, d: int) -> None:
    if d != emb.d:
        raise DimensionMismatch(f"state dimension {d} != embedding dimension {emb.d}")


def _embedded(emb: EmbeddingMap, amps: np.ndarray) -> np.ndarray:
    """The flag rule on amplitude vectors, over leading axes."""
    out = np.zeros(amps.shape[:-1] + (emb.total_dim,), dtype=complex)
    out[..., _flagged(emb.d, np.arange(emb.d), 0)] = amps
    return out


def embed_pure(emb: EmbeddingMap, psi: PureState) -> PureState:
    """|i> -> |i> (x) |0..010..0> with the 1 on ancilla qubit i."""
    _check_d(emb, psi.d)
    return pure_state(_embedded(emb, psi.amps), emb.dims)


def embed_state(emb: EmbeddingMap, rho: DensityMatrix) -> DensityMatrix:
    """rho (x) |0><0|^d conjugated by the flag unitary; trace preserved.

    The unitary is a permutation, so the conjugation scatters rho onto the
    flagged indices.  Embedding both arguments preserves their affinity
    (unitary invariance plus multiplicativity with the pure ancilla), so
    witnesses embed the same way as states.
    """
    _check_d(emb, rho.d)
    idx = _flagged(emb.d, np.arange(emb.d), 0)  # source levels, ancillas in |0..0>
    out = np.zeros((emb.total_dim, emb.total_dim), dtype=complex)
    out[np.ix_(idx, idx)] = rho.data
    return _trusted(out, emb.dims)


def _embedded_partition(emb: EmbeddingMap, support) -> tuple[tuple[int, ...], ...]:
    """Structural factorization of an embedded support-restricted pure state:
    the source plus the flagged ancillas form one part, the rest stay free."""
    support = set(support)
    big = tuple(sorted({0} | {1 + i for i in support}))
    parts = [big] + [(1 + j,) for j in range(emb.d) if j not in support]
    return tuple(sorted(parts))


def map_components(emb: EmbeddingMap, components):
    """Embed the pure state of every (weight, pure state) component."""
    return [WitnessComponent(w, embed_pure(emb, psi)) for w, psi in components]


def depth_correspondence(emb: EmbeddingMap, states) -> list[dict]:
    """Rank of each source state and both depths of its embedding, all read
    off one structure, the embedding's finest partition: the rank is 1 when
    it is fully product, else the entanglement depth - 1.  The states are
    embedded as one stack and their partitions read off one table
    (``feasible._finest_parts``); no factor is built.

    Only measures; the claimed correspondence (rank r >= 2 gives
    separability depth d - r + 1 and entanglement depth r + 1, rank 1 a
    fully product embedding with depths d + 1 and 1) is certified by the
    embedding suite against the sampled rank.
    """
    for psi in states:
        _check_d(emb, psi.d)
    amps = np.array([psi.amps for psi in states]).reshape(-1, emb.d)
    out = []
    for parts in _finest_parts(_embedded(emb, amps), emb.dims):
        ent = max(map(len, parts))
        out.append({"rank": 1 if ent == 1 else ent - 1, "sep_depth": len(parts),
                    "ent_depth": ent})
    return out


def depth_correspondence_pure(emb: EmbeddingMap, psi: PureState) -> dict:
    """:func:`depth_correspondence` of one state."""
    return depth_correspondence(emb, [psi])[0]


# ---------------------------------------------------------------------------
# Witness-transported inequality checks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportRow:
    lhs_label: str
    rhs_label: str
    lhs: float
    rhs: float
    slack: float


def _check_mapped_feasibility(emb, sources, mapped) -> list:
    """Re-derive each mapped component's finest partition, all off one table,
    and verify it against the partition predicted from its source's support;
    failures raise rather than being dropped.  Returns the partitions.

    The recomputed partition may be finer than the predicted one (a support
    amplitude can be numerically zero); it must never be coarser.
    """
    partitions = _finest_parts([comp.state.amps for comp in mapped], emb.dims)
    for src, parts in zip(sources, partitions):
        predicted = _embedded_partition(emb, _effective_support(src.state))
        if not _coarsens(predicted, parts):
            raise FeasibilityCheckFailed(
                f"mapped component factorizes as {parts}, which does not "
                f"refine the predicted partition {predicted}")
    return partitions


def theorem3_check(rho: DensityMatrix, k: int, alpha: float, *, seed,
                   max_iter: int = 200, restarts=None) -> list[TransportRow]:
    """Transport an order-k coherence witness through the embedding and
    certify the four induced correlation bounds on the embedded state.

    Each mapped component's partition is predicted from its source's
    support and checked against its recomputed finest partition, all read
    off one table (FeasibilityCheckFailed); membership in
    separable(d - k + 2) and producible(k), read off it, fails with
    WitnessEncodingError.  The one mapped mixture is then scored on the
    embedded state for both.  No
    correlation search runs: the mapped witness is feasible and, by
    affinity preservation, reproduces the coherence affinity, so every
    bound comes out at the coherence bound up to roundoff.  ``max_iter``
    caps the coherence solve.  ``restarts`` is accepted and dropped here: no
    solve reads it, and perfbench/workloads.py, its last reader, still
    passes it.
    """
    d = rho.d
    if not MIN_D <= d <= 3:
        raise DTooLarge(f"transport check supports 2 <= d <= 3, got {d}")
    if not 2 <= k <= d:
        raise KOutOfRange(f"need 2 <= k <= {d}, got {k}")
    emb = build_embedding(d)
    coh = multilevel_coherence(rho, k, alpha, "plain", seed=seed, max_iter=max_iter)
    mapped = map_components(emb, coh.components)
    sep_k = d - k + 2
    prod_k = k
    # is_feasible_pure's rule on the partitions: separable(K) takes K parts
    # or more, producible(k) parts of at most k subsystems
    for parts in _check_mapped_feasibility(emb, coh.components, mapped):
        if len(parts) < sep_k or max(map(len, parts)) > prod_k:
            raise WitnessEncodingError(f"a transported component is outside separable"
                                       f"({sep_k}) or producible({prod_k})")
    aff = _mixed(embed_state(emb, rho), mapped, alpha)

    rows = []
    for variant in ("plain", "avg"):
        suffix = "" if variant == "plain" else "_avg"
        coh_val = _variant_value(coh.best_affinity, alpha, variant)
        rows.append(_row(f"nonseparability{suffix}[k={sep_k}]",
                         f"coherence{suffix}[k={k}]",
                         _variant_value(aff, alpha, variant), coh_val))
        rows.append(_row(f"entanglement{suffix}[k={k + 1}]",
                         f"coherence{suffix}[k={k}]",
                         _variant_value(aff, alpha, variant), coh_val))
    return rows


def _row(lhs_label, rhs_label, lhs, rhs) -> TransportRow:
    return TransportRow(lhs_label, rhs_label, float(lhs), float(rhs),
                        float(rhs) - float(lhs))


def transport_report_json(rows) -> str:
    return json.dumps({"rows": [{"lhs_label": r.lhs_label, "rhs_label": r.rhs_label,
                                 "lhs": r.lhs, "rhs": r.rhs, "slack": r.slack}
                                for r in rows]})
