"""Restricted state families and pure-state structure analysis.

Three families of mixed states are parameterized here, each as a convex
mixture of ``m`` structured pure components:

* ``multilevel(k)``   -- components supported on at most k basis levels;
* ``separable(k)``    -- components that factor across a partition of the
                         subsystems into (at least) k parts;
* ``producible(k)``   -- components that factor across a partition whose
                         parts hold at most k subsystems each.

A family decodes an unconstrained real parameter vector into a member
state: mixture weights via softmax, component amplitudes via one complex
number per basis slot (offset so the zero vector decodes to uniform
amplitudes).  Membership therefore holds *by construction*, which is what
turns optimizer outputs into certified upper bounds elsewhere.

The module also provides set-partition enumeration, the coherence rank of
pure states, and the finest tensor factorization of a pure state, from
which separability depth (number of parts) and entanglement depth (largest
part) are read off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import log, prod
from typing import NamedTuple

import numpy as np

from .errors import (
    BadLength,
    EmptySet,
    NTooLarge,
    WitnessEncodingError,
)
from .states import DensityMatrix, PureState, _trusted, pure_state

MAX_SUBSYSTEMS = 6
FACTOR_PURITY_TOL = 1e-9     # reduced-state purity threshold for a split
RECONSTRUCT_TOL = 1e-8       # fidelity gap allowed for factor reconstruction
UNUSED_SLOT_LOGIT = log(1e-18)

KINDS = ("multilevel", "separable", "producible")


# ---------------------------------------------------------------------------
# Combinatorics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSet:
    n: int
    partitions: tuple[tuple[tuple[int, ...], ...], ...]


def _set_partitions(items):
    if len(items) == 1:
        yield [[items[0]]]
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def _canonical(partition) -> tuple[tuple[int, ...], ...]:
    blocks = sorted(tuple(sorted(b)) for b in partition)
    return tuple(blocks)


def enumerate_partitions(n: int, *, exactly_k_parts=None, max_part_size=None) -> PartitionSet:
    """All set partitions of {0..n-1} passing exactly one of the filters."""
    if n > MAX_SUBSYSTEMS:
        raise NTooLarge(f"partition enumeration capped at n={MAX_SUBSYSTEMS}, got {n}")
    if n < 1:
        raise EmptySet("need at least one subsystem")
    if (exactly_k_parts is None) == (max_part_size is None):
        raise ValueError("pass exactly one of exactly_k_parts / max_part_size")
    out = []
    for part in _set_partitions(list(range(n))):
        if exactly_k_parts is not None and len(part) != exactly_k_parts:
            continue
        if max_part_size is not None and max(len(b) for b in part) > max_part_size:
            continue
        out.append(_canonical(part))
    out.sort()
    return PartitionSet(n, tuple(out))


# ---------------------------------------------------------------------------
# Pure-state structure.
# ---------------------------------------------------------------------------

def _effective_support(psi: PureState) -> tuple[int, ...]:
    mags = np.abs(psi.amps)
    return tuple(np.flatnonzero(mags > 1e-14 * mags.max()).tolist())


def coherent_rank_pure(psi: PureState) -> int:
    """Support size that places the state in a multilevel family (is_feasible_pure)."""
    return len(_effective_support(psi))


class Factorization(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    factors: tuple[PureState, ...]

    @property
    def separability_depth(self) -> int:
        return len(self.parts)

    @property
    def entanglement_depth(self) -> int:
        return max(len(p) for p in self.parts)


def _assemble_product(dims, parts, factor_amps) -> np.ndarray:
    """Tensor per-part amplitude vectors and reorder to the global layout."""
    order = [i for part in parts for i in part]
    shaped = reduce(np.multiply.outer, factor_amps).reshape([dims[i] for i in order])
    return shaped.transpose(np.argsort(order)).reshape(-1)


def _reduced(tensor_amps: np.ndarray, dims, subset) -> np.ndarray:
    shaped = tensor_amps.reshape(dims)
    comp = [i for i in range(len(dims)) if i not in subset]
    red = np.tensordot(shaped, shaped.conj(), axes=(comp, comp))
    dk = prod(dims[i] for i in subset)
    return red.reshape(dk, dk)


def _top_eigvec(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return v[:, -1]


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


def factorize_pure(psi: PureState) -> Factorization:
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


# ---------------------------------------------------------------------------
# Feasible families.
# ---------------------------------------------------------------------------

class WitnessComponent(NamedTuple):
    """One pure term of a feasible mixture: a weight and a pure state.

    Its structure (support or factorization) is not stored; :func:`encode`
    reads it off the state.
    """

    weight: float
    state: PureState


@dataclass(frozen=True, eq=False)
class FeasibleFamily:
    """Parameterized restricted state set; decode() maps reals to members."""

    kind: str
    k: int
    dims: tuple[int, ...]
    structures: tuple
    param_len: int
    blocks: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.structures)

    @property
    def d(self) -> int:
        return prod(self.dims)


def _block_size(kind, dims, structure) -> int:
    if kind == "multilevel":
        return 2 * len(structure)
    return sum(2 * prod(dims[i] for i in part) for part in structure)


def structure_pool(kind: str, dims, k: int) -> list:
    """Every structure a component of the family may take: the size-k
    supports (multilevel), exactly-k-part partitions (separable) or
    max-part-size-k partitions (producible), in enumeration order."""
    dims = tuple(int(x) for x in dims)
    n = len(dims)
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "multilevel":
        d = prod(dims)
        if not 1 <= k <= d:
            raise EmptySet(f"no states with support size {k} in dimension {d}")
        return [tuple(s) for s in itertools.combinations(range(d), k)]
    if kind == "separable":
        if not 1 <= k <= n:
            raise EmptySet(f"no partitions of {n} subsystems into exactly {k} parts")
        return list(enumerate_partitions(n, exactly_k_parts=k).partitions)
    if k < 1:
        raise EmptySet("part size bound must be at least 1")
    return list(enumerate_partitions(n, max_part_size=min(k, n)).partitions)


def build_family(kind: str, dims, k: int, m: int | None = None) -> FeasibleFamily:
    """Construct a family of ``m`` components with cyclically assigned structure.

    Components cycle through :func:`structure_pool`.  The default component
    count is the squared total dimension, a Caratheodory-motivated bound on
    the number of extreme points a member can need.
    """
    dims = tuple(int(x) for x in dims)
    d = prod(dims)
    pool = structure_pool(kind, dims, k)
    if m is None:
        m = d * d
    if m < 1:
        raise EmptySet("need at least one component")
    structures = tuple(pool[i % len(pool)] for i in range(m))
    blocks = []
    offset = m
    for s in structures:
        size = _block_size(kind, dims, s)
        blocks.append((offset, offset + size))
        offset += size
    return FeasibleFamily(kind, k, dims, structures, offset, tuple(blocks))


def _offset_amps(x: np.ndarray) -> np.ndarray:
    """Map 2r reals to r complex amplitudes; the zero vector gives uniform."""
    z = (x[0::2] + 1.0) + 1j * x[1::2]
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        z = np.ones(len(z), dtype=complex)
        norm = np.sqrt(len(z))
    return z / norm


def _offset_block(z: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_offset_amps` on unit vectors."""
    block = np.empty(2 * len(z))
    block[0::2] = z.real - 1.0
    block[1::2] = z.imag
    return block


def _component_amps(family: FeasibleFamily, structure, block: np.ndarray) -> np.ndarray:
    if family.kind == "multilevel":
        vec = np.zeros(family.d, dtype=complex)
        vec[list(structure)] = _offset_amps(block)
        return vec
    factors = []
    off = 0
    for part in structure:
        pd = prod(family.dims[i] for i in part)
        factors.append(_offset_amps(block[off:off + 2 * pd]))
        off += 2 * pd
    return _assemble_product(family.dims, structure, factors)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _decode_raw(family: FeasibleFamily, theta: np.ndarray) -> np.ndarray:
    """Member matrix without wrapping, for optimizer hot loops."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (family.param_len,):
        raise BadLength(f"expected {family.param_len} parameters, got {theta.shape}")
    weights = _softmax(theta[:family.m])
    cols = np.empty((family.d, family.m), dtype=complex)
    for i, (structure, (lo, hi)) in enumerate(zip(family.structures, family.blocks)):
        cols[:, i] = _component_amps(family, structure, theta[lo:hi])
    return (cols * weights) @ cols.conj().T


def decode(family: FeasibleFamily, theta) -> DensityMatrix:
    """Decode a parameter vector into a member state (valid by construction)."""
    return _trusted(_decode_raw(family, np.asarray(theta, dtype=float)), family.dims)


def decode_mixture(family: FeasibleFamily, theta) -> list[WitnessComponent]:
    """The decoded member as explicit weighted pure components."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (family.param_len,):
        raise BadLength(f"expected {family.param_len} parameters, got {theta.shape}")
    weights = _softmax(theta[:family.m])
    out = []
    for w, structure, (lo, hi) in zip(weights, family.structures, family.blocks):
        amps = _component_amps(family, structure, theta[lo:hi])
        out.append(WitnessComponent(float(w), pure_state(amps, family.dims)))
    return out


# ---------------------------------------------------------------------------
# Witness encoding: represent an explicit mixture as family parameters.
# ---------------------------------------------------------------------------

def _coarsens(slot_partition, fine_partition) -> bool:
    """True iff every slot part is a union of fine parts."""
    fine = [set(p) for p in fine_partition]
    for part in slot_partition:
        part = set(part)
        covered = set()
        for f in fine:
            if f <= part:
                covered |= f
            elif f & part:
                return False
        if covered != part:
            return False
    return True


def _encode_component(family, psi, slot) -> np.ndarray:
    if family.kind == "multilevel":
        return _offset_block(psi.amps[list(slot)])
    factors = [_top_eigvec(_reduced(psi.amps, list(family.dims), part)) for part in slot]
    rebuilt = _assemble_product(family.dims, slot, factors)
    if 1.0 - abs(np.vdot(rebuilt, psi.amps)) > 1e-10:
        raise WitnessEncodingError("component is not product across the chosen slot")
    return np.concatenate([_offset_block(f) for f in factors])


def _structure(kind: str, psi: PureState):
    """The support (multilevel) or finest factorization of a component."""
    if kind == "multilevel":
        return _effective_support(psi)
    return factorize_pure(psi).parts


def _slot_compatible(kind: str, slot, structure) -> bool:
    if kind == "multilevel":
        return set(structure) <= set(slot)
    return _coarsens(slot, structure)


def encode(family: FeasibleFamily, components) -> np.ndarray:
    """Parameters that decode to exactly the given mixture of
    ``(weight, pure state)`` pairs.

    Each component is placed by the membership rule of
    :func:`is_feasible_pure`: its structure (support above 1e-14 of the
    largest amplitude, smaller amplitudes dropped, or finest factorization)
    must fit a slot's structure, and the component takes the first *free*
    such slot.  Unused slots carry ~1e-18 weight, which only *adds*
    support and so can only improve any affinity evaluated against the
    result.  A component that fits no free slot raises
    WitnessEncodingError: the mixture is never altered to fit, so an
    injected witness reproduces its affinity.
    """
    theta = np.zeros(family.param_len)
    logits = np.full(family.m, UNUSED_SLOT_LOGIT)
    used = [False] * family.m
    for weight, psi in components:
        structure = _structure(family.kind, psi)
        slot_idx = next((i for i, slot in enumerate(family.structures)
                         if not used[i] and _slot_compatible(family.kind, slot, structure)),
                        None)
        if slot_idx is None:
            raise WitnessEncodingError(
                f"no free slot matches component structure {structure}")
        used[slot_idx] = True
        lo, hi = family.blocks[slot_idx]
        theta[lo:hi] = _encode_component(family, psi, family.structures[slot_idx])
        logits[slot_idx] = log(max(weight, 1e-300))
    theta[:family.m] = logits
    return theta


def is_feasible_pure(kind: str, k: int, psi: PureState) -> bool:
    """The one membership rule: a component belongs to a family iff its structure
    (support or finest factorization) fits a structure of the family's pool.
    :func:`encode` places by it and ``check_witness`` checks by it.  An order
    outside the family's range raises EmptySet."""
    pool = structure_pool(kind, psi.dims, k)
    structure = _structure(kind, psi)
    return any(_slot_compatible(kind, slot, structure) for slot in pool)
