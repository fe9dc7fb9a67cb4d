"""CPTP maps as explicit Kraus families.

Besides general channels, this module constructs the structured operation
classes the monotonicity suites quantify over: unitaries, dephasing,
monomial channels (at most one nonzero entry per Kraus-operator column, so
the coherence rank of a pure state can never grow), and local product
channels (every Kraus operator a tensor product of per-site factors, the
one-round representation of LOCC used throughout).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ChannelInvalid, DimensionMismatch
from .states import (
    DensityMatrix,
    _matrix_from_pairs,
    _matrix_to_pairs,
    _rng,
    _trusted,
    random_unitary,
    validate,
)

COMPLETENESS_TOL = 1e-9
OUTCOME_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators; the constructor that built them fixes the class."""

    kraus: tuple[np.ndarray, ...]

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.kraus)


def _completeness_defect(ops) -> float:
    d_in = ops[0].shape[1]
    acc = np.zeros((d_in, d_in), dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    return float(np.abs(acc - np.eye(d_in)).max())


def kraus_channel(ops) -> KrausChannel:
    """Validate a Kraus family: non-empty, equal shapes, complete."""
    ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in ops)
    if not ops:
        raise ChannelInvalid("empty Kraus list")
    shape = ops[0].shape
    if any(k.shape != shape for k in ops):
        raise ChannelInvalid("Kraus operators differ in shape")
    defect = _completeness_defect(ops)
    if defect > COMPLETENESS_TOL:
        raise ChannelInvalid(f"sum K^dag K deviates from identity by {defect:.3e}")
    for k in ops:
        k.setflags(write=False)
    return KrausChannel(ops)


def _check_compat(channel: KrausChannel, rho: DensityMatrix) -> None:
    if channel.d_in != rho.d:
        raise DimensionMismatch(
            f"channel acts on dimension {channel.d_in}, state has {rho.d}")


def _conjugates(channel: KrausChannel, data: np.ndarray):
    """(trace, K data K^dag) for each Kraus operator K, in order."""
    for k in channel.kraus:
        out = k @ data @ k.conj().T
        yield float(np.real(np.trace(out))), out


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective application sum_i K_i rho K_i^dag, revalidated."""
    _check_compat(channel, rho)
    out = np.zeros((channel.d_out, channel.d_out), dtype=complex)
    for _, part in _conjugates(channel, rho.data):
        out += part
    dims = rho.dims if channel.d_out == rho.d else (channel.d_out,)
    return validate(out, dims)


def selective_apply(channel: KrausChannel, rho: DensityMatrix):
    """Per-outcome (probability, post-state) pairs.

    Outcomes with probability <= 1e-12 are omitted: their post-states are
    undefined and they contribute below numerical noise.
    """
    _check_compat(channel, rho)
    dims = rho.dims if channel.d_out == rho.d else (channel.d_out,)
    return [(p, _trusted(out / p, dims)) for p, out in _conjugates(channel, rho.data)
            if p > OUTCOME_THRESHOLD]


def identity_channel(d: int) -> KrausChannel:
    return kraus_channel([np.eye(d, dtype=complex)])


def unitary_channel(u) -> KrausChannel:
    """Single-operator channel; completeness makes a square operator unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ChannelInvalid(f"unitary must be square, got shape {u.shape}")
    return kraus_channel([u])


def dephasing_channel(d: int) -> KrausChannel:
    """Full dephasing in the reference basis: K_i = |i><i|."""
    ops = []
    for i in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[i, i] = 1.0
        ops.append(k)
    return kraus_channel(ops)


def make_monomial_incoherent(d: int, outcomes: int, seed) -> KrausChannel:
    """Random channel whose Kraus operators are monomial matrices.

    Each operator is a permutation composed with a complex diagonal; column
    norms across outcomes are normalized, which enforces completeness by
    construction.  Monomial operators map basis vectors to (multiples of)
    basis vectors, so no selective outcome can increase the coherence rank
    of a pure state.  A single outcome reduces to a diagonal-phase unitary.
    """
    if outcomes < 1:
        raise ChannelInvalid("need at least one outcome")
    rng = _rng(seed)
    amps = rng.standard_normal((outcomes, d)) + 1j * rng.standard_normal((outcomes, d))
    amps /= np.linalg.norm(amps, axis=0, keepdims=True)
    ops = []
    for i in range(outcomes):
        if outcomes == 1:
            perm = np.arange(d)
            row = amps[i] / np.abs(amps[i])
        else:
            perm = rng.permutation(d)
            row = amps[i]
        k = np.zeros((d, d), dtype=complex)
        k[perm, np.arange(d)] = row
        ops.append(k)
    return kraus_channel(ops)


def make_local_product(site_channels) -> KrausChannel:
    """Combine one channel per subsystem into a product channel.

    The joint Kraus index runs over the Cartesian product of the per-site
    outcome indices; each joint operator is the Kronecker product of its
    per-site operators.
    """
    site_channels = list(site_channels)
    if not site_channels:
        raise ChannelInvalid("need at least one site channel")
    return kraus_channel([reduce(np.kron, combo)
                          for combo in itertools.product(*(ch.kraus for ch in site_channels))])


def random_channel(d: int, outcomes: int, seed) -> KrausChannel:
    """Haar-random isometry dilation truncated to the requested outcomes."""
    if outcomes < 1:
        raise ChannelInvalid("need at least one outcome")
    u = random_unitary(d * outcomes, seed)
    iso = u[:, :d]
    ops = [iso[i * d:(i + 1) * d, :] for i in range(outcomes)]
    return kraus_channel(ops)


def random_projective(d: int, rank: int, seed) -> KrausChannel:
    """Two-outcome projective measurement onto a random rank-r subspace."""
    u = random_unitary(d, seed)
    p1 = u[:, :rank] @ u[:, :rank].conj().T
    return kraus_channel([p1, np.eye(d) - p1])


# ---------------------------------------------------------------------------
# JSON interchange, mirroring the state format.
# ---------------------------------------------------------------------------

def channel_to_json(channel: KrausChannel) -> str:
    return json.dumps({"kraus": [_matrix_to_pairs(k) for k in channel.kraus]})


def channel_from_json(text: str) -> KrausChannel:
    """Load a channel; keys other than ``kraus`` (older files also carry the
    operation class and per-site factors) are ignored."""
    doc = json.loads(text)
    return kraus_channel([_matrix_from_pairs(k) for k in doc["kraus"]])
