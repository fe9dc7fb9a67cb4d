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
from math import isfinite

import numpy as np

from .errors import ChannelInvalid, DimensionMismatch, NonFinite
from .states import (
    DensityMatrix,
    _count,
    _json_fields,
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
    """max |sum K^dag K - I|; NaN or infinite, without a warning, for
    non-finite or overflowing entries."""
    d_in = ops[0].shape[1]
    acc = np.zeros((d_in, d_in), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in ops:
            acc += k.conj().T @ k
        return float(np.abs(acc - np.eye(d_in)).max())


def kraus_channel(ops) -> KrausChannel:
    """Validate a Kraus family: non-empty, equal shapes, complete.  A NaN or
    infinite entry raises ``NonFinite``."""
    ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in ops)
    if not ops:
        raise ChannelInvalid("empty Kraus list")
    shape = ops[0].shape
    if any(k.shape != shape for k in ops):
        raise ChannelInvalid("Kraus operators differ in shape")
    defect = _completeness_defect(ops)
    # the defect is NaN or infinite for a NaN or infinite entry (or by
    # overflow), so only then are the entries themselves tested
    if not isfinite(defect) and not all(np.isfinite(k).all() for k in ops):
        raise NonFinite("a Kraus operator has a NaN or infinite entry")
    if not defect <= COMPLETENESS_TOL:
        raise ChannelInvalid(f"sum K^dag K deviates from identity by {defect:.3e}")
    for k in ops:
        k.setflags(write=False)
    return KrausChannel(ops)


def _check_compat(channel: KrausChannel, rho: DensityMatrix) -> None:
    if channel.d_in != rho.d:
        raise DimensionMismatch(
            f"channel acts on dimension {channel.d_in}, state has {rho.d}")


def _conjugates(kraus: np.ndarray, data: np.ndarray):
    """Real traces and conjugates K data K^dag for the Kraus operators K of
    ``kraus``, shape (..., m, d_out, d_in), and states ``data``, shape
    (..., d_in, d_in), over leading axes: shapes (..., m) and
    (..., m, d_out, d_out), in operator order."""
    out = kraus @ data[..., None, :, :] @ kraus.conj().swapaxes(-1, -2)
    return np.real(np.trace(out, axis1=-2, axis2=-1)), out


def _summed(parts: np.ndarray) -> np.ndarray:
    """sum_i parts[..., i, :, :], accumulated from zero in operator order."""
    out = np.zeros(parts.shape[:-3] + parts.shape[-2:], dtype=complex)
    for i in range(parts.shape[-3]):
        out += parts[..., i, :, :]
    return out


def _post_states(p: np.ndarray, out: np.ndarray, dims):
    """(probability, post-state) of one application's outcomes above
    OUTCOME_THRESHOLD, from its traces and conjugates (:func:`_conjugates`)."""
    return [(pi, _trusted(part / pi, dims)) for pi, part in zip(p.tolist(), out)
            if pi > OUTCOME_THRESHOLD]


def _out_dims(channel: KrausChannel, rho: DensityMatrix):
    return rho.dims if channel.d_out == rho.d else (channel.d_out,)


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective application sum_i K_i rho K_i^dag, revalidated."""
    _check_compat(channel, rho)
    parts = _conjugates(np.array(channel.kraus), rho.data)[1]
    return validate(_summed(parts), _out_dims(channel, rho))


def selective_apply(channel: KrausChannel, rho: DensityMatrix):
    """Per-outcome (probability, post-state) pairs.

    Outcomes with probability <= 1e-12 are omitted: their post-states are
    undefined and they contribute below numerical noise.
    """
    _check_compat(channel, rho)
    return _post_states(*_conjugates(np.array(channel.kraus), rho.data),
                        _out_dims(channel, rho))


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
    ``outcomes`` must be an integer >= 1 (ChannelInvalid).
    """
    outcomes = _count(outcomes, "outcomes", ChannelInvalid)
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
    """Haar-random isometry dilation truncated to the requested outcomes, an
    integer >= 1 (ChannelInvalid)."""
    outcomes = _count(outcomes, "outcomes", ChannelInvalid)
    if outcomes < 1:
        raise ChannelInvalid("need at least one outcome")
    u = random_unitary(d * outcomes, seed)
    iso = u[:, :d]
    ops = [iso[i * d:(i + 1) * d, :] for i in range(outcomes)]
    return kraus_channel(ops)


def random_projective(d: int, rank: int, seed) -> KrausChannel:
    """Two-outcome projective measurement onto a random rank-r subspace, r an
    integer <= d (ChannelInvalid)."""
    rank = _count(rank, "rank", ChannelInvalid)
    u = random_unitary(d, seed)
    if rank > len(u):
        raise ChannelInvalid(f"rank {rank} exceeds dimension {len(u)}")
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
    (kraus,) = _json_fields(text, "channel", "kraus")
    if not isinstance(kraus, list):
        raise ValueError(f"kraus must be a list of matrices, got {type(kraus).__name__}")
    return kraus_channel([_matrix_from_pairs(k) for k in kraus])
