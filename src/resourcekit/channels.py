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
from math import prod

import numpy as np

from .errors import ChannelInvalid, DimensionMismatch
from .states import DensityMatrix, _rng, _trusted, random_unitary, validate

COMPLETENESS_TOL = 1e-9
OUTCOME_THRESHOLD = 1e-12

TAGS = ("general", "unitary", "monomial_incoherent", "local_product")


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus family with a completeness certificate.

    ``site_factors`` is populated only for tag="local_product": one tuple of
    per-site matrices per Kraus operator, whose Kronecker product equals the
    operator.
    """

    kraus: tuple[np.ndarray, ...]
    tag: str = "general"
    site_dims: tuple[int, ...] | None = None
    site_factors: tuple[tuple[np.ndarray, ...], ...] | None = None

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


def _is_monomial(op: np.ndarray) -> bool:
    return bool((np.count_nonzero(op, axis=0) <= 1).all())


def kraus_channel(ops, tag="general", site_dims=None, site_factors=None) -> KrausChannel:
    """Validate a Kraus family (completeness plus per-tag structure)."""
    ops = tuple(np.ascontiguousarray(k, dtype=complex) for k in ops)
    if not ops:
        raise ChannelInvalid("empty Kraus list")
    shape = ops[0].shape
    if any(k.shape != shape for k in ops):
        raise ChannelInvalid("Kraus operators differ in shape")
    defect = _completeness_defect(ops)
    if defect > COMPLETENESS_TOL:
        raise ChannelInvalid(f"sum K^dag K deviates from identity by {defect:.3e}")
    if tag not in TAGS:
        raise ChannelInvalid(f"unknown tag {tag!r}")
    if tag == "unitary":
        if len(ops) != 1:
            raise ChannelInvalid("unitary tag requires a single Kraus operator")
        u = ops[0]
        if np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() > 1e-9:
            raise ChannelInvalid("operator is not unitary")
    if tag == "monomial_incoherent" and not all(_is_monomial(k) for k in ops):
        raise ChannelInvalid("a Kraus operator has a column with two nonzeros")
    if tag == "local_product":
        if site_factors is None or site_dims is None:
            raise ChannelInvalid("local_product tag requires site factors and dims")
        site_dims = tuple(int(x) for x in site_dims)
        site_factors = tuple(tuple(np.asarray(f, dtype=complex) for f in fs)
                             for fs in site_factors)
        for op, factors in zip(ops, site_factors):
            acc = np.array([[1.0 + 0j]])
            for f in factors:
                acc = np.kron(acc, f)
            if np.abs(acc - op).max() > 1e-10:
                raise ChannelInvalid("stored factors do not reproduce a Kraus operator")
    for k in ops:
        k.setflags(write=False)
    return KrausChannel(ops, tag, site_dims, site_factors)


def _check_compat(channel: KrausChannel, rho: DensityMatrix) -> None:
    if channel.d_in != rho.d:
        raise DimensionMismatch(
            f"channel acts on dimension {channel.d_in}, state has {rho.d}")


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective application sum_i K_i rho K_i^dag, revalidated."""
    _check_compat(channel, rho)
    out = np.zeros((channel.d_out, channel.d_out), dtype=complex)
    for k in channel.kraus:
        out += k @ rho.data @ k.conj().T
    dims = rho.dims if channel.d_out == rho.d else (channel.d_out,)
    return validate(out, dims)


def selective_apply(channel: KrausChannel, rho: DensityMatrix):
    """Per-outcome (probability, post-state) pairs.

    Outcomes with probability <= 1e-12 are omitted: their post-states are
    undefined and they contribute below numerical noise.
    """
    _check_compat(channel, rho)
    dims = rho.dims if channel.d_out == rho.d else (channel.d_out,)
    results = []
    for k in channel.kraus:
        out = k @ rho.data @ k.conj().T
        p = float(np.real(np.trace(out)))
        if p <= OUTCOME_THRESHOLD:
            continue
        results.append((p, _trusted(out / p, dims)))
    return results


def identity_channel(d: int) -> KrausChannel:
    return kraus_channel([np.eye(d, dtype=complex)], tag="unitary")


def unitary_channel(u) -> KrausChannel:
    return kraus_channel([np.asarray(u, dtype=complex)], tag="unitary")


def dephasing_channel(d: int) -> KrausChannel:
    """Full dephasing in the reference basis: K_i = |i><i|."""
    ops = []
    for i in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[i, i] = 1.0
        ops.append(k)
    return kraus_channel(ops, tag="monomial_incoherent")


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
    return kraus_channel(ops, tag="monomial_incoherent")


def make_local_product(site_channels) -> KrausChannel:
    """Combine one channel per subsystem into a product channel.

    The joint Kraus index runs over the Cartesian product of the per-site
    outcome indices; each joint operator is the Kronecker product of its
    per-site factors, which are stored on the result.
    """
    site_channels = list(site_channels)
    if not site_channels:
        raise ChannelInvalid("need at least one site channel")
    site_dims = tuple(ch.d_in for ch in site_channels)
    ops, factor_lists = [], []
    for combo in itertools.product(*(ch.kraus for ch in site_channels)):
        acc = np.array([[1.0 + 0j]])
        for f in combo:
            acc = np.kron(acc, f)
        ops.append(acc)
        factor_lists.append(tuple(combo))
    return kraus_channel(ops, tag="local_product",
                         site_dims=site_dims, site_factors=tuple(factor_lists))


def random_channel(d: int, outcomes: int, seed) -> KrausChannel:
    """Haar-random isometry dilation truncated to the requested outcomes."""
    if outcomes < 1:
        raise ChannelInvalid("need at least one outcome")
    u = random_unitary(d * outcomes, seed)
    iso = u[:, :d]
    ops = [iso[i * d:(i + 1) * d, :] for i in range(outcomes)]
    return kraus_channel(ops, tag="general")


def random_projective(d: int, rank: int, seed) -> KrausChannel:
    """Two-outcome projective measurement onto a random rank-r subspace."""
    u = random_unitary(d, seed)
    p1 = u[:, :rank] @ u[:, :rank].conj().T
    return kraus_channel([p1, np.eye(d) - p1], tag="general")


# ---------------------------------------------------------------------------
# JSON interchange, mirroring the state format.
# ---------------------------------------------------------------------------

def _matrix_to_pairs(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_pairs(raw) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in raw])


def channel_to_json(channel: KrausChannel) -> str:
    doc = {"tag": channel.tag,
           "kraus": [_matrix_to_pairs(k) for k in channel.kraus]}
    if channel.site_dims is not None:
        doc["site_dims"] = list(channel.site_dims)
    if channel.site_factors is not None:
        doc["site_factors"] = [[_matrix_to_pairs(f) for f in fs]
                               for fs in channel.site_factors]
    return json.dumps(doc)


def channel_from_json(text: str) -> KrausChannel:
    doc = json.loads(text)
    ops = [_matrix_from_pairs(k) for k in doc["kraus"]]
    factors = None
    if "site_factors" in doc:
        factors = [[_matrix_from_pairs(f) for f in fs] for fs in doc["site_factors"]]
    return kraus_channel(ops, tag=doc.get("tag", "general"),
                         site_dims=tuple(doc["site_dims"]) if "site_dims" in doc else None,
                         site_factors=factors)
