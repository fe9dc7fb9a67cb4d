"""Dense complex-matrix quantum state algebra.

Validated density matrices and pure states on a fixed tensor-product
structure, spectral calculus (fractional matrix powers), composition
(tensor product, partial trace) and seeded random generation.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely between concurrent tasks.  A
density matrix computes its eigendecomposition at most once, from its
frozen data, and every spectral quantity of the state is read from it.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from math import isfinite, prod, sqrt
from typing import NamedTuple

import numpy as np

from .errors import (
    BadIndex,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPSD,
    TraceDeviation,
)

HERM_TOL = 1e-10
PSD_TOL = 1e-10        # eigenvalues below -PSD_TOL reject the matrix outright
CLAMP_NOISE = 1e-13    # eigenvalues in [-CLAMP_NOISE, 0) are eigensolver noise
TRACE_TOL = 1e-8
RENORM_GUARD = 1e-9    # largest trace shift the clamp step may introduce


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    ``dims`` lists the subsystem dimensions; their product is the side
    length of ``data``.  Construct untrusted matrices through
    :func:`validate`; the dataclass itself performs no checks.

    ``data`` is read-only and owned by the state (a writable array passed
    in is copied), so the state carries one eigendecomposition of it,
    ``eigh((data + data^dag) / 2)``, computed on first use (or by
    :func:`validate`, which has it anyway) and frozen.  :func:`frac_power`,
    :func:`spectral` and the affinity read it, so a state is decomposed
    once however often it is used.  States of one dimension can be
    decomposed together, with one stacked ``eigh`` (:func:`_spectra`); each
    keeps its row, bit-identical to decomposing it alone.  Two threads that
    race to fill it compute the same value.
    """

    dims: tuple[int, ...]
    data: np.ndarray
    _eig: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        if self.data.flags.writeable:
            object.__setattr__(self, "data", _freeze(np.array(self.data)))

    @property
    def d(self) -> int:
        return self.data.shape[0]

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvector columns of the Hermitian
        part of ``data``, exactly as :func:`_frac_power_raw` decomposes it."""
        if self._eig is None:
            self._cache(*_eigh(self.data))
        return self._eig

    def _cache(self, w: np.ndarray, v: np.ndarray) -> None:
        object.__setattr__(self, "_eig", (_freeze(w), _freeze(v)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.data @ self.data)))

    def diag(self) -> np.ndarray:
        return np.real(np.diag(self.data)).copy()


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector with canonical global phase on a tensor-product space."""

    dims: tuple[int, ...]
    amps: np.ndarray

    @property
    def d(self) -> int:
        return self.amps.shape[0]

    def projector(self) -> DensityMatrix:
        return _trusted(np.outer(self.amps, self.amps.conj()), self.dims)


class Spectrum(NamedTuple):
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_dims(dims, side) -> tuple[int, ...]:
    """``dims`` as ints, each entry an integer already: a bool, a string or
    a fraction is refused, never truncated."""
    try:
        raw = list(dims)
        ints = tuple(int(x) for x in raw)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or any(isinstance(x, (bool, np.bool_)) or n != x for n, x in zip(ints, raw)):
        raise DimensionMismatch(f"dims must be a sequence of ints, got {dims!r}")
    dims = ints
    if not dims or any(x <= 0 for x in dims):
        raise DimensionMismatch(f"dims must be positive, got {dims}")
    if prod(dims) != side:
        raise DimensionMismatch(f"prod{dims} = {prod(dims)} != matrix side {side}")
    return dims


def _count(value, name: str) -> int:
    """``value`` as an int >= 0, an integer already: a bool, a string or a
    fraction raises ValueError, never truncated."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, (bool, np.bool_)) or n != value or n < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return n


def _trusted(data: np.ndarray, dims) -> DensityMatrix:
    """Wrap a matrix that is valid by construction (no spectral re-check)."""
    data = np.ascontiguousarray(data, dtype=complex)
    tr = np.real(np.trace(data))
    if abs(tr - 1.0) > 1e-12:
        data = data / tr
    return DensityMatrix(tuple(int(x) for x in dims), _freeze(data))


def validate(matrix, dims) -> DensityMatrix:
    """Check Hermiticity, positivity and unit trace; return a DensityMatrix.

    A NaN or infinite entry raises ``NonFinite`` before any other check.
    Eigenvalues in [-1e-13, 0) are eigensolver noise and are kept as they
    are.  If the smallest eigenvalue lies in [-1e-10, -1e-13), the negative
    ones are clamped to zero and the trace renormalized, provided the clamp
    shifts the trace by at most 1e-9; anything more negative raises
    ``NotPSD``.  Matrices that need no repair are stored byte-identical, so
    that serialization round-trips exactly.  The state stores a copy: the
    caller's array stays writable, and writing it later leaves the state as
    it was.
    """
    return _validated(np.array(matrix, dtype=complex, order="C")[None], dims)[0]


def _validated(stack: np.ndarray, dims) -> list[DensityMatrix]:
    """:func:`validate` for every matrix of a C-contiguous complex stack of
    shape (n, d, d) on one ``dims``, with one ``eigh`` for the stack; each
    state keeps its row (the stack is owned by the states from then on).
    A stack that fails a check is checked again one matrix at a time, so it
    raises what validate raises on its first failing matrix."""
    def reject(exc):
        if len(stack) > 1:
            for i in range(len(stack)):
                _validated(stack[i:i + 1], dims)
        raise exc

    # sum |m_ij|^2 is NaN or infinite for a NaN or infinite entry (or, past
    # 1e154, by overflow), so only then are the entries themselves tested
    if not isfinite(np.vdot(stack, stack).real) and not np.isfinite(stack).all():
        reject(NonFinite("matrix has a NaN or infinite entry"))
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {stack.shape[1:]}")
    dims = _check_dims(dims, stack.shape[1])

    herm_dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max()
    if herm_dev > HERM_TOL:
        reject(NotHermitian(f"max |m - m^dag| = {herm_dev:.3e} > {HERM_TOL}"))

    w, v = _eigh(stack)
    low = min(w[:, 0].tolist())
    if low < -PSD_TOL:
        reject(NotPSD(f"eigenvalue {low:.3e} < -{PSD_TOL}"))

    traces = stack.trace(axis1=1, axis2=2).real.tolist()
    dev = max(abs(tr - 1.0) for tr in traces)
    if dev > TRACE_TOL:
        reject(TraceDeviation(f"|trace - 1| = {dev:.3e} > {TRACE_TOL}"))

    states = []
    for m, wi, vi, tr in zip(stack, w, v, traces):
        if wi[0] < -CLAMP_NOISE:
            # every earlier matrix passed every check: this one fails first
            shift = float(-wi[wi < 0].sum())
            if shift > RENORM_GUARD:
                raise NotPSD(f"accumulated negative mass {shift:.3e} > {RENORM_GUARD}")
            repaired = (vi * np.clip(wi, 0.0, None)) @ vi.conj().T
            repaired /= np.real(np.trace(repaired))
            states.append(DensityMatrix(dims, _freeze(repaired)))
        elif abs(tr - 1.0) > 1e-12:
            states.append(DensityMatrix(dims, _freeze(m / tr)))
        else:
            rho = DensityMatrix(dims, _freeze(m))
            rho._cache(wi, vi)
            states.append(rho)
    return states


def pure_state(amps, dims=None) -> PureState:
    """Normalize an amplitude vector and canonicalize its global phase; a
    NaN or infinite amplitude raises ``NonFinite``.  Finite amplitudes whose
    norm overflows are first scaled by the largest |a_i|."""
    a = np.asarray(amps, dtype=complex).ravel()
    norm = _norm(a)
    if not isfinite(norm):
        if not np.isfinite(a).all():   # as in validate
            raise NonFinite("amplitude vector has a NaN or infinite entry")
        a = a / np.abs(a).max()
        norm = _norm(a)
    if norm < 1e-12:
        raise DimensionMismatch("amplitude vector has (near-)zero norm")
    a = a / norm
    if dims is None:
        dims = (a.shape[0],)
    dims = _check_dims(dims, a.shape[0])
    nz = np.flatnonzero(np.abs(a) > 1e-12)
    lead = a[nz[0]]
    a = a * (abs(lead) / lead)
    return PureState(dims, _freeze(np.ascontiguousarray(a)))


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, bit for bit (its own formula),
    without numpy's overflow warning: a norm that overflows is inf."""
    with np.errstate(over="ignore"):
        return sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))


def basis_pure(dims, index: int) -> PureState:
    d = prod(dims)
    a = np.zeros(d, dtype=complex)
    a[index] = 1.0
    return pure_state(a, dims)


def spectral(rho: DensityMatrix) -> Spectrum:
    """Eigendecomposition sorted descending; columns are eigenvectors."""
    w, v = rho._spectrum()
    order = np.argsort(w)[::-1]
    return Spectrum(_freeze(w[order].copy()), _freeze(v[:, order].copy()))


def frac_power(rho: DensityMatrix, t: float) -> np.ndarray:
    """Spectral power rho^t for 0 < t <= 1, with the convention 0^t = 0.

    Read from the state's cached eigendecomposition, it is bit-identical to
    ``_frac_power_raw(rho.data, t)`` and runs no eigensolver after the
    state's first spectral use.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError(f"power must lie in (0, 1], got {t}")
    return _power(*rho._spectrum(), t)


# Eigenvalues below this fraction of the largest one are eigensolver noise
# on an exact zero; x**t amplifies such noise to noise**t (e.g. 1e-16 ->
# 1e-8 at t = 1/2), so they are flushed to an exact zero before powering.
# The factor uses the largest supported dimension rather than the actual
# one so that states with identical spectra flush identically regardless
# of the space they live in.
_FLUSH = 64 * np.finfo(float).eps


def _eigh(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part, over leading axes."""
    return np.linalg.eigh((data + data.conj().swapaxes(-1, -2)) / 2)


def _spectra(states) -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of a state, or those of a sequence of states of
    one dimension stacked along a leading axis, where the states not yet
    decomposed are decomposed with one ``eigh`` and cache their row."""
    if isinstance(states, DensityMatrix):
        return states._spectrum()
    todo = [rho for rho in states if rho._eig is None]
    if todo:
        for rho, w, v in zip(todo, *_eigh(np.array([rho.data for rho in todo]))):
            rho._cache(w, v)
    return np.array([rho._eig[0] for rho in states]), np.array([rho._eig[1] for rho in states])


def _flushed(w: np.ndarray) -> np.ndarray:
    """Eigenvalues w, ascending along the last axis as eigh returns them,
    clipped at zero and with those below _FLUSH of the largest set to an
    exact zero, over leading axes: the spectrum that may be raised to a
    power.  One spectrum with nothing to clip or flush is returned as it is
    (the hull objective's common case, checked in two scalar steps)."""
    if w.ndim == 1 and w[0] >= _FLUSH * w[-1] > 0.0:
        return w
    return np.where(w < _FLUSH * w[..., -1:], 0.0, w)


def _power(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """v diag(w^t) v^dag with w flushed (:func:`_flushed`), over leading
    axes.  ``t`` is one scalar for the stack: numpy's ``**`` with an array
    of exponents is not bit-identical to it."""
    w = _flushed(w) ** t
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _frac_power_raw(data: np.ndarray, t: float) -> np.ndarray:
    return _power(*_eigh(data), t)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; subsystem lists concatenate."""
    return _trusted(np.kron(a.data, b.data), a.dims + b.dims)


def tensor_pure(a: PureState, b: PureState) -> PureState:
    return pure_state(np.kron(a.amps, b.amps), a.dims + b.dims)


def _ptrace_raw(data: np.ndarray, dims, keep) -> np.ndarray:
    n = len(dims)
    letters = string.ascii_lowercase
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    sub = "".join(row) + "".join(col) + "->" + "".join(out)
    dk = prod(dims[i] for i in keep)
    return np.einsum(sub, data.reshape(tuple(dims) * 2)).reshape(dk, dk)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the given subsystem indices (original order kept)."""
    n = len(rho.dims)
    keep = sorted(set(int(i) for i in keep))
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise BadIndex(f"keep={keep} invalid for {n} subsystems")
    red = _ptrace_raw(rho.data, rho.dims, keep)
    return _trusted(red, tuple(rho.dims[i] for i in keep))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    if a.d != b.d:
        raise DimensionMismatch(f"state dimensions differ: {a.d} vs {b.d}")
    return _half_trace_norms(a.data - b.data)


def _half_trace_norms(x: np.ndarray):
    """Half the trace norm of a Hermitian matrix, over leading axes: a float,
    or a list of floats for a stack."""
    return (np.abs(np.linalg.eigvalsh(x)).sum(axis=-1) / 2).tolist()


# ---------------------------------------------------------------------------
# Seeded random generation.  All randomness flows through numpy's PCG64
# generator so that identical seeds give bit-identical results.
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``.  A list of Python ints in [0, 2^32)
    enters SeedSequence as one uint32 array: numpy assembles the same entropy
    words from it, without coercing each int.  Any other seed goes to
    ``default_rng`` as it is, so its errors stay numpy's."""
    if type(seed) is list and all(type(w) is int and 0 <= w <= 0xFFFFFFFF for w in seed):
        seed = np.random.SeedSequence(np.array(seed, dtype=np.uint32))
    return np.random.default_rng(seed)


def random_pure(dims, seed) -> PureState:
    """Haar-distributed pure state (normalized complex Gaussian vector)."""
    rng = _rng(seed)
    d = prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return pure_state(z, dims)


def random_mixed(dims, rank, seed) -> DensityMatrix:
    """Ginibre-induced mixed state G G^dag / Tr(G G^dag) of the given rank."""
    return _random_mixed(dims, [rank], [seed])[0]


def _random_mixed(dims, ranks, seeds) -> list[DensityMatrix]:
    """:func:`random_mixed` for each (rank, seed), drawn one at a time and
    validated as one stack."""
    d = prod(dims)
    grams = []
    for rank, seed in zip(ranks, seeds):
        if not 1 <= rank <= d:
            raise DimensionMismatch(f"rank {rank} out of range for dimension {d}")
        rng = _rng(seed)
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        grams.append(g @ g.conj().T)
    m = np.array(grams)
    return _validated(m / np.real(np.trace(m, axis1=1, axis2=2))[:, None, None], dims)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    rng = _rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


# ---------------------------------------------------------------------------
# JSON interchange: {"dims": [...], "matrix": [[[re, im], ...], ...]}
# row-major; a file of another shape raises ValueError, and one whose
# matrix fails validate() is refused as validate() refuses it.
# ---------------------------------------------------------------------------

def _matrix_to_pairs(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_pairs(raw) -> np.ndarray:
    try:
        pairs = [[(re, im) for re, im in row] for row in raw]
        if any(isinstance(x, bool) for row in pairs for pair in row for x in pair):
            raise TypeError("a bool is not a number")
        return np.array([[complex(re, im) for re, im in row] for row in pairs])
    except (TypeError, ValueError):
        raise ValueError("matrix must be a grid of [re, im] number pairs") from None


def _json_fields(text: str, what: str, *keys):
    """The values of ``keys`` in the JSON object ``text``; a document that is
    not an object, or lacks one of them, raises ValueError naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"a {what} needs the field {key!r}")
    return [doc[key] for key in keys]


def state_to_json(rho: DensityMatrix) -> str:
    return json.dumps({"dims": list(rho.dims), "matrix": _matrix_to_pairs(rho.data)})


def state_from_json(text: str) -> DensityMatrix:
    matrix, dims = _json_fields(text, "state", "matrix", "dims")
    return validate(_matrix_from_pairs(matrix), dims)


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(state_to_json(rho))


def load_state(path) -> DensityMatrix:
    with open(path) as fh:
        return state_from_json(fh.read())
