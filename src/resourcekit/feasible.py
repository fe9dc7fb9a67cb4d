"""Restricted state families, their factor layouts and pure-state structure.

Three families of mixed states are the convex hulls of structured pure
states:

* ``multilevel(k)``   -- components supported on at most k basis levels;
* ``separable(k)``    -- components that factor across a partition of the
                         subsystems into (at least) k parts;
* ``producible(k)``   -- components that factor across a partition whose
                         parts hold at most k subsystems each.

A family has one parameterization, its factor layout (:class:`_Rows`):
one complex vector of rows, each a pure component on one structure of the
pool, k amplitudes on a size-k support (:class:`_Supports`) or a product
of factors over a partition (:class:`_Products`), which maps onto a member
by construction (Burer & Monteiro).  The hull solver in ``indicators``
ascends on that vector; a witness enters it through :func:`encode`, the
one placement rule, which :func:`is_feasible_pure` states and
``check_witness`` checks.  Each pool structure is written down once, as
its gather template: an evaluation gathers the rows' factors through it
from a buffer kept per layout (a one-slot row, as every multilevel row, is
its factor, with no cofactors), and the product oracle reads each factor's
form off it; the readout normalizes the kept rows as :func:`pure_state`
does, bit for bit, without its per-row checks.

The module also provides set-partition enumeration, the coherence rank of
pure states, and the finest tensor factorization of a pure state, from
which separability depth (number of parts) and entanglement depth (largest
part) are read off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod, sqrt
from typing import NamedTuple

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import (
    BadLength,
    EmptySet,
    NTooLarge,
    WitnessEncodingError,
)
from .states import PureState, _check_dims, _freeze, basis_pure, pure_state

MAX_SUBSYSTEMS = 6
FACTOR_PURITY_TOL = 1e-9     # reduced-state purity threshold for a split
RECONSTRUCT_TOL = 1e-8       # fidelity gap allowed for factor reconstruction
_DROP_WEIGHT = 1e-15  # hull readout: rows below this weight are roundoff
_ORACLE_STARTS = 4    # product oracle: seeded starts per partition
_ORACLE_SWEEPS = 50   # product oracle: most alternating sweeps per start
_ORACLE_TOL = 1e-12   # product oracle: a sweep gaining less, relative, ends it
_ORACLE_SHARE = 1e-3  # product oracle: or one gaining less than this share of the gap

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
    """Reduced state of the subsystems in ``subset`` (ascending order) of a
    pure state: the transpose, reshape and dot that
    ``np.tensordot(psi, psi.conj(), axes=(rest, rest))`` runs, bit for bit,
    without its argument handling."""
    keep = [i for i in range(len(dims)) if i in subset]
    rest = [i for i in range(len(dims)) if i not in subset]
    dk = prod(dims[i] for i in keep)
    shaped = tensor_amps.reshape(dims)
    return np.dot(shaped.transpose(keep + rest).reshape(dk, -1),
                  shaped.conj().transpose(rest + keep).reshape(-1, dk))


@np.errstate(invalid="ignore")
def _eigh(s):
    """``np.linalg.eigh(s)`` of a complex Hermitian matrix or stack, bit for
    bit: the LAPACK gufunc that it wraps (lower triangle), without the
    wrapper's layers.  Where LAPACK does not converge, the eigenvalues are
    NaN; the invalid flag it raises then is not warned about."""
    return _eigh_lo(s, signature="D->dD")


def _top_eigvec(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return v[:, -1]


def _finest_parts(stack, dims) -> list[tuple[tuple[int, ...], ...]]:
    """Finest tensor partition of each pure state of a stack (amplitude
    vectors as rows, local dims ``dims``), the one partition rule.

    Split off the smallest subset of the remaining subsystems whose reduced
    purity is at least 1 - FACTOR_PURITY_TOL, the first of its size in
    ``itertools.combinations`` order, until none splits.  A subset of a
    product state's remainder has the same reduced state as in the whole
    state, so every purity is read off one table over the whole stack: the
    first time a subset is asked about, one batched ``_reduced`` gives the
    purity of that subset in every state.
    """
    n = len(dims)
    if n > MAX_SUBSYSTEMS:
        raise NTooLarge(f"factorization capped at n={MAX_SUBSYSTEMS}, got {n}")
    shaped = np.asarray(stack).reshape(-1, *dims)
    table = {}

    def splits(subset):
        if subset not in table:
            others = [1 + i for i in range(n) if i not in subset]
            m = shaped.transpose([0, *(1 + i for i in subset), *others]).reshape(
                len(shaped), prod(dims[i] for i in subset), -1)
            red = m @ m.conj().transpose(0, 2, 1)
            table[subset] = ((np.abs(red) ** 2).sum(axis=(1, 2))  # Tr(red^2), red Hermitian
                             >= 1.0 - FACTOR_PURITY_TOL).tolist()
        return table[subset]

    out = []
    for s in range(len(shaped)):
        rest, parts = tuple(range(n)), []
        while rest:
            part = next((c for size in range(1, len(rest) // 2 + 1)
                         for c in itertools.combinations(rest, size) if splits(c)[s]), rest)
            parts.append(part)
            rest = tuple(i for i in rest if i not in part)
        out.append(tuple(sorted(parts)))
    return out


def factorize_pure(psi: PureState) -> Factorization:
    """Finest tensor factorization: the partition :func:`_finest_parts`
    reads off the state, the top eigenvector of each part's reduced state as
    its factor, except that the part of largest dimension takes what the
    other factors leave of the state (no eigh on the largest block, none at
    all for one part).

    The tensor product of the returned factors reproduces the input up to
    global phase, with fidelity gap below 1e-8 (guaranteed whenever splits
    happen well clear of the threshold, which holds for eigensolver noise
    ~1e-12 on one side and physical entanglement on the other).  Callers
    that need only partitions or depths read them off :func:`_finest_parts`
    for a whole stack.
    """
    dims = psi.dims
    parts = _finest_parts(psi.amps, dims)[0]
    big = max(parts, key=lambda part: prod(dims[i] for i in part))
    amps = {part: _top_eigvec(_reduced(psi.amps, dims, part)) for part in parts if part != big}
    rest = [i for part in amps for i in part]
    shaped = psi.amps.reshape(dims).transpose(rest + list(big)).reshape(
        -1, prod(dims[i] for i in big))
    amps[big] = np.ravel(reduce(np.multiply.outer, amps.values(), 1.0)).conj() @ shaped
    factors = tuple(pure_state(amps[part], tuple(dims[i] for i in part)) for part in parts)
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

    Its structure (support or factorization) is not stored:
    :func:`encode` and :func:`is_feasible_pure` read it off the state.
    """

    weight: float
    state: PureState


def _mixture(components) -> np.ndarray:
    """The unnormalized mixture: the sum of w |psi><psi| over (w, psi)."""
    return sum(w * np.outer(psi.amps, psi.amps.conj()) for w, psi in components)


@dataclass(frozen=True, eq=False)
class FeasibleFamily:
    """A restricted state set: its kind, order k and dims, and the pool of
    structures its convex hull is laid out on (see :func:`build_family`)."""

    kind: str
    k: int
    dims: tuple[int, ...]
    pool: tuple

    @property
    def d(self) -> int:
        return prod(self.dims)

    @cached_property
    def _default(self):
        """The hull at its default start (seed 0), built once, so that
        :func:`_decode_raw` reuses its gather tables."""
        return _Supports(self) if self.kind == "multilevel" else _Products(self)

    @property
    def param_len(self) -> int:
        """Float length of the hull's default start.  Its last reader is
        perfbench/sweep.py (the objective sweep)."""
        return 2 * len(self._default.start[0])


def structure_pool(kind: str, dims, k: int) -> list:
    """Every structure a component of the family may take: the size-k
    supports (multilevel), exactly-k-part partitions (separable) or
    max-part-size-k partitions (producible), in enumeration order.  A dim
    that is not a positive integer already raises DimensionMismatch."""
    dims = _check_dims(dims)
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


def build_family(kind: str, dims, k: int) -> FeasibleFamily:
    """The family kind(k) on ``dims``.  Its pool is :func:`structure_pool`
    with, for the correlation kinds, only the coarsest partitions: a
    partition that refines another adds nothing to the hull, since its
    products are the coarser one's."""
    dims = _check_dims(dims)
    pool = structure_pool(kind, dims, k)
    if kind != "multilevel":
        pool = [p for p in pool if not any(q != p and _coarsens(q, p) for q in pool)]
    return FeasibleFamily(kind, k, dims, tuple(pool))


def _decode_raw(family: FeasibleFamily, theta) -> np.ndarray:
    """sigma of ``theta``, floats viewed as complex, in the layout of the
    family's default start: the map the hull solver evaluates.  Its last
    readers are perfbench's tracing.py (a traced layer) and sweep.py (the
    objective sweep)."""
    theta = np.ascontiguousarray(theta, dtype=float)
    if theta.shape != (family.param_len,):
        raise BadLength(f"expected {family.param_len} parameters, got {theta.shape}")
    hull = family._default
    return hull.map((theta.view(complex), hull.start[1]))[0]


# ---------------------------------------------------------------------------
# Witness placement: the one membership rule.
# ---------------------------------------------------------------------------

def _coarsens(coarse_partition, fine_partition) -> bool:
    """True iff every coarse part is a union of fine parts."""
    fine = [set(p) for p in fine_partition]
    for part in coarse_partition:
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


def _structures(kind: str, states) -> list:
    """The support (multilevel) or finest partition of each component; the
    partitions of the components of one dims come off one table."""
    if kind == "multilevel":
        return [_effective_support(psi) for psi in states]
    keys = [tuple(psi.dims) for psi in states]
    tables = {dims: iter(_finest_parts([psi.amps for psi, key in zip(states, keys) if key == dims],
                                       dims)) for dims in set(keys)}
    return [next(tables[key]) for key in keys]


def _fits(kind: str, structure, pooled) -> bool:
    """Whether a component's structure fits a structure of the pool."""
    if kind == "multilevel":
        return set(structure) <= set(pooled)
    return _coarsens(pooled, structure)


def encode(family: FeasibleFamily, components) -> list[int]:
    """The one witness placement: for each ``(weight, pure state)`` pair, the
    index of the first structure of ``family.pool`` that the component's
    structure fits (:func:`is_feasible_pure`'s rule).  A component that fits
    none raises WitnessEncodingError: the mixture is never altered to fit,
    so a witness start reproduces its affinity.  Both hulls' witness starts
    call it, and perfbench/tracing.py traces it as a layer."""
    placed = _first_fits(family.kind, family.pool, [psi for _, psi in components])
    if None in placed:
        raise WitnessEncodingError(
            f"a witness component is outside {family.kind}({family.k})")
    return placed


def _first_fits(kind: str, pool, states) -> list:
    """Index of the first structure in ``pool`` that each component's
    structure fits, or None."""
    return [next((j for j, pooled in enumerate(pool) if _fits(kind, structure, pooled)), None)
            for structure in _structures(kind, states)]


def is_feasible_pure(kind: str, k: int, psi: PureState) -> bool:
    """The one membership rule: a component belongs to a family iff its structure
    (support or finest factorization) fits a structure of the family's pool.
    :func:`encode` places witness components by it and ``check_witness``
    checks by it.  An order outside the family's range raises EmptySet."""
    return _all_feasible(kind, k, [psi])


def _all_feasible(kind: str, k: int, states) -> bool:
    """:func:`is_feasible_pure` of every state of a list of one dims, the
    partitions read off one table; an empty list is feasible."""
    return not states or None not in _first_fits(
        kind, structure_pool(kind, states[0].dims, k), states)


# ---------------------------------------------------------------------------
# Factor layouts: a family's convex hull as the image of one complex vector.
# ---------------------------------------------------------------------------

def _gathered(f: np.ndarray):
    """Products psi (rows, d) of the factors f (rows, slots, d) that a gather
    table reads, and per slot the product of the other slots' entries, from
    running products: no division, so that exact-zero factor entries keep
    finite gradients.  A one-slot row is its factor and has no cofactors
    (None)."""
    if f.shape[1] == 1:
        return f[:, 0], None
    if f.shape[1] == 2:
        return f[:, 0] * f[:, 1], f[:, ::-1]
    rest, psi = np.ones_like(f), f[:, -1]
    for s in range(1, f.shape[1]):           # forward: the slots before s
        np.multiply(rest[:, s - 1], f[:, s - 1], out=rest[:, s])
    for s in range(f.shape[1] - 2, -1, -1):  # backward: times the slots after s
        rest[:, s] *= psi
        psi = psi * f[:, s]
    return psi, rest


class _Rows:
    """sigma = sum_j psi_j psi_j^dagger / N, N = sum |psi_j|^2, each psi_j
    the product of a row of factors laid out on one structure of the
    family's pool (Burer & Monteiro).  The state is (z, layout): the rows
    end to end in one complex vector z, and the pool index of each row.
    Per structure, ``counts`` holds a row's factors, ``widths`` its length
    and ``tmpls`` (slots, d), per slot and amplitude, the row entry that
    multiplies into it: -1 gathers the trailing 1 (a slot past the parts),
    -2 the trailing 0 (a level off the support)."""

    layout = None

    def _table(self, layout):
        """Gather table (rows, slots, d) of the rows laid out as ``layout``."""
        widths, tmpl = self.widths[list(layout)], self.tmpls[list(layout)]
        return np.where(tmpl < 0, widths.sum() - 1 - tmpl,
                        (np.cumsum(widths) - widths)[:, None, None] + tmpl)

    def map(self, x):
        """sigma, and its pullback (G, Tr(G sigma)) -> gradient on z: d f / d
        conj(psi_j) = (G - Tr(G sigma)) psi_j / N times each entry's cofactor
        (none for one-slot rows).  Per layout, kept for the length of an
        L-BFGS run, it holds the gather table and a buffer of z followed by
        [1, 0], which each call copies z into.  Where N is zero or not
        finite, sigma is NaN, which the eigensolver rejects."""
        z, layout = x
        if layout != self.layout:
            self.layout, self.idx = layout, self._table(layout)
            self.scatter = (2 * self.idx[..., None] + np.arange(2)).ravel()
            self.padded = np.zeros(len(z) + 2, complex)
            self.padded[-2] = 1.0
        self.padded[:-2] = z
        psi, rest = _gathered(self.padded[self.idx])
        n, scatter = np.vdot(psi, psi).real, self.scatter

        def pullback(g, tr):
            dpsi = (2.0 / n) * (psi @ g.T - tr * psi)
            if rest is not None:
                dpsi = dpsi[:, None, :] * rest.conj()
            return np.bincount(scatter, dpsi.view(float).ravel(),   # real, imaginary
                               2 * len(z) + 4)[:-4].view(complex)   # parts interleaved
        if not 0.0 < n < np.inf:    # no sigma: NaN, without the division's warning
            return np.full((self.d, self.d), np.nan + 0j), pullback
        return psi.T @ psi.conj() / n, pullback

    def _psi(self, z, layout):
        """The rows' vectors psi of (z, layout), off a table of their own."""
        return _gathered(np.concatenate((z, [1.0, 0.0]))[self._table(layout)])[0]

    def _weights(self, x):
        psi = self._psi(*x)
        return np.sum(np.abs(psi) ** 2, axis=1), psi

    def add(self, x, t, where):
        """Scale sigma by 1 - t, add the atom's row at weight t, and prune rows
        below _DROP_WEIGHT."""
        (z, layout), (j, row) = x, where
        layout += (j,)
        counts, widths = self.counts[list(layout)], self.widths[list(layout)]
        scale = np.append(np.full(len(x[1]), (1.0 - t) / self._weights(x)[0].sum()), t)
        z = np.append(z, row) * np.repeat(scale ** (0.5 / counts), widths)
        keep = self._weights((z, layout))[0] > _DROP_WEIGHT
        return z[np.repeat(keep, widths)], tuple(np.compress(keep, layout).tolist())

    def components(self, x):
        """The rows above _DROP_WEIGHT as (weight, pure state) pairs, each
        row normalized as :func:`pure_state` does it, bit for bit: divided by
        its root weight, then by the norm of that (its dot formula, as
        :func:`states._norm`), and multiplied by the phase that makes its
        first entry above 1e-12 real, taken row by row as a scalar.  A kept
        row is finite with a norm near 1, so none of pure_state's checks
        applies."""
        weights, psi = self._weights(x)
        total = weights.sum()
        keep = weights / total > _DROP_WEIGHT
        a = psi[keep] / np.sqrt(weights[keep])[:, None]
        a /= np.array([sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) for v in a])[:, None]
        leads = a[np.arange(len(a)), np.argmax(np.abs(a) > 1e-12, axis=1)]
        return [WitnessComponent(float(w / total), PureState(self.dims, _freeze(v * (abs(c) / c))))
                for w, v, c in zip(weights[keep], a, leads)]


class _Supports(_Rows):
    """multilevel(k): rows of k amplitudes on the size-k supports.  Its
    oracle, an eigh per support, is exact."""

    certified = True

    def __init__(self, family, witness=None):
        self.dims, self.d, k = family.dims, family.d, family.k
        self.pool = pool = np.array(family.pool)
        self.counts, self.widths = np.ones(len(pool), int), np.full(len(pool), k)
        self.tmpls = np.full((len(pool), 1, self.d), -2)
        self.tmpls[np.arange(len(pool))[:, None], 0, pool] = np.arange(k)
        self.rows, self.cols = pool[:, :, None], pool[:, None, :]
        if not witness:     # I/d, as the identity's k columns on every support
            self.start = (np.tile(np.eye(k, dtype=complex).ravel(), len(pool)),
                          tuple(np.repeat(range(len(pool)), k).tolist()))
            return
        layout = tuple(encode(family, witness))
        self.start = np.concatenate([np.sqrt(weight) * psi.amps[pool[j]] for j, (weight, psi)
                                     in zip(layout, witness)]).astype(complex), layout

    def oracle(self, g, tr):
        """(top eigenvalue, its atom as a vector, where it goes) over the supports."""
        lam, vec = np.linalg.eigh(g[self.rows, self.cols])
        j = int(np.argmax(lam[:, -1]))
        atom = np.zeros(self.d, dtype=complex)
        atom[self.pool[j]] = vec[j, :, -1]
        return lam[j, -1], atom, (j, vec[j, :, -1])


class _Products(_Rows):
    """separable(k) and producible(k): rows of unnormalized factors, one
    per part of a partition of the family's pool, each row's psi their
    tensor product.  The oracle, alternating maximization over product
    vectors from a few seeded starts, is a heuristic: its gap only decides
    when to stop.  It reads the same gather templates as the row map: with
    the other factors held, <psi|G|psi> is a form on factor q,
    B^dagger G B, where B scatters each amplitude's cofactor onto the
    factor entry that multiplies into it."""

    certified = False

    def __init__(self, family, witness=None, key=0):
        self.dims, self.d = family.dims, family.d
        self.pool, self.rng = family.pool, np.random.default_rng([key, 1])
        self.sizes = [[prod(self.dims[i] for i in part) for part in p] for p in self.pool]
        self.counts, self.widths = np.array([(len(sizes), sum(sizes)) for sizes in self.sizes]).T
        self.tmpls, self.slots = np.full((len(self.pool), max(self.counts), self.d), -1), []
        grid = np.indices(self.dims).reshape(len(self.dims), -1)
        for tmpl, p, sizes in zip(self.tmpls, self.pool, self.sizes):
            offsets = np.cumsum([0] + sizes)
            for s, part in enumerate(p):
                tmpl[s] = offsets[s] + np.ravel_multi_index(tuple(grid[list(part)]),
                                                            [self.dims[i] for i in part])
            # per slot q, once the template is filled: the template with slot q
            # reading the trailing 1, and U_q, amplitudes to factor q's entries
            self.slots.append([(np.where(np.arange(len(tmpl))[:, None] == q, -1, tmpl),
                                tmpl[q, :, None] == offsets[q] + np.arange(size))
                               for q, size in enumerate(sizes)])
        if not witness:     # d random components per partition: sigma starts full rank
            layout = tuple(np.repeat(range(len(self.pool)), self.d).tolist())
            n = 2 * self.widths[list(layout)].sum()
            self.start = np.random.default_rng([key, 0]).standard_normal(n).view(complex), layout
            return
        layout = tuple(encode(family, witness))
        z = [weight ** (0.5 / len(self.pool[j])) * _top_eigvec(_reduced(psi.amps, self.dims, part))
             for j, (weight, psi) in zip(layout, witness) for part in self.pool[j]]
        self.start = np.concatenate(z).astype(complex), layout

    def form(self, g, rows, j, q):
        """<psi|G|psi> as a form on factor q of partition j, one matrix per
        row of ``rows`` (its factors, then a trailing 1): B^dagger G B, where
        B = cofactor * U_q, each amplitude's cofactor the product of the
        other slots' entries at its template index."""
        tmpl, u = self.slots[j][q]
        b = rows[:, tmpl].prod(axis=1)[:, :, None] * u
        return b.conj().transpose(0, 2, 1) @ g @ b

    def oracle(self, g, tr):
        """(largest <phi|G|phi> found over product phi, phi, where it goes); a
        sweep gaining under _ORACLE_SHARE of the gap over ``tr`` ends it too."""
        best = (-np.inf, None, None)
        for j, sizes in enumerate(self.sizes):
            offsets = np.cumsum([0] + sizes)
            rows = np.concatenate([self.rng.standard_normal((_ORACLE_STARTS, 2 * s)).view(complex)
                                   for s in sizes] + [np.ones((_ORACLE_STARTS, 1))], axis=1)
            value = np.full(_ORACLE_STARTS, -np.inf)
            for _ in range(_ORACLE_SWEEPS):
                for q in range(len(sizes)):
                    lam, vec = _eigh(self.form(g, rows, j, q))
                    rows[:, offsets[q]:offsets[q + 1]] = vec[..., -1]
                gain, value = lam[:, -1] - value, lam[:, -1]
                if len(sizes) == 1 or gain.max() <= max(_ORACLE_TOL * np.abs(value).max(),
                                                        _ORACLE_SHARE * (value.max() - tr)):
                    break
            z = int(np.argmax(value))
            if value[z] > best[0]:
                row = rows[z, :-1]
                best = (value[z], self._psi(row, (j,))[0], (j, row))
        return best


def _diagonal_components(q: np.ndarray, dims) -> list[WitnessComponent]:
    return [WitnessComponent(float(qi), basis_pure(dims, i))
            for i, qi in enumerate(q) if qi > 0.0]
