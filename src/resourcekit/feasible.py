"""Restricted state families, their factor layouts and pure-state structure.

Three families of mixed states are the convex hulls of structured pure
states:

* ``multilevel(k)``   -- components supported on at most k basis levels;
* ``separable(k)``    -- components that factor across a partition of the
                         subsystems into (at least) k parts;
* ``producible(k)``   -- components that factor across a partition whose
                         parts hold at most k subsystems each.

A family has one parameterization, its factor layout: one complex vector
of PSD block factors on the size-k supports (:class:`_Blocks`), or of rows
of product factors over the pool's partitions (:class:`_Products`), which
maps onto a member by construction (Burer & Monteiro).  The hull solver in
``indicators`` ascends on that vector; a witness enters it through
:func:`encode`, the one placement rule, which :func:`is_feasible_pure`
states and ``check_witness`` checks.

The module also provides set-partition enumeration, the coherence rank of
pure states, and the finest tensor factorization of a pure state, from
which separability depth (number of parts) and entanglement depth (largest
part) are read off.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import (
    BadLength,
    EmptySet,
    NTooLarge,
    WitnessEncodingError,
)
from .states import PureState, basis_pure, pure_state

MAX_SUBSYSTEMS = 6
FACTOR_PURITY_TOL = 1e-9     # reduced-state purity threshold for a split
RECONSTRUCT_TOL = 1e-8       # fidelity gap allowed for factor reconstruction
_DROP_WEIGHT = 1e-15  # hull readout: components and pivots below this are roundoff
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

    Its structure (support or factorization) is not stored:
    :func:`encode` and :func:`is_feasible_pure` read it off the state.
    """

    weight: float
    state: PureState


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
        return _Blocks(self) if self.kind == "multilevel" else _Products(self)

    @property
    def param_len(self) -> int:
        """Float length of the hull's default start.  Its last reader is
        perfbench/sweep.py (the objective sweep)."""
        return 2 * len(self._default.start[0])


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


def build_family(kind: str, dims, k: int) -> FeasibleFamily:
    """The family kind(k) on ``dims``.  Its pool is :func:`structure_pool`
    with, for the correlation kinds, only the coarsest partitions: a
    partition that refines another adds nothing to the hull, since its
    products are the coarser one's."""
    dims = tuple(int(x) for x in dims)
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


def _structure(kind: str, psi: PureState):
    """The support (multilevel) or finest factorization of a component."""
    if kind == "multilevel":
        return _effective_support(psi)
    return factorize_pure(psi).parts


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
    placed = []
    for _, psi in components:
        if (j := _first_fit(family.kind, family.pool, psi)) is None:
            raise WitnessEncodingError(
                f"a witness component is outside {family.kind}({family.k})")
        placed.append(j)
    return placed


def _first_fit(kind: str, pool, psi: PureState):
    """Index of the first structure in ``pool`` that the component's
    structure fits, or None."""
    structure = _structure(kind, psi)
    return next((j for j, pooled in enumerate(pool) if _fits(kind, structure, pooled)), None)


def is_feasible_pure(kind: str, k: int, psi: PureState) -> bool:
    """The one membership rule: a component belongs to a family iff its structure
    (support or finest factorization) fits a structure of the family's pool.
    :func:`encode` places witness components by it and ``check_witness``
    checks by it.  An order outside the family's range raises EmptySet."""
    return _first_fit(kind, structure_pool(kind, psi.dims, k), psi) is not None


# ---------------------------------------------------------------------------
# Factor layouts: a family's convex hull as the image of one complex vector.
# ---------------------------------------------------------------------------

def _factor(x: np.ndarray) -> np.ndarray:
    """A square factor b of a PSD matrix, x = b b^dagger."""
    w, v = np.linalg.eigh(x)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _cholesky_columns(x: np.ndarray):
    """Pivoted-Cholesky columns c of a PSD block, x = sum c c^dagger.  Each
    column vanishes on the earlier pivots, so supports strictly shrink."""
    x = x.copy()
    for _ in range(len(x)):
        diag = np.real(np.diag(x))
        p = int(np.argmax(diag))
        if diag[p] <= _DROP_WEIGHT:
            return
        c = x[:, p] / np.sqrt(diag[p])
        yield c
        x -= np.outer(c, c.conj())
        x[p, :] = x[:, p] = 0.0


class _Blocks:
    """multilevel(k): sigma = sum_S B_S B_S^dagger / N over the size-k
    supports S, N = sum |B_S|^2, B = z.reshape(supports, k, k).  Its oracle,
    an eigh per block, is exact."""

    certified = True

    def __init__(self, family, witness=None):
        self.dims, self.d, k = family.dims, family.d, family.k
        self.pool = pool = np.array(family.pool)
        self.shape = (len(pool), k, k)
        self.rows, self.cols = pool[:, :, None], pool[:, None, :]
        self.flat = (self.rows * self.d + self.cols).ravel()
        if not witness:     # I/d, as the identity on every block: no zero block
            self.start = np.tile(np.eye(k, dtype=complex), (len(pool), 1, 1)).ravel(), None
            return
        blocks = np.zeros(self.shape, dtype=complex)
        for j, (weight, psi) in zip(encode(family, witness), witness):
            a = psi.amps[pool[j]]
            blocks[j] += weight * np.outer(a, a.conj())
        self.start = np.array([_factor(x) for x in blocks]).ravel(), None

    def map(self, x):
        """sigma, and its pullback (G, Tr(G sigma)) -> gradient on z."""
        b, d = x[0].reshape(self.shape), self.d
        m = (b @ b.conj().transpose(0, 2, 1)).ravel()
        m = np.bincount(self.flat, m.real, d * d) + 1j * np.bincount(self.flat, m.imag, d * d)
        return (m.reshape(d, d) / m[::d + 1].real.sum(),
                lambda g, tr: (2.0 * (g[self.rows, self.cols] @ b - tr * b)
                               / np.vdot(b, b).real).ravel())

    def oracle(self, g, tr):
        """(top eigenvalue, its atom as a vector, where it goes) over the blocks."""
        lam, vec = np.linalg.eigh(g[self.rows, self.cols])
        j = int(np.argmax(lam[:, -1]))
        atom = np.zeros(self.d, dtype=complex)
        atom[self.pool[j]] = vec[j, :, -1]
        return lam[j, -1], atom, (j, vec[j, :, -1])

    def add(self, x, t, where):
        (j, top), b = where, np.sqrt(1.0 - t) * x[0].reshape(self.shape)
        b /= np.sqrt(np.vdot(x[0], x[0]).real)
        b[j] = _factor(b[j] @ b[j].conj().T + t * np.outer(top, top.conj()))
        return b.ravel(), None

    def components(self, x):
        """Pivoted-Cholesky columns of each block, basis atoms merged, listed
        by decreasing support size."""
        atoms, basis, b = [], np.zeros(self.d), x[0].reshape(self.shape)
        for support, bs in zip(self.pool, b / np.sqrt(np.vdot(b, b).real)):
            for c in _cholesky_columns(bs @ bs.conj().T):
                psi = pure_state(np.eye(self.d)[:, support] @ c, self.dims)
                level = _effective_support(psi)
                if len(level) == 1:
                    basis[level[0]] += np.vdot(c, c).real
                else:
                    atoms.append(WitnessComponent(np.vdot(c, c).real, psi))
        atoms.sort(key=lambda c: -len(_effective_support(c.state)))
        return atoms + _diagonal_components(basis, self.dims)


def _gathered(z: np.ndarray, idx: np.ndarray):
    """Products psi (rows, d) of the entries that the table idx (rows, slots,
    d) gathers from z with a trailing 1, and per slot the product of the
    other slots' entries, from running products: no division, so that
    exact-zero factor entries keep finite gradients."""
    f = np.concatenate((z, [1.0]))[idx]
    if f.shape[1] == 2:
        return f[:, 0] * f[:, 1], f[:, ::-1]
    rest, psi = np.ones_like(f), f[:, -1]
    for s in range(1, f.shape[1]):           # forward: the slots before s
        np.multiply(rest[:, s - 1], f[:, s - 1], out=rest[:, s])
    for s in range(f.shape[1] - 2, -1, -1):  # backward: times the slots after s
        rest[:, s] *= psi
        psi = psi * f[:, s]
    return psi, rest


class _Partition:
    """Product vectors over one partition, a row of factors per vector;
    ``tmpl`` holds, per slot and amplitude, the row entry that multiplies
    into it (-1 past the parts).  The oracle's einsum subscripts name
    subsystems, so no axis is ever transposed."""

    def __init__(self, dims, partition, slots):
        letters, batch = "abcdef"[:len(dims)], "z" if len(partition) > 1 else ""
        self.count, self.shapes = len(partition), [[dims[i] for i in part] for part in partition]
        self.sizes = [prod(shape) for shape in self.shapes]
        grid, offsets = np.indices(dims).reshape(len(dims), -1), np.cumsum([0] + self.sizes)
        self.width, self.tmpl = int(offsets[-1]), np.full((slots, prod(dims)), -1)
        for s, (part, shape) in enumerate(zip(partition, self.shapes)):
            self.tmpl[s] = offsets[s] + np.ravel_multi_index(tuple(grid[list(part)]), shape)
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


class _Products:
    """separable(k) and producible(k): sigma = sum_j psi_j psi_j^dagger / N,
    N = sum |psi_j|^2, each psi_j a tensor product of unnormalized factors
    over one partition of the family's pool.  The state is (z, layout): the rows of factors end to
    end in one complex vector z, and the partition of each row.  The
    oracle, alternating maximization over product vectors from a few seeded
    starts, is a heuristic: its gap only decides when to stop."""

    certified = False

    def __init__(self, family, witness=None, key=0):
        self.dims, self.d, self.layout = family.dims, family.d, None
        self.pool, self.rng = family.pool, np.random.default_rng([key, 1])
        self.parts = [_Partition(self.dims, p, max(map(len, self.pool))) for p in self.pool]
        if not witness:     # d random components per partition: sigma starts full rank
            layout = tuple(np.repeat(range(len(self.pool)), self.d).tolist())
            n = 2 * sum(self.parts[j].width for j in layout)
            self.start = np.random.default_rng([key, 0]).standard_normal(n).view(complex), layout
            return
        layout = tuple(encode(family, witness))
        z = [weight ** (0.5 / len(self.pool[j])) * _top_eigvec(_reduced(psi.amps, self.dims, part))
             for j, (weight, psi) in zip(layout, witness) for part in self.pool[j]]
        self.start = np.concatenate(z).astype(complex), layout

    def _table(self, layout):
        """Gather table (rows, slots, d) of the rows laid out as ``layout``."""
        widths = np.array([self.parts[j].width for j in layout])
        tmpl = np.array([self.parts[j].tmpl for j in layout])
        return np.where(tmpl < 0, widths.sum(), (np.cumsum(widths) - widths)[:, None, None] + tmpl)

    def map(self, x):
        """sigma, and its pullback (G, Tr(G sigma)) -> gradient on z: d f / d
        conj(psi_j) = (G - Tr(G sigma)) psi_j / N times each entry's cofactor."""
        z, layout = x
        if layout != self.layout:       # kept for the length of an L-BFGS run
            self.layout, self.idx = layout, self._table(layout)
            self.scatter = (2 * self.idx[..., None] + np.arange(2)).ravel()
        psi, rest = _gathered(z, self.idx)
        n = np.vdot(psi, psi).real

        def pullback(g, tr):
            dpsi = (2.0 / n) * (psi @ g.T - tr * psi)
            w = dpsi[:, None, :] * rest.conj()      # real, imaginary parts interleaved
            return np.bincount(self.scatter, w.view(float).ravel(),
                               2 * len(z) + 2)[:-2].view(complex)
        return psi.T @ psi.conj() / n, pullback

    def oracle(self, g, tr):
        """(largest <phi|G|phi> found over product phi, phi, where it goes); a
        sweep gaining under _ORACLE_SHARE of the gap over ``tr`` ends it too."""
        best, gt = (-np.inf, None, None), g.reshape(self.dims * 2)
        for j, p in enumerate(self.parts):
            phis = [self.rng.standard_normal((_ORACLE_STARTS, 2 * s)).view(complex)
                    for s in p.sizes]
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
                row = np.concatenate([phi[z] for phi in phis])
                best = (value[z], _gathered(row, self._table((j,)))[0][0], (j, row))
        return best

    def _weights(self, x):
        psi = _gathered(x[0], self._table(x[1]))[0]
        return np.sum(np.abs(psi) ** 2, axis=1), psi

    def add(self, x, t, where):
        """Scale sigma by 1 - t, add the atom's row at weight t, and prune rows
        below _DROP_WEIGHT."""
        (z, layout), (j, row) = x, where
        layout += (j,)
        counts, widths = np.array([(self.parts[i].count, self.parts[i].width) for i in layout]).T
        scale = np.append(np.full(len(x[1]), (1.0 - t) / self._weights(x)[0].sum()), t)
        z = np.append(z, row) * np.repeat(scale ** (0.5 / counts), widths)
        keep = self._weights((z, layout))[0] > _DROP_WEIGHT
        return z[np.repeat(keep, widths)], tuple(np.compress(keep, layout).tolist())

    def components(self, x):
        weights, psi = self._weights(x)
        total = weights.sum()
        return [WitnessComponent(float(w / total), pure_state(v / np.sqrt(w), self.dims))
                for w, v in zip(weights, psi) if w / total > _DROP_WEIGHT]


def _diagonal_components(q: np.ndarray, dims) -> list[WitnessComponent]:
    return [WitnessComponent(float(qi), basis_pure(dims, i))
            for i, qi in enumerate(q) if qi > 0.0]
