"""Certified upper bounds on the six restricted-set indicators.

Each indicator is 1 minus the maximal affinity between the input state and
a feasible family (or 1 minus that maximum raised to 1/alpha for the
"averaged" variants, which are the ones monotone on average under selective
operations).  Every reported affinity is attained by an explicit witness in
the family, so it certifies an upper bound on the indicator.  Every family
but multilevel(1) is solved on its convex hull by one solver
(:func:`_hull_max`): L-BFGS on the factors of the witness components, with
Frank-Wolfe steps that add the atom of a linear oracle.  Multilevel
(coherence) families have an exact oracle and so also carry a certified
upper bound on the affinity (``affinity_upper``); the correlation
families' product oracle is a heuristic, and their ``affinity_upper`` is
1.0.

At order k, coherence is scored against multilevel(k-1), nonseparability
against separable(k) and entanglement against producible(k-1) mixtures; one
table holds this for the solvers and for :func:`check_witness`.

Order-2 coherence (multilevel(1)) is its exact closed form on every path:
over diagonal states the optimum weights are proportional to the
(1/alpha)-th power of the diagonal of rho^alpha (a Lagrange/Hoelder
stationarity argument), giving max affinity (sum_i a_i^(1/alpha))^alpha,
and the optimal diagonal mixture is the witness.  No search runs there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .affinity import _check_alpha, alpha_affinity
from .errors import DimensionMismatch, KOutOfRange, WitnessEncodingError
from .feasible import (
    FeasibleFamily,
    WitnessComponent,
    _decode_raw,  # unused here; its last reader is perfbench/sweep.py
    _effective_support,
    _first_fit,
    _reduced,
    _top_eigvec,
    build_family,
    is_feasible_pure,
    structure_pool,
)
from .states import DensityMatrix, _frac_power_raw, _trusted, basis_pure, pure_state

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 2000
_WITNESS_TOL = 1e-9   # check_witness: mixture and affinity agreement
_GAP_STOP = 1e-10     # hull solve: duality gap that ends the search
_STALL = 1e-14        # hull solve: a Frank-Wolfe gain below this is roundoff
_EIG_FLOOR = 1e-12    # hull gradient: eigenvalue floor, relative to the largest
_FULL_RANK = 1e-8     # hull upper bound: smallest eigenvalue it needs, relative
_DROP_WEIGHT = 1e-15  # hull readout: components and pivots below this are roundoff
_ORACLE_STARTS = 4    # product oracle: seeded starts per partition
_ORACLE_SWEEPS = 50   # product oracle: most alternating sweeps per start
_ORACLE_TOL = 1e-12   # product oracle: a sweep gaining less, relative, ends it

LABELS = ("coherence", "coherence_avg",
          "nonseparability", "nonseparability_avg",
          "entanglement", "entanglement_avg")

# Indicator base -> (family kind, family order minus indicator order k).
_FAMILY_OF = {"coherence": ("multilevel", -1),
              "nonseparability": ("separable", 0),
              "entanglement": ("producible", -1)}


class Diagnostics(NamedTuple):
    restarts: int
    iterations: int
    spread: float


class MaxAffinityResult(NamedTuple):
    affinity: float
    witness: DensityMatrix
    components: tuple[WitnessComponent, ...]
    diagnostics: Diagnostics
    upper: float = 1.0    # certified bound on the maximum; 1.0 when none is known


def _seed_key(seed) -> int:
    """Canonical integer form of a seed (scalars pass through unchanged)."""
    if seed is None:
        raise ValueError("seed is required")
    if np.ndim(seed) == 0:
        return int(seed)
    return int(np.random.SeedSequence([int(s) for s in seed]).generate_state(1)[0])


def max_affinity(rho: DensityMatrix, family: FeasibleFamily, alpha: float, *,
                 seed, restarts: int = DEFAULT_RESTARTS,
                 max_iter: int = DEFAULT_MAX_ITER, witness=None) -> MaxAffinityResult:
    """Best affinity between rho and the family, with the witness attaining it.

    multilevel(1) is the closed form (:func:`_diagonal_max`).  Every other
    family is one monotone ascent on its convex hull (:func:`_hull_max`)
    from the ``witness`` (a list of (weight, pure state) pairs), or else
    from I/d (multilevel) or d random product states per partition of the
    pool (correlation kinds, drawn from ``seed``).  Only the multilevel
    ascent certifies ``upper``; it is 1.0 for the correlation kinds.
    ``restarts`` goes unused, and the family's slot count ``m`` too.
    ``max_iter=0`` scores the start.  A witness component that fits no
    structure of the pool raises WitnessEncodingError; negative effort
    raises ValueError.
    """
    alpha = _check_alpha(alpha)
    if restarts < 0 or max_iter < 0:
        raise ValueError(f"restarts and max_iter must be >= 0, got {restarts}, {max_iter}")
    if rho.d != family.d:
        raise DimensionMismatch(f"state dimension {rho.d} != family dimension {family.d}")
    rho_a = _frac_power_raw(rho.data, alpha)
    if family.kind == "multilevel" and family.k == 1:
        return _diagonal_max(rho, rho_a, alpha, witness)
    if family.kind == "multilevel":
        hull = _Blocks(rho.dims, family.k, witness)
    else:
        hull = _Products(family.kind, family.dims, family.k, witness, _seed_key(seed))
    return _hull_max(rho, rho_a, alpha, hull, max_iter)


# ---------------------------------------------------------------------------
# Every other family on its convex hull: one solver over two factor maps.
# ---------------------------------------------------------------------------

def _factor(x: np.ndarray) -> np.ndarray:
    """A square factor b of a PSD matrix, x = b b^dagger."""
    w, v = np.linalg.eigh(x)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _power_slopes(w: np.ndarray, beta: float) -> np.ndarray:
    """Divided differences (w_i^beta - w_j^beta) / (w_i - w_j) at positive w,
    written with expm1 so that nearly equal eigenvalues lose no digits."""
    lr = np.log(w)[:, None] - np.log(w)[None, :]
    safe = np.where(lr == 0.0, 1.0, lr)
    ratio = np.where(lr == 0.0, beta, np.expm1(beta * safe) / np.expm1(safe))
    return ratio * w[None, :] ** (beta - 1.0)


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


def _pack(xs):
    return np.concatenate([x.ravel() for x in xs]).view(float)


def _unpacker(xs):
    """The inverse of :func:`_pack` for complex arrays shaped like xs."""
    stops = np.cumsum([0] + [2 * x.size for x in xs])
    spans = [(lo, hi, x.shape) for lo, hi, x in zip(stops, stops[1:], xs)]

    def unpack(theta):
        theta = np.ascontiguousarray(theta)
        return [theta[lo:hi].view(complex).reshape(shape) for lo, hi, shape in spans]
    return unpack


class _Blocks:
    """multilevel(k): sigma = sum_S B_S B_S^dagger / N over the size-k
    supports S, N = sum |B_S|^2.  Its oracle, an eigh per block, is exact."""

    certified = True

    def __init__(self, dims, k, witness):
        self.dims, self.d = dims, prod(dims)
        self.pool = pool = np.array(structure_pool("multilevel", dims, k))
        self.rows, self.cols = pool[:, :, None], pool[:, None, :]
        self.flat = (self.rows * self.d + self.cols).ravel()
        if not witness:     # I/d, as the identity on every block: no zero block
            self.start = [np.tile(np.eye(k, dtype=complex), (len(pool), 1, 1))]
            return
        blocks = np.zeros((len(pool), k, k), dtype=complex)
        for weight, psi in witness:     # each component in the first support holding it
            if (j := _first_fit("multilevel", pool, psi)) is None:
                raise WitnessEncodingError(f"a witness component exceeds {k} levels")
            a = psi.amps[pool[j]]
            blocks[j] += weight * np.outer(a, a.conj())
        self.start = [np.array([_factor(x) for x in blocks])]

    def map(self, xs):
        """sigma, and its pullback (G, Tr(G sigma)) -> gradient on the factors."""
        b, d = xs[0], self.d
        x = (b @ b.conj().transpose(0, 2, 1)).ravel()
        m = np.bincount(self.flat, x.real, d * d) + 1j * np.bincount(self.flat, x.imag, d * d)
        return (m.reshape(d, d) / m[::d + 1].real.sum(),
                lambda g, tr: [2.0 * (g[self.rows, self.cols] @ b - tr * b) / np.vdot(b, b).real])

    def oracle(self, g):
        """(top eigenvalue, its atom as a vector, where it goes) over the blocks."""
        lam, vec = np.linalg.eigh(g[self.rows, self.cols])
        j = int(np.argmax(lam[:, -1]))
        atom = np.zeros(self.d, dtype=complex)
        atom[self.pool[j]] = vec[j, :, -1]
        return lam[j, -1], atom, (j, vec[j, :, -1])

    def add(self, xs, t, where):
        (j, top), b = where, np.sqrt(1.0 - t) * xs[0] / np.sqrt(np.vdot(xs[0], xs[0]).real)
        b[j] = _factor(b[j] @ b[j].conj().T + t * np.outer(top, top.conj()))
        return [b]

    def components(self, xs):
        """Pivoted-Cholesky columns of each block, basis atoms merged, listed
        by decreasing support size."""
        atoms, basis = [], np.zeros(self.d)
        for support, bs in zip(self.pool, xs[0] / np.sqrt(np.vdot(xs[0], xs[0]).real)):
            for c in _cholesky_columns(bs @ bs.conj().T):
                psi = pure_state(np.eye(self.d)[:, support] @ c, self.dims)
                level = _effective_support(psi)
                if len(level) == 1:
                    basis[level[0]] += np.vdot(c, c).real
                else:
                    atoms.append(WitnessComponent(np.vdot(c, c).real, psi))
        atoms.sort(key=lambda c: -len(_effective_support(c.state)))
        return atoms + _diagonal_components(basis, self.dims)


class _Partition:
    """Product vectors over one partition, a row of factors per vector; the
    einsum subscripts name subsystems, so no axis is ever transposed."""

    def __init__(self, dims, partition):
        letters, batch = "abcdef"[:len(dims)], "z" if len(partition) > 1 else ""
        self.dims, self.d, self.count = list(dims), prod(dims), len(partition)
        self.shapes = [[dims[i] for i in part] for part in partition]
        self.sizes = [prod(shape) for shape in self.shapes]
        stops = np.cumsum([0] + self.sizes)
        self.slices, self.width = [slice(*s) for s in zip(stops, stops[1:])], int(stops[-1])
        sub = ["z" + "".join(letters[i] for i in part) for part in partition]
        co = ["z" + s[1:].upper() for s in sub]
        self.build = ",".join(sub) + "->z" + letters
        self.pulls = [",".join(["z" + letters] + sub[:q] + sub[q + 1:]) + "->" + sub[q]
                      for q in range(self.count)]
        self.forms = [",".join([letters + letters.upper()] + sub[:q] + co[:q] + sub[q + 1:]
                               + co[q + 1:]) + "->" + batch + sub[q][1:] + co[q][1:]
                      for q in range(self.count)]

    def factors(self, x):
        return [x[:, s].reshape([len(x)] + shape) for s, shape in zip(self.slices, self.shapes)]

    def vectors(self, x):
        return np.einsum(self.build, *self.factors(x)).reshape(len(x), self.d)

    def pull(self, dpsi, x):
        """d f / d conj(psi) of each row, contracted onto each of its factors."""
        t, conj = dpsi.reshape([len(x)] + self.dims), self.factors(x.conj())
        return np.concatenate([np.einsum(sub, t, *conj[:q], *conj[q + 1:]).reshape(len(x), size)
                               for q, (sub, size) in enumerate(zip(self.pulls, self.sizes))], axis=1)

    def form(self, gt, phis, q):
        """<phi|G|phi> as a form on factor q, one matrix per start."""
        phis = [phi.reshape([len(phi)] + shape) for phi, shape in zip(phis, self.shapes)]
        return np.einsum(self.forms[q], gt, *[phi.conj() for phi in phis[:q]], *phis[:q],
                         *[phi.conj() for phi in phis[q + 1:]], *phis[q + 1:]
                         ).reshape(-1, self.sizes[q], self.sizes[q])


class _Products:
    """separable(k) and producible(k): sigma = sum_j psi_j psi_j^dagger / N,
    N = sum |psi_j|^2, each psi_j a tensor product of unnormalized factors
    over one partition of the pool.  The oracle, alternating maximization
    over product vectors from a few seeded starts, is a heuristic: its gap
    only decides when to stop."""

    certified = False

    def __init__(self, kind, dims, k, witness, key):
        self.dims, self.d = dims, prod(dims)
        self.pool = structure_pool(kind, dims, k)
        self.parts = [_Partition(dims, partition) for partition in self.pool]
        self.rng = np.random.default_rng([key, 1])
        if not witness:     # d random components per partition: sigma starts full rank
            rng = np.random.default_rng([key, 0])
            self.start = [rng.standard_normal((self.d, 2 * p.width)).view(complex)
                          for p in self.parts]
            return
        rows = [[] for _ in self.pool]
        for weight, psi in witness:     # each component in the first partition it refines
            if (j := _first_fit(kind, self.pool, psi)) is None:
                raise WitnessEncodingError(f"a witness component is outside {kind}({k})")
            rows[j].append(np.concatenate([weight ** (0.5 / len(self.pool[j]))
                                           * _top_eigvec(_reduced(psi.amps, dims, part))
                                           for part in self.pool[j]]))
        self.start = [np.array(r, dtype=complex).reshape(len(r), p.width)
                      for r, p in zip(rows, self.parts)]

    def map(self, xs):
        """sigma, and its pullback (G, Tr(G sigma)) -> gradient on the factors,
        from d f / d conj(psi_j) = (G - Tr(G sigma)) psi_j / N."""
        psi = np.concatenate([p.vectors(x) for p, x in zip(self.parts, xs)])
        n, stops = np.vdot(psi, psi).real, np.cumsum([0] + [len(x) for x in xs])

        def pullback(g, tr):
            dpsi = 2.0 * (psi @ g.T - tr * psi) / n
            return [p.pull(dpsi[a:b], x) for p, x, a, b in zip(self.parts, xs, stops, stops[1:])]
        return psi.T @ psi.conj() / n, pullback

    def oracle(self, g):
        """(largest <phi|G|phi> found over product phi, phi, where it goes)."""
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
                if p.count == 1 or gain.max() <= _ORACLE_TOL * np.abs(value).max():
                    break
            z = int(np.argmax(value))
            if value[z] > best[0]:
                row = np.concatenate([phi[z] for phi in phis])
                best = (value[z], p.vectors(row[None])[0], (j, row))
        return best

    def _weights(self, xs):
        return [np.sum(np.abs(p.vectors(x)) ** 2, axis=1) for p, x in zip(self.parts, xs)]

    def add(self, xs, t, where):
        """Scale sigma by 1 - t, add the atom's row at weight t, and prune rows
        below _DROP_WEIGHT."""
        (j, row), total = where, sum(w.sum() for w in self._weights(xs))
        xs = [x * ((1.0 - t) / total) ** (0.5 / p.count) for p, x in zip(self.parts, xs)]
        xs[j] = np.vstack([xs[j], t ** (0.5 / self.parts[j].count) * row])
        return [x[w > _DROP_WEIGHT] for x, w in zip(xs, self._weights(xs))]

    def components(self, xs):
        weights = self._weights(xs)
        total = sum(w.sum() for w in weights)
        return [WitnessComponent(float(w / total), pure_state(v / np.sqrt(w), self.dims))
                for p, x, ws in zip(self.parts, xs, weights)
                for w, v in zip(ws, p.vectors(x)) if w / total > _DROP_WEIGHT]


def _hull_max(rho, rho_a, alpha, hull, max_iter) -> MaxAffinityResult:
    """Maximize f(sigma) = Tr(rho^alpha sigma^beta), beta = 1 - alpha, over a
    family's convex hull, with L-BFGS on the factors that ``hull`` maps to
    sigma (Burer-Monteiro).  f is concave, so with G its gradient, gap =
    max over atoms of <atom|G|atom> - Tr(G sigma) bounds the distance to the
    maximum when the hull's oracle is exact.  Where L-BFGS stalls (a zero
    factor keeps a zero gradient, or too few components) a Frank-Wolfe step
    adds the oracle's atom."""
    beta = 1.0 - alpha

    def evaluate(s):
        """f, G (Daleckii-Krein, eigenvalues floored) and eig(sigma), one eigh."""
        w, v = np.linalg.eigh(s)
        r = v.conj().T @ rho_a @ v
        f = float(np.clip(w, 0.0, None) ** beta @ np.real(np.diag(r)))
        return f, v @ (_power_slopes(np.maximum(w, _EIG_FLOOR * w[-1]), beta) * r) @ v.conj().T, w

    def objective(theta):
        s, pullback = hull.map(unpack(theta))
        try:
            f, g, _ = evaluate(s)
        except np.linalg.LinAlgError:
            f = np.nan
        if not np.isfinite(f) or not np.isfinite(g).all():
            return np.inf, np.zeros_like(theta)       # a rejected step
        return -f, -_pack(pullback(g, np.real(np.sum(g * s.T))))

    def certify(x):
        """f, sigma, its eigenvalues, the gap and the oracle's atom."""
        f, g, w = evaluate(s := hull.map(x)[0])
        lam, atom, where = hull.oracle(g)
        return f, s, w, lam - np.real(np.sum(g * s.T)), atom, where

    x, iterations = hull.start, 0
    while True:
        if iterations < max_iter:
            unpack = _unpacker(x)
            res = minimize(objective, _pack(x), jac=True, method="L-BFGS-B",
                           options={"maxiter": max_iter - iterations, "ftol": 1e-15,
                                    "gtol": 1e-12})
            iterations += int(res.nit)
            x = unpack(res.x)
        f, s, w, gap, atom, where = certify(x)
        if gap <= _GAP_STOP or iterations >= max_iter:
            break
        # Frank-Wolfe step toward the atom; the line search runs over
        # log(step), so that steps of every scale are resolved alike
        iterations += 1
        atom = np.outer(atom, atom.conj())
        line = minimize_scalar(lambda u: -evaluate(s + np.exp(u) * (atom - s))[0],
                               bounds=(-28.0, 0.0), method="bounded",
                               options={"xatol": 1e-2})
        if -line.fun - f <= _STALL:
            break
        x = hull.add(x, float(np.exp(line.x)), where)

    if evaluate(hull.map(hull.start)[0])[0] > f:    # keep the better end: the solve is monotone
        x, (f, s, w, gap, _, _) = hull.start, certify(hull.start)

    comps = tuple(hull.components(x))
    member = _trusted(sum(c.weight * np.outer(c.state.amps, c.state.amps.conj())
                          for c in comps), hull.dims)
    affinity = alpha_affinity(rho, member, alpha)
    upper = min(1.0, f + gap) if hull.certified and w[0] >= _FULL_RANK * w[-1] else 1.0
    return MaxAffinityResult(affinity, member, comps, Diagnostics(1, iterations, 0.0),
                             max(upper, affinity))   # equal up to roundoff at worst


# ---------------------------------------------------------------------------
# Closed form for coherence order 2 (diagonal witnesses).
# ---------------------------------------------------------------------------

def _k2_weights(rho_a: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Optimal order-2 diagonal weights q and s = sum_i a_i^(1/alpha), with
    a_i the diagonal of rho^alpha (given as ``rho_a``): q_i = a_i^(1/alpha) / s."""
    a = np.clip(np.real(np.diag(rho_a)), 0.0, None)
    q = a ** (1.0 / alpha)
    s = float(q.sum())
    return q / s, s


def closed_form_k2(rho: DensityMatrix, alpha: float) -> tuple[float, float]:
    """Exact order-2 coherence indicator values (plain, averaged).

    With a_i the diagonal of rho^alpha, the optimal diagonal witness has
    weights proportional to a_i^(1/alpha), so the maximal affinity is
    (sum_i a_i^(1/alpha))^alpha.
    """
    alpha = _check_alpha(alpha)
    s = _k2_weights(_frac_power_raw(rho.data, alpha), alpha)[1]
    return 1.0 - s ** alpha, 1.0 - s


def _diagonal_max(rho, rho_a, alpha, witness) -> MaxAffinityResult:
    """The multilevel(1) maximum, the closed form, which needs no start: a
    ``witness`` is only checked; a component on two or more levels raises."""
    if not all(is_feasible_pure("multilevel", 1, psi) for _, psi in witness or ()):
        raise WitnessEncodingError("a witness component exceeds 1 level")
    q, s = _k2_weights(rho_a, alpha)
    affinity = s ** alpha
    return MaxAffinityResult(affinity, _trusted(np.diag(q), rho.dims),
                             tuple(_diagonal_components(q, rho.dims)),
                             Diagnostics(0, 0, 0.0), affinity)


def _diagonal_components(q: np.ndarray, dims) -> list[WitnessComponent]:
    return [WitnessComponent(float(qi), basis_pure(dims, i))
            for i, qi in enumerate(q) if qi > 0.0]


# ---------------------------------------------------------------------------
# The six indicators.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IndicatorResult:
    """A certified upper bound with the witness that achieves it."""

    label: str
    k: int
    alpha: float
    value: float
    best_affinity: float
    affinity_upper: float
    witness: DensityMatrix
    components: tuple[WitnessComponent, ...]
    seed: int
    restarts: int
    iterations: int
    spread: float


def _variant_value(affinity: float, alpha: float, variant: str) -> float:
    if variant == "plain":
        return 1.0 - affinity
    if variant == "avg":
        return 1.0 - affinity ** (1.0 / alpha)
    raise ValueError(f"variant must be 'plain' or 'avg', got {variant!r}")


def _result(label, k, alpha, variant, seed, res: MaxAffinityResult) -> IndicatorResult:
    return IndicatorResult(label=label if variant == "plain" else label + "_avg",
                           k=k, alpha=alpha,
                           value=_variant_value(res.affinity, alpha, variant),
                           best_affinity=res.affinity, affinity_upper=res.upper,
                           witness=res.witness, components=tuple(res.components),
                           seed=_seed_key(seed), **res.diagnostics._asdict())


def _searched(rho, base, k, alpha, variant, seed, opts) -> IndicatorResult:
    kind, shift = _FAMILY_OF[base]
    family = build_family(kind, rho.dims, k + shift)
    return _result(base, k, alpha, variant, seed,
                   max_affinity(rho, family, alpha, seed=seed, **opts))


def multilevel_coherence(rho: DensityMatrix, k: int, alpha: float,
                         variant: str = "plain", *, seed, **opts) -> IndicatorResult:
    """Order-k coherence indicator (support size < k witnesses), from
    :func:`max_affinity`: order 2 is the exact closed form, higher orders are
    solved on the convex hull; ``restarts`` goes unused.  ``affinity_upper``
    is certified (1.0 when the witness is too close to singular).  Negative
    effort raises ValueError."""
    if not 2 <= k <= rho.d:
        raise KOutOfRange(f"order must satisfy 2 <= k <= {rho.d}, got {k}")
    return _searched(rho, "coherence", k, alpha, variant, seed, opts)


def multipartite_correlation(rho: DensityMatrix, kind: str, k: int, alpha: float,
                             variant: str = "plain", *, seed, m=None,
                             **opts) -> IndicatorResult:
    """Upper bound on a correlation indicator.

    kind="nonseparability": distance-like indicator against k-separable
    mixtures (1 <= k <= number of subsystems).  kind="entanglement":
    indicator against (k-1)-producible mixtures (2 <= k <= n+1), nonzero
    only in the presence of k-partite entanglement.

    Solved on the family's convex hull (:func:`max_affinity`) from d seeded
    random product states per partition, or from the ``witness``.  The
    product oracle is a heuristic, so ``affinity_upper`` is 1.0.  The slot
    count ``m`` and ``restarts`` go unused, as for coherence; ``m`` is still
    accepted because perfbench/workloads.py, its last reader, passes it.
    """
    if kind not in ("nonseparability", "entanglement"):
        raise ValueError(f"kind must be 'nonseparability' or 'entanglement', got {kind!r}")
    n, shift = len(rho.dims), _FAMILY_OF[kind][1]
    if not 1 <= k + shift <= n:
        raise KOutOfRange(f"need {1 - shift} <= k <= {n - shift}, got {k}")
    return _searched(rho, kind, k, alpha, variant, seed, opts)


def compute_indicator(rho: DensityMatrix, label: str, k: int, alpha: float,
                      *, seed, m=None, **opts) -> IndicatorResult:
    """Dispatch by CSV label (one of the six indicator names).  The slot
    count ``m`` is accepted for the correlation labels and goes unused."""
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    base, _, suffix = label.partition("_")
    variant = "avg" if suffix == "avg" else "plain"
    if base == "coherence":
        return multilevel_coherence(rho, k, alpha, variant, seed=seed, **opts)
    return multipartite_correlation(rho, base, k, alpha, variant, seed=seed, m=m, **opts)


def indicator_suite(rho: DensityMatrix, alphas, specs, *, seed, **opts):
    """Batch driver: one result per (label, k) x alpha, deterministic per seed."""
    out = []
    for label, k in specs:
        for alpha in alphas:
            out.append(compute_indicator(rho, label, int(k), float(alpha),
                                         seed=seed, **opts))
    return out


def results_to_csv(results) -> str:
    lines = ["label,k,alpha,value,best_affinity,restarts,spread,seed"]
    for r in results:
        lines.append(f"{r.label},{r.k},{float(r.alpha)!r},{r.value!r},"
                     f"{r.best_affinity!r},{r.restarts},{r.spread!r},{r.seed}")
    return "\n".join(lines) + "\n"


def results_to_json(results) -> str:
    from .states import state_to_json
    rows = []
    for r in results:
        rows.append({"label": r.label, "k": r.k, "alpha": float(r.alpha),
                     "value": r.value, "best_affinity": r.best_affinity,
                     "affinity_upper": r.affinity_upper,
                     "restarts": r.restarts, "iterations": r.iterations,
                     "spread": r.spread, "seed": r.seed,
                     "witness": json.loads(state_to_json(r.witness))})
    return json.dumps({"results": rows})


def _scored(rho, kind, k, comps, alpha):
    """Affinity of rho with the normalized mixture of ``comps``; a component
    outside the family (:func:`is_feasible_pure`) raises WitnessEncodingError."""
    if not all(is_feasible_pure(kind, k, psi) for _, psi in comps):
        raise WitnessEncodingError(f"a transported component is outside {kind}({k})")
    total = sum(w for w, _ in comps)
    mixture = sum(w / total * np.outer(psi.amps, psi.amps.conj()) for w, psi in comps)
    return alpha_affinity(rho, _trusted(mixture, rho.dims), alpha)


def check_witness(result: IndicatorResult, rho: DensityMatrix) -> bool:
    """Revalidate a result: every component, however light, passes
    :func:`is_feasible_pure` (the rule the hull solver places by), the witness
    equals the component mixture and the affinity recomputes, both within 1e-9."""
    kind, shift = _FAMILY_OF[result.label.removesuffix("_avg")]
    if not all(is_feasible_pure(kind, result.k + shift, c.state) for c in result.components):
        return False
    mixture = sum(c.weight * np.outer(c.state.amps, c.state.amps.conj())
                  for c in result.components)
    if np.abs(mixture - result.witness.data).max() > _WITNESS_TOL:
        return False
    return abs(alpha_affinity(rho, result.witness, result.alpha)
               - result.best_affinity) <= _WITNESS_TOL
