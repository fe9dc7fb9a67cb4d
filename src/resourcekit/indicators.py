"""Certified upper bounds on the six restricted-set indicators.

Each indicator is 1 minus the maximal affinity between the input state and
a feasible family (or 1 minus that maximum raised to 1/alpha for the
"averaged" variants, which are the ones monotone on average under selective
operations).  Every reported affinity is attained by an explicit witness in
the family, so it certifies an upper bound on the indicator.  Multilevel
(coherence) maxima are solved on the convex hull of the family and also
carry a certified upper bound on the affinity (``affinity_upper``); the
correlation families run multi-start Nelder-Mead over the family's
parameter vector, with the decoded mixture as the witness.

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
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .affinity import _check_alpha, alpha_affinity
from .errors import DimensionMismatch, KOutOfRange, WitnessEncodingError
from .feasible import (
    FeasibleFamily,
    WitnessComponent,
    _decode_raw,
    _effective_support,
    build_family,
    decode,
    decode_mixture,
    encode,
    is_feasible_pure,
    structure_pool,
)
from .states import DensityMatrix, _frac_power_raw, _trusted, basis_pure, pure_state

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 2000
_SIMPLEX_TOL = 1e-10  # Nelder-Mead xatol and fatol
_WITNESS_TOL = 1e-9   # check_witness: mixture and affinity agreement
_GAP_STOP = 1e-10     # hull solve: duality gap that ends the search
_STALL = 1e-14        # hull solve: a Frank-Wolfe gain below this is roundoff
_EIG_FLOOR = 1e-12    # hull gradient: eigenvalue floor, relative to the largest
_FULL_RANK = 1e-8     # hull upper bound: smallest eigenvalue it needs, relative
_DROP_WEIGHT = 1e-15  # hull readout: Cholesky pivots below this are roundoff

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

    Multilevel families: the closed form at k=1 (:func:`_diagonal_max`),
    else one monotone ascent on the convex hull from the ``witness`` (a list
    of (weight, pure state) pairs) or I/d; both certify ``upper``.
    Correlation families: Nelder-Mead from the encoded ``witness`` and
    ``restarts`` random vectors; start r depends only on (_seed_key(seed),
    r), and ties resolve to the lowest start, so the best value is
    deterministic per seed and monotone in ``restarts``.  ``max_iter=0``
    evaluates the starts.  A component that fits no (free) slot raises
    WitnessEncodingError; negative effort raises ValueError.
    """
    alpha = _check_alpha(alpha)
    if restarts < 0 or max_iter < 0:
        raise ValueError(f"restarts and max_iter must be >= 0, got {restarts}, {max_iter}")
    if rho.d != family.d:
        raise DimensionMismatch(f"state dimension {rho.d} != family dimension {family.d}")
    key = _seed_key(seed)
    rho_a = _frac_power_raw(rho.data, alpha)
    one_minus = 1.0 - alpha
    if family.kind == "multilevel" and family.k == 1:
        return _diagonal_max(rho, rho_a, alpha, witness)
    if family.kind == "multilevel":
        return _hull_max(rho, rho_a, alpha, family.k, witness, max_iter)

    def objective(theta):
        s_pow = _frac_power_raw(_decode_raw(family, theta), one_minus)
        return -float(np.real(np.sum(rho_a * s_pow.T)))

    starts = [] if witness is None else [encode(family, witness)]
    for r in range(restarts):
        rng = np.random.default_rng([key, r])
        starts.append(rng.standard_normal(family.param_len))
    if not starts:
        raise ValueError("need restarts > 0 or a witness")

    def run(theta0):
        if max_iter == 0:
            return objective(theta0), 0, theta0
        res = minimize(objective, theta0, method="Nelder-Mead",
                       options={"maxiter": max_iter, "maxfev": 8 * max_iter,
                                "xatol": _SIMPLEX_TOL, "fatol": _SIMPLEX_TOL,
                                "adaptive": True})
        return float(res.fun), int(res.nit), res.x

    outcomes = [run(t) for t in starts]

    funs = np.array([o[0] for o in outcomes])
    best = int(np.argmin(funs))
    best_aff = min(max(-funs[best], 0.0), 1.0)
    theta = np.asarray(outcomes[best][2], dtype=float)
    member = decode(family, theta)
    components = tuple(decode_mixture(family, theta))
    recomputed = alpha_affinity(rho, member, alpha)
    if abs(recomputed - best_aff) > 1e-9:
        raise ArithmeticError(
            f"witness affinity {recomputed} drifted from optimum {best_aff}")
    diag = Diagnostics(len(starts), sum(o[1] for o in outcomes),
                       float((-funs).max() - (-funs).min()))
    return MaxAffinityResult(float(best_aff), member, components, diag)


# ---------------------------------------------------------------------------
# Multilevel families on the convex hull.
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


def _hull_max(rho, rho_a, alpha, k, witness, max_iter) -> MaxAffinityResult:
    """Maximize f(sigma) = Tr(rho^alpha sigma^beta), beta = 1 - alpha, over
    multilevel(k): sigma = sum_S B_S B_S^dagger / N on the size-k supports S,
    N = sum |B_S|^2, with L-BFGS on the factors B_S.  f is concave and its
    linear maximum is exact, so gap = max_S lambda_max(G_SS) - Tr(G sigma),
    G the gradient, bounds the distance to the maximum.  Where L-BFGS stalls
    (a zero block keeps a zero gradient) a Frank-Wolfe step follows."""
    dims, d, beta = rho.dims, rho.d, 1.0 - alpha
    pool = np.array(structure_pool("multilevel", dims, k))
    rows, cols = pool[:, :, None], pool[:, None, :]
    flat = (rows * d + cols).ravel()
    shape = (len(pool), k, k)

    if not witness:         # I/d, as the identity on every block: no zero block
        start = np.tile(np.eye(k, dtype=complex), (len(pool), 1, 1))
    else:                   # each component in the first support holding it
        blocks = np.zeros(shape, dtype=complex)
        for weight, psi in witness:
            support = set(_effective_support(psi))
            j = next((j for j, s in enumerate(pool) if support <= set(s)), None)
            if j is None:
                raise WitnessEncodingError(f"support {sorted(support)} exceeds {k} levels")
            a = psi.amps[pool[j]]
            blocks[j] += weight * np.outer(a, a.conj())
        start = np.array([_factor(x) for x in blocks])

    def sigma(b):
        x = (b @ b.conj().transpose(0, 2, 1)).ravel()
        m = np.bincount(flat, x.real, d * d) + 1j * np.bincount(flat, x.imag, d * d)
        return m.reshape(d, d) / m[::d + 1].real.sum()

    def evaluate(s):
        """f, G (Daleckii-Krein, eigenvalues floored) and eig(sigma), one eigh."""
        w, v = np.linalg.eigh(s)
        r = v.conj().T @ rho_a @ v
        f = float(np.clip(w, 0.0, None) ** beta @ np.real(np.diag(r)))
        return f, v @ (_power_slopes(np.maximum(w, _EIG_FLOOR * w[-1]), beta) * r) @ v.conj().T, w

    def objective(theta):
        b = np.ascontiguousarray(theta).view(complex).reshape(shape)
        s = sigma(b)
        try:
            f, g, _ = evaluate(s)
        except np.linalg.LinAlgError:
            f = np.nan
        if not np.isfinite(f) or not np.isfinite(g).all():
            return np.inf, np.zeros_like(theta)       # a rejected step
        grad = 2.0 * (g[rows, cols] @ b - np.real(np.sum(g * s.T)) * b) / np.vdot(b, b).real
        return -f, -grad.view(float).ravel()

    def certify(b):
        """f, sigma, its eigenvalues, the gap and the top atom (block, vector)."""
        f, g, w = evaluate(s := sigma(b))
        lam, vec = np.linalg.eigh(g[rows, cols])
        j = int(np.argmax(lam[:, -1]))
        return f, s, w, lam[j, -1] - np.real(np.sum(g * s.T)), j, vec[j, :, -1]

    b, iterations = start, 0
    while True:
        if iterations < max_iter:
            res = minimize(objective, b.view(float).ravel(), jac=True, method="L-BFGS-B",
                           options={"maxiter": max_iter - iterations, "ftol": 1e-15,
                                    "gtol": 1e-12})
            iterations += int(res.nit)
            b = np.ascontiguousarray(res.x).view(complex).reshape(shape)
        f, s, w, gap, j, top = certify(b)
        if gap <= _GAP_STOP or iterations >= max_iter:
            break
        # Frank-Wolfe step toward the top atom; the line search runs over
        # log(step), so that steps of every scale are resolved alike
        iterations += 1
        atom = np.zeros((d, d), dtype=complex)
        atom[np.ix_(pool[j], pool[j])] = np.outer(top, top.conj())
        line = minimize_scalar(lambda u: -evaluate(s + np.exp(u) * (atom - s))[0],
                               bounds=(-28.0, 0.0), method="bounded",
                               options={"xatol": 1e-2})
        if -line.fun - f <= _STALL:
            break
        t = float(np.exp(line.x))
        b = np.sqrt(1.0 - t) * b / np.sqrt(np.vdot(b, b).real)
        b[j] = _factor(b[j] @ b[j].conj().T + t * np.outer(top, top.conj()))

    if certify(start)[0] > f:     # keep the better end: the solve is monotone
        b, (f, s, w, gap, _, _) = start, certify(start)

    # witness: pivoted-Cholesky columns of each block, basis atoms merged,
    # listed by decreasing support size
    atoms, basis = [], np.zeros(d)
    for support, bs in zip(pool, b / np.sqrt(np.vdot(b, b).real)):
        for c in _cholesky_columns(bs @ bs.conj().T):
            psi = pure_state(np.eye(d)[:, support] @ c, dims)
            level = _effective_support(psi)
            if len(level) == 1:
                basis[level[0]] += np.vdot(c, c).real
            else:
                atoms.append(WitnessComponent(np.vdot(c, c).real, psi))
    atoms.sort(key=lambda c: -len(_effective_support(c.state)))
    comps = tuple(atoms + _diagonal_components(basis, dims))
    member = _trusted(sum(c.weight * np.outer(c.state.amps, c.state.amps.conj())
                          for c in comps), dims)
    affinity = alpha_affinity(rho, member, alpha)
    upper = min(1.0, f + gap) if w[0] >= _FULL_RANK * w[-1] else 1.0
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


def _searched(rho, base, k, alpha, variant, seed, opts, m=None) -> IndicatorResult:
    kind, shift = _FAMILY_OF[base]
    family = build_family(kind, rho.dims, k + shift, m=m)
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
    """
    if kind not in ("nonseparability", "entanglement"):
        raise ValueError(f"kind must be 'nonseparability' or 'entanglement', got {kind!r}")
    n, shift = len(rho.dims), _FAMILY_OF[kind][1]
    if not 1 <= k + shift <= n:
        raise KOutOfRange(f"need {1 - shift} <= k <= {n - shift}, got {k}")
    return _searched(rho, kind, k, alpha, variant, seed, opts, m)


def compute_indicator(rho: DensityMatrix, label: str, k: int, alpha: float,
                      *, seed, m=None, **opts) -> IndicatorResult:
    """Dispatch by CSV label (one of the six indicator names).  The slot
    count ``m`` reaches only the correlation families."""
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
    :func:`is_feasible_pure` (the rule :func:`encode` places by), the witness
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
