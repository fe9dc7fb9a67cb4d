"""Certified upper bounds on the six restricted-set indicators.

Each indicator is 1 minus the maximal affinity between the input state and
a feasible family (or 1 minus that maximum raised to 1/alpha for the
"averaged" variants, which are the ones monotone on average under selective
operations).  The inner maximization runs multi-start Nelder-Mead over the
family's parameter vector; because every decoded point is a family member,
any optimizer output certifies an upper bound on the indicator, with the
decoded mixture as the witness.

At order k, coherence is scored against multilevel(k-1), nonseparability
against separable(k) and entanglement against producible(k-1) mixtures; one
table holds this for the solvers and for :func:`check_witness`.

Order k=2 of the coherence indicators is solved by its exact closed form
alone: over diagonal states the optimum weights are proportional to the
(1/alpha)-th power of the diagonal of rho^alpha (a Lagrange/Hoelder
stationarity argument), giving max affinity (sum_i a_i^(1/alpha))^alpha,
and the optimal diagonal mixture is the witness.  No search runs there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .affinity import _check_alpha, alpha_affinity
from .errors import DimensionMismatch, KOutOfRange
from .feasible import (
    FeasibleFamily,
    WitnessComponent,
    _decode_raw,
    build_family,
    decode,
    decode_mixture,
    encode,
    is_feasible_pure,
)
from .states import DensityMatrix, _frac_power_raw, _trusted, basis_pure

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 2000
_SIMPLEX_TOL = 1e-10  # Nelder-Mead xatol and fatol

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


def _as_components(witness):
    """Normalize an initial witness to a list of weighted pure components."""
    out = []
    for item in witness:
        if isinstance(item, WitnessComponent):
            out.append(item)
        else:
            w, psi = item[0], item[1]
            structure = item[2] if len(item) > 2 else None
            out.append(WitnessComponent(float(w), psi, structure))
    return out


def max_affinity(rho: DensityMatrix, family: FeasibleFamily, alpha: float, *,
                 seed, restarts: int = DEFAULT_RESTARTS,
                 max_iter: int = DEFAULT_MAX_ITER, init_witnesses=()) -> MaxAffinityResult:
    """Best affinity between rho and the family found by multi-start search.

    Starting points are the encoded initial witnesses followed by seeded
    random vectors; random start r depends only on (seed, r), so enlarging
    ``restarts`` never discards earlier starts and the best value is
    monotone in search effort.  ``max_iter=0`` evaluates the starts without
    local polishing.  Starts run one after another and ties resolve to the
    lowest start index, making the result deterministic per seed.  An
    initial witness that fits no free family slot raises
    WitnessEncodingError (see :func:`encode`).
    """
    alpha = _check_alpha(alpha)
    if rho.d != family.d:
        raise DimensionMismatch(f"state dimension {rho.d} != family dimension {family.d}")
    if seed is None:
        raise ValueError("seed is required")
    rho_a = _frac_power_raw(rho.data, alpha)
    one_minus = 1.0 - alpha

    def objective(theta):
        s_pow = _frac_power_raw(_decode_raw(family, theta), one_minus)
        return -float(np.real(np.sum(rho_a * s_pow.T)))

    seed_words = [int(s) for s in seed] if np.ndim(seed) else [int(seed)]
    starts = [encode(family, _as_components(w)) for w in init_witnesses]
    for r in range(restarts):
        rng = np.random.default_rng(seed_words + [r])
        starts.append(rng.standard_normal(family.param_len))
    if not starts:
        raise ValueError("need restarts > 0 or at least one initial witness")

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
    witness = decode(family, theta)
    components = tuple(decode_mixture(family, theta))
    recomputed = alpha_affinity(rho, witness, alpha)
    if abs(recomputed - best_aff) > 1e-9:
        raise ArithmeticError(
            f"witness affinity {recomputed} drifted from optimum {best_aff}")
    diag = Diagnostics(len(starts), sum(o[1] for o in outcomes),
                       float((-funs).max() - (-funs).min()))
    return MaxAffinityResult(float(best_aff), witness, components, diag)


# ---------------------------------------------------------------------------
# Closed form for coherence order 2 (diagonal witnesses).
# ---------------------------------------------------------------------------

def _k2_weights(rho: DensityMatrix, alpha: float) -> tuple[np.ndarray, float]:
    """Optimal order-2 diagonal weights q and s = sum_i a_i^(1/alpha), with
    a_i the diagonal of rho^alpha: q_i = a_i^(1/alpha) / s."""
    a = np.clip(np.real(np.diag(_frac_power_raw(rho.data, alpha))), 0.0, None)
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
    s = _k2_weights(rho, alpha)[1]
    return 1.0 - s ** alpha, 1.0 - s


def closed_form_witness(rho: DensityMatrix, alpha: float) -> list[WitnessComponent]:
    """The optimal diagonal mixture behind :func:`closed_form_k2`."""
    q = _k2_weights(rho, _check_alpha(alpha))[0]
    return [WitnessComponent(float(qi), basis_pure(rho.dims, i), (i,))
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


def _seed_key(seed) -> int:
    """Canonical integer form of a seed (scalars pass through unchanged)."""
    if seed is None:
        raise ValueError("seed is required")
    if np.ndim(seed) == 0:
        return int(seed)
    return int(np.random.SeedSequence([int(s) for s in seed]).generate_state(1)[0])


def _result(label, k, alpha, variant, seed, affinity, witness, components,
            diag: Diagnostics) -> IndicatorResult:
    return IndicatorResult(label=label if variant == "plain" else label + "_avg",
                           k=k, alpha=alpha,
                           value=_variant_value(affinity, alpha, variant),
                           best_affinity=affinity, witness=witness,
                           components=tuple(components), seed=_seed_key(seed),
                           restarts=diag.restarts, iterations=diag.iterations,
                           spread=diag.spread)


def _searched(rho, base, k, alpha, variant, seed, m, opts) -> IndicatorResult:
    kind, shift = _FAMILY_OF[base]
    family = build_family(kind, rho.dims, k + shift, m=m)
    res = max_affinity(rho, family, alpha, seed=seed, **opts)
    return _result(base, k, alpha, variant, seed, res.affinity, res.witness,
                   res.components, res.diagnostics)


def multilevel_coherence(rho: DensityMatrix, k: int, alpha: float,
                         variant: str = "plain", *, seed, m=None,
                         **opts) -> IndicatorResult:
    """Upper bound on the order-k coherence indicator (support size < k
    witnesses).  Order 2 is exact: the closed-form affinity with the
    closed-form witness, found without search, so ``m`` and the optimizer
    options go unused there."""
    if not 2 <= k <= rho.d:
        raise KOutOfRange(f"order must satisfy 2 <= k <= {rho.d}, got {k}")
    if k == 2:
        q, s = _k2_weights(rho, _check_alpha(alpha))
        return _result("coherence", k, alpha, variant, seed, s ** float(alpha),
                       _trusted(np.diag(q), rho.dims),
                       closed_form_witness(rho, alpha), Diagnostics(0, 0, 0.0))
    return _searched(rho, "coherence", k, alpha, variant, seed, m, opts)


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
    return _searched(rho, kind, k, alpha, variant, seed, m, opts)


def compute_indicator(rho: DensityMatrix, label: str, k: int, alpha: float,
                      *, seed, **opts) -> IndicatorResult:
    """Dispatch by CSV label (one of the six indicator names)."""
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    base, _, suffix = label.partition("_")
    variant = "avg" if suffix == "avg" else "plain"
    if base == "coherence":
        return multilevel_coherence(rho, k, alpha, variant, seed=seed, **opts)
    return multipartite_correlation(rho, base, k, alpha, variant, seed=seed, **opts)


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
                     "restarts": r.restarts, "iterations": r.iterations,
                     "spread": r.spread, "seed": r.seed,
                     "witness": json.loads(state_to_json(r.witness))})
    return json.dumps({"results": rows})


def check_witness(result: IndicatorResult, rho: DensityMatrix, tol: float = 1e-9) -> bool:
    """Revalidate a result: witness membership plus affinity recomputation."""
    kind, shift = _FAMILY_OF[result.label.removesuffix("_avg")]
    for comp in result.components:
        if comp.weight > 1e-9 and not is_feasible_pure(kind, result.k + shift, comp.state):
            return False
    return abs(alpha_affinity(rho, result.witness, result.alpha)
               - result.best_affinity) <= tol
