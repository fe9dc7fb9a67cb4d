"""Certified upper bounds on the six restricted-set indicators.

Each indicator is 1 minus the maximal affinity between the input state and
a feasible family (or 1 minus that maximum raised to 1/alpha for the
"averaged" variants, which are the ones monotone on average under selective
operations).  Every reported affinity is attained by an explicit witness in
the family, so it certifies an upper bound on the indicator.  Every family
but multilevel(1) is solved on its convex hull by one solver
(:func:`_hull_max`): L-BFGS on the family's factor layout (``feasible``),
one flat complex vector of the witness components' factors, with
Frank-Wolfe steps that add the atom of the layout's linear oracle at the
best node of a log-step grid (at least 1/e of the best step's gain).
Multilevel (coherence) families have an exact oracle and so also carry a
certified upper bound (``affinity_upper``); the correlation families'
product oracle is a heuristic, and their ``affinity_upper`` is 1.0.  The
affinity is at most 1 (Hoelder), so a solve within 1e-12 of 1 is done
whatever its oracle: it ends there without asking it, and a coherence
member's ``affinity_upper`` is 1.0, which is tight.  At the iteration cap
only a certified hull asks the oracle.

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

import importlib.machinery
import importlib.util
import json
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .affinity import _check_alpha, _clamped, _trace_product, alpha_affinity
from .errors import BadWeights, DimensionMismatch, KOutOfRange, WitnessEncodingError
from .feasible import (
    FeasibleFamily,
    WitnessComponent,
    _all_feasible,
    _decode_raw,  # unused here; its last reader is perfbench/sweep.py
    _diagonal_components,
    _eigh,
    _mixture,
    _Products,
    _Supports,
    build_family,
    encode,
)
from .states import (
    DensityMatrix,
    _count,
    _flushed,
    _frac_power_raw,  # unused here; its last reader is perfbench/sweep.py
    _power,
    _spectra,
    _trusted,
    frac_power,
)

DEFAULT_MAX_ITER = 2000
_WITNESS_TOL = 1e-9   # check_witness: mixture and affinity agreement
_GAP_STOP = 1e-10     # hull solve: duality gap that ends the search
_MEMBER = 1.0 - 1e-12  # hull solve: an f that ends it (f <= 1: its gap is at most 1 - f)
_STALL = 1e-14        # hull solve: a Frank-Wolfe gain below this is roundoff
_EIG_FLOOR = 1e-12    # hull gradient: eigenvalue floor, relative to the largest
_FULL_RANK = 1e-8     # hull upper bound: smallest eigenvalue it needs, relative
_STEPS = np.arange(-28.0, 1.0)   # Frank-Wolfe line search: log-steps u, step e^u
_LBFGS_M = 10         # L-BFGS-B: stored correction pairs
_LBFGS_MAXLS = 20     # L-BFGS-B: line-search steps per iteration
_LBFGS_FACTR = 1e-15 / np.finfo(float).eps   # L-BFGS-B: relative reduction 1e-15
_LBFGS_PGTOL = 1e-12  # L-BFGS-B: largest gradient entry that ends the run

LABELS = ("coherence", "coherence_avg",
          "nonseparability", "nonseparability_avg",
          "entanglement", "entanglement_avg")

# Indicator base -> (family kind, family order minus indicator order k).
_FAMILY_OF = {"coherence": ("multilevel", -1),
              "nonseparability": ("separable", 0),
              "entanglement": ("producible", -1)}


def _load_setulb():
    """L-BFGS-B's compiled core ``setulb`` from scipy's ``_lbfgsb`` extension,
    loaded by file: importing the ``scipy.optimize`` package costs most of a
    cold start, and the solver runs nothing else of it.  The extension
    enters itself in sys.modules; that parentless entry is dropped so that a
    later ``import scipy.optimize`` loads and binds its own module (whose
    ``setulb`` is this same function object).  Once scipy.optimize is
    loaded, its module is used as it is."""
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name].setulb
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.FileFinder(
        os.path.join(scipy_dir, "optimize"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    ).find_spec(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module.setulb


setulb = _load_setulb()


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported when called.  No solve calls it;
    perfbench/tracing.py, its last reader, wraps this name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


class MaxAffinityResult(NamedTuple):
    affinity: float
    witness: DensityMatrix
    components: tuple[WitnessComponent, ...]
    iterations: int
    upper: float = 1.0    # certified bound on the maximum; 1.0 when none is known


def _seed_key(seed) -> int:
    """Canonical integer form of a seed, an integer or a sequence of them
    (folded by SeedSequence), each read by :func:`_count` (ValueError)."""
    if np.ndim(seed) == 0:
        return _count(seed, "seed")
    return int(np.random.SeedSequence([_count(s, "seed") for s in seed]).generate_state(1)[0])


def max_affinity(rho: DensityMatrix, family: FeasibleFamily, alpha: float, *,
                 seed, max_iter: int = DEFAULT_MAX_ITER, witness=None) -> MaxAffinityResult:
    """Best affinity between rho and the family, with the witness attaining it.

    multilevel(1) is the closed form (:func:`_diagonal_max`).  Every other
    family is one monotone ascent on its convex hull (:func:`_hull_max`)
    from the ``witness`` (a list of (weight, pure state) pairs), or else
    from I/d (multilevel) or d random product states per partition of the
    pool (correlation kinds, drawn from ``seed``).  Only the multilevel
    ascent certifies ``upper``; it is 1.0 for the correlation kinds.
    ``max_iter`` caps the ascent's iterations, and ``max_iter=0`` scores the
    start.  Witness weights must be finite and >= 0 with a positive total
    (BadWeights); a witness component that fits no structure of the pool
    raises WitnessEncodingError, and one on other dims than the family's
    DimensionMismatch (:func:`encode`); a ``max_iter`` or ``seed`` that is
    negative or not an integer (a bool, a fraction) raises ValueError.
    """
    alpha = _check_alpha(alpha)
    max_iter = _count(max_iter, "max_iter")
    seed = _seed_key(seed)
    if witness:
        weights = np.array([w for w, _ in witness], dtype=float)
        if not (np.isfinite(weights).all() and (weights >= 0.0).all() and weights.sum() > 0.0):
            raise BadWeights("witness weights must be finite and >= 0 with a positive total")
    if rho.d != family.d:
        raise DimensionMismatch(f"state dimension {rho.d} != family dimension {family.d}")
    rho_a = frac_power(rho, alpha)
    if family.kind == "multilevel" and family.k == 1:
        return _diagonal_max(rho, rho_a, alpha, family, witness)
    if family.kind == "multilevel":
        hull = _Supports(family, witness)
    else:
        hull = _Products(family, witness, seed)
    return _hull_max(rho, rho_a, alpha, hull, max_iter)


# ---------------------------------------------------------------------------
# Every other family on its convex hull: one solver over two factor maps.
# ---------------------------------------------------------------------------

def _power_slopes(w: np.ndarray, beta: float) -> np.ndarray:
    """Divided differences (w_i^beta - w_j^beta) / (w_i - w_j) at positive w,
    written with expm1 so that nearly equal eigenvalues lose no digits."""
    lw = np.log(w)
    lr = lw[:, None] - lw
    same = lr == 0.0
    lr[same] = 1.0
    ratio = np.expm1(beta * lr)
    ratio /= np.expm1(lr)
    ratio[same] = beta
    ratio *= w ** (beta - 1.0)
    return ratio


def _evaluate(s, rho_a, beta):
    """f(sigma) = Tr(rho_a sigma^beta) (eigenvalues flushed, as for every
    power: :func:`_flushed`), its gradient G (Daleckii-Krein, eigenvalues
    floored), Tr(G sigma) and eig(sigma), from one eigh (:func:`_eigh`);
    LinAlgError where it does not converge.
    Tr(G sigma) is the sum of G * sigma^T in memory order: its roundoff
    steers every L-BFGS path, so another order (np.vdot) moves each
    solve's last digits and its certified width."""
    w, v = _eigh(s)
    if w[0] != w[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    vh = v.conj().T
    r = vh @ rho_a @ v
    f = float(_flushed(w) ** beta @ r.diagonal().real)
    g = v @ (_power_slopes(np.maximum(w, _EIG_FLOOR * w[-1]), beta) * r) @ vh
    return f, g, float((g * s.T).sum().real), w


def _value(s, rho_a, beta):
    """f alone, for one sigma or a stack of them, from one (stacked) _eigh."""
    w, v = _eigh(s)
    r = np.einsum("...ji,...ji->...i", v.conj(), rho_a @ v).real
    return (_flushed(w) ** beta * r).sum(-1)


def _line_search(s, atom, f, rho_a, beta):
    """Frank-Wolfe step t from sigma toward the atom's projector A, and its
    gain phi(t) - f, where phi(t) = f(sigma + t (A - sigma)): the best of
    the log-steps u in _STEPS (t = e^u), scored by one stacked eigh.

    phi is concave, so for the best step t* in [e^-28, 1] and the largest
    grid step e^j <= t*, phi(e^j) - f >= (phi(t*) - f) / e: the step gains
    at least 1/e of the best gain, which keeps Frank-Wolfe's rate up to
    that factor (Jaggi 2013), and a best node gaining at most _STALL
    leaves no step in [e^-28, 1] gaining more than e * _STALL."""
    phi = _value(s + np.exp(_STEPS)[:, None, None] * (atom - s), rho_a, beta)
    b = int(np.argmax(phi))
    return float(np.exp(_STEPS[b])), float(phi[b]) - f


def _lbfgs(fun, x, maxiter):
    """Minimize ``fun(x) -> (f, gradient)`` from x by unbounded L-BFGS-B
    (Byrd, Lu, Nocedal & Zhu 1995), run by scipy's compiled core ``setulb``
    (:func:`_load_setulb`) in the reverse-communication loop of scipy's
    ``minimize``: the same iterates and evaluations, without that wrapper's
    per-evaluation layers.  Task 3 asks for f and the gradient at x (a step
    too small to move x reuses the last ones); task 1 reports a new
    iterate, which decreases f, and a failed line search restores the last
    one, so x never ends worse than it began.  The run stops at ``maxiter``
    iterates (a line search takes at most _LBFGS_MAXLS evaluations), at the
    first iterate with f <= -_MEMBER (``fun`` is minus an affinity, at most
    1), or when setulb converges or gives up.  ``fun`` must not keep x,
    which setulb overwrites.  Returns (x, iterations)."""
    x = np.array(x, dtype=float)
    n, m = x.size, _LBFGS_M
    f, g, free = 0.0, np.zeros(n), np.zeros(n)
    last = np.full(n, np.nan)   # x of the last evaluation; NaN equals no x
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    nit = 0
    while True:
        setulb(m, x, free, free, nbd, f, g, _LBFGS_FACTR, _LBFGS_PGTOL, wa, iwa,
               task, lsave, isave, dsave, _LBFGS_MAXLS, ln_task)
        if task[0] == 3:
            if not (x == last).all():
                f, g = fun(x)
                last[:] = x
        elif task[0] == 1:
            nit += 1
            if nit >= maxiter or -f >= _MEMBER:
                task[:] = 5, 504
        else:
            return x, nit


def _hull_max(rho, rho_a, alpha, hull, max_iter) -> MaxAffinityResult:
    """Maximize f(sigma) = Tr(rho^alpha sigma^beta), beta = 1 - alpha, over a
    family's convex hull by L-BFGS-B (:func:`_lbfgs`) on the factors that
    ``hull`` maps to sigma (Burer-Monteiro), viewing one complex vector z
    as floats; its layout is fixed for an L-BFGS run.  f is concave, so
    with G its gradient, gap = max over atoms of <atom|G|atom> - Tr(G sigma)
    bounds the distance to the maximum when the hull's oracle is exact.
    The affinity is at most 1 (Hoelder), so 1 - f bounds it whatever the
    oracle: at f >= _MEMBER the solve ends, L-BFGS at its first such
    iterate, with gap 1 - f and no oracle call.
    Where L-BFGS stalls (a zero factor keeps a zero gradient, or too few
    components) a Frank-Wolfe step adds the oracle's atom, at the best node
    of a log-step grid, scored by one stacked evaluation; by concavity it
    gains at least 1/e of the best step (:func:`_line_search`).  A best
    grid gain of at most _STALL, which bounds every step's gain by
    e * _STALL, ends the solve, as does a NaN one (an unconverged eigh).
    The ascent is monotone: L-BFGS never ends worse than it starts, and a
    step is taken only when it gains.  At the cap only a certified hull
    asks the oracle.  L-BFGS's last successful evaluation is kept, so the
    point it returns is, as a rule, not mapped or decomposed again."""
    beta = 1.0 - alpha
    last = None  # the last successful evaluation: (layout, theta's bytes), then its values

    def objective(theta):
        nonlocal last
        s, pullback = hull.map((theta.view(complex), layout))
        try:
            f, g, tr, w = _evaluate(s, rho_a, beta)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)       # a rejected step
        last = (layout, theta.tobytes()), (s, f, g, tr, w)
        grad = pullback(g, tr).view(float)
        if not np.isfinite(f + grad.sum()):
            return np.inf, np.zeros_like(theta)
        return -f, -grad

    (z, layout), iterations, gap = hull.start, 0, np.inf
    while True:
        if iterations < max_iter:
            x, nit = _lbfgs(objective, z.view(float), max_iter - iterations)
            iterations += nit
            z = x.view(complex)
        if last is not None and last[0] == (layout, z.tobytes()):
            s, f, g, tr, w = last[1]
        else:
            f, g, tr, w = _evaluate(s := hull.map((z, layout))[0], rho_a, beta)
        if f >= _MEMBER:
            gap = 1.0 - f
            break
        if iterations >= max_iter and not hull.certified:
            break
        lam, atom, where = hull.oracle(g, tr)
        gap = lam - tr
        if gap <= _GAP_STOP or iterations >= max_iter:
            break
        # Frank-Wolfe step toward the atom, decided on the log-step grid:
        # a grid gain <= _STALL bounds the step's gain by e * _STALL
        iterations += 1
        t, gain = _line_search(s, np.outer(atom, atom.conj()), f, rho_a, beta)
        if not gain > _STALL:
            break
        z, layout = hull.add((z, layout), t, where)

    comps = tuple(hull.components((z, layout)))
    member = _trusted(_mixture(comps), hull.dims)
    affinity = _clamped(_trace_product(rho_a, frac_power(member, beta)))
    upper = min(1.0, f + gap) if hull.certified and w[0] >= _FULL_RANK * w[-1] else 1.0
    return MaxAffinityResult(affinity, member, comps, iterations,
                             max(upper, affinity))   # equal up to roundoff at worst


# ---------------------------------------------------------------------------
# Closed form for coherence order 2 (diagonal witnesses).
# ---------------------------------------------------------------------------

def _k2_weights(rho_a: np.ndarray, alpha: float):
    """Optimal order-2 diagonal weights q and s = sum_i a_i^(1/alpha), with
    a_i the diagonal of rho^alpha (given as ``rho_a``): q_i = a_i^(1/alpha) / s.
    Over leading axes: for a stack of matrices s is a list of floats."""
    a = np.real(np.diagonal(rho_a, axis1=-2, axis2=-1)).clip(0.0)
    q = a ** (1.0 / alpha)
    s = q.sum(axis=-1)
    return q / s[..., None], s.tolist()


def closed_form_k2(rho: DensityMatrix, alpha: float) -> tuple[float, float]:
    """Exact order-2 coherence indicator values (plain, averaged).

    With a_i the diagonal of rho^alpha, the optimal diagonal witness has
    weights proportional to a_i^(1/alpha), so the maximal affinity is
    (sum_i a_i^(1/alpha))^alpha.
    """
    return _closed_forms([rho], alpha)[0]


def _closed_forms(states, alpha: float) -> list[tuple[float, float]]:
    """:func:`closed_form_k2` of each state of a sequence of one dimension,
    from one stacked power (:func:`_spectra` decomposes the states not yet
    decomposed with one eigh)."""
    alpha = _check_alpha(alpha)
    return [(1.0 - s ** alpha, 1.0 - s)
            for s in _k2_weights(_power(*_spectra(states), alpha), alpha)[1]]


def _diagonal_max(rho, rho_a, alpha, family, witness) -> MaxAffinityResult:
    """The multilevel(1) maximum, the closed form, which needs no start: a
    ``witness`` is only placed (:func:`encode`), so a component on two or
    more levels raises."""
    if witness:
        encode(family, witness)
    q, s = _k2_weights(rho_a, alpha)
    affinity = s ** alpha
    return MaxAffinityResult(affinity, _trusted(np.diag(q), rho.dims),
                             tuple(_diagonal_components(q, rho.dims)), 0, affinity)


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
    iterations: int


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
                           seed=seed, iterations=res.iterations)


def _searched(rho, base, k, alpha, variant, seed, opts) -> IndicatorResult:
    seed = _seed_key(seed)
    kind, shift = _FAMILY_OF[base]
    family = build_family(kind, rho.dims, k + shift)
    return _result(base, k, alpha, variant, seed,
                   max_affinity(rho, family, alpha, seed=seed, **opts))


def multilevel_coherence(rho: DensityMatrix, k: int, alpha: float,
                         variant: str = "plain", *, seed, **opts) -> IndicatorResult:
    """Order-k coherence indicator (support size < k witnesses), from
    :func:`max_affinity`, which takes ``max_iter`` and ``witness``: order 2
    is the exact closed form, higher orders are solved on the convex hull.
    ``affinity_upper`` is certified (1.0 when the witness is too close to
    singular).  A ``max_iter`` that is negative or not an integer raises
    ValueError, as does an order k that is not an integer."""
    k = _count(k, "k")
    if not 2 <= k <= rho.d:
        raise KOutOfRange(f"order must satisfy 2 <= k <= {rho.d}, got {k}")
    return _searched(rho, "coherence", k, alpha, variant, seed, opts)


def multipartite_correlation(rho: DensityMatrix, kind: str, k: int, alpha: float,
                             variant: str = "plain", *, seed, **opts) -> IndicatorResult:
    """Upper bound on a correlation indicator.

    kind="nonseparability": distance-like indicator against k-separable
    mixtures (1 <= k <= number of subsystems).  kind="entanglement":
    indicator against (k-1)-producible mixtures (2 <= k <= n+1), nonzero
    only in the presence of k-partite entanglement.

    Solved on the family's convex hull (:func:`max_affinity`, which takes
    ``max_iter`` and ``witness``) from d seeded random product states per
    partition, or from the ``witness``.  The product oracle is a heuristic,
    so ``affinity_upper`` is 1.0.  An order k that is not an integer
    raises ValueError.
    """
    k = _count(k, "k")
    if kind not in ("nonseparability", "entanglement"):
        raise ValueError(f"kind must be 'nonseparability' or 'entanglement', got {kind!r}")
    n, shift = len(rho.dims), _FAMILY_OF[kind][1]
    if not 1 <= k + shift <= n:
        raise KOutOfRange(f"need {1 - shift} <= k <= {n - shift}, got {k}")
    return _searched(rho, kind, k, alpha, variant, seed, opts)


def compute_indicator(rho: DensityMatrix, label: str, k: int, alpha: float,
                      *, seed, m=None, restarts=None, **opts) -> IndicatorResult:
    """Dispatch by CSV label (one of the six indicator names).  ``m`` and
    ``restarts`` are accepted and dropped here: no solve reads them, and
    perfbench/workloads.py, their last reader, still passes them."""
    if label not in LABELS:
        raise ValueError(f"label must be one of {LABELS}, got {label!r}")
    base, _, suffix = label.partition("_")
    variant = "avg" if suffix == "avg" else "plain"
    if base == "coherence":
        return multilevel_coherence(rho, k, alpha, variant, seed=seed, **opts)
    return multipartite_correlation(rho, base, k, alpha, variant, seed=seed, **opts)


def indicator_suite(rho: DensityMatrix, alphas, specs, *, seed,
                    max_iter: int = DEFAULT_MAX_ITER):
    """Batch driver: one result per (label, k) x alpha, deterministic per seed."""
    out = []
    for label, k in specs:
        for alpha in alphas:
            out.append(compute_indicator(rho, label, k, float(alpha),
                                         seed=seed, max_iter=max_iter))
    return out


def results_to_csv(results) -> str:
    lines = ["label,k,alpha,value,best_affinity,seed"]
    for r in results:
        lines.append(f"{r.label},{r.k},{float(r.alpha)!r},{r.value!r},"
                     f"{r.best_affinity!r},{r.seed}")
    return "\n".join(lines) + "\n"


def results_to_json(results) -> str:
    from .states import state_to_json
    rows = []
    for r in results:
        rows.append({"label": r.label, "k": r.k, "alpha": float(r.alpha),
                     "value": r.value, "best_affinity": r.best_affinity,
                     "affinity_upper": r.affinity_upper,
                     "iterations": r.iterations, "seed": r.seed,
                     "witness": json.loads(state_to_json(r.witness))})
    return json.dumps({"results": rows})


def _scored(rho, kind, k, comps, alpha):
    """Affinity of rho with the normalized mixture of ``comps``; a component
    outside the family (:func:`is_feasible_pure`) raises WitnessEncodingError."""
    if not _all_feasible(kind, k, [psi for _, psi in comps]):
        raise WitnessEncodingError(f"a transported component is outside {kind}({k})")
    return _mixed(rho, comps, alpha)


def _mixed(rho, comps, alpha):
    """Affinity of rho with the normalized mixture of ``comps``, unchecked."""
    total = sum(w for w, _ in comps)
    mixture = _mixture((w / total, psi) for w, psi in comps)
    return alpha_affinity(rho, _trusted(mixture, rho.dims), alpha)


def check_witness(result: IndicatorResult, rho: DensityMatrix) -> bool:
    """Revalidate a result: every component, however light, passes
    :func:`is_feasible_pure` (the rule the hull solver places by), the witness
    equals the component mixture and the affinity recomputes, both within 1e-9."""
    kind, shift = _FAMILY_OF[result.label.removesuffix("_avg")]
    if not _all_feasible(kind, result.k + shift, [c.state for c in result.components]):
        return False
    if np.abs(_mixture(result.components) - result.witness.data).max() > _WITNESS_TOL:
        return False
    return abs(alpha_affinity(rho, result.witness, result.alpha)
               - result.best_affinity) <= _WITNESS_TOL
