"""Single-threaded kernel sweep: per-call cost of the numerical kernels.

Each kernel is timed in calibrated batches and reported as the median
microseconds per call.  For the eigendecomposition-bound kernels the
number of ``eigh``/``eigvalsh`` calls one kernel call makes is reported as
well; those counts repeat exactly, unlike the times.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from resourcekit import affinity, embedding, feasible, indicators, states

DIMS = {2: (2,), 3: (3,), 4: (4,), 8: (2, 2, 2), 16: (2, 2, 2, 2), 24: (3, 2, 2, 2)}
REPEATS = 5
BATCH_SECONDS = 0.01

# One objective evaluation at the default family size (m = d^2).
OBJECTIVE_FAMILIES = {"multilevel": ((3,), 2),
                      "separable": ((2, 2, 2), 2),
                      "producible": ((2, 2, 2), 1)}


def per_call_us(fn) -> float:
    """Median per-call time over REPEATS batches of a calibrated size."""
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= BATCH_SECONDS:
            break
        n *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n * 1e6)
    return statistics.median(samples)


@contextmanager
def _count_eigh(counter):
    linalg = np.linalg
    originals = {name: getattr(linalg, name) for name in ("eigh", "eigvalsh")}

    def counting(fn):
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(linalg, name, counting(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(linalg, name, fn)


def eigh_calls(fn) -> int:
    counter = [0]
    with _count_eigh(counter):
        fn()
    return counter[0]


def _objective(kind):
    dims, k = OBJECTIVE_FAMILIES[kind]
    family = feasible.build_family(kind, dims, k)
    rho = states.random_mixed(list(dims), family.d, seed=[7, family.d])
    rho_a = states._frac_power_raw(rho.data, 0.5)
    theta = np.random.default_rng(7).standard_normal(family.param_len)

    def objective():
        s_pow = indicators._frac_power_raw(indicators._decode_raw(family, theta), 0.5)
        return -float(np.real(np.sum(rho_a * s_pow.T)))

    return objective


def _product_pure_8():
    """A qubit times an entangled qubit pair: factorizes into two parts."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return states.pure_state(np.kron(a, b), (2, 2, 2))


def _embedded_pure_24():
    """A rank-2 qutrit state through the flag embedding, as in transports."""
    emb = embedding.build_embedding(3)
    return embedding.embed_pure(emb, states.pure_state([0.8, 0.6j, 0.0]))


def run() -> dict[str, float]:
    """All sweep metrics, keyed by per-layer metric name."""
    out = {}
    for d, dims in DIMS.items():
        rho = states.random_mixed(list(dims), d, seed=[5, d, 0])
        sigma = states.random_mixed(list(dims), d, seed=[5, d, 1])
        kernels = {"states._frac_power_raw": lambda: states._frac_power_raw(rho.data, 0.5),
                   "affinity.alpha_affinity": lambda: affinity.alpha_affinity(rho, sigma, 0.5)}
        for name, fn in kernels.items():
            out[f"{name}.us.d{d}"] = per_call_us(fn)
            out[f"{name}.eigh_calls.d{d}"] = eigh_calls(fn)
    for kind in OBJECTIVE_FAMILIES:
        fn = _objective(kind)
        out[f"indicators.objective.us.{kind}"] = per_call_us(fn)
        out[f"indicators.objective.eigh_calls.{kind}"] = eigh_calls(fn)
    for d, psi in ((8, _product_pure_8()), (24, _embedded_pure_24())):
        fn = lambda psi=psi: feasible.factorize_pure(psi)
        out[f"feasible.factorize_pure.us.d{d}"] = per_call_us(fn)
        out[f"feasible.factorize_pure.eigh_calls.d{d}"] = eigh_calls(fn)
        rho = states.random_mixed(list(DIMS[d]), d, seed=[6, d])
        out[f"states.partial_trace.us.d{d}"] = per_call_us(
            lambda rho=rho: states.partial_trace(rho, [0]))
    return out
