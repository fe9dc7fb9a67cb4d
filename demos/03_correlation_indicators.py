"""Multipartite correlation indicators over separability and producibility
families.

Run:  python demos/03_correlation_indicators.py
"""

import numpy as np

import resourcekit as rk

# The nonseparability indicator of order k measures distance (in affinity)
# from mixtures of pure states that factor into at least k parts; the
# entanglement indicator of order k is nonzero only when no mixture of
# (k-1)-producible pures reproduces the state.  Both are solved on the
# convex hull of the family, with L-BFGS on product factors; the Bell value
# comes out exact to roundoff.
bell = rk.pure_state([1, 0, 0, 1], (2, 2)).projector()
res = rk.multipartite_correlation(bell, "nonseparability", 2, 0.5, seed=21)
print("Bell nonseparability (k=2) :", res.value, " (exact:", 1 - 2 ** -0.5, ")")
print("witness weights            :", [round(c.weight, 4) for c in res.components])

# A product state scores zero against every family.
prod = rk.tensor_pure(rk.random_pure([2], seed=22), rk.random_pure([2], seed=23))
wit = [(1.0, prod)]
for kind, k in (("nonseparability", 2), ("entanglement", 2)):
    r = rk.multipartite_correlation(prod.projector(), kind, k, 0.5, seed=24,
                                    max_iter=100, witness=wit)
    print(f"product state, {kind}[k={k}] :", r.value)

# GHZ on three qubits: separable mixtures of any refinement keep a gap.
ghz = rk.pure_state([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2)).projector()
for k in (2, 3):
    r = rk.multipartite_correlation(ghz, "nonseparability", k, 0.5,
                                    seed=25, max_iter=1500)
    print(f"GHZ nonseparability (k={k}) :", r.value)

# Batch driver: one row per (label, k) x alpha, deterministic per seed.
rows = rk.indicator_suite(ghz, [0.3, 0.5, 0.7],
                          [("nonseparability", 2), ("entanglement", 3)],
                          seed=26, max_iter=400)
print("\n" + rk.results_to_csv(rows))
