"""Multilevel coherence indicators: closed form, optimizer, witnesses.

The order-k coherence indicator is 1 minus the best affinity achievable by
mixtures of pure states living on fewer than k basis levels.  Order 2 has
an exact closed form; higher orders are solved on the convex hull of the
family, and come with an explicit witness and a certified upper bound on
the maximal affinity.

Run:  python demos/02_multilevel_coherence.py
"""

import numpy as np

import resourcekit as rk

# Order 2 in closed form: the optimal diagonal witness weights are the
# normalized (1/a)-th powers of diag(rho^a).
plus = rk.pure_state([1, 1]).projector()
plain, avg = rk.closed_form_k2(plus, 0.5)
print("order-2 coherence of |+>      :", plain, " (exact: 1 - 2^-1/2)")
print("order-2 averaged variant      :", avg, " (exact: 1/2)")

mx3 = rk.pure_state([1, 1, 1]).projector()
print("order-2, maximally coherent 3 :", rk.closed_form_k2(mx3, 0.5)[0],
      " (exact: 1 - 3^-1/2)")

# The indicator at k = 2 is the closed form itself, carried by the optimal
# diagonal witness; no search runs, so it takes 0 iterations.
res = rk.multilevel_coherence(mx3, 2, 0.5, seed=11)
print("\nindicator value (k=2)         :", res.value, " iterations:", res.iterations)
print("witness is diagonal?          :",
      np.abs(res.witness.data - np.diag(res.witness.diag())).max() < 1e-8)

# Order 3 on the maximally coherent qutrit: witnesses now mix two-level
# pure states.  The symmetric optimum has affinity (2/3)^(1-a).
res3 = rk.multilevel_coherence(mx3, 3, 0.5, seed=12)
print("\norder-3 bound                 :", res3.value)
print("symmetric-optimum reference   :", 1 - (2 / 3) ** 0.5)
print("certified affinity bracket    :", res3.best_affinity, "..", res3.affinity_upper)
print("witness component supports    :",
      [np.flatnonzero(np.abs(c.state.amps) > 1e-9).tolist()
       for c in res3.components if c.weight > 1e-6])

# Every reported value is an upper bound certified by its witness: the
# affinity against the witness reproduces it on recomputation.
recomputed = rk.alpha_affinity(mx3, res3.witness, 0.5)
print("\nwitness recomputation drift   :", abs(recomputed - res3.best_affinity))

# A state assembled from two-level pures has zero order-3 coherence, and
# injecting its own decomposition certifies that immediately.
fam = rk.build_family("multilevel", (3,), 2, m=3)
theta = np.random.default_rng(13).standard_normal(fam.param_len)
member = rk.decode(fam, theta)
res0 = rk.multilevel_coherence(member, 3, 0.5, seed=14, max_iter=0,
                               witness=rk.decode_mixture(fam, theta))
print("order-3 bound on a two-level mixture:", res0.value)
