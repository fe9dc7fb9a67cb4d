"""From basis-level structure to tensor-product structure.

A d-level system is joined by d flag qubits and a permutation unitary marks
each occupied level on its own flag.  Pure-state coherence rank then reads
off the embedded state's factorization: rank r means one entangled block of
r+1 parties and d-r free ancillas.  Coherence witnesses transport the same
way, so each order-k coherence bound caps the correlation indicators of the
embedded state.

Run:  python demos/04_coherence_to_correlation.py
"""

import numpy as np

import resourcekit as rk

emb = rk.build_embedding(3)
print("embedding unitary:", emb.unitary.shape, "involution drift:",
      np.abs(emb.unitary @ emb.unitary - np.eye(24)).max())

# Depth table for pure states of each rank.
for amps in ([1, 0, 0], [1, 1, 0], [1, 1, 1]):
    info = rk.depth_correspondence_pure(emb, rk.pure_state(amps))
    print(f"amps {amps}: rank {info['rank']}, separability depth "
          f"{info['sep_depth']}, entanglement depth {info['ent_depth']}")

# Affinity is preserved by the embedding (unitary + pure ancillas).
rho = rk.random_mixed([3], 3, seed=31)
sig = rk.random_mixed([3], 3, seed=32)
drift = abs(rk.alpha_affinity(rk.embed_state(emb, rho), rk.embed_state(emb, sig), 0.5)
            - rk.alpha_affinity(rho, sig, 0.5))
print("\naffinity preservation drift:", drift)

# Witness transport: the order-2 coherence bound of a qutrit upper-bounds
# four correlation indicators of its embedding, certified by scoring the
# mapped witness on the embedded state (no correlation search runs).
rows = rk.theorem3_check(rho, 2, 0.5, seed=33, max_iter=150)
print("\ntransported bounds:")
for row in rows:
    print(f"  {row.lhs_label:28s} <= {row.rhs_label:20s} "
          f"lhs={row.lhs:.6f} rhs={row.rhs:.6f} slack={row.slack:+.1e}")
