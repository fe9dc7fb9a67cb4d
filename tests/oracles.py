"""Independent oracles used to derive (and re-derive) expected test values.

Everything here works on raw numpy arrays and deliberately shares no code
with the library paths it checks: partial traces by explicit index loops,
restricted-set affinity maxima by Frank-Wolfe ascent with an exact linear
subproblem and a duality-gap certificate, and product-state maxima by
alternating eigenvector iterations.
"""

import itertools

import numpy as np


def brute_force_partial_trace(data, dims, keep):
    """Partial trace by explicit summation over all index tuples."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kd = [dims[i] for i in keep]
    dk = int(np.prod(kd))
    out = np.zeros((dk, dk), dtype=complex)
    full = data.reshape(tuple(dims) * 2)
    for row in itertools.product(*(range(d) for d in kd)):
        for col in itertools.product(*(range(d) for d in kd)):
            acc = 0.0 + 0.0j
            for tr in itertools.product(*(range(dims[i]) for i in traced)):
                idx_row = [0] * len(dims)
                idx_col = [0] * len(dims)
                for pos, i in enumerate(keep):
                    idx_row[i] = row[pos]
                    idx_col[i] = col[pos]
                for pos, i in enumerate(traced):
                    idx_row[i] = tr[pos]
                    idx_col[i] = tr[pos]
                acc += full[tuple(idx_row) + tuple(idx_col)]
            r = int(np.ravel_multi_index(row, kd)) if len(kd) > 1 else row[0]
            c = int(np.ravel_multi_index(col, kd)) if len(kd) > 1 else col[0]
            out[r, c] = acc
    return out


def partial_transpose(data, dims, site):
    """Transpose one subsystem; a negative eigenvalue certifies entanglement."""
    n = len(dims)
    t = data.reshape(tuple(dims) * 2)
    axes = list(range(2 * n))
    axes[site], axes[n + site] = axes[n + site], axes[site]
    d = int(np.prod(dims))
    return t.transpose(axes).reshape(d, d)


def _herm_power(m, t):
    """m^t for a PSD matrix; eigenvalues below 64 eps of the largest are
    eigensolver noise on a singular spectrum and count as exact zeros."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.where(w > 64 * np.finfo(float).eps * w.max(), w, 0.0) ** t
    return (v * w) @ v.conj().T


def _grad(rho_a, sigma, alpha):
    """Gradient of sigma -> Tr(rho_a sigma^(1-alpha)) (divided differences)."""
    w, v = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    w = np.clip(w, 1e-300, None)
    t = 1.0 - alpha
    wt = w ** t
    n = len(w)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if abs(w[i] - w[j]) > 1e-14 * max(w[i], w[j]):
                g[i, j] = (wt[i] - wt[j]) / (w[i] - w[j])
            else:
                g[i, j] = t * w[i] ** (t - 1.0)
    m = v.conj().T @ rho_a @ v
    return v @ (g * m) @ v.conj().T


def _line_search(rho_a, sigma, atom, alpha):
    lo, hi = 0.0, 1.0
    for _ in range(40):
        g1 = lo + (hi - lo) / 3
        g2 = hi - (hi - lo) / 3
        f1 = np.real(np.trace(rho_a @ _herm_power((1 - g1) * sigma + g1 * atom, 1 - alpha)))
        f2 = np.real(np.trace(rho_a @ _herm_power((1 - g2) * sigma + g2 * atom, 1 - alpha)))
        if f1 < f2:
            lo = g1
        else:
            hi = g2
    return (lo + hi) / 2


def _support_atom(grad, k):
    """Exact argmax of <v|grad|v> over unit vectors on k basis levels."""
    d = grad.shape[0]
    best, best_v = -np.inf, None
    for sub in itertools.combinations(range(d), k):
        w, v = np.linalg.eigh(grad[np.ix_(sub, sub)])
        if w[-1] > best:
            best = w[-1]
            vec = np.zeros(d, dtype=complex)
            vec[list(sub)] = v[:, -1]
            best_v = vec
    return best, best_v


def _product_atom(grad, dims, seed=0, n_starts=8, sweeps=40):
    """Approximate argmax over product unit vectors by alternating
    eigenvector updates from several random starts."""
    da, db = dims
    g = grad.reshape(da, db, da, db)
    rng = np.random.default_rng(seed)
    best, best_v = -np.inf, None
    for _ in range(n_starts):
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        b /= np.linalg.norm(b)
        a_vec = None
        for _ in range(sweeps):
            ma = np.einsum('j,ijkl,l->ik', b.conj(), g, b, optimize=True)
            _, va = np.linalg.eigh((ma + ma.conj().T) / 2)
            a_vec = va[:, -1]
            mb = np.einsum('i,ijkl,k->jl', a_vec.conj(), g, a_vec, optimize=True)
            _, vb = np.linalg.eigh((mb + mb.conj().T) / 2)
            b = vb[:, -1]
        v = np.kron(a_vec, b)
        val = float(np.real(v.conj() @ grad @ v))
        if val > best:
            best, best_v = val, v
    return best, best_v


def frank_wolfe_max(rho_data, alpha, atom_oracle, iters=2000, gap_stop=2e-6):
    """Maximize Tr(rho^alpha sigma^(1-alpha)) over the convex hull of the
    oracle's atoms; returns (achieved value, certified upper bound).

    The affinity is concave in sigma, so the linearization gap at each
    iterate upper-bounds the distance to the optimum.
    """
    d = rho_data.shape[0]
    rho_a = _herm_power(rho_data, alpha)
    sigma = np.eye(d, dtype=complex) / d
    ub = np.inf
    for _ in range(iters):
        g = _grad(rho_a, sigma, alpha)
        top, v = atom_oracle(g)
        gap = top - float(np.real(np.trace(g @ sigma)))
        f = float(np.real(np.trace(rho_a @ _herm_power(sigma, 1 - alpha))))
        ub = min(ub, f + gap)
        if gap < gap_stop:
            break
        atom = np.outer(v, v.conj())
        gamma = _line_search(rho_a, sigma, atom, alpha)
        sigma = (1 - gamma) * sigma + gamma * atom
        sigma = (sigma + sigma.conj().T) / 2
    f = float(np.real(np.trace(rho_a @ _herm_power(sigma, 1 - alpha))))
    return f, ub


def max_affinity_support(rho_data, alpha, k, iters=2000, gap_stop=2e-6):
    return frank_wolfe_max(rho_data, alpha,
                           lambda g: _support_atom(g, k), iters, gap_stop)


def max_affinity_product(rho_data, alpha, dims, iters=400, gap_stop=2e-4):
    return frank_wolfe_max(rho_data, alpha,
                           lambda g: _product_atom(g, dims), iters, gap_stop)


# Frozen anchor optima, derived before the library existed and re-derivable
# with the certified searches above (see the slow oracle tests):
#
# * uniform-amplitude qutrit against mixtures of two-level pure states:
#   the symmetric boundary mixture (identity + all-ones)/6 is optimal, with
#   affinity (2/3)^(1-alpha); Frank-Wolfe brackets at alpha 0.3/0.5/0.7:
#   [0.7528798, 0.7529226], [0.8164664, 0.8165268], [0.8854373, 0.8854977].
# * two-qubit Bell state against separable states at alpha = 1/2: the
#   symmetric-state family caps at 2^(-1/2); bracket [0.7069391, 0.7071747].

def qutrit_two_level_max(alpha):
    return (2.0 / 3.0) ** (1.0 - alpha)


BELL_SEPARABLE_MAX_HALF = 2.0 ** -0.5
