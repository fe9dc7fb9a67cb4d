"""The affinity functional Tr(rho^a sigma^(1-a)) and inequality certificates.

Every certificate records both sides of a claimed inequality ``lhs <= rhs``
together with the signed slack ``rhs - lhs`` (or the claim ``lhs == rhs``
when ``equality`` is set).  Tolerance policy is deliberately *not* applied
here: certificates carry raw numbers and the suite layer decides what
passes, so the policy lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import OUTCOME_THRESHOLD, KrausChannel, _check_compat, _conjugates
from .errors import (
    AlphaOutOfRange,
    BadExponent,
    BadWeights,
    DimensionMismatch,
    NonPositiveEntry,
)
from .states import DensityMatrix, _frac_power_raw, _power, _spectra

IMAG_RESIDUE_TOL = 1e-9


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _trace_product(a_pow: np.ndarray, b_pow: np.ndarray):
    """Tr(a_pow b_pow), which must be real up to IMAG_RESIDUE_TOL, over
    leading axes: a float for two matrices, (nested) lists of floats for
    stacks, where the first residue past the tolerance raises."""
    val = (a_pow @ b_pow).trace(axis1=-2, axis2=-1)
    residue = abs(val.imag) > IMAG_RESIDUE_TOL
    if np.count_nonzero(residue):
        first = np.ravel(val.imag)[np.argmax(residue)]
        raise ArithmeticError(f"imaginary residue {first:.3e} exceeds {IMAG_RESIDUE_TOL}")
    return val.real.tolist()


def _affinity_raw(a: np.ndarray, b: np.ndarray, alpha: float):
    """Tr(a^alpha b^(1-alpha)) for PSD matrices of any trace, over leading
    axes (see :func:`_trace_product`)."""
    return _trace_product(_frac_power_raw(a, alpha), _frac_power_raw(b, 1.0 - alpha))


def _state_affinity(rho, sigma, alpha: float):
    """``_affinity_raw(rho.data, sigma.data, alpha)``, bit for bit, from the
    states' eigendecompositions (:func:`_spectra`); unclamped.  For two
    equal-length sequences of states of one dimension, the list of their
    pairs' affinities, with one power per side."""
    return _trace_product(_power(*_spectra(rho), alpha), _power(*_spectra(sigma), 1.0 - alpha))


def _clamped(val: float) -> float:
    """An affinity of two states, clamped to [0, 1] once roundoff is ruled out."""
    if val < -1e-10 or val > 1.0 + 1e-10:
        raise ArithmeticError(f"affinity {val} escapes [0, 1] beyond tolerance")
    return min(max(val, 0.0), 1.0)


def alpha_affinity(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """Affinity of order alpha between two states; clamped to [0, 1]."""
    alpha = _check_alpha(alpha)
    if rho.d != sigma.d:
        raise DimensionMismatch(f"state dimensions differ: {rho.d} vs {sigma.d}")
    return _clamped(_state_affinity(rho, sigma, alpha))


@dataclass(frozen=True)
class InequalityCertificate:
    """One evaluated instance of an inequality (or equality) claim.

    The claim is ``lhs <= rhs`` with ``slack = rhs - lhs``; for equality
    certificates the claim is ``|lhs - rhs| <= tol``.  A certificate with
    slack below the suite tolerance is a counterexample report.
    """

    label: str
    lhs: float
    rhs: float
    slack: float
    equality: bool = False
    alpha: float | None = None
    seed: int | None = None


def _cert(label, lhs, rhs, equality=False, alpha=None, seed=None) -> InequalityCertificate:
    return InequalityCertificate(label, float(lhs), float(rhs),
                                 float(rhs) - float(lhs), equality, alpha, seed)


def certificates_to_csv(certs) -> str:
    lines = ["label,seed,alpha,lhs,rhs,slack"]
    for c in certs:
        seed = "" if c.seed is None else str(c.seed)
        alpha = "" if c.alpha is None else repr(float(c.alpha))
        lines.append(f"{c.label},{seed},{alpha},{c.lhs!r},{c.rhs!r},{c.slack!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scalar inequalities.
# ---------------------------------------------------------------------------

def holder_negative_exponent_bound(a, b, p: float, q: float,
                                   alpha=None, seed=None) -> InequalityCertificate:
    """Reverse-Hoelder certificate for positive vectors with p > 0 > q.

    Claim: n^(1-u) (sum a^p)^(1/p) (sum b^q)^(1/q) <= sum a*b, where
    u = max(1, 1/p + 1/q).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise DimensionMismatch("need two equal-length nonempty vectors")
    if (a <= 0).any() or (b <= 0).any():
        raise NonPositiveEntry("all entries must be strictly positive")
    if not (p > 0 and q < 0):
        raise BadExponent(f"need p > 0 and q < 0, got p={p}, q={q}")
    n = a.size
    u = max(1.0, 1.0 / p + 1.0 / q)
    lhs = n ** (1.0 - u) * (a ** p).sum() ** (1.0 / p) * (b ** q).sum() ** (1.0 / q)
    rhs = float((a * b).sum())
    return _cert("holder-negative-exponent", lhs, rhs, alpha=alpha, seed=seed)


def power_mean_bound(x, qvec, t: float, alpha=None, seed=None) -> InequalityCertificate:
    """Certificate for (sum x)^t <= sum x^t q^(1-t) with t > 1, sum q = 1."""
    x = np.asarray(x, dtype=float)
    q = np.asarray(qvec, dtype=float)
    if x.shape != q.shape or x.ndim != 1 or x.size == 0:
        raise DimensionMismatch("need two equal-length nonempty vectors")
    if (x <= 0).any():
        raise NonPositiveEntry("all entries of x must be strictly positive")
    if (q <= 0).any() or abs(q.sum() - 1.0) > 1e-12:
        raise BadWeights("q must be strictly positive and sum to 1")
    if not t > 1.0:
        raise BadExponent(f"need t > 1, got {t}")
    lhs = x.sum() ** t
    rhs = float((x ** t * q ** (1.0 - t)).sum())
    return _cert("power-mean", lhs, rhs, alpha=alpha, seed=seed)


# ---------------------------------------------------------------------------
# Channel-level inequalities.  Each works directly on the unnormalized
# conjugates K rho K^dag so the two sides share numerics, and each is a
# formula over one pass through the outcomes (:func:`_outcomes`), so that
# :func:`_channel_certificates` decomposes every conjugate once for all four.
# ---------------------------------------------------------------------------

def _check_pair(channel, rho, sigma):
    _check_compat(channel, rho)
    if rho.d != sigma.d:
        raise DimensionMismatch("rho and sigma dimensions differ")


def _outcomes(channels, rhos, sigmas, alpha):
    """For each sample of three equal-length sequences (channel, rho, sigma)
    of one shape (dimension and outcome count), the list of (p, q, r, s,
    A(r, s)) for each Kraus operator K, in order: r = K rho K^dag and
    s = K sigma K^dag unnormalized, p and q their traces, A unclamped.  One
    stacked conjugation, eigh and power per side serves every sample."""
    kraus = np.array([channel.kraus for channel in channels])
    p, r = _conjugates(kraus, np.array([rho.data for rho in rhos]))
    q, s = _conjugates(kraus, np.array([sigma.data for sigma in sigmas]))
    return [list(zip(*row))
            for row in zip(p.tolist(), q.tolist(), r, s, _affinity_raw(r, s, alpha))]


def _block_affinities(outcomes, alpha):
    """A(diag(r_1, ..., r_m), diag(s_1, ..., s_m)), the affinity of the
    flag-register block-diagonal pair of each sample's outcomes (samples of
    one shape), with one eigh and power per side for the stack of pairs."""
    r = np.array([[o[2] for o in outs] for outs in outcomes])
    s = np.array([[o[3] for o in outs] for outs in outcomes])
    n, m, d = r.shape[:3]
    br = np.zeros((n, d * m, d * m), dtype=complex)
    bs = np.zeros((n, d * m, d * m), dtype=complex)
    for i in range(m):
        br[:, i * d:(i + 1) * d, i * d:(i + 1) * d] = r[:, i]
        bs[:, i * d:(i + 1) * d, i * d:(i + 1) * d] = s[:, i]
    return _affinity_raw(br, bs, alpha)


def _power_sum(outcomes, alpha, seed):
    inner = 0.0
    rhs = 0.0
    for p, q, _, _, a in outcomes:
        if p <= OUTCOME_THRESHOLD or q <= OUTCOME_THRESHOLD:
            continue
        raw = max(a, 0.0)
        inner += raw
        rhs += p * (raw / (p ** alpha * q ** (1.0 - alpha))) ** (1.0 / alpha)
    lhs = inner ** (1.0 / alpha)
    return _cert("selective-power-sum", lhs, rhs, alpha=alpha, seed=seed)


def _block_diagonal(outcomes, block, alpha, seed):
    rhs = 0.0
    for *_, a in outcomes:
        rhs += max(a, 0.0)
    return _cert("block-diagonal-equality", block, rhs, equality=True, alpha=alpha, seed=seed)


def _dominance(outcomes, whole, alpha, seed):
    rhs = sum(max(a, 0.0) for *_, a in outcomes)
    return _cert("kraus-sum-dominance", whole, rhs, alpha=alpha, seed=seed)


def _loss(outcomes, whole, alpha, seed):
    lhs = 0.0
    for p, q, _, _, a in outcomes:
        if p <= OUTCOME_THRESHOLD or q <= OUTCOME_THRESHOLD:
            continue
        a_i = max(a, 0.0) / (p ** alpha * q ** (1.0 - alpha))
        lhs += p * (1.0 - min(a_i, 1.0) ** (1.0 / alpha))
    rhs = 1.0 - min(max(whole, 0.0), 1.0) ** (1.0 / alpha)
    return _cert("selective-loss", lhs, rhs, alpha=alpha, seed=seed)


def selective_power_sum(rho, sigma, channel: KrausChannel, alpha: float,
                        seed=None) -> InequalityCertificate:
    """Certificate for [sum_i A(p_i rho_i, q_i sigma_i)]^(1/a) <= sum_i p_i A(rho_i, sigma_i)^(1/a).

    Outcomes whose probability under either state is <= 1e-12 are dropped
    from both sides: the post-states are undefined there and the retained
    inequality is implied by the full one.
    """
    alpha = _check_alpha(alpha)
    _check_pair(channel, rho, sigma)
    return _power_sum(_outcomes([channel], [rho], [sigma], alpha)[0], alpha, seed)


def block_diagonal_affinity(rho, sigma, channel: KrausChannel, alpha: float,
                            seed=None) -> InequalityCertificate:
    """Equality certificate: affinity of the flag-register block-diagonal
    states equals the outcome-wise sum of unnormalized affinities."""
    alpha = _check_alpha(alpha)
    _check_pair(channel, rho, sigma)
    outcomes = _outcomes([channel], [rho], [sigma], alpha)
    return _block_diagonal(outcomes[0], _block_affinities(outcomes, alpha)[0], alpha, seed)


def data_processing_sum(rho, sigma, channel: KrausChannel, alpha: float,
                        seed=None) -> InequalityCertificate:
    """Certificate for A(rho, sigma) <= sum_i A(K_i rho K_i^dag, K_i sigma K_i^dag)."""
    alpha = _check_alpha(alpha)
    _check_pair(channel, rho, sigma)
    return _dominance(_outcomes([channel], [rho], [sigma], alpha)[0],
                      _state_affinity(rho, sigma, alpha), alpha, seed)


def selective_loss_bound(rho, sigma, channel: KrausChannel, alpha: float,
                         seed=None) -> InequalityCertificate:
    """Certificate for sum_i p_i {1 - A(rho_i, sigma_i)^(1/a)} <= 1 - A(rho, sigma)^(1/a)."""
    alpha = _check_alpha(alpha)
    _check_pair(channel, rho, sigma)
    return _loss(_outcomes([channel], [rho], [sigma], alpha)[0],
                 _state_affinity(rho, sigma, alpha), alpha, seed)


def _channel_certificates(rhos, sigmas, channels, alpha: float,
                          seed=None) -> list[list[InequalityCertificate]]:
    """:func:`selective_power_sum`, :func:`data_processing_sum`,
    :func:`selective_loss_bound` and :func:`block_diagonal_affinity`, in that
    order, for each sample of three equal-length sequences of one shape,
    from one pass through the outcomes (:func:`_outcomes`)."""
    alpha = _check_alpha(alpha)
    for rho, sigma, channel in zip(rhos, sigmas, channels):
        _check_pair(channel, rho, sigma)
    outcomes = _outcomes(channels, rhos, sigmas, alpha)
    wholes = _state_affinity(rhos, sigmas, alpha)
    blocks = _block_affinities(outcomes, alpha)
    return [[_power_sum(outs, alpha, seed), _dominance(outs, whole, alpha, seed),
             _loss(outs, whole, alpha, seed), _block_diagonal(outs, block, alpha, seed)]
            for outs, whole, block in zip(outcomes, wholes, blocks)]
