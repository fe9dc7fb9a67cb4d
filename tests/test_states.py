import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resourcekit as rk
from resourcekit.errors import (
    BadIndex,
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPSD,
    TraceDeviation,
)
from resourcekit.states import (
    _FLUSH,
    _frac_power_raw,
    _power,
    _rng,
    _spectra,
    _trusted,
    _validated,
)

from oracles import brute_force_partial_trace


def test_validate_maximally_mixed_qubit():
    rho = rk.validate(np.eye(2) / 2, [2])
    assert rho.dims == (2,)
    assert rho.purity() == pytest.approx(0.5, abs=1e-12)


def test_validate_rejects_indefinite_matrix():
    # eigenvalues are 0.5 +/- 0.6 = 1.1 and -0.1
    with pytest.raises(NotPSD):
        rk.validate([[0.5, 0.6], [0.6, 0.5]], [2])


def test_validate_random_ginibre_rechecked_independently():
    rho = rk.random_mixed([2, 2], 4, seed=123)
    # independent re-check of every invariant on the stored matrix
    assert np.abs(rho.data - rho.data.conj().T).max() <= 1e-10
    assert np.linalg.eigvalsh(rho.data).min() >= -1e-10
    assert abs(np.trace(rho.data).real - 1.0) <= 1e-10


def test_validate_error_cases():
    with pytest.raises(NotHermitian):
        rk.validate([[0.5, 0.5], [0.0, 0.5]], [2])
    with pytest.raises(TraceDeviation):
        rk.validate(np.eye(2), [2])
    with pytest.raises(DimensionMismatch):
        rk.validate(np.eye(4) / 4, [3])
    with pytest.raises(DimensionMismatch):
        rk.validate(np.ones((2, 3)) / 3, [2])


def test_a_state_owns_its_data():
    # the caller's array stays writable, and writing it (or the writable
    # base of a view the state was built from) leaves the state unchanged,
    # through validate and through the bare constructor alike
    m = np.eye(2, dtype=complex) / 2
    rho = rk.validate(m, [2])
    assert m.flags.writeable
    m[0, 0] = 0.9
    base = np.eye(2, dtype=complex) / 2
    viewed = rk.validate(base[:, :], (2,))
    base[0, 0] = 0.9
    raw = np.eye(2, dtype=complex) / 2
    direct = rk.DensityMatrix((2,), raw)
    raw[0, 0] = 0.9
    for state in (rho, viewed, direct):
        assert state.data[0, 0] == 0.5
        assert not state.data.flags.writeable
        assert rk.frac_power(state, 0.5).tobytes() == _frac_power_raw(state.data, 0.5).tobytes()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("matrix", [[[NAN, 0], [0, 0.5]], [[0.5, NAN], [NAN, 0.5]],
                                    [[INF, 0], [0, 0.5]]])
def test_validate_refuses_non_finite_entries(matrix):
    # NaN compares false with every tolerance, so it must be caught first
    with pytest.raises(NonFinite):
        rk.validate(matrix, [2])


def test_json_refuses_the_nan_literal():
    # Python's json parses NaN; the state it describes must still be refused
    with pytest.raises(NonFinite):
        rk.state_from_json('{"dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')


@pytest.mark.parametrize("amps", [[1, NAN], [INF, 1]])
def test_pure_state_refuses_non_finite_amplitudes(amps):
    with pytest.raises(NonFinite):
        rk.pure_state(amps)


@pytest.mark.parametrize("amps,expected", [([1e200, 1], [1, 1e-200]),
                                           ([1e300, 1e300], [2 ** -0.5, 2 ** -0.5])])
def test_pure_state_normalizes_amplitudes_whose_norm_overflows(amps, expected):
    # the norm of these finite amplitudes overflows; scaled by the largest
    # |a_i| first, they still normalize
    psi = rk.pure_state(amps)
    assert np.abs(psi.amps - np.array(expected)).max() <= 1e-15
    assert psi.amps[1] != 0.0


def test_validate_clamps_small_negative_eigenvalue():
    u = rk.random_unitary(3, seed=5)
    w = np.array([0.7, 0.3 + 5e-11, -5e-11])
    rho = rk.validate((u * w) @ u.conj().T, [3])
    assert np.linalg.eigvalsh(rho.data).min() >= -1e-14
    assert abs(np.trace(rho.data).real - 1.0) <= 1e-12


def test_frac_power_identity_and_projector():
    eye = rk.validate(np.eye(4) / 4, [4])
    for t in (0.3, 0.5, 1.0):
        assert np.abs(rk.frac_power(eye, t) - 4.0 ** -t * np.eye(4)).max() <= 1e-12
    proj = rk.basis_pure([3], 1).projector()
    assert np.abs(rk.frac_power(proj, 0.4) - proj.data).max() <= 1e-12


def test_frac_power_sqrt_squares_back():
    rho = rk.random_mixed([4], 4, seed=7)
    half = rk.frac_power(rho, 0.5)
    assert np.abs(half @ half - rho.data).max() <= 1e-9


def test_frac_power_edge_exponents():
    rho = rk.random_mixed([3], 3, seed=8)
    assert np.abs(rk.frac_power(rho, 1.0) - rho.data).max() <= 1e-12
    with pytest.raises(ValueError):
        rk.frac_power(rho, 0.0)
    with pytest.raises(ValueError):
        rk.frac_power(rho, 1.5)


def test_frac_power_unitary_covariance():
    rho = rk.random_mixed([4], 3, seed=11)
    u = rk.random_unitary(4, seed=12)
    rotated = rk.validate(u @ rho.data @ u.conj().T, [4])
    lhs = rk.frac_power(rotated, 0.6)
    rhs = u @ rk.frac_power(rho, 0.6) @ u.conj().T
    assert np.abs(lhs - rhs).max() <= 1e-9


def test_tensor_block_embedding_and_trace():
    rho = rk.random_mixed([2], 2, seed=3)
    zero = rk.basis_pure([2], 0).projector()
    prod = rk.tensor(rho, zero)
    assert prod.dims == (2, 2)
    assert np.abs(prod.data[::2, ::2] - rho.data).max() <= 1e-15
    eye = rk.validate(np.eye(2) / 2, [2])
    assert np.abs(rk.tensor(eye, eye).data - np.eye(4) / 4).max() <= 1e-15
    assert np.trace(prod.data).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_product_state():
    a = rk.random_mixed([2], 2, seed=21)
    b = rk.random_mixed([3], 3, seed=22)
    joint = rk.tensor(a, b)
    assert np.abs(rk.partial_trace(joint, [0]).data - a.data).max() <= 1e-10
    assert np.abs(rk.partial_trace(joint, [1]).data - b.data).max() <= 1e-10


def test_partial_trace_bell_state():
    bell = rk.pure_state([1, 0, 0, 1], (2, 2)).projector()
    red = rk.partial_trace(bell, [0])
    assert np.abs(red.data - np.eye(2) / 2).max() <= 1e-12


def test_partial_trace_matches_brute_force():
    rho = rk.random_mixed([2, 3, 2], 10, seed=33)
    got = rk.partial_trace(rho, [0, 2]).data
    want = brute_force_partial_trace(rho.data, [2, 3, 2], [0, 2])
    assert np.abs(got - want).max() <= 1e-12


def test_partial_trace_bad_index():
    rho = rk.random_mixed([2, 2], 4, seed=1)
    with pytest.raises(BadIndex):
        rk.partial_trace(rho, [])
    with pytest.raises(BadIndex):
        rk.partial_trace(rho, [2])
    # an index that is not an integer is refused: int() read 1.9 and True
    # as subsystem 1
    for keep in ([1.9], [True], [np.True_], ["1"]):
        with pytest.raises(BadIndex):
            rk.partial_trace(rho, keep)


def test_random_generation_deterministic():
    a = rk.random_mixed([2, 2], 3, seed=99)
    b = rk.random_mixed([2, 2], 3, seed=99)
    assert a.data.tobytes() == b.data.tobytes()
    pa = rk.random_pure([4], seed=17)
    pb = rk.random_pure([4], seed=17)
    assert pa.amps.tobytes() == pb.amps.tobytes()


_WORDS = st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64]).flatmap(
    lambda w: st.integers(max(w - 3, 0), w + 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_WORDS, min_size=1, max_size=6))
def test_rng_draws_what_default_rng_draws(seed):
    # a list of words below 2^32 enters SeedSequence as one uint32 array,
    # any other list as it is: the generator state and its draws are numpy's
    got, expected = _rng(seed), np.random.default_rng(seed)
    assert got.bit_generator.state == expected.bit_generator.state
    assert got.integers(0, 2 ** 63, 4).tolist() == expected.integers(0, 2 ** 63, 4).tolist()
    assert got.standard_normal(3).tobytes() == expected.standard_normal(3).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(_WORDS, max_size=5), st.integers(-2 ** 64, -1), st.data())
def test_rng_refuses_a_negative_word_as_default_rng_does(words, negative, data):
    seed = list(words)
    seed.insert(data.draw(st.integers(0, len(seed))), negative)
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        _rng(seed)


def test_random_mixed_rank_one_is_pure():
    rho = rk.random_mixed([4], 1, seed=55)
    assert rho.purity() == pytest.approx(1.0, abs=1e-9)


def test_haar_mean_is_maximally_mixed():
    # first moment of the Haar measure: averaging many pure projectors
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    mean = np.einsum('ni,nj->ij', z, z.conj()) / z.shape[0]
    assert np.abs(mean - np.eye(2) / 2).max() <= 0.05


def test_pure_state_phase_canonicalization():
    psi = rk.pure_state(np.array([0.0, -1j, 1.0]) / np.sqrt(2))
    lead = psi.amps[np.flatnonzero(np.abs(psi.amps) > 1e-12)[0]]
    assert lead.imag == pytest.approx(0.0, abs=1e-15)
    assert lead.real > 0
    with pytest.raises(DimensionMismatch):
        rk.pure_state([0.0, 0.0])


def test_spectral_decomposition():
    rho = rk.random_mixed([4], 4, seed=77)
    spec = rk.spectral(rho)
    assert (np.diff(spec.eigenvalues) <= 1e-15).all()
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.abs(rebuilt - rho.data).max() <= 1e-9
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.abs(gram - np.eye(4)).max() <= 1e-9


def test_json_round_trip_is_bitwise():
    rho = rk.random_mixed([2, 2], 4, seed=4)
    again = rk.state_from_json(rk.state_to_json(rho))
    assert again.dims == rho.dims
    assert again.data.tobytes() == rho.data.tobytes()


@pytest.mark.parametrize("dims", [[2.5], [True, 2], ["2"], [np.True_, 2], [INF]])
def test_dims_are_refused_not_truncated(dims):
    # each entry must already be an integer: int() would read 2.5 and "2"
    # as 2 and a bool as 1, which all fit a qubit
    with pytest.raises(DimensionMismatch):
        rk.validate(np.eye(2) / 2, dims)


def test_json_refuses_bool_entries_and_names_missing_fields():
    with pytest.raises(ValueError, match="number pairs"):
        rk.state_from_json('{"dims": [2], "matrix": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}')
    for text, field in (('{"dims": [2]}', "'matrix'"),
                        ('{"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}', "'dims'")):
        with pytest.raises(ValueError, match=field):
            rk.state_from_json(text)


def test_json_refuses_invalid_matrix(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dims": [2], "matrix": [[[0.5, 0], [0.6, 0]], [[0.6, 0], [0.5, 0]]]}')
    with pytest.raises(NotPSD):
        rk.load_state(path)


def test_save_load_round_trip(tmp_path):
    rho = rk.random_mixed([3], 2, seed=31)
    path = tmp_path / "state.json"
    rk.save_state(rho, path)
    again = rk.load_state(path)
    assert again.data.tobytes() == rho.data.tobytes()


def test_trace_distance():
    a = rk.basis_pure([2], 0).projector()
    b = rk.basis_pure([2], 1).projector()
    assert rk.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    assert rk.trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_rejects_mismatched_dimensions():
    with pytest.raises(DimensionMismatch):
        rk.trace_distance(rk.random_mixed([2], 2, seed=1), rk.random_mixed([3], 3, seed=1))


def _rotated(w, seed):
    """v diag(w) v^dagger for a seeded random unitary v."""
    v = rk.random_unitary(len(w), seed)
    return (v * w) @ v.conj().T


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("kept", "clamped", "refused")), st.floats(0.0, 1.0))
def test_validate_clamp_bands(d, seed, band, u):
    # the lowest eigenvalue e, log-uniform inside its band: above -1e-13 it
    # is stored as is; down to -1e-10 it is clamped and the trace
    # renormalized; below, the matrix is refused.  Each band stays 10% clear
    # of both thresholds, since rotating the spectrum moves e by round-off
    lo, hi = {"kept": (1e-15, 0.9e-13), "clamped": (1.1e-13, 0.9e-10),
              "refused": (1.1e-10, 1e-2)}[band]
    e = -lo * (hi / lo) ** u
    pos = np.random.default_rng(seed).uniform(0.05, 1.0, d - 1)
    matrix = _rotated(np.append(pos / pos.sum() * (1.0 - e), e), seed)
    if band == "refused":
        with pytest.raises(NotPSD):
            rk.validate(matrix, [d])
        return
    rho = rk.validate(matrix, [d])
    if band == "kept":
        assert rho.data.tobytes() == matrix.tobytes()
        assert np.linalg.eigvalsh(rho.data)[0] < 0.0
    else:
        assert np.linalg.eigvalsh(rho.data)[0] >= -1e-15
        assert abs(np.trace(rho.data) - 1.0) <= 1e-14
        assert np.abs(rho.data - matrix).max() <= 2 * abs(e)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1.0),
       st.lists(st.sampled_from(("below", "above", "negative")), min_size=1, max_size=4),
       st.floats(0.05, 1.0))
def test_frac_power_flushes_below_the_floor(d, seed, scale, kinds, t):
    # a spectrum with its largest eigenvalue ``scale`` and others just below
    # or above _FLUSH * scale, or slightly negative
    rng = np.random.default_rng(seed)
    kinds = (kinds * d)[:d - 1]
    w = np.array([scale] + [scale * _FLUSH * {"below": rng.uniform(0.0, 0.9),
                                               "above": rng.uniform(1.1, 1e6),
                                               "negative": -rng.uniform(0.0, 1e-3)}[kind]
                            for kind in kinds])
    kept = np.where(w >= _FLUSH * scale, w, 0.0)
    # on a diagonal input the flushed eigenvalues give exact zeros
    diag = np.diag(_frac_power_raw(np.diag(w).astype(complex), t)).real
    assert (diag[kept == 0.0] == 0.0).all()
    assert np.allclose(diag[kept > 0.0], kept[kept > 0.0] ** t, rtol=1e-12, atol=0.0)
    # rotated, the result is Hermitian PSD, and t = 1 gives back the clipped input
    out = _frac_power_raw(_rotated(w, seed), t)
    assert np.abs(out - out.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(out)[0] >= -1e-15 * scale ** t
    clipped = _frac_power_raw(_rotated(w, seed), 1.0)
    assert np.abs(clipped - _rotated(kept, seed)).max() <= 1e-14 * scale


def _built(path, d, seed):
    """A state made along one constructor path, from a seeded Ginibre state."""
    if path == "validate":
        return rk.random_mixed([d], d, seed)
    if path == "renormalized":    # trace 1 + 1e-10: stored divided by it
        return rk.validate(rk.random_mixed([d], d, seed).data * (1.0 + 1e-10), [d])
    if path == "clamped":         # eigenvalue -1e-11: clamped and renormalized
        pos = np.random.default_rng(seed).uniform(0.05, 1.0, d - 1)
        return rk.validate(_rotated(np.append(pos / pos.sum() * (1.0 + 1e-11), -1e-11),
                                    seed), [d])
    if path == "_trusted":
        return _trusted(np.array(rk.random_mixed([d], d, seed).data), [d])
    if path == "tensor":
        return rk.tensor(rk.random_mixed([2], 2, seed), rk.random_mixed([d], d, seed + 1))
    if path == "partial_trace":
        return rk.partial_trace(rk.random_mixed([2, d], 2 * d, seed), [1])
    return rk.embed_state(rk.build_embedding(d), rk.random_mixed([d], d, seed))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("validate", "renormalized", "clamped", "_trusted", "tensor",
                        "partial_trace", "embed_state")),
       st.integers(2, 4), st.integers(0, 2 ** 31), st.floats(0.05, 1.0),
       st.floats(0.05, 0.95))
def test_spectral_reads_equal_a_fresh_decomposition(path, d, seed, t, alpha):
    # every spectral quantity of a state comes from its cached
    # eigendecomposition; each must equal the same computation run afresh
    # on the stored data, bit for bit, before and after the cache fills
    rho, sigma = _built(path, d, seed), _built(path, d, seed + 7)
    fresh = (rho.data + rho.data.conj().T) / 2
    w, v = np.linalg.eigh(fresh)
    order = np.argsort(w)[::-1]
    raw = np.trace(_frac_power_raw(rho.data, alpha)
                   @ _frac_power_raw(sigma.data, 1.0 - alpha)).real
    for _ in range(2):
        assert rk.frac_power(rho, t).tobytes() == _frac_power_raw(rho.data, t).tobytes()
        spec = rk.spectral(rho)
        assert spec.eigenvalues.tobytes() == w[order].tobytes()
        assert spec.eigenvectors.tobytes() == v[:, order].tobytes()
        assert rk.alpha_affinity(rho, sigma, alpha) == min(max(raw, 0.0), 1.0)


def _band_matrix(kind, d, seed):
    """A d x d matrix that validate keeps, renormalizes, clamps or refuses."""
    pos = np.random.default_rng(seed).uniform(0.05, 1.0, d - 1)
    low = {"kept": -1e-14, "renormalized": 1e-3, "clamped": -1e-11, "not-psd": -1e-3,
           "trace": 1e-3}[kind]
    m = _rotated(np.append(pos / pos.sum() * (1.0 - low), low), seed)
    if kind == "renormalized":
        m = m * (1.0 + 1e-10)
    if kind == "trace":
        m = m * 1.1
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 31),
       st.lists(st.sampled_from(("kept", "renormalized", "clamped")), min_size=1, max_size=6),
       st.floats(0.05, 1.0))
def test_a_validated_stack_equals_validating_each_matrix(d, seed, kinds, t):
    # one eigh for the stack: every state, its cached spectrum and its power
    # equal validate's on the matrix alone, bit for bit
    matrices = [_band_matrix(kind, d, seed + j) for j, kind in enumerate(kinds)]
    stacked = _validated(np.array(matrices), (d,))
    alone = [rk.validate(m, [d]) for m in matrices]
    for rho, ref in zip(stacked, alone):
        assert rho.dims == ref.dims and rho.data.tobytes() == ref.data.tobytes()
        assert not rho.data.flags.writeable
        assert rk.frac_power(rho, t).tobytes() == rk.frac_power(ref, t).tobytes()
    powers = _power(*_spectra(alone), t)
    assert all(p.tobytes() == rk.frac_power(ref, t).tobytes() for p, ref in zip(powers, alone))


@pytest.mark.parametrize("kinds", [("kept", "not-psd", "hermitian"),
                                   ("kept", "hermitian", "not-psd"),
                                   ("clamped", "trace", "nan"),
                                   ("nan", "not-psd"),
                                   ("kept", "kept", "clamped-too-far", "not-psd")])
def test_a_stack_raises_what_its_first_failing_matrix_raises(kinds):
    d = 12

    def matrix(kind, seed):
        if kind == "hermitian":
            m = _band_matrix("kept", d, seed).copy()
            m[0, 1] += 1e-6
            return m
        if kind == "nan":
            m = _band_matrix("kept", d, seed).copy()
            m[2, 2] = NAN
            return m
        if kind == "clamped-too-far":   # each eigenvalue > -1e-10, their sum < -1e-9
            return _rotated(np.append([1.0 + 11 * 0.95e-10], [-0.95e-10] * (d - 1)), seed)
        return _band_matrix(kind, d, seed)

    matrices = [matrix(kind, seed) for seed, kind in enumerate(kinds)]
    errors = [_raises(m, d) for m in matrices]
    first = next(exc for exc in errors if exc is not None)
    with pytest.raises(type(first), match=re.escape(str(first))):
        _validated(np.array(matrices), (d,))


def _raises(matrix, d):
    try:
        rk.validate(matrix, [d])
    except rk.ResourceKitError as exc:
        return exc
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.integers(1, 6), st.sampled_from((0.3, 0.5, 0.7)),
       st.integers(0, 2 ** 31))
def test_stacked_kernels_equal_the_per_matrix_formulas(d, n, alpha, seed):
    # eigh, power, trace product and order-2 weights over a stack equal the
    # per-matrix formulas written out here, bit for bit; each power takes
    # one scalar exponent (x ** 0.5 is a square root, an array of exponents
    # is not)
    from resourcekit.affinity import _trace_product
    from resourcekit.indicators import _k2_weights
    from resourcekit.states import _eigh

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, n, d, d)) + 1j * rng.standard_normal((2, n, d, d))
    m = g @ g.conj().swapaxes(-1, -2)
    pa = _power(*_eigh(m[0]), alpha)
    pb = _power(*_eigh(m[1]), 1.0 - alpha)
    products = _trace_product(pa, pb)
    s = _k2_weights(pa, alpha)[1]
    for i in range(n):
        one = []
        for x, t in ((m[0, i], alpha), (m[1, i], 1.0 - alpha)):
            w, v = np.linalg.eigh((x + x.conj().T) / 2)
            w = np.clip(w, 0.0, None)
            w[w < _FLUSH * w.max()] = 0.0
            one.append((v * w ** t) @ v.conj().T)
        assert pa[i].tobytes() == one[0].tobytes() and pb[i].tobytes() == one[1].tobytes()
        assert products[i] == float(np.trace(one[0] @ one[1]).real)
        a = np.clip(np.real(np.diag(one[0])), 0.0, None)
        assert s[i] == float((a ** (1.0 / alpha)).sum())
