from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resourcekit as rk
from resourcekit.errors import (
    BadLength,
    DimensionMismatch,
    EmptySet,
    NTooLarge,
    WitnessEncodingError,
)
from resourcekit.feasible import (
    FACTOR_PURITY_TOL,
    KINDS,
    RECONSTRUCT_TOL,
    WitnessComponent,
    _assemble_product,
    _decode_raw,
    _finest_parts,
    _Products,
    _reduced,
    _Supports,
    is_feasible_pure,
    structure_pool,
)

from members import mixture, random_members
from oracles import partial_transpose


def test_coherent_rank_basics():
    assert rk.coherent_rank_pure(rk.basis_pure([4], 0)) == 1
    uniform = rk.pure_state([1, 1, 1])
    assert rk.coherent_rank_pure(uniform) == 3
    for i in range(10):
        # full support almost surely
        assert rk.coherent_rank_pure(rk.random_pure([4], seed=[1, i])) == 4


def test_enumerate_partitions_counts():
    two_parts = rk.enumerate_partitions(3, exactly_k_parts=2)
    assert set(two_parts.partitions) == {((0,), (1, 2)), ((0, 1), (2,)),
                                         ((0, 2), (1,))}
    capped = rk.enumerate_partitions(3, max_part_size=2)
    assert len(capped.partitions) == 4
    fine = rk.enumerate_partitions(4, exactly_k_parts=4)
    assert fine.partitions == (((0,), (1,), (2,), (3,)),)
    with pytest.raises(NTooLarge):
        rk.enumerate_partitions(7, exactly_k_parts=2)
    with pytest.raises(ValueError):
        rk.enumerate_partitions(3)


def test_build_family_multilevel_one_is_diagonal():
    fam = rk.build_family("multilevel", (3,), 1)
    theta = np.random.default_rng(0).standard_normal(fam.param_len)
    sigma = _decode_raw(fam, theta)
    off = sigma - np.diag(np.diag(sigma))
    assert np.abs(off).max() <= 1e-12


def test_build_family_separable_two_qubits():
    fam = rk.build_family("separable", (2, 2), 2)
    assert fam.pool == (((0,), (1,)),)


def test_structure_pool_counts_and_coarsest_family_pool():
    assert len(structure_pool("multilevel", (4,), 2)) == 6
    assert len(structure_pool("separable", (2, 2, 2), 2)) == 3
    assert len(structure_pool("producible", (2, 2, 2), 2)) == 4
    # the family keeps the coarsest partitions: the fully product one
    # refines every two-part partition
    pool = structure_pool("producible", (2, 2, 2), 2)
    fam = rk.build_family("producible", (2, 2, 2), 2)
    assert list(fam.pool) == [p for p in pool if len(p) == 2]
    supports = structure_pool("multilevel", (4,), 2)
    assert rk.build_family("multilevel", (4,), 2).pool == tuple(supports)


def test_family_empty_set():
    with pytest.raises(EmptySet):
        rk.build_family("separable", (2, 2), 3)
    with pytest.raises(EmptySet):
        rk.build_family("multilevel", (2,), 5)


@pytest.mark.parametrize("dims", [(3.7,), (2, 2.5), (True, 2), ("2", 2), (0, 2), (-2,), 3])
def test_family_dims_are_refused_not_truncated(dims):
    # int() read (3.7,) as a qutrit
    for build in (rk.build_family, structure_pool):
        with pytest.raises(DimensionMismatch):
            build("multilevel", dims, 2)


def test_default_start_decodes_to_maximally_mixed():
    for d, k in ((2, 1), (4, 2), (4, 3)):
        fam = rk.build_family("multilevel", (d,), k)
        z, layout = fam._default.start
        assert np.abs(_decode_raw(fam, z.view(float)) - np.eye(d) / d).max() <= 1e-12


def test_decode_components_respect_support():
    # the multilevel layout's readout: every component lies on one support
    fam = rk.build_family("multilevel", (4,), 2)
    theta = np.random.default_rng(1).standard_normal(fam.param_len)
    comps = fam._default.components((theta.view(complex), fam._default.start[1]))
    assert sum(c.weight for c in comps) == pytest.approx(1.0, abs=1e-12)
    for comp in comps:
        support = set(np.flatnonzero(np.abs(comp.state.amps) > 0))
        assert len(support) <= 2
        assert any(support <= set(s) for s in fam.pool)


def test_decode_separable_members_are_ppt():
    fam = rk.build_family("separable", (2, 2), 2)
    for i in range(10):
        theta = np.random.default_rng([2, i]).standard_normal(fam.param_len)
        pt = partial_transpose(_decode_raw(fam, theta), [2, 2], 1)
        assert np.linalg.eigvalsh(pt).min() >= -1e-10


def test_decode_bad_length():
    fam = rk.build_family("multilevel", (2,), 1)
    with pytest.raises(BadLength):
        _decode_raw(fam, np.zeros(fam.param_len + 1))


def test_producible_one_matches_fully_separable():
    # members of producible(1) and separable(n) are the same set: mixtures
    # of fully product pure states; cross-check sampled members both ways
    for i in range(6):
        for w, psi in random_members("producible", (2, 2, 2), 1, [3, i]):
            assert is_feasible_pure("separable", 3, psi)
        for w, psi in random_members("separable", (2, 2, 2), 3, [4, i]):
            assert is_feasible_pure("producible", 1, psi)


def test_family_nesting_of_members():
    for comp in random_members("multilevel", (4,), 2, 5):
        assert is_feasible_pure("multilevel", 2, comp.state)
        assert is_feasible_pure("multilevel", 3, comp.state)
    for comp in random_members("separable", (2, 2, 2), 3, 6):
        assert is_feasible_pure("separable", 2, comp.state)
    for comp in random_members("producible", (2, 2, 2), 1, 7):
        assert is_feasible_pure("producible", 2, comp.state)


def _started(fam, comps):
    """sigma at the hull's witness start."""
    hull = _Supports(fam, comps) if fam.kind == "multilevel" else _Products(fam, comps)
    return hull.map(hull.start)[0]


def test_encode_round_trip_multilevel():
    comps = random_members("multilevel", (3,), 2, 8)
    fam = rk.build_family("multilevel", (3,), 2)
    assert np.abs(_started(fam, comps) - mixture(comps, (3,)).data).max() <= 1e-12


def test_encode_round_trip_correlation():
    for kind, k in (("separable", 2), ("producible", 2)):
        comps = random_members(kind, (2, 2, 2), k, 9)
        fam = rk.build_family(kind, (2, 2, 2), k)
        assert np.abs(_started(fam, comps) - mixture(comps, (2, 2, 2)).data).max() <= 1e-12


def test_encode_places_each_component_by_first_fit():
    # each component takes the first pool structure that holds it, however
    # many share one; a component whose structure none admits raises
    fam = rk.build_family("multilevel", (3,), 1)
    comps = [(1 / 4, rk.basis_pure([3], i)) for i in (2, 0, 1, 2)]
    assert rk.encode(fam, comps) == [2, 0, 1, 2]
    sep = rk.build_family("separable", (2, 2), 2)
    bell = rk.pure_state([1, 0, 0, 1], (2, 2))
    with pytest.raises(WitnessEncodingError):
        rk.encode(sep, [WitnessComponent(1.0, bell)])


def test_encode_refuses_amplitude_outside_every_slot():
    # a state whose support no pool structure holds must not be truncated
    # to one; a structure that holds the whole state starts from it exactly
    plus01 = WitnessComponent(1.0, rk.pure_state([1, 1, 0]))
    with pytest.raises(WitnessEncodingError):
        rk.encode(rk.build_family("multilevel", (3,), 1), [plus01])
    fam = rk.build_family("multilevel", (3,), 2)
    assert rk.encode(fam, [plus01]) == [0]
    assert np.abs(_started(fam, [plus01]) - plus01.state.projector().data).max() <= 1e-12


def test_encode_reads_factorization_off_the_state():
    # a fully product component refines every two-part partition and goes
    # into the first exactly; a GHZ component factorizes into none and is
    # refused
    fam = rk.build_family("separable", (2, 2, 2), 2)
    psi = rk.tensor_pure(rk.tensor_pure(rk.random_pure([2], seed=1), rk.random_pure([2], seed=2)),
                         rk.random_pure([2], seed=3))
    assert rk.encode(fam, [(1.0, psi)]) == [0]
    assert np.abs(_started(fam, [(1.0, psi)]) - psi.projector().data).max() <= 1e-12
    ghz = rk.pure_state([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
    with pytest.raises(WitnessEncodingError):
        rk.encode(fam, [(1.0, ghz)])


def test_factorize_fully_product():
    psi = rk.tensor_pure(rk.tensor_pure(rk.basis_pure([2], 0), rk.pure_state([1, 1])),
                         rk.basis_pure([2], 1))
    fac = rk.factorize_pure(psi)
    assert fac.parts == ((0,), (1,), (2,))
    assert fac.separability_depth == 3
    assert fac.entanglement_depth == 1


def test_factorize_bell_times_zero():
    bell = rk.pure_state([1, 0, 0, 1], (2, 2))
    psi = rk.tensor_pure(bell, rk.basis_pure([2], 0))
    fac = rk.factorize_pure(psi)
    assert fac.parts == ((0, 1), (2,))
    assert fac.separability_depth == 2
    assert fac.entanglement_depth == 2


def test_factorize_ghz_is_one_block():
    ghz = rk.pure_state([1, 0, 0, 0, 0, 0, 0, 1], (2, 2, 2))
    fac = rk.factorize_pure(ghz)
    assert fac.parts == ((0, 1, 2),)
    assert fac.separability_depth == 1
    assert fac.entanglement_depth == 3


def test_factorize_permutation_covariance():
    a = rk.random_pure([2], seed=10)
    bell = rk.pure_state([1, 0, 0, 1], (2, 2))
    # a (x) bell and its cyclic relabeling bell (x) a
    psi = rk.tensor_pure(a, bell)
    fac = rk.factorize_pure(psi)
    assert fac.parts == ((0,), (1, 2))
    flipped = rk.tensor_pure(bell, a)
    fac2 = rk.factorize_pure(flipped)
    assert fac2.parts == ((0, 1), (2,))


def test_factorize_reconstruction_and_limits():
    psi = rk.random_pure([2, 2, 2], seed=11)
    fac = rk.factorize_pure(psi)  # generic state: single block
    assert fac.parts == ((0, 1, 2),)
    with pytest.raises(NTooLarge):
        rk.factorize_pure(rk.random_pure([2] * 7, seed=12))
    prod = rk.tensor_pure(rk.random_pure([2], seed=13), rk.random_pure([3], seed=14))
    fac = rk.factorize_pure(prod)
    rebuilt = np.kron(fac.factors[0].amps, fac.factors[1].amps)
    assert 1.0 - abs(np.vdot(rebuilt, prod.amps)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.integers(0, 2 ** 32 - 1),
       st.floats(-5.0, -1.0, exclude_max=True) | st.floats(1.0, 7.0, exclude_min=True),
       st.booleans())
def test_factorize_pure_near_the_purity_threshold(dims, seed, x, spectator):
    # a (x) b tilted toward a' (x) b', with a' orthogonal to a and b' to b:
    # the reduced purity is 1 - delta exactly, delta = 10^x FACTOR_PURITY_TOL,
    # outside the band [0.1, 10] FACTOR_PURITY_TOL.  Below it the state
    # splits and the factors rebuild it; above it, it stays one part.  A
    # product spectator qubit splits off either way
    delta = FACTOR_PURITY_TOL * 10.0 ** x
    eps = (1.0 - np.sqrt(1.0 - 2.0 * delta)) / 2.0    # (1 - eps)^2 + eps^2 = 1 - delta
    ua, ub = rk.random_unitary(dims[0], [seed, 0]), rk.random_unitary(dims[1], [seed, 1])
    amps = (np.sqrt(1.0 - eps) * np.kron(ua[:, 0], ub[:, 0])
            + np.sqrt(eps) * np.kron(ua[:, 1], ub[:, 1]))
    tail = ((2,),) if spectator else ()
    if spectator:
        amps, dims = np.kron(amps, rk.random_pure([2], [seed, 2]).amps), dims + (2,)
    psi = rk.pure_state(amps, dims)
    fac = rk.factorize_pure(psi)
    if x < 0:
        assert fac.parts == ((0,), (1,)) + tail
        rebuilt = _assemble_product(dims, fac.parts, [f.amps for f in fac.factors])
        assert 1.0 - abs(np.vdot(rebuilt, psi.amps)) <= RECONSTRUCT_TOL
    else:
        assert fac.parts == ((0, 1),) + tail


@st.composite
def _product_stacks(draw):
    """(dims, partitions, stack): 1-4 products of Haar-random blocks on one
    dims, each over its own random partition of the 2-6 subsystems."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=6)
                      .filter(lambda dims: prod(dims) <= 216)))
    n, seed = len(dims), draw(st.integers(0, 2 ** 32 - 1))
    partitions, rows = [], []
    for s in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        parts = tuple(sorted(tuple(i for i in range(n) if labels[i] == b)
                             for b in set(labels)))
        blocks = [rk.random_pure([dims[i] for i in part], [seed, s, j]).amps
                  for j, part in enumerate(parts)]
        partitions.append(parts)
        rows.append(_assemble_product(dims, parts, blocks))
    return dims, partitions, np.array(rows)


@settings(max_examples=60, deadline=None)
@given(_product_stacks())
def test_finest_parts_reads_each_constructed_partition(case):
    # a stack mixing partitions: the stacked call, the one-state call and
    # factorize_pure each return the partition the state was built on
    dims, partitions, stack = case
    assert _finest_parts(stack, dims) == partitions
    for amps, parts in zip(stack, partitions):
        assert _finest_parts(amps, dims) == [parts]
        assert rk.factorize_pure(rk.pure_state(amps, dims)).parts == parts


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_reduced_equals_tensordot_bit_for_bit(dims, seed, data):
    # _reduced runs tensordot's transpose, reshape and dot itself; on every
    # subset of up to 6 subsystems its bytes equal tensordot's
    from itertools import combinations
    n = len(dims)
    size = prod(dims)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    subsets = [s for r in range(1, n + 1) for s in combinations(range(n), r)]
    for subset in subsets:
        rest = [i for i in range(n) if i not in subset]
        shaped = amps.reshape(dims)
        dk = prod(dims[i] for i in subset)
        expected = np.tensordot(shaped, shaped.conj(), axes=(rest, rest)).reshape(dk, dk)
        got = _reduced(amps, dims, data.draw(st.permutations(subset)))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@st.composite
def _components(draw):
    """(kind, k, state): exact products of random factors for the
    correlation kinds; for multilevel, sparse vectors whose nonzero
    amplitudes are at least 1e-12 or at most 1e-15 of the largest."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "multilevel":
        dims = draw(st.sampled_from([(4,), (6,), (2, 2)]))
        d = prod(dims)
        exps = draw(st.lists(st.one_of(st.none(), st.floats(-12, 0), st.floats(-20, -15)),
                             min_size=d, max_size=d))
        mags = np.array([0.0 if e is None else 10.0 ** e for e in exps])
        mags[draw(st.integers(0, d - 1))] = 1.0
        phases = np.random.default_rng(seed).uniform(0, 2 * np.pi, d)
        return kind, draw(st.integers(1, d)), rk.pure_state(mags * np.exp(1j * phases), dims)
    dims = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 2, 2), (2, 2, 2, 2)]))
    n = len(dims)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    parts = [tuple(i for i in range(n) if labels[i] == lab) for lab in sorted(set(labels))]
    factors = [rk.random_pure([dims[i] for i in part], seed=[seed, j]).amps
               for j, part in enumerate(parts)]
    psi = rk.pure_state(_assemble_product(dims, parts, factors), dims)
    return kind, draw(st.integers(1, n)), psi


@settings(max_examples=150, deadline=None)
@given(_components())
def test_membership_is_encodability(case):
    # is_feasible_pure accepts exactly the components encode can place in
    # the family's pool
    kind, k, psi = case
    family = rk.build_family(kind, psi.dims, k)
    try:
        rk.encode(family, [(1.0, psi)])
        placed = True
    except WitnessEncodingError:
        placed = False
    assert is_feasible_pure(kind, k, psi) == placed


@pytest.mark.parametrize("kind,dims,k", [("multilevel", (3,), 2), ("multilevel", (4,), 3),
                                         ("separable", (2, 2, 2), 2), ("producible", (2, 2, 2), 1)])
def test_readout_matches_pure_state_per_row_bit_for_bit(kind, dims, k):
    # the batched readout against pure_state row by row
    # (reference_suites.hull_components): weights, amplitudes and dims,
    # byte for byte.  One row is scaled under _DROP_WEIGHT, and one row's
    # first entry is under pure_state's 1e-12 lead threshold; multilevel
    # rows on supports without level 0 lead with the gathered zeros
    import reference_suites
    family = rk.build_family(kind, dims, k)
    hull = _Supports(family) if kind == "multilevel" else _Products(family, None, 132)
    layout, width = hull.start[1], len(hull.start[0])
    for seed in range(6):
        rng = np.random.default_rng([133, seed])
        z = rng.standard_normal(2 * width).view(complex)
        z[:hull.widths[layout[0]]] *= 1e-9               # a weight of about 1e-18
        z[-hull.widths[layout[-1]]] = 1e-14 * (1 - 1j)    # skipped for the lead
        ours = hull.components((z, layout))
        theirs = reference_suites.hull_components(hull, (z, layout))
        assert len(ours) == len(theirs) == len(layout) - 1
        for (w, psi), (rw, rpsi) in zip(ours, theirs):
            assert np.float64(w).tobytes() == np.float64(rw).tobytes()
            assert psi.amps.tobytes() == rpsi.amps.tobytes() and psi.dims == rpsi.dims
            assert not psi.amps.flags.writeable


PRODUCT_FAMILIES = [((2, 2), "separable", 2), ((2, 2, 2), "separable", 1),
                    ((2, 2, 2), "separable", 2), ((2, 2, 2), "producible", 1),
                    ((2, 2, 2, 2), "separable", 2), ((2, 2, 2, 2), "producible", 2),
                    ((3, 2), "separable", 2)]


@pytest.mark.parametrize("dims,kind,k", PRODUCT_FAMILIES)
def test_product_oracle_equals_the_einsum_forms(dims, kind, k):
    # the oracle reads each factor's form off the gather templates; the
    # einsum subscripts it replaced (reference_suites.Partition) give the
    # same forms at random rows and, from the same draws on the gradients of
    # seeded solves, the same partition, value and atom, up to roundoff
    import reference_suites
    from resourcekit.indicators import _evaluate
    family = rk.build_family(kind, dims, k)
    for i in range(20):
        alpha = (0.3, 0.5, 0.7)[i % 3]
        rho = rk.random_mixed(list(dims), 1 + i % 4, seed=[134, i])
        hull = _Products(family, None, i)
        _, g, tr, _ = _evaluate(hull.map(hull.start)[0], rk.frac_power(rho, alpha), 1 - alpha)
        value, atom, (j, row) = hull.oracle(g, tr)
        ref_value, ref_atom, (ref_j, _) = reference_suites.product_oracle(
            dims, family.pool, np.random.default_rng([i, 1]), g, tr)
        assert j == ref_j
        assert abs(value - ref_value) <= 1e-12
        overlap = abs(np.vdot(atom, ref_atom)) / np.linalg.norm(atom) / np.linalg.norm(ref_atom)
        assert 1.0 - overlap <= 1e-12
        assert np.abs(hull._psi(row, (j,))[0] - atom).max() == 0.0

        rng = np.random.default_rng([135, i])
        for j, partition in enumerate(family.pool):
            p = reference_suites.Partition(dims, partition)
            phis = [rng.standard_normal((3, 2 * s)).view(complex) for s in p.sizes]
            rows = np.concatenate(phis + [np.ones((3, 1))], axis=1)
            for q in range(p.count):
                ours, theirs = hull.form(g, rows, j, q), p.form(g.reshape(dims * 2), phis, q)
                assert ours.shape[1:] == theirs.shape[1:]   # one part: G, unbatched
                assert np.abs(ours - theirs).max() <= 1e-12
