import gc
import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (
    _eliminate_units,
    _hochschild_key,
    _loop_key,
    _row_dicts,
    _word_key,
    coefficient,
    column_dicts,
    coordinates,
    parse_json_lines,
)
from loophomology.homalg import (
    ComplexSlice,
    HomologyEntry,
    HomologySummary,
    IncompleteSliceError,
    check_d_squared,
    homology_of_slice,
)
from loophomology.linalg import SparseIntMatrix, _unit_pivots, rank_mod_p, smith_normal_form
from loophomology.rings import Chain, Ring, ZZ, parse_ring, prime_field
from loophomology import cobar, complexes, homalg, linalg, loopcomplex, rings
from loophomology.presentation import adjoin_inverses, boundary
from loophomology.simplicial import BUILTIN_NAMES, builtin_space, chains_slice, validate
from loophomology.loopcomplex import cohoch_slice, hochschild_slice
from loophomology.complexes import complex_recipe
from loophomology.verify import build_complex_slice, supported_complexes


def test_parse_ring():
    assert parse_ring("Z").kind == "Z"
    assert parse_ring("Q").kind == "Q"
    assert parse_ring("F7").p == 7
    with pytest.raises(ValueError):
        parse_ring("F4")
    with pytest.raises(ValueError):
        parse_ring("R")


def test_prime_moduli_are_checked_exactly_and_fast():
    start = time.perf_counter()
    assert parse_ring(f"F{2**61 - 1}").p == 2**61 - 1
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="prime modulus"):
        parse_ring("F561")  # a Carmichael number
    # a strong pseudoprime to every base 2..37 (Sorenson and Webster)
    with pytest.raises(ValueError, match="prime modulus"):
        parse_ring("F318665857834031151167461")
    with pytest.raises(ValueError, match="must be below"):
        parse_ring(f"F{2**89 - 1}")
    primes = [n for n in range(2, 500) if all(n % d for d in range(2, n))]
    assert [n for n in range(500) if rings._is_prime(n)] == primes


def test_chain_arithmetic():
    c = Chain(ZZ, {"a": 2})
    c.add("a", -2)
    assert c.is_zero
    f2 = Chain(prime_field(2), {"a": 2})
    assert f2.is_zero
    c = Chain(ZZ, {"a": 1, "b": -3})
    assert coefficient(c, "b") == -3
    assert c.items() == [("a", 1), ("b", -3)]


def test_chain_normalizes_summed_terms_once():
    # a dict of summed coefficients is taken over; repeated pairs are summed
    summed = {"a": 4, "b": 3, "c": 0, "d": -1}
    f3 = Chain(prime_field(3), summed)
    assert f3.terms is summed
    assert f3.items() == [("a", 1), ("d", 2)]
    assert Chain(ZZ, summed).items() == [("a", 1), ("d", 2)]
    pairs = Chain(ZZ, [("a", 1), ("b", 2), ("a", -1), ("b", 1)])
    assert pairs.items() == [("b", 3)]
    assert Chain(prime_field(3), [("a", 2), ("a", 1)]).is_zero
    assert Chain(ZZ).is_zero and Chain(ZZ, {}).is_zero


def test_smith_examples():
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ([1, 1, 1], 3)
    factors, rank = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert factors == [2, 6, 12] and rank == 3


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _minor_gcds(rows, ncols):
    # gcd of k x k minors for each k; the independent oracle for SNF.
    from math import gcd

    m = len(rows)
    out = []
    for k in range(1, min(m, ncols) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, _det(sub))
        out.append(g)
    return out


def test_smith_against_minor_gcds():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        factors, rank = smith_normal_form(rows)
        # the unit pass must not change what the general pivot loop finds
        assert (factors, rank) == reference._snf_rows(_row_dicts(rows))
        gcds = _minor_gcds(rows, n)
        # rank = largest k with a nonzero k x k minor
        expected_rank = max((k for k, g in enumerate(gcds, 1) if g), default=0)
        assert rank == expected_rank
        prod = 1
        for k, d in enumerate(factors, 1):
            prod *= d
            assert prod == gcds[k - 1]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def _assert_reductions_agree(matrix):
    # Oracles: the general pivot loop on the whole matrix for the invariant
    # factors, and universal coefficients for the ranks mod p.
    factors, rank = smith_normal_form(matrix)
    assert (factors, rank) == reference._snf_rows(_row_dicts(matrix))
    for p in (2, 3, 5):
        assert rank_mod_p(matrix, p) == sum(1 for d in factors if d % p)
    return factors


def test_rank_functions_agree_with_smith():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        _assert_reductions_agree(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
    # Sparse matrices with many units, like differentials, so that unit
    # pivots interleave with the general loop.
    values = [0] * 8 + [1, -1, 1, -1, 2, -2, 3, 4, 6]
    for _ in range(300):
        m = rng.randint(1, 9)
        n = rng.randint(1, 9)
        _assert_reductions_agree(
            [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        )
    assert rank_mod_p([[2]], 2) == 0
    assert rank_mod_p([[2]], 3) == 1
    assert rank_mod_p([[2, 4], [1, 2]], 5) == 1


def _assert_blocks_agree_with_whole_matrix(matrix):
    # Oracle: the right-looking heap core that the unit-pivot kernel
    # replaced and the general loop, run on the whole matrix at once.
    rows = _row_dicts(matrix)
    units = _eliminate_units(rows)
    factors, rank = reference._snf_rows(rows)
    assert smith_normal_form(matrix) == ([1] * units + factors, units + rank)
    for p in (2, 3):
        assert rank_mod_p(matrix, p) == _eliminate_units(_row_dicts(matrix, p), p)


def test_reductions_agree_on_builtin_differentials():
    torsion = 0
    for name in BUILTIN_NAMES:
        X = builtin_space(name)
        for complex_name in supported_complexes(X):
            sl = build_complex_slice(X, complex_name, 4, max_word_length=2)
            for d in sl.diffs.values():
                torsion += any(f > 1 for f in _assert_reductions_agree(d))
                _assert_blocks_agree_with_whole_matrix(d)
    assert torsion  # the general loop after the unit pass is exercised
    for sl in (
        cohoch_slice(builtin_space("collapsed-delta3"), 6),
        _hat_cohoch(builtin_space("torus"), 3, 3),
    ):
        for d in sl.diffs.values():
            _assert_blocks_agree_with_whole_matrix(d)


def test_block_diagonal_matrices():
    # Z/2 + Z/3 is Z/6: the divisibility chain is repaired across blocks
    two_three = SparseIntMatrix.from_columns(2, [{0: 2}, {1: 3}])
    assert [list(b) for b in two_three.blocks] == [[0], [1]]
    assert smith_normal_form(two_three) == ([1, 6], 2)
    assert smith_normal_form(SparseIntMatrix.from_columns(2, [{1: 4}, {0: 2}])) == ([2, 4], 2)
    # -1, 2 and -3 are odd, even and odd; over F3 only -3 vanishes
    signs = SparseIntMatrix.from_columns(3, [{0: -1}, {1: 2}, {2: -3}])
    assert rank_mod_p(signs, 2) == 2 and rank_mod_p(signs, 3) == 2
    assert smith_normal_form(signs) == ([1, 1, 6], 3)
    # empty columns between blocks belong to none; a block may be joined
    # only through a later column
    gaps = SparseIntMatrix.from_columns(
        4, [{}, {0: 2}, {}, {3: 1, 1: 1}, {}, {2: 1}, {1: 1, 2: -1}, {}]
    )
    assert [list(b) for b in gaps.blocks] == [[1], [3, 5, 6]]
    assert smith_normal_form(gaps) == ([1, 1, 1, 2], 4)
    assert rank_mod_p(gaps, 2) == 3 and rank_mod_p(gaps, 3) == 4
    assert SparseIntMatrix.from_columns(3, [{}, {}]).blocks == []
    assert smith_normal_form(SparseIntMatrix.from_columns(3, [{}, {}])) == ([], 0)
    # a stored zero is no entry (dict columns read it as a factor 1 over Z)
    zero = SparseIntMatrix.from_columns(1, [{0: 0}])
    assert smith_normal_form(zero) == ([], 0) and rank_mod_p(zero, 3) == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_block_reduction_matches_the_whole_matrix(data):
    # A random sparse block-diagonal matrix with its rows and columns
    # shuffled, against the cores run on the whole matrix at once.
    shapes = data.draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5)
    )
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6])
    nrows, ncols = sum(m for m, _ in shapes), sum(n for _, n in shapes)
    dense = [[0] * ncols for _ in range(nrows)]
    top = left = 0
    for m, n in shapes:
        for i in range(m):
            for j in range(n):
                dense[top + i][left + j] = data.draw(entry)
        top, left = top + m, left + n
    row_order = data.draw(st.permutations(range(nrows)))
    col_order = data.draw(st.permutations(range(ncols)))
    dense = [[dense[i][j] for j in col_order] for i in row_order]
    matrix = SparseIntMatrix.from_columns(
        nrows,
        [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)],
    )
    assert smith_normal_form(matrix) == reference._snf_rows(_row_dicts(dense))
    for p in (2, 3):
        assert rank_mod_p(matrix, p) == _eliminate_units(_row_dicts(dense, p), p)


# ---------------------------------------------------------------------------
# The CSC triple against the dict columns it replaced


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_the_triple_reduces_as_the_dict_columns_did(data):
    # random sparse columns, some empty, each in its own order: the same
    # blocks, and over Z, F2, F3 and F5 the same factors, rank and leads
    nrows = data.draw(st.integers(1, 10))
    ncols = data.draw(st.integers(0, 10))
    entry = st.sampled_from([1, -1, 1, -1, 2, -2, 3, 4, -5, 6, 10])
    columns = [
        data.draw(st.dictionaries(st.integers(0, nrows - 1), entry, max_size=4))
        for _ in range(ncols)
    ]
    matrix = SparseIntMatrix.from_columns(nrows, columns)
    assert [list(matrix.column(j)) for j in range(ncols)] == [list(c.items()) for c in columns]
    assert [list(b) for b in matrix.blocks] == reference.dict_blocks(nrows, columns)
    for p in (None, 2, 3, 5):
        assert linalg._reduce(matrix, p) == reference.dict_reduce(nrows, columns, p), p


def test_entries_above_int64_stay_exact():
    # Read as int64, 3 * 2**62 would be -2**62, a unit mod 3, and 2**64 + 1
    # would be 1: each assertion fails on storage that truncates.
    big = 2**64 + 3
    assert smith_normal_form(SparseIntMatrix.from_columns(1, [{0: big}])) == ([big], 1)
    pair = SparseIntMatrix.from_columns(2, [{0: 3 * 2**62, 1: 3 * 2**63}])
    assert smith_normal_form(pair) == ([3 * 2**62], 1)
    assert rank_mod_p(pair, 3) == 0 and rank_mod_p(pair, 2) == 0
    columns = [{0: 2**64 + 1, 1: 2**65}, {1: 2**70 + 7, 0: 3}]
    for p in (None, 2, 3, 5):
        assert linalg._reduce(SparseIntMatrix.from_columns(2, columns), p) == (
            reference.dict_reduce(2, columns, p)
        )
    bases = {0: ["v"], 1: ["a", "b"], 2: ["t"]}
    d1 = SparseIntMatrix.from_columns(1, [{0: 1}, {0: 1}])
    clean = SparseIntMatrix.from_columns(2, [{0: 2**64 + 1, 1: -(2**64 + 1)}])
    assert check_d_squared(ComplexSlice(bases, {1: d1, 2: clean})) == []
    broken = SparseIntMatrix.from_columns(2, [{0: 2**64 + 1, 1: -1}])
    assert check_d_squared(ComplexSlice(bases, {1: d1, 2: broken})) == [(2, "t")]


def test_the_matrices_of_a_slice_keep_a_sixth_of_the_dict_columns():
    # hochschild_slice(collapsed-delta3, 5) holds 3,321 columns and 4,656
    # entries.  As {row: value} dicts they kept ~516 KB (tracemalloc,
    # CPython 3.11), as CSC triples ~89 KB: 4 bytes of row index and an
    # 8-byte list slot per entry, and an 8-byte offset per column.
    X = builtin_space("collapsed-delta3")
    hochschild_slice(X, 1)
    gc.collect()
    tracemalloc.start()
    try:
        sl = hochschild_slice(X, 5)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        sl.diffs.clear()
        kept -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 120_000, kept


def test_unit_pivots_match_the_heap_core():
    # Mostly +-1 with some 2, 3, 4 and 6: the kernel's unit pivots plus the
    # general loop on its residual against the heap core plus the general
    # loop, over Z; the pivot counts against the heap core mod 3 and 5.
    residuals = []

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        nrows = data.draw(st.integers(1, 9))
        ncols = data.draw(st.integers(1, 9))
        entry = st.sampled_from([0] * 12 + [1, -1] * 4 + [2, -2, 3, 4, -6])
        dense = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
        matrix = SparseIntMatrix.from_columns(
            nrows, [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)]
        )
        leads, residual = _unit_pivots(matrix, range(ncols))
        residuals.append(len(residual))
        factors, rank = reference._snf_rows(residual)
        rows = _row_dicts(dense)
        units = _eliminate_units(rows)
        ref_factors, ref_rank = reference._snf_rows(rows)
        assert [1] * len(leads) + factors == [1] * units + ref_factors
        assert len(leads) + rank == units + ref_rank
        for p in (3, 5):
            leads, residual = _unit_pivots(matrix, range(ncols), p)
            assert (len(leads), residual) == (_eliminate_units(_row_dicts(dense, p), p), {})

    check()
    assert any(residuals)  # the general loop after the kernel is exercised


def test_residual_loop_matches_the_general_loop():
    # The short loop against the one built for whole matrices: small dense
    # matrices, and wide and tall sparse ones with no +-1 entry, the shapes
    # of a residual cleared against the unit pivots.
    # Here the pivot moves to -2 in row 1, and row 2's -1 under it has
    # nearest quotient 0; row 2 has no entry in the pivot row's other
    # column, so a row operation by 0 would delete an absent entry.
    pinned = [[-2, 4, 1], [0, 2, -2], [0, 1, -2]]
    assert linalg._divisibility_chain(linalg._snf_rows(_row_dicts(pinned))) == ([1, 1, 4], 3)
    assert _minor_gcds(pinned, 3) == [1, 1, 4]

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(st.data())
    def check(data):
        shape = data.draw(st.sampled_from(["dense", "wide", "tall"]))
        if shape == "dense":
            nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
            entry = st.integers(-9, 9)
        else:
            short, long = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 60))
            nrows, ncols = (short, long) if shape == "wide" else (long, short)
            entry = st.sampled_from([0] * 12 + [2, -2, 3, -3, 4, 6, -9])
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        dense = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
        expected = reference._snf_rows(_row_dicts(dense))
        assert linalg._divisibility_chain(linalg._snf_rows(_row_dicts(dense))) == expected

    check()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 72), max_size=8))
def test_divisibility_chain_takes_one_pass(factors):
    expected = reference._divisibility_chain(list(factors))
    assert linalg._divisibility_chain(list(factors)) == expected


def test_homology_reduces_each_differential_once(monkeypatch):
    calls = {}

    def counted(name, fn):
        def wrapper(matrix, *args):
            key = (name, id(matrix)) + args
            calls[key] = calls.get(key, 0) + 1
            return fn(matrix, *args)

        return wrapper

    monkeypatch.setattr(
        homalg, "smith_normal_form", counted("Z", homalg.smith_normal_form)
    )
    monkeypatch.setattr(homalg, "rank_mod_p", counted("F", homalg.rank_mod_p))
    sl = cohoch_slice(builtin_space("collapsed-delta3"), 5)
    top = 4
    for ring in ("Z", "Q", "F2", "F3"):
        for n in range(top + 1):
            homology_of_slice(sl, n, parse_ring(ring))
    nonzero = [id(d) for n, d in sl.diffs.items() if d.nnz and n <= top + 1]
    assert nonzero
    expected = {("Z", i): 1 for i in nonzero}
    expected.update({("F", i, p): 1 for i in nonzero for p in (2, 3)})
    assert calls == expected


def test_homology_examples():
    one_point = ComplexSlice({0: ["g"]}, {})
    assert homology_of_slice(one_point, 0) == HomologyEntry(0, 1)
    times_two = ComplexSlice(
        {0: ["a"], 1: ["b"]}, {1: SparseIntMatrix.from_columns(1, [{0: 2}])}
    )
    assert homology_of_slice(times_two, 0) == HomologyEntry(0, 0, (2,))
    assert homology_of_slice(times_two, 1) == HomologyEntry(1, 0)
    sl = chains_slice(builtin_space("sphere2"), 3)
    assert [homology_of_slice(sl, n) for n in range(3)] == [
        HomologyEntry(0, 1),
        HomologyEntry(1, 0),
        HomologyEntry(2, 1),
    ]


def test_homology_field_rings():
    times_two = ComplexSlice(
        {0: ["a"], 1: ["b"]}, {1: SparseIntMatrix.from_columns(1, [{0: 2}])}
    )
    # Q shares the Z reduction but reports no torsion
    assert homology_of_slice(times_two, 0, parse_ring("Q")) == HomologyEntry(0, 0)
    assert homology_of_slice(times_two, 0, parse_ring("F2")).free_rank == 1
    assert homology_of_slice(times_two, 1, parse_ring("F2")).free_rank == 1


def test_homology_permutation_invariance():
    sl = chains_slice(builtin_space("boundary-delta3"), 3)
    base = [homology_of_slice(sl, n) for n in range(3)]
    # permute the edge basis and conjugate the matrices accordingly
    perm = [3, 0, 4, 1, 5, 2]
    edges = [sl.bases[1][i] for i in perm]
    inv = {old: new for new, old in enumerate(perm)}
    d1 = [column_dicts(sl.diffs[1])[j] for j in perm]
    d2 = [{inv[i]: v for i, v in col.items()} for col in column_dicts(sl.diffs[2])]
    shuffled = ComplexSlice(
        {0: sl.bases[0], 1: edges, 2: sl.bases[2]},
        {
            1: SparseIntMatrix.from_columns(4, d1),
            2: SparseIntMatrix.from_columns(6, d2),
        },
    )
    assert [homology_of_slice(shuffled, n) for n in range(3)] == base


def test_homology_builds_no_index_and_coordinates_build_one_per_degree():
    sl = build_complex_slice(builtin_space("torus"), "hat-cohoch", 4, max_word_length=2)
    for n in sl.degrees()[:-1]:  # H_n reads d_n and d_(n+1)
        homology_of_slice(sl, n)
        homology_of_slice(sl, n, prime_field(2))
    assert not hasattr(sl, "index")
    for n in sl.degrees():
        position = {g: i for i, g in enumerate(sl.bases[n])}
        for g in sl.bases[n]:
            assert coordinates(sl, Chain(ZZ, {g: 2}), n) == {position[g]: 2}
        everything = Chain(ZZ, {g: i + 1 for i, g in enumerate(sl.bases[n])})
        assert coordinates(sl, everything, n) == {i: i + 1 for i in range(len(sl.bases[n]))}
        assert coordinates(sl, Chain(ZZ, {("nowhere", ()): 1}), n) is None
        assert coordinates(sl, Chain(ZZ), n) == {}
    assert sorted(sl.index) == sl.degrees()
    assert coordinates(sl, Chain(ZZ, {("v", ()): 1}), 99) is None
    assert coordinates(sl, Chain(ZZ), 99) == {}


def test_incomplete_slice_error():
    sl = ComplexSlice({0: ["a"], 1: ["b"]}, {})
    with pytest.raises(IncompleteSliceError):
        homology_of_slice(sl, 0)
    # a slice made by hand has zero modules where it has no basis
    assert homology_of_slice(ComplexSlice({0: ["a"]}, {}), 5) == HomologyEntry(5, 0)


def test_homology_needs_the_differential_above_the_slice():
    # H_6 of the free loops of S^2 is Z + Z/2; the Z/2 is the cokernel of
    # d_7, which a slice built through degree 6 does not hold
    S2 = builtin_space("sphere2")
    sl = cohoch_slice(S2, 6)
    assert sl.built_through == 6
    for n in (6, 7, 9):
        with pytest.raises(IncompleteSliceError, match="built through degree 6"):
            homology_of_slice(sl, n)
    assert homology_of_slice(sl, 5) == HomologyEntry(5, 1)
    assert homology_of_slice(cohoch_slice(S2, 7), 6) == HomologyEntry(6, 1, (2,))
    # the same holds where the basis of the top degree is empty
    sl = chains_slice(S2, 4)
    assert not sl.bases.get(4)
    with pytest.raises(IncompleteSliceError):
        homology_of_slice(sl, 4)
    assert homology_of_slice(sl, 3) == HomologyEntry(3, 0)


def test_check_d_squared_clean_and_empty():
    assert check_d_squared(ComplexSlice({}, {})) == []
    sl = chains_slice(builtin_space("boundary-delta3"), 2)
    assert check_d_squared(sl) == []


def _flip_one_entry(sl):
    # Flip a sign where the composite is guaranteed to become nonzero:
    # pick d_n[i, j] != 0 whose row generator has a nonzero differential.
    for n in sorted(sl.diffs):
        prev = sl.diffs.get(n - 1)
        if prev is None:
            continue
        prev_cols = {j for j, col in enumerate(column_dicts(prev)) if col}
        columns = column_dicts(sl.diffs[n])
        for i, j, v in sorted(
            (i, j, v) for j, col in enumerate(columns) for i, v in col.items()
        ):
            if i in prev_cols:
                flipped = [dict(col) for col in columns]
                flipped[j][i] = -v
                diffs = dict(sl.diffs)
                diffs[n] = SparseIntMatrix.from_columns(sl.diffs[n].nrows, flipped)
                return ComplexSlice(sl.bases, diffs), n, sl.bases[n][j]
    raise AssertionError("no flippable entry found")


def test_check_d_squared_detects_flipped_sign():
    sl = chains_slice(builtin_space("boundary-delta3"), 2)
    mutated, degree, gen = _flip_one_entry(sl)
    bad = check_d_squared(mutated)
    assert bad and (degree, gen) in bad


def test_check_d_squared_detects_flipped_wrap_sign():
    # Same mutation drill on a free-loop complex, where the flipped entry
    # comes from a wrap-around term.
    sl = cohoch_slice(builtin_space("collapsed-delta3"), 4)
    assert check_d_squared(sl) == []
    mutated, degree, gen = _flip_one_entry(sl)
    assert check_d_squared(mutated)


def test_universal_coefficients_on_chains():
    for name in ("sphere2", "torus", "boundary-delta3"):
        sl = chains_slice(builtin_space(name), 3)
        for n in range(3):
            q = homology_of_slice(sl, n, parse_ring("Q")).free_rank
            for p in (2, 3, 5):
                fp = homology_of_slice(sl, n, parse_ring(f"F{p}")).free_rank
                assert q <= fp


def test_universal_coefficients_on_loop_complexes():
    for name in ("sphere2", "collapsed-delta3"):
        sl = cohoch_slice(builtin_space(name), 5)
        for n in range(5):
            q = homology_of_slice(sl, n, parse_ring("Q")).free_rank
            for p in (2, 3):
                fp = homology_of_slice(sl, n, parse_ring(f"F{p}")).free_rank
                assert q <= fp


def test_summary_json_roundtrip():
    summary = HomologySummary(
        [HomologyEntry(0, 1), HomologyEntry(2, 1, (2,))],
        space="sphere2",
        complex_name="cohoch",
        truncated_at=None,
    )
    parsed = parse_json_lines(summary.to_json_lines())
    assert parsed.entries == summary.entries
    truncated = HomologySummary(
        [HomologyEntry(0, 3)], space="circle", complex_name="hat-cohoch", truncated_at=2
    )
    parsed = parse_json_lines(truncated.to_json_lines())
    assert parsed.truncated_at == 2
    assert "truncated at word length 2" in truncated.to_table()


# ---------------------------------------------------------------------------
# The top-down builder against the bottom-up one it replaced


class _ReferenceMatrix:
    """The (i, j)-keyed matrix the column format replaced."""

    def __init__(self, nrows, ncols, entries):
        self.nrows, self.ncols, self.entries = nrows, ncols, entries

    @classmethod
    def from_columns(cls, nrows, columns):
        entries = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    entries[(i, j)] = v
        return cls(nrows, len(columns), entries)

    def cols_as_dicts(self):
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols


def _reference_close_and_build(recipe, max_degree):
    # Bottom-up: close every degree while caching each differential, each
    # basis its seeds and then what the degree above names, first seen
    # first, then assemble all matrices from the cache.
    seeds, diff_fn, truncated_at = recipe[:3]
    bases = {n: list(seeds(n)) for n in range(max_degree + 1)}
    diff_cache = {}
    for n in range(max_degree, 0, -1):
        lower = dict.fromkeys(bases.get(n - 1, ()))
        for g in bases.get(n, ()):
            dg = diff_fn(g)
            diff_cache[g] = dg
            for key in dg:
                if key not in lower:
                    lower[key] = None
        bases[n - 1] = list(lower)
    bases = {n: gens for n, gens in bases.items() if gens}
    diffs = {}
    for n in range(1, max_degree + 1):
        if n not in bases:
            continue
        rows = bases.get(n - 1, ())
        row_index = {g: i for i, g in enumerate(rows)}
        columns = [
            {row_index[k]: c for k, c in diff_cache[g].items()} for g in bases[n]
        ]
        diffs[n] = _ReferenceMatrix.from_columns(len(rows), columns)
    return bases, diffs, truncated_at


def _reference_chains_slice(X, max_degree):
    # The normalized chains with their own assembly loop.
    bases = {}
    for d in range(max_degree + 1):
        ids = sorted(X.simplices.get(d, ()))
        if ids:
            bases[d] = ids
    diffs = {}
    for d in range(1, max_degree + 1):
        if d not in bases:
            continue
        rows = bases.get(d - 1, ())
        row_index = {g: i for i, g in enumerate(rows)}
        columns = []
        for s in bases[d]:
            col = {}
            for key, c in boundary(X, s).terms.items():
                col[row_index[key]] = c
            columns.append(col)
        diffs[d] = _ReferenceMatrix.from_columns(len(rows), columns)
    return bases, diffs, None


def _assert_builders_agree(monkeypatch, X, max_degree, max_word_length):
    for complex_name in supported_complexes(X):
        sl = build_complex_slice(X, complex_name, max_degree, max_word_length)
        if complex_name == "chains":
            bases, diffs, truncated_at = _reference_chains_slice(X, max_degree)
        else:
            with monkeypatch.context() as m:
                m.setattr(complexes, "_close_and_build", _reference_close_and_build)
                bases, diffs, truncated_at = build_complex_slice(
                    X, complex_name, max_degree, max_word_length
                )
        assert sl.bases == {n: tuple(b) for n, b in bases.items()}, complex_name
        assert sl.truncated_at == truncated_at
        assert sorted(sl.diffs) == sorted(diffs)
        for n, ref in diffs.items():
            assert (sl.diffs[n].nrows, sl.diffs[n].ncols) == (ref.nrows, ref.ncols)
            assert column_dicts(sl.diffs[n]) == ref.cols_as_dicts(), (complex_name, n)
            assert sl.diffs[n].nnz == len(ref.entries)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_top_down_build_matches_bottom_up_reference(monkeypatch, name):
    _assert_builders_agree(monkeypatch, builtin_space(name), 4, 2)


def test_top_down_build_matches_bottom_up_reference_on_collapsed_delta3_d5(monkeypatch):
    _assert_builders_agree(monkeypatch, builtin_space("collapsed-delta3"), 5, None)


# (space, complex, degree, cap, adopts mid-degree): truncated windows whose
# builds adopt rows after some columns have been keyed, truncated windows
# that happen to be closed, and exact windows
BUILD_WINDOWS = [
    ("torus", "hat-cohoch", 3, 3, True),
    ("torus", "hat-cobar", 3, 3, True),
    ("torus", "hochschild-of-cobar", 3, 2, True),
    ("boundary-delta3", "hat-cohoch", 3, 3, True),
    ("boundary-delta3", "hochschild-of-cobar", 3, 3, True),
    ("circle", "hat-cohoch", 3, 3, False),
    ("circle", "hochschild-of-cobar", 3, 3, False),
    ("collapsed-delta3", "cobar", 6, None, False),
    ("collapsed-delta3", "cohoch", 6, None, False),
    ("collapsed-delta3", "hochschild-of-cobar", 5, None, False),
]


def _triple(matrix):
    return matrix.nrows, matrix.indptr, matrix.indices, matrix.data


@pytest.mark.parametrize(
    "space, complex_name, degree, cap, adopts",
    BUILD_WINDOWS,
    ids=["-".join(map(str, w[:4])) for w in BUILD_WINDOWS],
)
def test_streaming_build_matches_two_pass_builder(
    monkeypatch, space, complex_name, degree, cap, adopts
):
    # Each build's arguments go to the streaming builder and to the
    # two-pass one it replaced: same bases, same columns in the same order.
    builds = []

    def both(recipe, max_degree):
        sl = homalg._close_and_build(recipe, max_degree)
        ref = reference.close_and_build(recipe, max_degree)
        builds.append((*recipe[:2], sl, ref))
        return sl

    monkeypatch.setattr(complexes, "_close_and_build", both)
    build_complex_slice(builtin_space(space), complex_name, degree, cap)
    ((seeds, diff_fn, sl, ref),) = builds
    assert sl.bases == ref.bases
    assert sl.truncated_at == ref.truncated_at
    assert sorted(sl.diffs) == sorted(ref.diffs)
    for n, mat in ref.diffs.items():
        assert sl.diffs[n].nrows == mat.nrows, n
        # the same triple: each column in the order its kernel produced
        assert _triple(sl.diffs[n]) == _triple(mat), n
    # the first column of each degree that names a row the seeds lack
    first_adopting = []
    for n in sl.diffs:
        rows = set(seeds(n - 1))
        first_adopting.append(
            next((j for j, g in enumerate(sl.bases[n]) if not rows.issuperset(diff_fn(g))), None)
        )
    if adopts:
        assert any(first_adopting), first_adopting  # adopted after column 0
    else:
        assert first_adopting == [None] * len(sl.diffs)


def test_adopted_order_is_the_same_under_every_hash_seed():
    # A truncated basis takes what it adopts in the order the columns first
    # name it, so string hashing must not reach the bases or the columns:
    # two interpreters under different hash seeds build the same slices of
    # two windows that adopt mid-degree (see BUILD_WINDOWS).
    import os
    import subprocess
    import sys

    script = (
        "from loophomology.simplicial import builtin_space\n"
        "from loophomology.verify import build_complex_slice\n"
        "for space, name in [('torus', 'hat-cohoch'), ('boundary-delta3', 'hochschild-of-cobar')]:\n"
        "    sl = build_complex_slice(builtin_space(space), name, 3, 3)\n"
        "    print(sl.bases)\n"
        "    print({n: (d.indptr, d.indices, d.data) for n, d in sl.diffs.items()})\n"
    )
    outs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, check=True
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 4


def _strictly_ordered(gens, key):
    keys = list(map(key, gens)) if key else gens
    return all(a < b for a, b in zip(keys, keys[1:]))


def _seed_lists(X, degree):
    """(enumerator, key, seeds) for every seed list a builder takes: plain
    and hat, word caps 1-3."""
    Z = adjoin_inverses(X)
    yield "chains", None, chains_slice(X, degree).bases.get(degree, [])
    settings = [(Z, cap) for cap in (1, 2, 3)]
    if X.is_one_reduced():
        settings.append((X, None))
    for space, cap in settings:
        if cap is None:
            words = cobar.cobar_basis(space, degree)
        else:
            words = cobar.hat_cobar_basis(space, degree, cap)
        yield "words", _word_key, words
        algebra = cobar.CobarAlgebra(space)
        yield "hochschild", _hochschild_key, cobar.hochschild_basis(
            algebra, degree, word_cap=cap
        )
        yield "loops", _loop_key, loopcomplex.cohoch_basis(
            space, degree, max_word_length=cap
        )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_seed_list_comes_in_strict_key_order(name):
    # The builder takes each seed degree as it comes and indexes its rows
    # from the seed list, so every enumerator hands over its generators
    # without repeats, in the order of its shape's flat key.
    X = builtin_space(name)
    for degree in range(7):
        for what, key, seeds in _seed_lists(X, degree):
            assert _strictly_ordered(seeds, key), (what, degree)


def _hat_cohoch(X, degree, cap):
    return cohoch_slice(adjoin_inverses(X), degree, max_word_length=cap)


@pytest.mark.parametrize(
    "space, build, degree, cap",
    [
        ("collapsed-delta3", lambda X, n, cap: hochschild_slice(X, n), 5, None),
        ("collapsed-delta3", lambda X, n, cap: cohoch_slice(X, n), 6, None),
        ("torus", _hat_cohoch, 4, 3),
    ],
    ids=["hochschild-collapsed-delta3-D5", "cohoch-collapsed-delta3-D6", "hat-cohoch-torus-D4-L3"],
)
def test_build_peak_stays_near_what_the_slice_keeps(space, build, degree, cap):
    # The build keys each differential as soon as it is taken, so one raw
    # dict is alive at a time and what it allocates beyond the slice it
    # returns stays small.  A one-degree build first fills the
    # presentation's cached tables, which are not the build's.
    X = builtin_space(space)
    build(X, 1, 1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sl = build(X, degree, cap)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sl.diffs
    assert peak - base <= 1.15 * (kept - base), (peak - base, kept - base)


def test_reduction_peak_stays_small_beside_the_slice():
    # Each block's pivots are built and dropped before the next block
    # starts, so the reduction's transient is bounded by the largest block;
    # whole-matrix row dicts took two thirds of what the slice keeps.
    X = builtin_space("torus")
    _hat_cohoch(X, 1, 1)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sl = _hat_cohoch(X, 4, 3)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for ring in (ZZ, prime_field(2)):
            for n in sl.degrees()[:-1]:  # H_n reads d_n and d_(n+1)
                homology_of_slice(sl, n, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = base - start
    assert peak - base <= 0.3 * kept, (peak - base, kept)


# ---------------------------------------------------------------------------
# The homology pass against the stored slice


def _golden_homology_windows():
    """(space, complex, max degree, cap, rings) of the homology rows of the
    golden sweep, one entry per window."""
    from test_golden_cli import sweep

    windows = {}
    for argv in sweep():
        if argv[0] == "homology":
            opts = dict(zip(argv[1::2], argv[2::2]))
            cap = opts.get("--max-word-length")
            window = (
                opts["--space"], opts["--complex"], int(opts["--max-degree"]), cap and int(cap)
            )
            windows.setdefault(window, []).append(opts.get("--ring", "Z"))
    return [(*window, tuple(rings)) for window, rings in windows.items()]


GOLDEN_HOMOLOGY_WINDOWS = _golden_homology_windows()


def _assert_pass_matches_the_slice(X, complex_name, max_degree, cap, rings):
    # the pass through H_max_degree builds d_(max_degree + 1), as the
    # stored slice does when built one degree up
    try:
        sl = build_complex_slice(X, complex_name, max_degree + 1, cap)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            homalg.homology_pass(complex_recipe(X, complex_name, cap), max_degree)
        return
    for ring in map(parse_ring, rings):
        recipe = complex_recipe(X, complex_name, cap)
        assert recipe[2] == sl.truncated_at
        expected = [homology_of_slice(sl, n, ring) for n in range(max_degree + 1)]
        assert homalg.homology_pass(recipe, max_degree, ring) == expected, ring


@pytest.mark.parametrize(
    "space, complex_name, max_degree, cap, rings",
    GOLDEN_HOMOLOGY_WINDOWS,
    ids=["-".join(map(str, w[:4])) for w in GOLDEN_HOMOLOGY_WINDOWS],
)
def test_homology_pass_matches_the_slice_on_the_golden_sweep(
    space, complex_name, max_degree, cap, rings
):
    _assert_pass_matches_the_slice(builtin_space(space), complex_name, max_degree, cap, rings)


@pytest.mark.parametrize(
    "space, complex_name, degree, cap, adopts",
    BUILD_WINDOWS,
    ids=["-".join(map(str, w[:4])) for w in BUILD_WINDOWS],
)
def test_homology_pass_matches_the_slice_on_the_build_windows(
    space, complex_name, degree, cap, adopts
):
    # the window's slice is built through ``degree``, as there
    _assert_pass_matches_the_slice(
        builtin_space(space), complex_name, degree - 1, cap, ("Z", "Q", "F2", "F3")
    )


def test_tensor_algebra_count_reads_the_wedge_of_three_2_spheres():
    # the figures the count gives for collapsed-delta3 over Z
    entries = reference.tensor_algebra_hochschild(3, 6)
    assert [e.free_rank for e in entries] == [1, 3, 6, 14, 32, 72, 170]
    assert [len(e.torsion) for e in entries] == [0, 0, 3, 0, 3, 0, 11]
    assert {d for e in entries for d in e.torsion} == {2}


def test_tensor_algebra_count_reads_one_degree_per_letter():
    # the figures the count gives for doubled-delta3 over Z, V = Z^3 in
    # degree 1 and Z in degree 2; with one degree for every letter the
    # sequence form is the count form
    entries = reference.tensor_algebra_hochschild((1, 1, 1, 2), 6)
    assert [e.free_rank for e in entries] == [1, 3, 7, 18, 45, 112, 294]
    assert [len(e.torsion) for e in entries] == [0, 0, 3, 0, 3, 0, 14]
    assert {d for e in entries for d in e.torsion} == {2}
    for letters, degree in ((3, 1), (1, 2), (2, 3)):
        for ring in map(parse_ring, ("Z", "F2")):
            assert reference.tensor_algebra_hochschild(
                (degree,) * letters, 7, ring
            ) == reference.tensor_algebra_hochschild(letters, 7, ring, degree)


# collapsed-delta3 is a wedge of three 2-spheres, sphere2 one and sphere3
# a 3-sphere: suspensions, whose free-loop homology is HH_*(T V) with V free
# in degree 1 (in degree 2 for sphere3).  doubled-delta3, which no free pair
# collapses, is a wedge of three 2-spheres and a 3-sphere: V = Z^3 in
# degree 1 and Z in degree 2, letters of both parities
EXACT_WINDOWS = [
    ("collapsed-delta3", (1, 1, 1), "cohoch", 6, ("Z", "Q", "F2", "F3")),
    ("collapsed-delta3", (1, 1, 1), "hat-cohoch", 6, ("Z", "Q", "F2", "F3")),
    ("collapsed-delta3", (1, 1, 1), "hochschild-of-cobar", 5, ("Z", "F2")),
    ("sphere2", (1,), "cohoch", 6, ("Z", "Q", "F2", "F3")),
    ("sphere3", (2,), "cohoch", 6, ("Z", "F2")),
    ("sphere3", (2,), "hochschild-of-cobar", 6, ("Z", "F2")),
    ("doubled-delta3", (1, 1, 1, 2), "cohoch", 5, ("Z", "Q", "F2", "F3")),
    ("doubled-delta3", (1, 1, 1, 2), "hat-cohoch", 5, ("Z", "Q", "F2", "F3")),
    ("doubled-delta3", (1, 1, 1, 2), "hochschild-of-cobar", 5, ("Z", "Q", "F2", "F3")),
]


@pytest.mark.parametrize(
    "space, degrees, complex_name, max_degree, rings",
    EXACT_WINDOWS,
    ids=[f"{w[0]}-{w[2]}-D{w[3]}" for w in EXACT_WINDOWS],
)
def test_homology_pass_matches_the_tensor_algebra_count(
    space, degrees, complex_name, max_degree, rings
):
    recipe = complex_recipe(reference.fixture(space), complex_name, None)
    for ring in map(parse_ring, rings):
        expected = reference.tensor_algebra_hochschild(degrees, max_degree, ring)
        assert homalg.homology_pass(recipe, max_degree, ring) == expected, ring


def _without(matrix, rows):
    # the matrix without the columns of the given generators
    return SparseIntMatrix.from_columns(
        matrix.nrows, [col for j, col in enumerate(column_dicts(matrix)) if j not in rows]
    )


def test_clearing_leaves_every_reduction_unchanged():
    # A unit-lead pivot of d_(n+1) at row r makes generator r's column of
    # d_n redundant: dropping all of them changes no reduction of d_n.
    cleared = 0
    for name in BUILTIN_NAMES:
        X = builtin_space(name)
        for complex_name in supported_complexes(X):
            sl = build_complex_slice(X, complex_name, 5, max_word_length=2)
            for n in sl.degrees()[1:-1]:
                up, down = sl.diffs.get(n + 1), sl.diffs[n]
                if up is None:
                    continue
                for p in (None, 2, 3):
                    _, rank, leads = linalg._reduce(up, p)
                    assert len(set(leads)) == len(leads) <= rank
                    assert p is None or len(leads) == rank
                    dropped = _without(down, set(leads))
                    cleared += down.ncols - dropped.ncols
                    if p is None:  # Z's relations hold mod every p too
                        assert smith_normal_form(dropped) == smith_normal_form(down)
                    for q in (2, 3) if p is None else (p,):
                        assert rank_mod_p(dropped, q) == rank_mod_p(down, q)
                    if p == 2:
                        continue
                    # each pivot is in the span of its block's columns, and
                    # its lead is a unit with every other entry below it
                    for block in up.blocks:
                        columns = [dict(up.column(j)) for j in block]
                        pivots, _ = _unit_pivots(up, block, p)
                        for r, pivot in pivots.items():
                            assert max(pivot) == r
                            assert pivot[r] in ((1, -1) if p is None else (1,))
                        both = SparseIntMatrix.from_columns(up.nrows, columns + list(pivots.values()))
                        alone = SparseIntMatrix.from_columns(up.nrows, columns)
                        if p is None:
                            assert smith_normal_form(both) == smith_normal_form(alone)
                        else:
                            assert rank_mod_p(both, p) == rank_mod_p(alone, p)
    assert cleared > 1000
    # a Z block whose only lead is 2 reports no pivot row, even where its
    # residual has a unit factor; mod 3 it does
    assert linalg._reduce(SparseIntMatrix.from_columns(1, [{0: 2}])) == ([2], 1, [])
    two = SparseIntMatrix.from_columns(2, [{1: 2, 0: 1}])
    assert linalg._reduce(two) == ([1], 1, [])
    assert linalg._reduce(two, 3) == ([], 1, [1])


@pytest.mark.parametrize(
    "space, complex_name, max_degree, cap, ring, passed, stored",
    [
        ("torus", "hat-cohoch", 3, 2, "Z", 822, 1253),
        # mod p a truncated window clears nothing
        ("torus", "hat-cohoch", 3, 2, "F2", 1253, 1253),
        ("collapsed-delta3", "cohoch", 5, None, "F2", 7258, 8853),
    ],
)
def test_the_pass_never_takes_the_differentials_it_clears(
    space, complex_name, max_degree, cap, ring, passed, stored
):
    # kernel calls: the stored build takes d of every generator of degrees
    # 1 .. max_degree + 1, the pass skips the ones d_(n+1) clears
    seeds, diff_fn, truncated_at = complex_recipe(builtin_space(space), complex_name, cap)[:3]
    calls = []

    def counted(g):
        calls.append(g)
        return diff_fn(g)

    recipe = (seeds, counted, truncated_at)
    homalg.homology_pass(recipe, max_degree, parse_ring(ring))
    assert len(calls) == len(set(calls)) == passed
    calls.clear()
    sl = homalg._close_and_build(recipe, max_degree + 1)
    assert len(calls) == sum(len(sl.bases.get(n, ())) for n in range(1, max_degree + 2))
    assert len(calls) == stored


def test_the_pass_peaks_below_what_the_slice_keeps():
    # measured as in test_reduction_peak_stays_small_beside_the_slice: the
    # pass through H_3 builds what a slice through degree 4 stores
    X = builtin_space("torus")
    _hat_cohoch(X, 1, 1)
    recipe = complex_recipe(X, "hat-cohoch", 3)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sl = _hat_cohoch(X, 4, 3)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
        del sl
        gc.collect()
        peaks = []
        for ring in (ZZ, prime_field(2)):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            homalg.homology_pass(recipe, 3, ring)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert max(peaks) < kept, (peaks, kept)


# the exact free-loop windows of the golden sweep, which the pass reduces
# bottom-up through the coboundary kernel
EXACT_GOLDEN_WINDOWS = [
    window[:4]
    for window in GOLDEN_HOMOLOGY_WINDOWS
    if window[1] in ("cohoch", "hat-cohoch") and builtin_space(window[0]).is_one_reduced()
]


def _counted(fn, calls):
    def counted(arg):
        calls.append(arg)
        return fn(arg)

    return counted


@pytest.mark.parametrize(
    "space, complex_name, max_degree, cap",
    EXACT_GOLDEN_WINDOWS,
    ids=["-".join(map(str, w)) for w in EXACT_GOLDEN_WINDOWS],
)
def test_bottom_up_pass_matches_the_stored_slice_on_exact_windows(
    space, complex_name, max_degree, cap
):
    # the stored slice takes d of every generator through max_degree + 1,
    # with no clearing and no coboundary: the independent path
    seeds, diff_fn, truncated_at, codiff_fn = complex_recipe(
        builtin_space(space), complex_name, cap
    )
    assert truncated_at is None
    sl = homalg._close_and_build((seeds, diff_fn, None), max_degree + 1)
    degrees, taken = [], []
    recipe = (_counted(seeds, degrees), _counted(diff_fn, taken), None, codiff_fn)
    for ring in map(parse_ring, ("Z", "Q", "F2", "F3")):
        expected = [homology_of_slice(sl, n, ring) for n in range(max_degree + 1)]
        assert homalg.homology_pass(recipe, max_degree, ring) == expected, ring
        # bottom-up: the top degree's basis is never enumerated and no
        # differential is taken
        assert degrees == list(range(max_degree + 1)) and not taken
        degrees.clear()


@pytest.mark.parametrize(
    "space, complex_name, max_degree, cap",
    EXACT_GOLDEN_WINDOWS,
    ids=["-".join(map(str, w)) for w in EXACT_GOLDEN_WINDOWS],
)
def test_bottom_up_matrices_are_the_stored_differentials_transposed(
    space, complex_name, max_degree, cap
):
    # bottom-up rows are the next degree's seeds in enumeration order, as
    # top-down: with nothing cleared, delta^n is the stored d_(n+1)
    # transposed entry for entry, rows and columns in basis order
    seeds, diff_fn, _, codiff_fn = complex_recipe(builtin_space(space), complex_name, cap)
    sl = homalg._close_and_build((seeds, diff_fn, None), max_degree)
    sizes = {}
    built = list(homalg._closed_degrees(seeds, codiff_fn, range(max_degree + 1), sizes))
    assert [n for n, _ in built] == list(range(1, max_degree + 1))
    for n, delta in built:
        d = sl.differential(n)
        transposed = [{} for _ in range(d.nrows)]
        for j, col in enumerate(column_dicts(d)):
            for i, c in col.items():
                transposed[i][j] = c
        assert (delta.nrows, column_dicts(delta)) == (d.ncols, transposed), n
    assert sizes == {n: len(sl.bases.get(n, ())) for n in range(max_degree + 1)}


@pytest.mark.parametrize(
    "space, complex_name, max_degree, cap",
    EXACT_GOLDEN_WINDOWS,
    ids=["-".join(map(str, w)) for w in EXACT_GOLDEN_WINDOWS],
)
def test_the_top_coboundary_is_the_stored_differential_in_named_order(
    space, complex_name, max_degree, cap
):
    # the top matrix, built row by row into its triple: a column per
    # generator one degree up, in the order the coboundaries first name
    # them, that is the stored d_(top+1)'s column with its rows ascending
    seeds, diff_fn, _, codiff_fn = complex_recipe(builtin_space(space), complex_name, cap)
    sl = homalg._close_and_build((seeds, diff_fn, None), max_degree + 1)
    *_, (n, top) = homalg._coclosed_degrees(seeds, codiff_fn, max_degree, {}, set())
    d = sl.differential(n)
    named = list(dict.fromkeys(h for g in sl.bases.get(max_degree, ()) for h in codiff_fn(g)))
    position = {h: j for j, h in enumerate(sl.bases.get(n, ()))}
    assert (top.nrows, top.ncols) == (d.nrows, len(named))
    for j, h in enumerate(named):
        assert list(top.column(j)) == sorted(d.column(position[h])), h


@pytest.mark.parametrize("complex_name", ["cohoch", "hat-cohoch"])
def test_bottom_up_pass_on_a_space_whose_rules_split_letters(complex_name):
    # collapsed-delta4, a wedge of six 2-spheres: the stored slice, the
    # top-down pass and the count agree with the bottom-up pass
    X = reference.collapsed_simplex(4)
    assert validate(X) == []
    recipe = complex_recipe(X, complex_name, None)
    sl = homalg._close_and_build(recipe, 4)
    for ring in map(parse_ring, ("Z", "Q", "F2", "F3")):
        expected = [homology_of_slice(sl, n, ring) for n in range(4)]
        assert expected == reference.tensor_algebra_hochschild(6, 3, ring)
        assert homalg.homology_pass(recipe[:3], 3, ring) == expected, ring
        assert homalg.homology_pass(recipe, 3, ring) == expected, ring


def test_bottom_up_pass_never_takes_the_coboundaries_it_clears():
    # collapsed-delta3 through H_5 over F2: 2089 generators in degrees
    # 0 .. 5, of which delta^1 .. delta^4 clear 1 + 11 + 61 + 281; the
    # top-down pass takes 7258 differentials (see above)
    seeds, diff_fn, _, codiff_fn = complex_recipe(builtin_space("collapsed-delta3"), "cohoch")
    calls = []
    recipe = (seeds, diff_fn, None, _counted(codiff_fn, calls))
    homalg.homology_pass(recipe, 5, parse_ring("F2"))
    assert len(calls) == len(set(calls)) == 2089 - 354
    assert sum(len(seeds(n)) for n in range(6)) == 2089


@pytest.mark.parametrize(
    "kind, p, message",
    [
        ("R", None, "unknown ring kind 'R'"),
        ("Z", 3, "modulus only makes sense for prime fields"),
    ],
)
def test_a_ring_other_than_z_q_or_f_p_is_refused(kind, p, message):
    with pytest.raises(ValueError) as err:
        Ring(kind, p)
    assert str(err.value) == message


def test_a_slice_refuses_a_differential_of_the_wrong_shape():
    with pytest.raises(ValueError) as err:
        ComplexSlice({0: ["a"], 1: ["b"]}, {1: SparseIntMatrix.from_columns(2, [{}])})
    assert str(err.value) == "differential at degree 1 has shape 2x1, bases demand 1x1"


@pytest.mark.parametrize(
    "build",
    [
        lambda X: chains_slice(X, -1),
        lambda X: cobar.cobar_slice(X, -1),
        lambda X: hochschild_slice(X, -1),
        lambda X: cohoch_slice(X, -1),
        lambda X: build_complex_slice(X, "hat-cohoch", -1),
        # an exact cohoch window runs bottom-up, through its coboundary kernel
        lambda X: homalg.homology_pass(complex_recipe(X, "cohoch"), -1),
    ],
    ids=["chains", "cobar", "hochschild", "cohoch", "build_complex_slice", "pass"],
)
def test_a_negative_max_degree_is_refused(build):
    with pytest.raises(ValueError) as err:
        build(builtin_space("sphere2"))
    assert str(err.value) == "max_degree must be >= 0, not -1"
