import gc
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import _eliminate_units, _generator_sort_key, _row_dicts, coordinates
from loophomology.homalg import (
    Chain,
    ComplexSlice,
    HomologyEntry,
    HomologySummary,
    IncompleteSliceError,
    SparseIntMatrix,
    ZZ,
    _unit_pivots,
    check_d_squared,
    homology_of_slice,
    parse_ring,
    prime_field,
    rank_mod_p,
    smith_normal_form,
)
from loophomology import cobar, complexes, homalg, loopcomplex
from loophomology.simplicial import (
    BUILTIN_NAMES,
    adjoin_inverses,
    boundary,
    builtin_space,
    chains_slice,
)
from loophomology.loopcomplex import cohoch_slice, hochschild_slice
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
    assert [n for n in range(500) if homalg._is_prime(n)] == primes


def test_chain_arithmetic():
    c = Chain(ZZ, {"a": 2})
    c.add("a", -2)
    assert c.is_zero
    f2 = Chain(prime_field(2), {"a": 2})
    assert f2.is_zero
    c = Chain(ZZ, {"a": 1, "b": -3})
    assert c.coefficient("b") == -3
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
    two_three = SparseIntMatrix(2, [{0: 2}, {1: 3}])
    assert [list(b) for b in two_three.blocks] == [[0], [1]]
    assert smith_normal_form(two_three) == ([1, 6], 2)
    assert smith_normal_form(SparseIntMatrix(2, [{1: 4}, {0: 2}])) == ([2, 4], 2)
    # -1, 2 and -3 are odd, even and odd; over F3 only -3 vanishes
    signs = SparseIntMatrix(3, [{0: -1}, {1: 2}, {2: -3}])
    assert rank_mod_p(signs, 2) == 2 and rank_mod_p(signs, 3) == 2
    assert smith_normal_form(signs) == ([1, 1, 6], 3)
    # empty columns between blocks belong to none; a block may be joined
    # only through a later column
    gaps = SparseIntMatrix(
        4, [{}, {0: 2}, {}, {3: 1, 1: 1}, {}, {2: 1}, {1: 1, 2: -1}, {}]
    )
    assert [list(b) for b in gaps.blocks] == [[1], [3, 5, 6]]
    assert smith_normal_form(gaps) == ([1, 1, 1, 2], 4)
    assert rank_mod_p(gaps, 2) == 3 and rank_mod_p(gaps, 3) == 4
    assert SparseIntMatrix(3, [{}, {}]).blocks == []
    assert smith_normal_form(SparseIntMatrix(3, [{}, {}])) == ([], 0)


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
    matrix = SparseIntMatrix(
        nrows,
        [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)],
    )
    assert smith_normal_form(matrix) == reference._snf_rows(_row_dicts(dense))
    for p in (2, 3):
        assert rank_mod_p(matrix, p) == _eliminate_units(_row_dicts(dense, p), p)


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
        columns = [
            {i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)
        ]
        pivots, residual = _unit_pivots(columns)
        residuals.append(len(residual))
        factors, rank = reference._snf_rows(residual)
        rows = _row_dicts(dense)
        units = _eliminate_units(rows)
        ref_factors, ref_rank = reference._snf_rows(rows)
        assert [1] * pivots + factors == [1] * units + ref_factors
        assert pivots + rank == units + ref_rank
        for p in (3, 5):
            assert _unit_pivots(columns, p) == (_eliminate_units(_row_dicts(dense, p), p), {})

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
    assert homalg._snf_rows(_row_dicts(pinned)) == ([1, 1, 4], 3)
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
        assert homalg._snf_rows(_row_dicts(dense)) == expected

    check()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 72), max_size=8))
def test_divisibility_chain_takes_one_pass(factors):
    expected = reference._divisibility_chain(list(factors))
    assert homalg._divisibility_chain(list(factors)) == expected


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
        {0: ["a"], 1: ["b"]}, {1: SparseIntMatrix(1, [{0: 2}])}
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
        {0: ["a"], 1: ["b"]}, {1: SparseIntMatrix(1, [{0: 2}])}
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
    d1 = [sl.diffs[1].columns[j] for j in perm]
    d2 = [{inv[i]: v for i, v in col.items()} for col in sl.diffs[2].columns]
    shuffled = ComplexSlice(
        {0: sl.bases[0], 1: edges, 2: sl.bases[2]},
        {
            1: SparseIntMatrix(4, d1),
            2: SparseIntMatrix(6, d2),
        },
    )
    assert [homology_of_slice(shuffled, n) for n in range(3)] == base


def test_homology_builds_no_index_and_coordinates_build_one_per_degree():
    sl = build_complex_slice(builtin_space("torus"), "hat-cohoch", 4, max_word_length=2)
    for n in sl.degrees()[:-1]:  # H_n reads d_n and d_(n+1)
        homology_of_slice(sl, n)
        homology_of_slice(sl, n, prime_field(2))
    assert sl.index == {}
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
        prev_cols = {j for j, col in enumerate(prev.columns) if col}
        columns = sl.diffs[n].columns
        for i, j, v in sorted(
            (i, j, v) for j, col in enumerate(columns) for i, v in col.items()
        ):
            if i in prev_cols:
                flipped = [dict(col) for col in columns]
                flipped[j][i] = -v
                diffs = dict(sl.diffs)
                diffs[n] = SparseIntMatrix(sl.diffs[n].nrows, flipped)
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
    parsed = HomologySummary.parse_json_lines(summary.to_json_lines())
    assert parsed.entries == summary.entries
    truncated = HomologySummary(
        [HomologyEntry(0, 3)], space="circle", complex_name="hat-cohoch", truncated_at=2
    )
    parsed = HomologySummary.parse_json_lines(truncated.to_json_lines())
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


def _reference_close_and_build(
    bases_by_degree, diff_fn, max_degree, key=None, truncated_at=None
):
    # Bottom-up: close every degree while caching each differential, sort
    # every basis by the recursive key (ignoring the builder's flat key),
    # then assemble all matrices from the cache.
    bases = {n: list(gens) for n, gens in bases_by_degree.items()}
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
    sort_key = _generator_sort_key
    bases = {n: sorted(gens, key=sort_key) for n, gens in bases.items() if gens}
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
        with monkeypatch.context() as m:
            m.setattr(cobar, "_close_and_build", _reference_close_and_build)
            m.setattr(loopcomplex, "_close_and_build", _reference_close_and_build)
            m.setattr(complexes, "chains_slice", _reference_chains_slice)
            bases, diffs, truncated_at = build_complex_slice(
                X, complex_name, max_degree, max_word_length
            )
        assert sl.bases == {n: tuple(b) for n, b in bases.items()}, complex_name
        assert sl.truncated_at == truncated_at
        assert sorted(sl.diffs) == sorted(diffs)
        for n, ref in diffs.items():
            assert (sl.diffs[n].nrows, sl.diffs[n].ncols) == (ref.nrows, ref.ncols)
            assert sl.diffs[n].columns == ref.cols_as_dicts(), (complex_name, n)
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


@pytest.mark.parametrize(
    "space, complex_name, degree, cap, adopts",
    BUILD_WINDOWS,
    ids=["-".join(map(str, w[:4])) for w in BUILD_WINDOWS],
)
def test_streaming_build_matches_two_pass_builder(
    monkeypatch, space, complex_name, degree, cap, adopts
):
    # Each build's arguments go to the streaming builder and to the
    # two-pass one it replaced: same bases, same column dicts.
    builds = []

    def both(seeds, diff_fn, max_degree, key, truncated_at=None):
        sl = homalg._close_and_build(seeds, diff_fn, max_degree, key, truncated_at)
        ref = reference.close_and_build(seeds, diff_fn, max_degree, key, truncated_at)
        builds.append((seeds, diff_fn, sl, ref))
        return sl

    monkeypatch.setattr(cobar, "_close_and_build", both)
    monkeypatch.setattr(loopcomplex, "_close_and_build", both)
    build_complex_slice(builtin_space(space), complex_name, degree, cap)
    ((seeds, diff_fn, sl, ref),) = builds
    assert sl.bases == ref.bases
    assert sl.truncated_at == ref.truncated_at
    assert sorted(sl.diffs) == sorted(ref.diffs)
    for n, mat in ref.diffs.items():
        assert sl.diffs[n].nrows == mat.nrows, n
        assert sl.diffs[n].columns == mat.columns, n
    # the first column of each degree that names a row the seeds lack
    first_adopting = []
    for n in sl.diffs:
        rows = set(seeds.get(n - 1, ()))
        first_adopting.append(
            next((j for j, g in enumerate(sl.bases[n]) if not rows.issuperset(diff_fn(g))), None)
        )
    if adopts:
        assert any(first_adopting), first_adopting  # adopted after column 0
    else:
        assert first_adopting == [None] * len(sl.diffs)


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
        yield "words", cobar._word_key, words
        algebra = cobar.CobarAlgebra(space)
        yield "hochschild", cobar._hochschild_key, cobar.hochschild_basis(
            algebra, degree, word_cap=cap
        )
        yield "loops", loopcomplex._loop_key, loopcomplex.cohoch_basis(
            space, degree, max_word_length=cap
        )


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_seed_list_comes_in_strict_key_order(name):
    # The builder takes each seed degree as it comes and indexes its rows
    # from the seed list, so every enumerator must hand over its generators
    # in the builder's key order, without repeats.
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
