import gc
import itertools
import random
import tracemalloc

import pytest

from loophomology.homalg import (
    Chain,
    ComplexSlice,
    HomologyEntry,
    HomologySummary,
    IncompleteSliceError,
    SparseIntMatrix,
    ZZ,
    _row_dicts,
    _snf_rows,
    check_d_squared,
    homology_of_slice,
    parse_ring,
    prime_field,
    rank_mod_p,
    smith_normal_form,
)
from loophomology import cobar, homalg, loopcomplex, verify
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


def test_chain_arithmetic():
    c = Chain(ZZ, {"a": 2})
    c.add("a", -2)
    assert c.is_zero
    f2 = Chain(prime_field(2), {"a": 2})
    assert f2.is_zero
    c = Chain(ZZ, {"a": 1, "b": -3})
    assert c.coefficient("b") == -3
    assert c.items() == [("a", 1), ("b", -3)]


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
        assert (factors, rank) == _snf_rows(_row_dicts(rows))
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
    assert (factors, rank) == _snf_rows(_row_dicts(matrix))
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


def test_reductions_agree_on_builtin_differentials():
    torsion = 0
    for name in BUILTIN_NAMES:
        X = builtin_space(name)
        for complex_name in supported_complexes(X):
            sl = build_complex_slice(X, complex_name, 4, max_word_length=2)
            for d in sl.diffs.values():
                torsion += any(f > 1 for f in _assert_reductions_agree(d))
    assert torsion  # the general loop after the unit pass is exercised


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
    sl = chains_slice(builtin_space("sphere2"), 2)
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
    sl = chains_slice(builtin_space("boundary-delta3"), 2)
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


def test_incomplete_slice_error():
    sl = ComplexSlice({0: ["a"], 1: ["b"]}, {})
    with pytest.raises(IncompleteSliceError):
        homology_of_slice(sl, 0)


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


def _reference_close_and_build(bases_by_degree, diff_fn, max_degree, truncated_at=None):
    # Bottom-up: close every degree while caching each differential, sort
    # every basis, then assemble all matrices from the cache.
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
    sort_key = homalg._generator_sort_key
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
            m.setattr(verify, "chains_slice", _reference_chains_slice)
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


def _hat_cohoch(X, degree, cap):
    return cohoch_slice(adjoin_inverses(X), degree, hat=True, max_word_length=cap)


@pytest.mark.parametrize(
    "space, build, degree, cap",
    [
        ("collapsed-delta3", lambda X, n, cap: hochschild_slice(X, n), 5, None),
        ("torus", _hat_cohoch, 4, 3),
    ],
    ids=["hochschild-collapsed-delta3-D5", "hat-cohoch-torus-D4-L3"],
)
def test_build_peak_stays_near_what_the_slice_keeps(space, build, degree, cap):
    # The build holds one degree's keyed differentials at a time, so what it
    # allocates beyond the slice it returns stays small.  A one-degree build
    # first fills the presentation's cached tables, which are not the build's.
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
    assert peak - base <= 1.3 * (kept - base), (peak - base, kept - base)
