import gc
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from loophomology.homalg import check_d_squared
from loophomology.linalg import Chain, ZZ
from loophomology.presentation import SimplicialError, adjoin_inverses, endpoints
from loophomology.simplicial import BUILTIN_NAMES, builtin_space
from loophomology.cobar import (
    CobarAlgebra,
    bar_differential,
    cobar_differential,
    cobar_slice,
    hochschild_basis,
    word_degree,
)
from loophomology import comparison
from loophomology import loopcomplex as loop_mod
from loophomology.complexes import build_complex_slice
from loophomology.comparison import (
    CHI_VARIANTS,
    chi,
    contraction_s,
    eta,
    in_rho_kernel,
    necklical_differential,
    necklical_face,
    phi,
)
from loophomology.loopcomplex import (
    cohoch_basis,
    cohoch_differential,
    cohoch_slice,
    hochschild_differential,
    hochschild_slice,
)
from reference import _loop_key, collapsed_simplex, fixture, phi_chain

S2 = builtin_space("sphere2")
POINT = builtin_space("point")


def circle_ext():
    return adjoin_inverses(builtin_space("circle"))


def chi_walk(space, variants, max_degree):
    # the chi sweep's walk over the two slices it builds through max_degree
    return comparison.phi_slice_mismatches(
        space, variants, hochschild_slice(space, max_degree), cohoch_slice(space, max_degree)
    )


# ---------------------------------------------------------------------------
# a word entry that is not a letter

NOT_A_LETTER = {
    "word_degree": lambda space, a: word_degree(space, ("zz", a)),
    "cobar_differential": lambda space, a: cobar_differential(space, (a, "zz")),
    "cohoch_differential": lambda space, a: cohoch_differential(space, ("v", (a, "zz"))),
    "hochschild_differential": lambda space, a: hochschild_differential(
        CobarAlgebra(space), (((a,),), ("zz",))
    ),
    "bar_differential": lambda space, a: bar_differential(
        CobarAlgebra(space), ((a,), ("zz", a))
    ),
    "necklical_differential": lambda space, a: necklical_differential(
        space, ("v", (a, "zz"))
    ),
    "necklical_face": lambda space, a: necklical_face(space, 0, 1, ("v", (a, "zz"))),
    "chi": lambda space, a: chi(space, (a, "zz"), ()),
}


@pytest.mark.parametrize("space_name", ["collapsed-delta3", "Z(torus)"])
@pytest.mark.parametrize("function", sorted(NOT_A_LETTER))
def test_an_unknown_letter_is_a_simplicial_error(function, space_name):
    if space_name == "Z(torus)":
        space, letter = adjoin_inverses(builtin_space("torus")), "a~"
    else:
        space, letter = builtin_space(space_name), "q0"
    with pytest.raises(SimplicialError, match="'zz' is not in the reduced letter basis"):
        NOT_A_LETTER[function](space, letter)


# ---------------------------------------------------------------------------
# bases


def test_cohoch_basis_sphere2_degree3():
    assert cohoch_basis(S2, 3) == [("s", ("s",)), ("v", ("s", "s", "s"))]


def test_cohoch_basis_circle_hat():
    ext = circle_ext()
    assert cohoch_basis(ext, 0, max_word_length=1) == [
        ("v", ()),
        ("v", ("t",)),
        ("v", ("t~",)),
    ]


def test_cohoch_basis_point():
    assert cohoch_basis(adjoin_inverses(POINT), 0, max_word_length=1) == [("v", ())]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cohoch_basis_comes_in_loop_key_order(monkeypatch, name):
    X = builtin_space(name)
    spaces = [adjoin_inverses(X)]
    if X.is_one_reduced():
        spaces.append(X)
    real = loop_mod.words_between
    for space in spaces:
        for n in range(5):
            calls = Counter()

            def counted(*args):
                calls[args] += 1
                return real(*args)

            monkeypatch.setattr(loop_mod, "words_between", counted)
            basis = cohoch_basis(space, n, max_word_length=2)
            monkeypatch.undo()
            assert basis == sorted(set(basis), key=_loop_key)
            # one enumeration per distinct (start, end, degree, cap)
            assert set(calls.values()) <= {1}


def test_cohoch_basis_requires_one_reduced():
    with pytest.raises(SimplicialError) as err:
        cohoch_basis(builtin_space("torus"), 2)
    assert "'a'" in str(err.value)


def test_cohoch_basis_cap_independent_when_one_reduced():
    for n in range(5):
        small = cohoch_basis(adjoin_inverses(S2), n, max_word_length=n or 1)
        large = cohoch_basis(adjoin_inverses(S2), n, max_word_length=n + 3)
        assert small == large


# ---------------------------------------------------------------------------
# the coalgebra-formula differential


def test_cohoch_differential_sphere2_family():
    # d(s (x) [s^k]) = ((-1)^k - 1) (v (x) [s^{k+1}])
    for k in range(5):
        expect = Chain(ZZ)
        if k % 2:
            expect.add(("v", ("s",) * (k + 1)), -2)
        assert cohoch_differential(S2, ("s", ("s",) * k)) == expect


def test_cohoch_differential_vertex():
    assert cohoch_differential(S2, ("v", ())).is_zero
    assert cohoch_differential(adjoin_inverses(POINT), ("v", ())).is_zero


def test_cohoch_differential_circle_cancellation():
    ext = circle_ext()
    for k in range(4):
        assert cohoch_differential(ext, ("t", ("t",) * k)).is_zero


# ---------------------------------------------------------------------------
# face operators


def test_necklical_face_examples():
    assert necklical_face(S2, 0, 1, ("s", ())) == ("v", ("s",))
    # the last rotation moves the whole simplex into the word
    assert necklical_face(S2, 2, 2, ("s", ())) == ("v", ("s",))
    bd = adjoin_inverses(builtin_space("boundary-delta3"))
    assert necklical_face(bd, 1, 2, ("012", ("23",))) == ("02", ("23",))


def test_necklical_face_zero_markers():
    # front of the split is the degenerate edge of the one-vertex sphere
    assert necklical_face(S2, 0, 2, ("s", ())) is None
    assert necklical_face(S2, 1, 2, ("s", ())) is None


def test_necklical_face_index_errors():
    with pytest.raises(SimplicialError):
        necklical_face(S2, 0, 3, ("s", ()))
    with pytest.raises(SimplicialError):
        necklical_face(S2, 2, 3, ("s", ()))
    with pytest.raises(SimplicialError):
        necklical_face(S2, 3, 1, ("s", ()))


def test_necklical_differential_examples():
    assert necklical_differential(S2, ("s", ("s",))) == cohoch_differential(
        adjoin_inverses(S2), ("s", ("s",))
    )
    assert necklical_differential(S2, ("s", ("s",))) == Chain(
        ZZ, {("v", ("s", "s")): -2}
    )
    assert necklical_differential(S2, ("v", ())).is_zero


def test_necklical_squares_to_zero_circle():
    ext = circle_ext()
    for n in range(4):
        for gen in cohoch_basis(ext, n, max_word_length=4):
            total = Chain(ZZ)
            for key, c in necklical_differential(ext, gen).terms.items():
                total.add_chain(necklical_differential(ext, key), c)
            assert total.is_zero


def test_agreement_small_torus():
    ext = adjoin_inverses(builtin_space("torus"))
    for n in range(3):
        for gen in cohoch_basis(ext, n, max_word_length=2):
            assert necklical_differential(ext, gen) == cohoch_differential(ext, gen)


def test_agreement_boundary_delta3():
    ext = adjoin_inverses(builtin_space("boundary-delta3"))
    total = 0
    for n in range(4):
        for gen in cohoch_basis(ext, n, max_word_length=3):
            total += 1
            assert necklical_differential(ext, gen) == cohoch_differential(ext, gen)
    assert total > 100


def _satisfies_endpoint_condition(ext, gen):
    """min x = max(last letter), max x = min(first letter), and the letters
    chain end to start; an empty word needs min x = max x."""
    x, w = gen
    if x not in ext.underlying.ids():
        return False
    lo, hi = endpoints(ext.underlying, x)
    if not w:
        return lo == hi
    ends = [endpoints(ext, a) for a in w]
    if ends[0][0] != hi or ends[-1][1] != lo:
        return False
    return all(ends[k][1] == ends[k + 1][0] for k in range(len(w) - 1))


def test_differential_outputs_stay_valid():
    # every output generator satisfies the cyclic endpoint condition
    ext = adjoin_inverses(builtin_space("boundary-delta3"))
    for n in range(1, 4):
        for gen in cohoch_basis(ext, n, max_word_length=3):
            assert _satisfies_endpoint_condition(ext, gen)
            for key in necklical_differential(ext, gen).terms:
                assert _satisfies_endpoint_condition(ext, key)
            for key in cohoch_differential(ext, gen).terms:
                assert _satisfies_endpoint_condition(ext, key)


# ---------------------------------------------------------------------------
# Hochschild side


def test_hochschild_empty_barword():
    CD = builtin_space("collapsed-delta3")
    alg = CobarAlgebra(CD)
    d = hochschild_differential(alg, ((), ("w",)))
    expect = Chain(ZZ)
    for key, c in alg.differential(("w",)).items():
        expect.add(((), key), c)
    assert d == expect and not d.is_zero


def test_hochschild_single_letter_cancellation():
    alg = CobarAlgebra(S2)
    assert hochschild_differential(alg, ((("s",),), ())).is_zero


def test_hochschild_squares_to_zero():
    sl = hochschild_slice(S2, 6)
    assert check_d_squared(sl) == []
    assert [len(sl.bases[n]) for n in range(7)] == [1, 1, 2, 3, 5, 8, 13]


# ---------------------------------------------------------------------------
# comparison maps


def test_chi_examples():
    assert chi(S2, (), ("s",)).is_zero
    assert chi(S2, ("s",), ("s",)) == Chain(ZZ, {("s", ("s",)): 1})
    # the two rotation terms of [s|s] land on the same generator and cancel
    assert chi(S2, ("s", "s"), ()).is_zero


def test_phi_examples():
    assert phi(S2, ((), ("s",))) == Chain(ZZ, {("v", ("s",)): 1})
    assert phi(S2, ((("s",), ("s",)), ())).is_zero
    # single-letter case carries the wrap-term orientation
    assert phi(S2, ((("s",),), ())) == Chain(ZZ, {("s", ()): -1})


def test_phi_chain_map_on_spheres():
    for name in ("sphere2", "sphere3"):
        bad = chi_walk(builtin_space(name), ("rotation",), 6)
        assert bad["rotation"] == []


def test_chi_index_readings_fail_on_mixed_parities():
    CD = builtin_space("collapsed-delta3")
    bad = chi_walk(CD, CHI_VARIANTS, 4)
    assert bad["rotation"] == []
    assert bad["index-low"]
    assert bad["index-high"]


def _reference_mismatches(space, variant, max_degree):
    """One walk per chi reading: the reference the shared walk must match."""
    algebra = CobarAlgebra(space)
    bad = []
    for n in range(max_degree + 1):
        for gen in hochschild_basis(algebra, n):
            lhs = phi_chain(space, hochschild_differential(algebra, gen), variant=variant)
            rhs = Chain(ZZ)
            for key, c in phi(space, gen, variant=variant).terms.items():
                rhs.add_chain(cohoch_differential(space, key), c)
            if lhs != rhs:
                bad.append(gen)
    return bad


# sphere2 reaches a generator with three bar letters in degree 6
CHI_WALKS = [("collapsed-delta3", 4), ("sphere2", 6)]


@pytest.mark.parametrize("name, max_degree", CHI_WALKS)
def test_chi_walk_matches_one_reading_reference(name, max_degree):
    X = builtin_space(name)
    walk = chi_walk(X, CHI_VARIANTS, max_degree)
    assert list(walk) == list(CHI_VARIANTS)
    for variant in CHI_VARIANTS:
        assert walk[variant] == _reference_mismatches(X, variant, max_degree)


@pytest.mark.parametrize("name, max_degree", CHI_WALKS)
def test_chi_walk_takes_each_differential_once(monkeypatch, name, max_degree):
    # The walk reads the matrices of the two slices it builds: each
    # Hochschild and each free-loop differential is taken once per
    # generator of positive degree, and none again for the checks.
    X = builtin_space(name)
    hoch = hochschild_slice(X, max_degree)
    loop = cohoch_slice(X, max_degree)
    hoch_calls = {}
    loop_calls = {}

    def counted(calls, make_kernel):
        def counted_kernel(*args):
            kernel = make_kernel(*args)

            def terms(gen):
                calls[gen] = calls.get(gen, 0) + 1
                return kernel(gen)

            return terms

        return counted_kernel

    monkeypatch.setattr(
        loop_mod, "_hochschild_kernel", counted(hoch_calls, loop_mod._hochschild_kernel)
    )
    monkeypatch.setattr(
        loop_mod, "_cohoch_kernel", counted(loop_calls, loop_mod._cohoch_kernel)
    )
    assert chi_walk(X, CHI_VARIANTS, max_degree)["rotation"] == []
    assert hoch_calls == {g: 1 for n in hoch.degrees() if n for g in hoch.bases[n]}
    assert loop_calls == {g: 1 for n in loop.degrees() if n for g in loop.bases[n]}


def test_chi_walk_splices_each_rotation_once_whatever_the_readings(monkeypatch):
    # the rotations of a single bar letter are the same words under every
    # reading: one _splice call each, for one reading or for three
    X = builtin_space("collapsed-delta3")
    hoch = hochschild_slice(X, 4)
    loop = cohoch_slice(X, 4)
    expected = Counter(
        (a[i:], u, a[: i - 1])
        for n in hoch.degrees()
        for b, u in hoch.bases[n]
        if len(b) == 1
        for a in b
        for i in range(1, len(a) + 1)
    )
    assert expected
    real = comparison._splice
    for variants in (("rotation",), CHI_VARIANTS):
        calls = Counter()

        def counted(head, mid, tail, op_pairs):
            calls[head, mid, tail] += 1
            return real(head, mid, tail, op_pairs)

        monkeypatch.setattr(comparison, "_splice", counted)
        comparison.phi_slice_mismatches(X, variants, hoch, loop)
        assert calls == expected


def test_chi_walk_keeps_only_the_images_the_next_degree_reads():
    # The walk takes each generator's gap as soon as its image is taken and
    # keeps an image only for a row of the next degree's d, none in the top
    # degree; holding every image of two degrees peaked at ~1 MB here.
    X = builtin_space("collapsed-delta3")
    hoch = build_complex_slice(X, "hochschild-of-cobar", 5)
    loop = build_complex_slice(X, "cohoch", 5)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bad = comparison.phi_slice_mismatches(X, CHI_VARIANTS, hoch, loop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(bad[v]) for v in CHI_VARIANTS] == [349, 356, 0]
    assert peak - base < 600_000, peak - base


def test_eta_examples():
    assert eta(S2, "s") == Chain(ZZ, {((("s",),)): 1})
    bd = builtin_space("boundary-delta3")
    assert eta(bd, "012") == Chain(
        ZZ, {(("012",),): 1, (("01",), ("12",)): 1}
    )
    CD = builtin_space("collapsed-delta3")
    assert eta(CD, "q0") == Chain(ZZ, {(("q0",),): 1})
    with pytest.raises(SimplicialError):
        eta(S2, "v")


def test_contraction_examples():
    assert contraction_s(S2, (("s",), ("s",))).is_zero
    split = contraction_s(S2, (("s", "s"),))
    assert split == Chain(ZZ, {(("s",), ("s",)): -1})
    with pytest.raises(SimplicialError):
        contraction_s(S2, (("s",),))  # single one-letter bar word: not in ker
    assert in_rho_kernel((("s", "s"),))
    assert not in_rho_kernel((("s",),))
    assert not in_rho_kernel(())


def _rational_rank(rows):
    rows = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    col = 0
    width = max((len(r) for r in rows), default=0)
    while rows and col < width:
        pivot = next((i for i, r in enumerate(rows) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        row = rows.pop(pivot)
        rank += 1
        row = [v / row[col] for v in row]
        rows = [
            [v - r[col] * w for v, w in zip(r, row)] for r in rows
        ]
        rows = [r for r in rows if any(r)]
        col += 1
    return rank


def _nullspace(rows, ncols):
    # rational kernel basis as integer-free Fraction vectors
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [v - c * w for v, w in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -rows[prow][fc]
        basis.append(vec)
    return basis


def test_kernel_of_phi_is_acyclic():
    # rank computation: H_n(ker phi) = 0 for 1 <= n <= 5 over ΩC(sphere2)
    alg = CobarAlgebra(S2)
    top = 6
    hoch = {n: hochschild_basis(alg, n) for n in range(top + 1)}
    loops = {n: cohoch_basis(S2, n) for n in range(top + 1)}
    kernels = {}
    images = {}
    for n in range(top + 1):
        rows = []
        idx = {g: i for i, g in enumerate(loops[n])}
        for target in loops[n]:
            row = [0] * len(hoch[n])
            rows.append(row)
        for j, g in enumerate(hoch[n]):
            for key, c in phi(S2, g).terms.items():
                rows[idx[key]][j] = c
        kernels[n] = _nullspace(rows, len(hoch[n]))
    for n in range(1, top + 1):
        idx = {g: i for i, g in enumerate(hoch[n - 1])}
        cols = []
        for vec in kernels[n]:
            image = [Fraction(0)] * len(hoch[n - 1])
            for j, coef in enumerate(vec):
                if coef:
                    for key, c in hochschild_differential(alg, hoch[n][j]).terms.items():
                        image[idx[key]] += coef * c
            cols.append(image)
        images[n] = _rational_rank(cols)
    for n in range(1, 6):
        betti = len(kernels[n]) - images[n] - images[n + 1]
        assert betti == 0, f"ker phi has homology in degree {n}"


def test_free_loops_of_sphere3():
    # the 3-sphere carries a group structure, so its free loop space splits
    # as S^3 x (based loops): integral homology Z in degree 0 and in every
    # degree >= 2, nothing in degree 1, no torsion
    from loophomology.homalg import homology_of_slice

    sl = cohoch_slice(builtin_space("sphere3"), 9)
    for n in range(9):
        entry = homology_of_slice(sl, n)
        expected = 1 if n == 0 or n >= 2 else 0
        assert entry.free_rank == expected and entry.torsion == ()


def test_hochschild_and_cohoch_agree_on_collapsed_delta3():
    # collapsed-delta3 realizes S^2 v S^2 v S^2; both free-loop models give
    # the same integral homology, 2-torsion included
    from loophomology.homalg import HomologyEntry, homology_of_slice

    CD = builtin_space("collapsed-delta3")
    expected = [
        HomologyEntry(0, 1),
        HomologyEntry(1, 3),
        HomologyEntry(2, 6, (2, 2, 2)),
        HomologyEntry(3, 14),
        HomologyEntry(4, 32, (2, 2, 2)),
    ]
    for sl in (hochschild_slice(CD, 5), cohoch_slice(CD, 5)):
        assert [homology_of_slice(sl, n) for n in range(5)] == expected


# the 1-reduced built-ins and doubled-delta3 through degree 5, and
# collapsed-delta4, whose rules split a letter in two, through degree 4
ONE_REDUCED = [
    (name, 5) for name in BUILTIN_NAMES if builtin_space(name).is_one_reduced()
] + [("collapsed-delta4", 4), ("doubled-delta3", 5)]


@pytest.mark.parametrize("hat", [False, True], ids=["cohoch", "hat-cohoch"])
@pytest.mark.parametrize("name, top", ONE_REDUCED, ids=[w[0] for w in ONE_REDUCED])
def test_coboundary_kernel_is_the_stored_differential_transposed(name, top, hat):
    # d_(n+1) of a slice through degree top read by rows: the generators of
    # degree n + 1 whose differential names a generator of degree n
    X = collapsed_simplex(4) if name == "collapsed-delta4" else fixture(name)
    space = adjoin_inverses(X) if hat else X
    sl = cohoch_slice(space, top)
    coboundary = loop_mod.cohoch_recipe(space)[3]
    for n in range(top):
        rows = {g: {} for g in sl.bases.get(n, ())}
        d = sl.diffs.get(n + 1)
        for j, col in enumerate(d.columns if d else ()):
            for i, c in col.items():
                rows[sl.bases[n][i]][sl.bases[n + 1][j]] = c
        for g, row in rows.items():
            assert coboundary(g) == row, (n, g)


@pytest.mark.parametrize("hat", [False, True], ids=["cohoch", "hat-cohoch"])
@pytest.mark.parametrize("name, top", ONE_REDUCED, ids=[w[0] for w in ONE_REDUCED])
def test_coboundary_kernel_is_the_transpose_of_the_kernel(name, top, hat):
    # read off the two kernels alone: g's coboundary is every generator h
    # one degree up whose differential names g, with that coefficient
    X = collapsed_simplex(4) if name == "collapsed-delta4" else fixture(name)
    space = adjoin_inverses(X) if hat else X
    kernel = loop_mod._cohoch_kernel(space)
    cokernel = loop_mod._cohoch_cokernel(space)
    for n in range(top):
        transpose = {g: {} for g in cohoch_basis(space, n)}
        for h in cohoch_basis(space, n + 1):
            for g, c in kernel(h).items():
                transpose[g][h] = c
        assert {g: cokernel(g) for g in transpose} == transpose, n


def test_only_exact_windows_carry_a_coboundary_kernel():
    torus = adjoin_inverses(builtin_space("torus"))
    assert len(loop_mod.cohoch_recipe(torus, 2)) == 3
    assert len(loop_mod.cohoch_recipe(adjoin_inverses(S2))) == 4


def test_cohoch_slice_d_squared_and_truncation_label():
    sl = cohoch_slice(adjoin_inverses(builtin_space("torus")), 3, max_word_length=2)
    assert sl.truncated_at == 2
    assert check_d_squared(sl) == []
    sl = cohoch_slice(S2, 5)
    assert sl.truncated_at is None
    assert check_d_squared(sl) == []


def test_truncated_free_loops_of_boundary_delta3_connected():
    # boundary-delta3 realizes the 2-sphere, whose free loop space is
    # connected: H_0 = Z must survive any word-length truncation (higher
    # degrees are genuinely window-distorted and are not asserted).
    from loophomology.homalg import homology_of_slice

    ext = adjoin_inverses(builtin_space("boundary-delta3"))
    for L in (2, 3):
        sl = cohoch_slice(ext, 2, max_word_length=L)
        entry = homology_of_slice(sl, 0)
        assert entry.free_rank == 1 and entry.torsion == ()


def test_hochschild_slice_over_inverted_algebra():
    # Hochschild of the inverted word algebra of the circle, capped: the
    # degree-0 rank is the 2L+1 window onto the Laurent group algebra.
    ext = adjoin_inverses(builtin_space("circle"))
    sl = hochschild_slice(ext, 2, word_cap=2)
    assert sl.truncated_at == 2
    assert check_d_squared(sl) == []
    from loophomology.homalg import homology_of_slice

    assert homology_of_slice(sl, 0).free_rank == 5
    with pytest.raises(SimplicialError):
        hochschild_slice(ext, 2)


@pytest.mark.parametrize("name", ["circle", "torus", "boundary-delta3"])
def test_plain_slices_refuse_a_space_that_is_not_one_reduced(name):
    # a cap does not make a plain complex of such a space honest: all three
    # refuse alike, naming the first obstruction; Z(X) takes the cap
    X = builtin_space(name)
    for build in (
        lambda: cobar_slice(X, 3, max_word_length=2),
        lambda: hochschild_slice(X, 3, word_cap=2),
        lambda: cohoch_slice(X, 3, max_word_length=2),
    ):
        with pytest.raises(SimplicialError, match=f"needs a 1-reduced space; {name} has"):
            build()
    assert cobar_slice(adjoin_inverses(X), 3, max_word_length=2).truncated_at == 2


def test_an_unknown_chi_reading_is_refused():
    X = builtin_space("sphere2")
    for refused in (
        lambda: chi(X, ("s",), (), variant="bogus"),
        lambda: phi(X, ((("s",),), ()), variant="bogus"),
    ):
        with pytest.raises(ValueError) as err:
            refused()
        assert str(err.value) == "unknown chi variant 'bogus'"
