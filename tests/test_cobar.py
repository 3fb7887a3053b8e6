import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from reference import _generator_sort_key, _hochschild_key, _loop_key, _word_key
from loophomology.homalg import check_d_squared
from loophomology.linalg import Chain, ZZ
from loophomology.presentation import SimplicialError, adjoin_inverses
from loophomology.simplicial import BUILTIN_NAMES, builtin_space
from loophomology.complexes import complex_recipe
from loophomology.verify import build_complex_slice, supported_complexes
from loophomology.cobar import (
    CobarAlgebra,
    _splice,
    bar_differential,
    cobar_basis,
    cobar_differential,
    cobar_slice,
    hat_cobar_basis,
    hochschild_basis,
    reduce_word,
    truncated_boundary_dA,
    words_between,
)


def test_cobar_differential_sphere2():
    S2 = builtin_space("sphere2")
    assert cobar_differential(S2, ("s",)).is_zero
    assert cobar_differential(S2, ()).is_zero
    assert cobar_differential(S2, ("s", "s")).is_zero


def test_cobar_differential_nontrivial():
    # collapsed 3-simplex: the top letter has all four faces alive.
    CD = builtin_space("collapsed-delta3")
    d = cobar_differential(CD, ("w",))
    assert d == Chain(ZZ, {("q0",): -1, ("q1",): 1, ("q2",): -1, ("q3",): 1})


def test_cobar_differential_unknown_letter():
    with pytest.raises(SimplicialError):
        cobar_differential(builtin_space("sphere2"), ("nope",))


def test_truncated_boundary_examples():
    circle = adjoin_inverses(builtin_space("circle"))
    assert truncated_boundary_dA(circle, "t").is_zero
    sphere = builtin_space("sphere2")
    assert truncated_boundary_dA(sphere, "s").is_zero
    bd = adjoin_inverses(builtin_space("boundary-delta3"))
    assert truncated_boundary_dA(bd, "012") == Chain(ZZ, {"02": -1})


def test_reduce_word_examples():
    ops = adjoin_inverses(builtin_space("circle")).op_pairs
    assert reduce_word(("t", "t~"), ops) == ()
    assert reduce_word(("t~", "t"), ops) == ()
    assert reduce_word(("t", "t"), ops) == ("t", "t")
    assert reduce_word(("t", "t~", "t"), ops) == ("t",)


def _all_normal_forms(word, ops):
    # Brute force: reduce by deleting any one cancelable pair, all orders.
    pairs = [
        i for i in range(len(word) - 1) if ops.get(word[i]) == word[i + 1]
    ]
    if not pairs:
        return {word}
    forms = set()
    for i in pairs:
        forms |= _all_normal_forms(word[:i] + word[i + 2 :], ops)
    return forms


def test_reduce_word_confluence():
    ops = {"a": "a~", "a~": "a", "b": "b~", "b~": "b"}
    alphabet = list(ops)
    rng = random.Random(3)
    for _ in range(300):
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        forms = _all_normal_forms(word, ops)
        assert forms == {reduce_word(word, ops)}


def test_hat_cobar_basis_circle():
    circle = adjoin_inverses(builtin_space("circle"))
    assert hat_cobar_basis(circle, 0, 2) == [
        (),
        ("t",),
        ("t~",),
        ("t", "t"),
        ("t~", "t~"),
    ]
    for L in range(1, 7):
        assert len(hat_cobar_basis(circle, 0, L)) == 2 * L + 1


def test_hat_cobar_basis_spheres_and_point():
    S2 = adjoin_inverses(builtin_space("sphere2"))
    for k in range(1, 6):
        assert hat_cobar_basis(S2, k, max(k, 1)) == [("s",) * k]
    point = adjoin_inverses(builtin_space("point"))
    assert hat_cobar_basis(point, 0, 3) == [()]
    assert hat_cobar_basis(point, 1, 3) == []


def test_words_between_chain_condition():
    bd = adjoin_inverses(builtin_space("boundary-delta3"))
    from loophomology.presentation import endpoints, nondeg

    for w in words_between(bd, "0", "3", 0, 3):
        ends = [endpoints(bd, nondeg(a)) for a in w]
        assert ends[0][0] == "0" and ends[-1][1] == "3"
        assert all(ends[i][1] == ends[i + 1][0] for i in range(len(w) - 1))
        assert reduce_word(w, bd.op_pairs) == w


def test_cobar_basis_requires_one_reduced():
    with pytest.raises(SimplicialError):
        cobar_basis(builtin_space("torus"), 2)


def test_bar_differential_examples():
    S2 = builtin_space("sphere2")
    alg = CobarAlgebra(S2)
    assert bar_differential(alg, ()).is_zero
    assert bar_differential(alg, (("s",),)).is_zero
    one = bar_differential(alg, (("s",), ("s",)))
    assert one == Chain(ZZ, {(("s", "s"),): -1})
    with pytest.raises(SimplicialError):
        bar_differential(alg, ((),))


def test_bar_differential_squares_to_zero():
    CD = builtin_space("collapsed-delta3")
    alg = CobarAlgebra(CD)
    for n in range(6):
        for b, u in hochschild_basis(alg, n):
            if u != ():
                continue
            total = Chain(ZZ)
            for key, c in bar_differential(alg, b).terms.items():
                total.add_chain(bar_differential(alg, key), c)
            assert total.is_zero


def test_hat_algebra_multiplication_reduces():
    # the product the bar differential takes, a splice at one seam, and the
    # reference's full rescan
    circle = adjoin_inverses(builtin_space("circle"))
    alg = CobarAlgebra(circle)
    for u, v, uv in [(("t",), ("t~",), ()), (("t", "t"), ("t~",), ("t",))]:
        assert ref.multiply(alg, u, v) == uv
        assert _splice(u, v, (), alg.op_pairs) == uv


def test_cobar_slice_d_squared_small():
    for name in ("sphere2", "collapsed-delta3"):
        sl = cobar_slice(builtin_space(name), 6)
        assert check_d_squared(sl) == []
    for name in ("circle", "boundary-delta3"):
        sl = cobar_slice(adjoin_inverses(builtin_space(name)), 3, max_word_length=3)
        assert check_d_squared(sl) == []
        assert sl.truncated_at == 3
    # the circle tolerates a deep cap cheaply: degree 0 words to length 6
    sl = cobar_slice(adjoin_inverses(builtin_space("circle")), 4, max_word_length=6)
    assert check_d_squared(sl) == []


def test_hat_basis_degrees_and_basedness():
    bd = adjoin_inverses(builtin_space("boundary-delta3"))
    from loophomology.cobar import word_degree

    for degree in range(3):
        for w in hat_cobar_basis(bd, degree, 3):
            assert word_degree(bd, w) == degree
            if w:
                from loophomology.presentation import endpoints, nondeg

                assert endpoints(bd, nondeg(w[0]))[0] == "0"
                assert endpoints(bd, nondeg(w[-1]))[1] == "0"


def test_cobar_slice_requires_cap_for_loops():
    with pytest.raises(SimplicialError):
        cobar_slice(adjoin_inverses(builtin_space("circle")), 2)


def test_based_loops_of_collapsed_delta3():
    # collapsed-delta3 realizes S^2 v S^2 v S^2, whose based loop space has
    # the tensor algebra on three degree-1 classes: free rank 3^n, no torsion
    from loophomology.homalg import HomologyEntry, homology_of_slice

    sl = cobar_slice(builtin_space("collapsed-delta3"), 6)
    for n in range(6):
        assert homology_of_slice(sl, n) == HomologyEntry(n, 3**n)


# ---------------------------------------------------------------------------
# generator order


def _recursive_sort_key(g):
    """The tagged recursive key the flat one replaced: the order oracle."""

    def rec(x):
        if isinstance(x, tuple):
            return (1, len(x), tuple(rec(y) for y in x))
        return (0, str(x))

    return rec(g)


# the flat key each complex's seeds come in, by generator shape
BUILDER_KEYS = {
    "chains": None,
    "cobar": _word_key,
    "hat-cobar": _word_key,
    "cohoch": _loop_key,
    "hat-cohoch": _loop_key,
    "hochschild-of-cobar": _hochschild_key,
}


def test_flat_sort_key_orders_every_builtin_basis_like_the_recursive_key():
    bases = []
    for name in BUILTIN_NAMES:
        X = builtin_space(name)
        for complex_name in supported_complexes(X):
            sl = build_complex_slice(X, complex_name, 4, max_word_length=2)
            seeds = complex_recipe(X, complex_name, 2)[0]
            key = BUILDER_KEYS[complex_name]
            bases.extend((key, b, seeds(n)) for n, b in sl.bases.items())
    assert len(bases) == 116
    for key, basis, seeds in bases:
        shuffled = list(basis)
        random.Random(len(basis)).shuffle(shuffled)
        expected = sorted(shuffled, key=_recursive_sort_key)
        assert sorted(shuffled, key=_generator_sort_key) == expected
        assert sorted(shuffled, key=key) == expected
        # a basis is its degree's seeds, then what the degree above adopts
        assert list(basis[: len(seeds)]) == list(seeds)


# A shape is "str", ("seq", shape) for a tuple of any length whose entries
# share one shape, or ("prod", shapes) for a tuple of fixed arity: the forms
# generator keys take (a word, a bar word, a (simplex, word) pair, ...).
SHAPES = st.recursive(
    st.just("str"),
    lambda inner: st.one_of(
        inner.map(lambda s: ("seq", s)),
        st.lists(inner, min_size=1, max_size=3).map(lambda ss: ("prod", tuple(ss))),
    ),
    max_leaves=5,
)


def _values(shape):
    if shape == "str":
        return st.text(alphabet="ab~01", max_size=3)
    kind, sub = shape
    if kind == "seq":
        return st.lists(_values(sub), max_size=3).map(tuple)
    return st.tuples(*(_values(s) for s in sub))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_flat_sort_key_orders_same_shape_tuples_like_the_recursive_key(data):
    shape = data.draw(SHAPES)
    keys = data.draw(st.lists(_values(shape), max_size=8))
    assert sorted(keys, key=_generator_sort_key) == sorted(keys, key=_recursive_sort_key)


def _outcome(enumerate_, *args):
    """An enumerator's list, or the text of the SimplicialError it raises."""
    try:
        return enumerate_(*args)
    except SimplicialError as exc:
        return f"SimplicialError: {exc}"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_word_walk_matches_the_depth_first_reference(name):
    # same lists in the same order, and the same errors, on X and Z(X)
    X = builtin_space(name)
    ZX = adjoin_inverses(X)
    vertices = sorted(X.simplices[0])
    for space in (X, ZX):
        for degree in range(7):
            assert _outcome(cobar_basis, space, degree) == _outcome(
                ref.cobar_basis, space, degree
            )
            for start, end in itertools.product(vertices, repeat=2):
                for cap in range(5):
                    args = (space, start, end, degree, cap)
                    assert _outcome(words_between, *args) == _outcome(
                        ref.words_between, *args
                    )
    for algebra in (CobarAlgebra(ZX), CobarAlgebra(X)):
        for degree in range(6):
            for cap in (None, 1, 2, 3):
                args = (algebra, degree, cap)
                assert _outcome(hochschild_basis, *args) == _outcome(
                    ref.hochschild_basis, *args
                )


def test_word_enumerations_leave_no_reference_cycles():
    # the level-by-level walks build no self-referencing closures, so the
    # enumerated words do not wait for the cycle collector
    cd = builtin_space("collapsed-delta3")
    torus = adjoin_inverses(builtin_space("torus"))
    calls = [
        lambda: cobar_basis(cd, 4),
        lambda: hat_cobar_basis(torus, 2, 2),
        lambda: hochschild_basis(CobarAlgebra(cd), 4),
        lambda: hochschild_basis(CobarAlgebra(torus), 2, word_cap=2),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            assert call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_vertex_has_no_truncated_boundary():
    with pytest.raises(SimplicialError) as err:
        truncated_boundary_dA(builtin_space("sphere2"), "v")
    assert str(err.value) == "'v' is not a letter (dimension >= 1)"


def test_hochschild_basis_is_empty_below_degree_0():
    assert hochschild_basis(CobarAlgebra(builtin_space("sphere2")), -1) == []
