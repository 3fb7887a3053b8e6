from functools import cached_property

import pytest

from loophomology.cobar import CobarAlgebra, cobar_differential
from loophomology.homalg import Chain, ZZ
from loophomology.loopcomplex import (
    cohoch_basis,
    cohoch_differential,
    cohoch_slice,
    hochschild_slice,
)
from loophomology.simplicial import (
    BUILTIN_NAMES,
    FormalSimplex,
    OpExtension,
    SimplicialError,
    SimplicialSetPresentation,
    adjoin_inverses,
    aw_coproduct,
    boundary,
    builtin_space,
    canonical_degeneracy,
    chains_slice,
    endpoints,
    face,
    nondeg,
    presentation_from_json,
    validate,
)


def test_canonical_degeneracy_examples():
    assert canonical_degeneracy([], "v", 0) == FormalSimplex((), "v")
    assert canonical_degeneracy([0, 0], "v", 0) == FormalSimplex((1, 0), "v")
    assert canonical_degeneracy([1, 2], "b", 2) == FormalSimplex((3, 1), "b")


def test_canonical_degeneracy_idempotent():
    words = [(), (0,), (2, 0), (3, 1, 0), (5, 3, 2)]
    for word in words:
        fs = canonical_degeneracy(word, "b", 6)
        again = canonical_degeneracy(fs.degeneracies, "b", 6)
        assert again == fs


def test_canonical_degeneracy_range_error():
    with pytest.raises(SimplicialError):
        canonical_degeneracy([1], "v", 0)
    with pytest.raises(SimplicialError):
        canonical_degeneracy([-1], "v", 0)


def test_face_examples():
    circle = builtin_space("circle")
    assert face(circle, nondeg("t"), 0) == nondeg("v")
    assert face(circle, nondeg("t"), 1) == nondeg("v")
    s0v = FormalSimplex((0,), "v")
    assert face(circle, s0v, 0) == nondeg("v")
    assert face(circle, s0v, 1) == nondeg("v")
    sphere = builtin_space("sphere2")
    for i in range(3):
        assert face(sphere, nondeg("s"), i) == FormalSimplex((0,), "v")


def test_face_index_errors():
    circle = builtin_space("circle")
    with pytest.raises(SimplicialError):
        face(circle, nondeg("v"), 0)
    with pytest.raises(SimplicialError):
        face(circle, nondeg("t"), 2)


def test_face_through_degeneracies_matches_identities():
    # d_i s_j relations, spot-checked on a higher degenerate simplex.
    bd = builtin_space("boundary-delta3")
    fs = canonical_degeneracy([1, 0], "012", 2)  # dimension 4
    for i in range(5):
        result = face(bd, fs, i)
        assert bd.total_dim(result) == 3


def test_single_degeneracy_face_relations():
    # face(s_j x, i) follows d_i s_j = s_{j-1} d_i / id / s_j d_{i-1}
    bd = builtin_space("boundary-delta3")
    for base in ("01", "012", "123"):
        p = bd.dim(base)
        for j in range(p + 1):
            fs = canonical_degeneracy([j], base, p)
            for i in range(p + 2):
                got = face(bd, fs, i)
                if i in (j, j + 1):
                    expect = nondeg(base)
                elif i < j:
                    inner = face(bd, nondeg(base), i)
                    expect = canonical_degeneracy(
                        (j - 1,) + inner.degeneracies, inner.base, bd.dim(inner.base)
                    )
                else:
                    inner = face(bd, nondeg(base), i - 1)
                    expect = canonical_degeneracy(
                        (j,) + inner.degeneracies, inner.base, bd.dim(inner.base)
                    )
                assert got == expect, (base, j, i)


def test_simplicial_identities_on_degenerate_simplices():
    # the i < j face commutation holds through arbitrary degeneracy words
    import random

    rng = random.Random(5)
    bd = builtin_space("boundary-delta3")
    bases = ["01", "12", "012", "023", "123"]
    for _ in range(200):
        base = rng.choice(bases)
        p = bd.dim(base)
        word = []
        dim = p
        for _ in range(rng.randint(1, 3)):
            word.insert(0, rng.randint(0, dim))
            dim += 1
        fs = canonical_degeneracy(word, base, p)
        n = bd.total_dim(fs)
        if n < 2:
            continue
        j = rng.randint(1, n)
        i = rng.randint(0, j - 1)
        assert face(bd, face(bd, fs, j), i) == face(bd, face(bd, fs, i), j - 1)


def test_endpoints():
    circle = builtin_space("circle")
    assert endpoints(circle, nondeg("v")) == ("v", "v")
    assert endpoints(circle, nondeg("t")) == ("v", "v")
    bd = builtin_space("boundary-delta3")
    assert endpoints(bd, nondeg("02")) == ("0", "2")
    assert endpoints(bd, nondeg("123")) == ("1", "3")
    ext = adjoin_inverses(bd)
    assert endpoints(ext, nondeg("02~")) == ("2", "0")


def test_adjoin_inverses():
    assert adjoin_inverses(builtin_space("point")).op_pairs == {}
    assert adjoin_inverses(builtin_space("sphere2")).op_pairs == {}
    circle = builtin_space("circle")
    circle_ext = adjoin_inverses(circle)
    assert circle_ext.op_pairs == {"t": "t~", "t~": "t"}
    assert circle_ext.op("t~") == "t"
    # Z(X) is a presentation; its loop slot is X, and X is its own slot
    assert isinstance(circle_ext, SimplicialSetPresentation)
    assert circle_ext.name == "Z(circle)"
    assert circle_ext.underlying is circle
    assert circle.underlying is circle
    assert circle.op_pairs == {}
    assert not isinstance(circle, OpExtension)
    # the space picks the model: no builder takes a hat flag
    builders = [
        lambda: CobarAlgebra(circle_ext, hat=True),
        lambda: cobar_differential(circle_ext, ("t",), hat=True),
        lambda: cohoch_basis(circle_ext, 0, max_word_length=1, hat=True),
        lambda: cohoch_differential(circle_ext, ("v", ()), hat=True),
        lambda: cohoch_slice(circle_ext, 1, hat=True, max_word_length=1),
        lambda: hochschild_slice(circle_ext, 1, hat=True, word_cap=1),
    ]
    for build in builders:
        with pytest.raises(TypeError, match="hat"):
            build()
    # one fresh 1-simplex per original, other dimensions untouched
    bd = builtin_space("boundary-delta3")
    ext = adjoin_inverses(bd)
    for d, ids in bd.simplices.items():
        expected = 2 * len(ids) if d == 1 else len(ids)
        assert len(ext.simplices[d]) == expected
    for e in bd.simplices[1]:
        assert ext.op_pairs[ext.op_pairs[e]] == e
        lo, hi = endpoints(bd, nondeg(e))
        assert endpoints(ext, nondeg(ext.op_pairs[e])) == (hi, lo)


def test_boundary_examples():
    assert boundary(builtin_space("circle"), "t").is_zero
    assert boundary(builtin_space("sphere2"), "s").is_zero
    bd = builtin_space("boundary-delta3")
    assert boundary(bd, "012") == Chain(ZZ, {"12": 1, "02": -1, "01": 1})


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_boundary_squares_to_zero(name):
    X = builtin_space(name)
    for d, ids in X.simplices.items():
        if d < 2:
            continue
        for s in ids:
            total = Chain(ZZ)
            for key, c in boundary(X, s).terms.items():
                total.add_chain(boundary(X, key), c)
            assert total.is_zero


def test_aw_examples():
    circle = builtin_space("circle")
    assert aw_coproduct(circle, "v") == [(nondeg("v"), nondeg("v"))]
    assert aw_coproduct(circle, "t") == [
        (nondeg("v"), nondeg("t")),
        (nondeg("t"), nondeg("v")),
    ]
    sphere = builtin_space("sphere2")
    assert aw_coproduct(sphere, "s") == [
        (nondeg("v"), nondeg("s")),
        (nondeg("s"), nondeg("v")),
    ]
    assert aw_coproduct(sphere, "s", reduced=True) == []


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_aw_coassociative(name):
    X = builtin_space(name)
    for ids in X.simplices.values():
        for s in ids:
            left = []
            right = []
            for f, b in aw_coproduct(X, s):
                for f1, f2 in aw_coproduct(X, f.base):
                    left.append((f1, f2, b))
                for b1, b2 in aw_coproduct(X, b.base):
                    right.append((f, b1, b2))
            assert sorted(left) == sorted(right)


def test_validate_builtins_clean():
    for name in BUILTIN_NAMES:
        assert validate(builtin_space(name)) == []


def test_validate_dimension_mismatch():
    X = SimplicialSetPresentation(
        "bad",
        "v",
        {0: ["v"], 2: ["q"]},
        {
            ("q", 0): nondeg("v"),  # dimension 0, should be 1
            ("q", 1): FormalSimplex((0,), "v"),
            ("q", 2): FormalSimplex((0,), "v"),
        },
    )
    violations = validate(X)
    assert len(violations) == 1
    assert "dimension" in violations[0]


def test_validate_identity_violation():
    bd = builtin_space("boundary-delta3")
    faces = dict(bd.faces)
    faces[("012", 0)] = nondeg("01")  # wrong face: breaks d_i d_j = d_{j-1} d_i
    X = SimplicialSetPresentation("bad2", "0", dict(bd.simplices), faces)
    violations = validate(X)
    assert violations
    assert any("identity" in v for v in violations)


def test_validate_missing_basepoint():
    X = SimplicialSetPresentation("nopt", "w", {0: ["v"]}, {})
    assert any("basepoint" in v for v in validate(X))


def test_validate_refuses_faces_of_vertices_and_unknown_ids():
    v = nondeg("v")
    faces = {("v", 0): nondeg("nowhere"), ("zz", 0): v, ("zz", 1): v}
    X = SimplicialSetPresentation("stray", "v", {0: ["v"]}, faces)
    assert validate(X) == [
        "v: 1 face records for a vertex",
        "zz: 2 face records for an unknown simplex",
    ]


def test_validate_reports_faceless_simplex_once():
    X = SimplicialSetPresentation("huge", "a", {0: ["a"], 10**6: ["q"]}, {})
    assert validate(X) == ["q: missing all 1000001 faces"]


def test_validate_reports_partly_faced_simplex_once():
    faces = {("q", 1): nondeg("a")}
    X = SimplicialSetPresentation("huge", "a", {0: ["a"], 10**6: ["q"]}, faces)
    violations = validate(X)
    assert violations[0] == "q: missing 1000000 of 1000001 faces (first 0)"
    # the one record present is still checked, once
    assert violations[1:] == ["q: face 1 has dimension 0, expected 999999"]


def test_validate_names_first_missing_face():
    bd = builtin_space("boundary-delta3")
    faces = {key: value for key, value in bd.faces.items() if key != ("012", 1)}
    X = SimplicialSetPresentation("gap", "0", bd.simplices, faces)
    assert validate(X) == ["012: missing 1 of 3 faces (first 1)"]


def test_duplicate_ids_rejected():
    with pytest.raises(SimplicialError):
        SimplicialSetPresentation("dup", "v", {0: ["v"], 1: ["v"]}, {})


def test_chains_slice_shapes():
    bd = builtin_space("boundary-delta3")
    sl = chains_slice(bd, 2)
    assert [len(sl.bases[d]) for d in (0, 1, 2)] == [4, 6, 4]
    assert sl.diffs[1].nrows == 4 and sl.diffs[1].ncols == 6


INTERVAL_JSON = """{
  "name": "interval",
  "basepoint": "a",
  "simplices": {"0": ["a", "b"], "1": ["e"]},
  "faces": {"e": [{"deg": [], "base": "b"}, {"deg": [], "base": "a"}]}
}"""


def test_presentation_from_json():
    X = presentation_from_json(INTERVAL_JSON)
    assert validate(X) == []
    assert endpoints(X, nondeg("e")) == ("a", "b")


def test_json_rejects_noncanonical_word():
    bad = INTERVAL_JSON.replace('"deg": [], "base": "b"', '"deg": [0, 1], "base": "b"')
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(bad)
    assert "[0, 1]" in str(err.value)


def test_json_rejects_missing_fields():
    with pytest.raises(SimplicialError):
        presentation_from_json('{"name": "x"}')
    with pytest.raises(SimplicialError):
        presentation_from_json("not json {")
    wrong_count = INTERVAL_JSON.replace(
        '[{"deg": [], "base": "b"}, {"deg": [], "base": "a"}]',
        '[{"deg": [], "base": "b"}]',
    )
    with pytest.raises(SimplicialError):
        presentation_from_json(wrong_count)
    no_faces = INTERVAL_JSON.replace(
        '"e": [{"deg": [], "base": "b"}, {"deg": [], "base": "a"}]', ""
    )
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(no_faces)
    assert "'e' needs exactly 2 face records, got none" in str(err.value)


@pytest.mark.parametrize(
    "old, new, keys",
    [
        ('"0": ["a", "b"]', '"0": ["a"], "00": ["b"]', "'0' and '00'"),
        ('"1": ["e"]', '"1": ["e"], "0_1": ["f"]', "'1' and '0_1'"),
    ],
)
def test_json_rejects_two_keys_for_one_dimension(old, new, keys):
    # int() reads both keys as one dimension; neither list may silently
    # replace the other
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(INTERVAL_JSON.replace(old, new))
    assert f"simplices keys {keys} both name dimension" in str(err.value)


# ---------------------------------------------------------------------------
# The face table


def _reference_endpoints(X, fs):
    # The recursive definition the table replaced: min is the first vertex
    # of the last face, max the last vertex of the front face.
    d = X.dim(fs.base)
    if d == 0:
        return (fs.base, fs.base)
    last = face(X, nondeg(fs.base), d)
    first = face(X, nondeg(fs.base), 0)
    return (_reference_endpoints(X, last)[0], _reference_endpoints(X, first)[1])


def _base_or_none(fs):
    return None if fs.is_degenerate else fs.base


def _table_spaces():
    for name in BUILTIN_NAMES:
        X = builtin_space(name)
        yield X
        yield adjoin_inverses(X)


@pytest.mark.parametrize("X", list(_table_spaces()), ids=lambda X: X.name)
def test_table_matches_face_calculus(X):
    table = X.table
    assert table.dim == {s: X.dim(s) for s in X.ids()}
    for s in X.ids():
        d = X.dim(s)
        x = nondeg(s)
        faces = [face(X, x, i) for i in range(d + 1)] if d else []
        assert table.faces[s] == tuple(map(_base_or_none, faces))
        for j in range(d + 1):
            front, back = x, x
            for k in range(d, j, -1):
                front = face(X, front, k)
            for _ in range(j):
                back = face(X, back, 0)
            assert table.fronts[s][j] == _base_or_none(front)
            assert table.backs[s][j] == _base_or_none(back)
        assert table.ends(s) == _reference_endpoints(X, x)
        assert endpoints(X, x) == _reference_endpoints(X, x)


def test_table_is_built_once_per_presentation():
    X = builtin_space("torus")
    assert X.table is X.table
    assert adjoin_inverses(X) is adjoin_inverses(X)
    # Z(X) only adds edges, so its table covers every simplex of X
    Z = adjoin_inverses(X)
    for s in X.ids():
        assert Z.table.faces[s] == X.table.faces[s]
        assert Z.table.fronts[s] == X.table.fronts[s]
        assert Z.table.backs[s] == X.table.backs[s]


def test_letter_rule_drops_vertex_faces():
    # the full boundary of an edge letter is two vertices, which are not
    # letters: the cobar differential drops them
    bd = builtin_space("boundary-delta3")
    assert cobar_differential(bd, ("01",)).is_zero
    assert cobar_differential(bd, ("01", "12")).is_zero
    assert cobar_differential(bd, ("012",)) == Chain(
        ZZ, {("12",): -1, ("02",): 1, ("01",): -1, ("01", "12"): -1}
    )


def test_simplex_slot_keeps_vertex_faces():
    # the simplex slot of a loop generator over a plain space takes the full
    # boundary, vertices included; over Z(X) the inner-face (hat) boundary
    # of an edge is empty and only the wrap terms are left
    bd = builtin_space("boundary-delta3")
    gen = ("01", ())
    wraps = {("0", ("01",)): -1, ("1", ("01",)): 1}
    assert cohoch_differential(bd, gen) == Chain(
        ZZ, {("1", ()): 1, ("0", ()): -1, **wraps}
    )
    assert cohoch_differential(adjoin_inverses(bd), gen) == Chain(ZZ, wraps)


def _attributes_after_init_and_cached(P):
    if isinstance(P, OpExtension):
        fresh = OpExtension(P.underlying)
    else:
        fresh = SimplicialSetPresentation(P.name, P.basepoint, P.simplices, P.faces)
    cached = {
        name
        for cls in type(P).__mro__
        for name, value in vars(cls).items()
        if isinstance(value, cached_property)
    }
    return set(vars(fresh)), cached


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_nothing_is_patched_onto_a_presentation(name):
    from loophomology.verify import build_complex_slice, run_verify, supported_complexes

    X = builtin_space(name)
    run_verify(X, 2, max_word_length=2)
    for complex_name in supported_complexes(X):
        build_complex_slice(X, complex_name, 3, max_word_length=2)
    for P in (X, adjoin_inverses(X)):
        init, cached = _attributes_after_init_and_cached(P)
        assert init <= set(vars(P)) <= init | cached
