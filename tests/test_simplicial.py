import json
import math
import random
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophomology.cobar import CobarAlgebra, cobar_differential
from loophomology.complexes import complex_recipe
from loophomology.freehedra import FreehedralLabel
from loophomology.homalg import homology_pass
from loophomology.rings import Chain, ZZ
from loophomology.loopcomplex import (
    cohoch_basis,
    cohoch_differential,
    cohoch_slice,
    hochschild_slice,
)
from loophomology.presentation import (
    FormalSimplex,
    OpExtension,
    SimplicialError,
    SimplicialSetPresentation,
    adjoin_inverses,
    aw_coproduct,
    boundary,
    canonical_degeneracy,
    endpoints,
    face,
    nondeg,
)
from loophomology.simplicial import (
    BUILTIN_NAMES,
    _collapse_free_pairs,
    builtin_space,
    chains_slice,
    presentation_from_json,
    validate,
)
from loophomology.verify import run_verify
from reference import collapsed_simplex, fixture, op


def test_canonical_degeneracy_examples():
    assert canonical_degeneracy([], "v", 0) == FormalSimplex((), "v")
    assert canonical_degeneracy([0, 0], "v", 0) == FormalSimplex((1, 0), "v")
    assert canonical_degeneracy([1, 2], "b", 2) == FormalSimplex((3, 1), "b")


RECORDS = [
    # (value, its fields by name, str, repr)
    (FormalSimplex((1, 0), "v"), {"degeneracies": (1, 0), "base": "v"}, "s1s0(v)",
     "FormalSimplex(degeneracies=(1, 0), base='v')"),
    (nondeg("v"), {"degeneracies": (), "base": "v"}, "v",
     "FormalSimplex(degeneracies=(), base='v')"),
    (FreehedralLabel((0, 1), ((1, 2, 0),)),
     {"f_block": (0, 1), "cube_blocks": ((1, 2, 0),)}, "0,1][1,2,0]",
     "FreehedralLabel(f_block=(0, 1), cube_blocks=((1, 2, 0),))"),
    (FreehedralLabel((0, 1)), {"f_block": (0, 1), "cube_blocks": ()}, "0,1]",
     "FreehedralLabel(f_block=(0, 1), cube_blocks=())"),
]


@pytest.mark.parametrize(
    "value, fields, text, shown", RECORDS, ids=[r[2] for r in RECORDS]
)
def test_records_are_frozen_values_shown_by_field(value, fields, text, shown):
    cls = type(value)
    assert cls(*fields.values()) == cls(**fields) == value
    assert (str(value), repr(value)) == (text, shown)
    assert hash(value) == hash(tuple(fields.values()))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None


def test_records_order_as_their_field_tuples():
    simplices = [FormalSimplex((1,), "a"), nondeg("b"), FormalSimplex((0,), "a")]
    assert sorted(simplices) == sorted(simplices, key=lambda f: (f.degeneracies, f.base))
    labels = [FreehedralLabel((1,), ((0, 1),)), FreehedralLabel((0, 1))]
    assert sorted(labels) == sorted(labels, key=lambda c: (c.f_block, c.cube_blocks))


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
    assert op(circle_ext, "t~") == "t"
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
        "'v': 1 face records for a vertex",
        "'zz': 2 face records for an unknown simplex",
    ]


def test_validate_reports_face_indices_outside_the_simplex():
    # a presentation built in Python can carry records the loader refuses
    v = nondeg("v")
    faces = {("t", 0): v, ("t", 1): v, ("t", 7): nondeg("nowhere"), ("t", -1): v}
    X = SimplicialSetPresentation("c", "v", {0: ["v"], 1: ["t"]}, faces)
    assert validate(X) == [
        "'t': face record -1 outside 0..1",
        "'t': face record 7 outside 0..1",
    ]
    only_strays = {("t", 2): v}
    X = SimplicialSetPresentation("c", "v", {0: ["v"], 1: ["t"]}, only_strays)
    assert validate(X) == ["'t': face record 2 outside 0..1", "'t': missing all 2 faces"]


def test_validate_reports_faceless_simplex_once():
    X = SimplicialSetPresentation("huge", "a", {0: ["a"], 10**6: ["q"]}, {})
    assert validate(X) == ["'q': missing all 1000001 faces"]


def test_validate_reports_partly_faced_simplex_once():
    faces = {("q", 1): nondeg("a")}
    X = SimplicialSetPresentation("huge", "a", {0: ["a"], 10**6: ["q"]}, faces)
    violations = validate(X)
    assert violations[0] == "'q': missing 1000000 of 1000001 faces (first 0)"
    # the one record present is still checked, once
    assert violations[1:] == ["'q': face 1 has dimension 0, expected 999999"]


def test_validate_names_first_missing_face():
    bd = builtin_space("boundary-delta3")
    faces = {key: value for key, value in bd.faces.items() if key != ("012", 1)}
    X = SimplicialSetPresentation("gap", "0", bd.simplices, faces)
    assert validate(X) == ["'012': missing 1 of 3 faces (first 1)"]


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
    assert "'e': missing all 2 faces" in str(err.value)


def test_an_id_with_a_newline_is_written_on_one_line():
    # validate writes ids with repr, so neither the loader's message nor
    # the verify report breaks a line inside one
    no_faces = INTERVAL_JSON.replace(
        '"e": [{"deg": [], "base": "b"}, {"deg": [], "base": "a"}]', ""
    )
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(no_faces.replace('["e"]', '["e\\nf"]'))
    assert str(err.value) == "<json>: invalid presentation: 'e\\nf': missing all 2 faces"
    X = SimplicialSetPresentation("nl", "a", {0: ["a", "b"], 1: ["e\nf"]}, {})
    lines = run_verify(X, 2).to_text().splitlines()
    assert "  FAIL  simplicial-identities  ['e\\nf': missing all 2 faces]" in lines


@pytest.mark.parametrize(
    "old, new, keys",
    [
        ('"0": ["a", "b"]', '"0": ["a"], "00": ["b"]', "'0' and '00'"),
        ('"1": ["e"]', '"1": ["e"], "0_1": ["f"]', "'1' and '0_1'"),
    ],
)
def test_json_rejects_two_keys_for_one_dimension(old, new, keys):
    # int() reads both keys as one dimension; only the plain numeral is a
    # dimension key, so neither list may silently replace the other
    _, refused = keys.split(" and ")
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(INTERVAL_JSON.replace(old, new))
    assert f"simplices key {refused} is not a dimension" in str(err.value)


@pytest.mark.parametrize(
    "key",
    ["\u0661", " 1", "+1", "1_0", "01", "-1", "1.0", ""]
    + [pytest.param("1" * (sys.get_int_max_str_digits() + 1), id="too-long-for-int")],
)
def test_json_dimension_keys_are_plain_numerals(key):
    # "\u0661" is Arabic-Indic one; "1_0" would read as dimension 10; int()
    # refuses a numeral with more digits than its limit
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(INTERVAL_JSON.replace('"1": ["e"]', f'"{key}": ["e"]'))
    assert str(err.value) == f"<json>: simplices key {key!r} is not a dimension"


def test_json_rejects_a_repeated_key():
    twice = INTERVAL_JSON.replace('"faces": {', '"faces": {"e": [], ')
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(twice, source="twice.json")
    assert str(err.value) == "twice.json: key 'e' appears twice in one object"


def _relabelled_schema(name, rng):
    # the JSON schema of a built-in space under shuffled fresh ids
    X = builtin_space(name)
    ids = X.ids()
    rename = dict(zip(ids, rng.sample([f"x{k}" for k in range(len(ids))], len(ids))))
    return {
        "name": X.name,
        "basepoint": rename[X.basepoint],
        "simplices": {str(d): [rename[s] for s in X.simplices[d]] for d in X.simplices},
        "faces": {
            rename[s]: [
                {"deg": list(fs.degeneracies), "base": rename[fs.base]}
                for fs in (X.faces[(s, i)] for i in range(X.dim(s) + 1))
            ]
            for s in ids
            if X.dim(s)
        },
    }


def _some_record(schema, rng):
    # (owner, index) of a face record, or None for a space without faces
    owners = [s for s, records in schema["faces"].items() if records]
    if not owners:
        return None
    s = rng.choice(owners)
    return s, rng.randrange(len(schema["faces"][s]))


def _some_id(schema, rng, dim=None):
    keys = [dim] if dim is not None else list(schema["simplices"])
    return rng.choice([s for k in keys for s in schema["simplices"].get(k, [])])


def _drop_record(schema, rng):
    if (at := _some_record(schema, rng)) is not None:
        del schema["faces"][at[0]][at[1]]


def _add_record(schema, rng):
    if (at := _some_record(schema, rng)) is not None:
        records = schema["faces"][at[0]]
        records.append(dict(records[at[1]]))


def _scramble_deg(schema, rng):
    if (at := _some_record(schema, rng)) is not None:
        word = [rng.randrange(-1, 4) for _ in range(rng.randrange(4))]
        schema["faces"][at[0]][at[1]]["deg"] = word


def _change_base(schema, rng):
    if (at := _some_record(schema, rng)) is not None:
        schema["faces"][at[0]][at[1]]["base"] = _some_id(schema, rng)


def _unknown_base(schema, rng):
    if (at := _some_record(schema, rng)) is not None:
        schema["faces"][at[0]][at[1]]["base"] = "nowhere"


def _drop_owner(schema, rng):
    if schema["faces"]:
        del schema["faces"][rng.choice(list(schema["faces"]))]


def _unknown_owner(schema, rng):
    schema["faces"]["nowhere"] = []


def _id_in_two_dimensions(schema, rng):
    s = _some_id(schema, rng)
    schema["simplices"].setdefault(str(rng.randrange(4)), []).append(s)


def _vertex_with_faces(schema, rng):
    v = _some_id(schema, rng, "0")
    schema["faces"][v] = [{"deg": [], "base": v}] * rng.randrange(1, 3)


def _move_id(schema, rng):
    key = rng.choice(list(schema["simplices"]))
    ids = schema["simplices"][key]
    s = ids.pop(rng.randrange(len(ids)))
    schema["simplices"].setdefault(str(rng.randrange(4)), []).append(s)


def _change_basepoint(schema, rng):
    schema["basepoint"] = _some_id(schema, rng)


MUTATIONS = {
    f.__name__[1:]: f
    for f in (
        _drop_record, _add_record, _scramble_deg, _change_base, _unknown_base,
        _drop_owner, _unknown_owner, _id_in_two_dimensions, _vertex_with_faces,
        _move_id, _change_basepoint,
    )
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_loader_returns_only_valid_presentations(mutation):
    """A mutated file either loads as a valid presentation of all it lists or
    is refused in one line that names it."""
    refused = 0
    for name in BUILTIN_NAMES:
        for seed in range(6):
            rng = random.Random(f"{mutation}/{name}/{seed}")
            schema = _relabelled_schema(name, rng)
            MUTATIONS[mutation](schema, rng)
            source = f"{name}-{seed}.json"
            try:
                X = presentation_from_json(json.dumps(schema), source=source)
            except SimplicialError as exc:
                refused += 1
                assert str(exc).startswith(f"{source}: ") and "\n" not in str(exc)
            else:  # validate cannot see an owner listed with []
                assert validate(X) == [] and set(schema["faces"]) <= set(X.ids())
    assert refused  # every mutation breaks some space


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


# ---------------------------------------------------------------------------
# Collapsing free pairs


def _counts(X):
    return {d: len(ids) for d, ids in X.simplices.items()}


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_collapsed_delta3_loses_one_free_pair(seed):
    # as built, and under shuffled fresh ids listed in shuffled order
    X = builtin_space("collapsed-delta3")
    if seed is not None:
        rng = random.Random(f"collapse/{seed}")
        schema = _relabelled_schema("collapsed-delta3", rng)
        for ids in schema["simplices"].values():
            rng.shuffle(ids)
        X = presentation_from_json(json.dumps(schema))
    Y = _collapse_free_pairs(X)
    assert _counts(X) == {0: 1, 2: 4, 3: 1}
    assert _counts(Y) == {0: 1, 2: 3}
    (w,) = X.simplices[3]
    (tau,) = set(X.simplices[2]) - set(Y.simplices[2])
    assert tau in {X.faces[w, i].base for i in range(4)}
    assert validate(Y) == []
    assert (Y.name, Y.basepoint) == (X.name, X.basepoint)
    assert Y.faces == {k: v for k, v in X.faces.items() if k[0] not in (w, tau)}


@pytest.mark.parametrize("name", ["doubled-delta3", "sphere2", "sphere3", "point"])
def test_a_space_without_free_pairs_comes_back_as_itself(name):
    X = fixture(name)
    assert _collapse_free_pairs(X) is X


@pytest.mark.parametrize("n, before, after", [(4, 17, 7), (5, 43, 11)])
def test_a_collapsed_simplex_collapses_to_a_wedge_of_2_spheres(n, before, after):
    # (n choose 2) 2-spheres on one vertex: every simplex of dimension >= 3
    # goes, with as many 2-simplices
    X = collapsed_simplex(n)
    Y = _collapse_free_pairs(X)
    assert (len(X.ids()), len(Y.ids())) == (before, after)
    assert _counts(Y) == {0: 1, 2: math.comb(n, 2)}
    assert validate(Y) == []


def _with_degenerate_records(X, names):
    # X plus, for each 2-simplex q named, a 4-simplex whose faces are those
    # of the degenerate 4-simplex s3 s1 q; some of them are s_j q
    simplices = {d: list(ids) for d, ids in X.simplices.items()}
    faces = dict(X.faces)
    for q in names:
        y = f"y{q}"
        simplices.setdefault(4, []).append(y)
        for i in range(5):
            faces[y, i] = face(X, FormalSimplex((3, 1), q), i)
    return SimplicialSetPresentation(X.name, X.basepoint, simplices, faces)


def test_a_face_named_through_a_degeneracy_is_not_removed():
    X = builtin_space("collapsed-delta3")
    one = _with_degenerate_records(X, ["q0"])
    assert FormalSimplex((1,), "q0") in one.faces.values()
    assert validate(one) == []
    Y = _collapse_free_pairs(one)
    # (w, q0) is no longer free, so the walk takes the next face of w
    assert Y.simplices == {0: ("v",), 2: ("q0", "q2", "q3"), 4: ("yq0",)}
    assert validate(Y) == []
    every = _with_degenerate_records(X, ["q0", "q1", "q2", "q3"])
    assert _collapse_free_pairs(every) is every


@st.composite
def _one_vertex_presentations(draw):
    # 2-simplices with faces s0 v; 3-simplices whose faces are 2-simplices
    # or the degenerate s1 s0 v.  Faces of faces are all s0 v, so any choice
    # satisfies the simplicial identities
    qs = [f"q{k}" for k in range(draw(st.integers(1, 3)))]
    ws = [f"w{k}" for k in range(draw(st.integers(0, 3)))]
    faces = {(q, i): FormalSimplex((0,), "v") for q in qs for i in range(3)}
    choices = [nondeg(q) for q in qs] + [FormalSimplex((1, 0), "v")]
    for w in ws:
        for i in range(4):
            faces[w, i] = draw(st.sampled_from(choices))
    simplices = {0: ["v"], 2: qs, 3: ws}
    return SimplicialSetPresentation("random", "v", simplices, faces)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_one_vertex_presentations())
def test_collapsing_keeps_the_groups_of_random_presentations(X):
    Y = _collapse_free_pairs(X)
    assert validate(Y) == []
    assert Y.is_one_reduced()
    for complex_name in ("chains", "cohoch"):
        groups = [homology_pass(complex_recipe(P, complex_name), 4) for P in (X, Y)]
        assert groups[0] == groups[1], complex_name


def test_two_4_simplices_on_the_same_3_faces_do_not_collapse():
    # each 3-face is named by both 4-simplices: no 3-simplex is unnamed and
    # no face of a 4-simplex is named once, so nothing is free
    ts = [f"t{i}" for i in range(5)]
    faces = {(t, i): FormalSimplex((1, 0), "v") for t in ts for i in range(4)}
    faces.update({(y, i): nondeg(ts[i]) for y in ("y1", "y2") for i in range(5)})
    X = SimplicialSetPresentation("twin", "v", {0: ["v"], 3: ts, 4: ["y1", "y2"]}, faces)
    assert validate(X) == []
    assert _collapse_free_pairs(X) is X


def test_boundary_of_an_unknown_id_is_refused():
    with pytest.raises(SimplicialError) as err:
        boundary(builtin_space("sphere2"), "nope")
    assert str(err.value) == "unknown simplex id 'nope'"


def test_a_face_without_its_record_is_refused():
    # validate reports the gap; face() meets it on a presentation never validated
    faces = {("e", 0): nondeg("v")}
    X = SimplicialSetPresentation("gap", "v", {0: ["v"], 1: ["e"]}, faces)
    with pytest.raises(SimplicialError) as err:
        face(X, nondeg("e"), 1)
    assert str(err.value) == "missing face table entry for ('e', 1)"


def test_an_id_that_names_an_inverse_is_refused():
    faces = {(e, i): nondeg("v") for e in ("e", "e~") for i in (0, 1)}
    X = SimplicialSetPresentation("clash", "v", {0: ["v"], 1: ["e", "e~"]}, faces)
    with pytest.raises(SimplicialError) as err:
        adjoin_inverses(X)
    assert str(err.value) == "id 'e~' collides with the op alphabet"


def test_validate_reports_a_negative_dimension():
    X = SimplicialSetPresentation("negative", "v", {0: ["v"], -1: ["z"]}, {})
    assert validate(X) == ["negative dimension -1"]


@pytest.mark.parametrize(
    "old, new, message",
    [
        (INTERVAL_JSON, "[]", "top level must be an object"),
        ('["a", "b"]', '"a"', "simplices['0'] must be a list of id strings"),
        ('[{"deg": [], "base": "b"}, {"deg": [], "base": "a"}]', "{}",
         "faces['e'] must be a list of face records"),
    ],
    ids=["top-level-list", "simplices-not-a-list", "faces-not-a-list"],
)
def test_json_refuses_a_value_of_the_wrong_type(old, new, message):
    with pytest.raises(SimplicialError) as err:
        presentation_from_json(INTERVAL_JSON.replace(old, new))
    assert str(err.value) == f"<json>: {message}"


def test_an_unknown_builtin_is_refused():
    with pytest.raises(SimplicialError) as err:
        builtin_space("nosuch")
    assert str(err.value) == (
        "unknown built-in 'nosuch'; choices: point, circle, sphere2, sphere3, "
        "torus, boundary-delta3, collapsed-delta3"
    )
