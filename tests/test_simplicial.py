import pytest

from loophomology.homalg import Chain, ZZ
from loophomology.simplicial import (
    BUILTIN_NAMES,
    FormalSimplex,
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
    assert endpoints(ext.space, nondeg("02~")) == ("2", "0")


def test_adjoin_inverses():
    assert adjoin_inverses(builtin_space("point")).op_pairs == {}
    assert adjoin_inverses(builtin_space("sphere2")).op_pairs == {}
    circle_ext = adjoin_inverses(builtin_space("circle"))
    assert circle_ext.op_pairs == {"t": "t~", "t~": "t"}
    assert circle_ext.op("t~") == "t"
    # one fresh 1-simplex per original, other dimensions untouched
    bd = builtin_space("boundary-delta3")
    ext = adjoin_inverses(bd)
    for d, ids in bd.simplices.items():
        expected = 2 * len(ids) if d == 1 else len(ids)
        assert len(ext.space.simplices[d]) == expected
    for e in bd.simplices[1]:
        assert ext.op_pairs[ext.op_pairs[e]] == e
        lo, hi = endpoints(bd, nondeg(e))
        assert endpoints(ext.space, nondeg(ext.op_pairs[e])) == (hi, lo)


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


def test_validate_reports_faceless_simplex_once():
    X = SimplicialSetPresentation("huge", "a", {0: ["a"], 10**6: ["q"]}, {})
    assert validate(X) == ["q: missing all 1000001 faces"]


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
