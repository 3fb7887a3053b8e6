"""The one-dict differentials and comparison maps against their term-by-term
references (tests/reference.py): equal chains on every generator of every
built-in slice, over Z, F2 and F3 and under every chi reading,
seam-only free reduction against a full rescan, and the one-pass chi sweep
against one walk per reading."""

import itertools

import pytest

import reference as ref
from loophomology.cobar import (
    CobarAlgebra,
    _splice,
    bar_differential,
    cobar_differential,
    reduce_word,
)
from loophomology import comparison
from loophomology.comparison import (
    CHI_VARIANTS,
    chi,
    necklical_differential,
    necklical_face,
    phi,
    phi_slice_mismatches,
)
from loophomology.rings import ZZ, prime_field
from loophomology.loopcomplex import (
    cohoch_differential,
    cohoch_slice,
    hochschild_differential,
    hochschild_slice,
)
from loophomology.presentation import adjoin_inverses
from loophomology.simplicial import BUILTIN_NAMES, builtin_space
from loophomology.verify import build_complex_slice, supported_complexes

RINGS = (ZZ, prime_field(2), prime_field(3))
CASES = [(name, 4, 2) for name in BUILTIN_NAMES] + [("collapsed-delta3", 5, None)]


def _word_space(X, complex_name):
    # the space argument the slice builder hands its differential
    return adjoin_inverses(X) if complex_name.startswith("hat-") else X


def _pairs(X, complex_name, gen):
    """(package call, reference call) pairs that must give equal chains."""
    if complex_name in ("cobar", "hat-cobar"):
        space = _word_space(X, complex_name)
        return [
            (lambda r: cobar_differential(space, gen, r),
             lambda r: ref.cobar_differential(space, gen, r)),
        ]
    if complex_name in ("cohoch", "hat-cohoch"):
        space = _word_space(X, complex_name)
        hat = complex_name == "hat-cohoch"
        return [
            (lambda r: cohoch_differential(space, gen, r),
             lambda r: ref.cohoch_differential(space, gen, r, hat=hat)),
            (lambda r: necklical_differential(space, gen, r),
             lambda r: ref.necklical_differential(space, gen, r)),
        ]
    assert complex_name == "hochschild-of-cobar"
    if X.is_one_reduced():
        algebra = CobarAlgebra(X)
    else:
        algebra = CobarAlgebra(adjoin_inverses(X))
    space = algebra.space
    b, u = gen
    pairs = [
        (lambda r: hochschild_differential(algebra, gen, r),
         lambda r: ref.hochschild_differential(algebra, gen, r)),
        (lambda r: bar_differential(algebra, b, r),
         lambda r: ref.bar_differential(algebra, b, r)),
    ]
    for v in CHI_VARIANTS:
        pairs.append(
            (lambda r, v=v: phi(space, gen, r, v), lambda r, v=v: ref.phi(space, gen, r, v))
        )
        for a in b:
            pairs.append(
                (lambda r, v=v, a=a: chi(space, a, u, r, v),
                 lambda r, v=v, a=a: ref.chi(space, a, u, r, v))
            )
    return pairs


@pytest.mark.parametrize(
    "name, degree, cap", CASES, ids=[f"{n}-D{d}" for n, d, _ in CASES]
)
def test_every_generator_matches_the_term_by_term_reference(name, degree, cap):
    X = builtin_space(name)
    checked = 0
    for complex_name in supported_complexes(X):
        if complex_name == "chains":
            continue
        sl = build_complex_slice(X, complex_name, degree, max_word_length=cap)
        for n in sl.degrees():
            for gen in sl.bases[n]:
                for new, old in _pairs(X, complex_name, gen):
                    for ring in RINGS:
                        assert new(ring) == old(ring), (complex_name, gen, ring)
                        checked += 1
    assert checked


def test_necklical_faces_match_the_reference():
    for name in ("torus", "boundary-delta3", "collapsed-delta3"):
        X = builtin_space(name)
        space = adjoin_inverses(X)
        sl = build_complex_slice(X, "hat-cohoch", 3, max_word_length=2)
        for n in sl.degrees():
            for gen in sl.bases[n]:
                p = X.dim(gen[0])
                for eps in (0, 1, 2):
                    for i in range(1, (p if eps == 2 else n) + 1):
                        assert necklical_face(space, eps, i, gen) == ref.necklical_face(
                            space, eps, i, gen
                        )


# ---------------------------------------------------------------------------
# free reduction at the seams


def _reduced_words(letters, ops, max_length):
    words = [()]
    for length in range(1, max_length + 1):
        for w in itertools.product(letters, repeat=length):
            if reduce_word(w, ops) == w:
                words.append(w)
    return words


def test_splice_cancels_across_both_seams_like_a_full_rescan():
    ext = adjoin_inverses(builtin_space("torus"))
    ops = ext.op_pairs
    words = _reduced_words(("a", "a~", "b", "b~"), ops, 3)
    across_both = 0
    for head, mid, tail in itertools.product(words, repeat=3):
        spliced = _splice(head, mid, tail, ops)
        assert spliced == reduce_word(head + mid + tail, ops), (head, mid, tail)
        # the middle cancels away and the tail still cancels into the head
        if mid and len(spliced) < len(head) + len(tail) - len(mid):
            across_both += 1
    assert across_both
    assert _splice(("a", "b"), ("b~",), ("a~",), ops) == ()
    assert _splice(("b", "a"), ("a~", "b~"), ("b", "a", "c"), ops) == ("b", "a", "c")


def test_chi_rotations_that_cancel_across_both_seams_match_the_reference():
    # a = (a~, b, a, b), u = (b~,): the term of the second letter splices
    # (a, b) + (b~) + (a~), so u cancels away and then a against a~.
    ext = adjoin_inverses(builtin_space("torus"))
    words = _reduced_words(("a", "a~", "b", "b~", "c"), ext.op_pairs, 2)
    fours = [w for w in _reduced_words(("a", "a~", "b"), ext.op_pairs, 4) if len(w) == 4]
    for a in fours + words:
        for u in words:
            for v in CHI_VARIANTS:
                assert chi(ext, a, u, variant=v) == ref.chi(ext, a, u, variant=v)
    assert ref.coefficient(chi(ext, ("a~", "b", "a", "b"), ("b~",)), ("b", ())) == 1


# ---------------------------------------------------------------------------
# the chain-map sweep

SWEEPS = [("collapsed-delta3", 5), ("sphere2", 6), ("sphere3", 6)]
STRAY = ("nowhere", ())
STRAY_READINGS = ("index-low", "rotation")


def _stray_target(hoch, where):
    """A single-bar-letter generator whose row some differential reaches,
    or, where is "top", the first generator of the top degree, whose row
    none reaches."""
    if where == "top":
        return hoch.bases[hoch.degrees()[-1]][0]
    for n in hoch.degrees():
        above = hoch.diffs.get(n + 1)
        if above is None:
            continue
        reached = set(above.indices)
        for i, (b, u) in enumerate(hoch.bases[n]):
            if len(b) == 1 and i in reached:
                return hoch.bases[n][i]
    raise AssertionError("no generator of a single bar letter is reached")


@pytest.mark.parametrize(
    "stray", [None, "reached", "top"], ids=["clean", "stray-key", "top-stray-key"]
)
@pytest.mark.parametrize(
    "name, max_degree", SWEEPS, ids=[f"{n}-D{d}" for n, d in SWEEPS]
)
def test_one_pass_sweep_matches_one_walk_per_reading(
    monkeypatch, name, max_degree, stray
):
    X = builtin_space(name)
    hoch = hochschild_slice(X, max_degree)
    loop = cohoch_slice(X, max_degree)
    clean = phi_slice_mismatches(X, CHI_VARIANTS, hoch, loop)
    if stray:
        # phi of one generator gains a key outside the free-loop basis,
        # under two of the three readings only
        target = _stray_target(hoch, stray)
        real_phi, real_kernel = ref.phi, comparison._phi_kernel

        def ref_phi(space, gen, ring=ZZ, variant="rotation"):
            out = real_phi(space, gen, ring, variant)
            if gen == target and variant in STRAY_READINGS:
                out.add(STRAY, 1)
            return out

        def phi_kernel(space, variants):
            kernel = real_kernel(space, variants)

            def terms(gen):
                out = kernel(gen)
                if gen == target:
                    out[STRAY] = sum(
                        1 << (comparison._LANE * k)
                        for k, v in enumerate(variants)
                        if v in STRAY_READINGS
                    )
                return out

            return terms

        monkeypatch.setattr(ref, "phi", ref_phi)
        monkeypatch.setattr(comparison, "_phi_kernel", phi_kernel)
    walk = phi_slice_mismatches(X, CHI_VARIANTS, hoch, loop)
    assert list(walk) == list(CHI_VARIANTS)
    assert walk == ref.phi_slice_mismatches(X, CHI_VARIANTS, hoch, loop)
    if stray:
        # the stray key fails its readings, there and, unless it sits in the
        # top degree, one degree up
        assert target in walk["rotation"] and target not in clean["rotation"]
        grown = len(walk["rotation"]) - len(clean["rotation"])
        assert grown == 1 if stray == "top" else grown > 1
        assert walk["index-high"] == clean["index-high"]
    assert phi_slice_mismatches(X, ("rotation",), hoch, loop) == {
        "rotation": walk["rotation"]
    }
