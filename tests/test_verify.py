import gc
import weakref

from loophomology import loopcomplex as loop_mod
from loophomology import verify as verify_mod
from loophomology.cobar import format_word, word_degree
from loophomology.loopcomplex import (
    format_loop_generator,
    hochschild_slice,
    necklical_differential,
)
from loophomology.simplicial import (
    SimplicialSetPresentation,
    adjoin_inverses,
    builtin_space,
    nondeg,
)
from loophomology.verify import (
    build_complex_slice,
    run_verify,
    select_chi_variant,
    supported_complexes,
)


def test_serialization_goldens():
    assert format_word(()) == "[]"
    assert format_word(("t", "t~")) == "[t|t~]"
    assert format_loop_generator(("s", ("s", "s"))) == "(s ; [s|s])"
    ext = adjoin_inverses(builtin_space("circle"))
    assert word_degree(ext, ("t", "t~")) == 0
    assert word_degree(builtin_space("sphere2"), ("s", "s")) == 2


def test_supported_complexes():
    assert supported_complexes(builtin_space("sphere2")) == [
        "chains",
        "cobar",
        "hat-cobar",
        "cohoch",
        "hat-cohoch",
        "hochschild-of-cobar",
    ]
    assert supported_complexes(builtin_space("torus")) == [
        "chains",
        "hat-cobar",
        "hat-cohoch",
        "hochschild-of-cobar",
    ]


def test_chi_selection_is_cached_and_stable():
    first = select_chi_variant()
    second = select_chi_variant()
    assert first is second
    variant, detail, mismatches = first
    assert variant == "rotation"
    assert mismatches["rotation"] == 0
    assert mismatches["index-low"] > 0 and mismatches["index-high"] > 0


def test_verify_invalid_presentation_reports_and_skips():
    bd = builtin_space("boundary-delta3")
    faces = dict(bd.faces)
    faces[("012", 0)] = nondeg("01")
    broken = SimplicialSetPresentation("broken", "0", dict(bd.simplices), faces)
    report = run_verify(broken, 2, 2)
    assert not report.all_passed
    assert report.results[0].name == "simplicial-identities"
    assert report.results[0].status == "fail"
    assert "012" in report.results[0].detail
    assert report.results[1].status == "skip"


def test_verify_report_structure_records_sweep():
    report = run_verify("point", 1)
    text = report.to_text()
    assert "index-low:" in text and "index-high:" in text and "rotation: 0" in text


# ---------------------------------------------------------------------------
# checks 3 and 5 read the slices step 2 built


def test_verify_takes_each_hochschild_differential_once(monkeypatch):
    # once per generator of the input's own slice, once per generator of the
    # sweep fixture; the phi check recomputes none of them
    own = hochschild_slice(builtin_space("sphere2"), 4)
    fixture = hochschild_slice(builtin_space("collapsed-delta3"), 5)
    expected = {
        (name, g): 1
        for name, sl in (("sphere2", own), ("collapsed-delta3", fixture))
        for n in sl.degrees()
        if n
        for g in sl.bases[n]
    }
    calls = {}
    real = loop_mod.hochschild_differential

    def counted(algebra, gen, *args, **kwargs):
        key = (algebra.letters.name, gen)
        calls[key] = calls.get(key, 0) + 1
        return real(algebra, gen, *args, **kwargs)

    monkeypatch.setattr(loop_mod, "hochschild_differential", counted)
    monkeypatch.setattr(verify_mod, "_chi_selection_cache", {})
    report = run_verify("sphere2", 4)
    assert report.all_passed
    assert calls == expected


def test_chi_sweep_keeps_only_its_result(monkeypatch):
    built = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            sl = fn(*args, **kwargs)
            built.append(weakref.ref(sl))
            return sl

        return wrapper

    monkeypatch.setattr(loop_mod, "hochschild_slice", recorded(loop_mod.hochschild_slice))
    monkeypatch.setattr(loop_mod, "cohoch_slice", recorded(loop_mod.cohoch_slice))
    monkeypatch.setattr(verify_mod, "_chi_selection_cache", {})
    assert select_chi_variant()[0] == "rotation"
    gc.collect()
    assert len(built) == 2
    assert all(ref() is None for ref in built)


def test_face_check_fails_when_a_face_term_is_dropped(monkeypatch):
    X = builtin_space("boundary-delta3")
    sl = build_complex_slice(X, "hat-cohoch", 2, max_word_length=2)
    ext = adjoin_inverses(X)
    gens = [g for n in sl.degrees() if n for g in sl.bases[n]]
    touched = [g for g in gens if necklical_differential(ext, g).terms]
    assert touched
    real = loop_mod.necklical_differential

    def dropping(space, gen, *args, **kwargs):
        out = real(space, gen, *args, **kwargs)
        if out.terms:
            del out.terms[next(iter(out.terms))]
        return out

    monkeypatch.setattr(loop_mod, "necklical_differential", dropping)
    report = run_verify(X, 2, 2)
    (check,) = [r for r in report.results if r.name == "face-vs-formula-differential"]
    assert check.status == "fail"
    assert check.detail == (
        f"{len(touched)}/{len(gens)} generators disagree, first "
        + format_loop_generator(touched[0])
    )
    assert not report.all_passed


def test_phi_check_fails_on_a_key_outside_the_free_loop_basis(monkeypatch):
    select_chi_variant()  # the sweep runs with the real phi
    X = builtin_space("sphere2")
    hoch = hochschild_slice(X, 3)
    gens = [g for n in hoch.degrees() for g in hoch.bases[n]]
    real = loop_mod.phi

    def stray(*args, **kwargs):
        return real(*args, **kwargs).add(("nowhere", ()), 1)

    monkeypatch.setattr(loop_mod, "phi", stray)
    report = run_verify(X, 3)
    (check,) = [r for r in report.results if r.name == "phi-chain-map"]
    assert check.status == "fail"
    assert check.detail == f"{len(gens)} generators, first {gens[0]!r}"
    assert "FAIL  phi-chain-map" in report.to_text()
