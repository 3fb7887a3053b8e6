import gc
import weakref

import pytest

from loophomology import comparison
from loophomology import loopcomplex as loop_mod
from loophomology.cli import EXIT_OK, EXIT_VERIFY, main
from loophomology import verify as verify_mod
from loophomology.cobar import format_word, word_degree
from loophomology.comparison import necklical_differential
from loophomology.homalg import HomologyEntry
from loophomology.linalg import Chain, ZZ
from loophomology.loopcomplex import format_loop_generator, hochschild_slice
from reference import multiply
from loophomology.presentation import SimplicialSetPresentation, adjoin_inverses, nondeg
from loophomology.simplicial import builtin_space
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
# checks 3 and 5 read the stored slices; each slice is built once


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
    real = loop_mod._hochschild_kernel

    def counted(algebra):
        kernel = real(algebra)

        def terms(gen):
            key = (algebra.space.name, gen)
            calls[key] = calls.get(key, 0) + 1
            return kernel(gen)

        return terms

    monkeypatch.setattr(loop_mod, "_hochschild_kernel", counted)
    monkeypatch.setattr(verify_mod, "_chi_selection_cache", {})
    report = run_verify("sphere2", 4)
    assert report.all_passed
    assert calls == expected


def test_chi_sweep_keeps_only_its_result(monkeypatch):
    built = []
    real_build = verify_mod.build_complex_slice

    def recorded(X, name, *args, **kwargs):
        sl = real_build(X, name, *args, **kwargs)
        built.append((X.name, name, weakref.ref(sl)))
        return sl

    monkeypatch.setattr(verify_mod, "build_complex_slice", recorded)
    monkeypatch.setattr(verify_mod, "_chi_selection_cache", {})
    assert select_chi_variant()[0] == "rotation"
    gc.collect()
    assert [(space, name) for space, name, _ in built] == [
        ("collapsed-delta3", "hochschild-of-cobar"),
        ("collapsed-delta3", "cohoch"),
    ]
    assert all(ref() is None for _, _, ref in built)


@pytest.mark.parametrize("space", ["sphere2", "collapsed-delta3"])
def test_verify_holds_one_slice_at_a_time(monkeypatch, space):
    # each slice is dropped before the next build; only cohoch waits for
    # hochschild-of-cobar, the last build, and is dropped once phi has read
    # both, before the universal-coefficients reductions of the last
    select_chi_variant()  # the sweep builds through its own functions
    built = {}
    real_build = verify_mod.build_complex_slice
    real_homology = verify_mod.homology_of_slice

    def alive():
        gc.collect()
        return {name for name, ref in built.items() if ref() is not None}

    def waiting():
        return {"cohoch"} & set(built) if "hochschild-of-cobar" not in built else set()

    def recorded(X, name, *args, **kwargs):
        assert alive() == waiting()
        sl = real_build(X, name, *args, **kwargs)
        built[name] = weakref.ref(sl)
        return sl

    def reducing(sl, *args):
        assert alive() == waiting() | {next(reversed(built))}
        return real_homology(sl, *args)

    monkeypatch.setattr(verify_mod, "build_complex_slice", recorded)
    monkeypatch.setattr(verify_mod, "homology_of_slice", reducing)
    report = run_verify(space, 4)
    assert report.all_passed
    assert list(built) == supported_complexes(builtin_space(space))
    assert not alive()


def test_face_check_fails_when_a_face_term_is_dropped(monkeypatch):
    X = builtin_space("boundary-delta3")
    sl = build_complex_slice(X, "hat-cohoch", 2, max_word_length=2)
    ext = adjoin_inverses(X)
    gens = [g for n in sl.degrees() if n for g in sl.bases[n]]
    touched = [g for g in gens if necklical_differential(ext, g).terms]
    assert touched
    real = comparison._necklical_kernel

    def dropping(space):
        kernel = real(space)

        def terms(gen):
            out = kernel(gen)
            if out:
                del out[next(iter(out))]
            return out

        return terms

    monkeypatch.setattr(comparison, "_necklical_kernel", dropping)
    report = run_verify(X, 2, 2)
    (check,) = [r for r in report.results if r.name == "face-vs-formula-differential"]
    assert check.status == "fail"
    assert check.detail == (
        f"{len(touched)}/{len(gens)} generators disagree, first "
        + format_loop_generator(touched[0])
    )
    assert not report.all_passed


def _phi_with_a_stray_key(monkeypatch):
    # phi puts a key outside every free-loop basis into each image, under
    # every reading
    real = comparison._phi_kernel

    def stray(space, variants):
        kernel = real(space, variants)

        def terms(gen):
            out = kernel(gen)
            out[("nowhere", ())] = sum(
                1 << (comparison._LANE * v) for v in range(len(variants))
            )
            return out

        return terms

    monkeypatch.setattr(comparison, "_phi_kernel", stray)


def test_phi_check_fails_on_a_key_outside_the_free_loop_basis(monkeypatch):
    select_chi_variant()  # the sweep runs with the real phi
    X = builtin_space("sphere2")
    hoch = hochschild_slice(X, 3)
    gens = [g for n in hoch.degrees() for g in hoch.bases[n]]
    _phi_with_a_stray_key(monkeypatch)
    report = run_verify(X, 3)
    (check,) = [r for r in report.results if r.name == "phi-chain-map"]
    assert check.status == "fail"
    assert check.detail == f"{len(gens)} generators, first {gens[0]!r}"
    assert "FAIL  phi-chain-map" in report.to_text()


def test_sweep_fails_when_no_reading_is_clean(monkeypatch, capsys):
    # on a space that is not 1-reduced the phi check skips, so only the
    # sweep can show that phi is no chain map under any reading
    _phi_with_a_stray_key(monkeypatch)
    monkeypatch.setattr(verify_mod, "_chi_selection_cache", {})
    report = run_verify("torus", 2, 2)
    _, _, mismatches = select_chi_variant()
    assert min(mismatches.values()) > 0
    (sweep,) = [r for r in report.results if r.name == "chi-exponent-sweep"]
    assert sweep.status == "fail"
    assert "FAIL  chi-exponent-sweep" in report.to_text()
    (phi_check,) = [r for r in report.results if r.name == "phi-chain-map"]
    assert phi_check.status == "skip"
    assert not report.all_passed
    argv = ["verify", "--space", "torus", "--max-degree", "2", "--max-word-length", "2"]
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().out == report.to_text()


def test_verify_fails_when_a_hochschild_wrap_sign_is_flipped(monkeypatch):
    select_chi_variant()  # the sweep runs with the real differential
    real = loop_mod._hochschild_kernel
    flipped = []

    def flipping(algebra):
        kernel = real(algebra)

        def terms(gen):
            out = kernel(gen)
            b, u = gen
            if b:
                # the last wrap term, (-1)^{eps_{n-1}} (a_1..a_{n-1}) (x) a_n u,
                # taken with the opposite sign
                key = (b[:-1], multiply(algebra, b[-1], u))
                eps_prev = sum(algebra.degree(a) + 1 for a in b[:-1])
                out[key] = out.get(key, 0) - 2 * (-1) ** eps_prev
                if not out[key]:
                    del out[key]
                flipped.append(gen)
            return out

        return terms

    monkeypatch.setattr(loop_mod, "_hochschild_kernel", flipping)
    report = run_verify("sphere2", 4)
    failed = {r.name for r in report.results if r.status == "fail"}
    assert flipped
    assert failed & {"d-squared:hochschild-of-cobar", "phi-chain-map"}
    assert not report.all_passed
    assert "result: FAILED" in report.to_text()


def test_verify_at_max_degree_0_skips_universal_coefficients(capsys):
    # a slice through degree 0 holds no d_1, so no Betti number to compare
    assert main(["verify", "--space", "sphere2", "--max-degree", "0"]) == EXIT_OK
    report = run_verify("sphere2", 0)
    assert capsys.readouterr().out == report.to_text()
    checks = [r for r in report.results if r.name.startswith("universal-coefficients:")]
    assert len(checks) == 6
    assert {(r.status, r.detail) for r in checks} == {
        ("skip", "max degree 0: no degree below the top to compare")
    }
    assert report.all_passed
    assert report.to_text().endswith(
        "  [max degree 0: no degree below the top to compare]\nresult: OK\n"
    )


def test_run_verify_refuses_a_negative_max_degree(monkeypatch):
    # refused before the chi sweep runs, not by the first build after it
    def sweep(max_degree=5):
        raise AssertionError("the chi sweep ran")

    monkeypatch.setattr(verify_mod, "select_chi_variant", sweep)
    with pytest.raises(ValueError) as err:
        run_verify("sphere2", -1)
    assert str(err.value) == "max_degree must be >= 0, not -1"


def test_verify_fails_when_the_contraction_sample_does_not_vanish(monkeypatch, capsys):
    # with s = 0, (sd + ds - 1)^k c = (-1)^k c never vanishes
    monkeypatch.setattr(comparison, "contraction_s", lambda *args: Chain(ZZ))
    report = run_verify("sphere2", 3, 2)
    line = "  FAIL  contraction-nilpotency  [sample did not vanish within 6 iterations]"
    assert line in report.to_text().splitlines()
    argv = ["verify", "--space", "sphere2", "--max-degree", "3", "--max-word-length", "2"]
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().out == report.to_text()


def test_verify_fails_when_betti_numbers_break_universal_coefficients(monkeypatch, capsys):
    # one rank more over Q than over F2 and F3 in every degree
    real = verify_mod.homology_of_slice

    def inflated(sl, n, ring):
        entry = real(sl, n, ring)
        if ring.kind == "Q":
            return HomologyEntry(n, entry.free_rank + 1)
        return entry

    monkeypatch.setattr(verify_mod, "homology_of_slice", inflated)
    report = run_verify("sphere2", 3, 2)
    lines = report.to_text().splitlines()
    assert "  FAIL  universal-coefficients:chains  [degree 0: Q 2, F2 1, F3 1]" in lines
    argv = ["verify", "--space", "sphere2", "--max-degree", "3", "--max-word-length", "2"]
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().out == report.to_text()
