import gc
import json
import os
import threading
import time
import weakref

import pytest

from loophomology import cli, comparison
from loophomology import loopcomplex as loop_mod
from loophomology.cli import EXIT_OK, EXIT_VERIFY, main
from loophomology import verify as verify_mod
from loophomology.cobar import format_word, word_degree
from loophomology.comparison import necklical_differential
from loophomology.homalg import HomologyEntry
from loophomology.rings import Chain, ZZ
from loophomology.loopcomplex import format_loop_generator, hochschild_slice
from reference import multiply, product
from loophomology.presentation import SimplicialSetPresentation, adjoin_inverses, nondeg
from loophomology.simplicial import builtin_space
from test_golden_cli import run, sweep
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


@pytest.fixture(autouse=True)
def no_child_is_left():
    # run_verify reaps its forked child before it returns or raises
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forking(monkeypatch, forks):
    """run_verify on the two-process path (forks) or the one-process path."""
    monkeypatch.setattr(verify_mod, "_forks", lambda: forks)


def _child_state(monkeypatch, tmp_path, state):
    """Take the two-process path, and have the forked child write state()
    to a file as JSON once its part has run; returns the file's reader."""
    parent, real = os.getpid(), verify_mod._check_complexes
    path = tmp_path / "child.json"

    def share(*args):
        out = real(*args)
        if os.getpid() != parent:
            path.write_text(json.dumps(state()), encoding="utf-8")
        return out

    monkeypatch.setattr(verify_mod, "_check_complexes", share)
    _forking(monkeypatch, True)
    return lambda: json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def fresh_sweep():
    """verify's select_chi_variant with an empty cache: the sweep runs again
    under the test's patches, and its result is dropped after the test."""
    select_chi_variant.cache_clear()
    yield
    select_chi_variant.cache_clear()


def test_chi_selection_is_cached_and_stable():
    first = select_chi_variant()
    second = select_chi_variant()
    assert first is second
    variant, detail, mismatches = first
    assert variant == comparison.DEFAULT_CHI_VARIANT == "rotation"
    assert mismatches["rotation"] == 0
    assert mismatches["index-low"] > 0 and mismatches["index-high"] > 0


def test_the_sweep_checks_the_library_reading_and_selects_none(
    monkeypatch, fresh_sweep, capsys
):
    # phi computes under "index-low" what it names "rotation", and back: the
    # sweep finds the reading phi uses broken and another one clean, and
    # verify fails instead of switching to the clean one.  On sphere2 phi
    # commutes under either reading, so only the sweep fails
    swap = {"rotation": "index-low", "index-low": "rotation"}
    real = comparison._phi_kernel

    def swapped(space, variants):
        return real(space, tuple(swap.get(v, v) for v in variants))

    monkeypatch.setattr(comparison, "_phi_kernel", swapped)
    assert main(["verify", "--space", "sphere2"]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "chi exponent reading: rotation"
    failed = [line for line in lines if line.startswith("  FAIL")]
    assert failed == [
        "  FAIL  chi-exponent-sweep  [sweep on collapsed-delta3 through degree 5: "
        "index-low: 0 mismatches, index-high: 356 mismatches, rotation: 349 mismatches]"
    ]
    assert "  PASS  phi-chain-map  [variant rotation]" in lines


def test_a_second_run_verify_in_one_process_sweeps_in_neither_process(
    monkeypatch, tmp_path, fresh_sweep
):
    # the caller sweeps and keeps the result, and a child forked later
    # inherits it
    _forking(monkeypatch, True)
    report = run_verify("point", 1)
    kept = select_chi_variant()
    built = []
    real_build = verify_mod.build_complex_slice

    def recorded(X, *args, **kwargs):
        built.append(X.name)
        return real_build(X, *args, **kwargs)

    monkeypatch.setattr(verify_mod, "build_complex_slice", recorded)
    _forking(monkeypatch, False)
    assert run_verify("point", 1) == report
    child = _child_state(monkeypatch, tmp_path, lambda: built)
    assert run_verify("point", 1) == report
    assert select_chi_variant() is kept
    assert set(built) == set(child()) == {"point"}  # no fixture built
    select_chi_variant.cache_clear()
    assert select_chi_variant() == kept  # the sweep run again reads the same


def _broken_presentation():
    # boundary-delta3 with one face of a 2-simplex out of place
    bd = builtin_space("boundary-delta3")
    faces = dict(bd.faces)
    faces[("012", 0)] = nondeg("01")
    return SimplicialSetPresentation("broken", "0", dict(bd.simplices), faces)


def test_verify_invalid_presentation_reports_and_skips():
    report = run_verify(_broken_presentation(), 2, 2)
    assert not report.all_passed
    assert report.results[0].name == "simplicial-identities"
    assert report.results[0].status == "fail"
    assert "012" in report.results[0].detail
    assert report.results[1].status == "skip"


def test_verify_runs_no_sweep_on_an_invalid_presentation(monkeypatch):
    def sweep():
        raise AssertionError("the chi sweep ran")

    monkeypatch.setattr(verify_mod, "select_chi_variant", sweep)
    report = run_verify(_broken_presentation(), 2, 2)
    assert [r.status for r in report.results] == ["fail", "skip"]
    assert report.to_text().splitlines()[1] == "chi exponent reading: rotation"
    assert '"chi_variant": "rotation"' in report.to_json()


def test_verify_report_structure_records_sweep():
    report = run_verify("point", 1)
    text = report.to_text()
    assert "index-low:" in text and "index-high:" in text and "rotation: 0" in text


# ---------------------------------------------------------------------------
# checks 3 and 5 read the stored slices; each slice is built once


def _hochschild_generators(name, max_degree):
    sl = hochschild_slice(builtin_space(name), max_degree)
    return {(name, g): 1 for n in sl.degrees() if n for g in sl.bases[n]}


def _count_hochschild_calls(monkeypatch):
    """{(space name, generator): calls of the Hochschild kernel}, filled as
    the kernels run."""
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
    return calls


def test_verify_takes_each_hochschild_differential_once(monkeypatch, fresh_sweep):
    # once per generator of the input's own slice, once per generator of the
    # sweep fixture; the phi check recomputes none of them
    expected = _hochschild_generators("sphere2", 4)
    expected.update(_hochschild_generators("collapsed-delta3", 5))
    _forking(monkeypatch, False)
    calls = _count_hochschild_calls(monkeypatch)
    report = run_verify("sphere2", 4)
    assert report.all_passed
    assert calls == expected


def test_each_process_takes_its_hochschild_differentials_once(
    monkeypatch, tmp_path, fresh_sweep
):
    # the parent runs the sweep on its fixture, the child builds the input's
    # hochschild-of-cobar
    own = _hochschild_generators("sphere2", 4)
    fixture = _hochschild_generators("collapsed-delta3", 5)
    calls = _count_hochschild_calls(monkeypatch)
    child = _child_state(monkeypatch, tmp_path, lambda: [[repr(k), n] for k, n in calls.items()])
    report = run_verify("sphere2", 4)
    assert report.all_passed
    assert calls == fixture
    assert dict(child()) == {repr(key): n for key, n in own.items()}


def test_chi_sweep_keeps_only_its_result(monkeypatch, fresh_sweep):
    built = []
    real_build = verify_mod.build_complex_slice

    def recorded(X, name, *args, **kwargs):
        sl = real_build(X, name, *args, **kwargs)
        built.append((X.name, name, weakref.ref(sl)))
        return sl

    monkeypatch.setattr(verify_mod, "build_complex_slice", recorded)
    assert verify_mod.select_chi_variant()[0] == "rotation"
    gc.collect()
    assert [(space, name) for space, name, _ in built] == [
        ("collapsed-delta3", "hochschild-of-cobar"),
        ("collapsed-delta3", "cohoch"),
    ]
    assert all(ref() is None for _, _, ref in built)


def _watch_slices(monkeypatch):
    """Record, in whichever process builds, the complexes built (name: weak
    reference) and each breach of the one-slice invariant: each slice is
    dropped before the next build; only cohoch waits for
    hochschild-of-cobar, and is dropped once phi has read both, before the
    universal-coefficients reductions of the latter.  Returns (built,
    breaches, alive), alive() naming the slices still held."""
    select_chi_variant()  # the sweep builds through its own functions
    built, breaches = {}, []
    real_build = verify_mod.build_complex_slice
    real_homology = verify_mod.homology_of_slice

    def alive():
        gc.collect()
        return {name for name, ref in built.items() if ref() is not None}

    def waiting():
        return {"cohoch"} & set(built) if "hochschild-of-cobar" not in built else set()

    def recorded(X, name, *args, **kwargs):
        if alive() != waiting():
            breaches.append(f"{sorted(alive())} alive at the build of {name}")
        sl = real_build(X, name, *args, **kwargs)
        built[name] = weakref.ref(sl)
        return sl

    def reducing(sl, *args):
        if alive() != waiting() | {next(reversed(built))}:
            breaches.append(f"{sorted(alive())} alive at a reduction")
        return real_homology(sl, *args)

    monkeypatch.setattr(verify_mod, "build_complex_slice", recorded)
    monkeypatch.setattr(verify_mod, "homology_of_slice", reducing)
    return built, breaches, alive


@pytest.mark.parametrize("space", ["sphere2", "collapsed-delta3"])
def test_verify_holds_one_slice_at_a_time(monkeypatch, space):
    # in one process, the complexes phi does not read are built first, and
    # then the child's part, the complexes phi reads
    _forking(monkeypatch, False)
    built, breaches, alive = _watch_slices(monkeypatch)
    report = run_verify(space, 4)
    assert report.all_passed
    complexes = supported_complexes(builtin_space(space))
    phi_reads = [name for name in complexes if name in verify_mod._PHI_READS]
    assert list(built) == [name for name in complexes if name not in phi_reads] + phi_reads
    assert breaches == [] and not alive()


@pytest.mark.parametrize("space", ["sphere2", "collapsed-delta3"])
def test_each_process_holds_one_slice_at_a_time(monkeypatch, tmp_path, space):
    # in two, the child builds cohoch and hochschild-of-cobar and the parent
    # every other complex; the child's record comes back in a file
    built, breaches, alive = _watch_slices(monkeypatch)
    child = _child_state(monkeypatch, tmp_path, lambda: [list(built), breaches, sorted(alive())])
    report = run_verify(space, 4)
    assert report.all_passed
    complexes = supported_complexes(builtin_space(space))
    assert list(built) == [name for name in complexes if name not in verify_mod._PHI_READS]
    assert breaches == [] and not alive()
    assert child() == [[name for name in complexes if name in verify_mod._PHI_READS], [], []]


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


def test_sweep_fails_when_no_reading_is_clean(monkeypatch, fresh_sweep, capsys):
    # on a space that is not 1-reduced the phi check skips, so only the
    # sweep can show that phi is no chain map under any reading
    _phi_with_a_stray_key(monkeypatch)
    report = run_verify("torus", 2, 2)
    _, _, mismatches = verify_mod.select_chi_variant()
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


def test_verify_fails_when_a_hochschild_wrap_sign_is_flipped(monkeypatch, tmp_path):
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
    # the child builds hochschild-of-cobar, so it counts the flips
    child = _child_state(monkeypatch, tmp_path, lambda: len(flipped))
    report = run_verify("sphere2", 4)
    failed = {r.name for r in report.results if r.status == "fail"}
    assert child() > 0
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
    def sweep():
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


# ---------------------------------------------------------------------------
# one process or two: the same report


def _records(monkeypatch, argv):
    """cli.main's record of argv (exit code, stdout, stderr) on the
    one-process path, then on the two-process path."""
    records = []
    for forks in (False, True):
        _forking(monkeypatch, forks)
        records.append(run(argv))
    return records


@pytest.mark.parametrize(
    "argv", [argv for argv in sweep() if argv[0] == "verify"], ids=" ".join
)
def test_the_golden_reports_are_the_same_in_one_process_and_two(monkeypatch, argv):
    one, two = _records(monkeypatch, argv)
    assert one == two


@pytest.mark.parametrize("output", ["table", "json"])
def test_a_failing_report_is_the_same_in_one_process_and_two(monkeypatch, output):
    # S2 x S2 at degree 4 fails d-squared on both hat complexes, which the
    # parent checks, and passes phi, which the child checks
    S2 = builtin_space("sphere2")
    monkeypatch.setattr(cli, "load_space", lambda name: product(S2, S2))
    argv = ["verify", "--space", "S2xS2", "--max-degree", "4", "--format", output]
    one, two = _records(monkeypatch, argv)
    assert one == two
    assert one.splitlines()[0].endswith("(exit 2)")
    assert "d-squared:hat-cobar" in one and "phi-chain-map" in one


@pytest.mark.parametrize(
    "failure", ["exit 3", "exit 3 once written", "exit 0, nothing written", "raise"]
)
def test_a_failed_child_leaves_the_one_process_report(monkeypatch, capfd, failure):
    # the child's part then runs in the parent; the child prints nothing
    _forking(monkeypatch, False)
    expected = run_verify("sphere2", 3, 2)
    parent, real = os.getpid(), verify_mod._check_complexes
    real_exit = os._exit
    ran = []

    def failing(X, names, *window):
        if os.getpid() == parent:
            ran.append(names)
        elif failure == "raise":
            raise RuntimeError("the child's part failed")
        elif failure != "exit 3 once written":
            real_exit(3 if failure == "exit 3" else 0)
        return real(X, names, *window)

    if failure == "exit 3 once written":
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    monkeypatch.setattr(verify_mod, "_check_complexes", failing)
    _forking(monkeypatch, True)
    report = run_verify("sphere2", 3, 2)
    # the parent's own part, then the child's
    assert ran == [["chains", "cobar", "hat-cobar", "hat-cohoch"], ["cohoch", "hochschild-of-cobar"]]
    assert report.to_text() == expected.to_text()
    assert report.to_json() == expected.to_json()
    assert capfd.readouterr() == ("", "")


def test_an_exception_in_the_parents_part_propagates(monkeypatch):
    # the child, still busy, is killed rather than waited for
    parent, real = os.getpid(), verify_mod._check_complexes

    def raising(X, names, *window):
        if os.getpid() == parent:
            raise RuntimeError("the parent's part failed")
        time.sleep(30)
        return real(X, names, *window)

    monkeypatch.setattr(verify_mod, "_check_complexes", raising)
    _forking(monkeypatch, True)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="the parent's part failed"):
        run_verify("sphere2", 3, 2)
    assert time.perf_counter() - start < 10


def test_without_a_fork_the_child_part_runs_here(monkeypatch):
    _forking(monkeypatch, False)
    expected = run_verify("sphere2", 3, 2)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _forking(monkeypatch, True)
    monkeypatch.setattr(verify_mod.os, "fork", no_fork)
    report = run_verify("sphere2", 3, 2)
    assert report.to_text() == expected.to_text()


def test_the_child_runs_off_its_parents_cpu(monkeypatch, tmp_path):
    # where the scheduler leaves a forked child on its parent's CPU, the two
    # would take turns on it; the parent's own mask stays as it was
    mask = os.sched_getaffinity(0)
    assert verify_mod._this_cpu() in mask
    here = min(mask)
    monkeypatch.setattr(verify_mod, "_this_cpu", lambda: here)
    child = _child_state(monkeypatch, tmp_path, lambda: sorted(os.sched_getaffinity(0)))
    assert run_verify("point", 1).all_passed
    assert child() == sorted(mask - {here} or mask)
    assert os.sched_getaffinity(0) == mask


def test_no_fork_beside_another_thread_or_on_one_cpu(monkeypatch):
    assert threading.active_count() == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not verify_mod._forks()
    finally:
        release.set()
        other.join()
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0})
    assert not verify_mod._forks()
    monkeypatch.setattr(verify_mod.os, "sched_getaffinity", lambda pid: {0, 1})
    assert verify_mod._forks()
