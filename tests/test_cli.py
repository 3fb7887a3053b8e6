import json
from pathlib import Path

import pytest

import loophomology
from loophomology import cli
from loophomology.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    cmd_freehedron,
    cmd_homology,
    cmd_verify,
    load_space,
    main,
)
from loophomology.complexes import complex_recipe, supported_complexes
from loophomology.homalg import homology_pass
from loophomology.rings import parse_ring
from loophomology.presentation import SimplicialError, SimplicialSetPresentation, nondeg
from loophomology.simplicial import BUILTIN_NAMES, builtin_space
from loophomology.verify import CheckResult, VerifyReport, build_complex_slice, run_verify
from reference import collapsed_simplex, fixture, parse_json_lines

INTERVAL = {
    "name": "interval",
    "basepoint": "a",
    "simplices": {"0": ["a", "b"], "1": ["e"]},
    "faces": {"e": [{"deg": [], "base": "b"}, {"deg": [], "base": "a"}]},
}


def test_load_builtin():
    X = load_space("sphere2")
    assert X.name == "sphere2"


def test_load_json_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(INTERVAL), encoding="utf-8")
    X = load_space(str(path))
    assert X.name == "interval"
    summary = cmd_homology(str(path), complex_name="chains", max_degree=2)
    assert [e.free_rank for e in summary.entries] == [1, 0, 0]
    # a vertex may also be listed with no face records
    path.write_text(json.dumps(_replaced(("faces", "a"), [])), encoding="utf-8")
    assert load_space(str(path)).faces == X.faces


def test_load_rejects_bad_degeneracy_word(tmp_path):
    bad = json.loads(json.dumps(INTERVAL))
    bad["faces"]["e"][0]["deg"] = [0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(SimplicialError) as err:
        load_space(str(path))
    assert "[0, 1]" in str(err.value)


def test_load_rejects_invalid_presentation(tmp_path):
    broken = json.loads(json.dumps(INTERVAL))
    broken["faces"]["e"][0] = {"deg": [0], "base": "a"}  # face of wrong dimension
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    with pytest.raises(SimplicialError) as err:
        load_space(str(path))
    assert "invalid presentation" in str(err.value)


def _replaced(path, value):
    bad = json.loads(json.dumps(INTERVAL))
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return bad


FUZZ_FIELDS = [(k,) for k in INTERVAL] + [("faces", "e", 0, k) for k in ("deg", "base")]
FUZZ_JUNK = [None, 0, -1, True, 1.5, "", "zz", [], {}, [None], ["z"], 10**6]
MUST_REJECT = {
    "deg-letter": (("faces", "e", 0, "deg"), ["z"]),
    "deg-number": (("faces", "e", 0, "deg"), 5),
    "simplices-list": (("simplices",), []),
    "faces-list": (("faces",), []),
}
STRING_FIELDS = {("name",), ("basepoint",)}  # non-string junk must be rejected
HUGE_DIMENSION = {
    "name": "huge",
    "basepoint": "a",
    "simplices": {"0": ["a"], "1000000": ["q"]},
    "faces": {},
}
SAME_DIMENSION = {
    "name": "two-points",
    "basepoint": "a",
    "simplices": {"0": ["b"], "00": ["a"]},
    "faces": {},
}
TWO_DIMENSIONS = {
    "name": "two-dimensions",
    "basepoint": "a",
    "simplices": {"0": ["a"], "1": ["a"]},
    "faces": {"a": [{"deg": [], "base": "a"}, {"deg": [], "base": "a"}]},
}
NOT_UTF8 = b"\xff" + json.dumps(INTERVAL).encode()
# json.loads would keep the second list of "e"
REPEATED_KEY = json.dumps(INTERVAL).replace('"faces": {', '"faces": {"e": [], ').encode()
# "1_0" is dimension 10 to int(); a file names dimensions by plain numerals
DIMENSION_KEY = json.dumps(INTERVAL).replace('"1": ["e"]', '"1_0": ["e"]').encode()
IDENTITY_FAILS = {
    "name": "cone",
    "basepoint": "a",
    "simplices": {"0": ["a", "b"], "1": ["e", "f", "g"], "2": ["t"]},
    "faces": {
        "e": [{"base": "b"}, {"base": "a"}],
        "f": [{"base": "a"}, {"base": "b"}],
        "g": [{"base": "a"}, {"base": "a"}],
        # d_0 d_1 t = d_0 f = a, but d_0 d_0 t = d_0 e = b
        "t": [{"base": "e"}, {"base": "f"}, {"base": "g"}],
    },
}
# ids are any strings; the error line escapes a newline in one
NEWLINE_ID = _replaced(("simplices", "1"), ["e\nf"])
# a vertex has no faces: [] loads, a face record is refused
VERTEX_NO_FACES = _replaced(("faces", "a"), [])
VERTEX_WITH_FACE = _replaced(("faces", "a"), [{"base": "nowhere"}])
# json.loads recurses once per bracket and raises RecursionError
NESTED_TOO_DEEPLY = ("[" * 100_000 + "]" * 100_000).encode()


@pytest.mark.parametrize(
    "bad, must_reject",
    [
        pytest.param(_replaced(path, value), True, id=name)
        for name, (path, value) in MUST_REJECT.items()
    ]
    + [
        pytest.param(
            _replaced(path, value),
            path in STRING_FIELDS and not isinstance(value, str),
            id=f"{path[-1]}={value!r}",
        )
        for path in FUZZ_FIELDS
        for value in FUZZ_JUNK
        if (path, value) not in MUST_REJECT.values()
    ]
    + [pytest.param(HUGE_DIMENSION, True, id="huge-dimension")]
    + [pytest.param(SAME_DIMENSION, True, id="same-dimension")]
    + [pytest.param(TWO_DIMENSIONS, True, id="id-in-two-dimensions")]
    + [pytest.param(NOT_UTF8, True, id="not-utf-8")]
    + [pytest.param(REPEATED_KEY, True, id="repeated-key")]
    + [pytest.param(DIMENSION_KEY, True, id="dimension-key")]
    + [pytest.param(IDENTITY_FAILS, True, id="identity-fails")]
    + [pytest.param(NEWLINE_ID, True, id="newline-in-id")]
    + [pytest.param(VERTEX_NO_FACES, False, id="vertex-no-faces")]
    + [pytest.param(VERTEX_WITH_FACE, True, id="vertex-with-face")]
    + [pytest.param(NESTED_TOO_DEEPLY, True, id="nested-too-deeply")]
    + [pytest.param(None, True, id="directory")],
)
def test_main_rejects_malformed_json(tmp_path, capsys, bad, must_reject):
    """Malformed input either loads or ends with one error line that names the
    file, never a traceback."""
    space = tmp_path / "bad.json"
    if bad is None:  # a path that exists but cannot be read as a file
        space.mkdir()
    elif isinstance(bad, bytes):
        space.write_bytes(bad)
    else:
        space.write_text(json.dumps(bad), encoding="utf-8")
    for command in ("homology", "verify"):
        code = main([command, "--space", str(space), "--max-degree", "2"])
        err = capsys.readouterr().err
        if must_reject or code != EXIT_OK:
            assert code == EXIT_INPUT
            assert err.startswith(f"error: {space}: ") and err.count("\n") == 1
        else:
            assert err == ""


def test_a_name_with_a_newline_is_written_on_one_line(tmp_path, capsys):
    # a name that does not print on one line is written with repr; a
    # printable one ("interval", "a b") exactly as it is
    point = {"name": "two\nlines", "basepoint": "v", "simplices": {"0": ["v"]}, "faces": {}}
    path = tmp_path / "nl.json"
    path.write_text(json.dumps(point), encoding="utf-8")
    assert main(["homology", "--space", str(path), "--complex", "cohoch"]) == EXIT_OK
    head = capsys.readouterr().out.splitlines()[0]
    assert head == "homology of cohoch('two\\nlines') over Z"
    assert main(["verify", "--space", str(path), "--max-degree", "1"]) == EXIT_OK
    head = capsys.readouterr().out.splitlines()[0]
    assert head == "verify 'two\\nlines' (max degree 1, word cap -)"
    path.write_text(json.dumps(dict(point, name="a b")), encoding="utf-8")
    assert main(["homology", "--space", str(path), "--complex", "cohoch"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("homology of cohoch(a b) over Z\n")
    # the refusal of a space that is not 1-reduced names it and its vertices
    interval = dict(INTERVAL, name="two\nlines", basepoint="a\tb")
    interval["simplices"] = {"0": ["a\tb", "b"], "1": ["e"]}
    interval["faces"] = {"e": [{"deg": [], "base": "b"}, {"deg": [], "base": "a\tb"}]}
    path.write_text(json.dumps(interval), encoding="utf-8")
    with pytest.raises(SimplicialError) as err:
        load_space(str(path)).require_one_reduced("the test")
    assert str(err.value) == (
        "the test needs a 1-reduced space; 'two\\nlines' has vertices 'a\\tb', b"
    )


def test_load_unknown_name():
    with pytest.raises(SimplicialError):
        load_space("nosuch")


def test_cmd_homology_validation():
    with pytest.raises(SimplicialError):
        cmd_homology("sphere2", complex_name="mystery")
    with pytest.raises(SimplicialError):
        cmd_homology("sphere2", max_degree=-1)
    with pytest.raises(SimplicialError):
        cmd_homology("sphere2", max_word_length=0)
    with pytest.raises(ValueError):
        cmd_homology("sphere2", ring="F6")


def test_cmd_verify_checks_the_window_before_it_loads_the_space(capsys):
    # "nosuch" names no space, so only a check that runs first can answer
    for window, message in (
        ((-1, None), "max-degree must be >= 0"),
        ((2, 0), "max-word-length must be >= 1"),
    ):
        with pytest.raises(SimplicialError) as err:
            cmd_verify("nosuch", *window)
        assert str(err.value) == message
    assert main(["verify", "--space", "sphere2", "--max-degree", "-1"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: max-degree must be >= 0\n")


def test_an_unknown_complex_is_refused_by_name_on_any_space():
    # torus is not 1-reduced, so its models refuse every loop complex
    # without a cap; a name that is no complex is refused as such first
    with pytest.raises(SimplicialError) as err:
        cmd_homology("torus", complex_name="mystery")
    assert str(err.value).startswith("unknown complex 'mystery'; choices: ")


@pytest.mark.parametrize(
    "option", [["--format", "yaml"], ["--complex", "mystery"]], ids=["format", "complex"]
)
def test_main_refuses_an_unknown_choice(capsys, option):
    assert main(["homology", "--space", "sphere2"] + option) == EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_homology_json_roundtrip():
    summary = cmd_homology("sphere2", complex_name="cohoch", max_degree=4)
    parsed = parse_json_lines(summary.to_json_lines())
    assert parsed.entries == summary.entries


def test_homology_table_banner():
    summary = cmd_homology(
        "circle", complex_name="hat-cohoch", max_degree=1, max_word_length=2
    )
    assert summary.truncated_at == 2
    assert "truncated at word length 2" in summary.to_table()


def test_homology_determinism():
    def table():
        return cmd_homology("sphere2", complex_name="cohoch", max_degree=5).to_table()

    assert table() == table()


def test_freehedron_command():
    assert cmd_freehedron(3, "fvector") == "[12, 18, 8, 1]\n"
    assert cmd_freehedron(0, "fvector") == "[1]\n"
    faces = cmd_freehedron(2, "faces")
    assert len(faces.splitlines()) == 11
    assert faces.splitlines()[0].split("\t")[0] == "0"
    as_json = json.loads(cmd_freehedron(2, "faces", output="json"))
    assert len(as_json) == 11
    with pytest.raises(SimplicialError):
        cmd_freehedron(8, "fvector")
    with pytest.raises(SimplicialError):
        cmd_freehedron(2, "edges")


def test_main_exit_codes(capsys):
    assert main(["homology", "--space", "sphere2", "--max-degree", "2"]) == EXIT_OK
    capsys.readouterr()
    assert main(["homology", "--space", "nosuch", "--max-degree", "2"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err
    # precondition failure surfaces the offending simplex
    rc = main(["homology", "--space", "torus", "--complex", "cohoch", "--max-degree", "2"])
    assert rc == EXIT_INPUT
    assert "1-simplex 'a'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch", "--space", "sphere2"],
        ["homology", "--max-degree", "2"],
        ["freehedron", "--mode", "faces"],
        ["homology", "--space", "sphere2", "--max-degree"],
        ["homology", "--space", "sphere2", "--bogus", "1"],
        ["homology", "--space", "sphere2", "--max-deg", "2"],
        ["homology", "--space", "sphere2", "--max-degree", "x"],
        ["homology", "--space", "sphere2", "--format", "yaml"],
    ],
    ids=["no-arguments", "unknown-command", "no-space", "no-n", "no-value",
         "unknown-option", "prefix", "not-an-int", "not-a-format"],
)
def test_main_bad_usage_is_input_error(capsys, argv):
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["homology", "--help"]], ids=["help", "h", "after-command"]
)
def test_main_help_names_the_commands(capsys, argv):
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert all(command in out for command in ("homology", "freehedron", "verify"))


def test_main_reads_an_option_glued_to_its_value_and_the_last_repeat(capsys):
    assert main(["homology", "--space", "sphere2", "--max-degree", "2"]) == EXIT_OK
    expected = capsys.readouterr().out
    argv = ["homology", "--max-degree=5", "--space=sphere2", "--max-degree", "2"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def _console_script():
    """The installed loophomology script's code, as the wrapper that pip
    generates for the [project.scripts] target runs it."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.partition("\n[project.scripts]\n")[2].partition("\n[")[0]
    targets = dict(line.split(" = ") for line in scripts.splitlines() if line)
    module, _, function = targets["loophomology"].strip('"').partition(":")
    return f"import sys; from {module} import {function}; sys.exit({function}())"


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_pipe_ends_with_exit_1_and_no_traceback(unbuffered, entry):
    # ~124 KB of faces, far more than a pipe holds once its reader has left;
    # through python -m loophomology.cli and through the console script
    import os
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    start = ["-m", "loophomology.cli"] if entry == "module" else ["-c", _console_script()]
    argv = [sys.executable, *start, "freehedron", "--n", "7", "--mode", "faces"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=env)
    child.stdout.close()  # before the child has started to write
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait() == EXIT_INPUT
    lines = err.splitlines()
    assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), err


def test_main_verify_flag_alias(capsys):
    rc = main(["--verify", "--space", "point", "--max-degree", "2"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.startswith("verify point")
    assert "result: OK" in out


def test_main_verify_json_format(capsys):
    rc = main(
        ["verify", "--space", "point", "--max-degree", "2", "--format", "json"]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["space"] == "point"


@pytest.mark.parametrize(
    "window, message",
    [
        (["--space", "point", "--max-degree", "-2"], "max-degree must be >= 0"),
        (["--space", "torus", "--max-degree", "2", "--max-word-length", "0"],
         "max-word-length must be >= 1"),
    ],
)
def test_main_verify_rejects_the_windows_homology_rejects(capsys, window, message):
    for command in ("homology", "verify"):
        assert main([command] + window) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_main_verify_failure_exit(monkeypatch, capsys):
    import loophomology.cli as cli

    report = VerifyReport("x", 1, None, [CheckResult("demo", "fail", "boom")])
    monkeypatch.setattr(cli, "cmd_verify", lambda *a, **k: report)
    assert main(["verify", "--space", "sphere2", "--max-degree", "1"]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_verify_report_formats():
    report = run_verify("point", 2)
    text = report.to_text()
    assert "chi exponent reading: rotation" in text
    assert "result: OK" in text
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["chi_variant"] == "rotation"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names, key=names.index)  # fixed order


def test_verify_skips_on_non_reduced(capsys):
    report = run_verify("circle", 1, 2)
    text = report.to_text()
    assert "skipped: not 1-reduced" in text
    assert report.all_passed


def test_build_complex_slice_unknown():
    from loophomology.simplicial import builtin_space

    with pytest.raises(SimplicialError):
        build_complex_slice(builtin_space("point"), "mystery", 2)


def test_cli_field_rings(capsys):
    rc = main(
        [
            "homology",
            "--space",
            "sphere2",
            "--complex",
            "cohoch",
            "--ring",
            "F2",
            "--max-degree",
            "4",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "over F2" in out
    # dims over F2: 1, 1, 2, 2, 2 (torsion classes and their Tor lifts)
    assert out.count("F2^2") == 3 and "Z" not in out.replace("F2", "")


@pytest.mark.parametrize("ring", ["F\u00b2", "F\u0663"], ids=["superscript-2", "arabic-indic-3"])
def test_cli_rejects_a_modulus_in_non_ascii_digits(capsys, ring):
    # str.isdigit accepts these, and int() reads the second as 3
    rc = main(["homology", "--space", "sphere2", "--ring", ring, "--max-degree", "2"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"error: cannot parse ring {ring!r} (expected Z, Q or F<p>)\n"


def test_cli_byte_identical_across_processes():
    import subprocess
    import sys

    cmd = [
        sys.executable,
        "-m",
        "loophomology.cli",
        "verify",
        "--space",
        "point",
        "--max-degree",
        "3",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_verify_never_imports_scipy():
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from loophomology.cli import main\n"
        "code = main(['verify', '--space', 'collapsed-delta3', '--max-degree', '3'])\n"
        "if 'scipy' in sys.modules:\n"
        "    sys.exit('scipy was imported')\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert done.returncode == 0, done.stderr


# the standard library modules that the package imports on the CLI's path
CLI_STDLIB = (
    "__future__", "array", "functools", "importlib", "json", "math", "pathlib", "sys"
)


def test_cli_import_never_loads_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, which every run
    # would pay for at start-up; the package's records are namedtuples, and
    # pathlib and functools already load collections
    import subprocess
    import sys

    # without site, which may load modules of its own
    src = str(Path(loophomology.__file__).parent.parent)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"for name in {CLI_STDLIB!r}:\n"
        "    __import__(name)\n"
        "before = set(sys.modules)\n"
        "import loophomology.cli\n"
        "added = sorted(m for m in set(sys.modules) - before\n"
        "               if m.partition('.')[0] != 'loophomology')\n"
        "if added:\n"
        "    sys.exit(f'import loophomology.cli also loaded {added}')\n"
        "if 'dataclasses' in sys.modules:\n"
        "    sys.exit('dataclasses was imported')\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True)
    assert done.returncode == 0, done.stderr


UNUSED_BY_HOMOLOGY = (
    "loophomology.verify",
    "loophomology.freehedra",
    "loophomology.comparison",
)
# argparse, and gettext and locale, which its messages load: the command
# line parses its arguments itself, so no run, good or bad, loads them
NOT_PARSING = ("argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "space, complex_name", [("torus", "hat-cohoch"), ("sphere2", "cohoch")]
)
def test_commands_import_only_what_they_run(space, complex_name):
    # every child of the benchmark compiles the package from source, so a
    # module a command does not run must not be imported
    import subprocess
    import sys

    script = f"""
import io, sys
from contextlib import redirect_stderr, redirect_stdout

def parser_modules():
    loaded = [m for m in {NOT_PARSING!r} if m in sys.modules]
    assert not loaded, loaded

parser_modules()
import loophomology
submodules = [m for m in sys.modules if m.startswith("loophomology.")]
assert not submodules, submodules
from loophomology.cli import main

with redirect_stdout(io.StringIO()):
    assert main(["homology", "--space", {space!r}, "--complex", {complex_name!r},
                 "--max-degree", "2", "--max-word-length", "2"]) == 0
loaded = [m for m in {UNUSED_BY_HOMOLOGY!r} if m in sys.modules]
assert not loaded, loaded
parser_modules()
with redirect_stdout(io.StringIO()) as out:
    assert main(["verify", "--space", {space!r}, "--max-degree", "2",
                 "--max-word-length", "2"]) == 0
assert "result: OK" in out.getvalue()
parser_modules()
assert "loophomology.verify" in sys.modules and "loophomology.comparison" in sys.modules
assert "loophomology.freehedra" not in sys.modules
with redirect_stdout(io.StringIO()):
    assert main(["freehedron", "--n", "3"]) == 0
assert "loophomology.freehedra" in sys.modules
parser_modules()
with redirect_stderr(io.StringIO()):
    assert main(["homology", "--space", {space!r}, "--bogus", "1"]) == 1
parser_modules()
with redirect_stdout(io.StringIO()):
    assert main(["--help"]) == 0
parser_modules()
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_cli_json_output_roundtrip(capsys):
    rc = main(
        [
            "homology",
            "--space",
            "sphere2",
            "--complex",
            "cohoch",
            "--max-degree",
            "3",
            "--format",
            "json",
        ]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    parsed = parse_json_lines(out)
    assert [(e.degree, e.free_rank, e.torsion) for e in parsed.entries] == [
        (0, 1, ()),
        (1, 1, ()),
        (2, 1, (2,)),
        (3, 1, ()),
    ]


# every 1-reduced built-in, two collapsed simplices whose cobar rules split
# a letter, and doubled-delta3, which no free pair collapses; the collapsed
# simplices one degree below D4 and D3, where the passes on the space as
# given take ~20 s
COLLAPSE_WINDOWS = [
    (name, 4) for name in BUILTIN_NAMES if builtin_space(name).is_one_reduced()
] + [("collapsed-delta4", 3), ("collapsed-delta5", 2), ("doubled-delta3", 4)]


@pytest.mark.parametrize(
    "name, max_degree", COLLAPSE_WINDOWS, ids=[w[0] for w in COLLAPSE_WINDOWS]
)
def test_homology_after_the_collapse_matches_the_pass_on_the_space(
    monkeypatch, name, max_degree
):
    # homology collapses free pairs first; the pass runs on X as given
    collapsed = {"collapsed-delta4": 4, "collapsed-delta5": 5}
    X = collapsed_simplex(collapsed[name]) if name in collapsed else fixture(name)
    monkeypatch.setattr(cli, "load_space", lambda _: X)
    for complex_name in supported_complexes(X):
        for ring in ("Z", "F2"):
            summary = cmd_homology(name, complex_name, ring, max_degree)
            recipe = complex_recipe(X, complex_name)
            expected = homology_pass(recipe, max_degree, parse_ring(ring))
            assert summary.entries == expected, (complex_name, ring)


def _with_a_loop(X):
    # X plus a 1-simplex from its vertex to itself: no longer 1-reduced
    simplices = {**X.simplices, 1: ["e"]}
    faces = {**X.faces, ("e", 0): nondeg("v"), ("e", 1): nondeg("v")}
    return SimplicialSetPresentation(X.name, X.basepoint, simplices, faces)


@pytest.mark.parametrize(
    "name, collapsed",
    [("collapsed-delta3", {0: 1, 2: 3}), ("doubled-delta3", None), ("with-a-loop", None)],
)
def test_homology_collapses_only_a_1_reduced_space(monkeypatch, name, collapsed):
    # the space homology builds on: collapsed-delta3 less its free pair, and
    # doubled-delta3 (no free pair) and a space with a free pair that is not
    # 1-reduced as given
    X = fixture(name) if name != "with-a-loop" else _with_a_loop(fixture("collapsed-delta3"))
    built = []
    monkeypatch.setattr(cli, "load_space", lambda _: X)
    monkeypatch.setattr(
        cli, "complex_recipe", lambda Y, *args: built.append(Y) or complex_recipe(Y, *args)
    )
    summary = cmd_homology(name, "hat-cohoch", "Z", 2, 2)
    (Y,) = built
    if collapsed is None:
        assert Y is X
    else:
        assert {d: len(ids) for d, ids in Y.simplices.items()} == collapsed
        assert (Y.name, Y.basepoint, summary.space) == (X.name, X.basepoint, X.name)
