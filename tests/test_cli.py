import json

import pytest

from loophomology.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    RunConfig,
    cmd_freehedron,
    cmd_homology,
    load_space,
    main,
)
from loophomology.homalg import HomologySummary
from loophomology.simplicial import SimplicialError
from loophomology.verify import CheckResult, VerifyReport, build_complex_slice, run_verify

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
    config = RunConfig(space=str(path), complex_name="chains", max_degree=2)
    summary = cmd_homology(config)
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
# a vertex has no faces: [] loads, a face record is refused
VERTEX_NO_FACES = _replaced(("faces", "a"), [])
VERTEX_WITH_FACE = _replaced(("faces", "a"), [{"base": "nowhere"}])


@pytest.mark.parametrize(
    "bad, must_reject, names_path",
    [
        pytest.param(_replaced(path, value), True, False, id=name)
        for name, (path, value) in MUST_REJECT.items()
    ]
    + [
        pytest.param(
            _replaced(path, value),
            path in STRING_FIELDS and not isinstance(value, str),
            False,
            id=f"{path[-1]}={value!r}",
        )
        for path in FUZZ_FIELDS
        for value in FUZZ_JUNK
        if (path, value) not in MUST_REJECT.values()
    ]
    + [pytest.param(HUGE_DIMENSION, True, False, id="huge-dimension")]
    + [pytest.param(SAME_DIMENSION, True, False, id="same-dimension")]
    + [pytest.param(TWO_DIMENSIONS, True, True, id="id-in-two-dimensions")]
    + [pytest.param(NOT_UTF8, True, True, id="not-utf-8")]
    + [pytest.param(VERTEX_NO_FACES, False, False, id="vertex-no-faces")]
    + [pytest.param(VERTEX_WITH_FACE, True, True, id="vertex-with-face")]
    + [pytest.param(None, True, True, id="directory")],
)
def test_main_rejects_malformed_json(tmp_path, capsys, bad, must_reject, names_path):
    """Malformed input either loads or ends with one error line, never a traceback."""
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
            assert err.startswith("error:") and err.count("\n") == 1
            if names_path:
                assert err.startswith(f"error: {space}: ")
        else:
            assert err == ""


def test_load_unknown_name():
    with pytest.raises(SimplicialError):
        load_space("nosuch")


def test_runconfig_validation():
    with pytest.raises(SimplicialError):
        RunConfig(space="sphere2", complex_name="mystery")
    with pytest.raises(SimplicialError):
        RunConfig(space="sphere2", max_degree=-1)
    with pytest.raises(SimplicialError):
        RunConfig(space="sphere2", max_word_length=0)
    with pytest.raises(SimplicialError):
        RunConfig(space="sphere2", output="yaml")
    with pytest.raises(ValueError):
        RunConfig(space="sphere2", ring="F6")


def test_homology_json_roundtrip():
    config = RunConfig(space="sphere2", complex_name="cohoch", max_degree=4, output="json")
    summary = cmd_homology(config)
    parsed = HomologySummary.parse_json_lines(summary.to_json_lines())
    assert parsed.entries == summary.entries


def test_homology_table_banner():
    config = RunConfig(
        space="circle", complex_name="hat-cohoch", max_degree=1, max_word_length=2
    )
    summary = cmd_homology(config)
    assert summary.truncated_at == 2
    assert "truncated at word length 2" in summary.to_table()


def test_homology_determinism():
    config = RunConfig(space="sphere2", complex_name="cohoch", max_degree=5)
    assert cmd_homology(config).to_table() == cmd_homology(config).to_table()


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


def test_main_bad_usage_is_input_error(capsys):
    assert main([]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["homology"]) == EXIT_INPUT  # --space missing
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    capsys.readouterr()


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

    report = VerifyReport("x", 1, None, [CheckResult("demo", "fail", "boom")], "rotation")
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


def test_cli_import_never_loads_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, which every run
    # would pay for at start-up
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import loophomology.cli\n"
        "if 'dataclasses' in sys.modules:\n"
        "    sys.exit('dataclasses was imported')\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert done.returncode == 0, done.stderr


UNUSED_BY_HOMOLOGY = (
    "loophomology.verify",
    "loophomology.freehedra",
    "loophomology.comparison",
)


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
from contextlib import redirect_stdout

import loophomology
submodules = [m for m in sys.modules if m.startswith("loophomology.")]
assert not submodules, submodules
from loophomology.cli import main

with redirect_stdout(io.StringIO()):
    assert main(["homology", "--space", {space!r}, "--complex", {complex_name!r},
                 "--max-degree", "2", "--max-word-length", "2"]) == 0
loaded = [m for m in {UNUSED_BY_HOMOLOGY!r} if m in sys.modules]
assert not loaded, loaded
with redirect_stdout(io.StringIO()) as out:
    assert main(["verify", "--space", {space!r}, "--max-degree", "2",
                 "--max-word-length", "2"]) == 0
assert "result: OK" in out.getvalue()
assert "loophomology.verify" in sys.modules and "loophomology.comparison" in sys.modules
assert "loophomology.freehedra" not in sys.modules
with redirect_stdout(io.StringIO()):
    assert main(["freehedron", "--n", "3"]) == 0
assert "loophomology.freehedra" in sys.modules
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
    parsed = HomologySummary.parse_json_lines(out)
    assert [(e.degree, e.free_rank, e.torsion) for e in parsed.entries] == [
        (0, 1, ()),
        (1, 1, ()),
        (2, 1, (2,)),
        (3, 1, ()),
    ]
