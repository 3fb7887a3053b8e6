"""Byte-identity of the CLI against a checked-in golden file.

``tests/golden/cli.txt`` holds, for a fixed sweep of commands, the exit
code, stdout and stderr of the in-process ``cli.main``: homology of every
built-in in every complex it supports over Z, Q, F2 and F3 at max degree
3 and word cap 2; the collapsed-delta3 cohoch, hat-cohoch and
hochschild-of-cobar complexes at max degree 6 over Z, F2 and F3; and
``verify`` in text and JSON form for every built-in at max degree 3 and
word cap 2.  ``homology`` collapses a 1-reduced space's free pairs first,
so the collapsed-delta3 rows run on a wedge of three 2-spheres; the
multi-block Z/2 torsion of the uncollapsed matrices is covered by
``tests/test_homalg.py::test_homology_pass_matches_the_slice_on_the_golden_sweep``,
which runs the same windows on the space as given.
Two groups pin the window error paths: ``verify`` without a word cap on
the circle, the torus and boundary-delta3, whose skip lines carry the
slice builders' errors, and ``homology`` of the torus in each complex
that needs a cap or a 1-reduced space, each of which exits 1 with one
``error:`` line.  Any change to a basis order, a sign, a differential,
an error message or a report line shows up as a diff here.

Regenerate the file (only when an output change is intended) with

    python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
HEADER = "### "


def sweep():
    """The argument lists of the sweep, in file order."""
    from loophomology.simplicial import BUILTIN_NAMES, builtin_space
    from loophomology.verify import supported_complexes

    commands = []
    for name in BUILTIN_NAMES:
        for complex_name in supported_complexes(builtin_space(name)):
            for ring in ("Z", "Q", "F2", "F3"):
                commands.append(
                    ["homology", "--space", name, "--complex", complex_name,
                     "--ring", ring, "--max-degree", "3", "--max-word-length", "2"]
                )
    for complex_name in ("cohoch", "hat-cohoch", "hochschild-of-cobar"):
        for ring in ("Z", "F2", "F3"):
            commands.append(
                ["homology", "--space", "collapsed-delta3", "--complex",
                 complex_name, "--ring", ring, "--max-degree", "6"]
            )
    for name in BUILTIN_NAMES:
        for output in ("table", "json"):
            commands.append(
                ["verify", "--space", name, "--max-degree", "3",
                 "--max-word-length", "2", "--format", output]
            )
    for name in ("circle", "torus", "boundary-delta3"):
        commands.append(["verify", "--space", name, "--max-degree", "2"])
    for complex_name in ("hat-cobar", "hat-cohoch", "hochschild-of-cobar",
                         "cobar", "cohoch"):
        commands.append(
            ["homology", "--space", "torus", "--complex", complex_name,
             "--max-degree", "2"]
        )
    return commands


def run(argv):
    """One command's record: a header line with the exit code, then stdout,
    then stderr behind a marker line when there is any."""
    from loophomology.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    record = f"{HEADER}{' '.join(argv)}  (exit {code})\n{out.getvalue()}"
    if err.getvalue():
        record += f"--- stderr\n{err.getvalue()}"
    return record


def render():
    return [run(argv) for argv in sweep()]


def test_cli_output_matches_the_golden_file():
    expected = GOLDEN.read_text(encoding="utf-8").split(HEADER)[1:]
    actual = [record[len(HEADER):] for record in render()]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(render()), encoding="utf-8")
