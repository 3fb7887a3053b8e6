"""Batch command line: ingest spaces, compute homology, verify, enumerate
freehedra.  Outputs are deterministic; identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 parse or precondition failure, 2 verification
failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .complexes import COMPLEX_NAMES, complex_recipe
from .homalg import HomologySummary, homology_pass
from .linalg import parse_ring
from .presentation import SimplicialError
from .simplicial import (
    BUILTIN_NAMES,
    _collapse_free_pairs,
    builtin_space,
    presentation_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _check_window(max_degree, max_word_length):
    """The window checks that homology and verify share."""
    if max_degree < 0:
        raise SimplicialError("max-degree must be >= 0")
    if max_word_length is not None and max_word_length < 1:
        raise SimplicialError("max-word-length must be >= 1")


def load_space(name_or_path):
    """A validated presentation from a built-in name or a JSON file."""
    if name_or_path in BUILTIN_NAMES:
        return builtin_space(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise SimplicialError(
            f"{name_or_path!r} is neither a built-in "
            f"({', '.join(BUILTIN_NAMES)}) nor a file"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SimplicialError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SimplicialError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return presentation_from_json(text, source=str(path))


def cmd_homology(
    space, complex_name="chains", ring="Z", max_degree=4, max_word_length=None
):
    """Per-degree homology of one complex of a space, as a HomologySummary.

    On a 1-reduced space every window is exact (the recipes ignore a word
    cap there), so the complex is built on the space less its free pairs:
    the same homotopy type, so the same groups, from fewer generators.
    Any other space is built as given.
    """
    _check_window(max_degree, max_word_length)
    ring = parse_ring(ring)
    X = load_space(space)
    if X.is_one_reduced():
        X = _collapse_free_pairs(X)
    recipe = complex_recipe(X, complex_name, max_word_length)
    return HomologySummary(
        homology_pass(recipe, max_degree, ring),
        ring=ring,
        space=X.name,
        complex_name=complex_name,
        truncated_at=recipe[2],
    )


def cmd_freehedron(n, mode="fvector", output="table"):
    """Freehedron data: the f-vector or the full face listing."""
    import json

    from . import freehedra

    if not 0 <= n <= 7:
        raise SimplicialError("freehedron index must be in 0..7")
    if mode == "fvector":
        return json.dumps(freehedra.f_vector(n)) + "\n"
    if mode != "faces":
        raise SimplicialError(f"unknown freehedron mode {mode!r}")
    cells, _ = freehedra.face_poset(n)
    if output == "json":
        return json.dumps([[c.dimension, str(c)] for c in cells]) + "\n"
    return "".join(f"{c.dimension}\t{c}\n" for c in cells)


def cmd_verify(space, max_degree, max_word_length=None):
    from .verify import run_verify

    _check_window(max_degree, max_word_length)
    X = load_space(space) if isinstance(space, str) else space
    return run_verify(X, max_degree, max_word_length)


# ---------------------------------------------------------------------------


def _build_parser():
    # imported here, after the package modules, which keeps peak RSS down
    import argparse

    parser = argparse.ArgumentParser(
        prog="loophomology",
        description="Exact homology of based and free loop spaces of finite "
        "simplicial sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hom = sub.add_parser("homology", help="homology of one complex of a space")
    hom.add_argument("--space", required=True, help="built-in name or JSON file")
    hom.add_argument("--complex", dest="complex_name", default="chains",
                     choices=COMPLEX_NAMES)
    hom.add_argument("--ring", default="Z", help="Z, Q, or F<p> with p prime")
    hom.add_argument("--max-degree", type=int, default=4)
    hom.add_argument("--max-word-length", type=int, default=None)
    hom.add_argument("--format", dest="output", default="table",
                     choices=("table", "json"))

    fre = sub.add_parser("freehedron", help="freehedra cell data")
    fre.add_argument("--n", type=int, required=True)
    fre.add_argument("--mode", default="fvector", choices=("fvector", "faces"))
    fre.add_argument("--format", dest="output", default="table",
                     choices=("table", "json"))

    ver = sub.add_parser("verify", help="run the cross-validation suite")
    ver.add_argument("--space", required=True)
    ver.add_argument("--max-degree", type=int, default=4)
    ver.add_argument("--max-word-length", type=int, default=None)
    ver.add_argument("--format", dest="output", default="table",
                     choices=("table", "json"))
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--verify" in argv and argv[0] not in ("homology", "freehedron", "verify"):
        # Flag spelling of the verify mode.
        argv = ["verify"] + [a for a in argv if a != "--verify"]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage; 2 is reserved for verification
        # failures here, so remap (help/version keep their success code).
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        if args.command == "homology":
            summary = cmd_homology(
                args.space, args.complex_name, args.ring,
                args.max_degree, args.max_word_length,
            )
            sys.stdout.write(
                summary.to_json_lines() if args.output == "json" else summary.to_table()
            )
            return EXIT_OK
        if args.command == "freehedron":
            sys.stdout.write(cmd_freehedron(args.n, args.mode, args.output))
            return EXIT_OK
        report = cmd_verify(args.space, args.max_degree, args.max_word_length)
        sys.stdout.write(
            report.to_json() if args.output == "json" else report.to_text()
        )
        return EXIT_OK if report.all_passed else EXIT_VERIFY
    except (SimplicialError, ValueError) as exc:
        # one line, even when a name or an id in the message holds a newline
        message = "\\n".join(str(exc).splitlines())
        sys.stderr.write(f"error: {message}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
