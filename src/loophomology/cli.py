"""Batch command line: ingest spaces, compute homology, verify, enumerate
freehedra.  Outputs are deterministic; identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 parse or precondition failure, 2 verification
failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ._records import Record, Value
from .complexes import COMPLEX_NAMES, build_complex_slice, complex_requires_one_reduced
from .homalg import HomologySummary, homology_of_slice, parse_ring
from .simplicial import (
    BUILTIN_NAMES,
    SimplicialError,
    builtin_space,
    presentation_from_json,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


class RunConfig(Record):
    __slots__ = (
        "space", "complex_name", "ring", "max_degree", "max_word_length", "output"
    )
    __eq__ = Value.__eq__  # field by field; mutable, so unhashable

    def __init__(
        self,
        space: str,
        complex_name: str = "chains",
        ring: str = "Z",
        max_degree: int = 4,
        max_word_length: int | None = None,
        output: str = "table",
    ):
        self.space = space
        self.complex_name = complex_name
        self.ring = ring
        self.max_degree = max_degree
        self.max_word_length = max_word_length
        self.output = output
        if self.complex_name not in COMPLEX_NAMES:
            raise SimplicialError(
                f"unknown complex {self.complex_name!r}; "
                f"choices: {', '.join(COMPLEX_NAMES)}"
            )
        if self.max_degree < 0:
            raise SimplicialError("max-degree must be >= 0")
        if self.max_word_length is not None and self.max_word_length < 1:
            raise SimplicialError("max-word-length must be >= 1")
        if self.output not in ("table", "json"):
            raise SimplicialError(f"unknown format {self.output!r}")
        parse_ring(self.ring)


def load_space(name_or_path):
    """A validated presentation from a built-in name or a JSON file."""
    if name_or_path in BUILTIN_NAMES:
        X = builtin_space(name_or_path)
    else:
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
        X = presentation_from_json(text, source=str(path))
    violations = validate(X)
    if violations:
        listing = "; ".join(violations[:5])
        raise SimplicialError(f"{X.name}: invalid presentation: {listing}")
    return X


def cmd_homology(config):
    """Per-degree homology of the configured complex, as a HomologySummary."""
    X = load_space(config.space)
    # Over a space which is not 1-reduced the builder refuses cobar and
    # cohoch, and every other loop complex is degreewise infinite.
    if (
        config.max_word_length is None
        and config.complex_name != "chains"
        and not complex_requires_one_reduced(config.complex_name)
        and not X.is_one_reduced()
    ):
        raise SimplicialError(
            f"{config.complex_name} of {X.name} needs --max-word-length "
            f"(degree components are infinite)"
        )
    sl = build_complex_slice(
        X, config.complex_name, config.max_degree + 1, config.max_word_length
    )
    ring = parse_ring(config.ring)
    entries = [
        homology_of_slice(sl, n, ring) for n in range(config.max_degree + 1)
    ]
    return HomologySummary(
        entries,
        ring=ring,
        space=X.name,
        complex_name=config.complex_name,
        truncated_at=sl.truncated_at,
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
    if "--verify" in argv and (not argv or argv[0] not in ("homology", "freehedron", "verify")):
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
            config = RunConfig(
                space=args.space,
                complex_name=args.complex_name,
                ring=args.ring,
                max_degree=args.max_degree,
                max_word_length=args.max_word_length,
                output=args.output,
            )
            summary = cmd_homology(config)
            if config.output == "json":
                sys.stdout.write(summary.to_json_lines())
            else:
                sys.stdout.write(summary.to_table())
            return EXIT_OK
        if args.command == "freehedron":
            sys.stdout.write(cmd_freehedron(args.n, args.mode, args.output))
            return EXIT_OK
        # verify takes the window checks of a homology run
        RunConfig(
            args.space, max_degree=args.max_degree, max_word_length=args.max_word_length
        )
        report = cmd_verify(args.space, args.max_degree, args.max_word_length)
        sys.stdout.write(
            report.to_json() if args.output == "json" else report.to_text()
        )
        return EXIT_OK if report.all_passed else EXIT_VERIFY
    except (SimplicialError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
