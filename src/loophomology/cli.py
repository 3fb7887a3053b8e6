"""Batch command line: ingest spaces, compute homology, verify, enumerate
freehedra.  Outputs are deterministic; identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 parse or precondition failure, 2 verification
failure.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .complexes import complex_recipe
from .homalg import HomologySummary, homology_pass
from .rings import parse_ring
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


def cmd_verify(space, max_degree=4, max_word_length=None):
    from .verify import run_verify

    _check_window(max_degree, max_word_length)
    return run_verify(load_space(space), max_degree, max_word_length)


# ---------------------------------------------------------------------------
# Each command's options, by the cmd_* parameter each sets, and how a value is
# read (str by default).  Defaults, and what is required, are the cmd_* signatures'.

_KINDS = {"max_degree": int, "max_word_length": int, "n": int,
          "mode": ("fvector", "faces"), "output": ("table", "json")}
_WINDOW = {"--max-degree": "max_degree", "--max-word-length": "max_word_length"}
_COMMANDS = {
    "homology": {"--space": "space", "--complex": "complex_name", "--ring": "ring",
                 **_WINDOW, "--format": "output"},
    "freehedron": {"--n": "n", "--mode": "mode", "--format": "output"},
    "verify": {"--space": "space", **_WINDOW, "--format": "output"},
}
_USAGE = """\
usage: loophomology homology --space NAME|FILE [--complex NAME] [--ring Z|Q|F<p>]
           [--max-degree N] [--max-word-length L] [--format table|json]
       loophomology freehedron --n N [--mode fvector|faces] [--format table|json]
       loophomology verify --space NAME|FILE [--max-degree N] [--max-word-length L]
           [--format table|json]          (or: loophomology --verify ...)
"""


def _write(text, code):
    """Write text to stdout and flush it, so that a closed pipe shows here
    and not at shutdown; code, or EXIT_INPUT when the reader has left."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_INPUT
    return code


def main(argv=None):
    """Run one command line and return its exit code; the console script
    and python -m loophomology.cli both end here."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if "-h" in argv or "--help" in argv:
        return _write(_USAGE, EXIT_OK)
    if "--verify" in argv and argv[0] not in _COMMANDS:  # the flag spelling of verify
        argv = ["verify"] + [a for a in argv if a != "--verify"]
    try:
        rest = iter(argv)
        options, kwargs = _COMMANDS.get(next(rest, None)), {}
        if options is None:
            raise SimplicialError("expected a command: homology, freehedron or verify")
        for arg in rest:  # --option value or --option=value
            option, given, value = arg.partition("=")
            if option not in options:
                raise SimplicialError(f"unknown option {option!r}")
            name = options[option]
            kind = _KINDS.get(name, str)  # a tuple's index() refuses what it lacks
            try:
                value = value if given else next(rest)
                kwargs[name] = kind(value) if callable(kind) else kind[kind.index(value)]
            except StopIteration:
                raise SimplicialError(f"{option} needs a value")
            except ValueError:
                raise SimplicialError(f"{option} cannot be {value!r} (see --help)")
        cmd = globals()["cmd_" + argv[0]]
        required = cmd.__code__.co_argcount - len(cmd.__defaults__ or ())
        for name in cmd.__code__.co_varnames[:required]:
            if name not in kwargs:  # a required option is spelled as its parameter
                raise SimplicialError(f"{argv[0]} needs --{name}")
        if cmd is cmd_freehedron:
            return _write(cmd(**kwargs), EXIT_OK)
        as_json = kwargs.pop("output", None) == "json"
        result = cmd(**kwargs)
        if cmd is cmd_homology:
            return _write(result.to_json_lines() if as_json else result.to_table(), EXIT_OK)
        text = result.to_json() if as_json else result.to_text()
        return _write(text, EXIT_OK if result.all_passed else EXIT_VERIFY)
    except (SimplicialError, ValueError) as exc:
        # one line, even when a name or an id in the message holds a newline
        message = "\\n".join(str(exc).splitlines())
        sys.stderr.write(f"error: {message}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
