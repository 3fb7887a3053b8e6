"""Where presentations come from: the built-in spaces, the JSON loader,
and the checks and reductions applied to a presentation as given.

validate lists every broken invariant of a presentation, and the JSON
loader refuses a file in one SimplicialError line.  _collapse_free_pairs
removes free pairs, which keeps the homotopy type; chains_recipe and
chains_slice give the normalized chain complex.  The data model itself
(presentations, the face calculus, Z(X)) is in presentation.
"""

from __future__ import annotations

import json
from collections import Counter

from .homalg import _close_and_build
from .presentation import (
    FormalSimplex,
    SimplicialError,
    SimplicialSetPresentation,
    boundary,
    canonical_degeneracy,
    face,
    nondeg,
)


# ---------------------------------------------------------------------------
# Validation


def validate(X):
    """All invariant violations of a presentation, as one-line strings that
    write each id with repr.

    Empty means: faces have the right dimension, degeneracy words are
    canonical and in range, only simplices of dimension >= 1 have faces,
    a d-simplex has face records at 0..d only,
    the basepoint is a vertex, and the simplicial identities
    d_i d_j = d_{j-1} d_i (i < j) hold.
    """
    violations = []
    if X.basepoint not in X.simplices.get(0, ()):
        violations.append(f"basepoint {X.basepoint!r} is not a declared 0-simplex")
    records = {}
    for (s, i), entry in X.faces.items():
        records.setdefault(s, {})[i] = entry
    for s, present in records.items():
        if not X._dims.get(s):
            what = "an unknown simplex" if s not in X._dims else "a vertex"
            violations.append(f"{s!r}: {len(present)} face records for {what}")
    for d, ids in sorted(X.simplices.items()):
        if d < 0:
            violations.append(f"negative dimension {d}")
            continue
        for s in ids:
            if d == 0:
                continue
            present = records.get(s, {})
            for i in sorted(i for i in present if not 0 <= i <= d):
                violations.append(f"{s!r}: face record {i} outside 0..{d}")
            present = {i: e for i, e in present.items() if 0 <= i <= d}
            if not present:
                violations.append(f"{s!r}: missing all {d + 1} faces")
                continue
            if len(present) <= d:
                first = next(i for i in range(d + 1) if i not in present)
                violations.append(
                    f"{s!r}: missing {d + 1 - len(present)} of {d + 1} faces "
                    f"(first {first})"
                )
            for i, entry in sorted(present.items()):
                word = entry.degeneracies
                if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
                    violations.append(
                        f"{s!r}: face {i} has non-canonical degeneracy word {list(word)}"
                    )
                    continue
                if entry.base not in X._dims:
                    violations.append(f"{s!r}: face {i} has unknown base {entry.base!r}")
                    continue
                try:
                    total = X.total_dim(entry)
                    canonical_degeneracy(word, entry.base, X.dim(entry.base))
                except SimplicialError as exc:
                    violations.append(f"{s!r}: face {i}: {exc}")
                    continue
                if total != d - 1:
                    violations.append(
                        f"{s!r}: face {i} has dimension {total}, expected {d - 1}"
                    )
    if violations:
        return violations
    for d, ids in sorted(X.simplices.items()):
        if d < 2:
            continue
        for s in ids:
            x = nondeg(s)
            for j in range(1, d + 1):
                for i in range(j):
                    left = face(X, face(X, x, j), i)
                    right = face(X, face(X, x, i), j - 1)
                    if left != right:
                        violations.append(
                            f"{s!r}: identity d_{i} d_{j} = d_{j-1} d_{i} fails "
                            f"({str(left)!r} != {str(right)!r})"
                        )
    return violations


def _collapse_free_pairs(X):
    """X with its free pairs removed, or X itself when it has none.

    A free pair is a nondegenerate sigma of dimension k >= 3 that no face
    record names and a face tau = d_i sigma, with no degeneracies, that no
    other face record names, degenerate or not.  X is then the pushout of
    X less sigma and tau along the horn inclusion of Lambda^k_i in Delta^k,
    an anodyne extension, so both have the same homotopy type, and with
    k >= 3 a 1-reduced X stays 1-reduced.  The walk runs from the top
    dimension in listing order and repeats until nothing changes.  The
    result keeps X's name and basepoint.
    """
    simplices = {d: list(ids) for d, ids in X.simplices.items()}
    faces = dict(X.faces)
    named = Counter(entry.base for entry in faces.values())
    changed = True
    while changed:
        changed = False
        for d in sorted((d for d in simplices if d >= 3), reverse=True):
            for s in list(simplices[d]):
                if named[s]:
                    continue
                tau = next(
                    (t.base for t in (faces[s, i] for i in range(d + 1))
                     if not t.degeneracies and named[t.base] == 1),
                    None,
                )
                if tau is None:
                    continue
                for t, k in ((s, d), (tau, d - 1)):
                    simplices[k].remove(t)
                    for i in range(k + 1):
                        named[faces.pop((t, i)).base] -= 1
                changed = True
    if len(faces) == len(X.faces):
        return X
    return SimplicialSetPresentation(X.name, X.basepoint, simplices, faces)


# ---------------------------------------------------------------------------
# Normalized chain complex slice


def chains_recipe(X):
    """(seeds, differential, truncated_at) of the normalized chains."""
    return lambda d: sorted(X.simplices.get(d, ())), lambda s: boundary(X, s).terms, None


def chains_slice(X, max_degree):
    """The normalized chain complex of X through the given degree."""
    return _close_and_build(chains_recipe(X), max_degree)


# ---------------------------------------------------------------------------
# Built-in spaces


def _simple_faces(entries):
    return {
        (s, i): FormalSimplex(tuple(word), base)
        for (s, i), (word, base) in entries.items()
    }


def _point():
    return SimplicialSetPresentation("point", "v", {0: ["v"]}, {})


def _circle():
    faces = _simple_faces({("t", 0): ((), "v"), ("t", 1): ((), "v")})
    return SimplicialSetPresentation("circle", "v", {0: ["v"], 1: ["t"]}, faces)


def _sphere(n):
    # One vertex, one n-simplex, every face the unique degenerate (n-1)-simplex.
    word = tuple(range(n - 2, -1, -1))
    faces = {("s", i): FormalSimplex(word, "v") for i in range(n + 1)}
    return SimplicialSetPresentation(f"sphere{n}", "v", {0: ["v"], n: ["s"]}, faces)


def _torus():
    # One vertex, edges a, b, c and two triangles glued along the diagonal c.
    faces = _simple_faces(
        {
            ("a", 0): ((), "v"),
            ("a", 1): ((), "v"),
            ("b", 0): ((), "v"),
            ("b", 1): ((), "v"),
            ("c", 0): ((), "v"),
            ("c", 1): ((), "v"),
            ("t1", 0): ((), "b"),
            ("t1", 1): ((), "c"),
            ("t1", 2): ((), "a"),
            ("t2", 0): ((), "a"),
            ("t2", 1): ((), "c"),
            ("t2", 2): ((), "b"),
        }
    )
    return SimplicialSetPresentation(
        "torus", "v", {0: ["v"], 1: ["a", "b", "c"], 2: ["t1", "t2"]}, faces
    )


def _boundary_delta3():
    verts = ["0", "1", "2", "3"]
    edges = ["01", "02", "03", "12", "13", "23"]
    tris = ["012", "013", "023", "123"]
    faces = {}
    for e in edges:
        faces[(e, 0)] = nondeg(e[1])
        faces[(e, 1)] = nondeg(e[0])
    for t in tris:
        for i in range(3):
            faces[(t, i)] = nondeg(t[:i] + t[i + 1 :])
    return SimplicialSetPresentation(
        "boundary-delta3", "0", {0: verts, 1: edges, 2: tris}, faces
    )


def _collapsed_delta3():
    # Delta^3 with its 1-skeleton collapsed: one vertex, four 2-simplices,
    # one 3-simplex with all faces nondegenerate.  The smallest 1-reduced
    # space whose chain coalgebra mixes even and odd positive degrees.
    faces = {}
    for q in ("q0", "q1", "q2", "q3"):
        for i in range(3):
            faces[(q, i)] = FormalSimplex((0,), "v")
    for i in range(4):
        faces[("w", i)] = nondeg(f"q{i}")
    return SimplicialSetPresentation(
        "collapsed-delta3", "v", {0: ["v"], 2: ["q0", "q1", "q2", "q3"], 3: ["w"]}, faces
    )


_BUILTINS = {
    "point": _point,
    "circle": _circle,
    "sphere2": lambda: _sphere(2),
    "sphere3": lambda: _sphere(3),
    "torus": _torus,
    "boundary-delta3": _boundary_delta3,
    "collapsed-delta3": _collapsed_delta3,
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_space(name):
    if name not in _BUILTINS:
        raise SimplicialError(
            f"unknown built-in {name!r}; choices: {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name]()


# ---------------------------------------------------------------------------
# JSON input


def presentation_from_json(text, source="<json>"):
    """Read the JSON simplicial-set schema into a validated presentation.

    Top level: name, basepoint, simplices ({dimension: [ids]}) and faces
    ({id: [face records 0..n]}), each record {"deg": [j1 > j2 > ...],
    "base": id}.  A dimension is a plain ASCII numeral ("0", "12").  A
    vertex has no faces: it may be left out of faces or given [].

    The loader checks the file's shape: JSON syntax with no key repeated
    in one object, the top-level fields and the types of their values,
    the dimension keys, and face owners that name no simplex.  What the
    presentation says is judged by the constructor (duplicate ids) and by
    `validate` (face counts, words, bases, the simplicial identities).
    Any refusal is one SimplicialError line that starts with ``source``.
    """
    try:
        return _read_presentation(text)
    except SimplicialError as exc:
        raise SimplicialError(f"{source}: {exc}") from None


def _unique_keys(pairs):
    # json.loads keeps the last value of a repeated key; refuse the object
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        twice = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise SimplicialError(f"key {twice!r} appears twice in one object")
    return obj


def _read_presentation(text):
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SimplicialError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SimplicialError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise SimplicialError("top level must be an object")
    for k in ("name", "basepoint", "simplices", "faces"):
        if k not in data:
            raise SimplicialError(f"missing top-level field {k!r}")
    for k in ("name", "basepoint"):
        if not isinstance(data[k], str):
            raise SimplicialError(f"{k} must be a string")
    for k in ("simplices", "faces"):
        if not isinstance(data[k], dict):
            raise SimplicialError(f"{k} must be an object")
    simplices = {}
    for key, ids in data["simplices"].items():
        # int() alone also reads " 1", "+1", "1_0" and non-ASCII digits
        try:
            d = int(key) if key.isascii() and key.isdigit() else None
        except ValueError:  # more digits than int() converts
            d = None
        if d is None or str(d) != key:
            raise SimplicialError(f"simplices key {key!r} is not a dimension")
        if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
            raise SimplicialError(f"simplices[{key!r}] must be a list of id strings")
        simplices[d] = ids
    faces = {}
    for s, records in data["faces"].items():
        if not isinstance(records, list):
            raise SimplicialError(f"faces[{s!r}] must be a list of face records")
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or not isinstance(rec.get("base"), str):
                raise SimplicialError(f"{s!r} face {i}: bad record {rec!r}")
            word = rec.get("deg", [])
            if not isinstance(word, list) or any(type(j) is not int for j in word):
                raise SimplicialError(
                    f"{s!r} face {i}: degeneracy word {word!r} must be a list "
                    f"of integers"
                )
            faces[(s, i)] = FormalSimplex(tuple(word), rec["base"])
    X = SimplicialSetPresentation(data["name"], data["basepoint"], simplices, faces)
    # an owner listed with [] adds no face record, so validate cannot see it
    for s in data["faces"]:
        if s not in X._dims:
            raise SimplicialError(f"faces lists unknown simplex {s!r}")
    violations = validate(X)
    if violations:
        raise SimplicialError(f"invalid presentation: {'; '.join(violations[:5])}")
    return X
