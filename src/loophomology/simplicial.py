"""Finite simplicial set presentations and their normalized chain coalgebra.

A presentation stores the nondegenerate simplices per dimension plus a face
table whose values are formal simplices: a strictly decreasing degeneracy
word over a nondegenerate base (the Eilenberg-Zilber normal form, which is
unique).  Degenerate simplices are never stored; the simplicial identities
rewrite every face evaluation back to normal form.

Also here: the SimplexTable, which reads every face, Alexander-Whitney
front and back, boundary and coproduct term of a presentation once through
the degeneracy calculus and is the only face data the loop models use; the
boundary and Alexander-Whitney structure of normalized chains; and the
extension Z(X) that formally inverts 1-simplices.

Z(X) is a presentation itself (OpExtension), so the space handed to a loop
model decides its setting: Z(X) gives the inverted ("hat") model, with
inner-face internal differentials and freely reduced words, and a plain
presentation the plain model over a 1-reduced space.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from functools import cached_property

from .homalg import Chain, ZZ, _close_and_build, _shown


class SimplicialError(ValueError):
    """Malformed simplicial input: bad index, unknown simplex, bad word."""


class FormalSimplex(namedtuple("FormalSimplex", "degeneracies base")):
    """A possibly degenerate simplex s_{j1} s_{j2} ... s_{jk} (base).

    The word is strictly decreasing (j1 > j2 > ... > jk), read as operator
    composition with the rightmost letter applied to the base first.  A
    namedtuple: it compares, orders and hashes as the tuple of its fields.
    """

    __slots__ = ()

    @property
    def is_degenerate(self):
        return bool(self.degeneracies)

    def __str__(self):
        if not self.degeneracies:
            return self.base
        word = "".join(f"s{j}" for j in self.degeneracies)
        return f"{word}({self.base})"


def nondeg(simplex_id):
    return FormalSimplex((), simplex_id)


def canonical_degeneracy(word, base, base_dim):
    """Rewrite an arbitrary degeneracy word to strictly decreasing form.

    Uses s_i s_j = s_{j+1} s_i for i <= j; the result is the unique normal
    form.  Letters are validated against the dimension at their point of
    application (rightmost first).
    """
    canonical = []
    dim = base_dim
    for j in reversed(list(word)):
        if not 0 <= j <= dim:
            raise SimplicialError(
                f"degeneracy index {j} out of range 0..{dim} in word {list(word)}"
            )
        # Insert s_j to the left of the decreasing word `canonical`.
        k = 0
        while k < len(canonical) and j <= canonical[k]:
            canonical[k] += 1
            k += 1
        canonical.insert(k, j)
        dim += 1
    return FormalSimplex(tuple(canonical), base)


class SimplicialSetPresentation:
    """A finite simplicial set given by nondegenerate generators.

    simplices maps each dimension to an ordered list of simplex ids, and
    faces maps (id, i) to the FormalSimplex value of the i-th face.
    Instances are treated as immutable after construction; derived data
    lives in the face cache and the cached properties below.
    """

    def __init__(self, name, basepoint, simplices, faces):
        self.name = name
        self.basepoint = basepoint
        self.simplices = {
            int(d): tuple(ids) for d, ids in simplices.items() if len(ids) > 0
        }
        self.faces = dict(faces)
        self._dims = {}
        for d, ids in self.simplices.items():
            for s in ids:
                if s in self._dims:
                    raise SimplicialError(f"duplicate simplex id {s!r}")
                self._dims[s] = d
        self._face_cache = {}
        self.op_pairs = {}  # inverse 1-simplex pairs; only Z(X) has any

    @cached_property
    def table(self):
        """The SimplexTable of this presentation, built on first use."""
        return SimplexTable(self)

    @cached_property
    def op_extension(self):
        """Z(X), built on first use; see adjoin_inverses."""
        return OpExtension(self)

    @property
    def underlying(self):
        """The space whose simplices fill the slot of a loop generator: the
        presentation itself, or X for Z(X)."""
        return self

    # -- basic queries ----------------------------------------------------

    def dim(self, simplex_id):
        try:
            return self._dims[simplex_id]
        except KeyError:
            raise SimplicialError(f"unknown simplex id {simplex_id!r}") from None

    def total_dim(self, fs):
        return self.dim(fs.base) + len(fs.degeneracies)

    def ids(self, d=None):
        if d is None:
            return [s for dd in sorted(self.simplices) for s in self.simplices[dd]]
        return list(self.simplices.get(d, ()))

    def is_one_reduced(self):
        return len(self.simplices.get(0, ())) == 1 and not self.simplices.get(1, ())

    def require_one_reduced(self, what):
        """Raise, naming the first obstruction, unless this is 1-reduced."""
        vertices = self.simplices.get(0, ())
        name = _shown(self.name)
        if len(vertices) != 1:
            raise SimplicialError(
                f"{what} needs a 1-reduced space; {name} has vertices "
                f"{', '.join(map(_shown, vertices))}"
            )
        edges = self.simplices.get(1, ())
        if edges:
            raise SimplicialError(
                f"{what} needs a 1-reduced space; {name} has the nondegenerate "
                f"1-simplex {edges[0]!r}"
            )

    def __repr__(self):
        counts = {d: len(ids) for d, ids in sorted(self.simplices.items())}
        return f"{type(self).__name__}({self.name!r}, {counts})"


# ---------------------------------------------------------------------------
# The degeneracy calculus


def face(X, fs, i):
    """The i-th face of a formal simplex, in canonical form.

    Pushes the face through the degeneracy word with the identities
    d_i s_j = s_{j-1} d_i (i < j), = id (i = j, j+1), = s_j d_{i-1} (i > j+1),
    then uses the stored face table on the nondegenerate base.
    """
    n = X.total_dim(fs)
    if n == 0:
        raise SimplicialError(f"a vertex {fs.base!r} has no faces")
    if not 0 <= i <= n:
        raise SimplicialError(f"face index {i} out of range 0..{n} for {fs}")
    key = (fs, i)
    cached = X._face_cache.get(key)
    if cached is not None:
        return cached
    prefix = []
    word = list(fs.degeneracies)
    k = i
    result = None
    while word:
        j = word.pop(0)
        if k < j:
            prefix.append(j - 1)
        elif k in (j, j + 1):
            result = canonical_degeneracy(prefix + word, fs.base, X.dim(fs.base))
            break
        else:
            prefix.append(j)
            k -= 1
    if result is None:
        stored = X.faces.get((fs.base, k))
        if stored is None:
            raise SimplicialError(f"missing face table entry for ({fs.base!r}, {k})")
        result = canonical_degeneracy(
            prefix + list(stored.degeneracies), stored.base, X.dim(stored.base)
        )
    X._face_cache[key] = result
    return result


def _base(fs):
    return None if fs.is_degenerate else fs.base


class SimplexTable:
    """The face data of every nondegenerate simplex, read once via face().

    For a simplex s of dimension d: dim[s]; faces[s][i], the base of d_i s
    (i = 0..d, empty for a vertex); fronts[s][j] and backs[s][j], the bases
    of the Alexander-Whitney front and back j-faces (j = 0..d).  Each entry
    is None where that face is degenerate.  Derived from these: the
    normalized boundary terms (coef, face) in full and inner-face form, and
    the Alexander-Whitney pairs (front, back) with degenerate ones dropped,
    in order of j; for d >= 1 the outer pairs always survive, so the
    reduced coproduct is aw_pairs[s][1:-1].

    Precomputed for the word models of this space: internal, the boundary
    their internal differential takes (the inner faces for Z(X), an
    OpExtension, else the full boundary); for each letter a (dimension
    >= 1), shifted[a] = |a| - 1 and rules[a], the cobar rule -[d a] + sum
    (-1)^{|a'|} [a'|a''] over internal as (coefficient, replacement
    letters) pairs, vertices dropped;
    for each s, the free-loop wrap pairs (front, back, coefficient):
    theta1[s] over j < d with -(-1)^j, theta2[s][e] over j >= 1 with
    (-1)^((j+1)(d-j+e)) for words of degree parity e.  Read-only once built.
    """

    def __init__(self, X):
        self.dim = dict(X._dims)
        self.faces = {}
        self.fronts = {}
        self.backs = {}
        self.boundary = {}
        self.inner_boundary = {}
        self.internal = self.inner_boundary if isinstance(X, OpExtension) else self.boundary
        self.aw_pairs = {}
        self.shifted = {s: d - 1 for s, d in self.dim.items() if d >= 1}
        self.rules = {}
        self.theta1 = {}
        self.theta2 = {}
        for s, d in self.dim.items():
            x = nondeg(s)
            faces = tuple(_base(face(X, x, i)) for i in range(d + 1)) if d else ()
            fronts = [x] * (d + 1)
            backs = [x] * (d + 1)
            for j in range(d, 0, -1):
                fronts[j - 1] = face(X, fronts[j], j)
            for j in range(1, d + 1):
                backs[j] = face(X, backs[j - 1], 0)
            self.faces[s] = faces
            self.fronts[s] = tuple(map(_base, fronts))
            self.backs[s] = tuple(map(_base, backs))
            self.boundary[s] = tuple(
                (-1 if i % 2 else 1, f) for i, f in enumerate(faces) if f is not None
            )
            self.inner_boundary[s] = tuple(
                (-1 if i % 2 else 1, f)
                for i, f in enumerate(faces[1:d], 1)
                if f is not None
            )
            pairs = [
                (j, f, b)
                for j, (f, b) in enumerate(zip(self.fronts[s], self.backs[s]))
                if f is not None and b is not None
            ]
            self.aw_pairs[s] = tuple((f, b) for _, f, b in pairs)
            self.theta1[s] = tuple((f, b, 1 if j % 2 else -1) for j, f, b in pairs if j < d)
            self.theta2[s] = tuple(
                tuple((f, b, (-1) ** ((j + 1) * (d - j + e))) for j, f, b in pairs if j)
                for e in (0, 1)
            )
            if d:
                splits = tuple(((-1) ** self.dim[p[0]], p) for p in self.aw_pairs[s][1:-1])
                drops = tuple((-c, (f,)) for c, f in self.internal[s] if self.dim[f])
                self.rules[s] = drops + splits

    def ends(self, s):
        """(min, max): the first and last vertex of a simplex."""
        return self.fronts[s][0], self.backs[s][-1]

    def word_degree(self, w):
        """The sum of the shifted letter degrees of a word.  The word models
        read every input word through here, so a non-letter fails here."""
        try:
            return sum(map(self.shifted.__getitem__, w))
        except KeyError as exc:
            bad = exc.args[0]
            raise SimplicialError(f"{bad!r} is not in the reduced letter basis") from None


def endpoints(X, fs):
    """(min, max): first and last vertex of a formal simplex.

    Degeneracies only repeat vertices, so endpoints depend on the base
    alone: min is the front 0-face of the base, max its back d-face.
    """
    base = fs.base if isinstance(fs, FormalSimplex) else fs
    X.dim(base)  # an unknown id raises SimplicialError
    return X.table.ends(base)


def boundary(X, simplex_id, ring=ZZ):
    """Normalized chain boundary: alternating faces, degenerate ones dropped."""
    X.dim(simplex_id)  # an unknown id raises SimplicialError
    return Chain(ring, ((f, c) for c, f in X.table.boundary[simplex_id]))


def aw_coproduct(X, simplex_id, reduced=False):
    """Alexander-Whitney coproduct of a nondegenerate simplex.

    Returns the list of (front_j, back_j) pairs, each factor in canonical
    form; pairs with a degenerate factor are zero in normalized chains and
    are omitted.  With reduced=True the two outer terms (a vertex tensor
    the simplex and vice versa) are dropped as well.
    """
    X.dim(simplex_id)  # an unknown id raises SimplicialError
    pairs = X.table.aw_pairs[simplex_id]
    return [(nondeg(f), nondeg(b)) for f, b in (pairs[1:-1] if reduced else pairs)]


# ---------------------------------------------------------------------------
# Formal inverses of 1-simplices


OP_SUFFIX = "~"


class OpExtension(SimplicialSetPresentation):
    """Z(X): the presentation X enlarged by a formal inverse per 1-simplex.

    It is a presentation in its own right, named Z(<name of X>), whose
    letters the word models read; ``underlying`` is X, whose simplices fill
    the slot of a loop generator, and ``op_pairs`` maps each 1-simplex to
    its inverse and back.
    """

    def __init__(self, X):
        simplices = {d: list(ids) for d, ids in X.simplices.items()}
        faces = dict(X.faces)
        op_pairs = {}
        for e in X.simplices.get(1, ()):
            e_op = e + OP_SUFFIX
            if e_op in X._dims:
                raise SimplicialError(f"id {e_op!r} collides with the op alphabet")
            simplices[1].append(e_op)
            faces[(e_op, 0)] = X.faces[(e, 1)]
            faces[(e_op, 1)] = X.faces[(e, 0)]
            op_pairs[e] = e_op
            op_pairs[e_op] = e
        super().__init__(f"Z({X.name})", X.basepoint, simplices, faces)
        self.op_pairs = op_pairs
        self._underlying = X

    @property
    def underlying(self):
        return self._underlying


def adjoin_inverses(X):
    """Extend X by one fresh 1-simplex x~ per nondegenerate 1-simplex x,
    with endpoints swapped.  No other nondegenerate simplices are added.
    Memoized per presentation, so repeated callers share one face table."""
    return X.op_extension


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
