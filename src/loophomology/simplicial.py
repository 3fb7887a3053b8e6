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
from functools import cached_property

from ._records import Value
from .homalg import Chain, ZZ, _close_and_build


class SimplicialError(ValueError):
    """Malformed simplicial input: bad index, unknown simplex, bad word."""


class FormalSimplex(Value):
    """A possibly degenerate simplex s_{j1} s_{j2} ... s_{jk} (base).

    The word is strictly decreasing (j1 > j2 > ... > jk), read as operator
    composition with the rightmost letter applied to the base first.
    """

    __slots__ = ("degeneracies", "base")

    def __init__(self, degeneracies: tuple[int, ...], base: str):
        object.__setattr__(self, "degeneracies", degeneracies)
        object.__setattr__(self, "base", base)

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
        if len(vertices) != 1:
            raise SimplicialError(
                f"{what} needs a 1-reduced space; {self.name} has vertices "
                f"{', '.join(vertices)}"
            )
        edges = self.simplices.get(1, ())
        if edges:
            raise SimplicialError(
                f"{what} needs a 1-reduced space; {self.name} has the nondegenerate "
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

    Precomputed for the word models: for each letter a (dimension >= 1),
    shifted[a] = |a| - 1 and rules[hat][a], the cobar rule -[d a] + sum
    (-1)^{|a'|} [a'|a''] as (coefficient, replacement letters) pairs over
    the full boundary (hat 0) or its inner faces (hat 1), vertices dropped;
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
        self.aw_pairs = {}
        self.shifted = {s: d - 1 for s, d in self.dim.items() if d >= 1}
        self.rules = ({}, {})
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
                for hat, terms in enumerate((self.boundary[s], self.inner_boundary[s])):
                    drops = tuple((-c, (f,)) for c, f in terms if self.dim[f])
                    self.rules[hat][s] = drops + splits

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

    def op(self, simplex_id):
        return self.op_pairs.get(simplex_id)


def adjoin_inverses(X):
    """Extend X by one fresh 1-simplex x~ per nondegenerate 1-simplex x,
    with endpoints swapped.  No other nondegenerate simplices are added.
    Memoized per presentation, so repeated callers share one face table."""
    return X.op_extension


# ---------------------------------------------------------------------------
# Validation


def validate(X):
    """All invariant violations of a presentation, as human-readable strings.

    Empty means: faces have the right dimension, degeneracy words are
    canonical and in range, only simplices of dimension >= 1 have faces,
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
            violations.append(f"{s}: {len(present)} face records for {what}")
    for d, ids in sorted(X.simplices.items()):
        if d < 0:
            violations.append(f"negative dimension {d}")
            continue
        for s in ids:
            if d == 0:
                continue
            present = {i: e for i, e in records.get(s, {}).items() if 0 <= i <= d}
            if not present:
                violations.append(f"{s}: missing all {d + 1} faces")
                continue
            if len(present) <= d:
                first = next(i for i in range(d + 1) if i not in present)
                violations.append(
                    f"{s}: missing {d + 1 - len(present)} of {d + 1} faces "
                    f"(first {first})"
                )
            for i, entry in sorted(present.items()):
                word = entry.degeneracies
                if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
                    violations.append(
                        f"{s}: face {i} has non-canonical degeneracy word {list(word)}"
                    )
                    continue
                if entry.base not in X._dims:
                    violations.append(f"{s}: face {i} has unknown base {entry.base!r}")
                    continue
                try:
                    total = X.total_dim(entry)
                    canonical_degeneracy(word, entry.base, X.dim(entry.base))
                except SimplicialError as exc:
                    violations.append(f"{s}: face {i}: {exc}")
                    continue
                if total != d - 1:
                    violations.append(
                        f"{s}: face {i} has dimension {total}, expected {d - 1}"
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
                            f"{s}: identity d_{i} d_{j} = d_{j-1} d_{i} fails "
                            f"({left} != {right})"
                        )
    return violations


# ---------------------------------------------------------------------------
# Normalized chain complex slice


def chains_slice(X, max_degree):
    """The normalized chain complex of X through the given degree."""
    seeds = {d: sorted(X.simplices.get(d, ())) for d in range(max_degree + 1)}
    return _close_and_build(seeds, lambda s: boundary(X, s).terms, max_degree, key=None)


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


BUILTIN_NAMES = (
    "point",
    "circle",
    "sphere2",
    "sphere3",
    "torus",
    "boundary-delta3",
    "collapsed-delta3",
)


def builtin_space(name):
    makers = {
        "point": _point,
        "circle": _circle,
        "sphere2": lambda: _sphere(2),
        "sphere3": lambda: _sphere(3),
        "torus": _torus,
        "boundary-delta3": _boundary_delta3,
        "collapsed-delta3": _collapsed_delta3,
    }
    if name not in makers:
        raise SimplicialError(
            f"unknown built-in {name!r}; choices: {', '.join(BUILTIN_NAMES)}"
        )
    return makers[name]()


# ---------------------------------------------------------------------------
# JSON input


def presentation_from_json(text, source="<json>"):
    """Parse the JSON simplicial-set schema.

    Top level: name, basepoint, simplices ({dimension: [ids]}), faces
    ({id: [face records 0..n]}) with each record {"deg": [j1 > j2 > ...],
    "base": id}.  A vertex has no faces: it may be left out of faces or
    given [].  Non-canonical degeneracy words are rejected by name.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimplicialError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SimplicialError(f"{source}: top level must be an object")
    for k in ("name", "basepoint", "simplices", "faces"):
        if k not in data:
            raise SimplicialError(f"{source}: missing top-level field {k!r}")
    for k in ("name", "basepoint"):
        if not isinstance(data[k], str):
            raise SimplicialError(f"{source}: {k} must be a string")
    for k in ("simplices", "faces"):
        if not isinstance(data[k], dict):
            raise SimplicialError(f"{source}: {k} must be an object")
    simplices, key_of = {}, {}
    for dim_text, ids in data["simplices"].items():
        try:
            d = int(dim_text)
        except ValueError:
            raise SimplicialError(
                f"{source}: simplices key {dim_text!r} is not a dimension"
            ) from None
        if d in key_of:
            raise SimplicialError(
                f"{source}: simplices keys {key_of[d]!r} and {dim_text!r} "
                f"both name dimension {d}"
            )
        key_of[d] = dim_text
        if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
            raise SimplicialError(
                f"{source}: simplices[{dim_text!r}] must be a list of id strings"
            )
        simplices[d] = ids
    dims = {}
    for d, ids in simplices.items():
        for s in ids:
            if s in dims:
                raise SimplicialError(f"{source}: duplicate simplex id {s!r}")
            dims[s] = d
    faces = {}
    for s, records in data["faces"].items():
        if s not in dims:
            raise SimplicialError(f"{source}: faces lists unknown simplex {s!r}")
        d = dims[s]
        need = d + 1 if d else 0  # a vertex has no faces
        if not isinstance(records, list) or len(records) != need:
            raise SimplicialError(
                f"{source}: {s!r} needs exactly {need} face records"
                f"{'' if d else ' (a vertex has no faces)'}, "
                f"got {len(records) if isinstance(records, list) else records!r}"
            )
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or not isinstance(rec.get("base"), str):
                raise SimplicialError(f"{source}: {s!r} face {i}: bad record {rec!r}")
            word = rec.get("deg", [])
            if not isinstance(word, list) or any(type(j) is not int for j in word):
                raise SimplicialError(
                    f"{source}: {s!r} face {i}: degeneracy word {word!r} must be "
                    f"a list of integers"
                )
            word = tuple(word)
            if any(word[k] <= word[k + 1] for k in range(len(word) - 1)):
                raise SimplicialError(
                    f"{source}: {s!r} face {i}: degeneracy word {list(word)} is not "
                    f"strictly decreasing"
                )
            faces[(s, i)] = FormalSimplex(word, rec["base"])
    for s, d in dims.items():
        if d >= 1 and s not in data["faces"]:
            raise SimplicialError(
                f"{source}: {s!r} needs exactly {d + 1} face records, got none"
            )
    return SimplicialSetPresentation(data["name"], data["basepoint"], simplices, faces)
