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

The built-in spaces, the JSON loader and validate are in simplicial.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .rings import ZZ, Chain


def _shown(name):
    # a name or id as it is where it prints on one line, else its repr
    return name if name.isprintable() else repr(name)


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
