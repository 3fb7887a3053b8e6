"""Chain models of the free loop space: their bases, differentials and
slices.

A loop generator is a pair (x, w): a nondegenerate simplex x together with
a reduced cobar word w, subject to the cyclic endpoint condition
min x = max(last letter), max x = min(first letter) (and min x = max x
when w is empty).  Its differential is the coalgebra form d_C (or its
inner-face truncation) tensor 1, plus 1 tensor d_cobar, plus the two
wrap-around terms theta_1 / theta_2 built from the Alexander-Whitney
coproduct of x.  The Hochschild complex of the cobar algebra is the second
free-loop model, on the algebra side.

The space a model is given decides its setting.  Over Z(X), an
OpExtension, the simplex slot ranges over X (its ``underlying``), words are
freely reduced and the boundaries are inner-face ("hat"); over a plain
presentation, which must be 1-reduced, slot and letters are both X.

Each differential taken on every generator of a slice is one kernel, built
once per slice: it reads its tables once and maps a generator to a raw
{key: coefficient} dict.  Its public function is a Chain wrapper.  An
exact free-loop window (a 1-reduced space) also has the transpose, a
coboundary kernel that maps a generator to the generators one degree up
whose differential names it.  The homology pass reduces such a window
bottom-up through it, clearing each generator that leads a unit pivot of
the coboundary below; every other window is reduced top-down through the
differential, clearing each generator that leads a unit pivot of the
differential above.

The face-operator differential and the comparison maps between the two
models, which only the verify suite uses, live in comparison.
"""

from __future__ import annotations

from .cobar import (
    CobarAlgebra,
    _splice,
    _tensor_terms,
    format_word,
    hochschild_basis,
    words_between,
)
from .homalg import _close_and_build
from .rings import ZZ, Chain, _nonzero
from .presentation import OpExtension, SimplicialError


def format_loop_generator(gen):
    x, w = gen
    return f"({x} ; {format_word(w)})"


# ---------------------------------------------------------------------------
# Bases


def cohoch_basis(space, degree, max_word_length=None):
    """Loop generators of one degree, by simplex id whatever its
    dimension, then by word length, then letter by letter; a slice's basis
    is this list as it comes, then what a truncated window adopts.

    A plain space must be 1-reduced and the basis is exact; over Z(X) the
    word length is capped at max_word_length (mandatory for spaces that
    are not 1-reduced, where degree components are infinite).  The face
    table of Z(X) covers the simplices of X too, since Z(X) only adds edges.
    """
    X, table = space.underlying, space.table
    if not isinstance(space, OpExtension):
        X.require_one_reduced("the plain free-loop complex")
    elif max_word_length is None and not X.is_one_reduced():
        raise SimplicialError(
            f"{X.name}: word-length cap required (degree components are infinite)"
        )
    cap = max_word_length if max_word_length is not None else max(degree, 1)
    # x by id over every dimension up to the degree, then each word list
    # in (len, w) order, enumerated once per (ends, degree)
    simplices = sorted(x for p, ids in X.simplices.items() if p <= degree for x in ids)
    gens = []
    words = {}
    for x in simplices:
        lo, hi = table.ends(x)
        q = degree - X.dim(x)
        if (hi, lo, q) not in words:
            words[hi, lo, q] = words_between(space, hi, lo, q, cap)
        gens.extend((x, w) for w in words[hi, lo, q])
    return gens


# ---------------------------------------------------------------------------
# The coalgebra-formula differential


def _cohoch_kernel(space):
    """cohoch_differential as a function of one loop generator (x, w),
    returning {generator: nonzero coefficient}: the four families over the
    boundary, word rules and wrap pairs of the letter table, read once."""
    table, op_pairs = space.table, space.op_pairs
    dim, shifted, boundary = table.dim, table.shifted, table.internal
    rules, theta1, theta2 = table.rules, table.theta1, table.theta2

    def terms(gen):
        x, w = gen
        out = {}
        for c, f in boundary[x]:
            key = (f, w)
            out[key] = out.get(key, 0) + c
        # the word differential, each letter's rule spliced into its place
        # with the Koszul sign of x and the letters before it; q ends as deg w
        sign = -1 if dim[x] & 1 else 1
        q = 0
        for i, a in enumerate(w):
            rule = rules[a]
            if rule:
                s = -sign if q & 1 else sign
                head, tail = w[:i], w[i + 1 :]
                for c, mid in rule:
                    key = (x, _splice(head, mid, tail, op_pairs))
                    out[key] = out.get(key, 0) + s * c
            q += shifted[a]
        for f, b, c in theta1[x]:
            # theta_1: front_j keeps the simplex slot, back_j becomes the lead letter.
            key = (f, _splice((b,), w, (), op_pairs))
            out[key] = out.get(key, 0) + c
        for f, b, c in theta2[x][q & 1]:
            # theta_2: front_j rotates to the word tail, back_j keeps the slot.
            key = (b, _splice(w, (f,), (), op_pairs))
            out[key] = out.get(key, 0) + c
        return _nonzero(out)

    return terms


def _cohoch_cokernel(space):
    """The transpose of _cohoch_kernel on an exact window, as a function of
    one loop generator (y, v) of degree n, returning {generator of degree
    n + 1: nonzero coefficient of (y, v) in its differential}.  The space
    is 1-reduced: one vertex and no edges, so no word cancels and every
    word is a generator.  The four families are read backwards through
    tables inverted once: cofaces, the word rules keyed by the first of
    the one or two letters a rule puts in place of a letter (with the
    rest), and the wrap pairs keyed by
    the letters they bring (theta_2 also by the parity of the word it
    extends).  A word term carries the Koszul sign of y and of the letters
    before the ones it merges, as in _cohoch_kernel."""
    table = space.table
    dim, shifted = table.dim, table.shifted
    cofaces, corules, cotheta1, cotheta2 = {}, {}, {}, {}
    for x, faces in table.internal.items():
        for c, f in faces:
            cofaces.setdefault(f, []).append((c, x))
    for a, rule in table.rules.items():
        for c, mid in rule:
            corules.setdefault(mid[0], []).append((mid[1:], c, a))
    for x, pairs in table.theta1.items():
        for f, b, c in pairs:
            cotheta1.setdefault((f, b), []).append((c, x))
    for x, by_parity in table.theta2.items():
        for e, pairs in enumerate(by_parity):
            for f, b, c in pairs:
                cotheta2.setdefault((f, b, e), []).append((c, x))

    def terms(gen):
        y, v = gen
        out = {}
        for c, x in cofaces.get(y, ()):
            key = (x, v)
            out[key] = out.get(key, 0) + c
        sign = -1 if dim[y] & 1 else 1
        q = 0
        for i, a in enumerate(v):
            s = -sign if q & 1 else sign
            for rest, c, b in corules.get(a, ()):  # merge v[i:k] into b
                k = i + 1 + len(rest)
                if v[i + 1 : k] == rest:
                    key = (y, v[:i] + (b,) + v[k:])
                    out[key] = out.get(key, 0) + s * c
            q += shifted[a]
        if v:
            # theta_1 led with v[0] from the slot y; theta_2 appended v[-1]
            for c, x in cotheta1.get((y, v[0]), ()):
                key = (x, v[1:])
                out[key] = out.get(key, 0) + c
            for c, x in cotheta2.get((v[-1], y, (q - shifted[v[-1]]) & 1), ()):
                key = (x, v[:-1])
                out[key] = out.get(key, 0) + c
        return _nonzero(out)

    return terms


def cohoch_differential(space, gen, ring=ZZ):
    """Differential of a loop generator, four terms: simplex boundary, word
    differential (Koszul sign (-1)^p), theta_1 and theta_2 over the
    coproduct of x, with degenerate factors dropped.  The simplex boundary
    is the inner faces in the inverted setting (the outer faces reappear
    as the i = 1 terms of the theta families), the full alternating sum
    else."""
    x, w = gen
    space.underlying.dim(x)  # an unknown simplex or letter raises SimplicialError
    space.table.word_degree(w)
    return Chain(ring, _cohoch_kernel(space)(gen))


# ---------------------------------------------------------------------------
# Hochschild complex of the cobar algebra


def _hochschild_kernel(algebra):
    """hochschild_differential as a function of one generator (bar word,
    word) of tuples, returning {generator: nonzero coefficient}: the terms
    of _tensor_terms, over the word rules the algebra read once, and the
    two wraps, all summed into one dict."""
    word_degree, op_pairs = algebra.table.word_degree, algebra.op_pairs

    def terms(gen):
        b, u = gen
        degs = [word_degree(a) for a in b]
        deg_u = word_degree(u)
        out = {}
        _tensor_terms(algebra, b, degs, u, out)
        if b:
            eps_n = sum(degs) + len(b)  # the bar degree of b
            e1 = degs[0] * (deg_u + eps_n + degs[0] + 1)
            key = (b[1:], _splice(u, b[0], (), op_pairs))
            out[key] = out.get(key, 0) + (1 if e1 & 1 else -1)
            eps_prev = eps_n - degs[-1] - 1
            key = (b[:-1], _splice(b[-1], u, (), op_pairs))
            out[key] = out.get(key, 0) + (-1 if eps_prev & 1 else 1)
        return _nonzero(out)

    return terms


def hochschild_differential(algebra, gen, ring=ZZ):
    """Differential on BA tensor A for the word algebra A:
    1 (x) d_A + d_BA (x) 1 plus the two wrap-around terms.

    Wrap-term signs: the first bar letter rotates behind the module slot
    with sign -(-1)^{|a1| (|u| + eps_n + |a1| + 1)}, the last multiplies in
    front of it with sign (-1)^{eps_{n-1}}.  This overall orientation of the
    two wraps is the unique one (exhaustive sign sweep) under which d.d = 0
    and phi is a chain map to the free-loop complex.
    """
    b, u = gen
    return Chain(ring, _hochschild_kernel(algebra)((tuple(map(tuple, b)), tuple(u))))


def hochschild_recipe(space, word_cap=None):
    """(seeds, differential, truncated_at) of Hoch(A) for A the cobar
    algebra of the space; a plain space must be 1-reduced."""
    if not isinstance(space, OpExtension):
        space.require_one_reduced("the plain Hochschild complex")
    algebra = CobarAlgebra(space)
    truncated_at = None
    if space.is_one_reduced():
        word_cap = None  # bases are exact; a cap would silently shrink them
    else:
        if word_cap is None:
            raise SimplicialError(
                f"{space.name}: Hochschild bases over the inverted algebra need a cap"
            )
        truncated_at = word_cap

    def seeds(n):
        return hochschild_basis(algebra, n, word_cap=word_cap)

    return seeds, _hochschild_kernel(algebra), truncated_at


def hochschild_slice(space, max_degree, *, word_cap=None):
    """ComplexSlice of Hoch(A) through max_degree (see hochschild_recipe)."""
    return _close_and_build(hochschild_recipe(space, word_cap), max_degree)


def cohoch_recipe(space, max_word_length=None):
    """(seeds, differential, truncated_at) of the free-loop complex, with
    the coboundary kernel as a fourth field when the window is exact.

    Truncated bases are closed downward under the differential, so the
    matrices always present an honest subcomplex.  The builder loop runs
    an exact window's homology pass bottom-up, through the coboundary
    kernel, and every other build top-down; in both, a matrix's rows are
    the next degree's seeds in enumeration order.
    """
    truncated_at = None
    exact = space.is_one_reduced()
    if exact:
        max_word_length = None  # exact bases; cap independence holds
    elif isinstance(space, OpExtension):
        truncated_at = max_word_length

    def seeds(n):
        return cohoch_basis(space, n, max_word_length=max_word_length)

    recipe = seeds, _cohoch_kernel(space), truncated_at
    return recipe + (_cohoch_cokernel(space),) if exact else recipe


def cohoch_slice(space, max_degree, *, max_word_length=None):
    """ComplexSlice of the free-loop complex through max_degree (see
    cohoch_recipe)."""
    return _close_and_build(cohoch_recipe(space, max_word_length), max_degree)
