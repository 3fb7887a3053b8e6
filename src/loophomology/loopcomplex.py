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

Each differential taken on every generator of a slice is one kernel, built
once per slice: it reads its tables once and maps a generator to a raw
{key: coefficient} dict.  Its public function is a Chain wrapper.

The face-operator differential and the comparison maps between the two
models, which only the verify suite uses, live in comparison.
"""

from __future__ import annotations

from .cobar import (
    CobarAlgebra,
    _hochschild_key,
    _splice,
    _tensor_terms,
    format_word,
    hochschild_basis,
    words_between,
)
from .homalg import Chain, ZZ, _close_and_build, _nonzero
from .simplicial import OpExtension, SimplicialError


def format_loop_generator(gen):
    x, w = gen
    return f"({x} ; {format_word(w)})"


def _loop_key(gen):
    # flat sort key of a loop generator (x, w): by x, then as a word
    x, w = gen
    return x, len(w), w


# ---------------------------------------------------------------------------
# Per-space machinery


def _loop_parts(space):
    """(X, table, op_pairs): the simplex slot lives in X, the word part in
    the letters (Z(X) when inverted, X itself else).  The face table of the
    letters covers the simplices of X too, since Z(X) only adds edges."""
    if isinstance(space, OpExtension):
        return space.underlying, space.space.table, space.op_pairs
    return space, space.table, {}


def _require_one_reduced(X, what):
    if len(X.simplices.get(0, ())) != 1:
        raise SimplicialError(
            f"{what} needs a 1-reduced space; {X.name} has vertices "
            f"{', '.join(X.simplices.get(0, ()))}"
        )
    edges = X.simplices.get(1, ())
    if edges:
        raise SimplicialError(
            f"{what} needs a 1-reduced space; {X.name} has the nondegenerate "
            f"1-simplex {edges[0]!r}"
        )


# ---------------------------------------------------------------------------
# Bases


def cohoch_basis(space, degree, max_word_length=None, hat=False):
    """Loop generators of one degree, in _loop_key order: by simplex id
    whatever its dimension, then by word length, then letter by letter, so
    the slice builder takes them as they come.

    Without the hat the space must be 1-reduced and the basis is exact;
    with it the word length is capped at max_word_length (mandatory for
    spaces that are not 1-reduced, where degree components are infinite).
    """
    X, table, _ = _loop_parts(space)
    if not hat:
        _require_one_reduced(X, "the plain free-loop complex")
    one_reduced = X.is_one_reduced()
    if hat and not one_reduced and max_word_length is None:
        raise SimplicialError(
            f"{X.name}: word-length cap required (degree components are infinite)"
        )
    cap = max_word_length if max_word_length is not None else max(degree, 1)
    # _loop_key order: x by id over every dimension up to the degree, then
    # each word list in (len, w) order, enumerated once per (ends, degree)
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


def _cohoch_kernel(space, hat):
    """cohoch_differential as a function of one loop generator (x, w),
    returning {generator: nonzero coefficient}: the four families over the
    boundary, word rules and wrap pairs of the letter table, read once."""
    _, table, op_pairs = _loop_parts(space)
    dim, shifted = table.dim, table.shifted
    boundary = table.inner_boundary if hat else table.boundary
    rules, theta1, theta2 = table.rules[hat], table.theta1, table.theta2

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


def cohoch_differential(space, gen, ring=ZZ, hat=False):
    """Differential of a loop generator, four terms: simplex boundary, word
    differential (Koszul sign (-1)^p), theta_1 and theta_2 over the
    coproduct of x, with degenerate factors dropped.  The simplex boundary
    is the inner faces in the inverted setting (the outer faces reappear
    as the i = 1 terms of the theta families), the full alternating sum
    else."""
    X, table, _ = _loop_parts(space)
    x, w = gen
    X.dim(x)  # an unknown simplex or letter raises SimplicialError
    table.word_degree(w)
    return Chain(ring, _cohoch_kernel(space, hat)(gen))


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


def hochschild_slice(space, max_degree, hat=False, word_cap=None):
    """ComplexSlice of Hoch(A) for A the cobar algebra of the space."""
    algebra = CobarAlgebra(space, hat=hat)
    X = algebra.letters
    truncated_at = None
    if X.is_one_reduced():
        word_cap = None  # bases are exact; a cap would silently shrink them
    else:
        if word_cap is None:
            raise SimplicialError(
                f"{X.name}: Hochschild bases over the inverted algebra need a cap"
            )
        truncated_at = word_cap
    seeds = {
        n: hochschild_basis(algebra, n, word_cap=word_cap)
        for n in range(max_degree + 1)
    }

    return _close_and_build(
        seeds, _hochschild_kernel(algebra), max_degree, _hochschild_key, truncated_at
    )


def cohoch_slice(space, max_degree, hat=False, max_word_length=None):
    """ComplexSlice of the free-loop complex through max_degree.

    Truncated bases are closed downward under the differential, so the
    matrices always present an honest subcomplex.
    """
    truncated_at = None
    if _loop_parts(space)[0].is_one_reduced():
        max_word_length = None  # exact bases; cap independence holds
    elif hat:
        truncated_at = max_word_length
    seeds = {
        n: cohoch_basis(space, n, max_word_length=max_word_length, hat=hat)
        for n in range(max_degree + 1)
    }

    return _close_and_build(
        seeds, _cohoch_kernel(space, hat), max_degree, _loop_key, truncated_at
    )
