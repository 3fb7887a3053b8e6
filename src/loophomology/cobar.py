"""Tensor-word complexes on the chain coalgebra of a simplicial set.

Words [a1|...|ak] are tuples of letter ids: nondegenerate simplices of
dimension >= 1 of the space the model is given.  That space decides the
setting: Z(X), an OpExtension, gives the inverted ("hat") setting and a
plain presentation the 1-reduced one; no call takes a flag for it.  The
cobar differential acts as a derivation of the single-letter rule

    d[c] = -[d c] + sum (-1)^{|c'|} [c'|c'']

over the reduced Alexander-Whitney coproduct, where the internal
differential is the full normalized boundary, or only its inner faces in
the inverted ("hat") setting.  Koszul signs use the shifted letter degree
|a| - 1, which is the unique extension with d^2 = 0.  The letter rules
and shifted degrees are read once into the presentation's SimplexTable.

In the inverted setting words are freely reduced (no x next to x~).  Each
word the models make splices reduced pieces, head + middle + tail (a rule
in place of a letter, a letter in front of or behind a word, a rotation),
so only the two seams can cancel: _splice cancels at the first, then at
the second, cascading outward into the head, and never rescans a piece.

Every word basis is one walk, words_between: words grow level by level,
each extended by the letters in sorted order up to a length cap, so they
come out in (length, word) order.  Over a 1-reduced space the cap
max(degree, 1) never binds.  Hochschild bar words grow the same way over
the non-empty words, so no basis is sorted after it is enumerated.

The bar construction of the resulting tensor algebra lives here too.
"""

from __future__ import annotations

from .homalg import _close_and_build
from .linalg import ZZ, Chain, _nonzero
from .presentation import OpExtension, SimplicialError

# ---------------------------------------------------------------------------
# Words


def word_degree(space, w):
    """Degree of a cobar word: the sum of shifted letter dimensions."""
    return space.table.word_degree(w)


def format_word(w):
    """The serialization [a1|a2|...|ak]; inverse letters carry their ~."""
    return "[" + "|".join(w) + "]"


# ---------------------------------------------------------------------------
# Free reduction


def reduce_word(w, op_pairs):
    """Delete adjacent formally-inverse pairs of 1-simplex letters.

    op is an involution, so both orders (x, x~) and (x~, x) cancel; the
    stack pass yields the unique fully reduced word.
    """
    if not op_pairs:
        return tuple(w)
    out = []
    for a in w:
        if out and op_pairs.get(out[-1]) == a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _splice(head, mid, tail, op_pairs):
    """reduce_word(head + mid + tail) for reduced head, mid and tail: mid
    cancels into the end of head, then tail into the end of what is left."""
    if not op_pairs:
        return head + mid + tail
    for right in (mid, tail):
        i, k = len(head), 0
        while i and k < len(right) and op_pairs.get(head[i - 1]) == right[k]:
            i -= 1
            k += 1
        head = head[:i] + right[k:]
    return head


# ---------------------------------------------------------------------------
# Differentials


def truncated_boundary_dA(space, letter, ring=ZZ):
    """Inner-face boundary of a letter: sum_{0<i<n} (-1)^i d_i, normalized."""
    table = space.table
    if table.dim.get(letter, 0) < 1:
        raise SimplicialError(f"{letter!r} is not a letter (dimension >= 1)")
    return Chain(ring, ((f, c) for c, f in table.inner_boundary[letter]))


def cobar_differential(space, w, ring=ZZ):
    """Differential of a cobar word, as a Chain over reduced words.

    space is a presentation (1-reduced, letters of dimension >= 2) or an
    OpExtension (hat setting, inner-face internal differential, outputs
    re-reduced).  The empty word is the algebra unit and maps to zero.
    """
    w = tuple(w)
    word_degree(space, w)  # a non-letter raises SimplicialError
    return Chain(ring, CobarAlgebra(space).differential(w))


# ---------------------------------------------------------------------------
# Word bases


def cobar_basis(space, degree):
    """All cobar words of the given degree over a 1-reduced presentation,
    where every letter has shifted degree >= 1, so the cap max(degree, 1)
    never binds."""
    if not space.is_one_reduced():
        raise SimplicialError(
            f"{space.name}: cobar words without a length cap need a 1-reduced space"
        )
    return hat_cobar_basis(space, degree, max(degree, 1))


def words_between(space, start, end, degree, max_word_length):
    """Reduced words of one degree whose letters chain start -> end.

    Letters are edges of the 1-skeleton quiver (a letter runs from its
    first to its last vertex).  Words are built level by level: each word
    of one length is extended by the letters in sorted order, up to the
    length cap, so they come out in (length, word) order.  The empty word
    appears exactly when start == end and degree == 0.
    """
    if max_word_length < 1:
        raise SimplicialError("max_word_length must be >= 1")
    table, op_pairs = space.table, space.op_pairs
    out_edges = {}
    for a in sorted(table.dim):
        if table.dim[a] >= 1:
            lo, hi = table.ends(a)
            out_edges.setdefault(lo, []).append((a, hi, table.dim[a] - 1))
    words = [()] if start == end and degree == 0 else []
    # (word, last vertex, degree left, the letter that would cancel its end)
    level = [((), start, degree, None)]
    for room in reversed(range(max_word_length)):  # letters that may follow
        grown = []
        for w, at, left, banned in level:
            for a, hi, da in out_edges.get(at, ()):
                if da <= left and a != banned:
                    v = w + (a,)
                    if da == left and hi == end:
                        words.append(v)
                    if room:
                        grown.append((v, hi, left - da, op_pairs.get(a)))
        level = grown
    return words


def hat_cobar_basis(space, degree, max_word_length):
    """Reduced words of one degree based at the basepoint, length capped."""
    base = space.basepoint
    return words_between(space, base, base, degree, max_word_length)


# ---------------------------------------------------------------------------
# The word algebra and its bar construction


class CobarAlgebra:
    """The tensor algebra of cobar words, with product = concatenation.

    Provides exactly what the bar and Hochschild differentials consume:
    degrees, the internal differential, and the op pairs with which
    _splice takes the monomial product.  It reads the word rules and
    shifted degrees of the space's table once, at construction; ``hat``
    says whether the space is Z(X).
    """

    def __init__(self, space):
        self.space = space
        self.hat = isinstance(space, OpExtension)
        self.op_pairs = space.op_pairs
        self.table = space.table
        self.rules, self.shifted = self.table.rules, self.table.shifted

    def degree(self, w):
        return self.table.word_degree(w)

    def differential(self, w):
        """d(w) as a dict {word: summed coefficient}, zero sums kept."""
        terms = {}
        _tensor_terms(self, (), (), tuple(w), terms)
        return {dw: c for (_, dw), c in terms.items()}


def bar_differential(algebra, barword, ring=ZZ):
    """Bar construction differential d1 + d2 on a bar word over the algebra.

    d1 replaces one letter by its internal differential, d2 multiplies one
    adjacent pair; signs use eps_i = |a_1| + ... + |a_i| + i.  Letters must
    lie in the augmentation kernel (no empty cobar word).
    """
    w = tuple(tuple(a) for a in barword)
    terms = {}
    _tensor_terms(algebra, w, [algebra.degree(a) for a in w], (), terms)
    return Chain(ring, {db: c for (db, _), c in terms.items()})


def _tensor_terms(algebra, b, degs, u, out):
    """Add d(b (x) u) = d_BA(b) (x) u + (-1)^{eps_n} b (x) d_A(u) into out
    as {(bar word, word): coefficient}, degs the degrees of b's letters;
    with u = () it is d1 + d2 of b.  A word's differential splices each
    letter's rule into its place, with the Koszul sign of the letters
    before it; signs across bar letters use eps_i = |a_1|+...+|a_i| + i."""
    if () in b:
        raise SimplicialError("bar letters must be non-unit cobar words")
    rules, shifted, op_pairs = algebra.rules, algebra.shifted, algebra.op_pairs
    odd = False  # parity of eps_{i-1}
    for i, a in enumerate(b + (u,)):
        module = i == len(b)
        front, back = b[:i], b[i + 1 :]
        sign = -1 if odd == module else 1  # -(-1)^eps_{i-1}, or (-1)^eps_n for u
        for k, e in enumerate(a):
            rule = rules[e]
            if rule:
                head, tail = a[:k], a[k + 1 :]
                for c, mid in rule:
                    da = _splice(head, mid, tail, op_pairs)
                    if module or da:  # a unit bar letter dies
                        key = (b, da) if module else (front + (da,) + back, u)
                        out[key] = out.get(key, 0) + sign * c
            if shifted[e] & 1:
                sign = -sign
        if module:
            return
        if not degs[i] & 1:
            odd = not odd
        if back:
            prod = _splice(a, back[0], (), op_pairs)
            if prod:
                key = (front + (prod,) + back[1:], u)
                out[key] = out.get(key, 0) + (1 if odd else -1)


# ---------------------------------------------------------------------------
# Complex slices


def cobar_recipe(space, max_word_length=None):
    """(seeds, differential, truncated_at) of the cobar construction.

    A plain presentation must be 1-reduced.  Over a 1-reduced space the
    bases are exact per degree; over Z(X) of a space that is not, a
    word-length cap is mandatory and a slice is the d-closure of the
    capped enumeration, flagged via ``truncated_at``.
    """
    truncated_at = None
    if not isinstance(space, OpExtension):
        space.require_one_reduced("the plain cobar complex")
    if not space.is_one_reduced():
        if max_word_length is None:
            raise SimplicialError(
                f"{space.name}: the inverted cobar complex is degreewise infinite; "
                f"a word-length cap is required"
            )
        truncated_at = max_word_length
    algebra = CobarAlgebra(space)

    def seeds(n):
        cap = max(n, 1) if truncated_at is None else truncated_at
        return hat_cobar_basis(space, n, cap)

    def diff(w):
        return _nonzero(algebra.differential(w))

    return seeds, diff, truncated_at


def cobar_slice(space, max_degree, max_word_length=None):
    """ComplexSlice of the cobar construction through max_degree (see
    cobar_recipe)."""
    return _close_and_build(cobar_recipe(space, max_word_length), max_degree)


def hochschild_basis(algebra, degree, word_cap=None):
    """Generators (barword, u) of Hoch(A) in one degree, A the word algebra.

    Over a 1-reduced space the basis is exact.  Otherwise ``word_cap``
    bounds the total number of alphabet letters across the bar word and u,
    mirroring the cobar truncation.  Bar words are built level by level:
    each is extended by the non-empty words in (length, word) order, so the
    generators come out by number of bar letters, then bar letter by bar
    letter, then by u, each word in (length, word) order.
    """
    space = algebra.space
    if word_cap is None and not space.is_one_reduced():
        raise SimplicialError(
            f"{space.name}: Hochschild generators over the inverted algebra need a cap"
        )
    if degree < 0:
        return []
    cap = max(degree, 1) if word_cap is None else word_cap
    words_of = [hat_cobar_basis(space, d, cap) for d in range(degree + 1)]
    # bar letters: the non-empty words in (length, word) order; with r
    # degrees left, those of degree < r
    letters = sorted((len(w), w, d) for d in range(degree) for w in words_of[d] if w)
    letters_for = [
        [(w, d, lw) for lw, w, d in letters if d < r] for r in range(degree + 1)
    ]
    out = []
    level = [((), degree, cap)]
    while level:
        grown = []
        for b, left, cap_left in level:
            for u in words_of[left]:
                if len(u) > cap_left:
                    break
                out.append((b, u))
            for w, d, lw in letters_for[left]:
                if lw > cap_left:
                    break
                grown.append((b + (w,), left - d - 1, cap_left - lw))
        level = grown
    return out
