"""Tensor-word complexes on the chain coalgebra of a simplicial set.

Words [a1|...|ak] are tuples of letter ids: nondegenerate simplices of
dimension >= 1 (of Z(X) in the inverted setting, of X itself in the
1-reduced setting).  The cobar differential acts as a derivation of the
single-letter rule

    d[c] = -[d c] + sum (-1)^{|c'|} [c'|c'']

over the reduced Alexander-Whitney coproduct, where the internal
differential is the full normalized boundary, or only its inner faces in
the inverted ("hat") setting.  Koszul signs use the shifted letter degree
|a| - 1, which is the unique extension with d^2 = 0.

The bar construction of the resulting tensor algebra lives here too.
"""

from __future__ import annotations

from .homalg import Chain, ComplexSlice, SparseIntMatrix, ZZ
from .simplicial import OpExtension, SimplicialError

Word = tuple  # tuple of letter ids
BarWord = tuple  # tuple of Words


# ---------------------------------------------------------------------------
# Letters


def _letters(space):
    """The presentation whose simplices are the letters, and the inverse
    pairs of its 1-simplex letters (none outside the inverted setting)."""
    if isinstance(space, OpExtension):
        return space.space, space.op_pairs
    return space, {}


def word_degree(space, w):
    """Degree of a cobar word: the sum of shifted letter dimensions."""
    dim = _letters(space)[0].table.dim
    return sum(dim[a] - 1 for a in w)


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


# ---------------------------------------------------------------------------
# Differentials


def truncated_boundary_dA(space, letter, ring=ZZ):
    """Inner-face boundary of a letter: sum_{0<i<n} (-1)^i d_i, normalized."""
    table = _letters(space)[0].table
    if table.dim.get(letter, 0) < 1:
        raise SimplicialError(f"{letter!r} is not a letter (dimension >= 1)")
    out = Chain(ring)
    for c, f in table.inner_boundary[letter]:
        out.add(f, c)
    return out


def cobar_differential(space, w, ring=ZZ, hat=None):
    """Differential of a cobar word, as a Chain over reduced words.

    space is a presentation (1-reduced, letters of dimension >= 2) or an
    OpExtension (hat setting, inner-face internal differential, outputs
    re-reduced).  The empty word is the algebra unit and maps to zero.
    """
    if hat is None:
        hat = isinstance(space, OpExtension)
    out = Chain(ring)
    for key, c in _cobar_diff_raw(space, tuple(w), hat).items():
        out.add(key, c)
    return out


def _cobar_diff_raw(space, w, hat):
    """d(w) as a raw {word: coefficient}: the single-letter rule, internal
    boundary (vertex faces dropped) plus reduced coproduct splits, applied
    letter by letter with Koszul signs."""
    X, op_pairs = _letters(space)
    dim = X.table.dim
    faces_of = X.table.inner_boundary if hat else X.table.boundary
    aw_pairs = X.table.aw_pairs
    terms = {}
    sign = 1
    for i, a in enumerate(w):
        if dim.get(a, 0) < 1:
            raise SimplicialError(f"{a!r} is not in the reduced letter basis")
        head, tail = w[:i], w[i + 1 :]
        for c, f in faces_of[a]:
            if dim[f] >= 1:
                new = reduce_word(head + (f,) + tail, op_pairs)
                terms[new] = terms.get(new, 0) - sign * c
        for f, b in aw_pairs[a][1:-1]:
            new = reduce_word(head + (f, b) + tail, op_pairs)
            terms[new] = terms.get(new, 0) + sign * (-1) ** dim[f]
        sign *= (-1) ** (dim[a] - 1)
    return {k: v for k, v in terms.items() if v}


# ---------------------------------------------------------------------------
# Word bases


def cobar_basis(space, degree):
    """All cobar words of the given degree over a 1-reduced presentation."""
    X = _letters(space)[0]
    if not X.is_one_reduced():
        raise SimplicialError(
            f"{X.name}: cobar words without a length cap need a 1-reduced space"
        )
    dim = X.table.dim
    letters = sorted(a for a in dim if dim[a] >= 2)
    words = []

    def extend(prefix, remaining):
        if remaining == 0:
            words.append(tuple(prefix))
            return
        for a in letters:
            da = dim[a] - 1
            if da <= remaining:
                prefix.append(a)
                extend(prefix, remaining - da)
                prefix.pop()

    if degree == 0:
        return [()]
    extend([], degree)
    return sorted(words, key=lambda w: (len(w), w))


def words_between(space, start, end, degree, max_word_length):
    """Reduced words of one degree whose letters chain start -> end.

    Letters are edges of the 1-skeleton quiver (a letter runs from its
    first to its last vertex); enumeration is depth-first with the length
    cap pruning, returned in (length, word) order.  The empty word appears
    exactly when start == end and degree == 0.
    """
    if max_word_length < 1:
        raise SimplicialError("max_word_length must be >= 1")
    X, op_pairs = _letters(space)
    table = X.table
    out_edges = {}
    for a, d in table.dim.items():
        if d >= 1:
            lo, hi = table.ends(a)
            out_edges.setdefault(lo, []).append((a, hi, d - 1))
    for lst in out_edges.values():
        lst.sort()
    words = []

    def extend(prefix, at, deg_left):
        if deg_left == 0 and at == end:
            words.append(tuple(prefix))
        if len(prefix) == max_word_length:
            return
        for a, hi, da in out_edges.get(at, ()):
            if da <= deg_left and not (prefix and op_pairs.get(prefix[-1]) == a):
                prefix.append(a)
                extend(prefix, hi, deg_left - da)
                prefix.pop()

    extend([], start, degree)
    return sorted(words, key=lambda w: (len(w), w))


def hat_cobar_basis(space, degree, max_word_length):
    """Reduced words of one degree based at the basepoint, length capped."""
    base = _letters(space)[0].basepoint
    return words_between(space, base, base, degree, max_word_length)


# ---------------------------------------------------------------------------
# The word algebra and its bar construction


class CobarAlgebra:
    """The tensor algebra of cobar words, with product = concatenation.

    Provides exactly what the bar and Hochschild differentials consume:
    degrees, the internal differential, and the monomial product.
    """

    def __init__(self, space, hat=None):
        self.space = space
        self.hat = isinstance(space, OpExtension) if hat is None else hat
        self.letters, self.op_pairs = _letters(space)

    def degree(self, w):
        return word_degree(self.space, w)

    def differential(self, w):
        """d(w) as a dict {word: coefficient}."""
        return _cobar_diff_raw(self.space, tuple(w), self.hat)

    def multiply(self, u, v):
        return reduce_word(tuple(u) + tuple(v), self.op_pairs)


def bar_degree(algebra, barword):
    return sum(algebra.degree(a) + 1 for a in barword)


def bar_differential(algebra, barword, ring=ZZ):
    """Bar construction differential d1 + d2 on a bar word over the algebra.

    d1 replaces one letter by its internal differential, d2 multiplies one
    adjacent pair; signs use eps_i = |a_1| + ... + |a_i| + i.  Letters must
    lie in the augmentation kernel (no empty cobar word).
    """
    w = tuple(tuple(a) for a in barword)
    if any(len(a) == 0 for a in w):
        raise SimplicialError("bar letters must be non-unit cobar words")
    out = Chain(ring)
    eps = 0  # eps_{i-1} going in
    for i, a in enumerate(w):
        for da, c in algebra.differential(a).items():
            if da:  # unit components die in the augmentation kernel
                out.add(w[:i] + (da,) + w[i + 1 :], -c * (-1) ** eps)
        eps += algebra.degree(a) + 1
        if i + 1 < len(w):
            prod = algebra.multiply(a, w[i + 1])
            if prod:
                out.add(w[:i] + (prod,) + w[i + 2 :], -((-1) ** eps))
    return out


# ---------------------------------------------------------------------------
# Complex slices


def _close_and_build(bases_by_degree, diff_fn, max_degree, truncated_at=None):
    """Assemble a ComplexSlice, closing bases downward under the differential.

    The seeded generator sets need not be closed under d (truncated word
    enumerations are not); any generator appearing in a differential is
    adopted into the lower basis, so the stored matrices form an honest
    subcomplex and d.d = 0 holds exactly.
    """
    bases = {n: list(gens) for n, gens in bases_by_degree.items()}
    diff_cache = {}
    for n in range(max_degree, 0, -1):
        lower = dict.fromkeys(bases.get(n - 1, ()))
        for g in bases.get(n, ()):
            dg = diff_fn(g)
            diff_cache[g] = dg
            for key in dg:
                if key not in lower:
                    lower[key] = None
        bases[n - 1] = list(lower)
    bases = {n: sorted(gens, key=_generator_sort_key) for n, gens in bases.items() if gens}
    diffs = {}
    for n in range(1, max_degree + 1):
        if n not in bases:
            continue
        rows = bases.get(n - 1, ())
        row_index = {g: i for i, g in enumerate(rows)}
        columns = []
        for g in bases[n]:
            dg = diff_cache.get(g)
            if dg is None:
                dg = diff_fn(g)
            columns.append({row_index[k]: c for k, c in dg.items()})
        diffs[n] = SparseIntMatrix.from_columns(len(rows), columns)
    return ComplexSlice(bases, diffs, truncated_at=truncated_at)


def _generator_sort_key(g):
    # Stable order for heterogeneous generator keys (strings, nested tuples).
    def rec(x):
        if isinstance(x, tuple):
            return (1, len(x), tuple(rec(y) for y in x))
        return (0, str(x))

    return rec(g)


def cobar_slice(space, max_degree, max_word_length=None):
    """ComplexSlice of the cobar construction through max_degree.

    For a 1-reduced presentation the bases are exact per degree; for an
    OpExtension a word-length cap is mandatory and the slice is the
    d-closure of the capped enumeration, flagged via ``truncated_at``.
    """
    hat = isinstance(space, OpExtension)
    X = space.space if hat else space
    if hat and not X.is_one_reduced():
        if max_word_length is None:
            raise SimplicialError(
                f"{X.name}: the inverted cobar complex is degreewise infinite; "
                f"a word-length cap is required"
            )
        seeds = {
            n: hat_cobar_basis(space, n, max_word_length)
            for n in range(max_degree + 1)
        }
        truncated_at = max_word_length
    elif hat:
        # 1-reduced: letters carry degree >= 1, so length <= degree is exact.
        seeds = {
            n: hat_cobar_basis(space, n, max(max_degree, 1))
            for n in range(max_degree + 1)
        }
        truncated_at = None
    else:
        seeds = {n: cobar_basis(space, n) for n in range(max_degree + 1)}
        truncated_at = None

    def diff(w):
        return _cobar_diff_raw(space, w, hat)

    return _close_and_build(seeds, diff, max_degree, truncated_at=truncated_at)


def hochschild_basis(algebra, degree, word_cap=None):
    """Generators (barword, u) of Hoch(A) in one degree, A the word algebra.

    Over a 1-reduced space the basis is exact.  Otherwise ``word_cap``
    bounds the total number of alphabet letters across the bar word and u,
    mirroring the cobar truncation.
    """
    X = algebra.letters
    if word_cap is None and not X.is_one_reduced():
        raise SimplicialError(
            f"{X.name}: Hochschild generators over the inverted algebra need a cap"
        )
    out = []
    if word_cap is None:
        words_of = {d: cobar_basis(algebra.space, d) for d in range(degree + 1)}

        def bar_letters(bound):
            for d in range(1, bound + 1):
                for w in words_of[d]:
                    yield w, d

        def extend(prefix, deg_left):
            for u in words_of.get(deg_left, ()):
                out.append((tuple(prefix), u))
            for w, d in bar_letters(deg_left - 1):
                prefix.append(w)
                extend(prefix, deg_left - d - 1)
                prefix.pop()

        extend([], degree)
    else:
        all_words = []
        for d in range(degree + 1):
            for w in hat_cobar_basis(algebra.space, d, word_cap):
                all_words.append((w, d, len(w)))

        def extend(prefix, deg_left, cap_left):
            for u, du, lu in all_words:
                if du == deg_left and lu <= cap_left:
                    out.append((tuple(prefix), u))
            for w, dw, lw in all_words:
                if 1 <= lw <= cap_left and dw + 1 <= deg_left:
                    prefix.append(w)
                    extend(prefix, deg_left - dw - 1, cap_left - lw)
                    prefix.pop()

        extend([], degree, word_cap)
    return sorted(out, key=_generator_sort_key)
