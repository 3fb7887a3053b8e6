"""Chain models of the free loop space and their comparison maps.

A loop generator is a pair (x, w): a nondegenerate simplex x together with
a reduced cobar word w, subject to the cyclic endpoint condition
min x = max(last letter), max x = min(first letter) (and min x = max x
when w is empty).  Two differentials act on these generators:

* the coalgebra form d_C (or its inner-face truncation) tensor 1, plus
  1 tensor d_cobar, plus the two wrap-around terms theta_1 / theta_2 built
  from the Alexander-Whitney coproduct of x;
* the closed-necklace form assembled purely from face operators d0_i,
  d1_i, d2_i, the combinatorial shadow of the freehedral cell structure.

The two are computed by independent code paths and cross-checked term by
term; see verify.run_verify.

The Hochschild complex of the cobar algebra, with the comparison maps phi
and chi, the coalgebra section eta and the local contraction, completes
the picture on the algebra side.
"""

from __future__ import annotations

from .cobar import (
    CobarAlgebra,
    _cobar_diff_raw,
    bar_degree,
    bar_differential,
    format_word,
    hochschild_basis,
    reduce_word,
    word_degree,
    words_between,
)
from .homalg import Chain, ZZ, _close_and_build
from .simplicial import OpExtension, SimplicialError

LoopGen = tuple  # (simplex id, word)

# Candidate sign conventions for chi.  "index-low" and "index-high" are the two
# adjacent-index readings of the product-form exponent; "rotation" is the
# Koszul sign for rotating the head block past letter, tail and module.
# The chain-map sweep (verify.select_chi_variant) picks the one under which
# phi commutes with the differentials; only "rotation" survives.
CHI_VARIANTS = ("index-low", "index-high", "rotation")
DEFAULT_CHI_VARIANT = "rotation"


def format_loop_generator(gen):
    x, w = gen
    return f"({x} ; {format_word(w)})"


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
    """Loop generators of one degree, in deterministic order.

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
    gens = []
    for p in sorted(X.simplices):
        if p > degree:
            continue
        q = degree - p
        for x in sorted(X.simplices[p]):
            lo, hi = table.ends(x)
            for w in words_between(space, hi, lo, q, cap):
                gens.append((x, w))
    return sorted(gens, key=lambda g: (X.dim(g[0]), g[0], len(g[1]), g[1]))


# ---------------------------------------------------------------------------
# The coalgebra-formula differential


def _theta_terms(table, op_pairs, p, gen):
    """theta_1 and theta_2 of (x, w) as raw {generator: coefficient}."""
    x, w = gen
    eps = sum(table.dim[a] for a in w) + len(w)
    fronts, backs = table.fronts[x], table.backs[x]
    terms = {}
    for j in range(p):
        # theta_1: front_j keeps the simplex slot, back_j becomes the lead letter.
        f, b = fronts[j], backs[j]
        if f is not None and b is not None:
            new = (f, reduce_word((b,) + w, op_pairs))
            c = -((-1) ** j)
            terms[new] = terms.get(new, 0) + c
    for j in range(1, p + 1):
        # theta_2: front_j rotates to the word tail, back_j keeps the slot.
        f, b = fronts[j], backs[j]
        if f is not None and b is not None:
            new = (b, reduce_word(w + (f,), op_pairs))
            c = (-1) ** ((j + 1) * ((p - j) + eps))
            terms[new] = terms.get(new, 0) + c
    return terms


def cohoch_differential(space, gen, ring=ZZ, hat=False):
    """Differential of a loop generator, four terms: simplex boundary, word
    differential (Koszul sign (-1)^p), theta_1 and theta_2 over the
    coproduct of x, with degenerate factors dropped.  The simplex boundary
    is the inner faces in the inverted setting (the outer faces reappear
    as the i = 1 terms of the theta families), the full alternating sum
    else."""
    X, table, op_pairs = _loop_parts(space)
    x, w = gen
    p = X.dim(x)
    out = Chain(ring)
    for c, f in (table.inner_boundary if hat else table.boundary)[x]:
        out.add((f, w), c)
    sign = (-1) ** p
    for wkey, c in _cobar_diff_raw(space, w, hat).items():
        out.add((x, wkey), sign * c)
    for key, c in _theta_terms(table, op_pairs, p, gen).items():
        out.add(key, c)
    return out


# ---------------------------------------------------------------------------
# The face-operator differential


def _word_cube_face(table, op_pairs, w, j, split):
    """Global cube coordinate j of the word: split or inner-face one letter.

    Returns the new word or None when the result is degenerate."""
    count = 0
    for idx, a in enumerate(w):
        inner = table.dim[a] - 1
        if count + inner >= j:
            m = j - count
            if split:
                piece = (table.fronts[a][m], table.backs[a][m])
            else:
                piece = (table.faces[a][m],)
            if None in piece:
                return None
            return reduce_word(w[:idx] + piece + w[idx + 1 :], op_pairs)
        count += inner
    raise SimplicialError(f"cube coordinate {j} exceeds the word degree {count}")


def necklical_face(space, eps, i, gen):
    """One closed-necklace face operator d^eps_i applied to (x, w).

    Index ranges (p = dim x, q = deg w, n = p + q): d0 for 1 <= i <= n,
    d1 for 1 <= i <= n with d1_1 aliased to d2_1, d2 for 1 <= i <= p.
    Returns the new generator, or None when a component degenerates.
    """
    X, table, op_pairs = _loop_parts(space)
    x, w = gen
    p = X.dim(x)
    q = word_degree(space, w)
    n = p + q
    if eps not in (0, 1, 2):
        raise SimplicialError(f"face family {eps!r} not in (0, 1, 2)")
    top = p if eps == 2 else n
    if not 1 <= i <= top:
        raise SimplicialError(
            f"index {i} out of range 1..{top} for d{eps} on {format_loop_generator(gen)}"
        )
    fronts, backs = table.fronts[x], table.backs[x]
    if eps == 1 and i == 1 and p >= 1:
        eps = 2  # the first delete and the first rotation coincide
    if eps == 0:
        if i <= p:
            f, b = fronts[i - 1], backs[i - 1]
            if f is None or b is None:
                return None
            return (f, reduce_word((b,) + w, op_pairs))
        return _with_word(x, _word_cube_face(table, op_pairs, w, i - p, split=True))
    if eps == 1:
        if i <= p:
            g = table.faces[x][i - 1]
            return None if g is None else (g, w)
        return _with_word(x, _word_cube_face(table, op_pairs, w, i - p, split=False))
    f, b = fronts[i], backs[i]
    if f is None or b is None:
        return None
    return (b, reduce_word(w + (f,), op_pairs))


def _with_word(x, w):
    return None if w is None else (x, w)


def necklical_differential(space, gen, ring=ZZ):
    """The face-operator differential

        sum_{i=1}^{n} (-1)^i (d0_i - d1_i) + sum_{i=2}^{p} (-1)^{(i-1) n} d2_i

    with degenerate faces dropped.  Computed entirely from necklical_face;
    no coproduct formula enters, which is what makes the term-by-term
    comparison against cohoch_differential a real cross-check.
    """
    x, w = gen
    p = _loop_parts(space)[0].dim(x)
    n = p + word_degree(space, w)
    out = Chain(ring)
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        g0 = necklical_face(space, 0, i, gen)
        if g0 is not None:
            out.add(g0, sign)
        g1 = necklical_face(space, 1, i, gen)
        if g1 is not None:
            out.add(g1, -sign)
    for i in range(2, p + 1):
        g2 = necklical_face(space, 2, i, gen)
        if g2 is not None:
            out.add(g2, (-1) ** ((i - 1) * n))
    return out


# ---------------------------------------------------------------------------
# Hochschild complex of the cobar algebra


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
    b = tuple(tuple(a) for a in b)
    u = tuple(u)
    out = Chain(ring)
    deg_b = bar_degree(algebra, b)
    sign = (-1) ** deg_b
    for du, c in algebra.differential(u).items():
        out.add((b, du), sign * c)
    for db, c in bar_differential(algebra, b, ring).terms.items():
        out.add((db, u), c)
    if b:
        n = len(b)
        degs = [algebra.degree(a) for a in b]
        eps_n = sum(degs) + n
        eps_prev = sum(degs[:-1]) + (n - 1)
        a1, an = b[0], b[-1]
        e1 = degs[0] * (algebra.degree(u) + eps_n + degs[0] + 1)
        out.add((b[1:], algebra.multiply(u, a1)), -((-1) ** e1))
        out.add((b[:-1], algebra.multiply(an, u)), (-1) ** eps_prev)
    return out


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

    def diff(g):
        return hochschild_differential(algebra, g).terms

    return _close_and_build(seeds, diff, max_degree, truncated_at=truncated_at)


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

    def diff(g):
        return cohoch_differential(space, g, hat=hat).terms

    return _close_and_build(seeds, diff, max_degree, truncated_at=truncated_at)


# ---------------------------------------------------------------------------
# Comparison maps: chi, phi, eta, and the local contraction


def chi(space, a, u, ring=ZZ, variant=DEFAULT_CHI_VARIANT):
    """Cyclic rotation map on a pair of cobar words, landing in
    (letter) tensor (word): the i-th term extracts letter a_i and rotates
    the head block behind the module word,

        a (x) u  |-->  sum_i (+-) a_i (x) a_{i+1}..a_n u a_1..a_{i-1}.

    Three sign candidates are implemented.  "index-low" and "index-high" read
    the product-form exponent (|a_s|+...+|a_n|+n+i)(|u|+|a_1|+...+|a_i|+i)
    with s = i-1 and s = i+1 respectively; "rotation" is the Koszul sign
    for carrying the head block a_1..a_{i-1} past letter, tail and module,
    all in shifted degrees.  The sweep in verify.select_chi_variant keeps
    only "rotation"; the others stay for the recorded comparison.
    """
    if variant not in CHI_VARIANTS:
        raise ValueError(f"unknown chi variant {variant!r}")
    _, table, op_pairs = _loop_parts(space)
    a = tuple(a)
    u = tuple(u)
    out = Chain(ring)
    n = len(a)
    if n == 0:
        return out
    if n == 1:
        out.add((a[0], u), 1)
        return out
    degs = [table.dim[letter] for letter in a]
    deg_u = word_degree(space, u)
    for i in range(1, n + 1):
        if variant == "rotation":
            head = sum(d - 1 for d in degs[: i - 1])
            rest = (degs[i - 1] - 1) + sum(d - 1 for d in degs[i:]) + deg_u
            e = head * rest
        else:
            start = (i - 1) if variant == "index-low" else (i + 1)
            tail = sum(degs[k - 1] for k in range(max(start, 1), n + 1))
            e = (tail + n + i) * (deg_u + sum(degs[:i]) + i)
        word = reduce_word(a[i:] + u + a[: i - 1], op_pairs)
        out.add((a[i - 1], word), (-1) ** e)
    return out


def phi(space, gen, ring=ZZ, variant=DEFAULT_CHI_VARIANT):
    """Projection Hoch(cobar) -> free-loop complex: empty bar words return
    the basepoint tensor the word, single bar letters go through chi with
    the orientation matching the wrap-term convention, longer ones die."""
    b, u = gen
    out = Chain(ring)
    if len(b) == 0:
        out.add((_loop_parts(space)[0].basepoint, tuple(u)), 1)
    elif len(b) == 1:
        for (letter, word), c in chi(space, b[0], u, ring, variant).terms.items():
            out.add((letter, word), -c)
    return out


def phi_chain(space, chain, ring=ZZ, variant=DEFAULT_CHI_VARIANT):
    out = Chain(ring)
    for gen, c in chain.terms.items():
        out.add_chain(phi(space, gen, ring, variant), c)
    return out


def eta(space, x):
    """Coalgebra section C -> B(cobar C): the sum of all iterated reduced
    coproducts of x, each tensor factor a single-letter bar letter.
    Conilpotency (factor dimensions strictly drop) makes the sum finite."""
    X, table, _ = _loop_parts(space)
    if X.dim(x) < 1:
        raise SimplicialError(
            f"{x!r} has dimension 0: not an element of the reduced coalgebra"
        )
    out = Chain(ZZ)
    level = [(x,)]
    while level:
        for parts in level:
            out.add(tuple((c,) for c in parts), 1)
        nxt = []
        for parts in level:
            for f, b in table.aw_pairs[parts[0]][1:-1]:
                nxt.append((f, b) + parts[1:])
        level = nxt
    return out


def in_rho_kernel(barword):
    """Whether a bar word dies under the projection B(cobar C) -> C."""
    b = tuple(tuple(a) for a in barword)
    if len(b) == 0:
        return False
    return len(b) >= 2 or len(b[0]) != 1


def contraction_s(space, barword, ring=ZZ):
    """Local contraction on ker(rho): split the leading cobar letter off
    the first bar letter; zero when that letter is already a single.

    The split carries the sign (-1)^{deg of the split-off letter} (shifted
    degree); the sweep over sign conventions shows this is the only choice
    making (sd + ds - id) nilpotent on kernel elements.
    """
    algebra = space if isinstance(space, CobarAlgebra) else CobarAlgebra(space)
    b = tuple(tuple(a) for a in barword)
    if not in_rho_kernel(b):
        raise SimplicialError(
            f"contraction is only defined on the kernel of the projection; "
            f"got {b!r}"
        )
    out = Chain(ring)
    first = b[0]
    if len(first) == 1:
        return out
    e = algebra.degree(first[:1]) % 2
    out.add(((first[0],), first[1:]) + b[1:], (-1) ** e)
    return out


def contraction_s_chain(space, chain, ring=ZZ):
    out = Chain(ring)
    for key, c in chain.terms.items():
        out.add_chain(contraction_s(space, key, ring), c)
    return out


# ---------------------------------------------------------------------------
# The chain-map sweep that pins the chi sign


def phi_slice_mismatches(space, variants, hoch_slice, loop_slice):
    """Generators of a Hochschild slice on which phi fails to commute with
    the differentials, as ``{variant: [generator, ...]}`` in basis order
    for each chi reading in ``variants``.

    Both sides are read off the stored matrices, over the free-loop basis
    one degree down: phi(d g) combines the images under phi of the rows of
    g's d_n column in ``hoch_slice``, d phi(g) the ``loop_slice`` columns
    of the keys of phi(g).  phi is taken once per generator and reading and
    kept for one degree.  A generator whose phi has a key outside the
    free-loop basis of its degree is a mismatch, and so is every generator
    whose differential reaches it.
    """
    bad = {v: [] for v in variants}
    below = {}  # images of the previous degree; d_n has rows only if it was n - 1
    for n in hoch_slice.degrees():
        gens = hoch_slice.bases[n]
        here = {
            v: [loop_slice.coordinates(phi(space, g, variant=v), n) for g in gens]
            for v in variants
        }
        loop_cols = loop_slice.differential(n).columns
        hoch_cols = hoch_slice.differential(n).columns
        for v in variants:
            for gen, col, image in zip(gens, hoch_cols, here[v]):
                lhs = _combination(col, below.get(v))
                rhs = None if image is None else _combination(image, loop_cols)
                if lhs is None or rhs is None or lhs != rhs:
                    bad[v].append(gen)
        below = here
    return bad


def _combination(coefficients, columns):
    """The nonzero entries of sum c * columns[j] over (j, c) in coefficients;
    None if one of those columns is None."""
    out = {}
    for j, c in coefficients.items():
        column = columns[j]
        if column is None:
            return None
        for i, e in column.items():
            out[i] = out.get(i, 0) + c * e
    return {i: e for i, e in out.items() if e}


def chi_chain_map_mismatches(space, variants, max_degree):
    """Generators of Hoch(cobar) of a 1-reduced space on which phi fails to
    commute with the differentials, as ``{variant: [generator, ...]}`` in
    basis order for each chi reading in ``variants``.  Builds the
    Hochschild and free-loop slices through max_degree, so each
    differential is taken once per generator, and checks every reading on
    them with phi_slice_mismatches."""
    return phi_slice_mismatches(
        space,
        variants,
        hochschild_slice(space, max_degree),
        cohoch_slice(space, max_degree),
    )
