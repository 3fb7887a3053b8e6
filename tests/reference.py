"""Reference implementations: the oracles of the package's fast paths.

These are the earlier, term-by-term forms of the word-model differentials
and comparison maps.  Each adds every term into a Chain one ``add`` call at
a time, reads faces, fronts and backs from the SimplexTable's raw face data
(not from its per-letter rules, signs or shifted degrees), and freely
reduces every new word by a full rescan with ``reduce_word`` (not at the
seams).  The recursive generator sort key is the order oracle of the flat
keys each seed enumerator's order follows, the depth-first word
enumerators, which sort what they find, are the oracles of the
level-by-level word walk, and the two-pass slice builder, which takes
every differential of a degree before it re-keys any, is the oracle of
the streaming one.  The right-looking unit elimination over row dicts,
with a heap of rows by length, is the oracle of the left-looking
unit-pivot kernel; the general pivot loop built for whole matrices
(minimal value, then minimal fill, over a column index of sets) and its
repeated divisibility repair are the oracles of the short loop on the
cleared residual and of its one-pass repair.  The helpers only tests call (phi summed over a chain, the
freehedral label grammar, JSON lines read back into a summary, a chain's
coefficient, the word product, a letter's inverse) live here too, as do
the closed-form count HH_*(T V) that the exact windows of a wedge of
spheres are checked against and one such wedge, Delta^4 with its
1-skeleton collapsed; ``fixture`` reads the built-ins and the JSON
fixtures beside this file.  Tests assert that the package agrees with
all of them.
"""

import heapq
import itertools
import json
from math import gcd
from pathlib import Path

from loophomology.cobar import reduce_word
from loophomology.homalg import ComplexSlice, HomologyEntry, HomologySummary
from loophomology.linalg import ZZ, Chain, SparseIntMatrix, _nearest_quotient
from loophomology.presentation import (
    FormalSimplex,
    OpExtension,
    SimplicialError,
    SimplicialSetPresentation,
    nondeg,
)
from loophomology.simplicial import BUILTIN_NAMES, builtin_space, presentation_from_json

CHI_VARIANTS = ("index-low", "index-high", "rotation")


def _generator_sort_key(g):
    # Nested tuples whose leaves are strings, shorter tuples first.
    return g if type(g) is str else (len(g), tuple(map(_generator_sort_key, g)))


def _word_key(w):
    # flat sort key of a word: shorter first, then letter by letter
    return len(w), w


def _hochschild_key(gen):
    # flat sort key of a Hochschild generator (bar word, word)
    b, u = gen
    return len(b), tuple(map(_word_key, b)), len(u), u


def _loop_key(gen):
    # flat sort key of a loop generator (x, w): by x, then as a word
    x, w = gen
    return x, len(w), w


def close_and_build(recipe, max_degree):
    """The two-pass slice builder: each degree's differentials are all
    taken before the first is re-keyed, and a column naming a generator
    the seeds lack makes the row basis the seeds followed by the keys of
    the columns not yet re-keyed, in first-seen order.  The columns
    before it name seeds only, so they keep their rows."""
    seeds, diff_fn, truncated_at = recipe[:3]
    bases, diffs = {}, {}
    gens = seeds(max_degree)
    for n in range(max_degree, 0, -1):
        columns = [diff_fn(g) for g in gens]
        rows = seeds(n - 1)
        if gens:
            row_index = {g: i for i, g in enumerate(rows)}
            for j, dg in enumerate(columns):
                try:
                    columns[j] = {row_index[k]: c for k, c in dg.items()}
                except KeyError:
                    rows = list(dict.fromkeys(itertools.chain(rows, *columns[j:])))
                    row_index = {g: i for i, g in enumerate(rows)}
                    columns[j] = {row_index[k]: c for k, c in dg.items()}
            bases[n] = gens
            diffs[n] = SparseIntMatrix(len(rows), columns)
        gens = rows
    if gens:
        bases[0] = gens
    return ComplexSlice(bases, diffs, truncated_at, built_through=max_degree)


def coordinates(sl, chain, n):
    """A degree-n chain as {basis index: coefficient}, the form of a stored
    column of the slice; None if one of its keys is not in its bases[n]."""
    index = sl.basis_index(n)
    if not all(key in index for key in chain.terms):
        return None
    return {index[key]: c for key, c in chain.terms.items()}


def _letters(space):
    return space, space.op_pairs


def _loop_parts(space):
    return space.underlying, space.table, space.op_pairs


def word_degree(space, w):
    dim = _letters(space)[0].table.dim
    return sum(dim[a] - 1 for a in w)


# ---------------------------------------------------------------------------
# cobar, bar and Hochschild


def cobar_terms(space, w, hat):
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


def cobar_differential(space, w, ring=ZZ, hat=None):
    if hat is None:
        hat = isinstance(space, OpExtension)
    out = Chain(ring)
    for key, c in cobar_terms(space, tuple(w), hat).items():
        out.add(key, c)
    return out


def bar_differential(algebra, barword, ring=ZZ):
    """d1 + d2 over the package's CobarAlgebra, read only for its space and
    hat flag; degrees, differentials and products are the references'."""
    space, hat = algebra.space, algebra.hat
    op_pairs = _letters(space)[1]
    w = tuple(tuple(a) for a in barword)
    if any(len(a) == 0 for a in w):
        raise SimplicialError("bar letters must be non-unit cobar words")
    out = Chain(ring)
    eps = 0
    for i, a in enumerate(w):
        for da, c in cobar_terms(space, a, hat).items():
            if da:
                out.add(w[:i] + (da,) + w[i + 1 :], -c * (-1) ** eps)
        eps += word_degree(space, a) + 1
        if i + 1 < len(w):
            prod = reduce_word(a + w[i + 1], op_pairs)
            if prod:
                out.add(w[:i] + (prod,) + w[i + 2 :], -((-1) ** eps))
    return out


def hochschild_differential(algebra, gen, ring=ZZ):
    space, hat = algebra.space, algebra.hat
    op_pairs = _letters(space)[1]
    b, u = gen
    b = tuple(tuple(a) for a in b)
    u = tuple(u)
    out = Chain(ring)
    degs = [word_degree(space, a) for a in b]
    sign = (-1) ** (sum(degs) + len(b))
    for du, c in cobar_terms(space, u, hat).items():
        out.add((b, du), sign * c)
    for db, c in bar_differential(algebra, b, ring).terms.items():
        out.add((db, u), c)
    if b:
        n = len(b)
        eps_n = sum(degs) + n
        eps_prev = sum(degs[:-1]) + (n - 1)
        a1, an = b[0], b[-1]
        e1 = degs[0] * (word_degree(space, u) + eps_n + degs[0] + 1)
        out.add((b[1:], reduce_word(u + a1, op_pairs)), -((-1) ** e1))
        out.add((b[:-1], reduce_word(an + u, op_pairs)), (-1) ** eps_prev)
    return out


# ---------------------------------------------------------------------------
# word bases, enumerated depth-first and then sorted


def cobar_basis(space, degree):
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

    extend([], degree)
    return sorted(words, key=_generator_sort_key)


def words_between(space, start, end, degree, max_word_length):
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
    return sorted(words, key=_generator_sort_key)


def hochschild_basis(algebra, degree, word_cap=None):
    X = algebra.space
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
        base = X.basepoint
        all_words = []
        for d in range(degree + 1):
            for w in words_between(algebra.space, base, base, d, word_cap):
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


# ---------------------------------------------------------------------------
# the free-loop differentials


def cohoch_differential(space, gen, ring=ZZ, hat=False):
    X, table, op_pairs = _loop_parts(space)
    x, w = gen
    p = X.dim(x)
    out = Chain(ring)
    for c, f in (table.inner_boundary if hat else table.boundary)[x]:
        out.add((f, w), c)
    sign = (-1) ** p
    for wkey, c in cobar_terms(space, w, hat).items():
        out.add((x, wkey), sign * c)
    eps = sum(table.dim[a] for a in w) + len(w)
    fronts, backs = table.fronts[x], table.backs[x]
    for j in range(p):
        f, b = fronts[j], backs[j]
        if f is not None and b is not None:
            out.add((f, reduce_word((b,) + w, op_pairs)), -((-1) ** j))
    for j in range(1, p + 1):
        f, b = fronts[j], backs[j]
        if f is not None and b is not None:
            out.add((b, reduce_word(w + (f,), op_pairs)), (-1) ** ((j + 1) * ((p - j) + eps)))
    return out


def _word_cube_face(table, op_pairs, w, j, split):
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


def _with_word(x, w):
    return None if w is None else (x, w)


def necklical_face(space, eps, i, gen):
    X, table, op_pairs = _loop_parts(space)
    x, w = gen
    p = X.dim(x)
    n = p + word_degree(space, w)
    top = p if eps == 2 else n
    if eps not in (0, 1, 2) or not 1 <= i <= top:
        raise SimplicialError(f"no face d{eps}_{i}")
    fronts, backs = table.fronts[x], table.backs[x]
    if eps == 1 and i == 1 and p >= 1:
        eps = 2
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


def necklical_differential(space, gen, ring=ZZ):
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
# chi and phi


def chi(space, a, u, ring=ZZ, variant="rotation"):
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


def phi(space, gen, ring=ZZ, variant="rotation"):
    b, u = gen
    out = Chain(ring)
    if len(b) == 0:
        out.add((_loop_parts(space)[0].basepoint, tuple(u)), 1)
    elif len(b) == 1:
        for (letter, word), c in chi(space, b[0], u, ring, variant).terms.items():
            out.add((letter, word), -c)
    return out


def phi_chain(space, chain, ring=ZZ, variant="rotation"):
    out = Chain(ring)
    for gen, c in chain.terms.items():
        out.add_chain(phi(space, gen, ring, variant), c)
    return out


# ---------------------------------------------------------------------------
# the chain-map sweep


def phi_slice_mismatches(space, variants, hoch_slice, loop_slice):
    """One walk per chi reading: phi(d g) and d phi(g) over the stored
    columns, with phi taken once per generator and reading, and a key
    outside the free-loop basis making the image None."""
    bad = {v: [] for v in variants}
    below = {}
    for n in hoch_slice.degrees():
        gens = hoch_slice.bases[n]
        here = {
            v: [coordinates(loop_slice, phi(space, g, variant=v), n) for g in gens]
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
    out = {}
    for j, c in coefficients.items():
        column = columns[j]
        if column is None:
            return None
        for i, e in column.items():
            out[i] = out.get(i, 0) + c * e
    return {i: e for i, e in out.items() if e}


# ---------------------------------------------------------------------------
# unit elimination over row dicts


def _row_dicts(matrix, p=None, block=None):
    """The nonzero rows of a matrix as {i: {j: v}}, entries reduced mod p;
    only the columns of ``block`` when one is given."""
    if isinstance(matrix, SparseIntMatrix):
        columns = matrix.columns
        pairs = (
            (i, j, v)
            for j in (range(matrix.ncols) if block is None else block)
            for i, v in columns[j].items()
        )
    else:
        pairs = ((i, j, v) for i, row in enumerate(matrix) for j, v in enumerate(row))
    rows = {}
    for i, j, v in pairs:
        if p is not None:
            v %= p
        if v:
            rows.setdefault(i, {})[j] = v
    return rows


def _eliminate_units(rows, p=None):
    """Pivot on units until none is left; returns the number of pivots.

    Units are +-1 over Z (p None) and every nonzero entry mod p.  The
    shortest live row goes first, and within it the unit whose column has
    the fewest entries (ties by index).  Each pivot clears its column from
    the other rows, then its row and column are dropped: over Z this splits
    off an invariant factor 1, so ``rows`` is left holding a matrix with
    the remaining invariant factors.  Rows are reduced in place.
    """
    col_index = {}
    for i, r in rows.items():
        for j in r:
            col_index.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        length, pi = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or len(prow) != length:
            continue  # stale: the row was dropped or re-queued with a new length
        units = [j for j, v in prow.items() if p is not None or v in (1, -1)]
        if not units:
            continue  # re-queued if a later pivot changes the row
        pj = min(units, key=lambda j: (len(col_index[j]), j))
        # +-1 is its own inverse over Z
        inv = prow[pj] if p is None else pow(prow[pj], -1, p)
        for i in col_index[pj] - {pi}:
            row = rows[i]
            q = row[pj] * inv
            for j, v in prow.items():
                w = row.get(j, 0) - q * v
                if p is not None:
                    w %= p
                if w:
                    if j not in row:
                        col_index[j].add(i)
                    row[j] = w
                elif j in row:
                    del row[j]
                    col_index[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del rows[i]
        for j in prow:
            col_index[j].discard(pi)
            if not col_index[j]:
                del col_index[j]
        del rows[pi]
        pivots += 1
    return pivots


# ---------------------------------------------------------------------------
# the general pivot loop over row dicts


def _snf_rows(rows):
    """Invariant factors and rank of the matrix held in ``rows``.

    Pivots are chosen by minimal absolute value, then minimal fill, so the
    reduction is deterministic and coefficient growth stays tame.  Consumes
    ``rows``.
    """
    rows = {i: r for i, r in rows.items() if r}
    col_index = {}
    for i, r in rows.items():
        for j in r:
            col_index.setdefault(j, set()).add(i)

    def drop_entry(i, j):
        del rows[i][j]
        col_index[j].discard(i)
        if not col_index[j]:
            del col_index[j]
        if not rows[i]:
            del rows[i]

    def set_entry(i, j, v):
        if v:
            if j not in rows.setdefault(i, {}):
                col_index.setdefault(j, set()).add(i)
            rows[i][j] = v
        elif i in rows and j in rows[i]:
            drop_entry(i, j)

    diagonal = []
    while rows:
        # Deterministic pivot: minimal |value|, then minimal fill, then
        # position; a unit pivot with no fill ends the scan early.
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                key = (abs(v), (len(r) - 1) * (len(col_index[j]) - 1), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
            if best[0][0] == 1 and best[0][1] == 0:
                break
        _, pi, pj = best
        # Clear the pivot column, then the pivot row; a surviving remainder
        # hands the pivot to a strictly smaller entry, so this terminates.
        while True:
            pv = rows[pi][pj]
            others_col = [i for i in col_index[pj] if i != pi]
            if others_col:
                for i in others_col:
                    a = rows[i][pj]
                    q = _nearest_quotient(a, pv)
                    if q:
                        for j, v in list(rows[pi].items()):
                            set_entry(i, j, rows.get(i, {}).get(j, 0) - q * v)
                leftovers = [i for i in col_index.get(pj, set()) if i != pi]
                if leftovers:
                    pi = min(leftovers, key=lambda i: (abs(rows[i][pj]), i))
                continue
            others_row = [j for j in rows[pi] if j != pj]
            if others_row:
                # The pivot column is zero outside the pivot row now, so the
                # column operation col_j -= q * col_pj only touches row pi.
                for j in others_row:
                    a = rows[pi][j]
                    q = _nearest_quotient(a, pv)
                    set_entry(pi, j, a - q * pv)
                leftovers = [j for j in rows.get(pi, {}) if j != pj]
                if leftovers:
                    pj = min(leftovers, key=lambda j: (abs(rows[pi][j]), j))
                continue
            break
        diagonal.append(abs(rows[pi][pj]))
        drop_entry(pi, pj)

    return _divisibility_chain([d for d in diagonal if d])


def _divisibility_chain(factors):
    """Sorted invariant factors of diag(factors): the pairwise repair
    diag(a, b) ~ diag(gcd, lcm) until each factor divides the next."""
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    g = gcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    changed = True
    factors.sort()
    return factors, len(factors)


# ---------------------------------------------------------------------------
# closed forms


def tensor_algebra_hochschild(letters, max_degree, ring=ZZ, letter_degree=1):
    """HH_0 .. HH_max_degree of the tensor algebra T V over ``ring``, V free
    on ``letters`` generators, as HomologyEntry values: the free-loop
    homology of a wedge of spheres, one (|a| + 1)-sphere per letter a, a
    suspension, when its chain coalgebra is formal over Z (measured, not
    proved).  ``letters`` is a number of letters, each of degree
    ``letter_degree``, or a sequence of degrees, one per letter.

    The two-term resolution of T V gives, on the span of the words of
    degree n, b_n = 1 - t, with t the signed cyclic shift: moving a letter
    a from the front to the back of a word of degree n carries the Koszul
    sign (-1)^(|a|(n-|a|)).  coker b_n lies in H_n and ker b_n in H_(n+1).
    An orbit of t of primitive period p gives Z to both when the product
    of the signs over one period is 1, and Z/2 to H_n alone otherwise;
    H_0 = Z.  With every letter of degree d that product is
    (-1)^(d(m-1)p) on words of length m.  Over a field, universal
    coefficients make each Z/2 an F2 in its degree and in the next.
    """
    degrees = [letter_degree] * letters if isinstance(letters, int) else list(letters)
    free = [1] + [0] * (max_degree + 1)
    twos = [0] * (max_degree + 1)
    for m in range(1, max_degree // min(degrees) + 1):
        for word in itertools.product(range(len(degrees)), repeat=m):
            n = sum(degrees[a] for a in word)
            rotations = [word[i:] + word[:i] for i in range(1, m + 1)]
            if n > max_degree or word != min(rotations):
                continue  # one word per orbit, of degree in the window
            period = rotations.index(word) + 1
            if sum(degrees[a] * (n - degrees[a]) for a in word[:period]) % 2:
                twos[n] += 1
            else:
                free[n] += 1
                free[n + 1] += 1
    if ring.kind == "Z":
        return [HomologyEntry(n, free[n], (2,) * twos[n]) for n in range(max_degree + 1)]
    if ring.p != 2:
        return [HomologyEntry(n, free[n]) for n in range(max_degree + 1)]
    return [
        HomologyEntry(n, free[n] + twos[n] + (n and twos[n - 1]))
        for n in range(max_degree + 1)
    ]


def fixture(name):
    """A built-in space by name, or the presentation in tests/<name>.json."""
    if name in BUILTIN_NAMES:
        return builtin_space(name)
    path = Path(__file__).with_name(f"{name}.json")
    return presentation_from_json(path.read_text(encoding="utf-8"), str(path))


def collapsed_simplex(n):
    """Delta^n with its 1-skeleton collapsed to the vertex v: 1-reduced, a
    wedge of (n choose 2) 2-spheres.  From n = 4 on, a letter's cobar rule
    splits it into two letters (the 2-faces 012 and 234 of 01234), which
    no built-in does."""
    simplices, faces = {0: ["v"]}, {}
    for d in range(2, n + 1):
        simplices[d] = ["".join(map(str, c)) for c in itertools.combinations(range(n + 1), d + 1)]
        for s in simplices[d]:
            for i in range(d + 1):
                faces[s, i] = FormalSimplex((0,), "v") if d == 2 else nondeg(s[:i] + s[i + 1 :])
    return SimplicialSetPresentation(f"collapsed-delta{n}", "v", simplices, faces)


# ---------------------------------------------------------------------------
# freehedral labels


def validate_label(label, n):
    """Check the block grammar of a freehedral label inside F_n; raises
    ValueError on failure."""
    blocks = (label.f_block,) + label.cube_blocks
    if len(label.f_block) < 1 or any(len(b) < 2 for b in label.cube_blocks):
        raise ValueError(f"{label}: malformed blocks")
    wraps = 0
    for k, block in enumerate(blocks):
        if any(x < 0 or x > n for x in block):
            raise ValueError(f"{label}: entries escape 0..{n}")
        if any(block[t] >= block[t + 1] for t in range(len(block) - 1)):
            raise ValueError(f"{label}: block {block} is not increasing")
        nxt = blocks[(k + 1) % len(blocks)]
        if block[-1] == n and nxt[0] == 0:
            wraps += 1
        elif block[-1] != nxt[0]:
            raise ValueError(f"{label}: blocks {block} and {nxt} do not chain")
    if wraps != 1:
        raise ValueError(f"{label}: expected exactly one n->0 wrap, saw {wraps}")


# ---------------------------------------------------------------------------
# helpers only tests call


def coefficient(chain, key):
    """The coefficient of a key in a Chain, 0 where it is absent."""
    return chain.terms.get(key, 0)


def multiply(algebra, u, v):
    """The product of two reduced words of a CobarAlgebra: their reduced
    concatenation."""
    return reduce_word(tuple(u) + tuple(v), algebra.op_pairs)


def op(space, simplex_id):
    """The formal inverse of a 1-simplex of an OpExtension, None for any
    other simplex."""
    return space.op_pairs.get(simplex_id)


def parse_json_lines(text):
    """The HomologySummary written as JSON lines by to_json_lines."""
    entries = []
    truncated_at = None
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        truncated_at = record.get("truncated_at", truncated_at)
        entries.append(
            HomologyEntry(record["degree"], record["free_rank"], record["torsion"])
        )
    return HomologySummary(entries, truncated_at=truncated_at)


def summary_entry(summary, degree):
    """A summary's entry in one degree; a degree it lacks is zero."""
    for e in summary.entries:
        if e.degree == degree:
            return e
    return HomologyEntry(degree, 0)
