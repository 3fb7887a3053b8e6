"""Exact sparse linear algebra over Z, Q and F_p, chain-complex slices,
and homology via Smith normal form.

All matrices carry exact integer entries; the coefficient ring only enters
when homology is extracted.  A differential sums its terms into one plain
dict and becomes a Chain once: the chain takes the dict over, normalizes
it mod p and drops the zero sums in place.  A matrix is stored as its
columns, one {row: value} dict per generator, which is how a differential
is computed and how every reader wants it.  One builder loop owns
generator order: it walks the degrees top-down or bottom-up and re-keys
each kernel's dict into an index column as soon as it is taken, so it
holds one raw column at a time.  Each complex is a recipe (seeds by
degree, differential, cap; an exact window may add a coboundary kernel).
A matrix's rows are the next degree's seeds in the order they are
enumerated, followed by what a truncated window's columns name beyond
them, in the order the columns first name it; nothing is sorted.  The
loop stores a slice or feeds the homology pass, which reduces each
matrix as soon as it is built and clears.  Top-down, it never builds
d_n's column of a generator that leads a unit pivot of d_(n+1).
Bottom-up, through a coboundary kernel, it builds delta^n = d_(n+1)
transposed from n = 0, never builds delta^n's column of a generator that
leads a unit pivot of delta^(n-1), and builds the top delta as its
transpose, so the top basis is never enumerated.

The free loop space splits over free homotopy classes, so a differential
is block-diagonal up to permutation: each matrix (dense rows are made a
SparseIntMatrix once) finds its connected blocks once and is reduced
block by block.  One left-looking kernel takes a block's columns
shortest first and reduces each against the pivots so far, keyed by
leading (largest) row; a unit lead (+-1 over Z, any nonzero entry mod p)
makes a new pivot.  Over odd F_p the pivots count the rank.  Over Z a
column with any other lead joins a residual of a few columns or rows;
cleared against the unit pivots, it goes to a short Smith normal form
loop (least entry as pivot, clear its column, then its row), and one
gcd/lcm pass across blocks makes the divisibility chain.  F2 always
takes an XOR kernel on bit-packed columns, which does the same walk.  Q
reads its rank off the Z reduction, and each differential is reduced at
most once per slice and characteristic.
Everything is deterministic: bases are ordered lists and every reduction
uses a fixed pivot rule.
"""

from __future__ import annotations

import json
from array import array
from math import gcd


class IncompleteSliceError(ValueError):
    """A homology request needs a differential the slice does not carry."""


# ---------------------------------------------------------------------------
# Coefficient rings


class Ring:
    """Ground ring descriptor: Z, Q, or a prime field F_p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if p is not None and p >= _PRIME_LIMIT:
                raise ValueError(f"F_p moduli must be below {_PRIME_LIMIT}")
            if p is None or not _is_prime(p):
                raise ValueError(f"F_p requires a prime modulus, got {p!r}")
        elif p is not None:
            raise ValueError("modulus only makes sense for prime fields")
        self.kind = kind
        self.p = p

    @property
    def is_field(self):
        return self.kind != "Z"

    def normalize(self, c):
        """Canonical representative of an integer coefficient."""
        return c % self.p if self.kind == "Fp" else c

    def __eq__(self, other):
        return isinstance(other, Ring) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind


# Miller-Rabin on the primes up to 41 is exact below this bound (Sorenson
# and Webster, 2015); up to 37 it is not (318665857834031151167461).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _PRIME_LIMIT."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


ZZ = Ring("Z")
QQ = Ring("Q")


def prime_field(p):
    return Ring("Fp", p)


def parse_ring(text):
    """Parse a ring spec: "Z", "Q", or "F<p>" with p prime in ASCII digits."""
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("F") and text[1:].isascii() and text[1:].isdigit():
        return prime_field(int(text[1:]))
    raise ValueError(f"cannot parse ring {text!r} (expected Z, Q or F<p>)")


# ---------------------------------------------------------------------------
# Chains

def _nonzero(terms):
    # summed {key: coefficient} without its rare zero sums, for the kernels
    # that hand raw dicts to the builder; Chain drops them in place
    return terms if all(terms.values()) else {k: c for k, c in terms.items() if c}


class Chain:
    """Finite formal sum of generator keys with nonzero coefficients.

    Keys may be any totally ordered hashables; iteration is always sorted,
    so printed chains and derived matrices are reproducible.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        """A chain from {key: summed coefficient}, a dict the chain takes over
        and normalizes in place, or from (key, c) pairs whose keys may repeat;
        zero sums drop out."""
        self.ring = ring
        if not isinstance(terms, dict):
            summed = {}
            for key, c in terms or ():
                summed[key] = summed.get(key, 0) + c
            terms = summed
        if ring.p:
            for key, c in terms.items():
                terms[key] = c % ring.p
        if not all(terms.values()):  # zero sums are rare; this scan runs in C
            for key in [key for key, c in terms.items() if not c]:
                del terms[key]
        self.terms = terms

    def add(self, key, c):
        c = self.ring.normalize(c + self.terms.get(key, 0))
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)
        return self

    def add_chain(self, other, scale=1):
        for key, c in other.terms.items():
            self.add(key, scale * c)
        return self

    def items(self):
        return sorted(self.terms.items())

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None  # chains are mutable accumulators

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key, c in self.items():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign} {coef}{key}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else text


# ---------------------------------------------------------------------------
# Sparse integer matrices


class SparseIntMatrix:
    """Sparse matrix with exact integer entries, stored as its columns.

    ``columns[j]`` is ``{row: nonzero value}``; ``ncols`` is the number of
    columns and ``nnz`` is counted once, at construction.  Immutable by
    convention.
    """

    __slots__ = ("nrows", "ncols", "columns", "nnz", "_blocks")

    def __init__(self, nrows, columns):
        self.nrows = nrows
        self.columns = columns
        self.ncols = len(columns)
        self.nnz = sum(map(len, columns))
        self._blocks = None

    @property
    def blocks(self):
        """The nonzero columns grouped by connected component of the
        row-column support: arrays of column indices, ordered by their first
        column.  Found once, by union-find over the rows, for every ring."""
        if self._blocks is None:
            parent = list(range(self.nrows))

            def find(i):
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                return i

            for col in filter(None, self.columns):
                rows = iter(col)
                root = find(next(rows))
                for i in rows:
                    parent[find(i)] = root
            groups = {}
            for j, col in enumerate(self.columns):
                if col:
                    groups.setdefault(find(next(iter(col))), array("l")).append(j)
            self._blocks = list(groups.values())
        return self._blocks

    @property
    def entries(self):
        """``{(i, j): v}``, derived from the columns on each read.  The
        package itself reads only columns; this view is for tools outside
        it, such as the benchmark's tracer, which reads it after a run."""
        return {
            (i, j): v for j, col in enumerate(self.columns) for i, v in col.items()
        }

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# Smith normal form and ranks


def _nearest_quotient(a, v):
    # Quotient q with |a - q v| <= |v| / 2: keeps entries small during SNF.
    q, r = divmod(a, v)
    if 2 * abs(r) > abs(v):
        q += 1
    return q


def _unit_pivots(columns, p=None):
    """Split the unit pivots off a block's columns, left-looking.

    Columns go shortest first.  Each is reduced against the pivots so far,
    keyed by their leading row, the largest row index, until its leading
    row is free.  Over F_p (p given) every lead is a unit, so the column
    becomes a pivot scaled to lead 1; over Z a +-1 lead makes a pivot and
    any other lead sends the column to the residual.  Pivots with unit
    leads at distinct rows span a direct summand, so once each residual
    column is cleared against them, in descending pivot row, the block's
    invariant factors are one 1 per pivot followed by those of the
    residual on the other rows.  Returns the pivots as {leading row:
    column} and the residual as {row: {column: value}}, empty over F_p.
    """
    pivots, residual = {}, []
    for col in sorted(columns, key=len):
        col = {i: v % p for i, v in col.items() if v % p} if p else dict(col)
        while col and (lead := max(col)) in pivots:
            pivot = pivots[lead]
            q = col[lead] * pivot[lead]  # a pivot's lead is its own inverse
            for i, v in pivot.items():
                w = col.get(i, 0) - q * v
                if p:
                    w %= p
                if w:
                    col[i] = w
                else:
                    del col[i]
        if not col:
            continue
        v = col[lead]
        if p:
            inv = pow(v, -1, p)
            pivots[lead] = {i: w * inv % p for i, w in col.items()}
        elif v in (1, -1):
            pivots[lead] = col
        else:
            residual.append(col)
    rows = {}
    for j, col in enumerate(residual):
        # a pivot reaches only rows at or below its lead, so clearing the
        # highest pivot row first never refills a row already cleared
        while (lead := max((i for i in col if i in pivots), default=None)) is not None:
            pivot = pivots[lead]
            q = col[lead] * pivot[lead]
            for i, v in pivot.items():
                w = col.get(i, 0) - q * v
                if w:
                    col[i] = w
                else:
                    del col[i]
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    return pivots, rows


def _snf_rows(rows):
    """The diagonal, in absolute values, that the matrix held in ``rows``,
    as {row: {column: value}}, reduces to; consumes ``rows``.  Its
    _divisibility_chain is the invariant factors and rank.

    The pivot is an entry of least absolute value, ties broken by position.
    Row operations clear its column, then column operations clear its row,
    each by the nearest quotient; a nonzero remainder is smaller than the
    pivot and becomes the pivot, so each round ends.
    """
    diagonal = []
    while pivot := min(
        ((abs(v), i, j) for i, r in rows.items() for j, v in r.items()), default=None
    ):
        _, pi, pj = pivot
        while True:
            prow = rows[pi]
            pv = prow[pj]
            left = []
            for i, r in rows.items():
                if i != pi and pj in r:
                    q = _nearest_quotient(r[pj], pv)
                    if q:  # 0 if r[pj] is under half a pivot that has moved
                        for j, v in prow.items():
                            w = r.get(j, 0) - q * v
                            if w:
                                r[j] = w
                            else:
                                del r[j]
                    if pj in r:
                        left.append((abs(r[pj]), i))
            if left:
                pi = min(left)[1]
                continue
            # column pj is zero off row pi: column operations change row pi
            for j, a in list(prow.items()):
                if j != pj:
                    w = a - _nearest_quotient(a, pv) * pv
                    if w:
                        prow[j] = w
                        left.append((abs(w), j))
                    else:
                        del prow[j]
            if not left:
                break
            pj = min(left)[1]
        diagonal.append(abs(pv))
        del rows[pi]
    return diagonal


def _divisibility_chain(factors):
    """Invariant factors of diag(factors), ascending: the pairwise repair
    diag(a, b) ~ diag(gcd, lcm) in one pass over the pairs (i, j), i < j.
    After pair (i, j) f_i divides f_j, and later pairs keep that."""
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[j] = g, a * b // g
    return factors, len(factors)


def _sparse(matrix):
    """A SparseIntMatrix as it is, or one made once from a list of dense rows."""
    if isinstance(matrix, SparseIntMatrix):
        return matrix
    columns = [{i: v for i, v in enumerate(col) if v} for col in zip(*matrix)]
    return SparseIntMatrix(len(matrix), columns)


def smith_normal_form(matrix):
    """Invariant factors and rank of an integer matrix.

    Accepts a SparseIntMatrix or a list of dense rows, which is made sparse
    once.  Returns ``(factors, rank)`` where factors is the full
    divisibility chain d1 | d2 | ... | d_rank (units included, all
    positive).  Block by block, _unit_pivots splits off one factor 1 per
    unit pivot, and the short pivot loop of _snf_rows takes the cleared
    residual; its diagonal entries above 1, from all blocks, are brought
    into one chain at the end.
    """
    return _reduce(_sparse(matrix))[:2]


def _rank_f2(columns, block):
    """Leading rows of the F2 pivots of a block's columns, by a
    left-looking XOR kernel: a column's odd entries are bits, its rows
    numbered in first-seen order, and it is reduced against the pivots so
    far, keyed by their top bit."""
    bits, pivots = {}, {}
    for j in block:
        c = 0
        for i, v in columns[j].items():
            if v & 1:
                c |= 1 << bits.setdefault(i, len(bits))
        while c:
            top = c.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = c
                break
            c ^= pivot
    rows = list(bits)  # bit -> row
    return [rows[top - 1] for top in pivots]


def rank_mod_p(matrix, p):
    """Rank over F_p of a SparseIntMatrix or a list of dense rows, which is
    made sparse once.  Block by block, F2 takes the XOR kernel of _rank_f2
    and odd p counts the pivots of _unit_pivots mod p, where every nonzero
    entry is a unit."""
    return _reduce(_sparse(matrix), p)[1]


def _reduce(matrix, p=None):
    """(invariant factors, rank, leading rows of the unit pivots) of a
    SparseIntMatrix over Z (p None) or F_p, where the factors are []."""
    columns = matrix.columns
    leads, factors = [], []
    for block in matrix.blocks:
        if p == 2:
            leads += _rank_f2(columns, block)
            continue
        pivots, residual = _unit_pivots([columns[j] for j in block], p)
        leads += pivots
        factors += _snf_rows(residual)
        del pivots  # the next block's pivots start from nothing
    if p:
        return [], len(leads), leads
    chain, rank = _divisibility_chain([d for d in factors if d > 1])
    units = len(leads) + len(factors) - rank
    return [1] * units + chain, units + rank, leads


# ---------------------------------------------------------------------------
# Complex slices and homology


class ComplexSlice:
    """A finite window of a chain complex.

    bases[n] is the ordered generator list in degree n and diffs[n] the
    matrix of d_n with rows indexed by bases[n-1] and columns by bases[n]:
    ``diffs[n].columns[j]`` is d of ``bases[n][j]`` as {row index:
    coefficient}.  The package builds slices with _close_and_build,
    top-down, which records the degree it built through as
    ``built_through``: nothing above it is known, so d_n for n above it
    is missing.  In a slice made by hand (``built_through`` None) degrees
    absent from ``bases`` are zero modules.
    """

    def __init__(self, bases, diffs, truncated_at=None, built_through=None):
        self.bases = {n: tuple(b) for n, b in bases.items()}
        self.index = {}  # degree -> {generator: position}, built on first use
        self.diffs = dict(diffs)
        self.truncated_at = truncated_at
        self.built_through = built_through
        # (degree, p) -> (invariant factors, rank) of d_n; p is None over Z and Q
        self.reductions = {}
        for n, mat in self.diffs.items():
            expect_rows = len(self.bases.get(n - 1, ()))
            expect_cols = len(self.bases.get(n, ()))
            if (mat.nrows, mat.ncols) != (expect_rows, expect_cols):
                raise ValueError(
                    f"differential at degree {n} has shape "
                    f"{mat.nrows}x{mat.ncols}, bases demand {expect_rows}x{expect_cols}"
                )

    def degrees(self):
        return sorted(self.bases)

    def basis_index(self, n):
        """{generator: position in bases[n]}, built on first use."""
        index = self.index.get(n)
        if index is None:
            index = self.index[n] = {g: i for i, g in enumerate(self.bases.get(n, ()))}
        return index

    def differential(self, n):
        if n in self.diffs:
            return self.diffs[n]
        top = self.built_through
        if top is not None and n > top:
            raise IncompleteSliceError(
                f"no differential at degree {n}: the slice is built through degree {top}"
            )
        if self.bases.get(n) and self.bases.get(n - 1):
            raise IncompleteSliceError(f"no differential stored at degree {n}")
        return SparseIntMatrix(
            len(self.bases.get(n - 1, ())), [{} for _ in self.bases.get(n, ())]
        )


def _closed_degrees(seeds, kernel, degrees, sizes, bases=None, cleared=frozenset()):
    """Walk the range ``degrees`` a pair (n, m) of neighbours at a time,
    yielding (max(n, m), matrix): a column of kernel(g) per generator g of
    basis n, and basis m as rows.  Records each basis size in ``sizes``
    and returns the last basis.

    seeds(n) lists degree n's generators without repeats.  Top-down,
    kernel(g) is d(g) as a {generator: nonzero coefficient} dict and the
    matrix is d_n; bottom-up, it is an exact window's coboundary kernel
    and the matrix is delta^n = d_(n+1) transposed.  Each kernel(g) is
    re-keyed into a column as soon as it is taken, so one raw dict is
    alive at a time.  Basis m is seeds(m), enumerated one degree ahead,
    then what the columns name beyond them (a truncated window) in the
    order first named, so the matrices form an honest subcomplex.  Basis
    n goes into ``bases`` (a dict, if given) and is dropped.  Before it
    asks for the next matrix, the consumer may fill the set ``cleared``
    with rows of this one: the next has no column for those generators,
    and their kernels are never taken.
    """
    gens = seeds(degrees[0])
    for n, m in zip(degrees, degrees[1:]):
        # the last matrix's columns go before this one's are taken
        columns, row_index = [], {g: i for i, g in enumerate(seeds(m))}
        for j, g in enumerate(gens):
            if j not in cleared:
                columns.append(
                    {row_index.setdefault(k, len(row_index)): c for k, c in kernel(g).items()}
                )
        if bases is not None and gens:
            bases[n] = gens
        sizes[n], gens = len(gens), list(row_index)
        del row_index
        yield max(n, m), SparseIntMatrix(len(gens), columns)
    n = degrees[-1]
    sizes[n] = len(gens)
    if bases is not None and gens:
        bases[n] = gens
    return gens


def _coclosed_degrees(seeds, codiff_fn, top, sizes, cleared):
    """Yield (n + 1, delta^n) for n = 0 .. top: _closed_degrees over an
    exact recipe's coboundary kernel, codiff_fn(g) = {generator one degree
    up: nonzero coefficient of g in its d}, through delta^(top-1), then
    delta^top built straight into its transpose, a row per uncleared
    generator of basis top and a column per generator their coboundaries
    name, so seeds(top + 1) is never called."""
    gens = yield from _closed_degrees(seeds, codiff_fn, range(top + 1), sizes, cleared=cleared)
    index, columns, j = {}, [], 0
    for i, g in enumerate(gens):
        if i in cleared:
            continue
        for k, c in codiff_fn(g).items():
            col = index.setdefault(k, len(columns))
            if col == len(columns):
                columns.append({})
            columns[col][j] = c
        j += 1
    del gens, index
    yield top + 1, SparseIntMatrix(j, columns)


def _close_and_build(recipe, max_degree):
    """The ComplexSlice of a recipe (see homology_pass) through
    max_degree: every nonempty basis, and d_n wherever basis n is."""
    seeds, diff_fn, truncated_at, *_ = recipe
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, not {max_degree}")
    bases = {}
    built = _closed_degrees(seeds, diff_fn, range(max_degree, -1, -1), {}, bases)
    diffs = {n: d for n, d in built if n in bases}
    return ComplexSlice(bases, diffs, truncated_at, built_through=max_degree)


def homology_pass(recipe, max_degree, ring=ZZ):
    """H_0 .. H_max_degree of a recipe's complex over ``ring``, in one
    pass that reduces each matrix as soon as it is built (the kernels of
    homology_of_slice) and keeps only its factors, rank and sizes.  A
    recipe is (seeds, diff_fn, truncated_at[, codiff_fn]).  One loop,
    _closed_degrees, builds both orders: with an exact window's coboundary
    kernel codiff_fn bottom-up, delta^n = d_(n+1) transposed for n = 0 ..
    max_degree, and otherwise top-down, d_n for n = max_degree + 1 .. 1;
    in both, a matrix's rows are the next degree's seeds as enumerated.

    Clearing, top-down: a unit-lead pivot of d_(n+1) at row r is a
    boundary whose other entries lie below r in the kernel's order, so
    d_n of generator r is in the span of the columns below it, and d_n is
    built without it: its image, rank and invariant factors stay.  Over Z
    (and Q) the span is integral, so the rows d_n adopts stay too; mod p a
    row named only by multiples of p could go unadopted, so a truncated
    window clears nothing.  Bottom-up, transposed: a unit-lead pivot of
    delta^(n-1) at row r is a coboundary, so delta^n is built without
    generator r; an exact window adopts nothing, so this holds mod p too.
    """
    seeds, diff_fn, truncated_at, *codiff = recipe
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, not {max_degree}")
    clears = ring.p is None or truncated_at is None  # Z, Q or an exact window
    cleared, size, found = set(), {}, {0: ([], 0)}
    if codiff:
        degrees = _coclosed_degrees(seeds, *codiff, max_degree, size, cleared)
    else:
        degrees = _closed_degrees(
            seeds, diff_fn, range(max_degree + 1, -1, -1), size, cleared=cleared
        )
    for n, d in degrees:
        factors, rank, leads = _reduce(d, ring.p)
        found[n] = (factors, rank)
        del d  # the next matrix is built without this one alive
        cleared.clear()
        if clears:
            cleared.update(leads)
    return [
        _homology_entry(n, size[n], found[n + 1], found[n][1], ring)
        for n in range(max_degree + 1)
    ]


def check_d_squared(sl):
    """Generators whose image under d fails to die under the next d.

    Returns a list of (degree, generator) pairs; empty means every stored
    composite d_{n-1} d_n vanishes identically.  Exact for entries of any
    size.
    """
    bad = []
    for n in sl.degrees():
        dn = sl.diffs.get(n)
        dprev = sl.diffs.get(n - 1)
        if dn is None or dprev is None:
            continue
        prev_cols = dprev.columns
        for j, col in enumerate(dn.columns):
            image = {}
            for i, c in col.items():
                for k, v in prev_cols[i].items():
                    image[k] = image.get(k, 0) + c * v
            if any(image.values()):
                bad.append((n, sl.bases[n][j]))
    return bad


class HomologyEntry:
    __slots__ = ("degree", "free_rank", "torsion")

    def __init__(self, degree, free_rank, torsion=()):
        self.degree = degree
        self.free_rank = free_rank
        self.torsion = tuple(torsion)

    def as_dict(self):
        return {
            "degree": self.degree,
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
        }

    def group_text(self, ring=None):
        symbol = "Z" if ring is None or not ring.is_field else repr(ring)
        parts = []
        if self.free_rank == 1:
            parts.append(symbol)
        elif self.free_rank > 1:
            parts.append(f"{symbol}^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (
            isinstance(other, HomologyEntry)
            and (self.degree, self.free_rank, self.torsion)
            == (other.degree, other.free_rank, other.torsion)
        )

    def __repr__(self):
        return f"H_{self.degree} = {self.group_text()}"


def _reduction(sl, n, p):
    """(invariant factors, rank) of d_n over Z (p None) or F_p, memoized."""
    key = (n, p)
    if key not in sl.reductions:
        d = sl.differential(n)
        if not d.nnz:
            sl.reductions[key] = ([], 0)
        elif p is None:
            sl.reductions[key] = smith_normal_form(d)
        else:
            sl.reductions[key] = ([], rank_mod_p(d, p))
    return sl.reductions[key]


def homology_of_slice(sl, degree, ring=ZZ):
    """Homology of the slice in one degree over the requested ring.

    Over Z the result is the free rank together with the invariant factors
    exceeding 1; over a field only the dimension is reported.  Q shares the
    Z reduction, whose rank is the rank over Q.  H_n needs d_(n+1), so a
    slice built through degree n gives H_0 .. H_(n-1) and raises
    IncompleteSliceError from degree n on.
    """
    reduction_in = _reduction(sl, degree + 1, ring.p)
    _, rank_out = _reduction(sl, degree, ring.p)
    return _homology_entry(
        degree, len(sl.bases.get(degree, ())), reduction_in, rank_out, ring
    )


def _homology_entry(degree, size, reduction_in, rank_out, ring):
    factors_in, rank_in = reduction_in
    torsion = [d for d in factors_in if d > 1] if ring.kind == "Z" else ()
    return HomologyEntry(degree, size - rank_out - rank_in, torsion)


def _shown(name):
    # a name or id as it is where it prints on one line, else its repr
    return name if name.isprintable() else repr(name)


class HomologySummary:
    """Per-degree homology of one complex, with serialization helpers."""

    def __init__(self, entries, ring=ZZ, space="", complex_name="", truncated_at=None):
        self.entries = sorted(entries, key=lambda e: e.degree)
        self.ring = ring
        self.space = space
        self.complex_name = complex_name
        self.truncated_at = truncated_at

    def to_json_lines(self):
        lines = []
        for e in self.entries:
            record = e.as_dict()
            if self.truncated_at is not None:
                record["truncated_at"] = self.truncated_at
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + "\n"

    def to_table(self):
        head = f"homology of {self.complex_name}({_shown(self.space)}) over {self.ring}"
        lines = [head]
        if self.truncated_at is not None:
            lines.append(f"truncated at word length {self.truncated_at}")
        width = max(len(str(e.degree)) for e in self.entries) if self.entries else 1
        for e in self.entries:
            lines.append(f"  H_{e.degree:<{width}}  {e.group_text(self.ring)}")
        return "\n".join(lines) + "\n"
