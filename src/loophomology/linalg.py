"""Exact sparse linear algebra over Z, Q and F_p: coefficient rings,
chains, sparse integer matrices, and their invariant factors and ranks.

All matrices carry exact integer entries; the coefficient ring only enters
when homology is extracted.  A differential sums its terms into one plain
dict and becomes a Chain once: the chain takes the dict over, normalizes
it mod p and drops the zero sums in place.  A matrix is stored as its
columns, one {row: value} dict per generator, which is how a differential
is computed and how every reader wants it.

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
takes an XOR kernel on bit-packed columns, which does the same walk.
Every reduction uses a fixed pivot rule, so every result is
deterministic.
"""

from __future__ import annotations

from array import array
from math import gcd


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
