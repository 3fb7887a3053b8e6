"""Exact sparse linear algebra over Z, Q and F_p: sparse integer
matrices, and their invariant factors and ranks.

All matrices carry exact integer entries; the coefficient ring (rings)
only enters when homology is extracted.  A matrix is one compressed
sparse column triple: per column an offset, per entry a row index and a
Python int, with each column in the order it was written.  The builders
append each column as it is computed, and every reader reads the columns
it wants straight out of the triple, with no dict kept per column.

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
from itertools import chain, islice, repeat
from math import gcd
from operator import sub


# ---------------------------------------------------------------------------
# Sparse integer matrices


class SparseIntMatrix:
    """Sparse matrix with exact integer entries, stored as one compressed
    sparse column (CSC) triple.

    Column j holds the entries ``indptr[j]`` to ``indptr[j + 1]`` of
    ``indices`` (their rows) and ``data`` (their nonzero values, exact
    Python ints), in the order the column was written.  That is 4 bytes of
    row index and one 8-byte list slot per entry (the ints of small values
    are shared), and 8 bytes of offset per column.  Immutable by
    convention.
    """

    __slots__ = ("nrows", "indptr", "indices", "data", "_blocks")

    def __init__(self, nrows, indptr, indices, data):
        self.nrows = nrows
        self.indptr = indptr  # array("q"): ncols + 1 offsets
        self.indices = indices  # array("i"): a row index per entry
        self.data = data  # list: a value per entry
        self._blocks = None

    @classmethod
    def from_columns(cls, nrows, columns):
        """The matrix whose column j is the {row: nonzero value} mapping
        ``columns[j]``."""
        indptr, indices, data = array("q", [0]), array("i"), []
        for col in columns:
            indices.extend(col)
            data.extend(col.values())
            indptr.append(len(data))
        return cls(nrows, indptr, indices, data)

    @property
    def ncols(self):
        return len(self.indptr) - 1

    @property
    def nnz(self):
        return len(self.data)

    def column(self, j):
        """Column j as (row, value) pairs, in stored order."""
        a, b = self.indptr[j], self.indptr[j + 1]
        return zip(self.indices[a:b], self.data[a:b])

    @property
    def blocks(self):
        """The nonzero columns grouped by connected component of the
        row-column support: arrays of column indices, ordered by their first
        column.  Found once, by union-find over the row indices, for every
        ring."""
        if self._blocks is None:
            parent = list(range(self.nrows))

            def find(i):
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                return i

            indices, a = self.indices, 0
            for b in islice(self.indptr, 1, None):  # column j is a:b
                if b - a > 1:
                    root = find(indices[a])
                    for e in range(a + 1, b):
                        parent[find(indices[e])] = root
                a = b
            groups, a = {}, 0
            for j, b in enumerate(islice(self.indptr, 1, None)):
                if a < b:
                    groups.setdefault(find(indices[a]), array("l")).append(j)
                a = b
            self._blocks = list(groups.values())
        return self._blocks

    @property
    def entries(self):
        """``{(i, j): v}``, derived from the triple on each read.  The
        package itself reads only the triple; this view is for tools outside
        it, such as the benchmark's tracer, which reads it after a run."""
        lengths = map(sub, self.indptr[1:], self.indptr[:-1])
        cols = chain.from_iterable(map(repeat, range(self.ncols), lengths))
        return dict(zip(zip(self.indices, cols), self.data))

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


def _unit_pivots(matrix, block, p=None):
    """Split the unit pivots off the columns ``block`` of a matrix,
    left-looking.

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
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for j in sorted(block, key=lambda j: indptr[j + 1] - indptr[j]):
        col = {}
        for e in range(indptr[j], indptr[j + 1]):  # indexing beats slicing here
            v = data[e] % p if p else data[e]
            if v:
                col[indices[e]] = v
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
    indptr, indices, data = array("q", [0]), array("i"), []
    for col in zip(*matrix):
        for i, v in enumerate(col):
            if v:
                indices.append(i)
                data.append(v)
        indptr.append(len(data))
    return SparseIntMatrix(len(matrix), indptr, indices, data)


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


def _rank_f2(matrix, block):
    """Leading rows of the F2 pivots of the columns ``block``, by a
    left-looking XOR kernel: a column's odd entries are bits, its rows
    numbered in first-seen order, and it is reduced against the pivots so
    far, keyed by their top bit."""
    bits, pivots = {}, {}
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    for j in block:
        c = 0
        for e in range(indptr[j], indptr[j + 1]):
            if data[e] & 1:
                c |= 1 << bits.setdefault(indices[e], len(bits))
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
    leads, factors = [], []
    for block in matrix.blocks:
        if p == 2:
            leads += _rank_f2(matrix, block)
            continue
        pivots, residual = _unit_pivots(matrix, block, p)
        leads += pivots
        factors += _snf_rows(residual)
        del pivots  # the next block's pivots start from nothing
    if p:
        return [], len(leads), leads
    chain, rank = _divisibility_chain([d for d in factors if d > 1])
    units = len(leads) + len(factors) - rank
    return [1] * units + chain, units + rank, leads
