"""Exact sparse linear algebra over Z, Q and F_p, chain-complex slices,
and homology via Smith normal form.

All matrices carry exact integer entries; the coefficient ring only enters
when homology is extracted.  A differential sums its terms into one plain
dict and becomes a Chain once: the chain takes the dict over, normalizes
it mod p and drops the zero sums in place.  A matrix is stored as its
columns, one {row: value} dict per generator, which is how a differential
is computed and how every reader wants it.  One builder owns generator
order: it closes a slice's bases under the differential top-down, one
degree at a time, and re-keys each differential into an index column as
soon as it is taken, so it holds one raw column at a time.  Its callers
enumerate seeds in the order of the flat key they give for the generator
shape, so a closed window takes them as they come; a truncated one adopts
what its columns name beyond the seeds, and only then is a basis sorted.

The free loop space splits over free homotopy classes, so a differential
is block-diagonal up to permutation: each matrix finds its connected
blocks once and is reduced block by block, each block's pivots dropped
before the next.  One left-looking kernel takes a block's columns
shortest first and reduces each against the pivots so far, keyed by
leading (largest) row; a unit lead (+-1 over Z, any nonzero entry mod p)
makes a new pivot.  Over odd F_p the pivots count the rank.  Over Z a
column with any other lead joins a small residual, which a general Smith
normal form loop takes once it is cleared against the unit pivots; a
gcd/lcm repair across blocks restores the divisibility chain.  Over F2 an
XOR kernel on bit-packed columns does the same walk.  Q reads its rank
off the Z reduction, and each differential is reduced at most once per
slice and characteristic.
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
    """Parse a ring spec: "Z", "Q", or "F<p>" with p prime."""
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("F") and text[1:].isdigit():
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

    def coefficient(self, key):
        return self.terms.get(key, 0)

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
    residual on the other rows.  Returns the number of pivots and the
    residual as {row: {column: value}}, empty over F_p.
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
    return len(pivots), rows


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


def _column_blocks(matrix):
    """The columns of a matrix, block by block: a SparseIntMatrix's blocks,
    or the columns of a list of dense rows as one block."""
    if isinstance(matrix, SparseIntMatrix):
        columns = matrix.columns
        return ([columns[j] for j in block] for block in matrix.blocks)
    ncols = len(matrix[0]) if matrix else 0
    return [[{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(ncols)]]


def smith_normal_form(matrix):
    """Invariant factors and rank of an integer matrix.

    Accepts a SparseIntMatrix or a list of dense rows.  Returns
    ``(factors, rank)`` where factors is the full divisibility chain
    d1 | d2 | ... | d_rank (units included, all positive).  Each block
    gives one factor 1 per unit pivot of _unit_pivots and the factors of
    its residual from the general pivot loop; the factors above 1 of all
    blocks are brought into one chain at the end.
    """
    units, factors = 0, []
    for columns in _column_blocks(matrix):
        pivots, residual = _unit_pivots(columns)
        units += pivots
        factors += _snf_rows(residual)[0]
    chain, rank = _divisibility_chain([d for d in factors if d > 1])
    units += len(factors) - rank
    return [1] * units + chain, units + rank


def _rank_f2(columns, block):
    """Rank over F2 of a block's columns, by a left-looking XOR kernel: a
    column's odd entries are bits, its rows numbered in first-seen order,
    and it is reduced against the pivots so far, keyed by their top bit."""
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
    return len(pivots)


def rank_mod_p(matrix, p):
    """Rank over F_p: the number of pivots of _unit_pivots mod p, block by
    block, where every nonzero entry is a unit; over F2 the XOR kernel
    takes each block of a SparseIntMatrix instead."""
    if p == 2 and isinstance(matrix, SparseIntMatrix):
        return sum(_rank_f2(matrix.columns, b) for b in matrix.blocks)
    return sum(_unit_pivots(columns, p)[0] for columns in _column_blocks(matrix))


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


def _close_and_build(seeds, diff_fn, max_degree, key, truncated_at=None):
    """Build a ComplexSlice top-down, closing the bases under d.

    seeds[n] holds the generators enumerated in degree n and diff_fn(g) is
    d(g) as a {generator: nonzero coefficient} dict.  Seeds need not be
    closed under d (truncated word enumerations are not): every generator
    that appears in a differential is adopted into the basis below, so the
    stored matrices form an honest subcomplex and d.d = 0 holds exactly.
    Every basis is in the order of ``key``, the flat sort key of the
    builder's generator shape (None sorts generators as they are), and each
    seed list must arrive in that order, without repeats.

    For each degree n from the top down, each differential of basis n is
    re-keyed into a row-index column as soon as diff_fn returns it, one
    lookup per term, so one raw dict is alive at a time.  Rows are numbered
    by the seeds of degree n-1; a key the seeds lack (a truncated window)
    gets the next number after them.  If any key was adopted, basis n-1
    becomes the seeds and the adopted keys sorted once by ``key``, and the
    degree's columns are renumbered through that permutation.  Each
    degree's row index is dropped before degree n-1 starts.
    """
    bases, diffs = {}, {}
    gens = seeds.get(max_degree, ())
    for n in range(max_degree, 0, -1):
        rows = seeds.get(n - 1, ())
        if gens:
            row_index = {g: i for i, g in enumerate(rows)}
            columns = []
            for g in gens:
                dg = diff_fn(g)
                try:
                    columns.append({row_index[k]: c for k, c in dg.items()})
                except KeyError:
                    for k in dg:
                        row_index.setdefault(k, len(row_index))
                    columns.append({row_index[k]: c for k, c in dg.items()})
            if len(row_index) > len(rows):
                rows = sorted(row_index, key=key)
                moved = [0] * len(rows)  # provisional row number -> sorted one
                for i, g in enumerate(rows):
                    moved[row_index[g]] = i
                for j, col in enumerate(columns):
                    columns[j] = {moved[r]: c for r, c in col.items()}
            del row_index
            bases[n] = gens
            diffs[n] = SparseIntMatrix(len(rows), columns)
        gens = rows
    if gens:
        bases[0] = gens
    return ComplexSlice(bases, diffs, truncated_at, built_through=max_degree)


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
    factors_in, rank_in = _reduction(sl, degree + 1, ring.p)
    _, rank_out = _reduction(sl, degree, ring.p)
    torsion = [d for d in factors_in if d > 1] if ring.kind == "Z" else ()
    free = len(sl.bases.get(degree, ())) - rank_out - rank_in
    return HomologyEntry(degree, free, torsion)


class HomologySummary:
    """Per-degree homology of one complex, with serialization helpers."""

    def __init__(self, entries, ring=ZZ, space="", complex_name="", truncated_at=None):
        self.entries = sorted(entries, key=lambda e: e.degree)
        self.ring = ring
        self.space = space
        self.complex_name = complex_name
        self.truncated_at = truncated_at

    def entry(self, degree):
        for e in self.entries:
            if e.degree == degree:
                return e
        return HomologyEntry(degree, 0)

    def to_json_lines(self):
        lines = []
        for e in self.entries:
            record = e.as_dict()
            if self.truncated_at is not None:
                record["truncated_at"] = self.truncated_at
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_json_lines(text):
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

    def to_table(self):
        head = f"homology of {self.complex_name}({self.space}) over {self.ring}"
        lines = [head]
        if self.truncated_at is not None:
            lines.append(f"truncated at word length {self.truncated_at}")
        width = max(len(str(e.degree)) for e in self.entries) if self.entries else 1
        for e in self.entries:
            lines.append(f"  H_{e.degree:<{width}}  {e.group_text(self.ring)}")
        return "\n".join(lines) + "\n"
