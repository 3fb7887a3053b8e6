"""Exact sparse linear algebra over Z, Q and F_p, chain-complex slices,
and homology via Smith normal form.

All matrices carry exact integer entries; the coefficient ring only enters
when homology is extracted.  A matrix is stored as its columns, one
{row: value} dict per generator, which is how a differential is computed
and how every reader but the reducer wants it; the reducer transposes to
rows.  One builder owns generator order: it closes a slice's bases under
the differential top-down, one degree at a time, and re-keys each degree's
differentials into index columns before it starts the degree below.

One sparse elimination core pivots on units (+-1 over Z, any nonzero
entry mod p): it computes ranks over F_p outright, and over Z it splits
off the unit invariant factors before a general Smith normal form loop
handles what is left.  Q reads its rank off the Z reduction, and each
differential is reduced at most once per slice and characteristic.
Everything is deterministic: bases are ordered lists and every reduction
uses a fixed pivot rule.
"""

from __future__ import annotations

import heapq
import json
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
            if p is None or p < 2 or not _is_prime(p):
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


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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

class Chain:
    """Finite formal sum of generator keys with nonzero coefficients.

    Keys may be any totally ordered hashables; iteration is always sorted,
    so printed chains and derived matrices are reproducible.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                self.add(key, c)

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

    def scaled(self, c):
        return Chain(self.ring, [(k, c * v) for k, v in self.terms.items()])

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

    __slots__ = ("nrows", "ncols", "columns", "nnz")

    def __init__(self, nrows, columns):
        self.nrows = nrows
        self.columns = columns
        self.ncols = len(columns)
        self.nnz = sum(map(len, columns))

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


def _row_dicts(matrix, p=None):
    """The nonzero rows of a matrix as {i: {j: v}}, entries reduced mod p."""
    if isinstance(matrix, SparseIntMatrix):
        pairs = (
            (i, j, v) for j, col in enumerate(matrix.columns) for i, v in col.items()
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

    # Repair the divisibility chain: diag(a, b) ~ diag(gcd, lcm).
    factors = [d for d in diagonal if d]
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



def smith_normal_form(matrix):
    """Invariant factors and rank of an integer matrix.

    Accepts a SparseIntMatrix or a list of dense rows.  Returns
    ``(factors, rank)`` where factors is the full divisibility chain
    d1 | d2 | ... | d_rank (units included, all positive).  Unit pivots
    come off first; the rest goes through the general pivot loop.
    """
    rows = _row_dicts(matrix)
    pivots = _eliminate_units(rows)
    factors, rank = _snf_rows(rows)
    return [1] * pivots + factors, pivots + rank


def rank_mod_p(matrix, p):
    """Rank over F_p: every nonzero entry is a unit, so the core does it all."""
    return _eliminate_units(_row_dicts(matrix, p), p)


# ---------------------------------------------------------------------------
# Complex slices and homology


class ComplexSlice:
    """A finite window of a chain complex.

    bases[n] is the ordered generator list in degree n and diffs[n] the
    matrix of d_n with rows indexed by bases[n-1] and columns by bases[n]:
    ``diffs[n].columns[j]`` is d of ``bases[n][j]`` as {row index:
    coefficient}.  Degrees absent from ``bases`` are zero modules.  The
    package builds slices with _close_and_build, top-down.
    """

    def __init__(self, bases, diffs, truncated_at=None):
        self.bases = {n: tuple(b) for n, b in bases.items()}
        self.index = {
            n: {g: i for i, g in enumerate(b)} for n, b in self.bases.items()
        }
        self.diffs = dict(diffs)
        self.truncated_at = truncated_at
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

    def coordinates(self, chain, n):
        """A degree-n chain as {basis index: coefficient}, the form of a
        stored column; None if one of its keys is not in bases[n]."""
        index = self.index.get(n, {})
        if not all(key in index for key in chain.terms):
            return None
        return {index[key]: c for key, c in chain.terms.items()}

    def differential(self, n):
        if n in self.diffs:
            return self.diffs[n]
        if self.bases.get(n) and self.bases.get(n - 1):
            raise IncompleteSliceError(f"no differential stored at degree {n}")
        return SparseIntMatrix(
            len(self.bases.get(n - 1, ())), [{} for _ in self.bases.get(n, ())]
        )


def _generator_sort_key(g):
    # Stable order for generator keys: nested tuples whose leaves are strings,
    # shorter tuples first.  Keys compared within one basis share their shape.
    return g if type(g) is str else (len(g), tuple(map(_generator_sort_key, g)))


def _close_and_build(seeds, diff_fn, max_degree, truncated_at=None):
    """Build a ComplexSlice top-down, closing the bases under d.

    seeds[n] holds the generators enumerated in degree n and diff_fn(g) is
    d(g) as a {generator: nonzero coefficient} dict.  Seeds need not be
    closed under d (truncated word enumerations are not): every generator
    that appears in a differential is adopted into the basis below, so the
    stored matrices form an honest subcomplex and d.d = 0 holds exactly.

    The top seed degree is sorted once.  Then, for each degree n from the
    top down, the differentials of the sorted basis n are taken, basis n-1
    is closed over their keys and sorted, and the degree-n columns are
    re-keyed by row index, dropping the keyed dicts before degree n-1
    starts.  A basis sorted as the rows of degree n+1 is never sorted again.
    """
    bases, diffs = {}, {}
    gens = sorted(seeds.get(max_degree, ()), key=_generator_sort_key)
    for n in range(max_degree, 0, -1):
        columns = [diff_fn(g) for g in gens]
        rows = set(seeds.get(n - 1, ())).union(*columns)
        rows = sorted(rows, key=_generator_sort_key)
        if gens:
            row_index = {g: i for i, g in enumerate(rows)}
            for j, dg in enumerate(columns):
                columns[j] = {row_index[k]: c for k, c in dg.items()}
            del row_index
            bases[n] = gens
            diffs[n] = SparseIntMatrix(len(rows), columns)
        gens = rows
    if gens:
        bases[0] = gens
    return ComplexSlice(bases, diffs, truncated_at=truncated_at)


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
    Z reduction, whose rank is the rank over Q.
    """
    gens = sl.bases.get(degree, ())
    if not gens:
        return HomologyEntry(degree, 0)
    factors_in, rank_in = _reduction(sl, degree + 1, ring.p)
    _, rank_out = _reduction(sl, degree, ring.p)
    torsion = [d for d in factors_in if d > 1] if ring.kind == "Z" else ()
    return HomologyEntry(degree, len(gens) - rank_out - rank_in, torsion)


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
