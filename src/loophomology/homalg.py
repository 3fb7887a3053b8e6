"""Chain-complex slices and their homology.

One builder loop owns generator order: it walks the degrees top-down or
bottom-up and appends each kernel's dict, re-keyed to row indices, to the
matrix's CSC triple as soon as it is taken, so it holds one raw column at
a time and keeps no dict per column.  Each complex is a
recipe (seeds by degree, differential, cap; an exact window may add a
coboundary kernel).  A matrix's rows are the next degree's seeds in the
order they are enumerated, followed by what a truncated window's columns
name beyond them, in the order the columns first name it; nothing is
sorted.  The loop stores a slice or feeds the homology pass, which
reduces each matrix as soon as it is built and clears.  Top-down, it
never builds d_n's column of a generator that leads a unit pivot of
d_(n+1).  Bottom-up, through a coboundary kernel, it builds delta^n =
d_(n+1) transposed from n = 0, never builds delta^n's column of a
generator that leads a unit pivot of delta^(n-1), and builds the top
delta as its transpose, row by row and then sorted into columns, so the
top basis is never enumerated.

The reductions are linalg's.  A stored slice reduces each differential
at most once per characteristic, and Q reads its rank off the Z
reduction.  Everything is deterministic: bases are ordered lists.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from itertools import accumulate, count

from .linalg import SparseIntMatrix, _reduce, rank_mod_p, smith_normal_form
from .rings import ZZ
from .presentation import _shown


class IncompleteSliceError(ValueError):
    """A homology request needs a differential the slice does not carry."""


# ---------------------------------------------------------------------------
# Complex slices and homology


class ComplexSlice:
    """A finite window of a chain complex.

    bases[n] is the ordered generator list in degree n and diffs[n] the
    matrix of d_n with rows indexed by bases[n-1] and columns by bases[n]:
    ``diffs[n].column(j)`` is d of ``bases[n][j]`` as (row index,
    coefficient) pairs, in the order the differential produced them.  No
    generator-to-position index is kept; a reader that needs one builds
    it for its step.  The package builds slices with _close_and_build,
    top-down, which records the degree it built through as
    ``built_through``: nothing above it is known, so d_n for n above it
    is missing.  In a slice made by hand (``built_through`` None) degrees
    absent from ``bases`` are zero modules.
    """

    def __init__(self, bases, diffs, truncated_at=None, built_through=None):
        self.bases = {n: tuple(b) for n, b in bases.items()}
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
        ncols = len(self.bases.get(n, ()))
        return SparseIntMatrix(
            len(self.bases.get(n - 1, ())), array("q", [0]) * (ncols + 1), array("i"), []
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
        # the last matrix's triple goes before this one's columns are taken
        indptr, indices, data = array("q", [0]), array("i"), []
        positions = count()  # a key first named past the seeds takes the next
        row_index = defaultdict(positions.__next__, zip(seeds(m), positions))
        row = row_index.__getitem__
        for j, g in enumerate(gens):
            if j not in cleared:
                terms = kernel(g)
                indices.extend(map(row, terms))
                data += terms.values()
                indptr.append(len(data))
        if bases is not None and gens:
            bases[n] = gens
        sizes[n], gens = len(gens), list(row_index)
        del row_index, row
        yield max(n, m), SparseIntMatrix(len(gens), indptr, indices, data)
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
    index, cols, rows, data, j = defaultdict(count().__next__), array("i"), array("i"), [], 0
    col = index.__getitem__
    for i, g in enumerate(gens):
        if i not in cleared:
            terms = codiff_fn(g)
            cols.extend(map(col, terms))
            rows.extend([j] * len(terms))
            data += terms.values()
            j += 1
    del gens
    # the entries came row by row; a counting sort by column, which keeps
    # each column's rows ascending, makes them columns (its counters are a
    # list, which reads and writes faster than an array)
    fill = [0] * (len(index) + 1)
    for k in cols:
        fill[k + 1] += 1
    fill = list(accumulate(fill))  # column k's next entry goes to fill[k]
    indptr, indices, values = array("q", fill), array("i", bytes(4 * len(data))), [0] * len(data)
    for k, i, c in zip(cols, rows, data):
        e = fill[k]
        fill[k] = e + 1
        indices[e] = i
        values[e] = c
    del index, col, cols, rows, data, fill
    yield top + 1, SparseIntMatrix(j, indptr, indices, values)


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
        # index loops over the triples: slicing short columns costs more
        ends, middle, coefficients = dn.indptr, dn.indices, dn.data
        starts, rows, values = dprev.indptr, dprev.indices, dprev.data
        for j in range(dn.ncols):
            image = {}
            for f in range(ends[j], ends[j + 1]):
                i, c = middle[f], coefficients[f]
                for e in range(starts[i], starts[i + 1]):
                    k = rows[e]
                    image[k] = image.get(k, 0) + c * values[e]
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
