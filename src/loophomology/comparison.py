"""The verify side of the free loop models: the face-operator differential
and the comparison maps.

The closed-necklace differential, built purely from the face operators
d0_i, d1_i, d2_i of the freehedral cell structure, is checked term by term
against the coalgebra-formula differential of loopcomplex.  The comparison
maps phi and chi from the Hochschild complex of the cobar algebra to the
free-loop complex, the coalgebra section eta and the local contraction on
the kernel of the projection complete the identities that verify.run_verify
checks.  The chain-map walk that pins the chi sign lives here too; it reads
slices its caller built, and this module builds none.

Every map takes the space of the free-loop complex it lands in, and that
space decides the setting: Z(X) for the inverted models, whose simplex
slot ranges over X, or a plain 1-reduced presentation.

Only the verify suite imports this module, so a homology run does not
compile it.  As in loopcomplex, each map taken on every generator of a
slice is one kernel, built once per slice, and its public function is a
Chain wrapper.
"""

from __future__ import annotations

from itertools import accumulate

from .cobar import CobarAlgebra, _splice
from .linalg import ZZ, Chain, _nonzero
from .loopcomplex import format_loop_generator
from .presentation import SimplicialError

# Candidate sign conventions for chi.  "index-low" and "index-high" are the two
# adjacent-index readings of the product-form exponent; "rotation" is the
# Koszul sign for rotating the head block past letter, tail and module.
# The chain-map sweep (verify.select_chi_variant) picks the one under which
# phi commutes with the differentials; only "rotation" survives.
CHI_VARIANTS = ("index-low", "index-high", "rotation")
DEFAULT_CHI_VARIANT = "rotation"


# ---------------------------------------------------------------------------
# The face-operator differential


def _necklace_faces(space):
    """The faces of a loop generator (x, w) as lists d0, d1 (i = 1..n) and
    d2 (i = 1..p), None where a component degenerates; the faces i > p
    split (d0) or inner-face (d1) one letter, each letter listed once."""
    table, op_pairs = space.table, space.op_pairs
    dim, faces, fronts, backs = table.dim, table.faces, table.fronts, table.backs

    def faces_of(gen):
        x, w = gen
        p = dim[x]
        pairs = list(zip(fronts[x], backs[x]))
        # d0_i: front i-1 keeps the slot, back i-1 leads the word; d2_i:
        # back i keeps the slot, front i rotates to the word tail
        d0 = [
            None if None in fb else (fb[0], _splice(fb[1:], w, (), op_pairs))
            for fb in pairs[:p]
        ]
        d2 = [
            None if None in fb else (fb[1], _splice(w, fb[:1], (), op_pairs))
            for fb in pairs[1:]
        ]
        d1 = d2[:1] + [None if g is None else (g, w) for g in faces[x][1:p]]
        for k, a in enumerate(w):
            head, tail = w[:k], w[k + 1 :]
            for m in range(1, dim[a]):
                fb, g = (fronts[a][m], backs[a][m]), faces[a][m]
                d0.append(None if None in fb else (x, _splice(head, fb, tail, op_pairs)))
                d1.append(None if g is None else (x, _splice(head, (g,), tail, op_pairs)))
        return d0, d1, d2

    return faces_of


def necklical_face(space, eps, i, gen):
    """One closed-necklace face operator d^eps_i applied to (x, w).

    Index ranges (p = dim x, q = deg w, n = p + q): d0 for 1 <= i <= n,
    d1 for 1 <= i <= n with d1_1 aliased to d2_1, d2 for 1 <= i <= p.
    Returns the new generator, or None when a component degenerates.
    """
    x, w = gen
    p = space.underlying.dim(x)
    n = p + space.table.word_degree(w)
    if eps not in (0, 1, 2):
        raise SimplicialError(f"face family {eps!r} not in (0, 1, 2)")
    top = p if eps == 2 else n
    if not 1 <= i <= top:
        raise SimplicialError(
            f"index {i} out of range 1..{top} for d{eps} on {format_loop_generator(gen)}"
        )
    return _necklace_faces(space)(gen)[eps][i - 1]


def _necklical_kernel(space):
    """necklical_differential as a function of one loop generator,
    returning {generator: nonzero coefficient}."""
    faces_of = _necklace_faces(space)

    def terms(gen):
        d0, d1, d2 = faces_of(gen)
        n = len(d0)
        out = {}
        for i, (g0, g1) in enumerate(zip(d0, d1), 1):
            sign = -1 if i & 1 else 1
            if g0 is not None:
                out[g0] = out.get(g0, 0) + sign
            if g1 is not None:
                out[g1] = out.get(g1, 0) - sign
        for i, g in enumerate(d2[1:], 2):
            if g is not None:
                out[g] = out.get(g, 0) + (-1 if (i - 1) * n & 1 else 1)
        return _nonzero(out)

    return terms


def necklical_differential(space, gen, ring=ZZ):
    """The face-operator differential

        sum_{i=1}^{n} (-1)^i (d0_i - d1_i) + sum_{i=2}^{p} (-1)^{(i-1) n} d2_i

    with degenerate faces dropped.  Computed entirely from the faces of
    necklical_face; no coproduct formula enters, which is what makes the
    term-by-term comparison against cohoch_differential a real cross-check.
    """
    x, w = gen
    space.underlying.dim(x)  # an unknown simplex or letter raises SimplicialError
    space.table.word_degree(w)
    return Chain(ring, _necklical_kernel(space)(gen))


# ---------------------------------------------------------------------------
# Comparison maps: chi, phi, eta, and the local contraction


# A walk over several chi readings packs one coefficient per reading into one
# integer, a _LANE-bit lane each: sum_v c_v * 2**(_LANE * v).  Sums and
# integer multiples act lane by lane, so one pass of integer arithmetic
# serves every reading, exactly while every |c_v| stays below 2**(_LANE - 1);
# the coefficients here are sums of products of a few small matrix entries.
# With one reading the packed coefficient is the coefficient itself.
_LANE = 64


def _phi_kernel(space, variants):
    """phi under every chi reading in variants at once, as a function of
    one Hochschild generator (bar word, word) of tuples, returning {loop
    generator: packed coefficients}, a packed sum possibly 0.  Each
    rotation of a single bar letter is spliced once, whatever the readings."""
    table, op_pairs = space.table, space.op_pairs
    dim, base = table.dim, space.basepoint
    readings = [(1 << (_LANE * v), variant) for v, variant in enumerate(variants)]
    lanes = sum(unit for unit, _ in readings)
    unknown = [v for v in variants if v not in CHI_VARIANTS]

    def terms(gen):
        b, u = gen
        if not b:
            return {(base, u): lanes}
        if len(b) > 1:
            return {}
        if unknown:
            raise ValueError(f"unknown chi variant {unknown[0]!r}")
        (a,) = b
        deg_u = table.word_degree(u)
        shift = table.word_degree(a)
        n = len(a)
        prefix = list(accumulate(map(dim.__getitem__, a), initial=0))
        out = {}
        for i in range(1, n + 1):
            key = (a[i - 1], _splice(a[i:], u, a[: i - 1], op_pairs))
            packed = -lanes  # phi is -chi, and a lone letter carries no sign
            if n > 1:
                packed = 0
                for unit, variant in readings:
                    if variant == "rotation":
                        head = prefix[i - 1] - (i - 1)
                        e = head * (shift - head + deg_u)
                    else:
                        start = max(i - 1 if variant == "index-low" else i + 1, 1)
                        e = (prefix[n] - prefix[start - 1] + n + i) * (deg_u + prefix[i] + i)
                    packed += unit if e & 1 else -unit
            out[key] = out.get(key, 0) + packed
        return out

    return terms


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
    terms = _phi_kernel(space, (variant,))(((tuple(a),), tuple(u)))
    return Chain(ring, {key: -c for key, c in terms.items()})


def phi(space, gen, ring=ZZ, variant=DEFAULT_CHI_VARIANT):
    """Projection Hoch(cobar) -> free-loop complex: empty bar words return
    the basepoint tensor the word, single bar letters go through chi with
    the orientation matching the wrap-term convention, longer ones die."""
    b, u = gen
    return Chain(ring, _phi_kernel(space, (variant,))((tuple(map(tuple, b)), tuple(u))))


def eta(space, x):
    """Coalgebra section C -> B(cobar C): the sum of all iterated reduced
    coproducts of x, each tensor factor a single-letter bar letter.
    Conilpotency (factor dimensions strictly drop) makes the sum finite."""
    if space.underlying.dim(x) < 1:
        raise SimplicialError(
            f"{x!r} has dimension 0: not an element of the reduced coalgebra"
        )
    aw_pairs = space.table.aw_pairs
    out = Chain(ZZ)
    level = [(x,)]
    while level:
        for parts in level:
            out.add(tuple((c,) for c in parts), 1)
        nxt = []
        for parts in level:
            for f, b in aw_pairs[parts[0]][1:-1]:
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


# ---------------------------------------------------------------------------
# The chain-map sweep that pins the chi sign


def _lanes(packed, count):
    """The bit mask of the readings whose lane of packed is nonzero."""
    mask = 0
    for v in range(count):
        lane = packed & ((1 << _LANE) - 1)
        if lane >> (_LANE - 1):
            lane -= 1 << _LANE
        if lane:
            mask |= 1 << v
        packed = (packed - lane) >> _LANE
    return mask


def phi_slice_mismatches(space, variants, hoch_slice, loop_slice):
    """Generators of a Hochschild slice on which phi fails to commute with
    the differentials, as ``{variant: [generator, ...]}`` in basis order
    for each chi reading in ``variants``.

    One pass per degree serves every reading, and it streams.  Each
    generator's image under phi is taken once, for all readings, by one
    ``_phi_kernel`` (a single bar letter's rotations are spliced and looked
    up once, only their signs differ), as {free-loop basis index: packed
    coefficients}, and its gap is taken at once.  Both sides are read off
    the stored matrices, over the free-loop basis one degree down: phi(d g)
    combines the images of the rows of g's d_n column in ``hoch_slice``,
    d phi(g) the ``loop_slice`` columns of the keys of phi(g), their
    difference summed in one pass of packed arithmetic and read reading by
    reading.  The image is then kept only if the next degree's d reads g as
    a row; a generator with no image keeps None, and the top degree keeps
    none.  A generator whose phi has a key outside the free-loop basis of
    its degree, with a nonzero coefficient under a reading, is a mismatch
    under that reading, and so is every generator whose differential
    reaches it.
    """
    count = len(variants)
    phi_of = _phi_kernel(space, variants)
    bad = {v: [] for v in variants}
    below, below_stray = None, {}  # kept images of the degree below, and stray masks
    for n in hoch_slice.degrees():
        gens = hoch_slice.bases[n]
        index = loop_slice.basis_index(n)
        loop_cols = loop_slice.differential(n).columns
        hoch_cols = hoch_slice.differential(n).columns
        here, stray = None, {}
        if n + 1 in hoch_slice.bases:
            # the rows of d_(n+1): the generators whose images the next degree reads
            here = [False] * len(gens)
            for col in hoch_slice.differential(n + 1).columns:
                for i in col:
                    here[i] = True
        for j, (gen, col) in enumerate(zip(gens, hoch_cols)):
            mask = 0
            gap = {}  # phi(d g) - d phi(g), packed
            image = {}
            for key, packed in phi_of(gen).items():
                i = index.get(key)
                if i is None:
                    mask |= _lanes(packed, count)
                elif packed:
                    image[i] = packed
                    for k, e in loop_cols[i].items():
                        gap[k] = gap.get(k, 0) - packed * e
            if here is not None and here[j]:
                here[j] = image or None
                if mask:
                    stray[j] = mask
            if below_stray:
                for i in col:
                    mask |= below_stray.get(i, 0)
            for i, c in col.items():
                row = below[i]
                if row is not None:
                    for k, e in row.items():
                        gap[k] = gap.get(k, 0) + c * e
            if any(gap.values()):
                for e in gap.values():
                    mask |= _lanes(e, count)
            if mask:
                for v, variant in enumerate(variants):
                    if mask >> v & 1:
                        bad[variant].append(gen)
        below, below_stray = here, stray
    return bad
