"""Combinatorics of the freehedra F_n and the closed-necklace face calculus.

Cells of F_n carry block-sequence labels written a0,...,ap][b0,...][...]:
a leading block of dimension p (the freehedral factor) followed by cube
blocks, each block of length l contributing dimension l - 2.  Blocks chain
end-to-start cyclically through {0..n} with a single wrap from n back to 0,
and the top cell of F_n is the single block 0,1,...,n].

Three face-operator families act on the leading block (split, delete,
rotate) and the standard cubical split/delete pair acts blockwise on the
cube blocks through one global coordinate index.  The first delete and the
first rotation coincide, which is why F_n has 3n - 1 facets.
"""

from __future__ import annotations

from collections import namedtuple


class FreehedralLabel(
    namedtuple("FreehedralLabel", "f_block cube_blocks", defaults=((),))
):
    """A cell of F_n: the leading block and the cube blocks, each a tuple of
    vertices.  A namedtuple: it compares, orders and hashes as the tuple of
    its fields."""

    __slots__ = ()

    @property
    def dimension(self):
        return (len(self.f_block) - 1) + sum(len(b) - 2 for b in self.cube_blocks)

    def __str__(self):
        head = ",".join(str(a) for a in self.f_block) + "]"
        return head + "".join(
            "[" + ",".join(str(b) for b in block) + "]" for block in self.cube_blocks
        )


def top_label(n):
    """The top cell 0,1,...,n] of F_n."""
    if n < 0:
        raise ValueError("freehedra are indexed by n >= 0")
    return FreehedralLabel(tuple(range(n + 1)))


def label_faces(label):
    """All codimension-1 faces as (operator tag, label) pairs.

    Tags are (family, index) with family 0 = split, 1 = delete,
    2 = rotate; the leading block takes indices 1..p (delete starts at 2,
    its index-1 face being the first rotation) and cube coordinates
    continue the indexing at p + 1.
    """
    fb = label.f_block
    cubes = label.cube_blocks
    p = len(fb) - 1
    faces = []
    for i in range(1, p + 1):
        faces.append(((0, i), FreehedralLabel(fb[:i], (fb[i - 1 :],) + cubes)))
    for i in range(2, p + 1):
        faces.append(((1, i), FreehedralLabel(fb[: i - 1] + fb[i:], cubes)))
    for i in range(1, p + 1):
        faces.append(((2, i), FreehedralLabel(fb[i:], cubes + (fb[: i + 1],))))
    j = 0
    for idx, block in enumerate(cubes):
        for m in range(1, len(block) - 1):
            j += 1
            split = cubes[:idx] + (block[: m + 1], block[m:]) + cubes[idx + 1 :]
            faces.append(((0, p + j), FreehedralLabel(fb, split)))
            dele = cubes[:idx] + (block[:m] + block[m + 1 :],) + cubes[idx + 1 :]
            faces.append(((1, p + j), FreehedralLabel(fb, dele)))
    return faces


def face_poset(n):
    """All cells of F_n with covering relations.

    Returns (cells, covers): cells sorted by (dimension, text), covers
    mapping each cell to the sorted tuple of its codimension-1 faces.
    """
    top = top_label(n)
    covers = {}
    frontier = [top]
    seen = {top}
    while frontier:
        nxt = []
        for cell in frontier:
            below = sorted({f for _, f in label_faces(cell)})
            covers[cell] = tuple(below)
            for f in below:
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    cells = sorted(seen, key=lambda c: (c.dimension, str(c)))
    return cells, covers


def f_vector(n):
    """Cell counts of F_n by dimension, top cell included."""
    cells, _ = face_poset(n)
    counts = [0] * (n + 1)
    for c in cells:
        counts[c.dimension] += 1
    return counts


def project_to_simplex(label):
    """Image of a cell under the cellular projection F_n -> Delta^n.

    A cell maps to the face of the simplex spanned by its leading block;
    leading single-vertex blocks collapse to that vertex.
    """
    return tuple(label.f_block)
