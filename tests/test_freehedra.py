import pytest

from loophomology.freehedra import (
    FreehedralLabel,
    f_vector,
    face_poset,
    label_faces,
    project_to_simplex,
    top_label,
)
from reference import validate_label


def test_top_label_examples():
    assert str(top_label(0)) == "0]"
    assert str(top_label(1)) == "0,1]"
    assert str(top_label(2)) == "0,1,2]"
    assert top_label(2).dimension == 2


def test_facet_counts():
    for n in range(1, 7):
        assert len(label_faces(top_label(n))) == 3 * n - 1


def test_face_operator_examples():
    faces3 = dict(label_faces(top_label(3)))
    assert str(faces3[(2, 2)]) == "2,3][0,1,2]"
    faces1 = dict(label_faces(top_label(1)))
    assert str(faces1[(0, 1)]) == "0][0,1]"
    # the first delete coincides with the first rotation: a single face
    assert (1, 1) not in faces3
    assert str(faces3[(2, 1)]) == "1,2,3][0,1]"


def test_dimension_zero_has_no_faces():
    assert label_faces(top_label(0)) == []
    vertex = FreehedralLabel((2,), ((0, 1), (1, 2)))
    assert vertex.dimension == 0
    assert label_faces(vertex) == []


def test_pentagon():
    cells, covers = face_poset(2)
    assert len(cells) == 11
    by_dim = {}
    for c in cells:
        by_dim.setdefault(c.dimension, []).append(str(c))
    assert sorted(by_dim[0]) == [
        "0][0,1][1,2]",
        "0][0,2]",
        "1][1,2][0,1]",
        "2][0,1][1,2]",
        "2][0,2]",
    ]
    assert len(by_dim[1]) == 5 and len(by_dim[2]) == 1


def test_f_vectors():
    assert f_vector(0) == [1]
    assert f_vector(1) == [2, 1]
    assert f_vector(2) == [5, 5, 1]
    assert f_vector(3) == [12, 18, 8, 1]
    cells3, _ = face_poset(3)
    assert len(cells3) == 39
    cells1, _ = face_poset(1)
    assert len(cells1) == 3


def test_euler_characteristic():
    for n in range(6):
        assert sum((-1) ** i * c for i, c in enumerate(f_vector(n))) == 1


def test_face_types_by_remark_counts():
    # per cell of dimension d with leading block of dimension p >= 1:
    # d-1 deletes, d splits, p rotations; a leading vertex drops the
    # rotation family and its aliased first delete.
    for n in range(1, 5):
        cells, _ = face_poset(n)
        for cell in cells:
            d = cell.dimension
            if d == 0:
                continue
            p = len(cell.f_block) - 1
            tags = [tag for tag, _ in label_faces(cell)]
            splits = sum(1 for fam, _ in tags if fam == 0)
            deletes = sum(1 for fam, _ in tags if fam == 1)
            rotations = sum(1 for fam, _ in tags if fam == 2)
            assert splits == d
            assert rotations == p
            assert deletes == (d - 1 if p >= 1 else d)


def test_grammar_valid_throughout():
    for n in range(5):
        cells, _ = face_poset(n)
        for c in cells:
            validate_label(c, n)


def test_projection_examples():
    assert project_to_simplex(top_label(4)) == (0, 1, 2, 3, 4)
    assert project_to_simplex(FreehedralLabel((2, 3), ((0, 1, 2),))) == (2, 3)
    assert project_to_simplex(FreehedralLabel((2,), ((0, 1, 2),))) == (2,)


def test_projection_monotone():
    for n in range(5):
        cells, covers = face_poset(n)
        for cell, faces in covers.items():
            target = set(project_to_simplex(cell))
            for f in faces:
                assert set(project_to_simplex(f)) <= target


def test_poset_graded():
    # every cover drops dimension by exactly one and every positive cell
    # has a face, so all maximal chains have length n
    for n in range(5):
        cells, covers = face_poset(n)
        for cell, faces in covers.items():
            if cell.dimension > 0:
                assert faces
            for f in faces:
                assert f.dimension == cell.dimension - 1


def test_top_label_negative():
    with pytest.raises(ValueError):
        top_label(-1)
