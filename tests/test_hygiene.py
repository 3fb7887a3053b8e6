"""Source hygiene: no unused imports in the package, and a pinned public API."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import loophomology

PACKAGE = Path(loophomology.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

PUBLIC_NAMES = {
    "BUILTIN_NAMES",
    "Chain",
    "CobarAlgebra",
    "ComplexSlice",
    "FormalSimplex",
    "FreehedralLabel",
    "HomologySummary",
    "OpExtension",
    "QQ",
    "Ring",
    "SimplicialError",
    "SimplicialSetPresentation",
    "SparseIntMatrix",
    "ZZ",
    "adjoin_inverses",
    "aw_coproduct",
    "bar_differential",
    "boundary",
    "build_complex_slice",
    "builtin_space",
    "canonical_degeneracy",
    "chains_slice",
    "check_d_squared",
    "chi",
    "cobar_basis",
    "cobar_differential",
    "cobar_slice",
    "cohoch_basis",
    "cohoch_differential",
    "cohoch_slice",
    "contraction_s",
    "endpoints",
    "eta",
    "f_vector",
    "face",
    "face_poset",
    "hat_cobar_basis",
    "hochschild_differential",
    "hochschild_slice",
    "homology_of_slice",
    "label_faces",
    "necklical_differential",
    "necklical_face",
    "nondeg",
    "parse_ring",
    "phi",
    "presentation_from_json",
    "prime_field",
    "project_to_simplex",
    "reduce_word",
    "run_verify",
    "select_chi_variant",
    "smith_normal_form",
    "top_label",
    "truncated_boundary_dA",
    "validate",
    "words_between",
}


def unused_imports(source):
    """Names bound by import statements that nothing else in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_unused_import_scan_catches_a_leftover():
    assert unused_imports("import json\nfrom .x import a, b\nprint(a)\n") == [
        "line 1: json",
        "line 2: b",
    ]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_public_names_are_pinned():
    # The package root resolves its names on first access (PEP 562), so
    # they are pinned through __all__ and dir(), not the module dict.
    assert set(loophomology.__all__) == PUBLIC_NAMES
    public = {
        name
        for name in dir(loophomology)
        if not name.startswith("_")
        and not isinstance(getattr(loophomology, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES


def test_public_names_are_their_modules_objects():
    for name in sorted(PUBLIC_NAMES):
        home = importlib.import_module(f"loophomology.{loophomology._HOME[name]}")
        value = getattr(loophomology, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name
        assert vars(loophomology)[name] is value  # resolved once, then cached
    with pytest.raises(AttributeError, match="no attribute 'cohoch'"):
        loophomology.cohoch


# linalg defines the matrix format and homalg's builder loop fills it
MATRIX_MODULES = ("homalg.py", "linalg.py")


def matrix_format_leaks(source, module):
    """Places outside linalg and homalg that name SparseIntMatrix (to import
    it, call it or one of its class methods), and every read of an
    ``.entries`` attribute but HomologySummary's own ``self.entries``."""
    tree = ast.parse(source)
    summary_self = {
        id(node.value)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "HomologySummary"
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    leaks = []
    for node in ast.walk(tree):
        name = node.name if isinstance(node, ast.alias) else (
            getattr(node, "id", None) or getattr(node, "attr", None)
        )
        if name == "SparseIntMatrix" and module not in MATRIX_MODULES:
            leaks.append(f"line {node.lineno}: SparseIntMatrix")
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "entries"
            and isinstance(node.ctx, ast.Load)
            and id(node.value) not in summary_self
        ):
            leaks.append(f"line {node.lineno}: .entries")
    return sorted(leaks)


def test_matrix_format_scan_catches_a_leak():
    source = (
        "from .homalg import SparseIntMatrix\n"
        "m = homalg.SparseIntMatrix(2, [{}])\n"
        "n = SparseIntMatrix.from_columns(1, [])\n"
        "print(m.entries)\n"
        "class HomologySummary:\n"
        "    def f(self, other):\n"
        "        return self.entries, other.entries\n"
    )
    assert matrix_format_leaks(source, "cobar.py") == [
        "line 1: SparseIntMatrix",
        "line 2: SparseIntMatrix",
        "line 3: SparseIntMatrix",
        "line 4: .entries",
        "line 7: .entries",
    ]
    for module in MATRIX_MODULES:
        assert matrix_format_leaks(source, module) == [
            "line 4: .entries",
            "line 7: .entries",
        ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_matrix_format_stays_in_homalg(path):
    # Matrices are CSC triples defined by linalg and built only by homalg;
    # no package module reads the derived (i, j) view.
    assert matrix_format_leaks(path.read_text(encoding="utf-8"), path.name) == []


# CPython holds a module's whole AST while it compiles the module, so where
# no bytecode cache is read (the benchmark's children) the largest module
# sets every process's compile peak: compiling a module of 4,572 nodes
# grows RSS by ~1.9 MB, its two halves of ~2,500 nodes one after the
# other by ~1.1 MB.
MAX_MODULE_NODES = 2600


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_outgrows_the_compile_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sum(1 for _ in ast.walk(tree)) <= MAX_MODULE_NODES
