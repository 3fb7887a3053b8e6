"""Source hygiene: no unused imports in the package, and a pinned public API."""

import ast
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
    public = {
        name
        for name, value in vars(loophomology).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
