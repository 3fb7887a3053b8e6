"""Exact-arithmetic homology of based and free loop spaces of finite
simplicial sets, computed from chain-level tensor-word models and
cross-validated by two independent differentials.

The public names resolve on first access (PEP 562), each from the module
that defines it, so importing the package, or one command of its command
line, compiles only the modules in use.
"""

import importlib

# defining module: its public names
_EXPORTS = {
    "linalg": (
        "Chain QQ Ring SparseIntMatrix ZZ parse_ring prime_field smith_normal_form"
    ),
    "homalg": "ComplexSlice HomologySummary check_d_squared homology_of_slice",
    "presentation": (
        "FormalSimplex OpExtension SimplicialError SimplicialSetPresentation "
        "adjoin_inverses aw_coproduct boundary canonical_degeneracy endpoints "
        "face nondeg"
    ),
    "simplicial": (
        "BUILTIN_NAMES builtin_space chains_slice presentation_from_json validate"
    ),
    "cobar": (
        "CobarAlgebra bar_differential cobar_basis cobar_differential "
        "cobar_slice hat_cobar_basis reduce_word truncated_boundary_dA "
        "words_between"
    ),
    "loopcomplex": (
        "cohoch_basis cohoch_differential cohoch_slice "
        "hochschild_differential hochschild_slice"
    ),
    "comparison": "chi contraction_s eta necklical_differential necklical_face phi",
    "freehedra": (
        "FreehedralLabel f_vector face_poset label_faces project_to_simplex "
        "top_label"
    ),
    "complexes": "build_complex_slice",
    "verify": "run_verify select_chi_variant",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
