"""The complexes of a presentation, by name: which ones a space supports and
the recipe of each, from which a slice or the homology pass builds.

The command line and the verify suite share this dispatch.  It imports the
cobar or the free-loop module only for a complex that needs it, so a run
compiles only the models it builds.
"""

from __future__ import annotations

from .homalg import _close_and_build
from .presentation import SimplicialError, adjoin_inverses
from .simplicial import chains_recipe

COMPLEX_NAMES = (
    "chains",
    "cobar",
    "hat-cobar",
    "cohoch",
    "hat-cohoch",
    "hochschild-of-cobar",
)


def supported_complexes(X):
    if X.is_one_reduced():
        return list(COMPLEX_NAMES)
    return [name for name in COMPLEX_NAMES if name not in ("cobar", "cohoch")]


def complex_recipe(X, complex_name, max_word_length=None):
    """The recipe (seeds, differential, truncated_at[, coboundary]) of the
    requested complex of a presentation, from which both
    build_complex_slice and the homology command build.  The fourth
    field, only on an exact free-loop window, is its coboundary kernel,
    through which the homology pass runs the builder loop bottom-up.

    The hat complexes, and the Hochschild complex of a space that is not
    1-reduced, are built over Z(X), the others over X.  What a complex
    needs of its space (a 1-reduced X, or a word-length cap over Z(X) of a
    space that is not 1-reduced, where the complex is then truncated at
    it) its model's recipe decides, and refuses the rest before it returns.
    """
    if complex_name not in COMPLEX_NAMES:
        raise SimplicialError(
            f"unknown complex {complex_name!r}; choices: {', '.join(COMPLEX_NAMES)}"
        )
    if complex_name == "chains":
        return chains_recipe(X)
    if complex_name.startswith("hat-") or (
        complex_name == "hochschild-of-cobar" and not X.is_one_reduced()
    ):
        X = adjoin_inverses(X)
    if complex_name in ("cobar", "hat-cobar"):
        from .cobar import cobar_recipe

        return cobar_recipe(X, max_word_length)
    if complex_name in ("cohoch", "hat-cohoch"):
        from .loopcomplex import cohoch_recipe

        return cohoch_recipe(X, max_word_length)
    from .loopcomplex import hochschild_recipe

    return hochschild_recipe(X, max_word_length)


def build_complex_slice(X, complex_name, max_degree, max_word_length=None):
    """The requested complex of a presentation through max_degree (see
    complex_recipe); a truncated slice carries ``truncated_at``."""
    recipe = complex_recipe(X, complex_name, max_word_length)
    return _close_and_build(recipe, max_degree)
