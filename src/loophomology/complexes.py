"""The complexes of a presentation, by name: which ones a space supports and
the recipe of each, from which a slice or the homology pass builds.

The command line and the verify suite share this dispatch.  It imports the
cobar or the free-loop module only for a complex that needs it, so a run
compiles only the models it builds.
"""

from __future__ import annotations

from .homalg import _close_and_build
from .simplicial import SimplicialError, adjoin_inverses, chains_recipe

COMPLEX_NAMES = (
    "chains",
    "cobar",
    "hat-cobar",
    "cohoch",
    "hat-cohoch",
    "hochschild-of-cobar",
)


def complex_requires_one_reduced(name):
    return name in ("cobar", "cohoch")


def supported_complexes(X):
    one_reduced = X.is_one_reduced()
    return [
        name
        for name in COMPLEX_NAMES
        if one_reduced or not complex_requires_one_reduced(name)
    ]


def complex_recipe(X, complex_name, max_word_length=None):
    """The recipe (seeds, differential, truncated_at[, coboundary]) of the
    requested complex of a presentation, from which both
    build_complex_slice and the homology command build.  The fourth
    field, only on an exact free-loop window, is its coboundary kernel,
    through which the homology pass runs the builder loop bottom-up.

    The hat complexes, and the Hochschild complex of a space that is not
    1-reduced, are built over Z(X), the others over X.  Over Z(X) of a
    space that is not 1-reduced a word-length cap is mandatory; the
    complex is then truncated at it.
    """
    if complex_name not in COMPLEX_NAMES:
        raise SimplicialError(
            f"unknown complex {complex_name!r}; choices: {', '.join(COMPLEX_NAMES)}"
        )
    if complex_name == "chains":
        return chains_recipe(X)
    space = X
    if complex_requires_one_reduced(complex_name):
        X.require_one_reduced(f"the {complex_name} complex")
    elif complex_name.startswith("hat-") or not X.is_one_reduced():
        space = adjoin_inverses(X)
    if complex_name in ("cobar", "hat-cobar"):
        from .cobar import cobar_recipe

        return cobar_recipe(space, max_word_length)
    if complex_name in ("cohoch", "hat-cohoch"):
        from .loopcomplex import cohoch_recipe

        return cohoch_recipe(space, max_word_length)
    from .loopcomplex import hochschild_recipe

    return hochschild_recipe(space, max_word_length)


def build_complex_slice(X, complex_name, max_degree, max_word_length=None):
    """The requested complex of a presentation through max_degree (see
    complex_recipe); a truncated slice carries ``truncated_at``."""
    recipe = complex_recipe(X, complex_name, max_word_length)
    return _close_and_build(recipe, max_degree)
