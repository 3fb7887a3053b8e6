"""The complexes of a presentation, by name: which ones a space supports and
how to build a slice of each.

The command line and the verify suite share this dispatch.  It imports the
cobar or the free-loop module only for a complex that needs it, so a run
compiles only the models it builds.
"""

from __future__ import annotations

from .simplicial import SimplicialError, adjoin_inverses, chains_slice

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


def build_complex_slice(X, complex_name, max_degree, max_word_length=None):
    """Assemble the requested complex of a presentation through max_degree.

    Hat complexes of spaces that are not 1-reduced demand a word-length
    cap; the returned slice then carries ``truncated_at``.
    """
    if complex_name == "chains":
        return chains_slice(X, max_degree)
    if complex_name == "cobar":
        from .cobar import cobar_slice

        return cobar_slice(X, max_degree)
    if complex_name == "hat-cobar":
        from .cobar import cobar_slice

        return cobar_slice(adjoin_inverses(X), max_degree, max_word_length=max_word_length)
    if complex_name == "cohoch":
        from .loopcomplex import cohoch_slice

        return cohoch_slice(X, max_degree, hat=False)
    if complex_name == "hat-cohoch":
        from .loopcomplex import cohoch_slice

        return cohoch_slice(
            adjoin_inverses(X), max_degree, hat=True, max_word_length=max_word_length
        )
    if complex_name == "hochschild-of-cobar":
        from .loopcomplex import hochschild_slice

        if X.is_one_reduced():
            return hochschild_slice(X, max_degree)
        return hochschild_slice(
            adjoin_inverses(X), max_degree, hat=True, word_cap=max_word_length
        )
    raise SimplicialError(
        f"unknown complex {complex_name!r}; choices: {', '.join(COMPLEX_NAMES)}"
    )
