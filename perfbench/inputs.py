"""Seeded benchmark inputs: a built-in space under fresh simplex ids.

The seed picks new ids for every simplex and shuffles the listing order of
the simplices and of the face table.  Homology and the verify report do not
depend on labels, so every seed has the same expected output; pivot order
does depend on labels, so timings are comparable only at equal seeds.
"""

from __future__ import annotations

import json
import random
import string

from loophomology.simplicial import builtin_space, presentation_from_json, validate

ID_LETTERS = string.ascii_lowercase
ID_LENGTH = 5


def relabelled_schema(space_name, seed):
    """The schema JSON dict of a built-in space relabelled by ``seed``.

    The space keeps its name, since the CLI prints it.
    """
    X = builtin_space(space_name)
    rng = random.Random(f"{space_name}/{seed}")
    old_ids = X.ids()
    fresh = set()
    while len(fresh) < len(old_ids):
        fresh.add("".join(rng.choice(ID_LETTERS) for _ in range(ID_LENGTH)))
    new_ids = sorted(fresh)
    rng.shuffle(new_ids)
    rename = dict(zip(old_ids, new_ids))

    simplices = {}
    for d in sorted(X.simplices):
        ids = [rename[s] for s in X.simplices[d]]
        rng.shuffle(ids)
        simplices[str(d)] = ids
    face_owners = [s for s in old_ids if X.dim(s) > 0]
    rng.shuffle(face_owners)
    faces = {
        rename[s]: [
            {"deg": list(X.faces[(s, i)].degeneracies), "base": rename[X.faces[(s, i)].base]}
            for i in range(X.dim(s) + 1)
        ]
        for s in face_owners
    }
    return {
        "name": X.name,
        "basepoint": rename[X.basepoint],
        "simplices": simplices,
        "faces": faces,
    }


def write_seeded_space(space_name, seed, path):
    """Write the relabelled space to ``path`` after checking it is valid."""
    text = json.dumps(relabelled_schema(space_name, seed), indent=1) + "\n"
    violations = validate(presentation_from_json(text, source=str(path)))
    if violations:
        raise ValueError(f"seed {seed} relabelling of {space_name} is invalid: {violations[0]}")
    path.write_text(text, encoding="utf-8")
    return path
