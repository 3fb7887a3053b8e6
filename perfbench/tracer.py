"""Traced CLI run: spans around the public layer functions, from outside.

Run as a script, this wraps the named functions of ``loophomology`` in every
module namespace that binds them, runs ``loophomology.cli.main`` on the
given arguments and, when the CLI returns, writes the spans as JSON:

    python perfbench/tracer.py SPANS.json RUN_ID -- homology --space ...

Spans stay in memory until the end.  Each is (name, start, end, parent
index, run id, info), where info holds the counts read from the call's
arguments and return value.  ``layer_metrics`` turns one such document into
the per-layer metrics.  Nothing here runs in an untraced benchmark run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

BUILD = "verify.build_complex_slice"
VERIFY = "verify.run_verify"
BASIS_SPANS = (
    "cobar.cobar_basis",
    "cobar.hat_cobar_basis",
    "cobar.words_between",
    "cobar.hochschild_basis",
    "loopcomplex.cohoch_basis",
)
BUILD_DIFF_SPANS = ("loopcomplex.cohoch_differential", "loopcomplex.hochschild_differential")
REDUCTION_RINGS = {
    "homalg.smith_normal_form": lambda args: "Z",
    "homalg.rank_mod_p": lambda args: f"F{args[1]}",
    "homalg.rank_over_q": lambda args: "Q",
}


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.retained = []  # keeps noted objects alive so their ids stay unique
        self.missing = []

    def wrap(self, fn, name, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(self, args, result)
            return result

        return traced

    def document(self):
        spans = []
        for name, start, end, parent, info in self.spans:
            if name == BUILD:
                info = slice_structure(info)
            spans.append([name, start, end, parent, self.run_id, info])
        return {"run_id": self.run_id, "spans": spans, "missing": self.missing}


def _note_reduction(name):
    ring_of = REDUCTION_RINGS[name]

    def note(recorder, args, result):
        matrix = args[0]
        if matrix.nnz:
            recorder.retained.append(matrix)
            key = f"{ring_of(args)}:{id(matrix)}"
        else:
            # Zero matrices are made afresh on each request; equal shape is equal work.
            key = f"{ring_of(args)}:zero:{matrix.nrows}x{matrix.ncols}"
        return [key, matrix.nnz]

    return note


def _note_length(recorder, args, result):
    return len(result)


def _note_slice(recorder, args, result):
    # The block structure is computed after the run, outside every span.
    return result


def slice_structure(sl):
    """Generators, nnz and connected blocks of a slice's support graph."""
    offset, start = {}, 0
    for n in sorted(sl.bases):
        offset[n] = start
        start += len(sl.bases[n])
    parent = list(range(start))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    nnz = 0
    for n, mat in sl.diffs.items():
        nnz += mat.nnz
        rows, cols = offset.get(n - 1, 0), offset[n]
        for i, j in mat.entries:
            a, b = find(rows + i), find(cols + j)
            if a != b:
                parent[a] = b
    sizes = defaultdict(int)
    for i in range(start):
        sizes[find(i)] += 1
    return {
        "gens": start,
        "nnz": nnz,
        "blocks": len(sizes),
        "largest_block": max(sizes.values(), default=0),
    }


# (module, function, span name, note)
TARGETS = [
    ("loophomology.cli", "load_space", "cli.load_space", None),
    ("loophomology.verify", "build_complex_slice", BUILD, _note_slice),
    ("loophomology.verify", "run_verify", VERIFY, None),
    ("loophomology.verify", "select_chi_variant", "verify.select_chi_variant", None),
    ("loophomology.cobar", "cobar_basis", "cobar.cobar_basis", _note_length),
    ("loophomology.cobar", "hat_cobar_basis", "cobar.hat_cobar_basis", _note_length),
    ("loophomology.cobar", "words_between", "cobar.words_between", _note_length),
    ("loophomology.cobar", "hochschild_basis", "cobar.hochschild_basis", _note_length),
    ("loophomology.loopcomplex", "cohoch_basis", "loopcomplex.cohoch_basis", _note_length),
    ("loophomology.loopcomplex", "cohoch_differential", "loopcomplex.cohoch_differential", None),
    ("loophomology.loopcomplex", "hochschild_differential",
     "loopcomplex.hochschild_differential", None),
    ("loophomology.loopcomplex", "necklical_differential",
     "loopcomplex.necklical_differential", None),
    ("loophomology.loopcomplex", "chi_chain_map_mismatches",
     "loopcomplex.chi_chain_map_mismatches", None),
    ("loophomology.homalg", "homology_of_slice", "homalg.homology_of_slice", None),
    ("loophomology.homalg", "smith_normal_form", "homalg.smith_normal_form",
     _note_reduction("homalg.smith_normal_form")),
    ("loophomology.homalg", "rank_mod_p", "homalg.rank_mod_p",
     _note_reduction("homalg.rank_mod_p")),
    ("loophomology.homalg", "rank_over_q", "homalg.rank_over_q",
     _note_reduction("homalg.rank_over_q")),
    ("loophomology.homalg", "check_d_squared", "homalg.check_d_squared", None),
]


def install(recorder):
    """Replace every binding of each target in the loaded package modules.

    A target the package no longer defines is skipped and listed in
    ``recorder.missing``; its metrics then read as absent."""
    for module_name, attr, span, note in TARGETS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            recorder.missing.append(span)
            continue
        wrapped = recorder.wrap(original, span, note)
        for name, module in list(sys.modules.items()):
            if name != "loophomology" and not name.startswith("loophomology."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics from one span document

# metric: (span names it times, required parent span or None, self time only)
TIME_METRICS = {
    "homalg.snf_s": (("homalg.smith_normal_form",), None, False),
    "homalg.rank_fp_s": (("homalg.rank_mod_p",), None, False),
    "homalg.rank_q_s": (("homalg.rank_over_q",), None, False),
    "homalg.reduce_s": (("homalg.homology_of_slice",), None, False),
    "homalg.dd_s": (("homalg.check_d_squared",), None, False),
    "verify.build_s": ((BUILD,), None, False),
    "cobar.basis_s": (BASIS_SPANS, BUILD, False),
    "loopcomplex.diff_s": (BUILD_DIFF_SPANS, BUILD, False),
    "cobar.close_s": ((BUILD,), None, True),
    "loopcomplex.face_diff_s": (("loopcomplex.necklical_differential",), VERIFY, False),
    "loopcomplex.formula_diff_s": (("loopcomplex.cohoch_differential",), VERIFY, False),
    "verify.chi_sweep_s": (("verify.select_chi_variant",), None, False),
    "verify.phi_s": (("loopcomplex.chi_chain_map_mismatches",), VERIFY, False),
    "verify.self_s": ((VERIFY,), None, True),
    "simplicial.load_s": (("cli.load_space",), None, False),
    "cli.self_s": (("cli.main",), None, True),
}


def layer_metrics(doc):
    """Per-layer metrics of one traced run, and why any are absent.

    Returns ``(metrics, absent)``: metrics maps each name to a number, and
    absent maps a time metric whose layer was never called to the reason.
    Self time is a span's duration minus the time its child spans cover.
    """
    spans = doc["spans"]
    names = [s[0] for s in spans]
    parent_name = [names[s[3]] if s[3] >= 0 else None for s in spans]
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= dur[i]

    metrics, absent, picked = {}, {}, {}
    for metric, (span_names, parent, self_time) in TIME_METRICS.items():
        picked[metric] = [
            i for i, n in enumerate(names)
            if n in span_names and (parent is None or parent_name[i] == parent)
        ]
        metrics[metric] = sum(((own if self_time else dur)[i] for i in picked[metric]), 0.0)
        if not picked[metric]:
            gone = [n for n in span_names if n in doc.get("missing", ())]
            where = f" under {parent}" if parent else ""
            absent[metric] = (
                f"{' / '.join(gone)} not defined in this version" if gone
                else f"no call to {' / '.join(span_names)}{where} on this workload"
            )
    metrics["loopcomplex.face_diff_calls"] = len(picked["loopcomplex.face_diff_s"])
    metrics["loopcomplex.formula_diff_calls"] = len(picked["loopcomplex.formula_diff_s"])

    reductions = [spans[i][5] for i, n in enumerate(names) if n in REDUCTION_RINGS]
    metrics["homalg.reduce_calls"] = len(reductions)
    metrics["homalg.reduce_nnz"] = sum(nnz for _, nnz in reductions)
    metrics["homalg.reduce_unique_ratio"] = (
        len({key for key, _ in reductions}) / len(reductions) if reductions else 0.0
    )

    # A build with no basis call (the chains complex) takes its simplices as
    # given: all of its generators count as seeds.
    builds = {i: {"seeds": None, **spans[i][5]} for i in picked["verify.build_s"]}
    for i in picked["cobar.basis_s"]:
        build = builds[spans[i][3]]
        build["seeds"] = (build["seeds"] or 0) + spans[i][5]
    gens = sum(b["gens"] for b in builds.values())
    seeds = sum(b["gens"] if b["seeds"] is None else b["seeds"] for b in builds.values())
    biggest = max(builds.values(), key=lambda b: b["largest_block"], default=None)
    metrics["cobar.seed_gens"] = seeds
    metrics["cobar.slice_gens"] = gens
    metrics["cobar.adopted_ratio"] = (gens - seeds) / gens if gens else 0.0
    metrics["cobar.slice_nnz"] = sum(b["nnz"] for b in builds.values())
    metrics["cobar.slice_blocks"] = sum(b["blocks"] for b in builds.values())
    metrics["cobar.largest_block_share"] = (
        biggest["largest_block"] / biggest["gens"] if biggest and biggest["gens"] else 0.0
    )
    return metrics, absent


def main(argv):
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        sys.stderr.write("usage: tracer.py SPANS.json RUN_ID -- CLI-ARGS...\n")
        return 2
    from loophomology import cli

    recorder = Recorder(run_id)
    install(recorder)
    code = recorder.wrap(cli.main, "cli.main")(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(recorder.document(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
