"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/tests

The traced-run tests start real CLI processes, about a minute in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from loophomology.simplicial import presentation_from_json, validate  # noqa: E402

SEED_A, SEED_B = 7, 8

# Time metrics whose layer each workload never calls.
ABSENT = {
    "torus-hatcohoch-Z": {
        "homalg.rank_fp_s", "homalg.rank_q_s", "homalg.dd_s", "loopcomplex.face_diff_s", "loopcomplex.formula_diff_s", "verify.chi_sweep_s",
        "verify.phi_s", "verify.self_s",
    },
    "delta3-cohoch-F2": {
        "homalg.snf_s", "homalg.rank_q_s", "homalg.dd_s", "loopcomplex.face_diff_s",
        "loopcomplex.formula_diff_s", "verify.chi_sweep_s", "verify.phi_s", "verify.self_s",
    },
    "delta3-verify": {"homalg.snf_s"},
}
COUNTS = [
    "loopcomplex.face_diff_calls", "loopcomplex.formula_diff_calls", "homalg.reduce_calls",
    "homalg.reduce_nnz", "homalg.reduce_unique_ratio", "cobar.seed_gens", "cobar.slice_gens",
    "cobar.adopted_ratio", "cobar.slice_nnz", "cobar.slice_blocks",
    "cobar.largest_block_share",
]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    saved = run.OUT
    run.OUT = tmp_path_factory.mktemp("out")
    yield run.OUT
    run.OUT = saved


def traced_metrics(workload, seed, tag):
    session = run.Session(workload)
    path, run_id, hash_seed = run.seeded_input(workload, seed, 0)
    spans = run.OUT / f"{tag}.spans.json"
    sample = session.run_child(
        run.traced_argv(workload, path, spans, run_id), session.expected, hash_seed
    )
    assert sample["ok"], session.failures
    doc = json.loads(spans.read_text())
    assert {s[4] for s in doc["spans"]} == {run_id}
    return tracer.layer_metrics(doc)


@pytest.fixture(scope="module")
def traced(out_dir):
    return {
        workload: [traced_metrics(workload, SEED_A, f"{workload}-{k}") for k in range(2)]
        for workload in run.WORKLOADS
    }


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_named_spans_fire_on_their_workloads(traced, workload):
    metrics, absent = traced[workload][0]
    assert set(metrics) | {"trace.overhead_s"} == {
        m["name"] for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    }
    assert set(absent) == ABSENT[workload]
    for name in tracer.TIME_METRICS:
        assert (metrics[name] > 0) == (name not in ABSENT[workload]), name


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_across_traced_runs_of_one_seed(traced, workload):
    (first, _), (second, _) = traced[workload]
    assert {c: first[c] for c in COUNTS} == {c: second[c] for c in COUNTS}
    assert first["homalg.reduce_calls"] > 0 and first["cobar.slice_gens"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_expected_output_holds_for_a_second_seed(out_dir, workload):
    session = run.Session(workload)
    path, _, hash_seed = run.seeded_input(workload, SEED_B, 1)
    sample = session.run_child(run.cli_argv(workload, path), session.expected, hash_seed)
    assert sample["ok"], session.failures


def test_untraced_runs_load_no_tracing_code(out_dir):
    workload = "delta3-verify"
    path, _, _ = run.seeded_input(workload, SEED_A, 0)
    argv = run.cli_argv(workload, path)
    assert not any(str(BENCH_DIR) in a for a in argv[1:3])
    env = dict(run.Session(workload).env)
    done = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], env=env,
                          capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "loophomology.verify" in imported
    assert not imported & {"tracer", "run", "inputs", "spawn"}


def test_relabelling_is_seeded_and_valid():
    first = inputs.relabelled_schema("torus", "3.0")
    assert first == inputs.relabelled_schema("torus", "3.0")
    other = inputs.relabelled_schema("torus", "3.1")
    assert first["name"] == other["name"] == "torus"
    assert set(first["faces"]) != set(other["faces"])
    assert validate(presentation_from_json(json.dumps(first))) == []


def test_time_cap_hit_counts_as_failure_at_the_cap(out_dir, monkeypatch):
    monkeypatch.setattr(run, "CHILD_CAP_S", 1.0)
    session = run.Session("delta3-verify")
    sample = session.run_child([sys.executable, "-c", "import time; time.sleep(30)"], b"", 0)
    assert sample["wall_s"] == 1.0 and not sample["ok"]
    assert session.attempted == 1 and "time cap" in session.failures[0]["reason"]


def test_mismatch_and_exit_code_count_as_failures(out_dir):
    session = run.Session("delta3-verify")
    assert session.run_child([sys.executable, "-c", "print('x')"], b"x\n", 0)["ok"]
    assert not session.run_child([sys.executable, "-c", "print('y')"], b"x\n", 0)["ok"]
    assert not session.run_child([sys.executable, "-c", "raise SystemExit(3)"], b"", 0)["ok"]
    assert session.attempted == 3 and len(session.failures) == 2


def test_self_time_subtracts_child_spans():
    doc = {"spans": [
        ["cli.main", 0.0, 10.0, -1, "r", None],
        ["verify.build_complex_slice", 1.0, 5.0, 0, "r", {"gens": 10, "nnz": 4, "blocks": 3,
                                                          "largest_block": 6}],
        ["cobar.hat_cobar_basis", 1.0, 2.0, 1, "r", 8],
        ["cobar.words_between", 1.5, 1.8, 2, "r", 8],
        ["homalg.homology_of_slice", 6.0, 9.0, 0, "r", None],
        ["homalg.smith_normal_form", 6.0, 8.0, 4, "r", ["Z:1", 4]],
        ["homalg.smith_normal_form", 8.0, 8.5, 4, "r", ["Z:1", 4]],
    ]}
    metrics, absent = tracer.layer_metrics(doc)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["verify.build_s"] == pytest.approx(4.0)
    assert metrics["cobar.basis_s"] == pytest.approx(1.0)
    assert metrics["cobar.close_s"] == pytest.approx(3.0)
    assert metrics["homalg.snf_s"] == pytest.approx(2.5)
    assert metrics["homalg.reduce_unique_ratio"] == 0.5
    assert metrics["cobar.adopted_ratio"] == pytest.approx(0.2)
    assert metrics["cobar.largest_block_share"] == pytest.approx(0.6)
    assert "homalg.rank_fp_s" in absent and "homalg.snf_s" not in absent


def test_calibrated_times_scale_by_the_reference_passes_around_them(out_dir):
    session = run.Session("delta3-verify", calibrated=True)
    first = session.run_child([sys.executable, "-c", "pass"], b"", 0)
    second = session.run_child([sys.executable, "-c", "pass"], b"", 0)
    assert first["reference_pass"][1] == second["reference_pass"][0]
    for sample in (first, second):
        for key, k in (("wall_s", 0), ("cpu_s", 1)):
            mean_pass = sum(p[k] for p in sample["reference_pass"]) / 2
            assert sample[f"scaled_{key}"] == pytest.approx(
                sample[key] * run.calibrate.REFERENCE_S / mean_pass
            )
