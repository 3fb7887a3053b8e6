"""Loop-homology benchmark: CLI workloads run in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or from anywhere: paths are taken relative to
this file).  The program is the ``loophomology`` package under ``src/``; no
build step is needed beyond the untimed warm-up process that writes its
bytecode cache.

Load model: closed loop, one client.  Each sample is one
``python -m loophomology.cli`` child process, started after the previous one
exited; nothing runs alongside it.

The seed names a sequence of relabellings of the workload's built-in space
(see inputs.py); sample i runs on the i-th.  Samples follow one another
until about ``--seconds`` have passed.  Every sample's stdout is compared with the
stored expected output; a non-zero exit, a time-cap hit or a mismatch counts
as a failure.

The host's speed drifts by up to 1.7 times in phases of seconds to minutes,
so end-to-end times are scaled to a reference speed, measured around every
child with a fixed loop (calibrate.py); the raw figures stay in the record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced runs (tracer.py).  A full
record, environment included, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected"

# A median needs a few samples even when they outlast --seconds.
MIN_SAMPLES = 3
SETUP_PER_SAMPLE = 1
# About ten times the slowest workload; a hit is recorded at the cap.
CHILD_CAP_S = 60.0
# No child starts, or runs on, past this point of a benchmark run.
HARD_LIMIT_S = 170.0

# name: (built-in space, CLI arguments after --space)
WORKLOADS = {
    "torus-hatcohoch-Z": (
        "torus",
        ["homology", "--complex", "hat-cohoch", "--ring", "Z",
         "--max-degree", "3", "--max-word-length", "2"],
    ),
    "delta3-cohoch-F2": (
        "collapsed-delta3",
        ["homology", "--complex", "cohoch", "--ring", "F2", "--max-degree", "5"],
    ),
    "delta3-verify": ("collapsed-delta3", ["verify", "--max-degree", "5"]),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_CODE = "import sys; from loophomology.cli import load_space; load_space(sys.argv[1])"


def cli_argv(workload, space_path):
    """The untraced child: the CLI itself, given only the input file."""
    command, *rest = WORKLOADS[workload][1]
    return [sys.executable, "-m", "loophomology.cli", command, "--space", str(space_path), *rest]


def traced_argv(workload, space_path, spans_path, run_id):
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), run_id, "--",
            *cli_argv(workload, space_path)[3:]]


def setup_argv(space_path):
    return [sys.executable, "-c", SETUP_CODE, str(space_path)]


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are too few samples."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100.0 * k / len(values), sorted(values)[k - 1]


class Session:
    """Spawns and checks children; counts attempts and failures."""

    def __init__(self, workload, calibrated=False):
        self.workload = workload
        # When set, every child is timed between two passes of the
        # reference loop; the pass after one child serves the next as well.
        self.calibrated = calibrated
        self.last_pass = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected = (EXPECTED / f"{workload}.txt").read_bytes()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []

    def run_child(self, argv, expected_stdout, hash_seed):
        """Run one child to completion through spawn.py; a dict of its
        measurements, or None when the hard limit leaves no time to start it."""
        cap = min(CHILD_CAP_S, HARD_LIMIT_S - (time.perf_counter() - self.started))
        if cap < 1.0:
            return None
        self.attempted += 1
        if self.calibrated and self.last_pass is None:
            self.last_pass = calibrate.measure()
        out_path = OUT / f"{self.workload}.stdout"
        err_path = OUT / f"{self.workload}.stderr"
        helper = [sys.executable, "-I", "-S", str(BENCH_DIR / "spawn.py"),
                  str(cap), str(out_path), str(err_path), "--", *argv]
        env = dict(self.env, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.Popen(helper, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            # spawn.py kills the child at the cap; the margin covers its own start.
            out, err = proc.communicate(timeout=cap + 30)
        except BaseException:
            # The helper and its child form their own process group: stop both.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"spawn.py failed: {err.strip()}")
        sample = json.loads(out)
        if sample.pop("killed"):
            sample["wall_s"] = cap
            reason = f"time cap {cap:.0f} s hit"
        elif sample["exit"] != 0:
            reason = f"exit {sample['exit']}: {err_path.read_text(errors='replace')[-300:].strip()}"
        elif out_path.read_bytes() != expected_stdout:
            reason = "stdout differs from the expected output"
        else:
            reason = None
        if reason:
            self.failures.append({"argv": argv[1:], "reason": reason})
        sample["ok"] = reason is None
        if self.calibrated:
            before, after = self.last_pass, calibrate.measure()
            self.last_pass = after
            sample["reference_pass"] = [before, after]
            for key, k in (("wall_s", 0), ("cpu_s", 1)):
                scale = calibrate.REFERENCE_S / ((before[k] + after[k]) / 2)
                sample[f"scaled_{key}"] = sample[key] * scale
        return sample


def seeded_input(workload, seed, i):
    """Write the seed's i-th relabelled input; (path, run id, hash seed).

    The interpreter's string hash seed also changes elimination order, so
    it is fixed per input too: the same seed gives the same work."""
    from inputs import write_seeded_space

    run_id = f"{seed}.{i}"
    path = write_seeded_space(WORKLOADS[workload][0], run_id, OUT / f"{workload}-{run_id}.json")
    return path, run_id, zlib.crc32(run_id.encode())


def sample_inputs(workload, seed, seconds, run_one):
    """Call ``run_one(*input)`` on the seed's inputs 0, 1, 2, ... until
    MIN_SAMPLES ran and one more call would end farther past ``seconds``
    than the run is short of it now; stop early when it returns False.

    Relabelling changes pivot order and with it the work, by 20 % or more on
    delta3-cohoch-F2, so each sample gets an input of its own and a run's
    median spans several orders."""
    begin = time.perf_counter()
    for i in itertools.count():
        start = time.perf_counter()
        if not run_one(*seeded_input(workload, seed, i)):
            return
        now = time.perf_counter()
        if i + 1 >= MIN_SAMPLES and now - begin + (now - start) / 2 >= seconds:
            return


def measure_end_to_end(session, seed, seconds):
    """CLI runs for ``seconds``, each followed by SETUP_PER_SAMPLE set-up runs.

    Set-up is sampled across the whole run, like the CLI.  Times are the
    children's scaled times (see calibrate.py); the record keeps the raw
    medians too."""
    samples, setup = [], []

    def run_one(path, run_id, hash_seed):
        sample = session.run_child(cli_argv(session.workload, path), session.expected, hash_seed)
        if sample is None:
            return False
        samples.append(dict(sample, input=run_id))
        for _ in range(SETUP_PER_SAMPLE):
            sample = session.run_child(setup_argv(path), b"", hash_seed)
            if sample is None:
                return False
            setup.append(sample)
        return True

    sample_inputs(session.workload, seed, seconds, run_one)
    series = {
        "wall_s": [s["scaled_wall_s"] for s in samples],
        "cpu_s": [s["scaled_cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": [s["scaled_wall_s"] for s in setup],
    }
    metrics = {name: statistics.median(values) for name, values in series.items()}
    passes = [p[0] for s in samples for p in s["reference_pass"]]
    record = {
        "samples": samples,
        "setup_samples": setup,
        "raw": {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(s["wall_s"] for s in setup),
            "reference_pass_s": statistics.median(passes),
        },
        "spread": {name: {"n": len(values), "tail": tail_percentile(values)}
                   for name, values in series.items()},
    }
    return metrics, record


def measure_layers(session, seed, seconds):
    """Pairs of untraced and traced runs for ``seconds``; the median of each
    per-layer metric over the traced runs."""
    from tracer import layer_metrics

    untraced, traced, per_run, absent = [], [], [], {}

    def run_one(path, run_id, hash_seed):
        nonlocal absent
        plain = session.run_child(
            cli_argv(session.workload, path), session.expected, hash_seed
        )
        spans_path = OUT / f"{session.workload}-{run_id}.spans.json"
        spans_path.unlink(missing_ok=True)
        sample = session.run_child(
            traced_argv(session.workload, path, spans_path, run_id), session.expected, hash_seed
        )
        if plain is None or sample is None:
            return False
        if spans_path.exists():
            metrics, absent = layer_metrics(json.loads(spans_path.read_text()))
            plain["input"] = sample["input"] = run_id
            untraced.append(plain)
            traced.append(sample)
            per_run.append(metrics)
        return True

    sample_inputs(session.workload, seed, seconds, run_one)
    if not per_run:
        raise SystemExit(f"error: no traced run wrote spans: {session.failures}")
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    # Each traced run against the untraced run of the same input just before
    # it, so that a slow phase of the machine mostly cancels.
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)
    )
    record = {"untraced": untraced, "traced": traced, "per_run": per_run, "absent": absent}
    return metrics, record


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def package_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_workload(workload, seed, seconds, trace):
    session = Session(workload, calibrated=not trace)
    load_before = os.getloadavg()
    path, _, hash_seed = seeded_input(workload, seed, 0)
    # Untimed: writes the bytecode cache and warms the file cache.
    session.run_child(setup_argv(path), b"", hash_seed)
    if trace:
        metrics, record = measure_layers(session, seed, seconds)
    else:
        metrics, record = measure_end_to_end(session, seed, seconds)
    record.update(
        workload=workload,
        seed=seed,
        trace=trace,
        seconds=seconds,
        metrics=metrics,
        attempted=session.attempted,
        failures=session.failures,
        environment={
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "scipy": package_version("scipy"),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "commit": git_commit(),
            "src_sha256": source_digest(),
        },
    )
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return record


def report(record):
    """Human-readable lines for one workload."""
    n_fail = len(record["failures"])
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
        f"  failed_ratio {n_fail}/{record['attempted']} = {n_fail / record['attempted']:.3f}",
    ]
    for failure in record["failures"]:
        lines.append(f"  FAILED {' '.join(failure['argv'][-6:])}: {failure['reason']}")
    if "traced" in record:
        lines.append(f"  medians over {len(record['traced'])} traced runs")
    if "raw" in record:
        raw = record["raw"]
        lines.append(
            f"  times scaled to the reference speed; raw medians: wall {raw['wall_s']:.4g} s, "
            f"cpu {raw['cpu_s']:.4g} s, setup {raw['setup_s']:.4g} s, reference pass "
            f"{raw['reference_pass_s']:.4g} s (nominal {calibrate.REFERENCE_S} s)"
        )
    for name, value in record["metrics"].items():
        line = f"  {name:<32} {value:>14.6g} {unit_of(name)}"
        if name in record.get("spread", {}):
            n, tail = record["spread"][name]["n"], record["spread"][name]["tail"]
            line += f"  median of {n}; " + (
                f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                else "no percentile has 10 samples above it"
            )
        if name in record.get("absent", {}):
            line += f"  (absent: {record['absent'][name]})"
        lines.append(line)
    env = record["environment"]
    lines.append(
        f"  env nproc={env['nproc']} python={env['python']} scipy={env['scipy']} "
        f"load={env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f} "
        f"commit={env['commit']} src={env['src_sha256'][:12]}"
    )
    return "\n".join(lines)


def result_line(records, prefix_names):
    metrics = {}
    for record in records:
        for name, value in record["metrics"].items():
            key = f"{record['workload']}:{name}" if prefix_names else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "loophomology" / "cli.py").is_file():
        sys.stderr.write(f"error: no loophomology sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # Turn a termination request into SystemExit, so that the running child
    # is killed on the way out (see Session.run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        records.append(run_workload(name, args.seed, args.seconds, args.trace))
        print(report(records[-1]), flush=True)
    print(result_line(records, prefix_names=len(records) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
