"""Acceptance suite: one test per criterion, one PASS/FAIL line each
(visible with pytest -s).  Bounds, tolerances and runtime budgets are fixed
here; every expected value is exact integer data."""

import time

from loophomology.cli import cmd_homology
from loophomology.homalg import check_d_squared
from loophomology.linalg import SparseIntMatrix, smith_normal_form
from loophomology.presentation import adjoin_inverses
from loophomology.simplicial import builtin_space
from loophomology.freehedra import f_vector, label_faces, top_label
from loophomology.comparison import necklical_differential, phi_slice_mismatches
from loophomology.loopcomplex import cohoch_basis, cohoch_differential, cohoch_slice
from loophomology.verify import _check_contraction, build_complex_slice, run_verify
from reference import column_dicts, summary_entry


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_freehedra_golden_counts():
    t0 = time.monotonic()
    ok = f_vector(2) == [5, 5, 1] and f_vector(3) == [12, 18, 8, 1]
    for n in range(1, 7):
        ok = ok and len(label_faces(top_label(n))) == 3 * n - 1
    for n in range(6):
        ok = ok and sum((-1) ** i * c for i, c in enumerate(f_vector(n))) == 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(1, ok, f"f-vectors, 3n-1 facets, Euler sums in {elapsed:.2f}s")


def test_criterion_2_d_squared_everywhere():
    t0 = time.monotonic()
    failures = []
    counts = 0
    for name in ("sphere2", "sphere3"):
        X = builtin_space(name)
        for cname in ("chains", "cobar", "cohoch", "hochschild-of-cobar"):
            sl = build_complex_slice(X, cname, 6)
            bad = check_d_squared(sl)
            counts += sum(len(b) for b in sl.bases.values())
            if bad:
                failures.append((name, cname, bad[0]))
    for name in ("circle", "torus", "boundary-delta3"):
        X = builtin_space(name)
        for cname in ("hat-cobar", "hat-cohoch"):
            sl = build_complex_slice(X, cname, 4, max_word_length=4)
            bad = check_d_squared(sl)
            counts += sum(len(b) for b in sl.bases.values())
            if bad:
                failures.append((name, cname, bad[0]))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(
        2,
        ok,
        f"d.d = 0 on {counts} generators across 14 complexes in {elapsed:.1f}s"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_3_differential_agreement():
    mismatches = 0
    total = 0
    first = None
    for name in ("circle", "sphere2", "torus"):
        space = adjoin_inverses(builtin_space(name))
        for n in range(5):
            for gen in cohoch_basis(space, n, max_word_length=4):
                total += 1
                formula = cohoch_differential(space, gen)
                if necklical_differential(space, gen) != formula:
                    mismatches += 1
                    first = first or (name, gen)
    ok = mismatches == 0 and total > 20000
    _report(3, ok, f"{total} generators compared, {mismatches} mismatches")


def test_criterion_4_based_loops_of_sphere2():
    summary = cmd_homology("sphere2", complex_name="cobar", max_degree=8)
    ok = all(e.free_rank == 1 and e.torsion == () for e in summary.entries)
    pattern = [(e.degree, e.free_rank, list(e.torsion)) for e in summary.entries]
    _report(4, ok, f"cobar homology of sphere2 degrees 0..8: {pattern}")


def test_criterion_5_free_loops_of_sphere2_with_oracle():
    t0 = time.monotonic()
    # Independent oracle: on the two-generator-per-degree basis the simplex
    # and word differentials vanish (every proper face is degenerate), and
    # the two wrap terms of d(s (x) [s^k]) both land on v (x) [s^{k+1}]:
    # the lead-letter term contributes -(-1)^{|v'|} with |v'| = 0 and the
    # tail term (-1)^{(|v'|+1)(|v''| + eps)} with |v'| = 2, |v''| = 0,
    # eps = sum of letter degrees plus letter count = 3k.
    top = 7
    bases = {n: [("v", n)] + ([("s", n - 2)] if n >= 2 else []) for n in range(top + 1)}
    diffs = {}
    for n in range(1, top + 1):
        rows = {g: i for i, g in enumerate(bases[n - 1])}
        columns = []
        for kind, k in bases[n]:
            column = {}
            if kind == "s":
                coef = -((-1) ** 0) + (-1) ** ((2 + 1) * (0 + 3 * k))
                if coef:
                    column[rows[("v", k + 1)]] = coef
            columns.append(column)
        diffs[n] = SparseIntMatrix.from_columns(len(bases[n - 1]), columns)
    oracle = []
    for n in range(7):
        gens = len(bases[n])
        f_out, r_out = smith_normal_form(diffs[n]) if n >= 1 else ([], 0)
        f_in, r_in = smith_normal_form(diffs[n + 1])
        oracle.append((n, gens - r_out - r_in, [d for d in f_in if d > 1]))

    expected = [
        (0, 1, []),
        (1, 1, []),
        (2, 1, [2]),
        (3, 1, []),
        (4, 1, [2]),
        (5, 1, []),
        (6, 1, [2]),
    ]
    summary = cmd_homology("sphere2", complex_name="cohoch", max_degree=6)
    library = [(e.degree, e.free_rank, list(e.torsion)) for e in summary.entries]

    # the library matrices must agree entry-for-entry with the oracle build
    sl = cohoch_slice(builtin_space("sphere2"), top)
    matrices_match = True
    relabel = {("v", n): ("v", ("s",) * n) for n in range(top + 1)}
    relabel.update({("s", k): ("s", ("s",) * k) for k in range(top + 1)})
    for n in range(1, top + 1):
        lib = sl.diffs[n]
        lib_rows = {g: i for i, g in enumerate(sl.bases[n - 1])}
        lib_cols = {g: j for j, g in enumerate(sl.bases[n])}
        translated = [{} for _ in range(lib.ncols)]
        for j, column in enumerate(column_dicts(diffs[n])):
            src = relabel[bases[n][j]]
            for i, v in column.items():
                dst = relabel[bases[n - 1][i]]
                translated[lib_cols[src]][lib_rows[dst]] = v
        matrices_match = matrices_match and translated == column_dicts(lib)

    elapsed = time.monotonic() - t0
    ok = oracle == expected == library and matrices_match and elapsed < 10.0
    _report(
        5,
        ok,
        f"oracle == library == frozen pattern, matrices identical, {elapsed:.2f}s",
    )


def test_criterion_6_circle_winding_components():
    results = []
    ok = True
    for L in (1, 2, 3, 4, 5):
        summary = cmd_homology(
            "circle", complex_name="hat-cohoch", max_degree=0, max_word_length=L
        )
        entry = summary_entry(summary, 0)
        results.append((L, entry.free_rank))
        ok = ok and entry.free_rank == 2 * L + 1 and entry.torsion == ()
    _report(6, ok, f"degree-0 free ranks by cap: {results} (expect 2L+1)")


def test_criterion_7_hochschild_vs_cohochschild():
    ok = True
    for ring in ("Q", "F2"):
        hoch = cmd_homology(
            "sphere2", complex_name="hochschild-of-cobar", ring=ring, max_degree=5
        )
        coho = cmd_homology("sphere2", complex_name="cohoch", ring=ring, max_degree=5)
        ok = ok and [e.free_rank for e in hoch.entries] == [
            e.free_rank for e in coho.entries
        ]
    S2 = builtin_space("sphere2")
    slices = [build_complex_slice(S2, name, 5) for name in ("hochschild-of-cobar", "cohoch")]
    mismatches = phi_slice_mismatches(S2, ("rotation",), *slices)["rotation"]
    ok = ok and mismatches == []
    report = run_verify("sphere2", 2)
    recorded = "chi exponent reading: rotation" in report.to_text()
    sweep_line = any(
        r.name == "chi-exponent-sweep" and "rotation: 0 mismatches" in r.detail
        for r in report.results
    )
    ok = ok and recorded and sweep_line
    _report(7, ok, "Betti agreement over Q and F2, phi chain map, exponent recorded")


def test_criterion_8_contraction_nilpotency():
    X = builtin_space("sphere2")
    result = _check_contraction(X, build_complex_slice(X, "hochschild-of-cobar", 5), 5)
    ok = result.status == "pass" and "50 samples" in result.detail
    _report(8, ok, result.detail)


def test_criterion_9_point_sanity():
    ok = True
    for cname in (
        "chains",
        "cobar",
        "hat-cobar",
        "cohoch",
        "hat-cohoch",
        "hochschild-of-cobar",
    ):
        summary = cmd_homology("point", complex_name=cname, max_degree=6)
        entries = [(e.degree, e.free_rank, list(e.torsion)) for e in summary.entries]
        ok = ok and entries == [(0, 1, [])] + [(n, 0, []) for n in range(1, 7)]
    _report(9, ok, "every complex of the point: H_0 = Z, H_1..6 = 0")


def test_criterion_10_determinism():
    first = run_verify("sphere2", 6)
    second = run_verify("sphere2", 6)
    ok = first.to_text() == second.to_text() and first.to_json() == second.to_json()
    third = run_verify("torus", 2, 2)
    fourth = run_verify("torus", 2, 2)
    ok = ok and third.to_text() == fourth.to_text()
    ok = ok and third.to_json() == fourth.to_json()
    _report(10, ok, "verify reports byte-identical across consecutive runs")
