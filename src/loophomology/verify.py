"""Cross-validation suite: every identity the chain models must satisfy.

The checks run in a fixed order and the rendered report is byte-stable, so
two runs on the same inputs diff clean:

1. simplicial identities of the presentation;
2. d.d = 0 for every complex the space supports;
3. term-by-term agreement of the face-operator differential with the
   coalgebra-formula differential on every free-loop generator, the latter
   read from the stored hat-cohoch matrices;
4. the chi sign sweep: the chain-map mismatches of each chi reading on the
   built-in collapsed-delta3 through degree 5, whatever the input space;
   it fails when comparison.DEFAULT_CHI_VARIANT, phi's reading, has any;
5. the chain-map identity for phi (1-reduced spaces), under that reading,
   on the stored hochschild-of-cobar and cohoch matrices;
6. nilpotency of the local contraction on kernel elements sampled from
   the hochschild-of-cobar bases;
7. universal-coefficients consistency of Betti numbers over Q, F2, F3.

The checks do not run in that order.  Each complex is built once, checked
by every check that reads it and dropped before the next is built; only
cohoch is held until hochschild-of-cobar is built, for steps 5 and 6.  The
results are then printed in the order above.

Once the simplicial identities pass, the rest runs in two processes where
the platform can fork, the process may run on two CPUs or more and no other
thread runs.  A forked child runs the chi sweep and checks the complexes
that phi does not read (chains, cobar, hat-cobar, hat-cohoch: d.d, the face
check, universal coefficients), and sends its results back through a pipe
as JSON.  Meanwhile the calling process checks cohoch and
hochschild-of-cobar (d.d, phi, the contraction, universal coefficients).
The child moves itself off the caller's CPU, since a scheduler that does
not balance load leaves a forked child where its parent runs.  Elsewhere,
or when the child exits non-zero or writes nothing, the caller runs the
child's part itself, after its own.  The report is the same either way.
A run's CPU time counts both processes.  Each holds one slice at a time as
before, but together they hold more: the pages that either one writes after
the fork are copied, so the summed Pss of a collapsed-delta3 run through
degree 5 peaks ~4.6 MB above the one process's.
"""

from __future__ import annotations

import json
import os
import random
import threading
from collections import namedtuple
from functools import partial

from . import cobar as cobar_mod
from . import comparison
from .comparison import CHI_VARIANTS, DEFAULT_CHI_VARIANT
from .complexes import build_complex_slice, supported_complexes
from .homalg import check_d_squared, homology_of_slice
from .rings import ZZ, Chain, parse_ring
from .loopcomplex import format_loop_generator
from .presentation import SimplicialError, _shown, adjoin_inverses
from .simplicial import builtin_space, validate


# ---------------------------------------------------------------------------
# The chi sign sweep


_SWEEP_DEGREE = 5  # the sweep's fixture is built through this degree


# the sweep's result, once this process has run it or a forked child has
# sent it back
_SWEPT = []


def select_chi_variant():
    """Check phi's chi exponent reading by demanding that phi be a chain map.

    The sweep runs over the Hochschild generators of a 1-reduced fixture
    whose letters mix even and odd degrees (a collapsed 3-simplex), which
    is what separates the two adjacent-index readings; single-generator
    spheres cannot tell them apart.  Returns (variant, detail, mismatches):
    comparison.DEFAULT_CHI_VARIANT, the sweep's report line, and {reading:
    number of failing generators}.  The fixture's two slices are built as
    run_verify builds the input's, and one walk checks every reading on
    them.  It runs once per process: a run_verify whose forked child ran it
    keeps the child's result here, and a child forked later inherits it.
    """
    if _SWEPT:
        return _SWEPT[0]
    fixture = builtin_space("collapsed-delta3")
    bad = comparison.phi_slice_mismatches(
        fixture,
        CHI_VARIANTS,
        build_complex_slice(fixture, "hochschild-of-cobar", _SWEEP_DEGREE),
        build_complex_slice(fixture, "cohoch", _SWEEP_DEGREE),
    )
    mismatches = {variant: len(bad[variant]) for variant in CHI_VARIANTS}
    detail = (
        f"sweep on {fixture.name} through degree {_SWEEP_DEGREE}: "
        + ", ".join(f"{v}: {mismatches[v]} mismatches" for v in CHI_VARIANTS)
    )
    _SWEPT.append((DEFAULT_CHI_VARIANT, detail, mismatches))
    return _SWEPT[0]


# ---------------------------------------------------------------------------
# Report plumbing


# status is "pass", "fail" or "skip"
CheckResult = namedtuple("CheckResult", "name status detail", defaults=("",))


class VerifyReport(
    namedtuple("VerifyReport", "space_name max_degree max_word_length results")
):
    __slots__ = ()

    @property
    def all_passed(self):
        return all(r.status != "fail" for r in self.results)

    def to_text(self):
        cap = "-" if self.max_word_length is None else str(self.max_word_length)
        name = _shown(self.space_name)
        lines = [
            f"verify {name} (max degree {self.max_degree}, word cap {cap})",
            f"chi exponent reading: {DEFAULT_CHI_VARIANT}",
        ]
        for r in self.results:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}[r.status]
            line = f"  {mark}  {r.name}"
            if r.detail:
                line += f"  [{r.detail}]"
            lines.append(line)
        lines.append("result: " + ("OK" if self.all_passed else "FAILED"))
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "space": self.space_name,
                "max_degree": self.max_degree,
                "max_word_length": self.max_word_length,
                "chi_variant": DEFAULT_CHI_VARIANT,
                "checks": [r._asdict() for r in self.results],
                "ok": self.all_passed,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"


# ---------------------------------------------------------------------------
# The individual checks


def _check_simplicial(X):
    violations = validate(X)
    if violations:
        return CheckResult("simplicial-identities", "fail", violations[0])
    return CheckResult("simplicial-identities", "pass")


def _check_d_squared(name, sl):
    bad = check_d_squared(sl)
    if bad:
        degree, gen = bad[0]
        return CheckResult(
            f"d-squared:{name}",
            "fail",
            f"{len(bad)} generators, first at degree {degree}: {gen}",
        )
    sizes = sum(len(b) for b in sl.bases.values())
    return CheckResult(f"d-squared:{name}", "pass", f"{sizes} generators")


def _check_differential_agreement(X, sl):
    face_terms = comparison._necklical_kernel(adjoin_inverses(X))
    mismatched = 0
    first = None
    total = 0
    for n in sl.degrees():
        if n == 0:
            continue
        index = {g: i for i, g in enumerate(sl.bases.get(n - 1, ()))}
        formula = sl.differential(n)
        for j, gen in enumerate(sl.bases[n]):
            total += 1
            # re-keyed as a stored column: a key outside the basis becomes None
            faces = {index.get(key): c for key, c in face_terms(gen).items()}
            if faces != dict(formula.column(j)):
                mismatched += 1
                if first is None:
                    first = gen
    if mismatched:
        return CheckResult(
            "face-vs-formula-differential",
            "fail",
            f"{mismatched}/{total} generators disagree, first "
            + format_loop_generator(first),
        )
    return CheckResult(
        "face-vs-formula-differential", "pass", f"{total} generators agree"
    )


def _check_phi_chain_map(X, hochschild, cohoch):
    reading = (DEFAULT_CHI_VARIANT,)
    (bad,) = comparison.phi_slice_mismatches(X, reading, hochschild, cohoch).values()
    if bad:
        return CheckResult(
            "phi-chain-map", "fail", f"{len(bad)} generators, first {bad[0]!r}"
        )
    return CheckResult("phi-chain-map", "pass", f"variant {DEFAULT_CHI_VARIANT}")


# the contraction check: kernel samples, the power that must kill each, the seed
_SAMPLES, _MAX_POWER, _SEED = 50, 6, 2026


def _check_contraction(X, hochschild, max_degree):
    algebra = cobar_mod.CobarAlgebra(X)
    # The hochschild-of-cobar bases are exact for a 1-reduced space.
    kernel = []
    for n in range(min(max_degree, 5) + 1):
        for b, u in hochschild.bases.get(n, ()):
            if u == () and comparison.in_rho_kernel(b):
                kernel.append(b)
    if not kernel:
        return CheckResult("contraction-nilpotency", "pass", "kernel empty")
    rng = random.Random(_SEED)
    s = partial(comparison.contraction_s, algebra)
    bar_d = partial(cobar_mod.bar_differential, algebra)

    def homotopy_minus_id(chain):
        out = _termwise(s, _termwise(bar_d, chain))
        out.add_chain(_termwise(bar_d, _termwise(s, chain)), 1)
        out.add_chain(chain, -1)
        return out

    checked = 0
    while checked < _SAMPLES:
        sample = Chain(ZZ)
        for _ in range(rng.randint(1, 3)):
            sample.add(rng.choice(kernel), rng.randint(-3, 3))
        if sample.is_zero:
            continue
        current = sample
        for _ in range(_MAX_POWER):
            current = homotopy_minus_id(current)
            if current.is_zero:
                break
        if not current.is_zero:
            return CheckResult(
                "contraction-nilpotency",
                "fail",
                f"sample did not vanish within {_MAX_POWER} iterations",
            )
        checked += 1
    return CheckResult(
        "contraction-nilpotency", "pass", f"{checked} samples, power <= {_MAX_POWER}"
    )


def _termwise(f, chain):
    """The sum of c * f(key) over the terms c * key of a chain."""
    out = Chain(ZZ)
    for key, c in chain.terms.items():
        out.add_chain(f(key), c)
    return out


def _check_universal_coefficients(name, sl, max_degree):
    top = max_degree - 1  # H_n needs d_{n+1}, which a slice holds below its top only
    if top < 0:
        return CheckResult(
            f"universal-coefficients:{name}",
            "skip",
            f"max degree {max_degree}: no degree below the top to compare",
        )
    fields = [parse_ring("Q"), parse_ring("F2"), parse_ring("F3")]
    for n in range(top + 1):
        dims = [homology_of_slice(sl, n, ring).free_rank for ring in fields]
        if not (dims[0] <= dims[1] and dims[0] <= dims[2]):
            return CheckResult(
                f"universal-coefficients:{name}",
                "fail",
                f"degree {n}: Q {dims[0]}, F2 {dims[1]}, F3 {dims[2]}",
            )
    return CheckResult(f"universal-coefficients:{name}", "pass", f"degrees 0..{top}")


# ---------------------------------------------------------------------------


def _check_complexes(X, names, max_degree, max_word_length):
    """Build each named complex in turn, run every check that reads it and
    drop it before the next build; only cohoch is held until
    hochschild-of-cobar is built, for phi and the contraction.  The results
    in the order they ran."""
    results = []
    cohoch = None
    for name in names:
        try:
            sl = build_complex_slice(X, name, max_degree, max_word_length=max_word_length)
        except SimplicialError as exc:
            results.append(CheckResult(f"d-squared:{name}", "skip", str(exc)))
            continue
        results.append(_check_d_squared(name, sl))
        if name == "hat-cohoch":
            results.append(_check_differential_agreement(X, sl))
        elif name == "cohoch":
            cohoch = sl
        elif name == "hochschild-of-cobar" and cohoch is not None:
            results.append(_check_phi_chain_map(X, sl, cohoch))
            results.append(_check_contraction(X, sl, max_degree))
            cohoch = None
        results.append(_check_universal_coefficients(name, sl, max_degree))
        del sl  # dropped before the next build
    return results


def _sweep_and_check(X, names, max_degree, max_word_length):
    """The chi sweep's detail and mismatches, then _check_complexes."""
    _, detail, mismatches = select_chi_variant()
    return detail, mismatches, _check_complexes(X, names, max_degree, max_word_length)


# ---------------------------------------------------------------------------
# Two processes


# what phi and the contraction read; a forked child takes every other complex
_PHI_READS = ("cohoch", "hochschild-of-cobar")


def _forks():
    """Whether _beside_child hands its first part to a forked child: where
    the platform forks, this process may run on two CPUs or more, and no
    other thread runs (a lock that one held would stay held in the child)."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _this_cpu():
    """The CPU this process runs on (field 39 of /proc/self/stat), or None
    where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _beside_child(theirs, ours):
    """Run theirs() in a forked child while ours() runs here, and return
    ours()'s result and theirs()'s, the latter passed back through a pipe
    as JSON.

    This process runs theirs() itself, after ours(), where _forks() is
    false, no child could be forked, or the child exited non-zero or wrote
    nothing.  The child prints nothing, flushes no buffer it inherited and
    leaves by os._exit.  It is reaped before this returns or raises, and
    killed first when ours() raises.
    """
    if not _forks():
        return ours(), theirs()
    elsewhere = os.sched_getaffinity(0) - {_this_cpu()}
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had
        os.close(read_fd)
        os.close(write_fd)
        return ours(), theirs()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            # where the scheduler does not balance load, a child stays on its
            # parent's CPU and the two take turns, so it moves off by itself
            if elsewhere:
                os.sched_setaffinity(0, elsewhere)
            with open(write_fd, "wb") as pipe:
                pipe.write(json.dumps(theirs()).encode())
            code = 0
        finally:
            os._exit(code)  # also on an exception, which is not printed
    os.close(write_fd)
    data = None
    try:
        with open(read_fd, "rb") as pipe:
            mine = ours()
            data = pipe.read()
    finally:
        if data is None:
            import signal  # only on this path

            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if data and os.waitstatus_to_exitcode(status) == 0:
        return mine, json.loads(data)
    return mine, theirs()


# ---------------------------------------------------------------------------


# the checks that no built complex may run, each with its skip line's detail;
# cohoch exists and is exact only over a 1-reduced space, and there phi and
# the contraction run when hochschild-of-cobar is built beside it
_NOT_RUN = {
    "face-vs-formula-differential": "no hat complex",
    "phi-chain-map": "skipped: not 1-reduced",
    "contraction-nilpotency": "skipped: not 1-reduced",
}


def run_verify(space, max_degree, max_word_length=None):
    """Run the whole suite on a presentation or built-in name.

    An invalid presentation is the whole report: the chi sweep and the
    other checks do not run on garbage data.
    A negative max_degree is refused before anything runs.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, not {max_degree}")
    X = builtin_space(space) if isinstance(space, str) else space
    results = [_check_simplicial(X)]
    if results[0].status == "fail":
        results.append(
            CheckResult("remaining-checks", "skip", "presentation invalid")
        )
        return VerifyReport(X.name, max_degree, max_word_length, results)
    complexes = supported_complexes(X)
    window = (max_degree, max_word_length)
    theirs = [name for name in complexes if name not in _PHI_READS]
    mine = [name for name in complexes if name in _PHI_READS]
    ours, (detail, mismatches, rest) = _beside_child(
        partial(_sweep_and_check, X, theirs, *window),
        partial(_check_complexes, X, mine, *window),
    )
    if not _SWEPT:  # a child's sweep counts as run here
        _SWEPT.append((DEFAULT_CHI_VARIANT, detail, mismatches))
    checks = {r[0]: CheckResult(*r) for r in ours + rest}
    sweep_status = "fail" if mismatches[DEFAULT_CHI_VARIANT] else "pass"
    checks["chi-exponent-sweep"] = CheckResult("chi-exponent-sweep", sweep_status, detail)
    order = [f"d-squared:{name}" for name in complexes]
    order += ["face-vs-formula-differential", "chi-exponent-sweep"]
    order += ["phi-chain-map", "contraction-nilpotency"]
    order += sorted(n for n in checks if n.startswith("universal-coefficients:"))
    results += [checks.get(n) or CheckResult(n, "skip", _NOT_RUN[n]) for n in order]
    return VerifyReport(X.name, max_degree, max_word_length, results)
