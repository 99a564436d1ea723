"""Fast self-test of the benchmark's report checker.

    python3 nbcbench/selftest.py

Runs the smallest command of each workload through the report checker and
expects it to pass, then feeds the checker a corrupted report, a wrong exit
code and a raised exception and expects each to count toward fail_ratio.
Last, traces one command and checks that the span coverage check passes on it
and fails on a command its spans do not cover.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import random
import sys

from run import SRC, cap_blas_threads, check_pass, run_command, run_pass
from workloads import WORKLOADS, load_expected, mismatches, pass_argvs

# Index of the cheapest command in each workload.
SMALLEST = {"enumerate": 2, "walk": 2, "certify": 4}


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise RuntimeError("deliberate failure")


def _one_command(workload, index, cli, seed=7):
    """(workload, single command, its expected entry, argv, outcome)."""
    argv = pass_argvs(workload, random.Random(seed))[index]
    single = type(workload)(workload.name, workload.why, (workload.commands[index],))
    return single, [load_expected(workload)[index]], [argv], [run_command(cli, argv)]


def _check_tracer(cli, expect):
    """The span coverage check passes on a real traced command and fails when
    a command's timed wall time is not covered by a root span."""
    from nbcwalk import verify
    from tracing import COVERAGE_SLACK_S, Tracer

    argvs = pass_argvs(WORKLOADS["certify"], random.Random(7))[SMALLEST["certify"]:][:1]
    tracer = Tracer()
    original_suite = verify.SUITES["core"]
    tracer.install()
    try:
        expect("tracer rebinds the functions in verify.SUITES",
               verify.SUITES["core"] is not original_suite)
        start, end, seconds, _, _ = run_pass(cli, argvs, tracer)
    finally:
        tracer.uninstall()
    expect("tracer restores verify.SUITES", verify.SUITES["core"] is original_suite)
    expect("span tree of a traced command passes the coverage check",
           tracer.coverage(start, end, seconds)[0])
    longer = [seconds[0] + 5 * COVERAGE_SLACK_S]
    expect("a command longer than its root span fails the coverage check",
           not tracer.coverage(start, end + longer[0], longer)[0])
    expect("a command without a root span fails the coverage check",
           not tracer.coverage(start, end, seconds + [0.0])[0])


def main() -> int:
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from nbcwalk import cli

    failures = []

    def expect(label, condition):
        print(f"{'ok  ' if condition else 'FAIL'} {label}")
        if not condition:
            failures.append(label)

    for name, index in SMALLEST.items():
        single, expected, argvs, outcomes = _one_command(WORKLOADS[name], index, cli)
        problems = check_pass(single, expected, argvs, outcomes)
        expect(f"{name}: {' '.join(argvs[0])} matches its expected report", not problems)

        code, stdout, error = outcomes[0]
        report = json.loads(stdout)
        key = next(k for k, v in sorted(report.items()) if isinstance(v, list))
        report[key] = report[key][:-1]
        corrupted = [(code, json.dumps(report), error)]
        problems = check_pass(single, expected, argvs, corrupted)
        expect(f"{name}: corrupted field {key!r} counts as failed "
               f"(fail_ratio {len(problems)}/{len(argvs)})", len(problems) == 1)

        problems = check_pass(single, expected, argvs, [(3, stdout, None)])
        expect(f"{name}: wrong exit code counts as failed", len(problems) == 1)

        raised = [run_command(_RaisingCli, argvs[0])]
        problems = check_pass(single, expected, argvs, raised)
        expect(f"{name}: uncaught exception counts as failed",
               len(problems) == 1 and "deliberate failure" in problems[0])

    expect("floats within the absolute tolerance match", not mismatches({"g": 1e-17}, {"g": 0.0}))
    expect("floats beyond the tolerance do not", bool(mismatches({"g": 0.25001}, {"g": 0.25})))
    expect("numbers inside detail strings use the same tolerance",
           not mismatches("profile (1e-17,)", "profile (0.0,)")
           and bool(mismatches("46 facets", "47 facets"))
           and bool(mismatches("9007199254740993/2", "9007199254740992/2")))
    expect("an order-randomized command ignores only input_digest",
           bool(mismatches({"n": [1, 2], "input_digest": "a"}, {"n": [1, 3], "input_digest": "b"},
                           skip={"input_digest"})))

    _check_tracer(cli, expect)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
