"""Workload command lists and the report checker.

Each workload is a list of ``nbcwalk`` CLI commands.  In ``enumerate`` every
``face-numbers`` command gets a random ``--order`` drawn from the workload
seed; by Whitney's theorem the face numbers do not depend on the order, so one
expected report serves every seed while the enumeration engine's pruning work
changes.  ``walk`` and ``certify`` keep the default order.

Expected reports live in ``expected/<workload>.json``; they are the reports
the CLI printed at the commit that introduced this benchmark, written by
``record.py``.  This module imports nothing from nbcwalk.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Absolute tolerance for floats: reports print 12 significant digits, and the
# local-profile gammas near 1e-17 carry BLAS rounding noise in their digits.
FLOAT_ABS_TOL = 1e-9

# Report fields that change with the element order even when the face numbers
# do not.
ORDER_DEPENDENT_FIELDS = frozenset({"input_digest"})


@dataclass(frozen=True)
class Command:
    argv: tuple
    edges: int = 0  # ground-set size; > 0 marks a command that takes a random --order


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple

    @property
    def random_order(self) -> bool:
        return any(c.edges for c in self.commands)


def _cmd(text, edges=0):
    return Command(tuple(text.split()), edges)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            "NBC engine alone: counting, collecting and rooted enumeration on dense graphs, "
            "face-numbers under seeded random orders; chains does no work",
            (
                _cmd("face-numbers --graph complete:8", edges=28),
                _cmd("face-numbers --graph complete_bipartite:4:5", edges=20),
                _cmd("face-numbers --graph complete:8 --truncate 4", edges=28),
                _cmd("nbc-bases --graph complete:7"),
                _cmd("link --graph complete:7 --tau 0"),
            ),
        ),
        Workload(
            "walk",
            "cheap enumeration, so time goes to the Fraction down-up matrix, the dense "
            "eigensolve and the local profile",
            (
                _cmd("walk-gap --graph complete:8 --truncate 4"),
                _cmd("walk-gap --graph complete_bipartite:4:5 --truncate 5"),
                _cmd("local-profile --graph complete_bipartite:4:4"),
            ),
        ),
        Workload(
            "certify",
            "the paper's certificates: rooted link of a sparse truncated gadget, reduction "
            "sandwiches and the verify suite, with repeated work",
            (
                _cmd("gadget link --n 2 --l 16 --report"),
                _cmd("reduce count --graph cycle:5 --m 2 --l 20"),
                _cmd("reduce field --graph cycle:5 --m 2 --l 20"),
                _cmd("reduce opt --graph complete_bipartite:3:4 --vertex-weights 1,2,3,4,5,6,7"),
                _cmd("reduce hardcore --graph complete:3 --r 2"),
                _cmd("verify all"),
            ),
        ),
    )
}


def pass_argvs(workload: Workload, rng: random.Random):
    """The argument lists of one pass; random-order commands draw a fresh
    permutation from rng."""
    out = []
    for c in workload.commands:
        argv = list(c.argv)
        if c.edges:
            order = list(range(c.edges))
            rng.shuffle(order)
            argv += ["--order", ",".join(map(str, order))]
        out.append(argv)
    return out


def load_expected(workload: Workload):
    """Expected {"exit", "report"} per command, in workload order."""
    data = json.loads((EXPECTED_DIR / f"{workload.name}.json").read_text(encoding="utf-8"))
    entries = data["commands"]
    if [e["argv"] for e in entries] != [list(c.argv) for c in workload.commands]:
        raise ValueError(f"expected/{workload.name}.json does not match the workload's commands")
    return entries


def mismatches(actual, expected, skip=frozenset(), path="$"):
    """Differences between two parsed JSON values; floats within
    FLOAT_ABS_TOL, everything else exact.  Top-level keys in skip are ignored."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        keys = (set(expected) | set(actual)) - skip
        out = []
        for key in sorted(keys):
            if key not in actual or key not in expected:
                out.append(f"{path}.{key}: present on one side only")
            else:
                out.extend(mismatches(actual[key], expected[key], path=f"{path}.{key}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(mismatches(a, e, path=f"{path}[{i}]"))
        return out
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=0.0, abs_tol=FLOAT_ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if isinstance(expected, str) and isinstance(actual, str) and _same_text(actual, expected):
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _same_text(actual: str, expected: str) -> bool:
    """Equal text around the numbers, equal integers, and other numbers
    within FLOAT_ABS_TOL; the verify suite's detail lines print measured
    floats."""
    if _NUMBER.split(actual) != _NUMBER.split(expected):
        return False
    a, e = _NUMBER.findall(actual), _NUMBER.findall(expected)
    return len(a) == len(e) and all(
        x == y if x.isdigit() and y.isdigit()
        else math.isclose(float(x), float(y), rel_tol=0.0, abs_tol=FLOAT_ABS_TOL)
        for x, y in zip(a, e)
    )


def check(command: Command, expected, exit_code, stdout):
    """Problems with one command's outcome; an empty list means correct."""
    if exit_code != expected["exit"]:
        return [f"exit code {exit_code}, expected {expected['exit']}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    skip = ORDER_DEPENDENT_FIELDS if command.edges else frozenset()
    return mismatches(report, expected["report"], skip)
