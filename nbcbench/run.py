"""nbcwalk benchmark: run one workload's CLI commands in-process and report.

    python3 nbcbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the repository root.  The commands go through ``nbcwalk.cli.main``
from ``src/`` in this one process.  Passes over the command list repeat while
the median pass still fits in ``--seconds`` (there is always one), and every
report is checked against ``expected/<workload>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` runs one untimed pass and reports the end-to-end metrics:
``peak_rss_mb`` (after that pass), ``setup_s`` (median over fresh
interpreters that import ``nbcwalk.cli`` and build the command list) and
``wall_s`` (a typical timed pass: each command's median time, summed).  Both
times are in reference-host seconds: each command and each interpreter is
timed between two runs of calibrate.py's fixed loop and scaled by the loop's
speed at that moment, so that the host's drifting speed cancels out; the
unscaled times go to the record.  ``--trace 1`` alternates untraced and
traced passes over the same inputs and reports per-layer metrics from the
traced ones (see tracing.py).  Either way the full record, with the
environment, goes to ``out/<workload>-seed<seed>-trace<trace>.json`` beside
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from calibrate import calibrated_s, calibration_s
from workloads import WORKLOADS, check, load_expected, pass_argvs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SPEC_FILE = ROOT / "BENCHMARK.json"
# Most of a traced pass's wall time that may lie outside every root span.
MAX_UNCOVERED_SHARE = 0.01
MAX_RECORDED_PROBLEMS = 20


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Hold BLAS threads at or below the usable cores; must run before numpy
    is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def another_round(deadline, rounds):
    """Always one round, then another while the median round so far still
    ends before the deadline."""
    return not rounds or time.perf_counter() + statistics.median(rounds) <= deadline


def run_command(cli, argv):
    """(exit code, stdout, error text) of one in-process CLI call; an uncaught
    exception gives exit code None and its traceback."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        return None, out.getvalue(), traceback.format_exc(limit=4)
    return code, out.getvalue(), None


def run_pass(cli, argvs, tracer=None, calibrate=False):
    """Run one pass; returns (perf_counter start, end, per-command seconds,
    [(exit code, stdout, error)], calibration seconds).  With calibrate, the
    calibration loop runs before each command and after the last."""
    outcomes, seconds, cals = [], [], []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        if calibrate:
            cals.append(calibration_s())
        if tracer is not None:
            tracer.command_id = i
        t0 = time.perf_counter()
        outcomes.append(run_command(cli, argv))
        seconds.append(time.perf_counter() - t0)
    if calibrate:
        cals.append(calibration_s())
    end = time.perf_counter()
    return start, end, seconds, outcomes, cals


def typical_pass_s(command_seconds):
    """Wall time of a typical pass: each command's median time over the
    passes, summed, so a slow spell during one command does not move the
    others."""
    return sum(statistics.median(times) for times in zip(*command_seconds))


def calibrated(seconds, cals):
    """Each timing in reference-host seconds, against the calibration loop
    timed just before and after it (cals holds one more entry)."""
    return [calibrated_s(s, before, after) for s, before, after in zip(seconds, cals, cals[1:])]


def check_pass(workload, expected, argvs, outcomes):
    """Problem strings for one pass, one entry per failed command."""
    problems = []
    for command, exp, argv, (code, stdout, error) in zip(workload.commands, expected, argvs, outcomes):
        found = [error] if error else check(command, exp, code, stdout)
        if found:
            problems.append(f"{' '.join(argv)}: {'; '.join(found)}")
    return problems


def measure_setup(args):
    """Median over fresh interpreters that import nbcwalk.cli and build the
    command list, in reference-host seconds, after one unmeasured run that
    fills bytecode caches; returns (median, wall seconds, calibrations)."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    times, cals = [], []
    for i in range(SETUP_REPEATS + 1):
        if i:
            cals.append(calibration_s())
        start = time.perf_counter()
        subprocess.run(probe, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    cals.append(calibration_s())
    return statistics.median(calibrated(times, cals)), times, cals


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_runtime_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _blas_runtime_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure(args, workload, expected, cli):
    """An untimed first pass, then timed passes until the time budget is
    spent; returns (metrics, record, attempted, problems)."""
    rng = random.Random(args.seed)
    argvs = pass_argvs(workload, rng)
    problems = check_pass(workload, expected, argvs, run_pass(cli, argvs)[3])
    attempted = len(argvs)
    # Read before the calibration loop first loads BLAS buffers, which the
    # enumerate and certify passes never touch.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, setup_times, setup_cals = measure_setup(args)
    walls, command_seconds, command_cals = [], [], []
    deadline = time.perf_counter() + args.seconds
    while another_round(deadline, walls):
        argvs = pass_argvs(workload, rng)
        start, end, seconds, outcomes, cals = run_pass(cli, argvs, calibrate=True)
        walls.append(end - start)
        command_seconds.append(seconds)
        command_cals.append(cals)
        attempted += len(argvs)
        problems += check_pass(workload, expected, argvs, outcomes)
    metrics = {
        "wall_s": typical_pass_s(map(calibrated, command_seconds, command_cals)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {"pass_wall_s": walls, "command_s": command_seconds, "calibration_s": command_cals,
              "host_wall_s": typical_pass_s(command_seconds),
              "setup_runs_s": setup_times, "setup_calibration_s": setup_cals,
              "host_setup_s": statistics.median(setup_times)}
    return metrics, record, attempted, problems


def measure_traced(args, workload, expected, cli):
    """Pairs of passes over the same inputs, untraced then traced, until the
    time budget is spent; per-layer metrics are medians over traced passes."""
    from tracing import Tracer

    tracer = Tracer()
    rng = random.Random(args.seed)
    per_pass, plain_seconds, traced_seconds, problems, attempted = [], [], [], [], 0
    spans, coverage, pair_walls = None, [], []
    deadline = time.perf_counter() + args.seconds
    while another_round(deadline, pair_walls):
        argvs = pass_argvs(workload, rng)
        start, end, seconds, outcomes, _ = run_pass(cli, argvs)
        plain_wall = end - start
        plain_seconds.append(seconds)
        problems += check_pass(workload, expected, argvs, outcomes)
        tracer.reset()
        tracer.install()
        try:
            start, end, seconds, outcomes, _ = run_pass(cli, argvs, tracer)
        finally:
            tracer.uninstall()
        problems += check_pass(workload, expected, argvs, outcomes)
        attempted += 2 * len(argvs)
        traced_wall = end - start
        traced_seconds.append(seconds)
        ok, uncovered, self_total = tracer.coverage(start, end, seconds)
        coverage.append({"ok": ok, "wall_s": traced_wall, "self_total_s": self_total,
                         "uncovered_s": uncovered})
        if not ok:
            problems.append("span tree does not cover the traced pass's commands")
        elif uncovered > MAX_UNCOVERED_SHARE * traced_wall:
            problems.append(f"spans leave {uncovered:.4f} s of the {traced_wall:.4f} s "
                            "traced pass uncovered")
        tracer.count("cli.report_bytes", sum(len(o[1].encode()) for o in outcomes))
        per_pass.append(tracer.layer_metrics())
        pair_walls.append(plain_wall + traced_wall)
        if spans is None:
            spans = tracer.span_records()
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = typical_pass_s(traced_seconds) - typical_pass_s(plain_seconds)
    record = {"coverage": coverage, "untraced_command_s": plain_seconds,
              "traced_command_s": traced_seconds, "per_pass": per_pass,
              "spans_first_traced_pass": spans}
    return metrics, record, attempted, problems


def declared_units(section):
    """{metric name: unit} for one section of BENCHMARK.json."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nbcwalk" / "cli.py").is_file():
        print(f"error: {SRC / 'nbcwalk'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        import nbcwalk.cli  # noqa: F401  (the import is what set-up time measures)

        pass_argvs(workload, random.Random(args.seed))
        return 0
    expected = load_expected(workload)
    from nbcwalk import cli

    run = measure_traced if args.trace else measure
    metrics, record, attempted, problems = run(args, workload, expected, cli)
    if args.trace:
        metrics["fail_ratio"] = len(problems) / attempted
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "element_order": "random per pass from the seed" if workload.random_order else "default",
        "environment": env,
        "problems": problems[:MAX_RECORDED_PROBLEMS],
        "result": result,
        **record,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env, "record": str(out_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
