"""The demos and the benchmark's self-test run as scripts, as a user would run
them, so an API change that breaks either fails here; every benchmark command
runs in process against its expected report; a fresh interpreter checks what
importing the CLI loads, every example command in README's CLI section and
its Python example must run, so the docs cannot drift from the code, no
package module keeps an import it never uses or a private name nothing in the
package references, and the package exports exactly what it imports."""

import ast
import importlib.util
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nbcwalk import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_cli_lines():
    """The `nbcwalk ...` lines of the first code block in README's CLI section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("nbcwalk ")]


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    done = _run_python(demo)
    assert done.returncode == 0, done.stderr


def test_benchmark_selftest_passes():
    done = _run_python(ROOT / "nbcbench" / "selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("0 failed")


def _load_workloads():
    """nbcbench/workloads.py as a module, without writing its bytecode cache."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "nbcbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()
BENCH_COMMANDS = [
    (name, i) for name, w in sorted(workloads.WORKLOADS.items()) for i in range(len(w.commands))
]


@pytest.mark.parametrize("name,index", BENCH_COMMANDS, ids=[f"{n}-{i}" for n, i in BENCH_COMMANDS])
def test_benchmark_command_matches_its_expected_report(name, index, capsys):
    workload = workloads.WORKLOADS[name]
    argv = workloads.pass_argvs(workload, random.Random(7))[index]
    code = cli.main(argv)
    stdout = capsys.readouterr().out
    expected = workloads.load_expected(workload)[index]
    assert workloads.check(workload.commands[index], expected, code, stdout) == [], argv


def test_cli_import_and_desk_walks_leave_scipy_unloaded():
    # scipy is only for sparse eigensolves above DENSE_EIG_STATES; loading it
    # at import would add its import time to every command.
    code = (
        "import sys, nbcwalk.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert nbcwalk.cli.main(['walk-gap', '--graph', 'complete:5']) == 0\n"
        "assert 'scipy' not in sys.modules, 'walk-gap'\n"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_cli_import_and_enumeration_leave_numpy_unloaded():
    # numpy serves only the eigensolves; a command that does no spectral work
    # should not pay its import.
    code = (
        "import sys, nbcwalk.cli\n"
        "assert nbcwalk.cli.main(['face-numbers', '--graph', 'complete:5']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_readme_cli_block_covers_every_command():
    commands = {line.split()[1] for line in _readme_cli_lines()}
    assert commands == set(cli._DISPATCH)


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_exits_zero(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_python_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_package_modules_use_every_import():
    # __init__.py is left out: its imports are the package's re-exports.
    unused = []
    for path in sorted((ROOT / "src" / "nbcwalk").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert not unused, unused


def test_package_modules_use_every_private_name():
    # A module-level private function, class or constant, or a private method
    # in a module-level class, that no package module names outside its own
    # definition is dead code.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "nbcwalk").glob("*.py"))
    }

    def mentions(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, node.lineno
            elif isinstance(node, ast.alias):
                yield node.asname or node.name, node.lineno

    def definitions(tree):
        for node in tree.body:
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (n for n in node.body if isinstance(n, ast.FunctionDef))

    mentioned = {}
    for module, tree in trees.items():
        for name, line in mentions(tree):
            mentioned.setdefault(name, []).append((module, line))
    dead = []
    for module, tree in trees.items():
        for node in definitions(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                own = range(node.lineno, node.end_lineno + 1)
                if all(m == module and line in own for m, line in mentioned.get(name, ())):
                    dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, dead


def test_package_exports_exactly_its_imports():
    # A name deleted from a module must leave __init__'s imports and __all__
    # together, so neither can keep re-exporting it.
    import nbcwalk

    tree = ast.parse((ROOT / "src" / "nbcwalk" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert len(nbcwalk.__all__) == len(set(nbcwalk.__all__))
    assert set(nbcwalk.__all__) == imported
