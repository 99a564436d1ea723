"""The demos and the benchmark's self-test run as scripts, as a user would run
them, so an API change that breaks either fails here; every benchmark command
runs in process against its expected report; every function the benchmark's
tracer names is a public function of its layer; a fresh interpreter checks what
importing the CLI loads, every example command in README's CLI section and
its Python example must run, so the docs cannot drift from the code, no
package module keeps an import it never uses or a private name nothing in the
package references, the package exports exactly what it imports, and every
export and every public method and property of a package class has a reader
outside the tests.  Every size guard reads the one override switch, which no
function takes as an argument and only the CLI turns on."""

import ast
import importlib.util
import inspect
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nbcwalk import GraphicMatroid, NbcComplex, build_named_graph, cli, verify

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


def _load_bench_module(name):
    """nbcbench/<name>.py as a module, without writing its bytecode cache."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "nbcbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_bench_module("workloads")
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


def _layer_function(name):
    """The function a traced name such as "chains.down_up_matrix" names,
    checked to be a public module-level function its layer defines."""
    layer, attr = name.split(".")
    module = importlib.import_module(f"nbcwalk.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name
    return fn


def test_traced_names_are_public_layer_functions():
    # The tracer wraps only public module-level functions and reads its
    # per-layer metrics off them by name, so a rename or a move into a
    # private helper would leave those metrics silently at zero.
    tracing = _load_bench_module("tracing")
    for name in (*tracing.TIMED, *tracing.NBC_ENUMERATORS, *tracing.WALK_BUILDERS):
        _layer_function(name)
    x = NbcComplex(GraphicMatroid(build_named_graph("complete", 4)))
    for name in tracing.WALK_BUILDERS:
        fn = _layer_function(name)
        required = [
            p for p in inspect.signature(fn).parameters.values() if p.default is p.empty
        ]
        result = fn(*(x, frozenset())[: len(required)])
        assert result.size > 0 and len(result.rows) == result.size, name
    for key, fn in verify.SUITES.items():
        assert inspect.isfunction(fn) and not fn.__name__.startswith("_"), key
        assert getattr(verify, fn.__name__) is fn, key


def test_walks_leave_scipy_unloaded_and_undeclared():
    # Every eigensolve is numpy's: the largest benchmark walks and the link
    # gadget's certificate leave scipy out of the interpreter, no package
    # module imports it, and numpy is the one declared dependency.
    code = (
        "import sys, nbcwalk.cli\n"
        "for argv in (['walk-gap', '--graph', 'complete:8', '--truncate', '4'],\n"
        "             ['walk-gap', '--graph', 'complete_bipartite:4:5', '--truncate', '5'],\n"
        "             ['gadget', 'link', '--n', '2', '--l', '16', '--report']):\n"
        "    assert nbcwalk.cli.main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr
    imported = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert [(f, m) for f, m in imported if m.split(".")[0] == "scipy"] == []
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = ast.literal_eval(re.search(r"^dependencies = (\[.*\])$", pyproject, re.M)[1])
    assert [re.split(r"[<>=!~ ]", d)[0] for d in declared] == ["numpy"]


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


def _mentions(tree, attributes_only=False):
    """(name, line) for every name, attribute and import alias in tree, or
    for every attribute alone."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node.lineno


def _definitions(tree):
    """(name, lines) for every module-level function, class and assigned
    name in tree, and every method of a module-level class."""
    for node in tree.body:
        nodes = [node]
        if isinstance(node, ast.ClassDef):
            nodes += [n for n in node.body if isinstance(n, ast.FunctionDef)]
        for n in nodes:
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                names = [n.name]
            elif isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                yield name, range(n.lineno, n.end_lineno + 1)


def test_package_modules_use_every_private_name():
    # A module-level private function, class or constant, or a private method
    # in a module-level class, that no package module names outside its own
    # definition is dead code.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "nbcwalk").glob("*.py"))
    }
    mentioned = {}
    for module, tree in trees.items():
        for name, line in _mentions(tree):
            mentioned.setdefault(name, []).append((module, line))
    dead = []
    for module, tree in trees.items():
        for name, own in _definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if all(m == module and line in own for m, line in mentioned.get(name, ())):
                dead.append(f"{module}:{own.start} {name}")
    assert not dead, dead


def test_nbc_defines_one_engine():
    # One enumeration engine: a second class in nbc.py with any of the
    # engine protocol's methods would be a second engine to keep in step.
    protocol = {"can_add", "extensions", "push", "pop", "completions"}
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "nbc.py").read_text(encoding="utf-8"))
    engines = {
        node.name: {n.name for n in node.body if isinstance(n, ast.FunctionDef)} & protocol
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    assert {name: methods for name, methods in engines.items() if methods} == {"_GraphicEngine": protocol}


def test_nbc_defines_one_complex_and_one_engine():
    # An element order is the ranking tuple NbcComplex keeps, so nbc.py has
    # no order class beside the complex and its engine.
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "nbc.py").read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == [
        "NbcComplex",
        "_GraphicEngine",
    ]


def test_only_nbc_drives_the_engine():
    # The walk, its facet lister, the engine's bound pass and its live member
    # list are one module's protocol: the branch and bound that prunes the
    # walk sits in nbc.py beside it, and no other package module names any
    # of them; chains lists a matroid's bases through enumerate_nbc_bases.
    protocol = {"_walk", "_facets_through", "completions", "members"}
    named = {
        path.name
        for path in sorted((ROOT / "src" / "nbcwalk").glob("*.py"))
        for name, _ in _mentions(ast.parse(path.read_text(encoding="utf-8")))
        if name in protocol
    }
    assert named == {"nbc.py"}


def test_nbc_tells_the_kinds_apart_once():
    # One switch in nbc.py decides whether an entry point holds an NbcComplex
    # or a bare GraphicMatroid; every other function reads it.
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "nbc.py").read_text(encoding="utf-8"))
    tests = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and "NbcComplex" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    ]
    assert len(tests) == 1


def test_chains_defines_the_two_walks():
    # A local profile is a plain tuple of floats, so chains.py has no class
    # beside the down-up walk and the local walk.
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "chains.py").read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == [
        "DownUpWalk",
        "LocalWalk",
    ]


def test_matroids_defines_one_class():
    # Every complex is a graphic matroid at some rank, so one class says it:
    # no generic base for it to subclass and no truncation wrapper around it.
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "matroids.py").read_text(encoding="utf-8"))
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == ["GraphicMatroid"]


def test_matroids_keeps_no_enumerator():
    # A matroid's bases come from nbc's forest walk, so no second enumerator
    # sits beside it: matroids.py has no module-level constant to budget one,
    # and GraphicMatroid no public method past its independence oracle.
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "matroids.py").read_text(encoding="utf-8"))
    assert [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))] == []
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in methods if not name.startswith("_")} == {
        "check_subset",
        "is_independent",
        "fundamental_circuit",
    }


def test_graphs_defines_one_polynomial_class():
    # The chromatic polynomial and every by-size count (face numbers,
    # independent sets) are one IntPolynomial: no second sequence class.
    tree = ast.parse((ROOT / "src" / "nbcwalk" / "graphs.py").read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["MultiGraph", "IntPolynomial"]


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


def _reader_sources():
    """(path, tree) of every package module but __init__, every demo and
    benchmark script, and README's Python example: the code outside the
    tests that can read the package's names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    yield ROOT / "README.md", ast.parse(readme.split("```python\n", 1)[1].split("```", 1)[0])
    for path in sorted((ROOT / "src" / "nbcwalk").glob("*.py")) + DEMOS + sorted(
        (ROOT / "nbcbench").glob("*.py")
    ):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_export_has_a_reader():
    # A name in __all__ that no package module, demo, benchmark script or
    # README's Python example reads, outside its own definition, is code
    # that only the tests keep.
    import nbcwalk

    read = set()
    for _, tree in _reader_sources():
        own = {(name, line) for name, lines in _definitions(tree) for line in lines}
        read.update(name for name, line in _mentions(tree) if (name, line) not in own)
    assert sorted(set(nbcwalk.__all__) - read) == []


def test_every_public_class_member_has_a_reader():
    # The same for the public methods and properties of the package's
    # classes: each must be read as .name somewhere outside the tests and
    # outside its own definition.
    reads, members = [], []
    for source, tree in _reader_sources():
        reads += [(name, source, line) for name, line in _mentions(tree, attributes_only=True)]
        if source.parent != ROOT / "src" / "nbcwalk":
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += [
                    (f"{cls.name}.{node.name}", node.name, source, node.lineno, node.end_lineno)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]
    unread = [
        label
        for label, name, source, start, end in members
        if not any(n == name and not (s == source and start <= l <= end) for n, s, l in reads)
    ]
    assert unread == []


def _enclosing_function(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, ast.FunctionDef):
            return node.name
    return None


def test_every_size_guard_reads_the_one_override():
    # One switch, errors.FORCED, lifts every size guard: no function takes a
    # force argument, every SizeGuardError is raised under a test that
    # compares its cap first and then reads `not FORCED.get()`, except the two
    # refusals at the recursion limit, which nothing lifts, and only cli.main
    # turns the switch on, through errors.forced.
    params, guarded, unguarded, deep, setters = [], [], [], [], []
    for path in sorted((ROOT / "src" / "nbcwalk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
                params += [where] * ("force" in names)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("forced", "FORCED.set"):
                setters.append((path.name, _enclosing_function(node, parents)))
            elif isinstance(node, ast.Raise) and node.exc is not None and "SizeGuardError" in ast.unparse(node.exc):
                up = parents[node]
                if isinstance(up, ast.ExceptHandler) and ast.unparse(up.type) == "RecursionError":
                    deep.append(_enclosing_function(node, parents))
                elif (
                    isinstance(up, ast.If)
                    and isinstance(up.test, ast.BoolOp)
                    and isinstance(up.test.op, ast.And)
                    and ast.unparse(up.test.values[-1]) == "not FORCED.get()"
                    and "FORCED" not in ast.unparse(up.test.values[0])
                ):
                    guarded.append(where)
                else:
                    unguarded.append(where)
    assert params == []
    assert unguarded == []
    # Eleven refusals of nine named caps, so the scan does find the guards.
    assert len(guarded) == 11
    assert sorted(deep) == ["_independent_sets", "tutte_polynomial"]
    assert sorted(setters) == [("cli.py", "main"), ("errors.py", "forced")]
