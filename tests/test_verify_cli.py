"""Self-check suites and the command-line front end."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nbcwalk import (
    PreconditionError,
    build_named_graph,
    chains,
    cli,
    gadgets,
    graphs,
    nbc,
    run_suite,
    verify,
)
from nbcwalk.cli import main
from nbcwalk.verify import run_spectral_suite


def _count_enumerations(monkeypatch):
    """The complexes enumerate_nbc_bases is called on, one entry per call,
    under every name the package looks it up by."""
    real, calls = nbc.enumerate_nbc_bases, []

    def counting(x, *args, **kwargs):
        calls.append(x)
        return real(x, *args, **kwargs)

    for module in (nbc, cli, gadgets, verify):
        monkeypatch.setattr(module, "enumerate_nbc_bases", counting, raising=False)
    return calls


@pytest.fixture(scope="class")
def suites():
    """Each suite's checks, run once for the whole class."""
    return {name: run_suite(name) for name in ("core", "spectral", "gadgets", "all")}


class TestSuites:
    def test_core_suite_passes(self, suites):
        checks = suites["core"]
        assert checks and all(c.passed for c in checks)

    def test_spectral_suite_passes(self, suites):
        checks = suites["spectral"]
        assert checks and all(c.passed for c in checks)

    def test_gadget_suite_passes(self, suites):
        checks = suites["gadgets"]
        assert checks and all(c.passed for c in checks)

    def test_all_concatenates(self, suites):
        parts = [c.name for key in ("core", "spectral", "gadgets") for c in suites[key]]
        assert [c.name for c in suites["all"]] == parts

    def test_unknown_suite(self):
        with pytest.raises(PreconditionError):
            run_suite("everything")

    def test_check_names_unique(self, suites):
        names = [c.name for c in suites["all"]]
        assert len(names) == len(set(names))

    def test_all_enumerates_each_link_once(self, monkeypatch):
        calls = {}

        def counting_link_facets(*args, **kwargs):
            facets = nbc.link_facets(*args, **kwargs)
            key = frozenset(map(frozenset, facets))
            calls[key] = calls.get(key, 0) + 1
            return facets

        for module in (cli, gadgets, verify):
            monkeypatch.setattr(module, "link_facets", counting_link_facets, raising=False)
        checks = run_suite("all")
        assert all(c.passed for c in checks)
        assert sorted(len(key) for key in calls) == [46, 2510]
        assert set(calls.values()) == {1}

    def test_local_walk_reversible_fails_on_an_asymmetric_walk(self, monkeypatch):
        # Element 0 of C4 lies in 3 facets and element 1 in 2, so a walk whose
        # entry is 1/3 everywhere off the diagonal breaks detailed balance.
        monkeypatch.setattr(chains.LocalWalk, "entry", lambda self, i, j: Fraction(int(i != j), 3))
        (check,) = [c for c in run_spectral_suite() if c.name == "local-walk-reversible"]
        assert not check.passed
        assert check.detail == "detailed balance fails between elements 0 and 1"

    def test_local_walk_reversible_fails_on_a_gap_out_of_range(self, monkeypatch):
        monkeypatch.setattr(verify, "spectral_gap", lambda walk: float("nan"))
        (check,) = [c for c in run_spectral_suite() if c.name == "local-walk-reversible"]
        assert not check.passed
        assert check.detail == "local walk gap nan out of range"

    def test_spectral_suite_enumerates_each_complex_once(self, monkeypatch):
        calls = _count_enumerations(monkeypatch)
        checks = run_spectral_suite()
        assert all(c.passed for c in checks)
        # calls holds every complex, so no two of them share an id.
        assert calls and len({id(x) for x in calls}) == len(calls)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCliReports:
    def test_face_numbers_triangle(self, capsys):
        report = _report(capsys, "face-numbers", "--graph", "complete:3")
        assert report["n"] == [1, 3, 2]
        assert report["log_concave"] is True
        assert "input_digest" in report and "params" in report

    def test_walk_gap_triangle(self, capsys):
        report = _report(capsys, "walk-gap", "--graph", "complete:3")
        assert report["gap"] == 0.5
        assert report["ltg_bound"] == 0.5

    def test_link_gadget_report(self, capsys, monkeypatch):
        calls = []

        def counting_link_facets(*args, **kwargs):
            calls.append(args)
            return nbc.link_facets(*args, **kwargs)

        monkeypatch.setattr(cli, "link_facets", counting_link_facets)
        monkeypatch.setattr(gadgets, "link_facets", counting_link_facets)
        report = _report(capsys, "gadget", "link", "--n", "2", "--l", "2", "--report")
        assert len(calls) == 1
        assert report["S_A_n"] == 4
        assert report["claim_disjoint"] is True
        assert report["facet_count"] == 46
        assert report["paper_bound"] == "12"

    # `gadget link` without --report prints no floats, so its whole output is
    # pinned: exit, stderr and the stdout sha256 recorded at 4928095, with the
    # ground size, truncation rank and tau size spelled out.
    @pytest.mark.parametrize(
        "argv,sizes,sha256",
        [
            ("gadget link --n 2 --l 3", (29, 15, 12), "16dee3d52c5226e78068ddd279c5f6f060f7426fcbf68651cb82d1a43a8ed2cc"),
            ("gadget link --n 3 --l 2 --m 2", (34, 15, 12), "bf2648fdbadba93f0a27ac6b69b9ccdc39bc474085a15e92f93a825db0f8b6a5"),
            ("gadget link --n 1 --l 4 --m 0", (18, 9, 8), "5f80d7d45021543e2c359ba0678c273bed9818c9bb70c6648a8b0febce731f63"),
        ],
    )
    def test_link_gadget_lines_pinned(self, capsys, argv, sizes, sha256):
        code, out, err = _run(capsys, *argv.split())
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", sha256)
        report = json.loads(out)
        assert (report["ground_size"], report["trunc_rank"], report["tau_size"]) == sizes

    def test_weighted_bases_enumerate_once(self, capsys, monkeypatch):
        calls = _count_enumerations(monkeypatch)
        report = _report(capsys, "nbc-bases", "--graph", "cycle:5", "--weights", "1,2,3,4,5")
        assert len(calls) == 1
        assert report["count"] == 4
        assert report["weighted_count"] == "154"

    def test_long_edge_gadget(self, capsys):
        report = _report(capsys, "gadget", "long-edge", "--n", "5")
        assert report["B"] == [0, 2, 4]
        assert report["B_prime"] == [0, 1, 3]
        assert report["common_value"] == "2"
        assert report["distance_squared"] == 4
        assert report["weights"] == ["0", "1", "0", "1", "2"]

    def test_nbc_bases_with_weights(self, capsys, tmp_path):
        instance = {
            "vertices": 3,
            "edges": [[0, 1], [1, 2], [0, 2]],
            "order": [2, 0, 1],
            "weights": ["1/2", "3", "2"],
        }
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        report = _report(capsys, "nbc-bases", "--input", str(path))
        assert report["count"] == 2
        assert report["bases"] == [[0, 2], [1, 2]]
        assert report["weighted_count"] == "7"

    def test_local_profile(self, capsys):
        report = _report(capsys, "local-profile", "--graph", "complete:3")
        assert report["gammas"] == [0.0]
        assert report["ltg_bound"] == 0.5
        assert report["rank"] == 2

    def test_blank_weight_lists_are_empty(self, capsys, tmp_path):
        # A blank --weights is the empty list, as "weights": [] in a file is,
        # and an edgeless graph takes it: the two reports are the same.
        flag = _report(capsys, "nbc-bases", "--graph", "complete:1", "--weights", "")
        path = tmp_path / "one-vertex.json"
        path.write_text('{"vertices": 1, "edges": [], "weights": []}', encoding="utf-8")
        assert _report(capsys, "nbc-bases", "--input", str(path)) == flag
        assert (flag["count"], flag["bases"], flag["weighted_count"]) == (1, [[]], "1")
        report = _report(capsys, "reduce", "opt", "--graph", "complete:0", "--vertex-weights", "")
        assert report["max_independent_weight"] == report["max_nbc_weight"] == "0"
        assert report["equal"] is True and report["nbc_base"] == report["independent_set"] == []

    def test_link_without_tau_lists_the_whole_complex(self, capsys):
        report = _report(capsys, "link", "--graph", "complete:4")
        bases = _report(capsys, "nbc-bases", "--graph", "complete:4")["bases"]
        assert (report["tau"], report["facets"], report["facet_count"]) == ([], bases, 6)

    def test_link_command(self, capsys):
        report = _report(capsys, "link", "--graph", "complete:4", "--tau", "0")
        assert report["tau"] == [0]
        assert report["facet_count"] == len(report["facets"])
        assert all(0 not in f for f in report["facets"])

    def test_reduce_opt(self, capsys):
        report = _report(
            capsys, "reduce", "opt", "--graph", "cycle:4", "--vertex-weights", "1,2,3,4"
        )
        assert report["equal"] is True
        assert report["max_independent_weight"] == "6"
        assert report["recovered_set"] == [1, 3]

    def test_reduce_count(self, capsys):
        report = _report(capsys, "reduce", "count", "--graph", "cycle:5", "--m", "2", "--l", "20")
        assert report["verdict"] is True
        assert report["target"] == "2510"

    def test_reduce_field(self, capsys):
        report = _report(capsys, "reduce", "field", "--graph", "cycle:5", "--m", "2", "--l", "10")
        assert report["verdict"] is True
        assert report["target"] == "760"

    def test_reduce_hardcore(self, capsys):
        report = _report(capsys, "reduce", "hardcore", "--graph", "complete:3", "--r", "2")
        assert report["all_identities_hold"] is True
        assert report["counts_copies"] == [1, 16, 64]

    def test_oracle_chromatic(self, capsys):
        report = _report(capsys, "oracle", "chromatic", "--graph", "complete:3")
        assert report["coefficients"] == [0, 2, -3, 1]
        assert report["at_minus_one"] == -6

    def test_oracle_acyclic(self, capsys):
        report = _report(capsys, "oracle", "acyclic", "--graph", "complete:3")
        assert report["count"] == 6

    def test_oracle_indep(self, capsys):
        report = _report(capsys, "oracle", "indep", "--graph", "cycle:5")
        assert report["counts"] == [1, 5, 5]

    def test_oracle_parking(self, capsys):
        report = _report(capsys, "oracle", "parking", "--graph", "complete:3", "--root", "0")
        assert report["count"] == 3

    def test_oracle_hardcore(self, capsys):
        report = _report(capsys, "oracle", "hardcore", "--graph", "cycle:5", "--fugacity", "2")
        assert report["partition_function"] == "31"

    def test_verify_exits_zero_with_flag(self, capsys):
        report = _report(capsys, "verify", "core")
        assert report["suite"] == "core"
        assert report["all_passed"] is True
        assert all({"name", "passed", "detail"} <= set(c) for c in report["checks"])

    def test_truncate_flag(self, capsys):
        report = _report(capsys, "face-numbers", "--graph", "cycle:5", "--truncate", "2")
        assert report["n"] == [1, 5, 4]

    def test_order_flag(self, capsys):
        report = _report(capsys, "nbc-bases", "--graph", "complete:3", "--order", "2,0,1")
        assert report["bases"] == [[0, 2], [1, 2]]


_K3 = b'{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "order": %s}'
# name -> (exit code, instance file bytes or None, argv); "{file}" is that
# file and "{tmp}" a writable directory.
ERROR_CASES = {
    "non-utf8-input": (1, b'\xff\xfe{"vertices": 1, "edges": []}', ["face-numbers", "--input", "{file}"]),
    "out-in-missing-dir": (2, None, ["face-numbers", "--graph", "complete:3", "--out", "{tmp}/no/x.json"]),
    "out-is-a-dir": (2, None, ["face-numbers", "--graph", "complete:3", "--out", "{tmp}"]),
    "order-float-and-bools": (1, _K3 % b"[2.0, true, false]", ["face-numbers", "--input", "{file}"]),
    "order-string": (1, _K3 % b'[0, 1, "2"]', ["face-numbers", "--input", "{file}"]),
    "deep-chromatic": (3, None, ["oracle", "chromatic", "--graph", "path:1200", "--force-size"]),
    "deep-indep": (3, None, ["oracle", "indep", "--graph", "path:2500", "--force-size"]),
    "deep-hardcore": (3, None, ["oracle", "hardcore", "--graph", "path:2500", "--force-size"]),
    "top-level-list": (1, b"[3, []]", ["face-numbers", "--input", "{file}"]),
    "edges-not-a-list": (1, b'{"vertices": 3, "edges": 5}', ["face-numbers", "--input", "{file}"]),
    "truncate-string": (
        1,
        b'{"vertices": 3, "edges": [[0, 1]], "truncate": "2"}',
        ["face-numbers", "--input", "{file}"],
    ),
    "weights-wrong-length": (
        1,
        b'{"vertices": 3, "edges": [[0, 1], [1, 2]], "weights": ["1"]}',
        ["nbc-bases", "--input", "{file}"],
    ),
    "graph-spec-not-integer": (2, None, ["face-numbers", "--graph", "complete:x"]),
    "order-not-integer": (2, None, ["face-numbers", "--graph", "complete:3", "--order", "0,a"]),
    "weights-flag-wrong-length": (2, None, ["nbc-bases", "--graph", "cycle:3", "--weights", "1,2"]),
    "gadget-link-n-0": (2, None, ["gadget", "link", "--n", "0", "--l", "2"]),
}


class TestCliContract:
    def test_determinism(self, capsys):
        a = _run(capsys, "walk-gap", "--graph", "cycle:4")
        b = _run(capsys, "walk-gap", "--graph", "cycle:4")
        assert a == b

    def test_out_duplicates_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = _run(capsys, "face-numbers", "--graph", "complete:3", "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").strip() == stdout.strip()

    def test_digest_depends_on_input(self, capsys):
        a = _report(capsys, "face-numbers", "--graph", "complete:3")
        b = _report(capsys, "face-numbers", "--graph", "cycle:4")
        assert a["input_digest"] != b["input_digest"]

    @staticmethod
    def _file_digest(capsys, tmp_path, argv, **keys):
        c5 = {"vertices": 5, "edges": [list(e) for e in build_named_graph("cycle", 5).edges]}
        path = tmp_path / "c5.json"
        path.write_text(json.dumps({**c5, **keys}), encoding="utf-8")
        return _report(capsys, *argv, "--input", str(path))["input_digest"]

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("reduce", "count", "--m", "2", "--l", "10"), "order", [4, 3, 2, 1, 0]),
            (("face-numbers",), "weights", ["1", "2", "3", "4", "5"]),
            (("oracle", "indep"), "weights", ["1", "2", "3", "4", "5"]),
        ],
        ids=["reduce count order", "face-numbers weights", "oracle indep weights"],
    )
    def test_digest_ignores_a_file_key_the_command_does_not_take(self, capsys, tmp_path, argv, key, value):
        from_file = self._file_digest(capsys, tmp_path, argv, **{key: value})
        assert from_file == _report(capsys, *argv, "--graph", "cycle:5")["input_digest"]

    def test_digest_keeps_a_file_key_the_command_takes(self, capsys, tmp_path):
        weights = ["1", "2", "3", "4", "5"]
        from_file = self._file_digest(capsys, tmp_path, ("nbc-bases",), weights=weights)
        assert from_file != self._file_digest(capsys, tmp_path, ("nbc-bases",))
        flagged = _report(capsys, "nbc-bases", "--graph", "cycle:5", "--weights", ",".join(weights))
        assert from_file == flagged["input_digest"]

    def test_seed_flag_accepted(self, capsys):
        report = _report(capsys, "face-numbers", "--graph", "complete:3", "--seed", "7")
        assert report["params"]["seed"] == 7

    def test_missing_input_is_exit_two(self, capsys):
        code, _, err = _run(capsys, "face-numbers")
        assert code == 2 and err.strip()

    def test_both_inputs_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices": 1, "edges": []}', encoding="utf-8")
        code, _, _ = _run(capsys, "face-numbers", "--input", str(path), "--graph", "complete:3")
        assert code == 2

    def test_unreadable_file_is_exit_one(self, capsys):
        code, _, err = _run(capsys, "face-numbers", "--input", "/nonexistent.json")
        assert code == 1 and len(err.strip().splitlines()) == 1

    def test_invalid_json_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert _run(capsys, "face-numbers", "--input", str(path))[0] == 1

    def test_schema_violations_are_exit_one(self, capsys, tmp_path):
        cases = [
            '{"edges": []}',
            '{"vertices": "3", "edges": []}',
            '{"vertices": 3, "edges": [[0]]}',
            '{"vertices": 3, "edges": [[0, 1]], "order": [1]}',
            '{"vertices": 3, "edges": [[0, 1]], "weights": ["x"]}',
            '{"vertices": 3, "edges": [[0, 0]]}',
            '{"vertices": 3, "edges": [], "color": 1}',
        ]
        for body in cases:
            path = tmp_path / "case.json"
            path.write_text(body, encoding="utf-8")
            code, _, err = _run(capsys, "face-numbers", "--input", str(path))
            assert code == 1, body
            assert err.strip()

    def test_precondition_is_exit_two(self, capsys):
        assert _run(capsys, "face-numbers", "--graph", "cycle:2")[0] == 2
        assert _run(capsys, "face-numbers", "--graph", "cycle:5", "--truncate", "9")[0] == 2
        assert _run(capsys, "link", "--graph", "complete:3", "--tau", "1,2")[0] == 2

    def test_size_guard_is_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 50)
        code, out, err = _run(capsys, "oracle", "chromatic", "--graph", "complete:8")
        assert (code, out) == (3, "")
        assert err == (
            "error: more than TUTTE_MAX_MINORS=50 distinct minors, "
            "counting one more per KiB of each one's classes and polynomial\n"
        )

    def test_force_size_overrides(self, capsys, monkeypatch):
        expected = _report(capsys, "oracle", "chromatic", "--graph", "complete:8")
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 50)
        report = _report(capsys, "oracle", "chromatic", "--graph", "complete:8", "--force-size")
        assert report["degree"] == 8
        assert report["coefficients"] == expected["coefficients"]

    @pytest.mark.parametrize(
        "argv",
        [
            "oracle chromatic --input {file}",
            "oracle parking --input {file} --root 0",
            "oracle acyclic --graph complete_bipartite:20:20",
            "oracle chromatic --graph complete:100",
            "oracle chromatic --graph complete:200",
        ],
        ids=["gadget-l8-chromatic", "gadget-l8-parking", "k20-20-acyclic", "k100-chromatic", "k200-chromatic"],
    )
    def test_the_tutte_budget_refuses_within_a_gigabyte(self, tmp_path, argv):
        """A child interpreter under a 1 GiB address-space limit and a time
        limit.  The graph of the K2,2 link gadget at l = 8 (69 edges) meets
        tens of thousands of minors; K20,20's few minors hold polynomials of
        many KiB; the first descent on K100 or K200 passes through hundreds of
        minors of thousands of classes each before any of them is finished.
        Each must refuse on the budget, not run out of memory."""
        g = gadgets.build_link_gadget(build_named_graph("complete_bipartite", 2, 2), 8, 2).matroid.graph
        path = tmp_path / "gadget.json"
        path.write_text(json.dumps({"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}))
        limit = 1 << 30
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from nbcwalk import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv.format(file=path).split()],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        refusal = (
            "error: more than TUTTE_MAX_MINORS=20000 distinct minors, "
            "counting one more per KiB of each one's classes and polynomial\n"
        )
        assert (done.returncode, done.stderr, done.stdout) == (3, refusal, "")

    def test_bad_flags_are_exit_two(self, capsys):
        assert main(["face-numbers", "--no-such-flag"]) == 2
        assert main(["no-such-command"]) == 2
        capsys.readouterr()
        bad_rationals = [
            ("reduce", "opt", "--graph", "cycle:4", "--vertex-weights", "1,x,3,4"),
            ("oracle", "hardcore", "--graph", "cycle:5", "--fugacity", "1/0"),
            ("nbc-bases", "--graph", "cycle:4", "--weights", "1,2,x,4"),
        ]
        for argv in bad_rationals:
            code, out, err = _run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("code, body, argv", ERROR_CASES.values(), ids=list(ERROR_CASES))
    def test_error_is_one_line_and_its_exit_code(self, capsys, tmp_path, code, body, argv):
        path = tmp_path / "instance.json"
        if body is not None:
            path.write_bytes(body)
        argv = [a.format(file=path, tmp=tmp_path) for a in argv]
        got, out, err = _run(capsys, *argv)
        assert (got, out) == (code, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_deep_face_walk_is_exit_three(self, capsys, monkeypatch):
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", 5000)
        code, out, err = _run(capsys, "face-numbers", "--graph", "path:1200")
        assert code == 3 and out == ""
        assert "MAX_NBC_FACES=5000" in err and "Traceback" not in err

    def test_sparse_no_convergence_is_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "_LANCZOS_STEPS", 2)
        code, out, err = _run(capsys, "walk-gap", "--graph", "complete:8", "--truncate", "4")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "1665-state" in err

    def test_walk_gap_refuses_before_building_the_walk(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "MAX_EIG_STATES", 5)
        built = []

        def counting_down_up_matrix(x):
            built.append(x)
            return chains.down_up_matrix(x)

        monkeypatch.setattr(cli, "down_up_matrix", counting_down_up_matrix)
        code, _, err = _run(capsys, "walk-gap", "--graph", "complete:4")
        assert code == 3 and "6 states exceeds MAX_EIG_STATES=5" in err
        assert built == []
        report = _report(capsys, "walk-gap", "--graph", "complete:4", "--force-size")
        assert report["params"]["force_size"] is True and len(built) == 1

    def test_walk_gap_checks_face_subsets_before_the_walk(self, capsys, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "down_up_matrix", counting(chains.down_up_matrix))
        monkeypatch.setattr(cli, "spectral_gap", counting(chains.spectral_gap))
        code, out, err = _run(capsys, "walk-gap", "--graph", "disjoint_union_of_copies:complete:4:4")
        assert code == 3 and out == ""
        assert err == "error: 1296 facets of size 12 exceed MAX_FACE_SUBSETS=2000000\n"
        assert calls == []

    def test_local_profile_face_subset_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "MAX_FACE_SUBSETS", 40)
        code, out, err = _run(capsys, "local-profile", "--graph", "complete:4")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "6 facets of size 3 exceed MAX_FACE_SUBSETS=40" in err
        report = _report(capsys, "local-profile", "--graph", "complete:4", "--force-size")
        assert report["params"]["force_size"] is True and len(report["gammas"]) == 2

    def test_long_edge_force_size_lifts_the_face_guard(self, capsys, monkeypatch):
        # The certificate collects no bases, so MAX_NBC_BASES does not bound
        # it; MAX_NBC_FACES bounds the walk of its branch and bound.
        argv = ("gadget", "long-edge", "--n", "7")
        expected = _run(capsys, *argv)
        forced = _report(capsys, *argv, "--force-size")
        monkeypatch.setattr(nbc, "MAX_NBC_BASES", 1)
        assert _run(capsys, *argv) == expected
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", 5)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err.splitlines() == ["error: more than MAX_NBC_FACES=5 NBC faces visited"]
        assert _report(capsys, *argv, "--force-size") == forced

    def test_long_edge_refuses_at_once_only_from_rank_21(self, capsys):
        # The branch and bound visits 1197 faces at n = 39 (rank 20), but the
        # walk refuses up front once 2^rank exceeds MAX_NBC_FACES.
        for n in ("27", "39"):
            assert _report(capsys, "gadget", "long-edge", "--n", n)["verified"] is True
        message = "error: more than MAX_NBC_FACES=2000000 NBC faces visited\n"
        assert _run(capsys, "gadget", "long-edge", "--n", "41") == (3, "", message)
        report = _report(capsys, "gadget", "long-edge", "--n", "41", "--force-size")
        assert report["verified"] is True and report["common_value"] == "20"

    def test_local_profile_force_size_lifts_the_base_guard(self, capsys, monkeypatch):
        expected = _run(capsys, "local-profile", "--graph", "complete:4", "--force-size")
        monkeypatch.setattr(nbc, "MAX_NBC_BASES", 3)
        code, out, err = _run(capsys, "local-profile", "--graph", "complete:4")
        assert (code, out, err) == (3, "", "error: more than MAX_NBC_BASES=3 NBC bases\n")
        assert _run(capsys, "local-profile", "--graph", "complete:4", "--force-size") == expected

    def test_reduce_opt_counts_only_the_faces_it_visits(self, capsys, monkeypatch):
        # The maximizer collects no bases, so MAX_NBC_BASES does not bound
        # it; MAX_NBC_FACES counts the faces its walk visits.
        argv = ("reduce", "opt", "--graph", "complete_bipartite:3:4",
                "--vertex-weights", "1,2,3,4,5,6,7")
        expected = _run(capsys, *argv)
        forced = _report(capsys, *argv, "--force-size")
        monkeypatch.setattr(nbc, "MAX_NBC_BASES", 1)
        assert _run(capsys, *argv) == expected
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", 300)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err.splitlines() == ["error: more than MAX_NBC_FACES=300 NBC faces visited"]
        assert _report(capsys, *argv, "--force-size") == forced

    def test_long_edge_ground_guard_is_exit_three(self, capsys):
        code, out, err = _run(capsys, "gadget", "long-edge", "--n", "5001")
        assert (code, out) == (3, "")
        assert err == "error: ground size 5001 exceeds MAX_GADGET_GROUND=5000\n"


_RUN = {"--seed", "--out"}
_SIZED = _RUN | {"--force-size"}
_INSTANCE = _SIZED | {"--input", "--graph"}
_ORDERED = _INSTANCE | {"--order", "--truncate"}

# (command, kind) -> the flags its handler reads.
FLAGS = {
    ("face-numbers", None): _ORDERED,
    ("nbc-bases", None): _ORDERED | {"--weights"},
    ("walk-gap", None): _ORDERED,
    ("local-profile", None): _ORDERED,
    ("link", None): _ORDERED | {"--tau"},
    ("gadget", "long-edge"): _SIZED | {"--n"},
    ("gadget", "link"): _SIZED | {"--n", "--l", "--m", "--report"},
    ("reduce", "opt"): _INSTANCE | {"--vertex-weights"},
    ("reduce", "count"): _INSTANCE | {"--m", "--l"},
    ("reduce", "field"): _INSTANCE | {"--m", "--l"},
    ("reduce", "hardcore"): _INSTANCE | {"--r"},
    ("oracle", "chromatic"): _INSTANCE,
    ("oracle", "acyclic"): _INSTANCE,
    ("oracle", "indep"): _INSTANCE,
    ("oracle", "parking"): _INSTANCE | {"--root"},
    ("oracle", "hardcore"): _INSTANCE | {"--fugacity"},
    ("verify", None): _RUN,
}

# One valid command line per (command, kind), and one flag that pair does not take.
REMOVED_FLAG = {
    ("face-numbers", None): (("face-numbers", "--graph", "complete:3"), ("--weights", "1,2,3")),
    ("nbc-bases", None): (("nbc-bases", "--graph", "complete:3"), ("--tau", "0")),
    ("walk-gap", None): (("walk-gap", "--graph", "complete:3"), ("--weights", "1,2,3")),
    ("local-profile", None): (("local-profile", "--graph", "complete:3"), ("--tau", "0")),
    ("link", None): (("link", "--graph", "complete:4", "--tau", "0"), ("--weights", "1,2,3,4,5,6")),
    ("gadget", "long-edge"): (("gadget", "long-edge", "--n", "5"), ("--l", "2")),
    ("gadget", "link"): (("gadget", "link", "--n", "2", "--l", "2"), ("--graph", "complete:3")),
    ("reduce", "opt"): (
        ("reduce", "opt", "--graph", "cycle:4", "--vertex-weights", "1,2,3,4"),
        ("--truncate", "2"),
    ),
    ("reduce", "count"): (
        ("reduce", "count", "--graph", "cycle:5", "--m", "2", "--l", "20"),
        ("--order", "0,1,2,3,4"),
    ),
    ("reduce", "field"): (
        ("reduce", "field", "--graph", "cycle:5", "--m", "2", "--l", "10"),
        ("--weights", "1,1,1,1,1"),
    ),
    ("reduce", "hardcore"): (
        ("reduce", "hardcore", "--graph", "complete:3", "--r", "2"),
        ("--m", "1"),
    ),
    ("oracle", "chromatic"): (("oracle", "chromatic", "--graph", "complete:3"), ("--root", "1")),
    ("oracle", "acyclic"): (("oracle", "acyclic", "--graph", "complete:3"), ("--order", "0,1,2")),
    ("oracle", "indep"): (("oracle", "indep", "--graph", "cycle:5"), ("--fugacity", "2")),
    ("oracle", "parking"): (("oracle", "parking", "--graph", "complete:3"), ("--truncate", "1")),
    ("oracle", "hardcore"): (("oracle", "hardcore", "--graph", "cycle:5"), ("--root", "0")),
    ("verify", None): (("verify", "all"), ("--graph", "complete:3")),
}


def _flag_sets(parser):
    """(command, kind) -> the option strings of that pair's parser, help excluded."""

    def kinds(p):
        subparsers = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
        return subparsers[0].choices if subparsers else None

    out = {}
    for command, p in kinds(parser).items():
        for kind, q in (kinds(p) or {None: p}).items():
            actions = [a for a in q._actions if not isinstance(a, argparse._HelpAction)]
            out[(command, kind)] = {s for a in actions for s in a.option_strings}
    return out


class TestCliFlags:
    def test_each_pair_takes_exactly_the_flags_it_reads(self):
        flags = _flag_sets(cli._build_parser())
        assert flags == FLAGS
        assert sum(len(f) for f in flags.values()) == 103
        assert set(REMOVED_FLAG) == set(FLAGS)

    @pytest.mark.parametrize("pair", list(REMOVED_FLAG), ids=lambda p: " ".join(filter(None, p)))
    def test_flag_the_pair_does_not_take_is_exit_two(self, capsys, pair):
        argv, extra = REMOVED_FLAG[pair]
        assert extra[0] not in FLAGS[pair]
        cli._build_parser().parse_args(argv)  # the line parses without the extra flag
        code, out, err = _run(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (("gadget", "long-edge"), "--n"),
            (("gadget", "link", "--n", "2"), "--l"),
            (("reduce", "count", "--graph", "cycle:5", "--m", "2"), "--l"),
            (("reduce", "field", "--graph", "cycle:5", "--l", "10"), "--m"),
            (("reduce", "opt", "--graph", "cycle:4"), "--vertex-weights"),
            (("reduce", "hardcore", "--graph", "complete:3"), "--r"),
            (("oracle", "indep"), "--input --graph"),
            (("gadget",), "kind"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else v,
    )
    def test_missing_required_flag_is_exit_two(self, capsys, argv, missing):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert "required" in err and missing in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "core", "--o", "x.json"),
            ("face-numbers", "--graph", "complete:3", "--trunc", "1", "--forc"),
        ],
        ids=" ".join,
    )
    def test_abbreviated_flag_is_exit_two(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    def test_no_parser_matches_prefixes(self):
        parser = cli._build_parser()
        stack, seen = [parser], 0
        while stack:
            p = stack.pop()
            assert p.allow_abbrev is False, p.prog
            seen += 1
            for a in p._actions:
                if isinstance(a, argparse._SubParsersAction):
                    stack.extend(a.choices.values())
        assert seen == 21

    def test_report_params_keep_every_key(self, capsys):
        unset = {"seed": None, "force_size": False}
        report = _report(capsys, "verify", "core")
        assert report["params"] == {"command": "verify", "suite": "core", **unset}
        report = _report(capsys, "oracle", "indep", "--graph", "cycle:5")
        assert report["params"] == {"command": "oracle", "kind": "indep", **unset}
        for pair, (argv, _) in REMOVED_FLAG.items():
            command, kind = pair
            expected = {"command": command, **({"kind": kind} if kind else {}), **unset, **PARAMS[pair]}
            assert _report(capsys, *argv)["params"] == expected, pair


# The params each valid line of REMOVED_FLAG prints, besides command, kind,
# seed and force_size: every flag except those naming the instance (--input,
# --graph, --order, --weights) and those steering output (--out, --report).
PARAMS = {
    ("face-numbers", None): {"truncate": None},
    ("nbc-bases", None): {"truncate": None},
    ("walk-gap", None): {"truncate": None},
    ("local-profile", None): {"truncate": None},
    ("link", None): {"truncate": None, "tau": "0"},
    ("gadget", "long-edge"): {"n": 5},
    ("gadget", "link"): {"n": 2, "l": 2, "m": None},
    ("reduce", "opt"): {"vertex_weights": "1,2,3,4"},
    ("reduce", "count"): {"m": 2, "l": 20},
    ("reduce", "field"): {"m": 2, "l": 10},
    ("reduce", "hardcore"): {"r": 2},
    ("oracle", "chromatic"): {},
    ("oracle", "acyclic"): {},
    ("oracle", "indep"): {},
    ("oracle", "parking"): {"root": 0},
    ("oracle", "hardcore"): {"fugacity": "1"},
    ("verify", None): {"suite": "all"},
}
