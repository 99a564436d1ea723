"""Command-line front end: parse instance files or named-graph specs, dispatch
computations, and emit deterministic JSON reports.

Exit codes: 0 success, 1 malformed input file, 2 precondition or verification
failure (including bad flags), 3 size-guard rejection.  Each handler returns the
canonical input it read and its results; `main` writes the report envelope
around them: the digest of that input and the parameter set used.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from .chains import (
    check_eig_states,
    check_face_subsets,
    down_up_matrix,
    local_spectral_profile,
    local_to_global_bound,
    spectral_gap,
)
from .errors import PreconditionError, SizeGuardError, VerificationError, forced
from .gadgets import (
    WeightVector,
    build_link_gadget,
    build_long_edge_instance,
    build_opt_reduction,
    gap_certificate,
    max_weight_independent_set,
    max_weight_nbc_base,
    nbc_partition_function,
    verify_counting_sandwich,
    verify_hardcore_identities,
)
from .graphs import (
    MultiGraph,
    build_named_graph,
    chromatic_polynomial,
    count_acyclic_orientations,
    count_g_parking_functions,
    count_independent_sets_by_size,
    hardcore_partition,
)
from .matroids import GraphicMatroid
from .nbc import (
    NbcComplex,
    face_numbers,
    is_log_concave,
    link_facets,
)
from .verify import SUITES, run_suite


class MalformedInputError(Exception):
    """Instance file missing, unreadable, or schema-invalid."""


def _float12(x) -> float:
    return float(f"{float(x):.12g}")


def _rational(x) -> str:
    return str(Fraction(x))


def _parse_fraction(text, where):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"{where}: cannot parse rational {text!r}: {exc}")


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_instance_file(path: str) -> dict:
    """The instance object, its 'weights' (if any) parsed to Fractions."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise MalformedInputError(f"{path}: top level must be a JSON object")
    known = {"vertices", "edges", "order", "truncate", "weights"}
    extra = set(data) - known
    if extra:
        raise MalformedInputError(f"{path}: unknown keys {sorted(extra)}")
    if not _is_int(data.get("vertices")):
        raise MalformedInputError(f"{path}: 'vertices' must be an integer")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise MalformedInputError(f"{path}: 'edges' must be a list of [u, v] pairs")
    for k, pair in enumerate(edges):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_int(c) for c in pair)
        ):
            raise MalformedInputError(f"{path}: edge {k} is not a pair of integers")
    m = len(edges)
    if "order" in data:
        order = data["order"]
        if (
            not isinstance(order, list)
            or not all(_is_int(e) for e in order)
            or sorted(order) != list(range(m))
        ):
            raise MalformedInputError(f"{path}: 'order' must be a permutation of 0..{m - 1}")
    if "truncate" in data and not _is_int(data["truncate"]):
        raise MalformedInputError(f"{path}: 'truncate' must be an integer")
    if "weights" in data:
        weights = data["weights"]
        if not isinstance(weights, list) or len(weights) != m:
            raise MalformedInputError(f"{path}: 'weights' must list one rational per edge")
        try:
            data["weights"] = [_parse_fraction(w, path) for w in weights]
        except PreconditionError as exc:
            raise MalformedInputError(str(exc))
    return data


def _parse_graph_spec(spec: str) -> MultiGraph:
    parts = spec.split(":")
    kind, params = parts[0], parts[1:]
    for p in params:
        if not (p.lstrip("-").isdigit() or kind == "disjoint_union_of_copies"):
            raise PreconditionError(f"graph spec parameter {p!r} is not an integer")
    return build_named_graph(kind, *params)


def _csv(text: str, flag: str, rational: bool = False) -> list:
    """The comma-separated values of --flag, as ints or as rationals; blank
    text is the empty list."""
    if text.strip() == "":
        return []
    if rational:
        return [_parse_fraction(p, f"--{flag}") for p in text.split(",")]
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise PreconditionError(f"--{flag} must be a comma-separated list of integers")


def _resolve_instance(args):
    """Build (graph, order, truncate, weights, canonical-dict) from the flags.
    Order, truncation and weights are read only by a command that takes the
    flag of that name, from the flag or else the instance file; otherwise None.
    The order is the list of element ids as given, or None for the identity;
    NbcComplex checks it."""
    if args.input is not None:
        data = _load_instance_file(args.input)
        graph = _instance_graph(args.input, data)
    else:
        data, graph = {}, _parse_graph_spec(args.graph)
    order_list, truncate, weights = (
        data.get(key) if hasattr(args, key) else None for key in ("order", "truncate", "weights")
    )
    if getattr(args, "order", None) is not None:
        order_list = _csv(args.order, "order")
    if getattr(args, "truncate", None) is not None:
        truncate = args.truncate
    if getattr(args, "weights", None) is not None:
        weights = _csv(args.weights, "weights", rational=True)
        if len(weights) != graph.edge_count:
            raise PreconditionError("--weights must list one rational per edge")
    canonical = {
        "vertices": graph.vertex_count,
        "edges": [[u, v] for u, v in graph.edges],
        "order": order_list,
        "truncate": truncate,
        "weights": [str(Fraction(w)) for w in weights] if weights is not None else None,
    }
    return graph, order_list, truncate, weights, canonical


def _instance_graph(path, data) -> MultiGraph:
    try:
        return MultiGraph(data["vertices"], [tuple(e) for e in data["edges"]])
    except PreconditionError as exc:
        raise MalformedInputError(f"{path}: {exc}")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _complex(args):
    """(NBC complex, weights, canonical-dict) of the instance the flags name."""
    graph, order, truncate, weights, canonical = _resolve_instance(args)
    return NbcComplex(GraphicMatroid(graph, truncate), order), weights, canonical


class _Parser(argparse.ArgumentParser):
    """An argparse parser without prefix matching, so a command accepts only
    the flags it declares, spelled out; its subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Each (command, kind) parser takes exactly the flags its handler reads:
    # every one takes `run`, and each set below extends the one before it.
    # Built once per process: its 21 parsers cost more than parsing a command.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=None, help="reserved; no randomized core paths")
    run.add_argument("--out", help="duplicate the report to this file")
    sized = argparse.ArgumentParser(add_help=False, parents=[run])
    sized.add_argument("--force-size", action="store_true", help="override size guards")
    instance = argparse.ArgumentParser(add_help=False, parents=[sized])
    source = instance.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="instance file (UTF-8 JSON)")
    source.add_argument("--graph", help="named graph spec, e.g. complete:3 or cycle:5")
    ordered = argparse.ArgumentParser(add_help=False, parents=[instance])
    ordered.add_argument("--order", help="element order as a comma-separated permutation")
    ordered.add_argument("--truncate", type=int, help="truncate the matroid to this rank")

    parser = _Parser(
        prog="nbcwalk",
        description="Broken-circuit complexes of graphic matroids: walks, gaps, gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("face-numbers", parents=[ordered], help="face-number vector and log-concavity")
    p = sub.add_parser("nbc-bases", parents=[ordered], help="enumerate the NBC bases")
    p.add_argument("--weights", help="per-edge rationals, comma separated")
    sub.add_parser("walk-gap", parents=[ordered], help="down-up walk spectral gap and local-to-global bound")
    sub.add_parser("local-profile", parents=[ordered], help="local-walk second eigenvalues by level")
    p = sub.add_parser("link", parents=[ordered], help="facets of the link at a face")
    p.add_argument("--tau", default="", help="face as comma-separated element ids")

    p = sub.add_parser("gadget", help="build a certified gadget")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("long-edge", parents=[sized], help="long-edge weight witness")
    p.add_argument("--n", type=int, required=True, help="ground size (odd, >= 3)")
    p = kinds.add_parser("link", parents=[sized], help="link-bottleneck gadget on K_{n,n}")
    p.add_argument("--n", type=int, required=True, help="bipartite part size")
    p.add_argument("--l", type=int, required=True, help="chains per vertex")
    p.add_argument("--m", type=int, help="target size (default n)")
    p.add_argument("--report", action="store_true", help="add partition and gap certificate")

    p = sub.add_parser("reduce", help="run a reduction on the input graph")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("opt", parents=[instance], help="max-weight independent set")
    p.add_argument("--vertex-weights", required=True, help="per-vertex rationals, comma separated")
    for kind, l_help in (("count", "chain multiplicity"), ("field", "field value")):
        p = kinds.add_parser(kind, parents=[instance], help="certify l^m i_m <= target <= 2 l^m i_m")
        p.add_argument("--m", type=int, required=True, help="independent-set size")
        p.add_argument("--l", type=int, required=True, help=l_help)
    p = kinds.add_parser("hardcore", parents=[instance], help="hardcore identities with K8 copies")
    p.add_argument("--r", type=int, required=True, help="number of complete-graph copies")

    p = sub.add_parser("oracle", help="exact counting oracles on the input graph")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("chromatic", "acyclic", "indep"):
        kinds.add_parser(kind, parents=[instance])
    p = kinds.add_parser("parking", parents=[instance])
    p.add_argument("--root", type=int, default=0, help="root vertex")
    p = kinds.add_parser("hardcore", parents=[instance])
    p.add_argument("--fugacity", default="1", help="rational fugacity")

    p = sub.add_parser("verify", parents=[run], help="run a named self-check suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    return parser


# Flags kept out of a report's params: those naming the instance file or spec,
# its order or its weights, which the digest covers, and those steering output.
_NOT_PARAMS = frozenset({"input", "graph", "order", "weights", "out", "report"})


def _cmd_face_numbers(args):
    x, _, canonical = _complex(args)
    fn = face_numbers(x)
    n = [fn[k] for k in range(x.rank + 1)]
    return canonical, {"n": n, "log_concave": is_log_concave(n)}


def _cmd_nbc_bases(args):
    x, weights, canonical = _complex(args)
    bases = x.facets()
    report = {"count": len(bases), "bases": [sorted(b) for b in bases]}
    if weights is not None:
        report["weighted_count"] = _rational(nbc_partition_function(x, WeightVector(weights)))
    return canonical, report


def _cmd_walk_gap(args):
    x, _, canonical = _complex(args)
    n_facets = len(x.facets())
    check_eig_states(n_facets)
    check_face_subsets(n_facets, x.rank)
    walk = down_up_matrix(x)
    gap = spectral_gap(walk)
    profile = local_spectral_profile(walk)
    bound = local_to_global_bound(profile)
    return canonical, {"gap": _float12(gap), "ltg_bound": _float12(bound)}


def _cmd_local_profile(args):
    x, _, canonical = _complex(args)
    profile = local_spectral_profile(x)
    d = x.rank
    scaled = [g * (d - k) for k, g in enumerate(profile)]
    return canonical, {
        "gammas": [_float12(g) for g in profile],
        "ltg_bound": _float12(local_to_global_bound(profile)),
        "gamma_scaled_max": _float12(max(scaled)) if scaled else None,
        "rank": d,
    }


def _cmd_link(args):
    x, _, canonical = _complex(args)
    tau = frozenset(_csv(args.tau, "tau"))
    facets = link_facets(x, tau)
    return canonical, {
        "tau": sorted(tau),
        "facet_count": len(facets),
        "facets": [sorted(f) for f in facets],
    }


def _cmd_gadget(args):
    if args.kind == "long-edge":
        inst = build_long_edge_instance(args.n)
        return {"gadget": "long-edge", "n": args.n}, {
            "n": args.n,
            "B": sorted(inst.marked_sets["B"]),
            "B_prime": sorted(inst.marked_sets["B_prime"]),
            "weights": [_rational(w) for w in inst.weights],
            "common_value": _rational(inst.weights.weight_of(inst.marked_sets["B"])),
            "distance_squared": len(inst.marked_sets["B"] ^ inst.marked_sets["B_prime"]),
            "verified": True,
        }
    m = args.m if args.m is not None else args.n
    base = build_named_graph("complete_bipartite", args.n, args.n)
    inst = build_link_gadget(base, args.l, m)
    report = {
        "ground_size": inst.matroid.ground_size,
        "trunc_rank": inst.matroid.rank,
        "tau_size": len(inst.tau),
    }
    if args.report:
        cert = gap_certificate(inst)
        part = cert["partition"]
        report.update(
            {
                "facet_count": cert["facet_count"],
                "S_A_n": part.count_a(m),
                "S_B_1": part.count_b(1),
                "S_0": len(part.neutral),
                "claim_disjoint": True,
                "measured_gap": _float12(cert["measured_gap"]),
                "conductance": _rational(cert["conductance"]),
                "neighbor_ratio": _rational(cert["neighbor_ratio"]),
                "paper_bound": _rational(cert["paper_bound"]),
                "s_a_at_most_half": cert["s_a_at_most_half"],
            }
        )
    return {"gadget": "link", "n": args.n, "l": args.l, "m": m}, report


def _cmd_reduce(args):
    graph, *_, canonical = _resolve_instance(args)
    if args.kind == "opt":
        w = WeightVector(_csv(args.vertex_weights, "vertex-weights", rational=True))
        inst = build_opt_reduction(graph, w)
        base, base_val = max_weight_nbc_base(inst.complex(), inst.weights)
        ind, ind_val = max_weight_independent_set(graph, w)
        recovered = sorted(e - graph.edge_count for e in base if e >= graph.edge_count)
        return canonical, {
            "max_independent_weight": _rational(ind_val),
            "max_nbc_weight": _rational(base_val),
            "equal": ind_val == base_val,
            "independent_set": sorted(ind),
            "nbc_base": sorted(base),
            "recovered_set": recovered,
        }
    if args.kind in ("count", "field"):
        mode = "facet-count" if args.kind == "count" else "partition-function"
        report = verify_counting_sandwich(graph, args.m, args.l, mode)
        return canonical, {
            "mode": mode,
            "source_i_m": _rational(report.source_quantity),
            "target": _rational(report.target_quantity),
            "lower": _rational(report.lower_bound),
            "upper": _rational(report.upper_bound),
            "verdict": report.verdict,
        }
    result = verify_hardcore_identities(graph, args.r)
    return canonical, {
        "r": args.r,
        "counts_g": list(result["counts_g"]),
        "counts_copies": list(result["counts_copies"]),
        "counts_union": list(result["counts_union"]),
        "checked_levels": result["checked_levels"],
        "all_identities_hold": True,
    }


def _cmd_oracle(args):
    graph, *_, canonical = _resolve_instance(args)
    if args.kind == "chromatic":
        chi = chromatic_polynomial(graph)
        body = {"coefficients": list(chi.coefficients), "degree": chi.degree, "at_minus_one": chi(-1)}
    elif args.kind == "acyclic":
        body = {"count": count_acyclic_orientations(graph)}
    elif args.kind == "indep":
        counts = count_independent_sets_by_size(graph)
        body = {"counts": list(counts.coefficients), "total": counts.total()}
    elif args.kind == "parking":
        body = {
            "count": count_g_parking_functions(graph, args.root),
            "root": args.root,
        }
    else:
        lam = _parse_fraction(args.fugacity, "--fugacity")
        body = {
            "partition_function": _rational(hardcore_partition(graph, lam)),
            "fugacity": _rational(lam),
        }
    return canonical, body


def _cmd_verify(args):
    checks = run_suite(args.suite)
    return {"suite": args.suite}, {
        "suite": args.suite,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "all_passed": all(c.passed for c in checks),
    }


_DISPATCH = {
    "face-numbers": _cmd_face_numbers,
    "nbc-bases": _cmd_nbc_bases,
    "walk-gap": _cmd_walk_gap,
    "local-profile": _cmd_local_profile,
    "link": _cmd_link,
    "gadget": _cmd_gadget,
    "reduce": _cmd_reduce,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


# Exit code of each error a handler may raise.
_EXIT_CODES = {MalformedInputError: 1, PreconditionError: 2, VerificationError: 2, SizeGuardError: 3}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    params = {"force_size": False} | {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    try:
        # Every size guard reads the switch, so --force-size lifts them all.
        with forced(params["force_size"]):
            canonical, report = _DISPATCH[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    report["input_digest"] = _digest(canonical)
    report["params"] = params
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
