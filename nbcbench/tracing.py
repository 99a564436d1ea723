"""Span tracing of nbcwalk's layers from outside the package.

`Tracer.install()` wraps every public function and method that a layer module
defines (``graphs``, ``matroids``, ``nbc``, ``chains``, ``gadgets``, ``verify``,
``cli``) and rebinds it wherever the package refers to it: in the defining
module, in each module that imported it by name, in module-level dicts such
as ``verify.SUITES``, and on the class.  Each call records a span (name,
layer, start, end, parent, command id) plus a self time, the span's duration
minus its children's.  `uninstall()` restores the
originals, so traced and untraced passes can alternate in one process.

Work counters are read off return values at the same boundaries: face totals
and facet counts from the NBC enumerators, states and nonzeros from the walk
builders, eigensolve sizes from ``numpy.linalg.eigvalsh``, verify check
verdicts, and the report size from ``cli.main``'s standard output.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("graphs", "matroids", "nbc", "chains", "gadgets", "verify", "cli")
PACKAGE = "nbcwalk"

# Functions whose self time gets its own per-layer metric.
TIMED = {
    "chains.down_up_matrix": "chains.down_up_s",
    "chains.spectral_gap": "chains.eig_s",
    "chains.local_spectral_profile": "chains.profile_s",
}
NBC_ENUMERATORS = ("nbc.face_numbers", "nbc.enumerate_nbc_bases", "nbc.link_facets")
WALK_BUILDERS = ("chains.down_up_matrix", "chains.local_walk_matrix")
# Most of a command's wall time, as timed around the in-process call, that its
# root cli.main span may leave uncovered: the caller's output redirection.
COVERAGE_SLACK_S = 0.002


class Tracer:
    """Collects spans and counters for traced passes; one instance per run."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, command id, self time]
        self.stack = []  # [span index, time spent in children]
        self.command_id = None
        self.counters = {}
        self._patches = []
        self._clock = time.perf_counter

    # -- recording ---------------------------------------------------------

    def _enter(self, name, layer):
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([name, layer, self._clock(), None, parent, self.command_id, 0.0])
        self.stack.append([len(self.spans) - 1, 0.0])

    def _exit(self):
        index, child_time = self.stack.pop()
        span = self.spans[index]
        span[3] = self._clock()
        duration = span[3] - span[2]
        span[6] = duration - child_time
        if self.stack:
            self.stack[-1][1] += duration

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, name, result):
        """Read work counters off a layer function's return value."""
        if name in NBC_ENUMERATORS:
            self.count("nbc.faces_out", result.total() if name == "nbc.face_numbers" else len(result))
        elif name in WALK_BUILDERS:
            self.count("chains.states", result.size)
            self.count("chains.nnz", sum(len(row) for row in result.rows))
        elif name == "verify.run_suite":
            self.count("verify.checks", len(result))
            self.count("verify.checks_failed", sum(not c.passed for c in result))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, layer):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Each resume of the generator is its own span, so the span tree
            # stays nested inside whichever caller is iterating.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.count(f"{layer}.calls")
                gen = fn(*args, **kwargs)
                while True:
                    tracer._enter(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(f"{layer}.calls")
            tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._observe(name, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        original = owner.__dict__[attr]
        self._patches.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _patch_item(self, table, key, value):
        original = table[key]
        self._patches.append(lambda: table.__setitem__(key, original))
        table[key] = value

    def install(self):
        """Wrap each layer's public functions and methods, and numpy's
        symmetric eigensolver for the computed-memory counter."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        package = importlib.import_module(PACKAGE)
        wrapped = {}  # id(original function) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    # Module-level tables such as verify.SUITES.
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._patch_item(obj, key, wrapped[id(value)])
                elif isinstance(obj, (list, tuple, set, frozenset)) and any(
                        id(value) in wrapped for value in obj):
                    self.uninstall()
                    raise RuntimeError(f"{module.__name__}.{attr} holds layer functions "
                                       "the tracer cannot rebind")
        self._wrap_eigensolver()

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._patch(cls, attr, kind(self._wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name, layer))

    def _wrap_eigensolver(self):
        import numpy.linalg

        original = numpy.linalg.eigvalsh
        tracer = self

        @functools.wraps(original)
        def eigvalsh(a, *args, **kwargs):
            n = len(a)
            tracer.count("chains.eig_mb_computed", 8 * n * n / 2**20)
            return original(a, *args, **kwargs)

        self._patch(numpy.linalg, "eigvalsh", eigvalsh)

    def uninstall(self):
        for restore in reversed(self._patches):
            restore()
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def reset(self):
        if self.stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans = []
        self.counters = {}

    def layer_metrics(self):
        """Per-layer self times and calls, named-function self times, and the
        counters gathered since the last reset."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        out.update({metric: 0.0 for metric in TIMED.values()})
        for name, layer, _start, _end, _parent, _cmd, self_time in self.spans:
            out[f"{layer}.self_s"] += self_time
            if name in TIMED:
                out[TIMED[name]] += self_time
        for key in ("nbc.faces_out", "chains.states", "chains.nnz", "chains.eig_mb_computed",
                    "verify.checks", "verify.checks_failed"):
            out[key] = 0
        out.update(self.counters)
        faces = out["nbc.faces_out"]
        out["nbc.us_per_face"] = out["nbc.self_s"] * 1e6 / faces if faces else 0.0
        return out

    def coverage(self, wall_start, wall_end, command_seconds):
        """Check the span tree against one traced pass, whose commands took
        command_seconds as timed by the caller: every span closed and inside
        its parent, siblings disjoint, one root ``cli.main`` span per command,
        and each root covering its command's timed wall time up to
        COVERAGE_SLACK_S.  Returns (ok, uncovered seconds, sum of self times):
        the pass wall time that no root span covers, and the layer self
        times, which sum to the roots' durations."""
        ok = not self.stack
        last_end = {}  # parent index -> end of the previous sibling
        roots = {}  # command id -> root span duration
        for name, _l, start, end, parent, cmd, self_time in self.spans:
            lo, hi = (wall_start, wall_end) if parent is None else self.spans[parent][2:4]
            if end is None or start < lo or end > hi or self_time < -1e-9:
                ok = False
            if start < last_end.get(parent, lo):
                ok = False
            last_end[parent] = end if end is not None else hi
            if parent is None:
                if name != "cli.main" or cmd in roots or end is None:
                    ok = False
                else:
                    roots[cmd] = end - start
        if set(roots) != set(range(len(command_seconds))):
            ok = False
        elif any(seconds - roots[cmd] > COVERAGE_SLACK_S
                 for cmd, seconds in enumerate(command_seconds)):
            ok = False
        uncovered = (wall_end - wall_start) - sum(roots.values())
        self_total = sum(s[6] for s in self.spans)
        return ok, uncovered, self_total

    def span_records(self):
        """The span tree as JSON-ready dicts, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][2]
        return [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "command": cmd,
                "self_s": self_time,
            }
            for name, _layer, start, end, parent, cmd, self_time in self.spans
        ]
