"""Spans and work counters at the engine's layer boundaries, from outside.

`Tracer.install` replaces every public function of each layer module with
a timing wrapper, also where another module re-imported it, and wraps
``Matrix.__mul__`` on the class and ``json.dumps`` as seen by ``cli``.
Spans (name, start, end, parent, request) stay in memory until the run
ends.  A span's self time is its duration minus what its direct children
cover; calls are single-threaded and nested, so children never overlap.

Counters marked "computed" are derived here from call arguments and
results with public information only; their cost is recorded as
``bench.counters`` spans so no layer's self time includes it.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import types
from collections import defaultdict
from time import perf_counter

from exact import search_size

LAYERS = ("cli", "solver", "special", "criteria", "jnf_core", "eigenvalues", "linalg", "witness")
PACKAGE = "deligne_simpson"

ECHELON = ("linalg.rank", "linalg.rank_of_rows", "linalg.solve_first", "linalg.inverse")
TANGENT = ("linalg.commutator_operator", "linalg.operator_columns", "linalg.sl_basis")
WITNESS_PARTS = {
    "witness.membership_s": "witness.class_membership",
    "witness.centralizer_s": "witness.centralizer_dimension",
    "witness.surjectivity_s": "witness.check_surjectivity",
    "witness.irreducible_s": "witness.is_irreducible",
    "witness.euler_s": "witness.euler_characteristic",
    "witness.local_dim_s": "witness.local_dimension",
    "witness.deform_s": "witness.deform_step",
}

# name, unit, better, kind ("measured" time from spans or cProfile, or a
# count/ratio "computed" from arguments and results)
METRICS = [
    ("eigenvalues.search_s", "s", "lower", "measured"),
    ("eigenvalues.search_calls", "count", "lower", "measured"),
    ("eigenvalues.selections", "count", "lower", "computed"),
    ("eigenvalues.table_bound", "count", "lower", "computed"),
    ("eigenvalues.cap_headroom", "ratio", "higher", "computed"),
    ("eigenvalues.stop_cardinality", "ratio", "lower", "computed"),
    ("eigenvalues.enumerate_s", "s", "lower", "measured"),
    ("eigenvalues.generate_attempts", "ratio", "lower", "computed"),
    ("linalg.echelon_s", "s", "lower", "measured"),
    ("linalg.echelon_calls", "count", "lower", "measured"),
    ("linalg.echelon_cells", "count", "lower", "computed"),
    ("linalg.entry_bits_max", "bits", "lower", "computed"),
    ("linalg.matmul_s", "s", "lower", "measured"),
    ("linalg.tangent_s", "s", "lower", "measured"),
    *[(name, "s", "lower", "measured") for name in WITNESS_PARTS],
    ("witness.self_s", "s", "lower", "measured"),
    ("exactnum.share", "ratio", "lower", "measured"),
    ("criteria.self_s", "s", "lower", "measured"),
    ("criteria.calls", "count", "lower", "measured"),
    ("criteria.levels", "count", "lower", "computed"),
    ("criteria.branches", "count", "lower", "computed"),
    ("special.self_s", "s", "lower", "measured"),
    ("special.calls", "count", "lower", "measured"),
    ("special.certificates", "count", "higher", "computed"),
    ("jnf_core.self_s", "s", "lower", "measured"),
    ("jnf_core.calls", "count", "lower", "measured"),
    ("solver.self_s", "s", "lower", "measured"),
    ("solver.calls", "count", "lower", "measured"),
    ("cli.parse_s", "s", "lower", "measured"),
    ("cli.report_s", "s", "lower", "measured"),
    ("cli.calls", "count", "lower", "measured"),
    ("trace.request_s", "s", "lower", "measured"),
    ("trace.untraced_s", "s", "lower", "measured"),
    ("trace.overhead_s", "s", "lower", "measured"),
    ("trace.overhead_share", "ratio", "lower", "measured"),
]


def _bits(x) -> int:
    parts = (x.re, x.im) if hasattr(x, "re") else (x,)
    out = 0
    for p in parts:
        num = getattr(p, "numerator", p)
        den = getattr(p, "denominator", 1)
        out = max(out, abs(num).bit_length(), den.bit_length())
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.request = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.search_headroom: list[float] = []
        self.search_stop: list[float] = []
        self._plan_cache: list = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        self.names.append(name)
        return sid, perf_counter()

    def _close(self, sid, name, start):
        end = perf_counter()
        self.stack.pop()
        self.names.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[sid] = (name, start, end, parent, self.request)

    def _counted(self, hook, *args):
        sid, start = self._open("bench.counters")
        try:
            return hook(*args)
        finally:
            self._close(sid, "bench.counters", start)

    def wrap(self, name, fn):
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid, start = tracer._open(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid, name, start)
                    yield value
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if pre is not None:
                args = tracer._counted(pre, tracer, args, kwargs)
            sid, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, start)
            if post is not None:
                tracer._counted(post, tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _plan(self):
        """(owner, attribute, original, wrapper) for every replacement."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        plan = []
        # every binding of a wrapped function, including re-imports
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    plan.append((mod, attr, obj, wrapped[obj]))
        matrix = modules["linalg"].Matrix
        mul = matrix.__mul__
        plan.append((matrix, "__mul__", mul, self.wrap("linalg.Matrix.__mul__", mul)))
        cli = modules["cli"]
        json_view = types.ModuleType("json")
        json_view.__dict__.update(vars(cli.json))
        json_view.dumps = self.wrap("cli.json.dumps", cli.json.dumps)
        plan.append((cli, "json", cli.json, json_view))
        return plan

    def install(self):
        if not self._plan_cache:
            self._plan_cache = self._plan()
        for owner, attr, _, wrapper in self._plan_cache:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._plan_cache:
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _outer_time(self, names) -> float:
        """Time covered by spans with these names, nested repeats counted once."""
        names = set(names)
        inside = [False] * len(self.spans)
        total = 0.0
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            above = parent >= 0 and (inside[parent] or self.spans[parent][0] in names)
            inside[sid] = above
            if name in names and not above:
                total += end - start
        return total

    def share(self, prefixes) -> float:
        """Share of the traced request time spent inside spans whose names
        start with one of the prefixes."""
        names = {n for n in self.calls if n.startswith(tuple(prefixes))}
        roots = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        return self._outer_time(names) / roots if roots else 0.0

    def self_times(self) -> dict:
        """Per layer: span durations minus what direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(".")[0]] += end - start - child[sid]
        return self_time

    def layer_metrics(self) -> dict:
        self_time = self.self_times()
        calls = defaultdict(int)
        for name, count in self.calls.items():
            calls[name.split(".")[0]] += count
        c = self.counters
        out = {
            "eigenvalues.search_s": self._outer_time(["eigenvalues.find_first_relation"]),
            "eigenvalues.search_calls": self.calls.get("eigenvalues.find_first_relation", 0),
            "eigenvalues.selections": c["selections"],
            "eigenvalues.table_bound": c["table_bound"],
            "eigenvalues.cap_headroom": min(self.search_headroom, default=0.0),
            "eigenvalues.stop_cardinality": (
                sum(self.search_stop) / len(self.search_stop) if self.search_stop else 0.0
            ),
            "eigenvalues.enumerate_s": self._outer_time(["eigenvalues.iter_all_relations"]),
            "eigenvalues.generate_attempts": (
                c["generate_attempts"] / c["generate_successes"] if c["generate_successes"] else 0.0
            ),
            "linalg.echelon_s": self._outer_time(ECHELON),
            "linalg.echelon_calls": sum(self.calls.get(n, 0) for n in ECHELON),
            "linalg.echelon_cells": c["echelon_cells"],
            "linalg.entry_bits_max": c["entry_bits_max"],
            "linalg.matmul_s": self._outer_time(["linalg.Matrix.__mul__"]),
            "linalg.tangent_s": self._outer_time(TANGENT),
            **{k: self._outer_time([v]) for k, v in WITNESS_PARTS.items()},
            "witness.self_s": self_time["witness"],
            "criteria.self_s": self_time["criteria"],
            "criteria.calls": calls["criteria"],
            "criteria.levels": c["levels"],
            "criteria.branches": c["branches"],
            "special.self_s": self_time["special"],
            "special.calls": calls["special"],
            "special.certificates": c["certificates"],
            "jnf_core.self_s": self_time["jnf_core"],
            "jnf_core.calls": calls["jnf_core"],
            "solver.self_s": self_time["solver"],
            "solver.calls": calls["solver"],
            "cli.parse_s": self._outer_time(["cli.parse_problem", "cli.parse_witness"]),
            "cli.report_s": self._outer_time(["cli.json.dumps"]),
            "cli.calls": calls["cli"],
        }
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,request\n")
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{request}\n")


# -- computed counters ----------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _post_search(tracer, args, kwargs, result):
    from deligne_simpson.eigenvalues import DEFAULT_RELATION_CAP

    problem = _arg(args, kwargs, 0, "problem")
    cap = _arg(args, kwargs, 1, "cap", DEFAULT_RELATION_CAP)
    n = problem.n
    last_m = result.m if result is not None else n - 1
    mults = [c.shape.multiplicities() for c in problem.classes]
    selections, table_bound, largest, _ = search_size(mults, n, last_m)
    c = tracer.counters
    c["selections"] += selections
    c["table_bound"] = max(c["table_bound"], table_bound)
    if largest:
        tracer.search_headroom.append(cap / largest)
    tracer.search_stop.append(last_m / n)


def _pre_is_generic(tracer, args, kwargs):
    if "eigenvalues.generate_generic" in tracer.names:
        tracer.counters["generate_attempts"] += 1
    return args


def _post_generate(tracer, args, kwargs, result):
    tracer.counters["generate_successes"] += 1


def _echelon_input(kind):
    def hook(tracer, args, kwargs):
        first = args[0] if args else next(iter(kwargs.values()))
        if kind == "rows":
            rows = first if isinstance(first, (list, tuple)) else list(first)
            rows = [r if isinstance(r, (list, tuple)) else list(r) for r in rows]
            args = (rows, *args[1:])
            extra = 0
        else:
            rows = first.rows
            extra = {"rank": 0, "solve": 1, "inverse": len(rows)}[kind]
        if rows:
            c = tracer.counters
            c["echelon_cells"] += len(rows) * (len(rows[0]) + extra)
            c["entry_bits_max"] = max(
                c["entry_bits_max"], max(_bits(x) for row in rows for x in row)
            )
        return args
    return hook


def _post_is_good(tracer, args, kwargs, result):
    tracer.counters["levels"] += len(result.trace.steps)
    tracer.counters["branches"] += result.branches_explored


def _post_specialness(tracer, args, kwargs, result):
    tracer.counters["certificates"] += len(result.certificates)


PRE_HOOKS = {
    "eigenvalues.is_generic": _pre_is_generic,
    "linalg.rank": _echelon_input("rank"),
    "linalg.rank_of_rows": _echelon_input("rows"),
    "linalg.solve_first": _echelon_input("solve"),
    "linalg.inverse": _echelon_input("inverse"),
}
POST_HOOKS = {
    "eigenvalues.find_first_relation": _post_search,
    "eigenvalues.generate_generic": _post_generate,
    "criteria.is_good": _post_is_good,
    "special.classify_specialness": _post_specialness,
}


def exactnum_share(stats) -> float:
    """Share of exactnum.py + fractions.py in the total own time of a
    cProfile pass (a share, because profiling inflates every call)."""
    total = mine = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        total += tottime
        if filename.endswith(("exactnum.py", "fractions.py")):
            mine += tottime
    return mine / total if total else 0.0
