"""Spans around the package's public functions, for the benchmark's traced runs.

The package binds many names with `from .x import y`, so a function is
wrapped in every jackratio module that holds it, not only where it is
defined.  Each call records a span (id, parent, name, start, end); spans stay
in memory and are written once, when the process is done.  A span's parent
may live in another process: a `jackratio` subprocess parents its spans
under the benchmark's span around that subprocess.

`aggregate` turns the span files of one traced iteration into per-name
call counts, busy time (recursion counted once), self time (duration minus
direct children) and "built" counts (calls that descended into a child
span, i.e. did real work instead of returning a memoized value).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

MODULES = ("partitions", "esym", "jack", "special", "dist", "mc", "cli")

# (defining module, function); the span name is "<module>.<function>"
FUNCTIONS = (
    ("partitions", "upper_hook_product"),
    ("esym", "expand_e_term"),
    ("esym", "laplace_beltrami_row"),
    ("jack", "jack_expansion"),
    ("jack", "e_to_jack"),
    ("jack", "jack_product"),
    ("jack", "jack_product_with_trace_power"),
    ("jack", "jack_at_identity"),
    ("jack", "save_expansion_cache"),
    ("jack", "load_expansion_cache"),
    ("special", "gen_pochhammer_exact"),
    ("special", "rising_factorial"),
    ("special", "log_fraction"),
    ("dist", "get_table"),
    ("dist", "auto_converged_params"),
    ("mc", "sample_extreme_ratio"),
    ("mc", "ks_distance"),
    ("mc", "empirical_quantile"),
    ("cli", "main"),
)

# SeriesTable methods.  `_eval_exact` is the one private boundary: it is the
# exact-arithmetic fallback, so its calls count the points the float path
# could not certify.
METHODS = (
    ("__init__", "dist.SeriesTable.build"),
    ("cdf", "dist.cdf"),
    ("cdf_many", "dist.cdf_many"),
    ("quantile", "dist.quantile"),
    ("summary_stats", "dist.summary_stats"),
    ("_eval_exact", "dist.exact_fallback"),
)

# lru-cached functions whose own cache_info() gives hits and misses
CACHE_INFO = (("esym", "expand_e_term"), ("partitions", "partitions_of"))


def _count_e_to_jack(c, args, kwargs, result):
    c["jack.e_to_jack.input_terms"] += len(args[0].terms)


def _count_cdf_many(c, args, kwargs, result):
    c["dist.cdf_many.points"] += len(result)


def _count_samples(c, args, kwargs, result):
    c["mc.sample_extreme_ratio.samples"] += len(result)


def _count_save(c, args, kwargs, result):
    c["jack.save_expansion_cache.entries"] += result
    c["jack.save_expansion_cache.bytes"] += os.path.getsize(args[0])


def _count_load(c, args, kwargs, result):
    c["jack.load_expansion_cache.entries"] += result


COUNTERS = {
    "jack.e_to_jack": _count_e_to_jack,
    "dist.cdf_many": _count_cdf_many,
    "mc.sample_extreme_ratio": _count_samples,
    "jack.save_expansion_cache": _count_save,
    "jack.load_expansion_cache": _count_load,
}


def cache_infos():
    """{"<module>.<function>": (hits, misses)} for the package's lru caches."""
    out = {}
    for mod_name, fn_name in CACHE_INFO:
        fn = getattr(importlib.import_module(f"jackratio.{mod_name}"), fn_name)
        while not hasattr(fn, "cache_info"):  # look through a tracing wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{mod_name}.{fn_name}"] = (info.hits, info.misses)
    return out


class Tracer:
    """Records spans in memory for one process; `install` patches, `write` saves."""

    def __init__(self, root_parent: int = 0):
        self._base = os.getpid() << 32
        self._next = 0
        self.stack = [root_parent]
        self.spans = []
        self.counters = defaultdict(float)
        self._patched = []
        self._cache_start = {}

    def _new_id(self) -> int:
        self._next += 1
        return self._base | self._next

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        stack, spans, counters = self.stack, self.spans, self.counters
        clock = time.perf_counter
        new_id = self._new_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = new_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap every listed function at each of its call sites; returns what is missing."""
        modules = [importlib.import_module(f"jackratio.{m}") for m in MODULES]
        missing = []
        for mod_name, fn_name in FUNCTIONS:
            home = importlib.import_module(f"jackratio.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self.wrap(orig, f"{mod_name}.{fn_name}")
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    self._patched.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)
        table_cls = importlib.import_module("jackratio.dist").SeriesTable
        for attr, name in METHODS:
            orig = table_cls.__dict__.get(attr)
            if orig is None:
                missing.append(name)
                continue
            self._patched.append((table_cls, attr, orig))
            setattr(table_cls, attr, self.wrap(orig, name))
        self._cache_start = cache_infos()
        return missing

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        for name, (hits, misses) in cache_infos().items():
            h0, m0 = self._cache_start.get(name, (0, 0))
            self.counters[f"{name}.hits"] += hits - h0
            self.counters[f"{name}.misses"] += misses - m0
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.id = 0

    def __enter__(self):
        t = self.tracer
        self.id = t._new_id()
        self.parent = t.stack[-1]
        t.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans.append((self.id, self.parent, self.name, self.start, end))
        return False


def aggregate(paths) -> dict:
    """Per-name stats and summed counters over the span files of one iteration."""
    spans = {}
    counters = defaultdict(float)
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        names = payload["names"]
        for sid, parent, ni, start, end in payload["spans"]:
            spans[sid] = (parent, names[ni], end - start)
        for key, val in payload["counters"].items():
            counters[key] += val

    child_time = defaultdict(float)
    child_names = defaultdict(set)
    for sid, (parent, name, dur) in spans.items():
        if parent in spans:
            child_time[parent] += dur
            child_names[parent].add(name)

    stats = defaultdict(lambda: defaultdict(float))
    for sid, (parent, name, dur) in spans.items():
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += dur - child_time[sid]
        if child_names[sid]:
            st["built"] += 1
        anc = parent
        while anc in spans and spans[anc][1] != name:
            anc = spans[anc][0]
        if anc not in spans:  # outermost call of this name: count its time once
            st["busy_s"] += dur
        if spans.get(parent, (0, ""))[1] == "dist.auto_converged_params" and name == "dist.get_table":
            stats["dist.auto_converged_params"]["attempts"] += 1
        if name == "dist.exact_fallback" and spans.get(parent, (0, ""))[1] in ("dist.cdf", "dist.cdf_many"):
            counters["dist.exact_fallback.point_evals"] += 1
    return {"stats": {k: dict(v) for k, v in stats.items()}, "counters": dict(counters)}
