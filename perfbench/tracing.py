"""Span tracing of tensorreg from outside the package.

`instrument` replaces every public function of the chosen tensorreg modules
with a wrapper that records a span (name, start, end, parent) and, for a few
functions, a computed size: array bytes for the I/O and reshaping layers, and
n^3 for the eigen solvers.  It rebinds both the module attribute and every
name other modules imported (``tensorreg.regress.matricize`` is the same
wrapper as ``tensorreg.tensor.matricize``), so calls between modules are
traced too.  No file of the package changes.

Spans stay in memory in parallel lists; `Tracer.dump` returns them for
writing out when the run ends, and `summarize` turns them into per-function
totals.  Single-threaded use only: the open-span stack is not shared safely.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

MODULES = ("tensor", "linalg", "regress", "harness", "cli", "datagen")


def _array_bytes(obj, depth: int = 0) -> int:
    """Bytes of every numpy array reachable from obj through sequences and
    object fields; a computed size, not a measured transfer."""
    if depth > 4:
        return 0
    if hasattr(obj, "nbytes") and hasattr(obj, "shape"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, depth + 1) for v in obj)
    if hasattr(obj, "__dict__") and not inspect.isroutine(obj):
        return sum(_array_bytes(v, depth + 1) for v in vars(obj).values())
    return 0


def _result_bytes(args, out):
    return _array_bytes(out)


def _first_arg_bytes(args, out):
    return _array_bytes(args[0]) if args else 0


def _cube_of_first_dim(args, out):
    return len(args[0]) ** 3 if args else 0


# function -> (stat name, f(args, result) -> number)
EXTRA_STATS = {
    "tensor.matricize": ("bytes", _result_bytes),
    "tensor.dematricize": ("bytes", _result_bytes),
    "tensor.read_dten": ("bytes", _result_bytes),
    "tensor.write_dten": ("bytes", _first_arg_bytes),
    "regress.save_model": ("bytes", _first_arg_bytes),
    "regress.load_model": ("bytes", _result_bytes),
    "linalg.sym_eig_top": ("n3", _cube_of_first_dim),
    "linalg.gen_sym_eig_top": ("n3", _cube_of_first_dim),
}


class Tracer:
    """In-memory span recorder; span i has parent parents[i] (-1 for a root)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.extra: dict = {}
        self._stack: list = []
        self._paused = False

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls inside record no spans: for the benchmark's own use of the
        package."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn):
        stat = EXTRA_STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if stat is not None:
                self.extra[idx] = (stat[0], stat[1](args, out))
            return out

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "extra": {str(i): list(v) for i, v in self.extra.items()},
        }


def instrument(tracer: Tracer, modules=MODULES) -> list:
    """Wrap the public functions of `modules` and rebind every name that
    refers to them across tensorreg; returns the traced names."""
    every = [importlib.import_module("tensorreg")]
    every += [importlib.import_module(f"tensorreg.{m}") for m in MODULES]
    wrappers = {}
    traced = []
    for short in modules:
        mod = importlib.import_module(f"tensorreg.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
            traced.append(f"{short}.{attr}")
    for mod in every:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return traced


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(trace: dict) -> dict:
    """Per-name totals: calls, s (inclusive time, counting only the outermost
    span of a name so nesting is not counted twice), self_s (span time minus
    the part its child spans cover) and any computed bytes / n3."""
    names, parents = trace["names"], trace["parents"]
    starts, ends = trace["starts"], trace["ends"]
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    stats: dict = {}
    for i, name in enumerate(names):
        lo, hi = starts[i], ends[i]
        kids = children.get(i, ())
        own = (hi - lo) - _covered([(starts[c], ends[c]) for c in kids], lo, hi)
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += own
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            st["s"] += hi - lo
    for key, (stat, value) in trace.get("extra", {}).items():
        st = stats[names[int(key)]]
        st[stat] = st.get(stat, 0) + value
    return stats


def merge(*summaries: dict) -> dict:
    """Add per-name totals from several processes."""
    out: dict = {}
    for summary in summaries:
        for name, st in summary.items():
            acc = out.setdefault(name, {})
            for stat, value in st.items():
                acc[stat] = acc.get(stat, 0) + value
    return out


def calls_outside(trace: dict, name: str, ancestor: str) -> int:
    """Spans called `name` that have no ancestor called `ancestor`."""
    names, parents = trace["names"], trace["parents"]
    count = 0
    for i, n in enumerate(names):
        if n != name:
            continue
        p = parents[i]
        while p >= 0 and names[p] != ancestor:
            p = parents[p]
        count += p < 0
    return count


def root_balance(trace: dict, root: int = 0) -> tuple:
    """(root self time, sum of its children's inclusive times, root span
    duration): the first two add up to the third when children do not overlap."""
    parents = trace["parents"]
    starts, ends = trace["starts"], trace["ends"]
    kids = [i for i, p in enumerate(parents) if p == root]
    inclusive = sum(ends[i] - starts[i] for i in kids)
    duration = ends[root] - starts[root]
    own = duration - _covered([(starts[i], ends[i]) for i in kids], starts[root], ends[root])
    return own, inclusive, duration
