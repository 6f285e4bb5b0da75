"""Span tracer that wraps wickgrid's public functions from outside the package.

`Tracer.install()` replaces every public module-level function of the layer
modules with a timing wrapper and rebinds the wrapper in *every* wickgrid
namespace that imported the original by name (``from .covariance import
build_gram``), including module-level dicts such as ``cli.EXPERIMENTS``.
``uninstall()`` puts the originals back.

Spans link to their caller across threads: ``ThreadPoolExecutor`` is rebound
in the importing modules to a subclass whose ``submit`` hands the submitting
thread's current span to the worker.  A span's self time is its duration
minus the union of its children's intervals, so children that ran on another
thread are not counted as the parent's own work.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("cli", "covariance", "firstchaos", "chaos", "qce", "skorokhod",
          "bsde", "fraccalc")

# Methods traced as spans of their own although they are not module-level
# functions: (module, class, method, key).  GramContext.__init__ is the
# eigenfactorization, so build_gram's self time is the assembly alone.
METHOD_SPANS = (
    ("covariance", "GramContext", "__init__", "covariance.GramContext"),
)

# Methods that are only counted: they run too often for a span each, and
# their time stays in the calling span.  (module, class, method, key); the
# `cov` method of every covariance model class is counted as "covariance.cov".
METHOD_COUNTS = (
    ("qce", "ShiftContext", "__init__", "qce.ShiftContext"),
    ("chaos", "SymmetricTensor", "contract_last", "chaos.SymmetricTensor.contract_last"),
)

ROOT = 0


Span = namedtuple("Span", "sid parent key layer t0 t1 failed info")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _gram_key(args, kwargs):
    """(model repr, N, grid bytes) of a build_gram(model, grid, ...) call."""
    model = kwargs.get("model", args[0] if args else None)
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return (repr(model), grid.n, grid.points.tobytes())


class Tracer:
    """Collects spans for one pass at a time; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.root_t0 = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self.keys: list = []          # metric keys of the wrapped callables
        self._counters: dict = {}     # key -> itertools.count
        self._counts_at: dict = {}    # key -> counter value at begin_pass

    # -- span stack ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, key: str, layer: str):
        tracer = self
        info_of = _gram_key if key == "covariance.build_gram" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else ROOT
            sid = next(tracer._ids)
            info = info_of(args, kwargs) if info_of else None
            stack.append(sid)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, parent, key, layer, t0, t1, failed, info))

        return traced

    def _linked_executor(self):
        tracer = self

        class LinkedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else ROOT

                def run(*a, **k):
                    own = tracer._stack()
                    saved = own[:]
                    own[:] = [parent] if parent != ROOT else []
                    try:
                        return fn(*a, **k)
                    finally:
                        own[:] = saved

                return super().submit(run, *args, **kwargs)

        return LinkedExecutor

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap the layer functions and rebind them in every wickgrid module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"wickgrid.{name}"] for name in LAYERS}
        self.keys = []
        replace = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    key = f"{layer}.{name}"
                    replace[id(obj)] = (obj, self._wrap(obj, key, layer))
                    self.keys.append(key)
        self.keys += [key for *_, key in METHOD_SPANS]
        replace[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, self._linked_executor())

        namespaces = [m for n, m in sys.modules.items()
                      if n == "wickgrid" or n.startswith("wickgrid.")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._set(mod, name, replace[id(obj)][1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in replace:
                            self._set_item(obj, k, replace[id(v)][1])

        for layer, cls_name, meth, key in METHOD_SPANS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, meth, self._wrap(cls.__dict__[meth], key, layer))

        counted = [(getattr(modules[layer], cls), meth, key)
                   for layer, cls, meth, key in METHOD_COUNTS]
        counted += [(obj, "cov", "covariance.cov")
                    for obj in vars(modules["covariance"]).values()
                    if inspect.isclass(obj) and inspect.isfunction(vars(obj).get("cov"))]
        self._counters = {key: itertools.count() for _, _, key in counted}
        for cls, meth, key in counted:
            self._set(cls, meth, _counted(vars(cls)[meth], self._counters[key].__next__))

    def _set(self, owner, name, value) -> None:
        self._patches.append((setattr, owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _set_item(self, mapping, key, value) -> None:
        self._patches.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patches:
            restore, owner, name, original = self._patches.pop()
            restore(owner, name, original)

    # -- one pass -------------------------------------------------------------
    def begin_pass(self) -> None:
        self.spans = []
        self._stack().clear()
        # next() returns the value and then moves on, hence the + 1
        self._counts_at = {k: next(c) + 1 for k, c in self._counters.items()}
        self.root_t0 = perf_counter()

    def end_pass(self) -> "PassTrace":
        t1 = perf_counter()
        counts = {k: next(c) - self._counts_at[k] for k, c in self._counters.items()}
        return PassTrace(self.spans, self.root_t0, t1, counts)


def _counted(fn, bump):
    """`fn` with a call counter; `bump` is a C-level next(), so it is thread-safe."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        bump()
        return fn(*args, **kwargs)
    return counted


class PassTrace:
    """Spans of one pass reduced to self times per function and per layer."""

    def __init__(self, spans, t0: float, t1: float, counts: dict):
        self.spans = spans
        self.wall_s = t1 - t0
        self.counts = counts
        children = {}
        for s in spans:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
        self.self_s = {s.sid: (s.t1 - s.t0) - covered(children.get(s.sid, ()), s.t0, s.t1)
                       for s in spans}
        self.root_self_s = self.wall_s - covered(children.get(ROOT, ()), t0, t1)

    def by_function(self) -> dict:
        """key -> [calls, self_s]."""
        out = {}
        for s in self.spans:
            acc = out.setdefault(s.key, [0, 0.0])
            acc[0] += 1
            acc[1] += self.self_s[s.sid]
        return out

    def by_layer(self) -> dict:
        """layer -> {"busy_s", "self_s", "failed"}; busy is the union of its spans."""
        out = {layer: {"busy_s": 0.0, "self_s": 0.0, "failed": 0} for layer in LAYERS}
        intervals = {layer: [] for layer in LAYERS}
        for s in self.spans:
            out[s.layer]["self_s"] += self.self_s[s.sid]
            out[s.layer]["failed"] += int(s.failed)
            intervals[s.layer].append((s.t0, s.t1))
        for layer, ivs in intervals.items():
            if ivs:
                out[layer]["busy_s"] = covered(ivs, min(a for a, _ in ivs),
                                               max(b for _, b in ivs))
        return out

    def gram_builds(self) -> list:
        """(model repr, N, grid bytes, self_s) of every build_gram call."""
        return [(*s.info, self.self_s[s.sid]) for s in self.spans
                if s.key == "covariance.build_gram"]
