"""Span tracer that wraps racml's public functions from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
module that looks it up, records one span per call (name, start, end,
parent) in memory, and ``Tracer.restore()`` puts every original object
back. Nothing under ``src/`` is modified; the package never knows it is
being traced. Spans go to disk only when ``write()`` is called at the end.

A span's self time is its duration minus the durations of its direct
children, so the self times of one root's subtree sum to the root's
duration. Per-layer metrics are built from self times, which keeps them
additive: a saving in one layer shows up once.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# Function name -> the modules whose global of that name is replaced. A
# function is patched in each module that calls it through a module-global
# lookup; the linear-algebra calls are looked up as attributes of numpy.linalg
# and scipy.linalg by every caller, so they are patched there. The span name
# is the function name.
TRACED = {
    "validate_problem": ["racml.engine"],
    "chunk_indices": ["racml.engine", "racml.svm", "racml.elastic_net"],
    "solve": ["racml.engine"],
    "run_sweep": ["racml.engine"],
    "solve_block": ["racml.engine", "racml.svm"],
    "compute_residuals": ["racml.engine"],
    "dual_update": ["racml.engine"],
    "cholesky": ["numpy.linalg"],
    "cho_solve": ["scipy.linalg"],
    "train": ["racml.svm"],
    "assemble_kernel_block": ["racml.svm"],
    "kernel_cross": ["racml.svm"],
    "compute_bias": ["racml.svm"],
    "fit": ["racml.elastic_net"],
    "z_update": ["racml.elastic_net"],
    "certify": ["racml.spectral"],
    "expected_operators": ["racml.spectral"],
    "iteration_map": ["racml.spectral"],
    "gauss_seidel_matrix": ["racml.spectral"],
    "gen_regression": ["racml.data_io"],
    "gen_blobs": ["racml.data_io"],
}

# Spans the benchmark opens around its own work (one per timed operation and
# per input build); their self time is benchmark glue, not a racml layer.
OP_SPAN = "bench.op"
BUILD_SPAN = "bench.build"


def snapshot() -> dict:
    """Every object the tracer may replace, keyed by (module, attribute).

    Equal snapshots before ``install`` and after ``restore`` show that no
    wrapper was left behind.
    """
    state = {}
    for name, module_names in TRACED.items():
        for module_name in module_names:
            state[module_name, name] = getattr(
                importlib.import_module(module_name), name, None)
    svm = importlib.import_module("racml.svm")
    state["racml.svm", "KernelRowCache"] = getattr(svm, "KernelRowCache", None)
    elastic_net = importlib.import_module("racml.elastic_net")
    state["racml.elastic_net", "_ALLOC_HOOK"] = getattr(
        elastic_net, "_ALLOC_HOOK", None)
    return state


class Tracer:
    """In-memory span recorder plus counters observed at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, start, end, parent_index)
        self._stack: list[int] = []
        self._undo: list = []  # callables that reverse each patch
        self.counters: dict[str, float] = {}
        self._caches: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name_id, start, end, parent)

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counters observed at call boundaries -------------------------------

    def _observe_block(self, args, kwargs, x):
        system = args[0] if args else kwargs["system"]
        at_bound = np.count_nonzero(x <= system.lower) + \
            np.count_nonzero(x >= system.upper)
        self.count("block_vars", x.size)
        self.count("block_vars_at_bound", int(at_bound))

    def _observe_kernel(self, args, kwargs, k):
        self.count("kernel_rows", k.shape[0])

    def _track_cache(self, cls):
        caches = self._caches

        def make(*args, **kwargs):
            cache = cls(*args, **kwargs)
            caches.append(cache)
            return cache

        return make

    def cache_hits(self) -> tuple[int, int]:
        """Hits and misses of every kernel row cache built while traced."""
        hits = sum(getattr(c, "hits", 0) for c in self._caches)
        misses = sum(getattr(c, "misses", 0) for c in self._caches)
        return hits, misses

    # -- patching ----------------------------------------------------------

    def _patch(self, module, attr, replacement):
        original = getattr(module, attr)
        self._undo.append(lambda: setattr(module, attr, original))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function that exists in the imported package.

        Functions a module no longer has are skipped, so their metrics read
        zero instead of the benchmark failing.
        """
        if self._undo:
            raise RuntimeError("tracer is already installed")
        observers = {"solve_block": self._observe_block,
                     "kernel_cross": self._observe_kernel}
        wrapped: dict[int, object] = {}
        for name, module_names in TRACED.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                original = getattr(module, name, None)
                if original is None:
                    continue
                # one wrapper per function object, shared by every module
                key = id(original)
                if key not in wrapped:
                    wrapped[key] = self._wrap(name, original, observers.get(name))
                self._patch(module, name, wrapped[key])
        svm = importlib.import_module("racml.svm")
        if hasattr(svm, "KernelRowCache"):
            self._patch(svm, "KernelRowCache", self._track_cache(svm.KernelRowCache))
        elastic_net = importlib.import_module("racml.elastic_net")
        if hasattr(elastic_net, "set_alloc_hook"):
            elastic_net.set_alloc_hook(
                lambda elems: self.count("enet_block_elems", elems))
            self._undo.append(lambda: elastic_net.set_alloc_hook(None))

    def restore(self) -> None:
        """Put back every original object, in reverse order of patching."""
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as arrays: name id, start, end, parent index, self time."""
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("spans are still open")
        if not done:
            empty = np.zeros(0)
            return (np.zeros(0, dtype=int), empty, empty,
                    np.zeros(0, dtype=int), empty)
        name_id, start, end, parent = (np.asarray(col) for col in zip(*done))
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        return name_id, start, end, parent, dur - child_time

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        name_id, start, end, _parent, self_time = self.arrays()
        dur = end - start
        out = {}
        for i, name in enumerate(self.names):
            mask = name_id == i
            out[name] = {"calls": int(np.count_nonzero(mask)),
                         "total_s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum())}
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        name_id, _start, _end, parents, _self = self.arrays()
        mask = (name_id == self._name_ids[child]) & (parents >= 0)
        return int(np.count_nonzero(
            name_id[parents[mask]] == self._name_ids[parent]))

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        name_id, start, end, parent, self_time = self.arrays()
        origin = start.min() if start.size else 0.0
        np.savez_compressed(path, names=np.asarray(self.names), name_id=name_id,
                            start=start - origin, end=end - origin,
                            parent=parent, self_time=self_time)
