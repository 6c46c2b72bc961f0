"""Span tracer for the benchmark's traced runs.

A traced run wraps every public function of the ``ncsq`` layers in each
module namespace that bound it, plus scipy's ``expm`` and
``expm_multiply`` where ``fock`` and ``verifier`` bound them and numpy's
``lstsq`` when those two modules call it.  Each call becomes a span with
a name (``<layer>.<function>``), start, end, parent and thread.

Parents are tracked per thread.  A span opened on a thread with no open
span (a pool worker) takes as parent the innermost span open on the
thread that started tracing, which is the call waiting on the pool.

Self time is a span's duration minus the time covered by its children.
Children on one thread never overlap; children on pool threads may, so
coverage is the union of their intervals.  The tracer computes it as the
spans close, which lets it keep only per-name totals for names called
more than ``KEEP_SPANS`` times while still giving exact self times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

LAYERS = ("params", "analytic", "fock", "verifier", "cli")

# scipy functions wrapped where a layer module bound them by name.
FOREIGN = ("expm", "expm_multiply")

# Arguments whose length counts the units of work of one call.
WORK_UNITS = {
    "verifier.crosscheck_suite": "cases",
    "verifier.overcompleteness_mc": "probes",
}

# Spans kept per name; later calls of that name only add to its totals.
# The kept spans go into the result file, so this stays small.
KEEP_SPANS = 1000

# Bytes of one complex128 entry; ``fock.dense_bytes`` is computed as this
# times dim**2 for each distinct square array a ``fock`` call returns.
ENTRY_BYTES = 16


@dataclass(frozen=True)
class Span:
    """One closed call: ids index the tracer's span sequence."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


@dataclass
class Totals:
    """Per-name aggregate over every call, kept or not."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0


class _Open:
    __slots__ = ("id", "name", "start", "parent", "thread", "covered",
                 "active", "cover_start")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional["_Open"], thread: int) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.thread = thread
        self.covered = 0.0
        self.active = 0
        self.cover_start = 0.0


class Tracer:
    """Collects spans and per-name totals; safe to use from many threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[_Open]] = {}
        self._root = threading.get_ident()
        self._next_id = 0
        self._dense_seen: Dict[int, weakref.ref] = {}
        self.spans: List[Span] = []
        self.totals: Dict[str, Totals] = {}
        self.dense_bytes = 0

    def enter(self, name: str) -> _Open:
        now = self._clock()
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent: Optional[_Open] = stack[-1]
            else:
                root = self._stacks.get(self._root)
                parent = root[-1] if tid != self._root and root else None
            node = _Open(self._next_id, name, now, parent, tid)
            self._next_id += 1
            if parent is not None:
                if parent.active == 0:
                    parent.cover_start = now
                parent.active += 1
            stack.append(node)
        return node

    def exit(self, node: _Open, units: int = 0) -> None:
        now = self._clock()
        with self._lock:
            stack = self._stacks[node.thread]
            if not stack or stack[-1] is not node:
                raise RuntimeError("span %r closed out of order" % node.name)
            stack.pop()
            duration = now - node.start
            parent = node.parent
            if parent is not None:
                parent.active -= 1
                if parent.active == 0:
                    parent.covered += now - parent.cover_start
            tot = self.totals.get(node.name)
            if tot is None:
                tot = self.totals[node.name] = Totals()
            tot.calls += 1
            tot.total_s += duration
            tot.self_s += duration - node.covered
            tot.units += units
            if tot.calls <= KEEP_SPANS:
                self.spans.append(Span(
                    node.id, node.name, node.start, now,
                    None if parent is None else parent.id, node.thread,
                ))

    def count_dense(self, value: object) -> None:
        """Add ENTRY_BYTES * n**2 for each new square array in ``value``."""
        for arr in _arrays(value):
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                continue
            with self._lock:
                ref = self._dense_seen.get(id(arr))
                if ref is not None and ref() is arr:
                    continue
                key = id(arr)
                self._dense_seen[key] = weakref.ref(
                    arr, lambda _ref, key=key: self._dense_seen.pop(key, None))
                self.dense_bytes += ENTRY_BYTES * arr.shape[0] ** 2


def _arrays(value: object, depth: int = 0) -> Iterator[np.ndarray]:
    if isinstance(value, np.ndarray):
        yield value
    elif depth < 2:
        if isinstance(value, (tuple, list)):
            for item in value:
                yield from _arrays(item, depth + 1)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                yield from _arrays(getattr(value, f.name), depth + 1)


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    layer = name.split(".", 1)[0]
    unit_arg = WORK_UNITS.get(name)
    signature = inspect.signature(fn) if unit_arg else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        units = 0
        if signature is not None:
            units = len(signature.bind(*args, **kwargs).arguments[unit_arg])
        node = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(node, units)
        if layer == "fock":
            tracer.count_dense(result)
        return result

    return traced


def _caller_named(tracer: Tracer, short: str, fn: Callable) -> Callable:
    """Wrap a numpy function; spans are named by the calling layer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        module = sys._getframe(1).f_globals.get("__name__", "")
        layer = module[len("ncsq."):] if module.startswith("ncsq.") else ""
        if layer not in ("fock", "verifier"):
            return fn(*args, **kwargs)
        node = tracer.enter("%s.%s" % (layer, short))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(node)

    return traced


def _targets() -> List[tuple]:
    """Every (namespace, attribute, span name) the tracer wraps."""
    import importlib

    names = ["ncsq"] + ["ncsq." + layer for layer in LAYERS]
    modules = [importlib.import_module(name) for name in names]
    targets = []
    for module in modules:
        here = module.__name__.rpartition(".")[2]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            owner = value.__module__ or ""
            if owner.startswith("ncsq.") and owner[5:] in LAYERS:
                targets.append((module, attr, "%s.%s" % (owner[5:], value.__name__)))
            elif attr in FOREIGN and here in ("fock", "verifier"):
                targets.append((module, attr, "%s.%s" % (here, attr)))
    return targets


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original))
        saved.append((np.linalg, "lstsq", np.linalg.lstsq))
        np.linalg.lstsq = _caller_named(tracer, "lstsq", np.linalg.lstsq)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
