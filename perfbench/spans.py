"""In-memory span tracer that times a program from outside its code.

``traced(log, targets)`` swaps named callables of already-imported modules
and classes for timing wrappers and puts the originals back on exit. Each
call becomes one span: its name, start, end, the span that was open when
it began (its parent) and an optional work count. Spans are kept in
compact arrays while the traced code runs and reduced afterwards.

The tracer is single-threaded: spans opened in other threads or processes
would get wrong parents, so traced code must run serially in-process.
"""

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager


class SpanLog:
    """Append-only store of the spans of one traced region."""

    def __init__(self):
        self.names = []              # name table; spans hold indices into it
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")     # index of the enclosing span, or -1
        self.work = array("d")
        self._open = []

    def __len__(self):
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.work.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, work: float = 0.0):
        self.end[i] = time.perf_counter()
        self.work[i] = work
        self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            work: float = 0.0) -> int:
        """Append a finished span; parents must be added before children."""
        if parent >= len(self.name):
            raise ValueError("parent span must be added first")
        i = len(self.name)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.work.append(work)
        return i

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def calls(self) -> dict:
        """Span indices by name, one per call: a span directly inside a
        span of the same name (a wrapped method calling another wrapped
        alias, such as ``forward`` calling ``forward_cache``) is part of its
        parent's call and left out."""
        out = {name: [] for name in self.names}
        nm, par = self.name, self.parent
        for i in range(len(nm)):
            if par[i] < 0 or nm[par[i]] != nm[i]:
                out[self.names[nm[i]]].append(i)
        return out

    def durations(self, idx):
        return [self.end[i] - self.start[i] for i in idx]

    def enclosing(self, name: str):
        """For every span, the index of the nearest enclosing span with
        this name, or -1."""
        nid = self._ids.get(name, -1)
        out = array("i")
        nm, par = self.name, self.parent
        for i in range(len(nm)):
            p = par[i]
            out.append(-1 if p < 0 else (p if nm[p] == nid else out[p]))
        return out


def self_times(log: SpanLog):
    """Each span's duration minus the durations of its direct children.
    Spans nest strictly (the tracer is single-threaded), so children
    neither overlap nor leave their parent."""
    start, end, parent = log.start, log.end, log.parent
    out = [end[i] - start[i] for i in range(len(log))]
    for i in range(len(log)):
        if parent[i] >= 0:
            out[parent[i]] -= end[i] - start[i]
    return out


def _wrap(log: SpanLog, name_id: int, fn, work):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = log.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(i, work(*args, **kwargs) if work else 0.0)
    return wrapper


@contextmanager
def traced(log: SpanLog, targets, package: str):
    """Record a span for every call of the target callables.

    ``targets`` holds ``(span_name, owner, attrs, work)`` entries. ``owner``
    is ``"module"`` or ``"module:Class"``; each name in ``attrs`` that the
    owner defines itself is wrapped, and names it lacks are skipped, so
    subclasses inherit a wrapped base method once. A module function is
    also replaced wherever a loaded module of ``package`` imported it by
    name. ``work(*args, **kwargs)``, when given, returns the span's work
    count from the call's arguments.
    """
    undo = []
    try:
        for span_name, owner, attrs, work in targets:
            nid = log.name_id(span_name)
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    if attr in vars(cls):
                        orig = vars(cls)[attr]
                        undo.append((cls, attr, orig))
                        setattr(cls, attr, _wrap(log, nid, orig, work))
                continue
            users = [m for k, m in list(sys.modules.items())
                     if m is not None and (k == package
                                           or k.startswith(package + "."))]
            for attr in attrs:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = _wrap(log, nid, orig, work)
                for m in users:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            undo.append((m, key, orig))
                            setattr(m, key, wrapper)
        yield log
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
