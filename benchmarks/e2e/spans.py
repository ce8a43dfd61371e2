"""In-memory spans recorded from outside the program, and self-time arithmetic.

A span is ``(id, name, start, end, parent, stage)``.  The benchmark wraps the
program's public functions at run time (:meth:`Tracer.wrap`) — nothing under
``src/`` knows it is being traced.  Each thread keeps its own span stack, so a
span's parent is the span that was open *on the same thread* when it started;
work on helper threads (pipeline worker, checkpoint writer, the server's
dispatch thread) forms its own trees and never counts against the main
thread's self time.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(id, name, start, end, parent, stage)``
Span = Tuple[int, str, float, float, Optional[int], str]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping children are
    merged before subtracting, so a child is never counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {span[0]: span for span in spans}
    for sid, _name, start, end, parent, _stage in spans:
        if parent is not None and parent in by_id:
            children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, _name, start, end, _parent, _stage in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


class Tracer:
    """Records spans and counters while ``enabled``; wraps and restores callables."""

    def __init__(self) -> None:
        self.enabled = False
        self.stage = "setup"
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)  # type: ignore[arg-type]  # filled on close
        return sid

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = self._open()
        stage = self.stage
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, stage)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counters[f"{self.stage}:{name}"] += amount

    # ------------------------------------------------------------- wrapping
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        measure: Optional[Callable[[tuple, dict, object], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``measure(args, kwargs, result)`` optionally adds to the counter
        ``<name>.amount`` (bytes written, rows encoded) at the same boundary.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            if measure is not None:
                tracer.count(f"{name}.amount", measure(args, kwargs, result))
            return result

        replacement: object = traced
        if isinstance(original, staticmethod):
            replacement = staticmethod(traced)
        elif isinstance(original, classmethod):
            replacement = classmethod(traced)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap_iteration(self, cls: type, name: str) -> None:
        """Record one span per item a ``cls`` instance yields (time inside ``next``)."""
        original = cls.__dict__["__iter__"]
        tracer = self

        def traced_iter(instance):
            iterator = original(instance)
            if not tracer.enabled:
                return iterator
            return _TimedIterator(iterator, tracer, name)

        self._restore.append((cls, "__iter__", original))
        setattr(cls, "__iter__", traced_iter)

    def restore(self) -> None:
        """Put every wrapped callable back (newest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- queries
    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def select(self, name: str, stage: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.finished() if s[1] == name and (stage is None or s[5] == stage)
        ]

    def total(self, name: str, stage: Optional[str] = None) -> float:
        return sum(s[3] - s[2] for s in self.select(name, stage))

    def self_total(self, names: Iterable[str], stage: Optional[str] = None) -> float:
        wanted = set(names)
        selves = self_times(self.finished())
        return sum(
            selves[s[0]]
            for s in self.finished()
            if s[1] in wanted and (stage is None or s[5] == stage)
        )

    def counter(self, name: str, stage: str) -> float:
        return float(self.counters.get(f"{stage}:{name}", 0.0))

    def descendants(self, root: int) -> List[Span]:
        """Every span below ``root`` in its (same-thread) tree."""
        kids: Dict[int, List[Span]] = defaultdict(list)
        for span in self.finished():
            if span[4] is not None:
                kids[span[4]].append(span)
        out: List[Span] = []
        frontier = [root]
        while frontier:
            for child in kids.get(frontier.pop(), ()):
                out.append(child)
                frontier.append(child[0])
        return out

    def dump(self, path: Path, extra: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "columns": ["id", "name", "start", "end", "parent", "stage"],
            "spans": self.finished(),
            "counters": dict(self.counters),
            **extra,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


class _TimedIterator:
    def __init__(self, iterator, tracer: Tracer, name: str) -> None:
        self._iterator = iter(iterator)
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span(self._name):
            return next(self._iterator)
