"""In-memory spans around calls into the program, patched in from outside.

A :class:`Tracer` replaces chosen functions and methods with thin
wrappers that record one span (name, start, end, parent, thread) per
call.  Nothing inside ``src/`` changes: the wrappers are installed with
:meth:`Tracer.patch_method` / :meth:`Tracer.patch_function` and removed
with :meth:`Tracer.uninstall`, which restores every original binding.

Spans nest by thread: a wrapped call made while another wrapped call is
open on the same thread becomes its child.  A span may also *adopt* an
open span of another thread as its parent (a server thread answering the
one request a client has in flight), which is how HTTP time is separated
from answer time.  A call of a layer that is already open on the same
thread records no second span, so recursion never double counts.

Self time is a span's duration minus the part of it covered by its
children; the union of all spans measures how much of a wall-time window
any named layer covers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["Span", "Tracer", "covered_ns", "self_ns"]


@dataclass
class Span:
    """One completed call of a wrapped function."""

    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    thread: str

    @property
    def dur(self) -> int:
        return self.end - self.start


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Nanoseconds of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Self time of every span: its duration minus its children's cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.dur - covered_ns(children.get(s.id, []), s.start, s.end) for s in spans
    }


class Tracer:
    """Records spans and call counts for wrapped program functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: dict[str, list[int]] = {}
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def _call(self, name, fn, args, kwargs, *, rename=None, adopt=None, after=None):
        stack = self._stack()
        if any(open_name == name for _, open_name in stack):
            return fn(*args, **kwargs)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            if stack:
                parent = stack[-1][0]
            elif adopt is not None and self._open.get(adopt):
                parent = self._open[adopt][-1]
            else:
                parent = None
            self._open.setdefault(name, []).append(sid)
        stack.append((sid, name))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self._open[name].remove(sid)
        final = rename(result) if rename is not None else name
        with self._lock:
            self.spans.append(
                Span(sid, final, start, end, parent, threading.current_thread().name)
            )
        if after is not None:
            after(args, kwargs, result)
        return result

    # -- patching -------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        count_only: bool = False,
        rename: Callable[[Any], str] | None = None,
        adopt: str | None = None,
        before: Callable[[inspect.BoundArguments], None] | None = None,
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records ``name`` while enabled.

        ``count_only`` counts calls without a span; ``rename(result)``
        names the span after the call; ``adopt`` names a span of another
        thread to parent under when this thread has none open;
        ``before`` may edit the bound arguments and ``after(args,
        kwargs, result)`` observes the result.
        """
        tracer = self
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                before(bound)
                args, kwargs = bound.args, bound.kwargs
            if count_only:
                tracer.count(name)
                return fn(*args, **kwargs)
            return tracer._call(
                name, fn, args, kwargs, rename=rename, adopt=adopt, after=after
            )

        return wrapper

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as layer ``name``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, **options))
        self._patches.append((cls, attr, original))

    def patch_function(self, fn: Callable, name: str, **options) -> int:
        """Wrap every module-level binding of ``fn`` in the ``repro`` package.

        Functions are often imported by name into other modules or held
        in registries, so each module attribute *and* each module-level
        dict value that is ``fn`` itself is replaced.  Returns the number
        of bindings patched; zero means the layer is no longer reachable
        and the caller should fail loudly.
        """
        wrapper = self.wrap(fn, name, **options)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))
                    patched += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper
                            self._patches.append((value, key, fn))
                            patched += 1
        return patched

    def uninstall(self) -> None:
        """Restore every binding replaced by a ``patch_*`` call."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- export ---------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write spans as Chrome trace-event JSON via the program's exporter.

        Spans are first written in the program's span-event JSONL form
        (one lane per thread, keyed as the trace id), then converted by
        :func:`repro.obs.tracing.export_chrome_trace`, so the file has the
        same shape as ``starnet trace export`` output.
        """
        from repro.obs.tracing import export_chrome_trace

        path.parent.mkdir(parents=True, exist_ok=True)
        events = path.with_suffix(".events.jsonl")
        with events.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "type": "span",
                            "name": s.name,
                            "trace_id": s.thread,
                            "span_id": str(s.id),
                            "parent_id": None if s.parent is None else str(s.parent),
                            "t0_ns": s.start,
                            "dur_ns": s.dur,
                        }
                    )
                    + "\n"
                )
        export_chrome_trace(events, path)
        events.unlink()
