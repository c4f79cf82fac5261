"""Structured JSONL event sink and periodic heartbeats.

An :class:`EventSink` appends one JSON object per line to a file —
the campaign engine's lifecycle telemetry (``starnet campaign
--events out.jsonl``).  Every event carries:

* ``ts`` — seconds since the sink opened (monotonic clock, so event
  spacing survives wall-clock adjustments);
* ``type`` — the event name (``campaign_start``, ``unit_finished``,
  ``heartbeat``, ...);
* the emitter's payload fields, passed as keywords.

Serialisation follows the platform's strict-JSON conventions (see
``api/results.py``): non-finite floats become ``null`` — never bare
``NaN``/``Infinity`` tokens, which are invalid JSON — and the dump
runs with ``allow_nan=False`` so a leak would fail loudly rather than
corrupt the stream.  ``emit`` is thread-safe: the line is rendered
outside the lock and written under it in one call, so concurrent
emitters never interleave partial lines.

:class:`Heartbeat` runs a daemon thread emitting a ``heartbeat`` event
every ``interval`` seconds from a caller-supplied field callback —
campaign progress stays observable even when no unit finishes for a
while (one long fused group, a saturated pool).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = ["EventSink", "Heartbeat", "read_events"]


def _json_safe(value: Any) -> Any:
    """Strict-JSON view: non-finite floats null, containers recurse."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class EventSink:
    """Append-only JSONL event stream, safe for concurrent emitters.

    ``max_bytes`` (optional) bounds the file: once an emit pushes it to
    the limit the stream rotates — ``path`` is atomically renamed to
    ``path.1`` (the previous ``path.1``, if any, to ``path.2``) and a
    fresh file is opened, so long campaigns with heartbeats keep at
    most three generations (~3 × ``max_bytes``) on disk.  Rotation
    happens under the emit lock and uses ``os.replace``, so no event
    line is ever split across files.
    """

    def __init__(self, path: str | Path, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._max_bytes = max_bytes
        self._file = self.path.open("a", encoding="utf-8")
        self._size = self._file.tell()
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self._closed = False

    def emit(self, type: str, **fields: Any) -> None:
        """Append one event; a no-op once the sink is closed."""
        event = {"ts": round(time.monotonic() - self._t0, 6), "type": type}
        event.update(_json_safe(fields))
        line = json.dumps(event, sort_keys=True, allow_nan=False) + "\n"
        with self._lock:
            if self._closed:
                return
            self._file.write(line)
            self._file.flush()
            if self._max_bytes is not None:
                self._size += len(line.encode("utf-8"))
                if self._size >= self._max_bytes:
                    self._rotate()

    def _rotate(self) -> None:
        """Shift generations (``path`` → ``.1`` → ``.2``) and reopen.

        Caller holds the lock.  ``os.replace`` is atomic on POSIX, so a
        concurrent reader sees either the old or the new generation,
        never a truncated file.
        """
        self._file.close()
        one = self.path.with_name(self.path.name + ".1")
        two = self.path.with_name(self.path.name + ".2")
        if one.exists():
            os.replace(one, two)
        os.replace(self.path, one)
        self._file = self.path.open("a", encoding="utf-8")
        self._size = 0

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse an event JSONL file back into dicts (tests, CI checks)."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class Heartbeat:
    """Periodic ``heartbeat`` events from a daemon thread.

    ``fields()`` is called outside any sink lock just before each emit;
    it should return a small JSON-safe dict (progress counters, pool
    occupancy).  Use as a context manager so the thread always stops.
    """

    def __init__(
        self,
        sink: EventSink,
        interval_s: float,
        fields: Callable[[], Mapping[str, Any]] | None = None,
    ):
        if interval_s <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval_s}")
        self._sink = sink
        self._interval = interval_s
        self._fields = fields
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="starnet-heartbeat", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            payload = dict(self._fields()) if self._fields is not None else {}
            self._sink.emit("heartbeat", **payload)

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
