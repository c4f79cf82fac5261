"""Append-only JSONL result stores keyed by work-unit content hashes.

Every completed unit is appended as one JSON line::

    {"key": "<sha256>", "kind": "model", "params": {...},
     "result": {...}, "elapsed_s": 0.0021}

Two layouts share that record format:

:class:`ResultStore`
    One JSONL file.  Appends are *atomic and durable*: each record is a
    single ``write(2)`` on an ``O_APPEND`` descriptor, serialised across
    processes by an advisory ``flock`` and fsynced before the lock
    drops, so a crashed or concurrent writer can never interleave or
    tear a line that another writer completed.  A torn tail left by a
    crash mid-write is healed on the next open (the partial line is
    terminated so it can never swallow a later record) and tolerated by
    :meth:`ResultStore.load`.

:class:`ShardedResultStore`
    A directory of shard files, one writer lock per shard, selected by a
    stable hash of the record key.  Concurrent writers (pool workers,
    multiple campaign hosts on a shared filesystem, the capacity
    service's background refiner) contend only when they land on the
    same shard; readers never lock at all.  Record format and content
    hashes are byte-identical to the flat layout — a flat store can be
    poured into a sharded one line by line and every key survives.

Both support offline :meth:`~ResultStore.compact`: rewrite last-wins
deduplicated records through an atomic rename.  Compaction must not run
concurrently with writers (their descriptors would keep appending to the
replaced inode); it is an offline maintenance step.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

try:  # POSIX advisory locks; absent on exotic platforms -> no-op locking
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only test environment
    fcntl = None  # type: ignore[assignment]

from repro.campaign.grid import canonical_key
from repro.simulation.config import LEGACY_ENGINE
from repro.utils.atomicio import atomic_write_bytes

__all__ = ["ResultStore", "ShardedResultStore", "migrate_record", "open_store"]


def migrate_record(record: dict) -> dict:
    """A stored record in the current schema (most pass unchanged).

    Every ``sim`` key names its engine.  A ``sim`` record without
    ``engine`` in its params was written when the object engine was the
    default (and keys omitted it): it gets ``engine="object"``
    (:data:`~repro.simulation.config.LEGACY_ENGINE`) and its key
    recomputed, so an object-pinned unit resumes from it.

    Replicated points used to be kind ``sim_batch``, whose params
    defaulted ``engine`` to ``"array"`` and ``replications`` to 8 and
    whose pooled payload named its flag ``any_saturated``.  Such a
    record becomes kind ``sim`` with both defaults written into its
    params, the flag renamed ``saturated``, and the key recomputed: the
    key a ``sim`` unit with those params has, so resume finds it.
    """
    kind = record.get("kind")
    params = record.get("params", {})
    if kind == "sim" and "engine" not in params:
        params = {**params, "engine": LEGACY_ENGINE}
        return {**record, "key": canonical_key("sim", params), "params": params}
    if kind != "sim_batch":
        return record
    params = {"engine": "array", "replications": 8, **params}
    result = dict(record.get("result", {}))
    if "any_saturated" in result:
        result["saturated"] = result.pop("any_saturated")
    key = canonical_key("sim", params)
    return {**record, "key": key, "kind": "sim", "params": params, "result": result}


def _line_count(path: Path) -> int:
    """Non-blank lines of a store file (records, torn or not)."""
    with path.open("r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _write_records(path: Path, records: Mapping[str, dict]) -> None:
    """Replace ``path`` with ``records``, one JSON line each, atomically."""
    blob = "".join(json.dumps(record, default=str) + "\n" for record in records.values())
    atomic_write_bytes(path, blob.encode("utf-8"))


@contextmanager
def _locked(fd: int) -> Iterator[None]:
    """Exclusive advisory lock on ``fd`` for the duration of the block."""
    if fcntl is None:  # pragma: no cover - POSIX-only test environment
        yield
        return
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)


class ResultStore:
    """JSONL persistence for campaign results with hit/append counters.

    ``fsync=False`` trades durability of the last few records for append
    throughput (atomicity and the lock discipline are unaffected) — the
    capacity service's refiner uses the default durable mode; huge
    throwaway campaigns may opt out.
    """

    def __init__(self, path: str | Path, *, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._fd: int | None = None
        #: Units satisfied from disk instead of recomputed (resume hits).
        self.hits = 0
        #: Records appended by this process.
        self.appended = 0

    # -- reading --------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Read every complete record, keyed by unit hash (last wins).

        A truncated trailing line — the signature of a killed campaign —
        is ignored rather than treated as corruption.  Legacy records
        come back through :func:`migrate_record`, in the current schema.
        """
        records: dict[str, dict] = {}
        if not self.path.exists():
            return records
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                record = migrate_record(record)
                key = record.get("key")
                if key:
                    records[key] = record
        return records

    def __len__(self) -> int:
        return len(self.load())

    def signature(self) -> tuple:
        """Cheap change token: (size, mtime_ns) of the backing file.

        The capacity service polls this to decide when its in-memory
        index must be rebuilt; any append changes the size.
        """
        try:
            st = self.path.stat()
        except OSError:
            return (0, 0)
        return (st.st_size, st.st_mtime_ns)

    # -- writing --------------------------------------------------------

    def _open_fd(self) -> int:
        """Open the append descriptor, healing a torn tail first.

        A writer killed between ``write`` syscalls (or a non-atomic
        legacy append) can leave the file without a trailing newline.
        Terminating that partial line *before* this process appends
        guarantees the corruption stays confined to the already-lost
        record instead of gluing itself onto a fresh one.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            with _locked(fd):
                size = os.fstat(fd).st_size
                if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                    os.write(fd, b"\n")
        except OSError:
            pass
        return fd

    def append(
        self,
        key: str,
        kind: str,
        params: Mapping[str, Any],
        result: Any,
        elapsed_s: float | None = None,
    ) -> None:
        """Append one completed unit atomically and flush it to disk.

        The whole record travels in one ``write(2)`` under an exclusive
        ``flock``, so concurrent writers on the same file (or shard)
        serialise per record and readers only ever observe complete
        lines plus at most one torn tail after a crash.
        """
        record = {"key": key, "kind": kind, "params": dict(params), "result": result}
        if elapsed_s is not None:
            record["elapsed_s"] = round(elapsed_s, 6)
        line = (json.dumps(record, default=str) + "\n").encode("utf-8")
        if self._fd is None:
            self._fd = self._open_fd()
        with _locked(self._fd):
            os.write(self._fd, line)
            if self.fsync:
                os.fsync(self._fd)
        self.appended += 1

    # -- maintenance ----------------------------------------------------

    def compact(self) -> tuple[int, int]:
        """Rewrite the store last-wins deduplicated; (kept, dropped).

        Offline only: the rewrite publishes through an atomic rename, so
        lock-free readers are safe at any moment, but a concurrent
        *writer* holding the old descriptor would keep appending to the
        unlinked inode and lose those records.
        """
        records = self.load()
        if not self.path.exists():
            return (0, 0)
        total = _line_count(self.path)
        _write_records(self.path, records)
        return (len(records), total - len(records))

    def close(self) -> None:
        """Release the append descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _shard_of(key: str, shards: int) -> int:
    """Stable shard index of a record key (any string, not just hashes)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % shards


class ShardedResultStore(ResultStore):
    """A directory of JSONL shards for many concurrent writers.

    ``path`` is a directory holding ``shard-XX.jsonl`` files; a record
    lands on the shard named by a stable hash of its key, so duplicate
    keys always collide on one shard and last-wins semantics survive the
    merge.  Writers lock only their shard; readers scan all shards
    lock-free.  ``shards`` is fixed at creation and persisted in
    ``shards.json`` so every process agrees on the layout.
    """

    _META = "shards.json"

    def __init__(self, path: str | Path, *, shards: int = 16, fsync: bool = True):
        super().__init__(path, fsync=fsync)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = self._resolve_shard_count(shards)
        self._children: dict[int, ResultStore] = {}

    def _resolve_shard_count(self, requested: int) -> int:
        meta_path = self.path / self._META
        try:
            persisted = json.loads(meta_path.read_text(encoding="utf-8"))
            return int(persisted["shards"])
        except (OSError, ValueError, KeyError, TypeError):
            pass
        if self.path.exists() and any(self.path.glob("shard-*.jsonl")):
            # Legacy/foreign layout without metadata: infer from files.
            count = max(
                (int(p.stem.split("-")[1], 16) for p in self.path.glob("shard-*.jsonl")),
                default=requested - 1,
            ) + 1
            return max(count, 1)
        return requested

    def _write_meta(self) -> None:
        meta_path = self.path / self._META
        if not meta_path.exists():
            atomic_write_bytes(
                meta_path,
                (json.dumps({"shards": self.shards}) + "\n").encode("utf-8"),
            )

    def _shard_path(self, index: int) -> Path:
        return self.path / f"shard-{index:02x}.jsonl"

    def _child(self, index: int) -> ResultStore:
        child = self._children.get(index)
        if child is None:
            self.path.mkdir(parents=True, exist_ok=True)
            self._write_meta()
            child = ResultStore(self._shard_path(index), fsync=self.fsync)
            self._children[index] = child
        return child

    # -- reading --------------------------------------------------------

    def load(self) -> dict[str, dict]:
        """Merge the shards, last wins within each; a record off its key's
        shard (re-keyed by :func:`migrate_record`, not yet moved by
        :meth:`compact`) yields to one on it, which was written later."""
        home: dict[str, dict] = {}
        strays: dict[str, dict] = {}
        if not self.path.exists():
            return home
        for shard_path in sorted(self.path.glob("shard-*.jsonl")):
            for key, record in ResultStore(shard_path).load().items():
                on_home = shard_path == self._shard_path(_shard_of(key, self.shards))
                (home if on_home else strays)[key] = record
        return {**strays, **home}

    def signature(self) -> tuple:
        if not self.path.exists():
            return (0, 0)
        parts = []
        for shard_path in sorted(self.path.glob("shard-*.jsonl")):
            try:
                st = shard_path.stat()
            except OSError:
                continue
            parts.append((shard_path.name, st.st_size, st.st_mtime_ns))
        return tuple(parts)

    # -- writing --------------------------------------------------------

    def append(
        self,
        key: str,
        kind: str,
        params: Mapping[str, Any],
        result: Any,
        elapsed_s: float | None = None,
    ) -> None:
        self._child(_shard_of(key, self.shards)).append(key, kind, params, result, elapsed_s)
        self.appended += 1

    # -- maintenance ----------------------------------------------------

    def compact(self) -> tuple[int, int]:
        """Compact every shard (offline; see :meth:`ResultStore.compact`),
        moving each record to the shard its key names.  Shards first gain
        the records moving in, then drop those moving out: a crash in
        between can leave a record on two shards, never on none."""
        if not self.path.exists():
            return (0, 0)
        held = {p: ResultStore(p).load() for p in sorted(self.path.glob("shard-*.jsonl"))}
        total = sum(map(_line_count, held))
        records = self.load()
        home: dict[Path, dict] = {p: {} for p in held}
        for key, record in records.items():
            home.setdefault(self._shard_path(_shard_of(key, self.shards)), {})[key] = record
        for path in home:
            _write_records(path, {**held.get(path, {}), **home[path]})
        for path in home:
            _write_records(path, home[path])
        return (len(records), total - len(records))

    def close(self) -> None:
        for child in self._children.values():
            child.close()
        self._children.clear()


def open_store(path: str | Path, *, fsync: bool = True) -> ResultStore:
    """Open a store path with layout detection.

    An existing directory (or a path without a ``.jsonl``/``.json``
    suffix) opens as a :class:`ShardedResultStore`; anything else keeps
    the historical flat-file behaviour, so every existing campaign store
    and ``--out results.jsonl`` invocation is untouched.
    """
    path = Path(path)
    if path.is_dir() or (not path.exists() and path.suffix not in (".jsonl", ".json")):
        return ShardedResultStore(path, fsync=fsync)
    return ResultStore(path, fsync=fsync)
