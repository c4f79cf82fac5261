"""``starnet serve``: an async stdlib HTTP/JSON front end for the engine.

The server is a small asyncio HTTP/1.1 implementation (stdlib only — no
framework dependency) over one shared :class:`QueryEngine`.  Queries
execute on a thread-pool executor so the event loop stays responsive,
and cold answers wake a dedicated single-thread refinement worker whose
simulation runs land refined rows in the store without ever blocking
query traffic.

Endpoints
---------
``GET /health``
    Liveness + the ResultSet schema version the server speaks.
``GET /stats``
    Engine counters (warm/surrogate/cold, pending refinements, index
    shape), uptime, and per-tier latency summaries (p50/p95).
``GET /metrics``
    The engine's metrics registry in Prometheus text exposition format
    0.0.4 — see ``docs/observability.md`` for the metric catalogue.
``POST /query``
    One :class:`~repro.service.query.Query` as JSON; the response body
    is a one-row ResultSet JSONL document (the platform's wire format —
    the header line echoes the schema version, also mirrored in the
    ``X-Schema-Version`` response header; ``X-Served`` carries the
    resolution tier).  Every query gets a trace: ``X-Trace-Id`` on the
    response names it (a request ``X-Trace-Id`` header is adopted), and
    with ``--trace-events`` configured the query's span tree lands in
    the event file (``starnet trace export`` renders it for
    ``chrome://tracing``).
``POST /batch``
    ``{"queries": [...]}`` — many queries, one ResultSet JSONL with the
    answer rows in request order (one shared trace id, one root span
    per query).

Run it from the CLI (``starnet serve --store ...``), or embed
:class:`ServiceServer` for in-process serving (tests, examples).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.api.results import SCHEMA_VERSION, ResultSet
from repro.obs import TraceContext
from repro.service.engine import QueryEngine
from repro.service.query import Query
from repro.utils.exceptions import ConfigurationError

__all__ = ["ServiceServer", "run_server"]

#: Largest request body accepted (a batch of ~10k queries fits easily).
_MAX_BODY = 8 * 1024 * 1024

_JSON = "application/json"
_JSONL = "application/x-ndjson"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


def _http_response(
    status: int,
    reason: str,
    body: bytes,
    content_type: str,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"X-Schema-Version: {SCHEMA_VERSION}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body


def _json_body(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _HttpError(Exception):
    def __init__(self, status: int, reason: str, message: str):
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message


class ServiceServer:
    """One engine behind an asyncio HTTP listener.

    ``port=0`` binds an ephemeral port (read :attr:`port` after start).
    Use :meth:`start`/:meth:`close` for a background thread with its own
    event loop, or :meth:`serve_forever` to block the calling thread
    (the CLI path).
    """

    def __init__(self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None
        # Queries share the default pool; refinement gets a dedicated
        # single thread so a long simulation never starves query serving.
        self._refine_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="starnet-refine"
        )
        self._refine_wanted: asyncio.Event | None = None

    # -- request handling ------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "Bad Request", "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _HttpError(413, "Payload Too Large", f"body over {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body, headers

    def _parse_json(self, body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "Bad Request", f"invalid JSON body: {exc}") from None

    def _answer_one(self, payload: Any, trace: TraceContext | None = None) -> Any:
        try:
            query = Query.from_dict(payload)
        except ConfigurationError as exc:
            raise _HttpError(400, "Bad Request", str(exc)) from None
        try:
            return self.engine.answer(query, trace=trace)
        except ConfigurationError as exc:
            raise _HttpError(422, "Unprocessable Entity", str(exc)) from None

    async def _dispatch(
        self, method: str, path: str, body: bytes, headers: dict[str, str]
    ) -> bytes:
        loop = asyncio.get_running_loop()
        if method == "GET" and path == "/health":
            index_size = await loop.run_in_executor(
                None, lambda: self.engine.stats()["indexed_records"]
            )
            return _http_response(
                200,
                "OK",
                _json_body(
                    {
                        "status": "ok",
                        "schema_version": SCHEMA_VERSION,
                        "indexed_records": index_size,
                    }
                ),
                _JSON,
            )
        if method == "GET" and path == "/stats":
            stats = await loop.run_in_executor(None, self.engine.stats)
            return _http_response(200, "OK", _json_body(stats), _JSON)
        if method == "GET" and path == "/metrics":
            # render() only takes the registry lock (no store I/O), but
            # run it off-loop anyway so a large registry never stalls
            # connection accept.
            text = await loop.run_in_executor(None, self.engine.registry.render)
            return _http_response(
                200, "OK", text.encode("utf-8"), _PROMETHEUS
            )
        if method == "POST" and path == "/query":
            payload = self._parse_json(body)
            # One root context per request: a fresh trace, or the
            # caller's via an ``X-Trace-Id`` header (so distributed
            # clients stitch our spans onto theirs).  The response
            # always echoes the id, sink or no sink.
            ctx = TraceContext.root(headers.get("x-trace-id"))
            row = await loop.run_in_executor(None, self._answer_one, payload, ctx)
            self._kick_refiner()
            return _http_response(
                200,
                "OK",
                ResultSet([row]).to_jsonl().encode("utf-8"),
                _JSONL,
                {
                    "X-Served": row.meta.get("served", row.provenance),
                    "X-Trace-Id": ctx.trace_id,
                },
            )
        if method == "POST" and path == "/batch":
            payload = self._parse_json(body)
            if not isinstance(payload, dict) or not isinstance(payload.get("queries"), list):
                raise _HttpError(400, "Bad Request", "batch body needs a 'queries' list")
            batch_ctx = TraceContext.root(headers.get("x-trace-id"))

            def _answer_all() -> list:
                # Every query in the batch gets its own root span inside
                # the one shared trace id.
                return [
                    self._answer_one(q, TraceContext.root(batch_ctx.trace_id))
                    for q in payload["queries"]
                ]

            rows = await loop.run_in_executor(None, _answer_all)
            self._kick_refiner()
            return _http_response(
                200,
                "OK",
                ResultSet(rows).to_jsonl().encode("utf-8"),
                _JSONL,
                {"X-Trace-Id": batch_ctx.trace_id},
            )
        raise _HttpError(404, "Not Found", f"no route for {method} {path}")

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            response = await self._dispatch(*request)
        except _HttpError as exc:
            response = _http_response(
                exc.status, exc.reason, _json_body({"error": exc.message}), _JSON
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except Exception as exc:  # never kill the listener on one request
            response = _http_response(
                500,
                "Internal Server Error",
                _json_body({"error": f"{type(exc).__name__}: {exc}"}),
                _JSON,
            )
        try:
            writer.write(response)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    # -- background refinement ------------------------------------------

    def _kick_refiner(self) -> None:
        if self._refine_wanted is not None and self.engine.pending_refinements:
            self._refine_wanted.set()

    async def _refine_loop(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._refine_wanted is not None
        while True:
            await self._refine_wanted.wait()
            self._refine_wanted.clear()
            await loop.run_in_executor(self._refine_pool, self.engine.refine)

    # -- lifecycle -------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._refine_wanted = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        refiner = asyncio.ensure_future(self._refine_loop())
        self._started.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            refiner.cancel()

    def serve_forever(self) -> None:
        """Run the server on the calling thread until interrupted."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            pass
        finally:
            self._refine_pool.shutdown(wait=False)

    def start(self) -> "ServiceServer":
        """Start on a background thread; returns once the port is bound."""

        def _run() -> None:
            try:
                asyncio.run(self._main())
            except BaseException as exc:  # surface bind errors to start()
                self._startup_error = exc
                self._started.set()

        self._thread = threading.Thread(
            target=_run, name="starnet-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def close(self) -> None:
        """Stop a background server started with :meth:`start`."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._refine_pool.shutdown(wait=False)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


def run_server(
    store,
    *,
    host: str = "127.0.0.1",
    port: int = 8351,
    cache_dir=None,
    refine: bool = True,
    trace_events=None,
) -> None:
    """Build an engine over ``store`` and serve it until interrupted.

    Refinement drains serially on the server's background refinement
    thread.  ``trace_events`` (a JSONL path) turns on span emission —
    every query and refinement unit lands in the file, ready for
    ``starnet trace export``.
    """
    engine = QueryEngine(
        store,
        cache_dir=cache_dir,
        refine=refine,
        trace_events=trace_events,
    )
    server = ServiceServer(engine, host=host, port=port)
    stats = engine.stats()
    print(
        f"starnet serve: listening on http://{host}:{port} "
        f"(store={stats['store']}, {stats['indexed_records']} indexed records, "
        f"refine={'on' if refine else 'off'})",
        flush=True,
    )
    server.serve_forever()
