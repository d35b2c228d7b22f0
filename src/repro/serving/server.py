"""The asyncio HTTP/JSON query service over one shared :class:`SommelierDB`.

The event loop owns admission, rate limiting, timeouts and response
streaming; the blocking ``db.query_with_derivation()`` calls run on a
thread pool.  The admission slot is the execution slot: admission
capacity and the thread pool are both ``pool_size``, so at most that many
queries execute at once and everything else is either waiting (bounded)
or shed (503/429 with ``Retry-After``).

Endpoints::

    POST /query    {"sql": "SELECT ..."}     (also GET /query?sql=...)
    GET  /stats    server + admission + engine counters
    GET  /health   {"status": "ok" | "draining"}

``/query`` streams its answer with chunked transfer encoding::

    {"columns": [...], "rows": [[...], ...], "row_count": N,
     "stats": {"seconds": ..., "chunks_loaded": ..., ...}}

Rows are encoded straight from the result table in batches, draining the
socket between batches — a gigabyte result never materializes as one
Python string, and a slow reader backpressures the encoder.

A request timeout sets the query's
:class:`~repro.engine.physical.CancelToken`; the engine unwinds at the
next chunk boundary before the 504 goes out — a timed-out client can
retry immediately without leaking an execution slot.  Graceful shutdown
(:meth:`SommelierServer.stop`) stops accepting, lets in-flight queries
finish streaming, then closes idle connections; a non-draining stop, or
a drain that outlives its deadline, cancels the queries still running.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from ..core.sommelier import SommelierDB
from ..core.two_stage import QueryResult
from ..engine.errors import EngineError, QueryCancelled, SQLError
from ..engine.physical import CancelToken
from .admission import AdmissionController, AdmissionRejected, ClientRateLimiter
from .http import ChunkedWriter, HttpError, HttpRequest, read_request, send_json
from ..util.counters import Counters

__all__ = ["ServerConfig", "ServerStats", "SommelierServer", "ServerHandle",
           "start_in_thread"]


@dataclass(frozen=True)
class ServerConfig:
    """Wire-level and admission knobs of the serving front end."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick (tests/benchmarks)
    # Queries executing at once: admission capacity and executor threads.
    pool_size: int = 4
    # How many requests may wait for an execution slot before new ones are
    # shed with 503 + Retry-After.  0 = shed as soon as every slot is busy.
    max_queue: int = 8
    # Per-client token bucket (keyed by X-Client-Id, else the peer host).
    # <= 0 disables rate limiting.
    rate_limit_qps: float = 0.0
    rate_limit_burst: float = 4.0
    # Per-request budget; on expiry the query's cancel token is set and
    # the client gets 504 once the engine has unwound.
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 30.0
    stream_batch_rows: int = 512
    max_body_bytes: int = 1 << 20


@dataclass
class ServerStats(Counters):
    """Front-end request counters (all owned by the event loop)."""

    requests_total: int = 0
    queries_ok: int = 0
    rejected_saturated: int = 0
    rejected_rate_limited: int = 0
    rejected_draining: int = 0
    timeouts: int = 0
    bad_requests: int = 0
    errors: int = 0
    rows_streamed: int = 0


def _retry_after_header(seconds: float) -> dict[str, str]:
    # Retry-After is delta-seconds (RFC 9110): round up, minimum 1.
    return {"Retry-After": str(max(1, int(seconds + 0.999)))}


class SommelierServer:
    """One asyncio server in front of one shared :class:`SommelierDB`."""

    def __init__(
        self, db: SommelierDB, config: ServerConfig | None = None
    ) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.admission = AdmissionController(
            self.config.pool_size, self.config.max_queue
        )
        self.limiter = ClientRateLimiter(
            self.config.rate_limit_qps, self.config.rate_limit_burst
        )
        self.stats = ServerStats()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.pool_size,
            thread_name_prefix="repro-serve",
        )
        self._server: asyncio.base_events.Server | None = None
        self._port: int | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        # Cancel tokens of the queries executing now (event-loop owned).
        self._running: set[CancelToken] = set()
        self._draining = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        # Cached: the socket list empties on close() but callers may still
        # want the address (e.g. to assert new connections are refused).
        self._port = self._server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        assert self._port is not None, "server not started"
        return self._port

    @property
    def draining(self) -> bool:
        return self._draining

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight queries, release everything.

        With ``drain`` (the default) every admitted query finishes
        executing *and streaming its response* within ``drain_timeout_s``;
        new requests arriving meanwhile are shed with 503.  ``drain=False``,
        or a drain that outlives that deadline, cancels the queries still
        executing via their tokens; each unwinds at its next chunk boundary.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        if drain:
            while (
                (self.admission.active or self.admission.queued)
                and loop.time() < deadline
            ):
                await asyncio.sleep(0.01)
        for token in self._running:
            token.cancel()
        # Idle keep-alive connections (and, without drain, stragglers)
        # are cut; handlers notice and exit.
        for writer in list(self._connections):
            writer.close()
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.01)
        self._executor.shutdown(wait=drain, cancel_futures=not drain)

    # -- connection handling -----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except HttpError as exc:
                    self.stats.bad_requests += 1
                    await send_json(
                        writer, exc.status, {"error": str(exc)},
                        extra_headers={"Connection": "close"},
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive or not request.keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether to keep the connection."""
        self.stats.requests_total += 1
        route = (request.method, request.path)
        if route == ("GET", "/health"):
            await send_json(
                writer, 200,
                {"status": "draining" if self._draining else "ok"},
            )
            return True
        if route == ("GET", "/stats"):
            await send_json(writer, 200, self.stats_snapshot())
            return True
        if request.path == "/query":
            if request.method not in ("GET", "POST"):
                await send_json(
                    writer, 405, {"error": "use GET or POST for /query"}
                )
                return True
            return await self._handle_query(request, writer)
        await send_json(
            writer, 404, {"error": f"no such endpoint {request.path!r}"}
        )
        return True

    # -- /query ------------------------------------------------------------

    def _extract_sql(self, request: HttpRequest) -> str:
        if request.method == "GET":
            sql = request.query.get("sql", "")
        else:
            payload = request.json() if request.body else {}
            if not isinstance(payload, dict):
                raise HttpError(400, "request body must be a JSON object")
            sql = payload.get("sql", "")
        if not isinstance(sql, str) or not sql.strip():
            raise HttpError(400, "missing 'sql'")
        return sql

    def _client_id(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> str:
        explicit = request.headers.get("x-client-id")
        if explicit:
            return explicit
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    async def _handle_query(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        if self._draining:
            self.stats.rejected_draining += 1
            await send_json(
                writer, 503, {"error": "server is draining"},
                extra_headers={
                    **_retry_after_header(self.admission.retry_after()),
                    "Connection": "close",
                },
            )
            return False
        try:
            sql = self._extract_sql(request)
        except HttpError as exc:
            self.stats.bad_requests += 1
            await send_json(writer, exc.status, {"error": str(exc)})
            return True
        client_id = self._client_id(request, writer)
        try:
            self.limiter.check(client_id)
        except AdmissionRejected as exc:
            self.stats.rejected_rate_limited += 1
            await send_json(
                writer, 429, {"error": exc.reason},
                extra_headers=_retry_after_header(exc.retry_after),
            )
            return True
        try:
            async with self.admission.admit():
                return await self._execute_and_stream(sql, client_id, writer)
        except AdmissionRejected as exc:
            self.stats.rejected_saturated += 1
            await send_json(
                writer, 503, {"error": exc.reason},
                extra_headers=_retry_after_header(exc.retry_after),
            )
            return True

    def _run_query(
        self, sql: str, client_id: str, cancel: CancelToken
    ) -> QueryResult:
        # The client id keys the prefetcher's per-client history.
        result, _ = self.db.query_with_derivation(
            sql, session_id=client_id, cancel=cancel
        )
        return result

    async def _execute_and_stream(
        self, sql: str, client_id: str, writer: asyncio.StreamWriter
    ) -> bool:
        cancel = CancelToken()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor, self._run_query, sql, client_id, cancel
        )
        self._running.add(cancel)
        future.add_done_callback(lambda _: self._running.discard(cancel))
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), timeout=self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            cancel.cancel()
            # Wait for the engine to unwind; only then is the timeout safe
            # to report.
            try:
                await future
            except EngineError:
                pass
            self.stats.timeouts += 1
            await send_json(
                writer, 504,
                {
                    "error": "query exceeded the "
                    f"{self.config.request_timeout_s:g}s request timeout"
                },
            )
            return True
        except QueryCancelled:
            self.stats.errors += 1
            await send_json(writer, 500, {"error": "query cancelled"})
            return True
        except SQLError as exc:
            self.stats.bad_requests += 1
            await send_json(
                writer, 400,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
            return True
        except EngineError as exc:
            self.stats.errors += 1
            await send_json(
                writer, 500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
            return True
        await self._stream_result(result, writer)
        self.stats.queries_ok += 1
        self.stats.rows_streamed += result.table.num_rows
        return True

    async def _stream_result(
        self, result: QueryResult, writer: asyncio.StreamWriter
    ) -> None:
        table = result.table
        chunked = ChunkedWriter(writer)
        await chunked.start(200)
        head = json.dumps(list(table.schema.names))
        await chunked.write(b'{"columns": ' + head.encode() + b', "rows": [')
        batch: list[str] = []
        first = True
        for row in table.rows():
            batch.append(json.dumps(list(row)))
            if len(batch) >= self.config.stream_batch_rows:
                prefix = "" if first else ","
                await chunked.write((prefix + ",".join(batch)).encode())
                first = False
                batch.clear()
        if batch:
            prefix = "" if first else ","
            await chunked.write((prefix + ",".join(batch)).encode())
        footer = {
            "row_count": table.num_rows,
            "stats": {
                "seconds": result.seconds,
                "stage_one_seconds": result.stage_one_seconds,
                "stage_two_seconds": result.stage_two_seconds,
                "chunks_loaded": result.stats.chunks_loaded,
                "chunks_from_cache": result.stats.chunks_from_cache,
                "chunks_pruned": result.stats.chunks_pruned,
                "result_cache": result.result_cache,
            },
        }
        await chunked.write(
            b"], " + json.dumps(footer)[1:].encode()
        )
        await chunked.finish()

    # -- monitoring --------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """``/stats``: front-end counters + the engine's counter surfaces.

        ``counters`` is exactly :meth:`SommelierDB.counters_snapshot` —
        the same serialization ``repro cache --json`` prints.
        """
        return {
            "server": {
                **asdict(self.stats),
                "draining": int(self._draining),
            },
            "admission": self.admission.stats(),
            "counters": self.db.counters_snapshot(),
        }


# -- running a server off-thread (tests, benchmarks, embedding) -------------


class ServerHandle:
    """A server running on its own event-loop thread."""

    def __init__(
        self,
        server: SommelierServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.config.host, self.server.port)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain), self._loop
        )
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    db: SommelierDB, config: ServerConfig | None = None
) -> ServerHandle:
    """Start a :class:`SommelierServer` on a daemon thread; returns once
    the listening socket is bound (``handle.port`` is valid)."""
    loop = asyncio.new_event_loop()
    server = SommelierServer(db, config)
    started = threading.Event()
    boot_error: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind failure et al.
            boot_error.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-serving", daemon=True
    )
    thread.start()
    started.wait()
    if boot_error:
        raise boot_error[0]
    return ServerHandle(server, loop, thread)
