"""The asyncio HTTP server: ``repro-pebble serve``.

A deliberately small, dependency-free HTTP/1.1 implementation over
``asyncio.start_server`` — the container ships no ``aiohttp``, and the
service needs only a JSON request/response vocabulary:

====== =================== ==============================================
verb   path                behaviour
====== =================== ==============================================
GET    ``/healthz``        liveness + package version
GET    ``/v1/methods``     the experiment method catalogue
GET    ``/v1/specs``       registered experiment specs (name, tasks, tags)
GET    ``/v1/stats``       queue + store counters (hit rate, batches, ...)
POST   ``/v1/query``       one grid cell; body = the schema.py query object
POST   ``/v1/batch``       ``{"queries": [...]}`` — many cells, answered
                           together (each coalesces/caches independently)
====== =================== ==============================================

Error mapping (see :mod:`repro.service.schema`): malformed request →
400, unknown route → 404, wrong verb → 405, oversized body → 413,
task timeout → 504, task crash/solver failure → 502, unexpected server
failure → 500.  Infeasible instances are valid answers (200,
``status="infeasible"``).

Connections are keep-alive; bodies require ``Content-Length`` (no
chunked uploads).  The request path never blocks the event loop: store
lookups are sub-millisecond sqlite reads and everything else happens on
the job queue's dispatcher threads — a cache-warm query round-trips in
well under 10 ms.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from .._version import __version__
from ..experiments.backends import ExecutionBackend
from ..experiments.store import ResultStore
from . import schema
from .jobs import JobQueue

__all__ = ["PebbleService"]

_MAX_HEADER_BYTES = 16 * 1024

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _error_body(code: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"code": code, "message": message}}


class PebbleService:
    """The HTTP service over one backend + store + job queue.

    Parameters
    ----------
    backend:
        Executes query batches (e.g. a persistent
        :class:`~repro.experiments.MultiprocessingBackend`).  Owned by
        the caller unless ``own_resources=True``.
    store:
        Optional persistent result store shared by all requests.
    default_timeout:
        Per-request wall-clock budget for queries that name none.
    max_batch / dispatchers:
        Job-queue shape (see :class:`~repro.service.jobs.JobQueue`).
    max_body:
        Largest accepted request body in bytes (413 beyond).
    own_resources:
        When True, ``aclose()`` also closes the backend and store —
        the CLI entry point uses this; embedders usually manage their
        own.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        store: Optional[ResultStore] = None,
        *,
        default_timeout: Optional[float] = 60.0,
        max_batch: int = 64,
        dispatchers: int = 2,
        max_body: int = 1 << 20,
        own_resources: bool = False,
    ) -> None:
        self.backend = backend
        self.store = store
        self.max_body = max_body
        self.own_resources = own_resources
        self.queue = JobQueue(
            backend,
            store,
            default_timeout=default_timeout,
            max_batch=max_batch,
            dispatchers=dispatchers,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.StreamWriter]" = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8757) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self.queue.start()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            try:
                writer.close()
            except Exception:
                pass
        await asyncio.sleep(0)  # let connection handlers observe EOF
        await self.queue.close()
        if self.own_resources:
            self.backend.close()
            if self.store is not None:
                self.store.close()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            return  # loop shutdown: end quietly, the socket dies with us
        except asyncio.LimitOverrunError:
            await self._respond(
                writer, 400, _error_body("bad-request", "header line too long"),
                keep_alive=False,
            )
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                pass

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        try:
            method, target, http_version = request_line.decode("latin-1").split()
        except ValueError:
            await self._respond(
                writer, 400, _error_body("bad-request", "malformed request line"),
                keep_alive=False,
            )
            return False

        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                await self._respond(
                    writer, 400, _error_body("bad-request", "headers too large"),
                    keep_alive=False,
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()

        keep_alive = headers.get("connection", "").lower() != "close" and (
            http_version.upper() != "HTTP/1.0"
            or headers.get("connection", "").lower() == "keep-alive"
        )

        body = b""
        if method in ("POST", "PUT"):
            length_header = headers.get("content-length")
            if length_header is None:
                await self._respond(
                    writer, 411,
                    _error_body("bad-request", "Content-Length is required"),
                    keep_alive=False,
                )
                return False
            try:
                length = int(length_header)
            except ValueError:
                await self._respond(
                    writer, 400, _error_body("bad-request", "bad Content-Length"),
                    keep_alive=False,
                )
                return False
            if length > self.max_body:
                await self._respond(
                    writer, 413,
                    _error_body("payload-too-large",
                                f"body exceeds {self.max_body} bytes"),
                    keep_alive=False,
                )
                return False
            body = await reader.readexactly(length)

        try:
            status, payload = await self._route(method, target, body)
        except _HttpError as exc:
            status, payload = exc.status, _error_body(exc.code, exc.message)
        except Exception as exc:  # never let a handler kill the connection loop
            self.queue.stats.internal_errors += 1
            status, payload = 500, _error_body(
                "internal-error", f"{type(exc).__name__}: {exc}"
            )
        await self._respond(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode()
        phrase = _STATUS_PHRASES.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {phrase}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = target.split("?", 1)[0]
        # handlers have mixed arities (GET take nothing, POST take the
        # decoded body), so the table stays loosely typed
        routes: Dict[str, Tuple[str, Any]] = {
            "/healthz": ("GET", self._get_health),
            "/v1/methods": ("GET", self._get_methods),
            "/v1/specs": ("GET", self._get_specs),
            "/v1/stats": ("GET", self._get_stats),
            "/v1/query": ("POST", self._post_query),
            "/v1/batch": ("POST", self._post_batch),
        }
        entry = routes.get(path)
        if entry is None:
            raise _HttpError(404, "not-found", f"no route {path!r}")
        want_verb, handler = entry
        if method != want_verb:
            raise _HttpError(
                405, "method-not-allowed", f"{path} wants {want_verb}, got {method}"
            )
        if want_verb == "POST":
            return await handler(self._decode_json(body))
        return await handler()

    @staticmethod
    def _decode_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(
                400, "bad-request", f"body is not valid JSON: {exc}"
            ) from exc

    # -- handlers ------------------------------------------------------

    async def _get_health(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"ok": True, "status": "serving", "version": __version__}

    async def _get_methods(self) -> Tuple[int, Dict[str, Any]]:
        from ..experiments import method_names

        return 200, {"ok": True, "methods": method_names()}

    async def _get_specs(self) -> Tuple[int, Dict[str, Any]]:
        from ..experiments import all_specs

        return 200, {
            "ok": True,
            "specs": [
                {
                    "name": s.name,
                    "description": s.description,
                    "tasks": s.n_tasks,
                    "tags": list(s.tags),
                }
                for s in all_specs()
            ],
        }

    async def _get_stats(self) -> Tuple[int, Dict[str, Any]]:
        stats: Dict[str, Any] = {"queue": self.queue.stats.to_dict()}
        if self.store is not None:
            store_stats = dict(self.store.stats())
            seen = store_stats["hits"] + store_stats["misses"]
            store_stats["hit_rate"] = round(store_stats["hits"] / seen, 4) if seen else 0.0
            stats["store"] = store_stats
        return 200, {"ok": True, "stats": stats}

    async def _answer_one(self, request: schema.QueryRequest) -> Tuple[int, Dict[str, Any]]:
        task = request.task(timeout=self.queue.default_timeout)
        result = await self.queue.submit(task)
        payload = {"ok": result.ok or result.status.value == "infeasible",
                   "result": schema.result_payload(result)}
        if result.ok:
            return 200, payload
        status = schema.error_http_status(result)
        if status != 200:
            payload["error"] = {
                "code": ("timeout" if status == 504
                         else "bad-request" if status == 400
                         else "execution-error"),
                "message": result.error or result.status.value,
            }
        return status, payload

    async def _post_query(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        try:
            request = schema.parse_query(payload)
        except schema.SchemaError as exc:
            raise _HttpError(400, "bad-request", str(exc)) from exc
        return await self._answer_one(request)

    async def _post_batch(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(payload, dict) or not isinstance(payload.get("queries"), list):
            raise _HttpError(400, "bad-request",
                             "batch body must be {'queries': [...]}")
        queries = payload["queries"]
        if not queries:
            raise _HttpError(400, "bad-request", "batch needs at least one query")
        try:
            requests = [schema.parse_query(q) for q in queries]
        except schema.SchemaError as exc:
            raise _HttpError(400, "bad-request", str(exc)) from exc
        answered = await asyncio.gather(
            *(self._answer_one(r) for r in requests)
        )
        results = [body for _, body in answered]
        worst = max(status for status, _ in answered)
        return (200 if all(s == 200 for s, _ in answered) else worst), {
            "ok": all(body["ok"] for body in results),
            "results": results,
        }
