"""Shared HTTP plumbing for the service tier: keep-alive, caps, lifecycle.

Both serving processes in this package — the single-engine
:class:`~repro.service.server.DisclosureService` and the
:class:`~repro.service.router.ShardRouter` front — speak the same
deliberately minimal JSON-over-HTTP/1.1 dialect. :class:`JsonHttpServer`
is that dialect, factored out once:

- **keep-alive**: HTTP/1.1 connections serve a loop of requests until the
  client sends ``Connection: close`` (HTTP/1.0 clients must opt *in* with
  ``Connection: keep-alive``). This is the serving tier's main throughput
  lever — the PR-4 protocol paid a TCP handshake per request and
  documented that as its cap.
- **read timeouts**: an idle keep-alive connection is dropped silently
  after ``request_timeout`` seconds; a connection that stalls *mid*
  request gets a 400 and is closed (slow-loris guard).
- **connection caps**: ``max_connections`` bounds concurrently open
  connections; excess connections receive an immediate 503 and a close.
  :class:`ConnectionStats` counts open/total/peak/keep-alive reuse for
  ``/stats``.

Subclasses declare the endpoint tables :attr:`JsonHttpServer.routes` /
:attr:`JsonHttpServer.prefix_routes` and the handlers they name (and
optionally override :meth:`JsonHttpServer.note_request`);
:class:`BackgroundHost` runs any such server on a daemon thread for tests
and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
from collections.abc import Mapping
from typing import Any

from repro.errors import ReproError

__all__ = [
    "MAX_BODY_BYTES",
    "BadRequest",
    "Unavailable",
    "parse_json_body",
    "require",
    "require_ks",
    "set_nodelay",
    "ConnectionStats",
    "JsonHttpServer",
    "BackgroundHost",
]

#: Largest accepted request body (a bucketization of ~a million values).
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """Request validation failed (the message becomes the 400 body)."""


class Unavailable(Exception):
    """The service is shutting down or a dependency is gone (a 503 body)."""


#: Readable names for the numeric kinds (both of which refuse ``bool``).
_NUMERIC_KINDS = {int: "an integer", (int, float): "a number"}


def require(payload: dict, field: str, kind, *, optional=False, default=None):
    """One field of a JSON body, type-checked (bool is not a number here)."""
    if field not in payload:
        if optional:
            return default
        raise BadRequest(f"missing required field {field!r}")
    value = payload[field]
    numeric = _NUMERIC_KINDS.get(kind)
    if not isinstance(value, kind) or (numeric and isinstance(value, bool)):
        raise BadRequest(f"field {field!r} must be {numeric or kind.__name__}")
    return value


def require_ks(payload: dict) -> list[int]:
    """The ``"ks"`` field as a non-empty list of real ints (no bools)."""
    ks = require(payload, "ks", list)
    if not ks or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in ks
    ):
        raise BadRequest("'ks' must be a non-empty list of integers")
    return ks


def parse_json_body(body: bytes) -> dict:
    """Decode a POST body into a JSON object (400 on anything else)."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def set_nodelay(sock: Any) -> None:
    """Set ``TCP_NODELAY`` on a socket, tolerating non-TCP transports.

    Every socket in the serving tier carries small keep-alive JSON
    requests — exactly the traffic pattern Nagle's algorithm delays by up
    to an RTT while it waits for more payload to batch. The tier calls
    this on every accepted connection, every client connection, and every
    router→shard pool connection; Unix sockets and mocks (no
    ``IPPROTO_TCP``) are silently left alone.
    """
    if sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):
        pass


class ConnectionStats:
    """Connection-level counters shared by every :class:`JsonHttpServer`."""

    __slots__ = (
        "total",
        "open",
        "max_open",
        "keepalive_requests",
        "rejected_over_cap",
    )

    def __init__(self) -> None:
        self.total = 0
        self.open = 0
        self.max_open = 0
        self.keepalive_requests = 0
        self.rejected_over_cap = 0

    def as_dict(self) -> dict[str, int]:
        """The connection counters as the ``/stats`` JSON section."""
        return {
            "total": self.total,
            "open": self.open,
            "max_open": self.max_open,
            "keepalive_requests": self.keepalive_requests,
            "rejected_over_cap": self.rejected_over_cap,
        }


class JsonHttpServer:
    """An asyncio socket server speaking keep-alive JSON-over-HTTP/1.1.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start_http`).
    request_timeout:
        Seconds a connection may sit idle between requests, or take to
        deliver one complete request, before it is dropped (``None``
        disables — only for trusted loopback use).
    max_connections:
        Cap on concurrently open connections; connections beyond it get an
        immediate 503 (``None`` = unbounded).
    """

    #: The exact-match endpoint table, ``path -> (verb, handler
    #: attribute)``, and the prefix-matched one whose handlers receive the
    #: raw path. Both servers in the tier serve the same tables.
    routes: Mapping[str, tuple[str, str]] = {}
    prefix_routes: Mapping[str, tuple[str, str]] = {}

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float | None = 30.0,
        max_connections: int | None = None,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive or None, got "
                f"{request_timeout}"
            )
        if max_connections is not None and max_connections <= 0:
            raise ValueError(
                f"max_connections must be positive or None, got "
                f"{max_connections}"
            )
        self.host = host
        self._requested_port = port
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.connections = ConnectionStats()
        self._server: asyncio.AbstractServer | None = None
        self._open_writers: set = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The actually bound port (valid after :meth:`start_http`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start_http(self) -> None:
        """Bind the listening socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def stop_http(self) -> None:
        """Stop accepting and wake every parked keep-alive connection."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        # Keep-alive connections park on a read between requests; close
        # their transports so the handlers wake and exit now, not when the
        # idle timeout expires — on Python >= 3.12 wait_closed() waits for
        # every connection handler, so shutdown would otherwise stall for
        # up to request_timeout (forever with request_timeout=None).
        for writer in list(self._open_writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes):
        """Answer one request from :attr:`routes` / :attr:`prefix_routes`:
        ``(status, payload-dict)`` (404 unknown path, 405 wrong verb, 503
        while stopping)."""
        route = self.routes.get(path)
        prefixed = False
        if route is None:
            for prefix, entry in self.prefix_routes.items():
                if path.startswith(prefix):
                    route, prefixed = entry, True
                    break
        if route is None:
            return 404, {"error": f"unknown path {path!r}"}
        verb, attr = route
        if method != verb:
            return 405, {"error": f"{path} only accepts {verb}"}
        if self._stopping:
            return 503, {"error": "service is shutting down"}
        handler = getattr(self, attr)
        if prefixed:
            return await handler(path)
        if verb == "POST":
            return await self._post(handler, path, body)
        return await handler()

    async def _post(self, handler, path: str, body: bytes):
        """Call a POST handler: by default with the parsed JSON object."""
        return await handler(parse_json_body(body))

    def note_request(self, endpoint: str | None, status: int) -> None:
        """Per-request accounting hook (endpoint is None before parsing)."""

    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, bool]:
        """:meth:`_route` wrapped in the dialect's exception mapping.

        Returns ``(status, payload, must_close)`` — ``must_close`` marks
        responses after which a keep-alive connection must not be reused.
        This is the full request semantics minus the socket, which is what
        lets an in-process shard answer through the same code path as a
        real connection (see :mod:`repro.service.router`).
        """
        try:
            status, payload = await self._route(method, path, body)
            return status, payload, False
        except BadRequest as exc:
            return 400, {"error": str(exc)}, False
        except Unavailable as exc:
            return 503, {"error": str(exc)}, True
        except (ReproError, ValueError) as exc:
            return 400, {"error": str(exc)}, False
        except Exception as exc:  # never leak a traceback to the caller
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, False

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        stats = self.connections
        if (
            self.max_connections is not None
            and stats.open >= self.max_connections
        ):
            stats.rejected_over_cap += 1
            await self._write_response(
                writer,
                503,
                {"error": "connection limit reached"},
                keep_alive=False,
            )
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return
        stats.total += 1
        stats.open += 1
        stats.max_open = max(stats.max_open, stats.open)
        set_nodelay(writer.get_extra_info("socket"))
        self._open_writers.add(writer)
        served = 0
        try:
            while not self._stopping:
                if not await self._serve_one(reader, writer, served):
                    break
                served += 1
        except asyncio.CancelledError:
            # Event-loop shutdown cancels connection tasks parked on an
            # idle keep-alive read; that is connection teardown, not an
            # error to propagate (a cancelled task would make asyncio's
            # stream machinery log a spurious traceback).
            pass
        finally:
            stats.open -= 1
            self._open_writers.discard(writer)
            writer.close()
            with contextlib.suppress(
                ConnectionError, OSError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _serve_one(self, reader, writer, served: int) -> bool:
        """One request/response exchange; True iff the connection lives on.

        ``served`` is the number of requests already answered on this
        connection (so ``served > 0`` marks a keep-alive reuse).
        """
        status, payload = 500, {"error": "internal error"}
        endpoint: str | None = None
        keep_alive = False
        try:
            request = await self._read_request(reader)
            if request is None:  # clean EOF or idle keep-alive timeout
                return False
            if served > 0:  # this request rode a reused connection
                self.connections.keepalive_requests += 1
            method, path, body, keep_alive = request
            endpoint = path
            status, payload, must_close = await self.dispatch(
                method, path, body
            )
            if must_close:
                keep_alive = False
        except BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except asyncio.TimeoutError:
            # The connection stalled mid-request: answer and drop it.
            status, payload = 400, {"error": "request read timed out"}
            keep_alive = False
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:  # never leak a traceback to the socket
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if self._stopping:
            keep_alive = False
        self.note_request(endpoint, status)
        wrote = await self._write_response(
            writer, status, payload, keep_alive=keep_alive
        )
        return keep_alive and wrote

    async def _read_request(self, reader):
        """Minimal HTTP/1.1: request line, headers, ``Content-Length`` body.

        Returns ``(method, path, body, keep_alive)``, or ``None`` for a
        closed or idle-timed-out connection. A timeout *after* the first
        byte of a request raises :class:`asyncio.TimeoutError` (a 400).
        """
        timeout = self.request_timeout
        try:
            line = reader.readline()
            if timeout is not None:
                line = asyncio.wait_for(line, timeout)
            request_line = await line
        except (asyncio.TimeoutError, ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        rest = self._read_rest(reader, request_line)
        if timeout is not None:
            rest = asyncio.wait_for(rest, timeout)
        return await rest

    async def _read_rest(self, reader, request_line: bytes):
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise BadRequest("invalid Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large (limit {MAX_BODY_BYTES} bytes)")
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:  # HTTP/1.0 (and anything older) must opt in
            keep_alive = connection == "keep-alive"
        return method, path, body, keep_alive

    async def _write_response(
        self, writer, status: int, payload, *, keep_alive: bool
    ) -> bool:
        try:
            body = json.dumps(payload, allow_nan=False).encode()
        except ValueError:  # defense in depth; wire.encode_value rejects first
            status = 500
            body = b'{"error": "non-finite number in response"}'
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True


class BackgroundHost:
    """Run a :class:`JsonHttpServer` subclass on a daemon thread.

    Subclasses implement :meth:`_make_service` returning an unstarted
    server object with ``async start()`` / ``async stop()`` methods and
    ``host`` / ``port`` attributes. Entering the context manager starts
    the loop thread and blocks until the server is bound (surfacing any
    startup error); exiting requests a graceful stop and joins the thread.
    """

    def __init__(self, **service_kwargs: Any) -> None:
        service_kwargs.setdefault("port", 0)
        self._kwargs = service_kwargs
        self.service: Any = None
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def _make_service(self):
        raise NotImplementedError

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=120):
            raise RuntimeError("service failed to start within 120s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=120)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by __enter__ or swallowed
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.service = self._make_service()
        await self.service.start()
        self.host, self.port = self.service.host, self.service.port
        self._started.set()
        await self._stop_event.wait()
        await self.service.stop()

    def client(self):
        """A :class:`~repro.service.client.ServiceClient` bound to this
        server (import deferred to keep server/client import-independent)."""
        from repro.service.client import ServiceClient

        assert self.host is not None and self.port is not None
        return ServiceClient(self.host, self.port)
