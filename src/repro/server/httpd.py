"""The JSON/HTTP fallback front end.

The same :class:`~repro.server.service.QueryService` the TCP front end
serves, for stdlib-only or shell clients: ``POST /query`` with
``{"pairs": [[u, v], ...]}`` returns ``{"answers": [...]}``;
``GET /stats`` returns the service stats document (v2: includes a
``telemetry`` section with mergeable histogram snapshots);
``GET /metrics`` returns the same telemetry in Prometheus text
exposition format (v0.0.4) for scrapers.  It exists for debuggability
and scraping, not throughput — the binary protocol
(:mod:`repro.server.protocol`, :mod:`repro.server.tcp`) is the fast
path.
"""

from __future__ import annotations

import json
import socket as _socket
import threading
from typing import Callable, Optional, Tuple

from .service import QueryService

__all__ = ["HttpFrontend", "make_http_handler"]


# ----------------------------------------------------------------------
# Request handler
# ----------------------------------------------------------------------
def make_http_handler(service, allow_shutdown: bool = True):
    """An ``http.server`` handler class bound to a query service.

    Routes: ``POST /query`` (JSON pairs in, JSON answers out),
    ``GET /stats``, ``GET /metrics`` (Prometheus text exposition of
    the service's telemetry registry plus every numeric stats leaf),
    ``GET /traces`` (the tail-sampled slow-trace exemplars),
    ``GET /healthz``, and — when ``allow_shutdown`` —
    ``POST /shutdown``.  The handler calls the *blocking* service API,
    so each HTTP connection rides the same cache → batcher → oracle
    path as a binary client.
    """
    from http.server import BaseHTTPRequestHandler

    class ReachHTTPHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-reach/2"

        def _send_json(self, doc: dict, status: int = 200) -> None:
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_metrics(self) -> None:
            from ..telemetry import render_prometheus

            telemetry = getattr(service, "telemetry", None)
            registry = None if telemetry is None else telemetry.registry
            body = render_prometheus(registry, service.stats()).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
            if self.path == "/stats":
                self._send_json(service.stats())
            elif self.path == "/metrics":
                self._send_metrics()
            elif self.path == "/traces":
                telemetry = getattr(service, "telemetry", None)
                traces = (
                    [] if telemetry is None else telemetry.sampler.snapshot()
                )
                self._send_json({"traces": traces})
            elif self.path == "/healthz":
                self._send_json({"ok": True})
            else:
                self._send_json({"error": f"unknown path {self.path}"}, 404)

        def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
            if self.path == "/shutdown" and allow_shutdown:
                self._send_json({"ok": True, "shutting_down": True})
                shutdown = getattr(self.server, "request_shutdown", None)
                if shutdown is not None:
                    shutdown()
                return
            if self.path != "/query":
                self._send_json({"error": f"unknown path {self.path}"}, 404)
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                doc = json.loads(self.rfile.read(length) or b"{}")
                pairs = [(int(u), int(v)) for u, v in doc["pairs"]]
            except (KeyError, TypeError, ValueError) as exc:
                self._send_json({"error": f"bad request: {exc!r}"}, 400)
                return
            try:
                answers = service.query_pairs(pairs)
            except Exception as exc:  # surface, don't kill the thread
                self._send_json({"error": repr(exc)}, 500)
                return
            self._send_json({"count": len(answers), "answers": answers})

        def log_message(self, fmt, *args) -> None:  # quiet by default
            pass

    return ReachHTTPHandler


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class HttpFrontend:
    """The stdlib JSON/HTTP fallback mounted on the same service.

    ``on_shutdown`` is what a ``POST /shutdown`` actually stops.  It
    defaults to closing just this frontend; a deployment that mounts
    HTTP next to a :class:`ReachServer` (the CLI does) passes the whole
    server's ``close`` so the documented shutdown route takes the
    entire service down, exactly like the binary ``OP_SHUTDOWN``.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_shutdown: bool = True,
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        from http.server import ThreadingHTTPServer

        handler = make_http_handler(service, allow_shutdown=allow_shutdown)
        family = _socket.getaddrinfo(host, port, type=_socket.SOCK_STREAM)[0][0]
        server_cls = ThreadingHTTPServer
        if family != ThreadingHTTPServer.address_family:
            server_cls = type(
                "ReachHTTPServer", (ThreadingHTTPServer,), {"address_family": family}
            )
        self._httpd = server_cls((host, port), handler)
        self._on_shutdown = on_shutdown
        self._httpd.request_shutdown = self.close_async
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def start(self) -> "HttpFrontend":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-http",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def close_async(self) -> None:
        """Run the shutdown target without blocking the handler thread."""
        target = self._on_shutdown or self.close
        threading.Thread(target=target, daemon=True).start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
