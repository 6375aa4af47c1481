"""The HTTP transport of ``repro serve`` (stdlib ``http.server`` only).

A :class:`ReproServer` is a ``ThreadingHTTPServer`` carrying one
:class:`~repro.serve.service.AnalysisService`; the handler does nothing
but frame JSON over HTTP — read a body, hand it to the service, write
the ``(status, body)`` it returns.  All semantics (normalization,
coalescing, admission, deadlines) live below the transport, which is why
the test suite can drive the service with plain threads and trust that
the HTTP layer adds no behavior of its own.

Threading model: ``ThreadingHTTPServer`` gives each connection its own
thread; the service underneath is thread-safe (coalescer and admission
controller are the synchronization points).  Threads are daemonic so a
dying server never hangs on a stuck client.

Wall-clock note: this module records the daemon's start time with
``time.time()`` for operators (``started_at_unix`` in ``/healthz``).
That is the daemon's *only* wall-clock read and it never reaches
anything content-addressed; the lint config scope-allows RL003 for this
file specifically (see ``[tool.repro-lint]`` in pyproject.toml).
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.runtime.metrics import METRICS
from repro.serve.protocol import (REQUEST_PARSERS, VERSION_PREFIX,
                                  normalize_endpoint)
from repro.serve.service import AnalysisService, ServeConfig

#: Request bodies beyond this are refused with 413 before being read.
MAX_BODY_BYTES = 1 << 20


class ReproServer(ThreadingHTTPServer):
    """One daemon: a threaded HTTP front end over an AnalysisService."""

    daemon_threads = True

    def __init__(self, config: ServeConfig, metrics=METRICS,
                 verbose: bool = False) -> None:
        self.service = AnalysisService(config, metrics=metrics)
        self.verbose = verbose
        self.started_at = time.time()
        super().__init__((config.host, config.port), ServeHandler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:
        """Close the socket, then the service's store."""
        super().server_close()
        self.service.close()


class ServeHandler(BaseHTTPRequestHandler):
    """JSON framing only; every decision is the service's."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out as two writes, and with
    # Nagle the second waits for the client's delayed ACK (~40 ms on
    # every keep-alive response).
    disable_nagle_algorithm = True

    @property
    def service(self) -> AnalysisService:
        return self.server.service

    def log_message(self, format: str, *args) -> None:
        # BaseHTTPRequestHandler logs to stderr with wall-clock stamps;
        # keep the daemon quiet unless asked.
        if self.server.verbose:
            super().log_message(format, *args)

    # -- GET: observability ------------------------------------------------
    def do_GET(self) -> None:
        path, versioned = normalize_endpoint(self.path)
        if path == "/healthz":
            body = self.service.healthz()
            body["started_at_unix"] = round(self.server.started_at, 3)
            self._send(200, body, headers=self._deprecation(path, versioned))
        elif path == "/stats":
            self._send(200, self.service.stats(),
                       headers=self._deprecation(path, versioned))
        else:
            self._send(404, {"error": f"no such endpoint: {self.path}"})

    # -- POST: work --------------------------------------------------------
    def do_POST(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up, and
            # with no usable length the next request can't be found in
            # the stream: answer, then close.
            self._send(400, {"error": "bad Content-Length"},
                       headers={"Connection": "close"})
            return
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": f"body exceeds {MAX_BODY_BYTES} "
                                      "bytes"})
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send(400, {"error": f"body is not valid JSON: {exc}"})
            return
        status, payload = self.service.handle(self.path, body)
        endpoint, versioned = normalize_endpoint(self.path)
        self._send(status, payload,
                   headers=self._deprecation(endpoint, versioned))

    # -- framing -----------------------------------------------------------
    @staticmethod
    def _deprecation(endpoint: str, versioned: bool) -> dict | None:
        """Headers for a known endpoint reached via an unversioned path.

        The unversioned spellings keep working, but every response tells
        the client where the stable surface lives (RFC 8594 sunset
        pattern, minus the date — there is no removal schedule yet).
        """
        known = endpoint in REQUEST_PARSERS or endpoint in ("/healthz",
                                                            "/stats")
        if versioned or not known:
            return None
        return {"Deprecation": "true",
                "Link": f'<{VERSION_PREFIX}{endpoint}>; '
                        'rel="successor-version"'}

    def _send(self, status: int, payload: dict,
              headers: dict | None = None) -> None:
        # sort_keys: response bytes are a pure function of the payload,
        # never of dict insertion order in whoever built it.
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up


def create_server(config: ServeConfig | None = None, metrics=METRICS,
                  verbose: bool = False) -> ReproServer:
    """Bind a daemon (port 0 = ephemeral, for tests and the burn-in)."""
    return ReproServer(config or ServeConfig(), metrics=metrics,
                       verbose=verbose)


def run_server(config: ServeConfig, verbose: bool = False) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    server = create_server(config, verbose=verbose)
    print(f"repro-serve listening on {server.address} "
          f"(max_inflight={config.max_inflight}, "
          f"max_queue={config.max_queue})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0
