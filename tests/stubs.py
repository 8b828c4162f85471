"""Tiny in-process HTTP servers for exercising remote providers in tests."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class JsonStubServer:
    """Serves POST requests with a pluggable handler.

    handler(path, body_dict) -> (status_code, response_object).  The server
    records every request as (path, body, headers) in .requests.
    """

    def __init__(self, handler):
        self.handler = handler
        self.requests = []
        self._lock = threading.Lock()

        stub = self

        class _Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.requests.append((self.path, body, dict(self.headers)))
                status, payload = stub.handler(self.path, body)
                raw = (
                    payload.encode("utf-8")
                    if isinstance(payload, str)
                    else json.dumps(payload).encode("utf-8")
                )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                self.end_headers()
                self.wfile.write(raw)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False


class RawReplyServer:
    """Answers every connection with the same raw bytes, so a reply can break HTTP.

    Each request is read whole and recorded as (headers, body) in .requests,
    header names lowercased; then `reply` is sent and the socket closed.  A
    `reply` of None never answers: the socket stays open until the server stops.
    """

    def __init__(self, reply):
        self.reply = reply
        self.requests = []
        self._stopped = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)  # how often the accept loop looks for a stop
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def _serve(self):
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            with conn:
                self.requests.append(self._read_request(conn))
                if self.reply is None:
                    self._stopped.wait()
                else:
                    conn.sendall(self.reply)

    @staticmethod
    def _read_request(conn):
        with conn.makefile("rb") as stream:
            stream.readline()  # the request line
            headers = {}
            for line in iter(stream.readline, b"\r\n"):
                name, value = line.decode("latin-1").split(":", 1)
                headers[name.strip().lower()] = value.strip()
            return headers, stream.read(int(headers.get("content-length", 0)))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stopped.set()
        self._thread.join(timeout=5)
        self._listener.close()
        return False
