"""In-process chat-completions endpoint for tests.

Serves canned responses; the reply is chosen by a pluggable function of
the request body so tests can script endpoint behavior.  The contents in
``healthy``, if any, answer the first requests with status 200, so a test
can let an endpoint fail after some good replies.

With ``keep_alive=True`` it speaks HTTP/1.1, so a client may reuse a
connection, and counts the connections it accepted; it closes a
connection that stays idle for ``idle_timeout`` seconds.  Like the benchmark
stub it keeps ``BaseHTTPRequestHandler``'s separate header and body
writes, which a client that delays its ACKs stalls on.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def reply(content) -> bytes:
    """A chat-completions response body whose one message holds ``content``."""
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode("utf-8")


class MockEndpoint:
    def __init__(self, reply_fn=None, status=200, raw_body=None, keep_alive=False, healthy=(), idle_timeout=10):
        self.reply_fn = reply_fn or (lambda body: "ok")
        self.status = status
        self.raw_body = raw_body
        self.healthy = tuple(healthy)
        self.requests: list[dict] = []
        self.connections = 0
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            if keep_alive:
                protocol_version = "HTTP/1.1"
                timeout = idle_timeout  # an idle keep-alive connection frees its thread

            def setup(self):
                super().setup()
                with lock:
                    outer.connections += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                outer.requests.append(
                    {"path": self.path, "body": body, "headers": dict(self.headers)}
                )
                index, status = len(outer.requests) - 1, outer.status
                if index < len(outer.healthy):
                    status, payload = 200, reply(outer.healthy[index])
                elif outer.raw_body is not None:
                    payload = outer.raw_body
                else:
                    payload = reply(outer.reply_fn(body))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                # A client that timed out has closed its end before the reply.
                if not isinstance(sys.exc_info()[1], ConnectionError):
                    super().handle_error(request, client_address)

        self.server = Server(("127.0.0.1", 0), Handler)
        # ``shutdown`` waits for the serving loop's next poll, so a short
        # poll lets a ``with`` block leave promptly.
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        return False
