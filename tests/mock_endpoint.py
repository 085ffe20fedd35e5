"""In-process chat-completions endpoint for tests.

Serves canned responses; the reply is chosen by a pluggable function of
the request body so tests can script endpoint behavior.

With ``keep_alive=True`` it speaks HTTP/1.1, so a client may reuse a
connection, and counts the connections it accepted.  Like the benchmark
stub it keeps ``BaseHTTPRequestHandler``'s separate header and body
writes, which a client that delays its ACKs stalls on.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockEndpoint:
    def __init__(self, reply_fn=None, status=200, raw_body=None, keep_alive=False):
        self.reply_fn = reply_fn or (lambda body: "ok")
        self.status = status
        self.raw_body = raw_body
        self.requests: list[dict] = []
        self.connections = 0
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            if keep_alive:
                protocol_version = "HTTP/1.1"
                timeout = 10  # an idle keep-alive connection frees its thread

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
                if outer.raw_body is not None:
                    payload = outer.raw_body
                else:
                    content = outer.reply_fn(body)
                    payload = json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": content}}]}
                    ).encode("utf-8")
                self.send_response(outer.status)
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
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

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
