"""Chat-completions stub for the guard-endpoint workload (stdlib only).

Run as its own process: ``python3 benchmarks/stub.py``.  It binds
127.0.0.1 on a free port and prints ``{"port": N}`` as its first stdout
line.  Every POST sleeps for the fixed ``DELAY_S``, then answers
"bad move" with probability 0.3 and "ok move" otherwise, drawn from a
generator seeded by the request's ``seed`` and its message count, so a
reply depends only on the request.

Control runs over stdin: the line ``stats`` prints the request count,
accepted TCP connections and peak concurrent requests as one JSON line;
end of input shuts the server down.  Connections are served by a fixed
pool of ``THREADS`` threads, the client's concurrency cap, so the stub
never runs more handlers than a client may have requests in flight.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

P_BAD = 0.3
DELAY_S = 0.002
THREADS = 8


def reply_for(body: dict) -> str:
    rng = random.Random(f"{body.get('seed')}:{len(body['messages'])}")
    return "bad move" if rng.random() < P_BAD else "ok move"


class StubServer(HTTPServer):
    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.pool = ThreadPoolExecutor(max_workers=THREADS, thread_name_prefix="stub")
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.inflight = 0
        self.max_inflight = 0

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.connections += 1
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def enter(self) -> None:
        with self.lock:
            self.requests += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def leave(self) -> None:
        with self.lock:
            self.inflight -= 1

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "max_inflight": self.max_inflight,
            }

    def server_close(self) -> None:
        super().server_close()
        self.pool.shutdown(wait=True)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # an idle keep-alive connection frees its pool thread

    def do_POST(self) -> None:
        server: StubServer = self.server
        server.enter()
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            time.sleep(DELAY_S)
            content = reply_for(body)
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        finally:
            server.leave()

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    server = StubServer()
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(server.stats()), flush=True)
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
