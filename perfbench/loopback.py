"""Loopback agent for the remote workload.

A stdlib ``ThreadingHTTPServer`` on an ephemeral 127.0.0.1 port answers the
engine's eval requests from the generator's answer table, after a fixed
delay. It counts, on its own side, the connections it accepts and the time
from accepting each connection to closing it, so the agent-wait part of a
run comes from the benchmark rather than from the program under test.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPLY_DELAY_S = 0.002


class _Server(ThreadingHTTPServer):
    # Non-daemon handler threads, so server_close() waits for each to end.
    daemon_threads = False

    def __init__(self, agent: "LoopbackAgent"):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.agent = agent
        self._accepted: dict = {}

    def process_request(self, request, client_address):
        with self.agent.lock:
            self.agent.connections += 1
            self._accepted[request] = time.perf_counter()
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self.agent.lock:
                self.agent.handled_s += (time.perf_counter()
                                         - self._accepted.pop(request))


class _Handler(BaseHTTPRequestHandler):
    server: _Server

    def do_POST(self):
        agent = self.server.agent
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        key = (payload.get("node"), payload.get("claim"))
        replies = agent.answers.get(key)
        with agent.lock:
            visit = agent.visits.get(key, 0)
            agent.visits[key] = visit + 1
            agent.requests += 1
        time.sleep(REPLY_DELAY_S)
        if payload.get("kind") != "eval" or replies is None:
            status, body = 400, b'{"error": "no answer for this request"}'
        else:
            status, body = 200, json.dumps(replies[min(visit, 1)]).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class LoopbackAgent:
    """Serves ``answers[(node, claim text)] = [first-visit reply, later reply]``.

    Use as a context manager; ``reset()`` before each run clears the visit
    counters and the server-side tallies.
    """

    def __init__(self, answers: dict):
        self.answers = answers
        self.lock = threading.Lock()
        self.reset()
        self._server = _Server(self)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="loopback-agent")

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/agent"

    def reset(self) -> None:
        with self.lock:
            self.visits: dict = {}
            self.requests = 0
            self.connections = 0
            self.handled_s = 0.0

    def __enter__(self) -> "LoopbackAgent":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
