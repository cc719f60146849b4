"""Closed-loop HTTP load from one process: N keep-alive connections.

One selector loop owns every socket, so there are no client threads to
contend for an interpreter lock and a response is clocked the moment
it is complete.  Each connection sends its next request only after its
previous response arrived (a web tier with an N-connection pool).
Raw response bodies are kept; parsing and checking them happens after
the clock stops.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import time
import urllib.request

from estimators import Slice, calibration_loop

CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)
REQUEST_TIMEOUT = 10.0


def encode_request(query: str, limit: int) -> bytes:
    body = json.dumps({"query": query, "limit": limit}).encode()
    return (b"POST /search HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def complete_response(buffer: bytes):
    """``(status, body)`` once ``buffer`` holds a whole response."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    match = CONTENT_LENGTH.search(buffer, 0, head_end)
    length = int(match.group(1)) if match else 0
    if len(buffer) < head_end + 4 + length:
        return None
    return int(buffer[9:12]), buffer[head_end + 4:head_end + 4 + length]


class ClosedLoop:
    def __init__(self, host: str, port: int, connections: int = 2):
        self.sockets = []
        for _ in range(connections):
            sock = socket.create_connection((host, port),
                                            timeout=REQUEST_TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sockets.append(sock)

    def close(self) -> None:
        for sock in self.sockets:
            sock.close()

    def run_slice(self, payloads: list[bytes]):
        """Send ``payloads`` closed-loop over the connections and wait
        for every response.  Returns ``(Slice, outcomes)`` with one
        ``(status, body)`` per payload in input order; a timeout or a
        broken connection yields status 0."""
        outcomes: list = [None] * len(payloads)
        latencies: list[float] = []
        pending = iter(range(len(payloads)))
        selector = selectors.DefaultSelector()
        in_flight: dict = {}

        def send(sock) -> None:
            index = next(pending, None)
            if index is None:
                selector.unregister(sock)
                in_flight.pop(sock, None)
                return
            in_flight[sock] = [index, time.perf_counter(), b""]
            sock.sendall(payloads[index])

        start = time.perf_counter()
        for sock in self.sockets:
            selector.register(sock, selectors.EVENT_READ)
            send(sock)
        while in_flight:
            ready = selector.select(timeout=REQUEST_TIMEOUT)
            if not ready:  # every in-flight request timed out
                for sock, (index, _sent, _buffer) in list(in_flight.items()):
                    outcomes[index] = (0, b"timeout")
                break
            for key, _events in ready:
                sock = key.fileobj
                state = in_flight[sock]
                chunk = sock.recv(1 << 16)
                if not chunk:
                    outcomes[state[0]] = (0, b"connection closed")
                    selector.unregister(sock)
                    del in_flight[sock]
                    continue
                state[2] += chunk
                response = complete_response(state[2])
                if response is None:
                    continue
                done = time.perf_counter()
                outcomes[state[0]] = response
                if response[0] == 200:
                    latencies.append(done - state[1])
                send(sock)
        wall = time.perf_counter() - start
        selector.close()
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                outcomes[index] = (0, b"not sent")
        return Slice(latencies, len(payloads), wall), outcomes


def run(host: str, port: int, queries: list[str], limit: int,
        slice_size: int, deadline_seconds: float, connections: int = 2):
    """The timed phase over HTTP: slices of ``slice_size`` requests,
    the calibration loop between them."""
    loop = ClosedLoop(host, port, connections)
    deadline = time.perf_counter() + deadline_seconds
    slices, outcomes, calibration = [], [], []
    try:
        for start in range(0, len(queries), slice_size):
            payloads = [encode_request(query, limit)
                        for query in queries[start:start + slice_size]]
            done, results = loop.run_slice(payloads)
            slices.append(done)
            outcomes.extend(results)
            calibration.append(calibration_loop())
            if time.perf_counter() > deadline:
                break
    finally:
        loop.close()
    return slices, outcomes, calibration


def get_json(host: str, port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=REQUEST_TIMEOUT) as response:
        return json.loads(response.read())
