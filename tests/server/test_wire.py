"""Wire shape of responses: Nagle off, and one write per response.

A response sent as two writes (headers, then body) on a socket with
Nagle's algorithm on waits for the client's delayed ACK before the body
leaves — a fixed ~40 ms on every request.  These tests check the two
properties that rule that out, without timing anything.
"""

from __future__ import annotations

import http.client
import socket
from urllib.parse import urlsplit

import pytest

from repro.server.app import SubDExRequestHandler


class _CountingWriter:
    """Forwards to the handler's socket writer, logging every write."""

    def __init__(self, inner, log: list[bytes]) -> None:
        self._inner = inner
        self._log = log

    def write(self, data) -> int:
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(monkeypatch):
    """Records, per accepted connection, TCP_NODELAY and every write."""
    nodelay: list[int] = []
    writes: list[bytes] = []
    original_setup = SubDExRequestHandler.setup

    def setup(handler) -> None:
        original_setup(handler)
        nodelay.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        handler.wfile = _CountingWriter(handler.wfile, writes)

    monkeypatch.setattr(SubDExRequestHandler, "setup", setup)
    return nodelay, writes


def _connection(server) -> http.client.HTTPConnection:
    parts = urlsplit(server.url)
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)


def test_accepted_sockets_disable_nagle(server, wire):
    nodelay, __ = wire
    for __ in range(2):
        conn = _connection(server)
        conn.request("GET", "/health")
        conn.getresponse().read()
        conn.close()
    assert len(nodelay) == 2
    assert all(flag != 0 for flag in nodelay)


def test_each_response_is_one_write(server, wire):
    __, writes = wire
    requests = [
        ("GET", "/health", None),
        ("POST", "/sessions", b'{"dataset": "tiny"}'),
        ("GET", "/no/such/endpoint", None),
        ("GET", "/metrics?format=prometheus", None),
    ]
    conn = _connection(server)  # one keep-alive connection for all four
    bodies = []
    for method, path, body in requests:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        bodies.append(response.read())
    conn.close()
    assert len(writes) == len(requests)
    for written, body in zip(writes, bodies):
        head, sep, rest = written.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 ")
        assert rest == body
        assert f"Content-Length: {len(body)}".encode() in head
