"""A scripted embeddings API: an ``http.server.HTTPServer`` on 127.0.0.1 that
serves from a thread.

Every request is recorded as it arrived on the wire. ``reply`` turns the
request into the raw bytes sent back, so a test can answer with any status,
body, or malformed response. By default it answers with ``vector_of`` each
input value.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, HTTPServer


@dataclass
class Request:
    path: str
    headers: Message  # case-insensitive lookups
    body: bytes

    @property
    def json(self):
        return json.loads(self.body)


def vector_of(value: str) -> list[float]:
    """The embedding that the default reply gives a value."""
    return [float(len(value)), float(sum(map(ord, value)))]


def response(status: int, body: bytes = b"", headers: tuple[str, ...] = (), length=None) -> bytes:
    """Raw HTTP/1.1 response bytes; ``length`` overrides the Content-Length."""
    length = len(body) if length is None else length
    head = [f"HTTP/1.1 {status} Scripted", f"Content-Length: {length}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def data_reply(data: list) -> bytes:
    return response(200, json.dumps({"data": data}).encode())


def indexed_vectors(request: Request) -> list[dict]:
    """The ``data`` entries of a well-formed reply: one ``vector_of`` per input value."""
    return [{"index": i, "embedding": vector_of(v)} for i, v in enumerate(request.json["input"])]


def embeddings(request: Request) -> bytes:
    return data_reply(indexed_vectors(request))


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        request = Request(self.path, self.headers, body)
        self.server.api.requests.append(request)
        self.wfile.write(self.server.api.reply(request))
        self.close_connection = True

    def log_message(self, format, *args) -> None:
        pass


class EmbeddingsApi:
    def __init__(self) -> None:
        self.requests: list[Request] = []
        self.reply = embeddings
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._server.api = self
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1/embeddings"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}
        )

    def __enter__(self) -> EmbeddingsApi:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        # Both, or the listening socket leaks and its ResourceWarning fails the test.
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(5.0)
        assert not self._thread.is_alive()
