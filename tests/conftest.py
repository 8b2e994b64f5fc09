import contextlib
import http.server
import itertools
import json
import sys
import threading
from pathlib import Path

import pytest

from bibkit.model import ALL_SLOTS

FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text("utf-8"))


def rows_then_fail(rows, k: int):
    """The first ``k`` of ``rows``, then the error a disk that fills mid-file raises."""
    yield from itertools.islice(rows, k)
    raise OSError("No space left on device")


def slot_labels(vector) -> dict:
    """A label vector as a dict from each slot to its label."""
    return dict(zip(ALL_SLOTS, vector))


def reply(status: int, body: bytes = b"", headers: dict[str, str] | None = None):
    """A stub reply: ``status``, then ``headers`` (a Content-Length of ``body`` unless given), then ``body``."""
    headers = {"Content-Length": str(len(body))} | (headers or {})

    def send(handler: http.server.BaseHTTPRequestHandler) -> None:
        handler.send_response(status)
        for name, value in headers.items():
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(body)

    return send


@contextlib.contextmanager
def stub_server(answer):
    """A local HTTP/1.0 server; yields its base URL and the path of each request, each answered by ``answer(path)``."""
    paths = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            paths.append(self.path)
            answer(self.path)(self)

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self.do_GET()

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", paths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
