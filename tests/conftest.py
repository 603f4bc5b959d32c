import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from autofeedback import (
    build_chunk_index,
    default_similarity,
    gateways,
    load_document,
    prepare_document,
)

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_DOC = DATA_DIR / "fixture_doc.json"
DROP = "drop"  # stub behavior: close the connection without answering


class StubHandler(BaseHTTPRequestHandler):
    """Queue-driven HTTP stub: each request pops the next (status, body)
    behavior; an optional callable behavior computes the body from the
    request body text, and ``DROP`` hangs up without an answer."""

    behaviors: list = []
    requests_seen: list = []
    default_behavior = None

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length).decode("utf-8")
        type(self).requests_seen.append(("POST", self.path, body))
        self._respond(body)

    def do_GET(self):
        type(self).requests_seen.append(("GET", self.path, ""))
        self._respond("")

    def _respond(self, request_body: str):
        cls = type(self)
        if cls.behaviors:
            behavior = cls.behaviors.pop(0)
        elif cls.default_behavior is not None:
            behavior = cls.default_behavior
        else:
            behavior = (200, "{}")
        if behavior == DROP:
            self.close_connection = True
            return
        if callable(behavior):
            status, payload = behavior(self.path, request_body)
        else:
            status, payload = behavior
        data = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(autouse=True)
def no_retry_delay(monkeypatch):
    """HTTP retries happen without sleeping between attempts."""
    monkeypatch.setattr(gateways, "RETRY_BASE_DELAY", 0.0)


@pytest.fixture
def stub_server():
    handler = type(
        "Handler",
        (StubHandler,),
        {"behaviors": [], "requests_seen": [], "default_behavior": None},
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


@pytest.fixture(scope="session")
def doc():
    return load_document(FIXTURE_DOC)


@pytest.fixture(scope="session")
def raw_doc():
    return json.loads(FIXTURE_DOC.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def model(doc):
    return default_similarity(doc)


@pytest.fixture(scope="session")
def chunk_index(doc, model):
    return build_chunk_index(doc, model, 0.3)


@pytest.fixture(scope="session")
def prepared(doc, model):
    return prepare_document(doc, model)
