import json
import math
import re
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from exsample.lm import RemoteLM, TransportError
from exsample.vocab import Vocabulary


class _LogitHandler(BaseHTTPRequestHandler):
    """Configurable test endpoint; the server object carries the behavior.
    A bytes payload is sent as the body verbatim."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        self.server.hits += 1
        status, payload = self.server.respond(request["prefix"])
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = HTTPServer(("127.0.0.1", 0), _LogitHandler)
    srv.hits = 0
    srv.respond = lambda prefix: (200, {"logprobs": [0.0, 0.0, 0.0, 0.0]})
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join()
    srv.server_close()


def _client(server, max_len=5):
    vocab = Vocabulary.from_tokens(["a", "b", "c", "$"], eos=3)
    url = f"http://127.0.0.1:{server.server_port}/logits"
    return RemoteLM(vocab, url, max_len=max_len)


def test_log_uniform_becomes_uniform(server):
    lm = _client(server)
    dist = lm.next_distribution(lm.vocab.empty())
    assert np.allclose(dist.probs, 0.25)


def test_logprobs_are_softmaxed(server):
    server.respond = lambda prefix: (200, {"logprobs": [math.log(0.1), math.log(0.2), math.log(0.3), math.log(0.4)]})
    lm = _client(server)
    dist = lm.next_distribution(lm.vocab.seq([0, 1]))
    assert np.allclose(dist.probs, [0.1, 0.2, 0.3, 0.4])


def test_repeated_prefix_served_from_cache(server):
    lm = _client(server)
    lm.next_distribution(lm.vocab.seq([0]))
    assert server.hits == 1
    lm.next_distribution(lm.vocab.seq([0]))
    assert server.hits == 1  # zero additional network requests
    lm.next_distribution(lm.vocab.seq([1]))
    assert server.hits == 2


def test_truncation_needs_no_request(server):
    lm = _client(server, max_len=2)
    dist = lm.next_distribution(lm.vocab.seq([0, 1]))
    assert dist[lm.vocab.eos] == 1.0
    assert server.hits == 0


def test_dimension_mismatch(server):
    server.respond = lambda prefix: (200, {"logprobs": [0.0, 0.0, 0.0]})
    lm = _client(server)
    with pytest.raises(ValueError, match="length 3"):
        lm.next_distribution(lm.vocab.empty())


def test_non_finite_rejected(server):
    server.respond = lambda prefix: (200, {"logprobs": [0.0, 0.0, 0.0, float("inf")]})
    lm = _client(server)
    with pytest.raises(ValueError, match="non-finite"):
        lm.next_distribution(lm.vocab.empty())


@pytest.mark.parametrize("index, bad", [(0, "0.0"), (2, False), (3, None)])
def test_logprobs_must_be_json_numbers(server, index, bad):
    """A log-probability that only coerces to a float is refused, by index."""
    logprobs = [0.0, -1.0, -2.0, -3.0]
    logprobs[index] = bad
    server.respond = lambda prefix: (200, {"logprobs": logprobs})
    lm = _client(server)
    want = f"logprobs entry {index} is {bad!r}, not a number"
    with pytest.raises(ValueError, match=re.escape(want)):
        lm.next_distribution(lm.vocab.empty())


def test_http_error_is_transport_error(server):
    server.respond = lambda prefix: (500, {"error": "boom"})
    lm = _client(server)
    with pytest.raises(TransportError, match="500"):
        lm.next_distribution(lm.vocab.empty())


def test_unreachable_endpoint_is_transport_error():
    vocab = Vocabulary.from_tokens(["a", "$"], eos=1)
    lm = RemoteLM(vocab, "http://127.0.0.1:1/logits", max_len=3, timeout=0.2)
    with pytest.raises(TransportError, match="unreachable"):
        lm.next_distribution(vocab.empty())


def test_any_status_but_200_is_transport_error(server):
    server.respond = lambda prefix: (201, {"logprobs": [0.0, 0.0, 0.0, 0.0]})
    lm = _client(server)
    with pytest.raises(TransportError, match="201"):
        lm.next_distribution(lm.vocab.empty())


def test_non_json_body_is_transport_error(server):
    server.respond = lambda prefix: (200, b"<html>not json</html>")
    lm = _client(server)
    with pytest.raises(TransportError, match="non-JSON"):
        lm.next_distribution(lm.vocab.empty())


def test_silent_endpoint_times_out_as_transport_error():
    # the kernel completes the handshake into the backlog, but nothing
    # ever reads the request or answers it
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        vocab = Vocabulary.from_tokens(["a", "$"], eos=1)
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/logits"
        lm = RemoteLM(vocab, url, max_len=3, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(TransportError, match="unreachable"):
            lm.next_distribution(vocab.empty())
        assert time.monotonic() - start < 5.0


def test_reply_that_is_not_http_is_transport_error():
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer_once():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b"SSH-2.0-not-http\r\n\r\n")

        thread = threading.Thread(target=answer_once, daemon=True)
        thread.start()
        vocab = Vocabulary.from_tokens(["a", "$"], eos=1)
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/logits"
        lm = RemoteLM(vocab, url, max_len=3, timeout=5.0)
        with pytest.raises(TransportError):
            lm.next_distribution(vocab.empty())
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_the_package_imports_without_requests():
    code = (
        "import sys; sys.modules['requests'] = None; "
        "import exsample.cli, exsample.lm"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
