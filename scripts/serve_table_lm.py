#!/usr/bin/env python3
"""Serve a table LM file over the next-token log-probability wire protocol.

    python3 scripts/serve_table_lm.py fixtures/arith_lm.json --port 8731

The endpoint accepts POST {"prefix": [token ids]} and answers
{"logprobs": [...]} with one entry per vocabulary token, which is exactly
what the remote-model client and the --lm URL mode of the CLI expect.
Zero-probability tokens are sent as a large negative log-probability
because JSON has no -inf.  A body that names no open prefix within the
horizon (not a list of token ids, an id outside the vocabulary, an eos,
too long) gets 400.
"""

import argparse
import json
import math
from http.server import BaseHTTPRequestHandler, HTTPServer

from exsample import load_table_lm

FLOOR = -1e9  # stands in for log(0)


def make_server(lm, host: str, port: int) -> HTTPServer:
    """A server answering ``lm``'s next-token log-probabilities; port 0
    picks a free port, read back from ``server_port``."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            try:
                length = int(self.headers.get("Content-Length", 0))
                prefix = json.loads(self.rfile.read(length))["prefix"]
                if not isinstance(prefix, list) or any(type(t) is not int for t in prefix):
                    raise ValueError("prefix must be a list of token ids")
                dist = lm.next_distribution(lm.vocab.seq(prefix))
            except (KeyError, TypeError, ValueError) as exc:
                self.send_error(400, str(exc))
                return
            logprobs = [math.log(p) if p > 0 else FLOOR for p in dist.probs]
            body = json.dumps({"logprobs": logprobs}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *log_args):
            pass

    return HTTPServer((host, port), Handler)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("lm", help="table LM JSON file")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731)
    args = parser.parse_args(argv)

    lm = load_table_lm(args.lm)
    server = make_server(lm, args.host, args.port)
    print(f"serving {args.lm} on http://{args.host}:{server.server_port} "
          f"(vocab size {lm.vocab.size}, horizon {lm.max_len})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
