"""The scripts run end to end on small settings, and the table-LM server
answers as the table does."""

import csv
import importlib.util
import itertools
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from exsample import METHODS, load_table_lm
from exsample.lm import RemoteLM

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
FIXTURES = ROOT / "fixtures"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [[], ["--hard"]])
def test_arith_experiment_writes_one_row_per_method(tmp_path, extra):
    out = tmp_path / "arith"
    script = _load("arith_experiment")
    args = ["--out", str(out), "--seeds", "1", "--target-valid", "5", *extra]
    assert script.main(args) == 0
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert sorted(row["method"] for row in rows) == sorted(METHODS)
    assert all(row["seed"] == "1" and row["accepted"] == "5" for row in rows)


@pytest.fixture
def arith_server():
    """scripts/serve_table_lm.py's server for the arith fixture, on a free
    port in a background thread."""
    script = _load("serve_table_lm")
    lm = load_table_lm(FIXTURES / "arith_lm.json")
    server = script.make_server(lm, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield lm, f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_served_table_lm_matches_the_table(arith_server):
    lm, url = arith_server
    remote = RemoteLM(lm.vocab, url, max_len=lm.max_len)
    body = [t for t in range(lm.vocab.size) if t != lm.vocab.eos]
    for depth in range(4):
        for ids in itertools.product(body, repeat=depth):
            prefix = lm.vocab.seq(ids)
            got = remote.next_distribution(prefix).probs
            want = lm.next_distribution(prefix).probs
            assert np.max(np.abs(got - want)) <= 1e-12, ids


@pytest.mark.parametrize(
    "body",
    [
        b'{"prefix": [9, 9]}',         # ids outside the vocabulary (V=4)
        b'{"prefix": [3, 0]}',         # eos before the end
        b'{"prefix": [3]}',            # terminated
        b'{"prefix": "01"}',           # not a list
        b'{"prefix": [0, true]}',      # not token ids
        b'{"prefix": [0.0]}',
        b'{"prefix": [0, 0, 0, 0, 0, 0, 0, 0]}',  # past the horizon of 7
        b'{"prefix": null}',
        b'{"ids": [0]}',
        b'[1, 2]',
        b'not json',
    ],
)
def test_served_table_lm_answers_a_bad_body_with_400(arith_server, body):
    _, url = arith_server
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(urllib.request.Request(url, data=body), timeout=10)
    err.value.close()
    assert err.value.code == 400
