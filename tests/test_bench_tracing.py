"""The benchmark's traced episode, run small on each workload: every span
``bench/tracing.py`` puts on the model, the checker, the sampler and the
trie must still wrap a live name and count calls, and tracing must not
change what is sampled.  arith's groups are V=4 token sets; dfa-v1024's
are V=1024 viability masks, and its untraced output bits are pinned."""

import hashlib
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from exsample import METHODS, SamplerConfig, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TARGET = 20
# sha256 of dfa-v1024's sample ids, p_eps trajectories and generation
# counts for ars, rsft and cars, TARGET accepts each at seed 1: pins the
# trie's V=1024 draw and update bits, which the golden digest (arith,
# V=4) does not reach
DFA_V1024_DIGEST = "92c58498ddc5b6e1fba4d14e01ee0f4ca380396588a55b5d4c5da0af9844762c"
# the same episodes' sample ids and generation counts alone: what is
# sampled, which a change to the order of the trie's sums must not move
# where the p_eps bits may
DFA_V1024_SAMPLES_DIGEST = "a2f595a090a18f0696c95a4a26ff8c6d797699a8e60466c4cb7c845d79265e39"
# the same episodes' final trie dumps: every tracked node's p and every
# leaf, where DFA_V1024_DIGEST reaches only the root's p
DFA_V1024_TRIE_DIGEST = "5ee991cbd92d5489452987d5d5d3e22db59a15b586b8cb898263cbd0dbdbc6f8"


def _episode(workload, method, tracer=None):
    lm, checker = workload.build()
    hook = None
    if tracer is not None:
        tracer.instrument(lm, checker)
        hook = tracer.trie_hook
    cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=500 * TARGET)
    stream, _ = run(lm, checker, cfg, TARGET, trie_hook=hook)
    with nullcontext() if tracer is None else tracer.sampler_spans():
        return [w.ids for w in stream]


def _check_traced_episode(name, method):
    workload = WORKLOADS[name]()
    tracer = Tracer()
    traced = _episode(workload, method, tracer)
    assert traced == _episode(workload, method)
    assert len(traced) == TARGET
    draw, other = ("gcd_sample", "sample_one") if method == "gcd" else ("sample_one", "gcd_sample")
    for span in ("lm", "mask_first", "complete", draw, "invalid_set"):
        assert tracer.count[span] > 0, span
    assert tracer.count[other] == 0, other  # no token is counted under both spans
    assert tracer.tokens >= sum(len(ids) for ids in traced)
    # the trie hook saw the trie; rs and gcd never write to it
    assert (tracer.nodes_final > 1) == (method in ("ars", "rsft", "cars"))


@pytest.mark.parametrize("method", METHODS)
def test_traced_episode_counts_every_layer(method):
    _check_traced_episode("arith", method)


@pytest.mark.parametrize("method", METHODS)
def test_traced_dfa_episode_counts_every_layer(method):
    _check_traced_episode("dfa-v1024", method)


def test_dfa_v1024_output_bits():
    workload = WORKLOADS["dfa-v1024"]()
    h = hashlib.sha256()
    samples = hashlib.sha256()
    dumps = hashlib.sha256()
    for method in ("ars", "rsft", "cars"):
        lm, checker = workload.build()
        cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=500 * TARGET)
        tries = []
        stream, metrics = run(lm, checker, cfg, TARGET, trie_hook=lambda _, trie: tries.append(trie))
        ids = [w.ids for w in stream]
        assert len(ids) == TARGET
        dumps.update(f"{method}\n{tries[-1].dump()}".encode())
        h.update(f"{method}\n{ids!r}\n{metrics.p_eps_trajectory!r}\n".encode())
        h.update(f"{metrics.generations}\n".encode())
        samples.update(f"{method}\n{ids!r}\n{metrics.generations}\n".encode())
    assert samples.hexdigest() == DFA_V1024_SAMPLES_DIGEST
    assert h.hexdigest() == DFA_V1024_DIGEST
    assert dumps.hexdigest() == DFA_V1024_TRIE_DIGEST
