"""The benchmark's traced episode, run small on the arith workload: every
span ``bench/tracing.py`` puts on the model, the checker, the sampler and
the trie must still wrap a live name and count calls, and tracing must
not change what is sampled."""

import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from exsample import METHODS, SamplerConfig, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TARGET = 20


def _episode(method, tracer=None):
    lm, checker = WORKLOADS["arith"]().build()
    hook = None
    if tracer is not None:
        tracer.instrument(lm, checker)
        hook = tracer.trie_hook
    cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=500 * TARGET)
    stream, _ = run(lm, checker, cfg, TARGET, trie_hook=hook)
    with nullcontext() if tracer is None else tracer.sampler_spans():
        return [w.ids for w in stream]


@pytest.mark.parametrize("method", METHODS)
def test_traced_episode_counts_every_layer(method):
    tracer = Tracer()
    traced = _episode(method, tracer)
    assert traced == _episode(method)
    assert len(traced) == TARGET
    draw = "gcd_sample" if method == "gcd" else "sample_one"
    for span in ("lm", "mask_first", "complete", draw, "invalid_set"):
        assert tracer.count[span] > 0, span
    assert tracer.tokens >= sum(len(ids) for ids in traced)
    # the trie hook saw the trie; rs and gcd never write to it
    assert (tracer.nodes_final > 1) == (method in ("ars", "rsft", "cars"))
