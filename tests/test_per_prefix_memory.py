"""Memory in the paper's regime, where a model returns a new conditional
object for every prefix and the client caches it per prefix, as RemoteLM
does.  The dfa-v1024 table hands out five shared conditionals; wrapped
here, every prefix it is asked gets its own, so the trie and its cache of
masked conditionals cannot share them."""

import sys
import tracemalloc
from pathlib import Path

import pytest

from exsample import SamplerConfig, Sequence, run
from exsample.lm import LanguageModel, NextTokenDistribution

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS  # noqa: E402

# Measured on Python 3.11, numpy 2.4, seed 1: ars peaks at 45.7 KB and cars
# at 49.4 KB per distinct prefix (1152 and 523 prefixes) at V = 1024, where
# a conditional's probs and running sums take about 40 KB.  The bound
# leaves 1.3x over cars; a second per-token list of floats (32 KB at
# V = 1024) would break it.
PEAK_PER_PREFIX = 64_000  # bytes


class PerPrefixLM(LanguageModel):
    """``table``'s conditionals, one new object per prefix, cached."""

    def __init__(self, table: LanguageModel) -> None:
        super().__init__(table.vocab, table.max_len)
        self._table = table
        self.cache: dict[tuple[int, ...], NextTokenDistribution] = {}

    def _conditional(self, ids):
        dist = self.cache.get(ids)
        if dist is None:
            probs = self._table.next_distribution(Sequence(ids, False)).probs
            dist = self.cache[ids] = NextTokenDistribution(probs)
        return dist


@pytest.mark.parametrize("method, accepts", [("ars", 50), ("cars", 30)])
def test_per_prefix_peak_is_bounded_per_prefix(method, accepts):
    table, checker = WORKLOADS["dfa-v1024"]().build()
    lm = PerPrefixLM(table)
    cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=500 * accepts)
    tracemalloc.start()
    try:
        stream, _ = run(lm, checker, cfg, accepts)
        assert len(list(stream)) == accepts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prefixes = len(lm.cache)
    assert prefixes > 100  # each prefix asked is a conditional of its own
    assert peak <= PEAK_PER_PREFIX * prefixes, f"{peak} bytes over {prefixes} prefixes"
