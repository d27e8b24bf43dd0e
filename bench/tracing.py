"""Spans around the calls into each layer, recorded from the benchmark.

A traced episode wraps the model's ``next_distribution``, the checker's
``viability_mask`` and ``is_complete``, the trie's ``insert_invalid`` and
the sampler's ``sample_one``, ``invalid_set`` and ``gcd_sample``.  Spans
nest on a stack; each closed span adds its duration to its layer's
inclusive time and, minus the time of the spans it caused, to its self
time.  Only these per-layer sums are kept, so memory stays flat however
many spans an episode records.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import exsample.sampler as sampler_mod


class Tracer:
    """Per-layer call counts, inclusive time and self time for one episode."""

    def __init__(self) -> None:
        self.count: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.tokens = 0          # tokens emitted by sample_one / gcd_sample
        self.noop_inserts = 0    # inserts that removed no mass
        self.nodes_final = 0     # trie size after the last update
        self._stack = [0.0]      # child time of each open span

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span named ``name`` (or ``name(args)`` when
        ``name`` is callable); ``after(result)`` sees every return value."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args):
            label = name(*args) if callable(name) else name
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args)
            finally:
                took = clock() - start
                child = stack.pop()
                stack[-1] += took
                self.count[label] += 1
                self.total[label] += took
                self.self_time[label] += took - child
            if after is not None:
                after(out)
            return out

        return traced

    def instrument(self, lm, checker) -> None:
        """Put spans on one episode's freshly built model and checker."""
        seen: set = set()

        def mask_label(prefix):
            if prefix.ids in seen:
                return "mask_repeat"
            seen.add(prefix.ids)
            return "mask_first"

        lm.next_distribution = self.span("lm", lm.next_distribution)
        checker.viability_mask = self.span(mask_label, checker.viability_mask)
        checker.is_complete = self.span("complete", checker.is_complete)

    def trie_hook(self, iteration, trie) -> None:
        self.nodes_final = trie.n_nodes

    @contextmanager
    def sampler_spans(self):
        """Route ``run``'s calls to the sampler functions and to new tries
        through spans for the duration of the block."""

        def count_tokens(trace):
            self.tokens += len(trace.tokens.ids)

        def count_noop(removed):
            if removed == 0.0:
                self.noop_inserts += 1

        plain_trie = sampler_mod.InvalidPrefixTrie

        def traced_trie():
            trie = plain_trie()
            trie.insert_invalid = self.span("insert", trie.insert_invalid, count_noop)
            return trie

        patched = {
            "sample_one": self.span("sample_one", sampler_mod.sample_one, count_tokens),
            "gcd_sample": self.span("gcd_sample", sampler_mod.gcd_sample, count_tokens),
            "invalid_set": self.span("invalid_set", sampler_mod.invalid_set),
            "InvalidPrefixTrie": traced_trie,
        }
        saved = {name: getattr(sampler_mod, name) for name in patched}
        for name, value in patched.items():
            setattr(sampler_mod, name, value)
        try:
            yield
        finally:
            for name, value in saved.items():
                setattr(sampler_mod, name, value)
