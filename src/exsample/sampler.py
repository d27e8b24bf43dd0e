"""Left-to-right constrained samplers.

All five methods share one loop: draw a whole sequence, accept it if it
is a member of the constraint, and record invalid prefixes in the trie.
The rejection family draws from the model reweighted to avoid the trie;
the methods differ only in what each generation records:

  rs    nothing; plain rejection sampling
  ars   the rejected sample's shortest invalid prefix
  rsft  every invalid first token, whatever was sampled
  cars  every invalid one-token continuation of every viable prefix
        visited, on accepted samples too
  gcd   nothing; it draws by masking instead (see below), so its trie
        stays empty and its root mass stays 1

An update is a list of sibling groups, each a viable prefix and its invalid
one-token continuations, and the trie inserts each group in one batch.
rsft and cars mark each prefix they sweep in the trie and skip it on later
traces: its invalid continuations are leaves already.

A rejection method is sound as long as it only ever inserts genuinely invalid
prefixes; acceptance probability then improves monotonically while the
accepted-sample distribution stays exactly the constrained one.  Greedy
constrained decoding (gcd) is the standard biased baseline: mask invalid
tokens each step and renormalize.

Randomness is a seeded counter-based generator (Philox) with one
inverse-CDF draw per emitted token; ties on a CDF boundary resolve to the
lower token id, so runs are reproducible across platforms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constraints import ConstraintChecker
from .lm import LanguageModel, NextTokenDistribution
from .metrics import RunMetrics
from .trie import InvalidPrefixTrie, MassExhaustedError, TrieCorruptionError
from .vocab import Sequence

METHODS = ("rs", "ars", "rsft", "cars", "gcd")


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    seed: int
    max_len: int
    sample_cap: int = 2000

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; want one of {METHODS}")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass(frozen=True)
class SampleTrace:
    """One complete generation: the tokens, the full conditional recorded at
    every step, and viability masks for as long as the prefix stayed viable."""

    tokens: Sequence
    accepted: bool
    step_dists: tuple[NextTokenDistribution, ...]
    step_masks: tuple[np.ndarray, ...]

    @property
    def lm_calls(self) -> int:
        return len(self.step_dists)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def draw_index(probs, cum, u: float) -> int:
    """Inverse-CDF draw: the smallest positive-mass index i with cum[i] >= u.

    ``probs`` and ``cum`` are lists or arrays; bisecting either is faster
    than ``searchsorted`` on short vectors and no slower at V=1024.
    """
    n = len(probs)
    i = bisect_left(cum, u)
    if i >= n:  # u above the accumulated total (floating shortfall)
        i = n - 1
        while probs[i] <= 0.0:
            i -= 1
        return i
    while probs[i] <= 0.0:  # u == a boundary shared with zero-mass entries
        i += 1
    return i


def sample_one(
    lm: LanguageModel,
    checker: ConstraintChecker,
    trie: InvalidPrefixTrie,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> SampleTrace:
    """Draw one terminated sequence from the trie-reweighted model.

    Viability masks are recorded while the growing prefix remains viable;
    once it leaves the viable set, everything below is already covered by
    the trie, so mask queries stop.
    """
    if trie.root.p <= 0.0:
        raise MassExhaustedError("no valid mass left; constraint unreachable")
    eos = lm.vocab.eos
    ids: list[int] = []
    dists: list[NextTokenDistribution] = []
    masks: list[np.ndarray] = []
    node = trie.root
    viable = True
    while True:
        prefix = Sequence(tuple(ids), False)
        dist = lm.next_distribution(prefix)
        dists.append(dist)
        mask = None
        if viable:
            mask = checker.viability_mask(prefix)
            masks.append(mask)
        if node is not None and node.children:
            probs, cum = trie.draw_tables(node, dist, prefix.ids)
        else:
            probs, cum = dist.draw_tables
        token = draw_index(probs, cum, rng.random())
        ids.append(token)
        if viable and not mask[token]:
            viable = False
        if node is not None:
            node = node.children.get(token)
        if token == eos:
            break
    tokens = Sequence(tuple(ids), True)
    accepted = checker.is_complete(tokens)
    return SampleTrace(tokens, accepted, tuple(dists), tuple(masks))


def _swept_prefix(trace: SampleTrace, method: str) -> tuple[int, ...] | None:
    """For the methods that sweep (rsft, cars), the longest prefix of the
    trace they sweep: they sweep it and each of its prefixes.  None for
    the others."""
    if method == "rsft":
        return ()
    if method == "cars":
        return trace.tokens.ids[: len(trace.step_masks) - 1]
    return None


def invalid_set(
    trace: SampleTrace,
    method: str,
    trie: InvalidPrefixTrie | None = None,
) -> list[tuple[tuple[int, ...], tuple[NextTokenDistribution, ...], list[int]]]:
    """The invalid prefixes a method derives from one trace, grouped by
    parent: each group ``(base, dists, tokens)`` stands for the prefixes
    ``base + (t,)`` for t in ``tokens`` (ascending), and ``dists`` holds
    the step distributions along ``base`` plus the one at ``base``, as
    ``InvalidPrefixTrie.insert_invalid_children`` takes them.  ars gives
    at most one single-token group; rsft and cars give one group per
    swept prefix, possibly with no tokens; rs and gcd give none.

    Edge probabilities come from the trace's recorded conditionals; a
    prefix branching off the sampled path at step i reuses step i's
    distribution, so no extra model calls are ever needed.  When ``trie``
    is given, the continuations of prefixes it has already swept are left
    out: they are leaves already, so inserting them again is a no-op.
    """
    ids = trace.tokens.ids
    masks = trace.step_masks
    dists = trace.step_dists

    if method == "rs" or method == "gcd":
        return []

    if method == "ars":
        if trace.accepted:
            return []
        k = len(masks)  # prefix ids[:k-1] was viable, ids[:k] is not
        return [(ids[: k - 1], dists[:k], [ids[k - 1]])]

    # rsft: every invalid first token, whatever was sampled.  cars: every
    # invalid one-token continuation of every visited viable prefix; this
    # includes the trace's own shortest invalid prefix when the trace was
    # rejected, and applies unchanged to accepted samples.
    swept = _swept_prefix(trace, method)
    first = 0 if trie is None else trie.swept_depth(swept)
    return [
        (ids[:i], dists[: i + 1], np.flatnonzero(~masks[i]).tolist())
        for i in range(first, len(swept) + 1)
    ]


def _masked_tables(tables: dict, dist: NextTokenDistribution, mask: np.ndarray):
    """``(total, probs, cum)`` of ``dist`` masked by ``mask`` and renormalized,
    with probs and cum as lists (None when the mask leaves no mass).

    Cached in ``tables`` per (distribution, mask) pair by object identity;
    the entry holds both objects, so neither id can be reused while it
    lives.
    """
    key = (id(dist), id(mask))
    hit = tables.get(key)
    if hit is None:
        allowed = dist.probs * mask
        total = allowed.sum()
        probs = cum = None
        if total > 0.0:
            normed = allowed / total
            probs, cum = normed.tolist(), np.cumsum(normed).tolist()
        hit = tables[key] = (dist, mask, total, probs, cum)
    return hit[2:]


def gcd_sample(
    lm: LanguageModel,
    checker: ConstraintChecker,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    tables: dict | None = None,
) -> SampleTrace:
    """Greedy constrained decoding: mask non-viable tokens, renormalize,
    sample.  Efficient but biased relative to the constrained distribution.

    If the horizon forces eos while the sequence is not a member (the
    constraint's shortest completion ran past the horizon), the attempt is
    returned unterminated and not accepted; the caller recounts it.
    ``tables`` caches the masked draw tables; ``run`` passes one dict for
    the whole run, so it lives no longer than the run's model and checker.
    """
    if tables is None:
        tables = {}
    eos = lm.vocab.eos
    ids: list[int] = []
    dists: list[NextTokenDistribution] = []
    masks: list[np.ndarray] = []
    while True:
        prefix = Sequence(tuple(ids), False)
        dist = lm.next_distribution(prefix)
        mask = checker.viability_mask(prefix)
        dists.append(dist)
        masks.append(mask)
        total, probs, cum = _masked_tables(tables, dist, mask)
        if total <= 0.0:
            if len(ids) == cfg.max_len:
                # horizon dead end: eos forced but not a member here
                return SampleTrace(
                    Sequence(tuple(ids), False),
                    False,
                    tuple(dists),
                    tuple(masks),
                )
            raise RuntimeError(
                "every token masked at a viable prefix; checker is inconsistent"
            )
        token = draw_index(probs, cum, rng.random())
        ids.append(token)
        if token == eos:
            tokens = Sequence(tuple(ids), True)
            return SampleTrace(
                tokens, checker.is_complete(tokens), tuple(dists), tuple(masks)
            )


def run(
    lm: LanguageModel,
    checker: ConstraintChecker,
    cfg: SamplerConfig,
    target_valid: int | None = None,
    trie_hook=None,
) -> tuple[Iterator[Sequence], RunMetrics]:
    """Stream accepted sequences until the generation cap (or, if given,
    until ``target_valid`` accepts).

    Returns the lazy stream plus its metrics object; counters and the
    root-mass trajectory fill in as the stream is consumed.  Reaching the
    cap with too few accepts is an outcome, not an error; a
    ``TrieCorruptionError`` or ``MassExhaustedError`` raised by the stream
    names the method, seed and generation.  ``trie_hook``, when given, is
    called as hook(iteration, trie) after every update.
    """
    if cfg.max_len != lm.max_len:
        raise ValueError(
            f"config horizon {cfg.max_len} does not match the model's {lm.max_len}"
        )
    metrics = RunMetrics(method=cfg.method, seed=cfg.seed)
    rng = make_rng(cfg.seed)

    def stream() -> Iterator[Sequence]:
        method = cfg.method
        trie = InvalidPrefixTrie()
        gcd = method == "gcd"
        if gcd:
            draw, args = gcd_sample, (lm, checker, cfg, rng, {})
        else:
            draw, args = sample_one, (lm, checker, trie, cfg, rng)
        sweeps = method == "rsft" or method == "cars"
        try:
            for generation in range(1, cfg.sample_cap + 1):
                if target_valid is not None and metrics.accepted >= target_valid:
                    return
                trace = draw(*args)
                metrics.generations = generation
                previous = trie.root.p
                for base, edge_dists, tokens in invalid_set(trace, method, trie):
                    trie.insert_invalid_children(base, edge_dists, tokens)
                if sweeps:
                    trie.mark_swept(_swept_prefix(trace, method))
                if trie.root.p > previous + 1e-12:
                    raise TrieCorruptionError(
                        f"root mass rose from {previous!r} to {trie.root.p!r}"
                    )
                metrics.p_eps_trajectory.append(trie.root.p)
                if trace.accepted:
                    metrics.accepted += 1
                    metrics.accepted_lm_calls.append(trace.lm_calls)
                elif gcd:
                    metrics.gcd_discards += 1
                metrics.cumulative_accepts.append(metrics.accepted)
                if trie_hook is not None:
                    trie_hook(generation, trie)
                if trace.accepted:
                    yield trace.tokens
        except (TrieCorruptionError, MassExhaustedError) as exc:
            raise type(exc)(
                f"{method} seed {cfg.seed} generation {generation}: {exc}"
            ) from exc

    return stream(), metrics
