"""Left-to-right constrained samplers.

All five methods share one loop, down to the per-token draw: draw a whole
sequence, accept it if it is a member of the constraint, and record
invalid prefixes in the trie.  The rejection family renormalizes each step
through the trie, gcd by the step's viability mask; otherwise the methods
differ only in what each generation records:

  rs    nothing; plain rejection sampling
  ars   the rejected sample's shortest invalid prefix
  rsft  every invalid first token, whatever was sampled
  cars  every invalid one-token continuation of every viable prefix
        visited, on accepted samples too
  gcd   nothing; it draws by masking instead (see below), so its trie
        stays empty and its root mass stays 1

Every prefix a generation records branches off its sampled path, so the
trie takes the whole generation as one update (see ``invalid_set``).

A rejection method is sound as long as it only ever inserts genuinely invalid
prefixes; acceptance probability then improves monotonically while the
accepted-sample distribution stays exactly the constrained one.  Greedy
constrained decoding (gcd) is the standard biased baseline: mask invalid
tokens each step and renormalize.

Randomness is a seeded counter-based generator (Philox) with one
inverse-CDF draw per emitted token; ties on a CDF boundary resolve to the
lower token id, so runs are reproducible across platforms.  ``run`` draws
its uniforms in blocks and hands them out one per emitted token, in
order: a Philox stream drawn in blocks is the same stream as one drawn a
value at a time, so the blocks change the cost of a draw, not its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .constraints import ConstraintChecker
from .lm import LanguageModel, NextTokenDistribution, draw_index
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
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


class SampleTrace(NamedTuple):
    """One complete generation: the tokens, the full conditional recorded at
    every step, and viability masks for as long as the prefix stayed viable.
    ``swept`` counts the leading steps drawn at swept trie nodes: their
    masks are the nodes' own, which the trie already holds, so
    ``invalid_set`` gives no group for them.  It defaults to 0, a trace
    whose every group is new."""

    tokens: Sequence
    accepted: bool
    step_dists: tuple[NextTokenDistribution, ...]
    step_masks: tuple[np.ndarray, ...]
    swept: int = 0

    @property
    def lm_calls(self) -> int:
        return len(self.step_dists)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


_BLOCK = 512  # uniforms a run draws from its generator at a time


class _BlockUniforms:
    """The uniforms of ``rng``, drawn ``_BLOCK`` at a time: each ``random()``
    call returns the next one, the value a scalar ``rng.random()`` would
    have returned in its place."""

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator) -> None:
        def stream() -> Iterator[float]:
            while True:
                yield from rng.random(_BLOCK).tolist()

        self.random = stream().__next__


def _draw(
    lm: LanguageModel,
    checker: ConstraintChecker,
    trie: InvalidPrefixTrie,
    rng,
    masked: bool,
) -> SampleTrace:
    """The per-token loop of every method: draw one terminated sequence,
    one ``rng.random()`` per emitted token.  A tracked trie node draws from
    the trie's reweighted conditional, an untracked one by ``draw_index``
    over the model's running sums, gcd (``masked``) over those of the step's
    masked, renormalized conditional (``InvalidPrefixTrie.masked``).

    Viability masks are recorded while the growing prefix remains viable;
    once it leaves the viable set, everything below is already covered by
    the trie, so mask queries stop, and the sequence is no member, so
    membership is asked only of a sequence that stayed viable.  A masked
    draw never leaves the viable set.  A swept tracked node supplies its
    own mask, the checker's array that swept it, so the checker is asked
    only at the other steps; the trace's ``swept`` counts the leading
    steps drawn at such nodes.

    A tracked step hands the model and the checker the node's own
    ``prefix``, made with the node, so a ``Sequence`` is built per step
    only off the trie.
    """
    if trie.root.p <= 0.0:
        raise MassExhaustedError("no valid mass left; constraint unreachable")
    eos = lm.vocab.eos
    random = rng.random
    ids: list[int] = []
    dists: list[NextTokenDistribution] = []
    masks: list[np.ndarray] = []
    swept = 0
    # a root nothing was recorded under has no tree: its draws are untracked
    node = None if masked or trie.root.dist is None else trie.root
    viable = True
    while True:
        prefix = node.prefix if node is not None else Sequence(tuple(ids), False)
        dist = lm.next_distribution(prefix)
        dists.append(dist)
        if viable:
            if node is not None and node.mask is not None:
                mask = node.mask
                if swept == len(ids):  # every step so far was at a swept node
                    swept += 1
            else:
                mask = checker.viability_mask(prefix)
            masks.append(mask)
        if node is not None:
            token = trie.draw(node, dist, random())
        else:
            cdf = trie.masked(dist, mask).cdf if masked else dist.cdf
            if cdf is None:
                if len(ids) == lm.max_len:
                    # horizon dead end: eos forced but not a member here
                    return SampleTrace(prefix, False, tuple(dists), tuple(masks))
                raise RuntimeError(
                    "every token masked at a viable prefix; checker is inconsistent"
                )
            token = draw_index(cdf, random())
        ids.append(token)
        if viable and not mask[token]:
            viable = False
        if node is not None:
            node = node.children.get(token)
        if token == eos:
            break
    tokens = Sequence(tuple(ids), True)
    # a prefix that failed its mask has no member among its extensions
    accepted = viable and checker.is_complete(tokens)
    return SampleTrace(tokens, accepted, tuple(dists), tuple(masks), swept)


def sample_one(
    lm: LanguageModel,
    checker: ConstraintChecker,
    trie: InvalidPrefixTrie,
    rng,
) -> SampleTrace:
    """Draw one terminated sequence from the trie-reweighted model, one
    ``rng.random()`` per emitted token."""
    return _draw(lm, checker, trie, rng, False)


def invalid_set(trace: SampleTrace, method: str) -> dict[int, list[int] | np.ndarray]:
    """The invalid prefixes a method derives from one trace, as groups
    keyed by depth along the sampled path, the form
    ``InvalidPrefixTrie.update`` takes with the trace's tokens and step
    distributions.  The group at depth i stands for invalid one-token
    continuations of the trace's first i tokens: ars gives its one sampled
    invalid token, as a list; rsft and cars give viability masks, whose
    False entries are all of them; rs and gcd give none.  A mask the trace
    took from a swept node (its first ``swept``) is that node's own, so it
    gives no group: the trie holds every prefix it would record.

    Edge probabilities come from the trace's recorded conditionals; a
    prefix branching off the sampled path at step i reuses step i's
    distribution, so no extra model calls are ever needed.
    """
    # each branch reads only the fields it needs: unpacking a NamedTuple,
    # a tuple subclass, takes the generic path and costs more than the reads
    if method == "rs" or method == "gcd":
        return {}
    if method == "ars":
        if trace.accepted:
            return {}
        k = len(trace.step_masks)  # prefix ids[:k-1] was viable, ids[:k] is not
        return {k - 1: [trace.tokens.ids[k - 1]]}
    swept = trace.swept
    if method == "rsft":
        # every invalid first token, whatever was sampled, until the root is swept
        return {} if swept else {0: trace.step_masks[0]}
    # cars: every invalid one-token continuation of every visited viable
    # prefix; this includes the trace's own shortest invalid prefix when
    # the trace was rejected, and applies unchanged to accepted samples
    return dict(enumerate(trace.step_masks[swept:], swept))


def gcd_sample(
    lm: LanguageModel,
    checker: ConstraintChecker,
    trie: InvalidPrefixTrie,
    rng,
) -> SampleTrace:
    """Greedy constrained decoding: mask non-viable tokens, renormalize,
    sample, one ``rng.random()`` per emitted token.  Efficient but biased
    relative to the constrained distribution.

    If the horizon forces eos while the sequence is not a member (the
    constraint's shortest completion ran past the horizon), the attempt is
    returned unterminated and not accepted; the caller recounts it.
    The masked distributions are cached in ``trie``, which gcd records
    nothing in; ``run`` passes one per run, as long-lived as its model.
    """
    return _draw(lm, checker, trie, rng, True)


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
    rng = _BlockUniforms(make_rng(cfg.seed))

    def stream() -> Iterator[Sequence]:
        method = cfg.method
        trie = InvalidPrefixTrie()
        gcd = method == "gcd"
        draw = gcd_sample if gcd else sample_one
        try:
            for generation in range(1, cfg.sample_cap + 1):
                if target_valid is not None and metrics.accepted >= target_valid:
                    return
                trace = draw(lm, checker, trie, rng)
                tokens, accepted, dists = trace.tokens, trace.accepted, trace.step_dists
                metrics.generations = generation
                previous = trie.root.p
                trie.update(tokens.ids, dists, invalid_set(trace, method))
                p = trie.root.p
                if p > previous:
                    raise TrieCorruptionError(f"root mass rose from {previous!r} to {p!r}")
                metrics.p_eps_trajectory.append(p)
                if accepted:
                    metrics.accepted += 1
                    metrics.accepted_lm_calls.append(len(dists))
                elif gcd:
                    metrics.gcd_discards += 1
                metrics.cumulative_accepts.append(metrics.accepted)
                if trie_hook is not None:
                    trie_hook(generation, trie)
                if accepted:
                    yield tokens
        except (TrieCorruptionError, MassExhaustedError) as exc:
            raise type(exc)(
                f"{method} seed {cfg.seed} generation {generation}: {exc}"
            ) from exc

    return stream(), metrics
