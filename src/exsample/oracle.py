"""Brute-force ground truth: exhaustive enumeration of every terminated
sequence up to the horizon, exact conditioning on a constraint, and exact
avoidance probabilities for any invalid-prefix set.

These are the independent referees for the trie bookkeeping and for every
sampler exactness test; sums add left to right in a fixed lexicographic
order, so results are bit-stable across runs and Python versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .constraints import ConstraintChecker
from .lm import LanguageModel, NextTokenDistribution
from .vocab import Sequence

_GUARD = 10**7  # refuse state spaces past this many leaf paths


class StateSpaceError(ValueError):
    """The vocabulary/horizon combination is too large to enumerate."""


@dataclass(frozen=True)
class ExactDistribution:
    """Exact probability table over terminated sequences, in enumeration
    order; ``total`` is the table sum (1 for a full model enumeration)."""

    table: dict
    total: float

    def __getitem__(self, w: Sequence) -> float:
        return self.table[w]

    def __len__(self) -> int:
        return len(self.table)

    def support(self) -> list[Sequence]:
        return [w for w, p in self.table.items() if p > 0.0]


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right sum, the bits of ``sum`` up to Python 3.11 (from 3.12
    ``sum`` compensates float rounding, so its bits depend on the version)."""
    total = 0  # an empty sum is the int 0, as with ``sum``
    for x in values:
        total += x
    return total


def enumerate_lm(lm: LanguageModel) -> ExactDistribution:
    """Exact P(w) for every terminated w with |w| <= horizon + 1, by
    depth-first chain-rule expansion in token-id order."""
    if lm.vocab.size ** lm.max_len > _GUARD:
        raise StateSpaceError(
            f"{lm.vocab.size}^{lm.max_len} sequences exceed the enumeration guard"
        )
    eos = lm.vocab.eos
    horizon = lm.max_len
    table: dict[Sequence, float] = {}
    total = 0.0
    logs: dict[NextTokenDistribution, list[float]] = {}  # by identity

    def step_logs(dist: NextTokenDistribution) -> list[float]:
        hit = logs.get(dist)
        if hit is None:
            hit = logs[dist] = [
                math.log(step) if step > 0.0 else -math.inf
                for step in dist.probs.tolist()
            ]
        return hit

    every_token = range(lm.vocab.size)

    def expand(ids: tuple[int, ...], log_p: float) -> None:
        nonlocal total
        step_log = step_logs(lm.next_distribution(Sequence(ids, False)))
        # at the horizon only eos can follow
        for token in every_token if len(ids) < horizon else (eos,):
            if token == eos:
                prob = math.exp(log_p + step_log[token])
                table[Sequence(ids + (token,), True)] = prob
                total += prob
            else:
                expand(ids + (token,), log_p + step_log[token])

    expand((), 0.0)
    return ExactDistribution(table, total)


def condition(dist: ExactDistribution, checker: ConstraintChecker) -> ExactDistribution:
    """Restrict to members of the constraint and renormalize."""
    kept = {w: p for w, p in dist.table.items() if checker.is_complete(w)}
    mass = ordered_sum(kept.values())
    if mass <= 0.0:
        raise ValueError("constraint has no probability mass in the model's support")
    return ExactDistribution({w: p / mass for w, p in kept.items()}, 1.0)


def constrained_mass(dist: ExactDistribution, checker: ConstraintChecker) -> float:
    """Total model mass of constraint members (the acceptance rate of plain
    rejection sampling)."""
    return ordered_sum(p for w, p in dist.table.items() if checker.is_complete(w))


def exact_p(
    u: Sequence | Iterable[int],
    invalid: Iterable[Sequence | Iterable[int]],
    dist: ExactDistribution,
) -> float:
    """Probability that a continuation of u avoids every invalid prefix,
    by direct summation over the enumeration table.

    Entries of ``invalid`` must be pairwise prefix-free.  Sequences below
    an invalid prefix get 0; sequences that cannot extend to any invalid
    prefix get 1 (vacuously, also when u has no mass at all).
    """
    uid = u.ids if isinstance(u, Sequence) else tuple(u)
    inv = [w.ids if isinstance(w, Sequence) else tuple(w) for w in invalid]
    for v in inv:
        if uid[: len(v)] == v:
            return 0.0
    num = 0.0
    den = 0.0
    for w, p in dist.table.items():
        if w.ids[: len(uid)] != uid:
            continue
        den += p
        if not any(w.ids[: len(v)] == v for v in inv):
            num += p
    if den == 0.0:
        return 1.0
    return num / den


def dump_distribution(dist: ExactDistribution) -> str:
    """Text dump ``sequence<TAB>probability``, sorted, 17 significant digits."""
    lines = []
    for w in sorted(dist.table, key=lambda s: s.ids):
        ids = ",".join(str(t) for t in w.ids)
        lines.append(f"{ids}\t{dist.table[w]:.17g}")
    return "\n".join(lines) + "\n"
