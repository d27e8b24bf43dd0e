"""Run accounting and distributional-fidelity metrics.

Efficiency is counted in LM generation calls, each producing one complete
(possibly invalid) sequence.  Fidelity uses the empirical KL divergence of
the accepted samples, computable against the raw model distribution (the
usual proxy, positive even for exact samplers) or against the exact
constrained distribution when the oracle is in reach; total variation
against the oracle is also reported at desk scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .lm import LanguageModel, sequence_probability
from .oracle import ExactDistribution, ordered_sum
from .vocab import Sequence


@dataclass
class RunMetrics:
    """Per-run counters and trajectories, filled in while a run is consumed."""

    method: str
    seed: int
    generations: int = 0
    accepted: int = 0
    p_eps_trajectory: list[float] = field(default_factory=list)
    cumulative_accepts: list[int] = field(default_factory=list)
    accepted_lm_calls: list[int] = field(default_factory=list)
    gcd_discards: int = 0
    kl_proxy: float | None = None
    kl_oracle: float | None = None
    tv_oracle: float | None = None
    bootstrap_ci: tuple[float, float] | None = None

    def generations_to(self, target_valid: int) -> int | None:
        """Generations needed for the first ``target_valid`` accepts, or
        None if the run never got there (cap timeout)."""
        for i, accepts in enumerate(self.cumulative_accepts):
            if accepts >= target_valid:
                return i + 1
        return None


def empirical_kl(samples: Iterable[Sequence], ref: ExactDistribution) -> float:
    """KL divergence of the empirical sample distribution from ``ref``,
    summed over the empirical support only."""
    counts = Counter(samples)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("empirical KL needs at least one sample")
    out = 0.0
    for w, c in counts.items():
        p_ref = ref.table.get(w, 0.0)
        if p_ref <= 0.0:
            raise ValueError(f"sample {w.ids} has no reference probability")
        p_emp = c / n
        out += p_emp * math.log(p_emp / p_ref)
    return out


def empirical_tv(samples: Iterable[Sequence], ref: ExactDistribution) -> float:
    """Total variation distance between the empirical distribution and ``ref``."""
    counts = Counter(samples)
    n = sum(counts.values())
    if n == 0:
        raise ValueError("total variation needs at least one sample")
    keys = set(counts) | set(ref.table)
    return 0.5 * ordered_sum(abs(counts.get(w, 0) / n - ref.table.get(w, 0.0)) for w in keys)


def lm_reference(samples: Iterable[Sequence], lm: LanguageModel) -> ExactDistribution:
    """Support-restricted reference table of raw model probabilities, for
    the KL proxy (no enumeration needed)."""
    table = {}
    for w in samples:
        if w not in table:
            table[w] = sequence_probability(w, lm)
    return ExactDistribution(table, ordered_sum(table.values()))


# bootstrap_ci's interval: its coverage, resample count and generator seed
_CI_LEVEL = 0.95
_CI_RESAMPLES = 10_000
_CI_SEED = 0


def bootstrap_ci(per_run_values: Iterable[float]) -> tuple[float, float]:
    """Seeded percentile bootstrap interval, at ``_CI_LEVEL``, for the mean
    of per-run values."""
    values = np.asarray(list(per_run_values), dtype=np.float64)
    if values.size < 2:
        raise ValueError("bootstrap needs at least two runs")
    rng = np.random.default_rng(_CI_SEED)
    idx = rng.integers(0, values.size, size=(_CI_RESAMPLES, values.size))
    means = values[idx].mean(axis=1)
    lo, hi = np.quantile(means, [(1 - _CI_LEVEL) / 2, (1 + _CI_LEVEL) / 2])
    return float(lo), float(hi)


def efficiency_summary(runs: Iterable[RunMetrics], target_valid: int) -> dict:
    """Per-method efficiency table: mean generations to the target count
    (None plus a timeout tally when some run capped out) and the success
    rate after k calls, averaged over the runs still live at k."""
    by_method: dict[str, list[RunMetrics]] = {}
    for run in runs:
        by_method.setdefault(run.method, []).append(run)
    out = {}
    for method, group in sorted(by_method.items()):
        needed = [m.generations_to(target_valid) for m in group]
        timeouts = sum(1 for n in needed if n is None)
        reached = [n for n in needed if n is not None]
        depth = max(m.generations for m in group)
        curve = []
        for k in range(1, depth + 1):
            rates = [
                m.cumulative_accepts[k - 1] / k
                for m in group
                if len(m.cumulative_accepts) >= k
            ]
            curve.append((k, ordered_sum(rates) / len(rates)))
        out[method] = {
            "runs": len(group),
            "timeouts": timeouts,
            "mean_generations": sum(reached) / len(reached) if reached else None,
            "success_rate_at": curve,
        }
    return out
