import math

import numpy as np
import pytest

from exsample import SamplerConfig, condition, enumerate_lm, run
from exsample.metrics import (
    RunMetrics,
    bootstrap_ci,
    efficiency_summary,
    empirical_kl,
    empirical_tv,
    lm_reference,
)
from exsample.oracle import ExactDistribution
from exsample.vocab import Sequence


def _seq(*ids):
    return Sequence(tuple(ids), True)


def test_kl_point_mass():
    ref = ExactDistribution({_seq(0, 1): 0.5, _seq(1,): 0.5}, 1.0)
    samples = [_seq(0, 1)] * 40
    assert empirical_kl(samples, ref) == pytest.approx(math.log(2))


def test_kl_zero_when_empirical_matches_ref_support():
    ref = ExactDistribution({_seq(0, 1): 0.25, _seq(1,): 0.75}, 1.0)
    samples = [_seq(0, 1)] * 25 + [_seq(1,)] * 75
    assert empirical_kl(samples, ref) == pytest.approx(0.0, abs=1e-12)


def test_kl_requires_support():
    ref = ExactDistribution({_seq(1,): 1.0}, 1.0)
    with pytest.raises(ValueError, match="no reference probability"):
        empirical_kl([_seq(0, 1)], ref)
    with pytest.raises(ValueError, match="at least one sample"):
        empirical_kl([], ref)


def test_kl_positive_at_finite_n_from_exact_sampler(arith_lm, arith_checker):
    # even exact samples give a strictly positive empirical estimate
    oracle = condition(enumerate_lm(arith_lm), arith_checker)
    stream, _ = run(
        arith_lm,
        arith_checker,
        SamplerConfig(method="cars", seed=3, max_len=7, sample_cap=5000),
        target_valid=1000,
    )
    kl = empirical_kl(list(stream), oracle)
    assert kl > 0.0
    assert kl < 0.1


def test_tv_basics():
    ref = ExactDistribution({_seq(0, 1): 0.25, _seq(1,): 0.75}, 1.0)
    assert empirical_tv([_seq(0, 1)] * 25 + [_seq(1,)] * 75, ref) == pytest.approx(0.0)
    assert empirical_tv([_seq(0, 1)] * 100, ref) == pytest.approx(0.75)


def test_lm_reference_uses_model_probabilities(arith_lm):
    w = arith_lm.vocab.seq([1, 3])
    ref = lm_reference([w, w], arith_lm)
    from exsample.lm import sequence_probability

    assert ref.table[w] == sequence_probability(w, arith_lm)


# -- bootstrap ------------------------------------------------------------------

def _independent_bootstrap(values, level=0.95, n=10_000, seed=0):
    """Plain percentile bootstrap of the mean, written separately."""
    values = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    means = []
    idx = rng.integers(0, len(values), size=(n, len(values)))
    for row in idx:
        means.append(values[row].mean())
    lo = np.quantile(means, (1 - level) / 2)
    hi = np.quantile(means, (1 + level) / 2)
    return float(lo), float(hi)


def test_bootstrap_zero_variance():
    assert bootstrap_ci([2.5, 2.5, 2.5]) == (2.5, 2.5)


def test_bootstrap_matches_independent_script():
    got = bootstrap_ci([0.0, 1.0])
    want = _independent_bootstrap([0.0, 1.0])
    assert got == want
    assert got[0] == 0.0 and got[1] == 1.0  # extremes of two-point resampling


def test_bootstrap_needs_two_runs():
    with pytest.raises(ValueError, match="two runs"):
        bootstrap_ci([1.0])


# -- efficiency summary -----------------------------------------------------------

def _metrics(method, seed, accept_pattern):
    m = RunMetrics(method=method, seed=seed)
    for accepted in accept_pattern:
        m.generations += 1
        m.accepted += int(accepted)
        m.cumulative_accepts.append(m.accepted)
        m.p_eps_trajectory.append(1.0)
    return m


def test_perfect_acceptance_needs_target_generations():
    m = _metrics("gcd", 1, [True] * 10)
    table = efficiency_summary([m], target_valid=10)
    assert table["gcd"]["mean_generations"] == 10
    assert table["gcd"]["timeouts"] == 0


def test_timeout_flagged():
    m = _metrics("rs", 1, [False] * 8)
    table = efficiency_summary([m], target_valid=3)
    assert table["rs"]["mean_generations"] is None
    assert table["rs"]["timeouts"] == 1


def test_success_rate_curve():
    m = _metrics("rs", 1, [False, True, True, False])
    table = efficiency_summary([m], target_valid=2)
    assert table["rs"]["success_rate_at"] == [
        (1, 0.0), (2, 0.5), (3, 2 / 3), (4, 0.5),
    ]


def test_kl_estimator_shrinks_for_every_exact_strategy(arith_lm, arith_checker):
    oracle = condition(enumerate_lm(arith_lm), arith_checker)
    for method in ("rs", "ars", "rsft", "cars"):
        means = []
        for n in (300, 3000):
            values = []
            for seed in (1, 2, 3):
                stream, _ = run(
                    arith_lm,
                    arith_checker,
                    SamplerConfig(method=method, seed=seed, max_len=7, sample_cap=60000),
                    target_valid=n,
                )
                values.append(empirical_kl(list(stream), oracle))
            means.append(np.mean(values))
        assert means[0] > means[1], method


def test_rs_mean_generations_near_negative_binomial(arith_lm, arith_checker):
    from exsample.oracle import constrained_mass

    q = constrained_mass(enumerate_lm(arith_lm), arith_checker)
    target = 40
    runs = []
    for seed in range(30):
        stream, m = run(
            arith_lm,
            arith_checker,
            SamplerConfig(method="rs", seed=seed, max_len=7, sample_cap=10000),
            target_valid=target,
        )
        list(stream)
        runs.append(m)
    table = efficiency_summary(runs, target_valid=target)
    assert table["rs"]["timeouts"] == 0
    assert table["rs"]["mean_generations"] == pytest.approx(target / q, rel=0.10)
