"""Acceptance suite: one test per headline claim, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every expected number is either derived from the exhaustive oracle inside
the test or a frozen product of the bundled fixture's edge probabilities.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from exsample import (
    DfaChecker,
    EarleyChecker,
    SamplerConfig,
    Sequence,
    condition,
    enumerate_lm,
    make_dfa,
    run,
)
from exsample.grammar import Grammar
from exsample.lm import TableLM
from exsample.metrics import empirical_kl, empirical_tv
from exsample.oracle import constrained_mass
from exsample.sampler import invalid_set, make_rng, sample_one
from exsample.trie import InvalidPrefixTrie
from exsample.vocab import Vocabulary
from conftest import invalid_prefixes, step_dists

TRAJECTORIES: list[tuple[str, list[float]]] = []


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {description}{suffix}"


# -- random desk-scale instances ------------------------------------------------

def _random_table_lm(rng, size, horizon):
    tokens = [chr(ord("a") + i) for i in range(size - 1)] + ["$"]
    vocab = Vocabulary.from_tokens(tokens, eos=size - 1)
    contexts = {}
    for _ in range(int(rng.integers(0, 4))):
        depth = int(rng.integers(1, horizon))
        ids = tuple(int(t) for t in rng.integers(0, size - 1, size=depth))
        contexts[ids] = rng.dirichlet(np.ones(size) * 2)
    return TableLM(vocab, contexts, rng.dirichlet(np.ones(size) * 2), horizon)


def _random_dfa_checker(rng, vocab):
    alphabet = frozenset(b for t, s in enumerate(vocab.surfaces) if t != vocab.eos for b in s)
    n = int(rng.integers(2, 5))
    transitions = {
        (s, b): int(rng.integers(0, n)) for s in range(n) for b in alphabet
    }
    accepting = [int(s) for s in range(n) if rng.random() < 0.5] or [0]
    return DfaChecker(make_dfa(n, 0, accepting, alphabet, transitions), vocab)


def _random_grammar_checker(rng, vocab):
    alphabet = [b for t, s in enumerate(vocab.surfaces) if t != vocab.eos for b in s]
    n_nts = int(rng.integers(1, 4))
    names = [f"N{i}" for i in range(n_nts)]
    productions = []
    for i, name in enumerate(names):
        first = tuple(
            frozenset([int(rng.choice(alphabet))])
            for _ in range(int(rng.integers(1, 3)))
        )
        productions.append((name, first))
        for _ in range(int(rng.integers(0, 2))):
            rhs = []
            for _ in range(int(rng.integers(1, 3))):
                if i + 1 < n_nts and rng.random() < 0.5:
                    rhs.append(names[int(rng.integers(i + 1, n_nts))])
                else:
                    rhs.append(frozenset([int(rng.choice(alphabet))]))
            productions.append((name, tuple(rhs)))
    return EarleyChecker(Grammar(names[0], tuple(productions)), vocab)


def _random_instance(idx):
    """Deterministic (lm, checker, oracle) with workable mass and few enough
    outcomes for tight TV bounds at 20k samples."""
    rng = np.random.default_rng(90_000 + idx)
    while True:
        size = int(rng.integers(3, 6))
        horizon = int(rng.integers(4, 7))
        lm = _random_table_lm(rng, size, horizon)
        try:
            if idx % 2 == 0:
                checker = _random_dfa_checker(rng, lm.vocab)
            else:
                checker = _random_grammar_checker(rng, lm.vocab)
            table = enumerate_lm(lm)
            mass = constrained_mass(table, checker)
            if mass < 0.3:
                continue
            oracle = condition(table, checker)
            if not 2 <= len(oracle.support()) <= 20:
                continue
            return lm, checker, oracle, mass
        except ValueError:
            continue


def _all_instances(arith_lm, arith_checker):
    out = [("arith", arith_lm, arith_checker, condition(enumerate_lm(arith_lm), arith_checker))]
    for idx in range(20):
        lm, checker, oracle, _ = _random_instance(idx)
        out.append((f"rand{idx}", lm, checker, oracle))
    return out


def _lumped_chisquare(counts, oracle, n):
    """Chi-square against the oracle table, merging cells with expected
    count below 5 into one remainder bin."""
    observed, expected = [], []
    rest_obs, rest_exp = 0, 0.0
    for w, p in oracle.table.items():
        exp = p * n
        obs = counts.get(w, 0)
        if exp < 5.0:
            rest_obs += obs
            rest_exp += exp
        else:
            observed.append(obs)
            expected.append(exp)
    if rest_exp > 0:
        observed.append(rest_obs)
        expected.append(rest_exp)
    return stats.chisquare(observed, expected).pvalue


def test_criterion_1_exactness(arith_lm, arith_checker):
    """Accepted samples of every rejection strategy follow the constrained
    distribution on the arithmetic fixture and 20 random instances."""
    start = time.monotonic()
    n = 20_000
    failures = []
    for name, lm, checker, oracle in _all_instances(arith_lm, arith_checker):
        for method in ("rs", "ars", "rsft", "cars"):
            cfg = SamplerConfig(method=method, seed=1234, max_len=lm.max_len, sample_cap=1_000_000)
            stream, metrics = run(lm, checker, cfg, target_valid=n)
            samples = list(stream)
            TRAJECTORIES.append((f"{name}/{method}", metrics.p_eps_trajectory))
            counts = {}
            for w in samples:
                counts[w] = counts.get(w, 0) + 1
            pvalue = _lumped_chisquare(counts, oracle, n)
            tv = empirical_tv(samples, oracle)
            if len(samples) != n or pvalue < 0.001 or tv >= 0.02:
                failures.append(f"{name}/{method}: n={len(samples)} p={pvalue:.4f} tv={tv:.4f}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _report(
        1,
        "exact sampling: chi-square at 0.001 and TV < 0.02 on 21 instances x 4 strategies",
        ok,
        f"{elapsed:.1f}s" + ("; " + "; ".join(failures[:4]) if failures else ""),
    )


def test_criterion_2_per_iteration_exactness(arith_lm, arith_checker):
    """At frozen trie states, the reweighted sequence probability of every
    member equals its model probability over the root mass, and normalizing
    over the members recovers the conditioned distribution."""
    checkpoints = (0, 1, 3, 10, 30)
    worst = 0.0
    ok = True
    for name, lm, checker, oracle in _all_instances(arith_lm, arith_checker)[:8]:
        table = enumerate_lm(lm)
        members = [w for w in table.table if checker.is_complete(w)]
        cfg = SamplerConfig(method="cars", seed=77, max_len=lm.max_len, sample_cap=10_000)
        rng = make_rng(cfg.seed)
        trie = InvalidPrefixTrie()
        for iteration in range(max(checkpoints) + 1):
            if iteration in checkpoints:
                p_eps = trie.p_eps
                weights = {}
                for w in members:
                    r = 1.0
                    node = trie.root
                    for i, token in enumerate(w.ids):
                        dist = lm.next_distribution(Sequence(w.ids[:i], False))
                        if node is not None and node.children:
                            r *= trie._reweight_at(node, dist, w.ids[:i])[token]
                            node = node.children.get(token)
                        else:
                            r *= dist[token]
                            node = None
                    weights[w] = r
                    want = table.table[w] / p_eps
                    if want == 0.0 or r == 0.0:
                        ok = ok and want == r
                        continue
                    err = abs(r - want) / want
                    worst = max(worst, err)
                    ok = ok and err <= 1e-9
                total = sum(weights.values())
                for w in members:
                    got = weights[w] / total
                    want = oracle.table[w]
                    if want > 0:
                        err = abs(got - want) / want
                        worst = max(worst, err)
                        ok = ok and err <= 1e-9
            if trie.p_eps <= 0:
                break
            trace = sample_one(lm, checker, trie, cfg, rng)
            groups = invalid_set(trace, "cars")
            for ids, dists, _ in invalid_prefixes(groups, lm.vocab.eos):
                trie.insert_invalid(ids, dists)
    _report(
        2,
        "trie-reweighted member probabilities equal P(w)/p_eps to 1e-9 at 5 states per instance",
        ok,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_3_figure_mass_removal(arith_lm):
    """Frozen fixture sums: the single-path update removes 0.091125, the
    full sweep removes 0.638625."""
    v = arith_lm.vocab
    trie_a = InvalidPrefixTrie()
    ars = trie_a.insert_invalid(v.seq([0, 2, 2]), step_dists(arith_lm, [0, 2, 2]))
    trie_c = InvalidPrefixTrie()
    cars = 0.0
    for ids in [(2,), (3,), (0, 0), (0, 1), (0, 2, 2), (0, 2, 3)]:
        cars += trie_c.insert_invalid(v.seq(ids), step_dists(arith_lm, ids))
    ok = abs(ars - 0.091125) <= 1e-12 and abs(cars - 0.638625) <= 1e-12
    _report(
        3,
        "fixture mass removal: 0.091125 (shortest prefix) and 0.638625 (sweep) exact to 1e-12",
        ok,
        f"ars={ars!r} cars={cars!r}",
    )


def test_criterion_4_monotone_acceptance(arith_lm, arith_checker):
    """Every recorded root-mass trajectory is non-increasing."""
    if not TRAJECTORIES:  # criterion 1 runs first; keep a fallback
        for method in ("ars", "cars"):
            cfg = SamplerConfig(method=method, seed=5, max_len=7, sample_cap=2000)
            stream, metrics = run(arith_lm, arith_checker, cfg, target_valid=500)
            list(stream)
            TRAJECTORIES.append((method, metrics.p_eps_trajectory))
    violations = []
    for name, traj in TRAJECTORIES:
        for a, b in zip(traj, traj[1:]):
            if b > a + 1e-12:
                violations.append(name)
                break
    total = sum(len(t) for _, t in TRAJECTORIES)
    _report(
        4,
        "root mass is non-increasing across every recorded trajectory",
        not violations,
        f"{len(TRAJECTORIES)} trajectories, {total} steps" + (f"; violated: {violations[:3]}" if violations else ""),
    )


def test_criterion_5_trie_oracle_torture():
    """After each of 500 randomized inserts, every tracked node's stored
    mass matches the exhaustive referee to 1e-9."""
    rng = np.random.default_rng(424242)
    lm = _random_table_lm(rng, size=4, horizon=6)
    table = enumerate_lm(lm)
    entries = [(w.ids, p) for w, p in table.table.items()]
    trie = InvalidPrefixTrie()
    worst = 0.0
    inserts = 0
    for _ in range(500):
        depth = int(rng.integers(1, lm.max_len + 1))
        ids = [int(t) for t in rng.integers(0, lm.vocab.size - 1, size=depth - 1)]
        last = int(rng.integers(0, lm.vocab.size))
        ids.append(last if last != lm.vocab.eos else lm.vocab.eos)
        ids = tuple(ids)
        trie.insert_invalid(lm.vocab.seq(ids), step_dists(lm, ids))
        inserts += 1
        # one sweep computes the referee value for every tracked node
        num: dict[int, float] = {}
        den: dict[int, float] = {}
        tracked: dict[int, float] = {}
        for w_ids, p in entries:
            node = trie.root
            path = [node]
            covered = node.is_invalid_leaf
            for token in w_ids:
                node = node.children.get(token)
                if node is None:
                    break
                path.append(node)
                covered = covered or node.is_invalid_leaf
            for n in path:
                key = id(n)
                tracked[key] = n.p
                den[key] = den.get(key, 0.0) + p
                if not covered:
                    num[key] = num.get(key, 0.0) + p
        for key, stored in tracked.items():
            want = num.get(key, 0.0) / den[key]
            worst = max(worst, abs(stored - want))
    ok = worst <= 1e-9
    _report(
        5,
        "trie vs oracle after every insert of a 500-insert torture run (1e-9)",
        ok,
        f"worst abs deviation {worst:.2e} over {inserts} inserts",
    )


def test_criterion_6_efficiency_ordering(lowmass_lm, arith_grammar):
    """On a hard instance (member mass <= 0.05) the sweep strategy beats the
    shortest-prefix strategy beats plain rejection, pairwise over seeds."""
    checker = EarleyChecker(arith_grammar, lowmass_lm.vocab)
    mass = constrained_mass(enumerate_lm(lowmass_lm), checker)
    assert mass <= 0.05, f"fixture mass {mass} is not low"
    needed = {m: [] for m in ("rs", "ars", "rsft", "cars")}
    for seed in range(1, 31):
        for method in needed:
            cfg = SamplerConfig(method=method, seed=seed, max_len=lowmass_lm.max_len, sample_cap=200_000)
            stream, metrics = run(lowmass_lm, checker, cfg, target_valid=100)
            list(stream)
            TRAJECTORIES.append((f"lowmass/{method}/{seed}", metrics.p_eps_trajectory))
            gens = metrics.generations_to(100)
            assert gens is not None
            needed[method].append(gens)

    def sign_test(smaller, larger):
        wins = sum(1 for a, b in zip(smaller, larger) if a < b)
        ties = sum(1 for a, b in zip(smaller, larger) if a == b)
        n = len(smaller) - ties
        return stats.binomtest(wins, n, 0.5, alternative="greater").pvalue

    p_cars_ars = sign_test(needed["cars"], needed["ars"])
    p_ars_rs = sign_test(needed["ars"], needed["rs"])
    means = {m: float(np.mean(v)) for m, v in needed.items()}
    ok = (
        p_cars_ars < 0.05
        and p_ars_rs < 0.05
        and means["cars"] < means["ars"] < means["rs"]
        and means["cars"] <= means["rsft"]
    )
    _report(
        6,
        "generations to 100 accepts: cars < ars < rs (paired sign test p < 0.05), cars <= rsft",
        ok,
        f"means rs={means['rs']:.0f} ars={means['ars']:.0f} rsft={means['rsft']:.0f} "
        f"cars={means['cars']:.0f}; p(cars<ars)={p_cars_ars:.2e} p(ars<rs)={p_ars_rs:.2e}",
    )


def test_criterion_7_gcd_bias(twoword_lm, twoword_checker):
    """Greedy masking visibly distorts the two-word instance while the
    adaptive sampler stays on target."""
    oracle = condition(enumerate_lm(twoword_lm), twoword_checker)
    a_seq = twoword_lm.vocab.seq([0, 3])
    target = oracle.table[a_seq]
    cfg = SamplerConfig(method="gcd", seed=11, max_len=twoword_lm.max_len, sample_cap=100_000)
    stream, _ = run(twoword_lm, twoword_checker, cfg, target_valid=10_000)
    gcd_samples = list(stream)
    freq_a = sum(1 for w in gcd_samples if w == a_seq) / len(gcd_samples)
    kl_gcd = empirical_kl(gcd_samples, oracle)

    cfg = SamplerConfig(method="cars", seed=11, max_len=twoword_lm.max_len, sample_cap=200_000)
    stream, _ = run(twoword_lm, twoword_checker, cfg, target_valid=10_000)
    kl_cars = empirical_kl(list(stream), oracle)

    ok = (
        abs(freq_a - 0.625) <= 0.02
        and abs(target - 0.5 / 0.53) <= 1e-12
        and kl_gcd >= 5.0 * kl_cars
    )
    _report(
        7,
        "gcd samples the short word at 0.625 vs the true 0.943; its KL is >= 5x the exact sampler's",
        ok,
        f"freq={freq_a:.4f} target={target:.4f} kl_gcd={kl_gcd:.4f} kl_cars={kl_cars:.6f}",
    )


def test_criterion_8_kl_estimator_shrinks(arith_lm, arith_checker):
    """The oracle-referenced empirical KL of the exact sampler decreases in
    expectation as the sample count grows 1k -> 10k -> 100k."""
    oracle = condition(enumerate_lm(arith_lm), arith_checker)
    sizes = (1_000, 10_000, 100_000)
    kls = {n: [] for n in sizes}
    for seed in (101, 202, 303):
        cfg = SamplerConfig(method="cars", seed=seed, max_len=7, sample_cap=500_000)
        stream, metrics = run(arith_lm, arith_checker, cfg, target_valid=max(sizes))
        samples = list(stream)
        TRAJECTORIES.append((f"kl/{seed}", metrics.p_eps_trajectory))
        for n in sizes:
            kls[n].append(empirical_kl(samples[:n], oracle))
    means = [float(np.mean(kls[n])) for n in sizes]
    from exsample.metrics import bootstrap_ci

    lo, hi = bootstrap_ci(kls[1_000])
    ok = means[0] > means[1] > means[2] > 0.0
    _report(
        8,
        "3-seed mean empirical KL strictly decreases over 1k/10k/100k samples",
        ok,
        f"means={[f'{m:.5f}' for m in means]}; 95% CI at 1k [{lo:.5f}, {hi:.5f}]",
    )
