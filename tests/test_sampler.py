import copy
import pickle

import numpy as np
import pytest

from exsample import (
    METHODS,
    DfaChecker,
    EarleyChecker,
    MassExhaustedError,
    NonViablePrefixError,
    SamplerConfig,
    Sequence,
    TrieCorruptionError,
    condition,
    enumerate_lm,
    make_dfa,
    parse_grammar,
    run,
)
from exsample.lm import LanguageModel, NextTokenDistribution, TableLM
from exsample.sampler import (
    SampleTrace,
    draw_index,
    gcd_sample,
    invalid_set,
    make_rng,
    sample_one,
)
from exsample.trie import InvalidPrefixTrie
from exsample.vocab import Vocabulary
from conftest import bench_workload, invalid_prefixes


def cfg_for(lm, method="rs", seed=1, cap=100000):
    return SamplerConfig(method=method, seed=seed, max_len=lm.max_len, sample_cap=cap)


def make_trace(lm, checker, ids):
    """Trace with the sampler's recording rule: dists at every step, masks
    while the prefix stays viable."""
    dists = []
    masks = []
    viable = True
    for i in range(len(ids)):
        prefix = Sequence(ids[:i], False)
        dists.append(lm.next_distribution(prefix))
        if viable:
            mask = checker.viability_mask(prefix)
            masks.append(mask)
            if not mask[ids[i]]:
                viable = False
    tokens = Sequence(tuple(ids), ids[-1] == lm.vocab.eos)
    accepted = tokens.terminated and checker.is_complete(tokens)
    return SampleTrace(tokens, accepted, tuple(dists), tuple(masks))


# -- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        SamplerConfig(method="mcmc", seed=1, max_len=5)
    with pytest.raises(ValueError, match="sample_cap"):
        SamplerConfig(method="rs", seed=1, max_len=5, sample_cap=0)
    with pytest.raises(ValueError, match="^seed -1 is negative$"):
        SamplerConfig(method="rs", seed=-1, max_len=5)


def test_run_checks_horizon(arith_lm, arith_checker):
    with pytest.raises(ValueError, match="horizon"):
        run(arith_lm, arith_checker, SamplerConfig(method="rs", seed=1, max_len=3))


# -- sample_one ---------------------------------------------------------------

def _reference_draw(probs, u):
    acc = 0.0
    last_positive = None
    for i, p in enumerate(probs):
        if p > 0.0:
            acc += p
            last_positive = i
            if u <= acc:
                return i
    return last_positive


def test_empty_trie_matches_reference_sampler(arith_lm, arith_checker):
    """With nothing pruned, the sampler is plain ancestral sampling: its
    token stream must equal an independent inverse-CDF implementation fed
    the same uniforms."""
    trie = InvalidPrefixTrie()
    cfg = cfg_for(arith_lm)
    rng = make_rng(42)
    ref_rng = make_rng(42)
    for _ in range(300):
        trace = sample_one(arith_lm, arith_checker, trie, cfg, rng)
        ref_ids = []
        while True:
            dist = arith_lm.next_distribution(Sequence(tuple(ref_ids), False))
            token = _reference_draw(dist.probs, ref_rng.random())
            ref_ids.append(token)
            if token == arith_lm.vocab.eos:
                break
        assert trace.tokens.ids == tuple(ref_ids)


def _scalar_reference(lm, checker, seed, generations):
    """(tokens, member) per generation of plain ancestral sampling by
    ``_reference_draw``, one scalar ``make_rng(seed).random()`` per token."""
    rng = make_rng(seed)
    out = []
    for _ in range(generations):
        ids = []
        while True:
            dist = lm.next_distribution(Sequence(tuple(ids), False))
            token = _reference_draw(dist.probs, rng.random())
            ids.append(token)
            if token == lm.vocab.eos:
                break
        out.append((tuple(ids), checker.is_complete(Sequence(tuple(ids), True))))
    return out


def test_run_stream_matches_scalar_draws_across_block_refills(
    arith_lm, arith_checker, monkeypatch
):
    """run draws its uniforms in blocks of 512; over several refills its
    tokens must be those of one scalar draw per emitted token, and so must
    sample_one's when it is given the plain Generator."""
    seed, generations = 11, 600
    want = _scalar_reference(arith_lm, arith_checker, seed, generations)
    assert sum(len(ids) for ids, _ in want) > 4 * 512

    trie, rng = InvalidPrefixTrie(), make_rng(seed)
    cfg = cfg_for(arith_lm, "rs", seed)
    got = [sample_one(arith_lm, arith_checker, trie, cfg, rng) for _ in range(generations)]
    assert [(t.tokens.ids, t.accepted) for t in got] == want

    # every step asks the model for its prefix, so the prefixes asked for
    # spell out every token but each generation's final eos
    asked = []
    next_distribution = arith_lm.next_distribution

    def recorded(prefix):
        asked.append(prefix.ids)
        return next_distribution(prefix)

    monkeypatch.setattr(arith_lm, "next_distribution", recorded)
    stream, metrics = run(arith_lm, arith_checker, cfg_for(arith_lm, "rs", seed, cap=generations))
    accepted = [w.ids for w in stream]
    assert metrics.generations == generations
    assert asked == [ids[:i] for ids, _ in want for i in range(len(ids))]
    assert accepted == [ids for ids, member in want if member]


def test_tree_draws_follow_inserts(arith_lm, arith_checker):
    """After effective inserts below nodes already drawn from, the
    sampler's draws through the trie's sum trees must give the same tokens
    as an independent inverse-CDF draw over freshly computed reweight
    factors."""
    from conftest import step_dists

    trie = InvalidPrefixTrie()
    drawn = set()

    def draw(node, *args):
        drawn.add(id(node))
        return InvalidPrefixTrie.draw(trie, node, *args)

    trie.draw = draw
    cfg = cfg_for(arith_lm)
    rng = make_rng(13)
    ref_rng = make_rng(13)
    for ids in [(2,), (0, 2, 2), (0, 0), (0, 2, 1, 2, 2), (1, 1), (0, 2, 0, 0)]:
        if trie.n_nodes > 1:  # the root holds an entry
            assert id(trie.root) in drawn  # the root was drawn from
        removed = trie.insert_invalid(arith_lm.vocab.seq(ids), step_dists(arith_lm, ids))
        assert removed > 0.0
        for _ in range(200):
            trace = sample_one(arith_lm, arith_checker, trie, cfg, rng)
            ref_ids = []
            while True:
                prefix = Sequence(tuple(ref_ids), False)
                dist = arith_lm.next_distribution(prefix)
                probs = trie.reweight_factors(prefix, dist)
                token = _reference_draw(probs, ref_rng.random())
                ref_ids.append(token)
                if token == arith_lm.vocab.eos:
                    break
            assert trace.tokens.ids == tuple(ref_ids)


def test_trace_accounting(arith_lm, arith_checker):
    trie = InvalidPrefixTrie()
    cfg = cfg_for(arith_lm)
    rng = make_rng(7)
    for _ in range(50):
        trace = sample_one(arith_lm, arith_checker, trie, cfg, rng)
        assert trace.lm_calls == len(trace.tokens.ids) == len(trace.step_dists)
        assert len(trace.step_masks) <= len(trace.tokens.ids)
        assert trace.tokens.terminated
        assert trace.accepted == arith_checker.is_complete(trace.tokens)
        if trace.accepted:
            assert len(trace.step_masks) == len(trace.tokens.ids)


def test_sample_trace_is_an_immutable_value(arith_lm, arith_checker):
    trace = make_trace(arith_lm, arith_checker, (0, 2, 1, 3))
    with pytest.raises(AttributeError):
        trace.accepted = False
    same = SampleTrace(trace.tokens, trace.accepted, trace.step_dists, ())
    assert same == SampleTrace(trace.tokens, trace.accepted, trace.step_dists, ())
    assert hash(same) == hash(SampleTrace(trace.tokens, trace.accepted, trace.step_dists, ()))
    assert same != SampleTrace(trace.tokens, False, trace.step_dists, ())
    assert same.lm_calls == 4
    assert repr(same).startswith("SampleTrace(tokens=Sequence(ids=(0, 2, 1, 3), terminated=True), ")


def test_pruned_continuation_never_sampled(arith_lm, arith_checker):
    from conftest import step_dists

    trie = InvalidPrefixTrie()
    trie.insert_invalid(arith_lm.vocab.seq([0, 2, 2]), step_dists(arith_lm, [0, 2, 2]))
    cfg = cfg_for(arith_lm)
    rng = make_rng(3)
    seen_zero_plus = 0
    for _ in range(2000):
        trace = sample_one(arith_lm, arith_checker, trie, cfg, rng)
        assert trace.tokens.ids[:3] != (0, 2, 2)
        if trace.tokens.ids[:2] == (0, 2):
            seen_zero_plus += 1
    assert seen_zero_plus > 0  # the prefix itself is still reachable


def test_sample_one_requires_mass(arith_lm, arith_checker):
    trie = InvalidPrefixTrie()
    trie.root.p = 0.0
    with pytest.raises(MassExhaustedError):
        sample_one(arith_lm, arith_checker, trie, cfg_for(arith_lm), make_rng(1))


# -- invalid_set ---------------------------------------------------------------

def _invalid(trace, method, vocab):
    return invalid_prefixes(trace, invalid_set(trace, method), vocab.eos)


def test_rs_never_updates(arith_lm, arith_checker):
    trace = make_trace(arith_lm, arith_checker, (0, 2, 2, 3))
    assert invalid_set(trace, "rs") == {}


def test_ars_adds_shortest_invalid_prefix(arith_lm, arith_checker):
    trace = make_trace(arith_lm, arith_checker, (0, 2, 2, 2, 3))
    out = _invalid(trace, "ars", arith_lm.vocab)
    assert [ids for ids, _, _ in out] == [(0, 2, 2)]
    (ids, dists, _), = out
    assert len(dists) == 3


def test_ars_skips_accepted(arith_lm, arith_checker):
    trace = make_trace(arith_lm, arith_checker, (0, 2, 1, 3))
    assert invalid_set(trace, "ars") == {}


def test_ars_rejected_at_eos_adds_whole_sequence(arith_lm, arith_checker):
    trace = make_trace(arith_lm, arith_checker, (0, 2, 3))  # "0+$" incomplete sum
    out = _invalid(trace, "ars", arith_lm.vocab)
    assert [ids for ids, _, _ in out] == [(0, 2, 3)]
    (_, _, terminated), = out
    assert terminated


def test_rsft_adds_invalid_first_tokens(arith_lm, arith_checker):
    rejected = make_trace(arith_lm, arith_checker, (0, 2, 2, 3))
    accepted = make_trace(arith_lm, arith_checker, (0, 2, 1, 3))
    for trace in (rejected, accepted):
        out = _invalid(trace, "rsft", arith_lm.vocab)
        assert [ids for ids, _, _ in out] == [(2,), (3,)]


def test_cars_sweeps_every_visited_viable_prefix(arith_lm, arith_checker):
    # accepted sample: the sweep applies even though nothing was rejected
    trace = make_trace(arith_lm, arith_checker, (0, 2, 1, 3))
    out = _invalid(trace, "cars", arith_lm.vocab)
    got = [ids for ids, _, _ in out]
    assert got == [
        (2,), (3,),            # at the root
        (0, 0), (0, 1),        # after "0"
        (0, 2, 2), (0, 2, 3),  # after "0+"
        (0, 2, 1, 0), (0, 2, 1, 1),  # after "0+1"
    ]
    # no entry is a prefix of the accepted sequence itself
    for ids in got:
        assert trace.tokens.ids[: len(ids)] != ids


def test_swept_steps_give_no_groups(arith_lm, arith_checker):
    """A trace's first ``swept`` masks are its swept nodes' own: cars gives
    groups only below them, rsft none, and ars, which reads no mask's
    entries, what it gives without them."""
    trace = make_trace(arith_lm, arith_checker, (0, 2, 1, 3))
    swept = SampleTrace(trace.tokens, trace.accepted, trace.step_dists, trace.step_masks, 2)
    assert trace.swept == 0
    groups = invalid_set(swept, "cars")
    assert sorted(groups) == [2, 3]
    assert all(groups[d] is trace.step_masks[d] for d in groups)
    assert invalid_set(swept, "rsft") == {}
    assert invalid_set(swept, "ars") == invalid_set(trace, "ars") == {}
    assert copy.copy(swept) == swept != trace
    assert pickle.loads(pickle.dumps(swept)).swept == 2


def test_cars_rejected_covers_shortest_invalid(arith_lm, arith_checker):
    trace = make_trace(arith_lm, arith_checker, (0, 2, 2, 3))
    got = [ids for ids, _, _ in _invalid(trace, "cars", arith_lm.vocab)]
    assert (0, 2, 2) in got          # the rejected path's shortest invalid prefix
    assert all(len(ids) <= 3 for ids in got)  # nothing below the first failure


def test_every_emitted_prefix_is_invalid(arith_lm, arith_checker):
    trie = InvalidPrefixTrie()
    cfg = cfg_for(arith_lm)
    rng = make_rng(11)
    for _ in range(200):
        trace = sample_one(arith_lm, arith_checker, trie, cfg, rng)
        for method in METHODS:
            for ids, dists, terminated in _invalid(trace, method, arith_lm.vocab):
                assert len(dists) == len(ids)
                u = Sequence(ids, terminated)
                if u.terminated:
                    assert not arith_checker.is_complete(u)
                else:
                    # u's parent is viable yet u cannot reach the language
                    parent = Sequence(u.ids[:-1], False)
                    assert not arith_checker.viability_mask(parent)[u.ids[-1]]
                    with pytest.raises(NonViablePrefixError):
                        arith_checker.viability_mask(u)


def test_cars_edge_probs_line_up_with_model(arith_lm, arith_checker):
    trie = InvalidPrefixTrie()
    cfg = cfg_for(arith_lm)
    rng = make_rng(5)
    trace = sample_one(arith_lm, arith_checker, trie, cfg, rng)
    for ids, dists, _ in _invalid(trace, "cars", arith_lm.vocab):
        for i, d in enumerate(dists):
            want = arith_lm.next_distribution(Sequence(ids[:i], False))
            assert d is want or np.array_equal(d.probs, want.probs)


# -- run ----------------------------------------------------------------------

def test_rs_acceptance_matches_language_mass(arith_lm, arith_checker):
    from exsample.oracle import constrained_mass

    q = constrained_mass(enumerate_lm(arith_lm), arith_checker)
    stream, metrics = run(arith_lm, arith_checker, cfg_for(arith_lm, "rs", seed=2, cap=20000))
    list(stream)
    rate = metrics.accepted / metrics.generations
    assert rate == pytest.approx(q, abs=4 * np.sqrt(q * (1 - q) / 20000))


def test_trajectories_monotone_for_all_methods(arith_lm, arith_checker):
    for method in ("rs", "ars", "rsft", "cars"):
        stream, metrics = run(
            arith_lm, arith_checker, cfg_for(arith_lm, method, seed=9, cap=2000)
        )
        list(stream)
        traj = metrics.p_eps_trajectory
        assert len(traj) == metrics.generations
        assert all(b <= a for a, b in zip(traj, traj[1:]))


def _no_bb_checker(vocab):
    """DFA over a, b: no "bb", not ending in b."""
    from exsample import DfaChecker, make_dfa

    transitions = {(0, ord("a")): 0, (0, ord("b")): 1, (1, ord("a")): 0}
    return DfaChecker(make_dfa(2, 0, [0], b"ab", transitions), vocab)


@pytest.mark.parametrize("method", ["rsft", "cars"])
@pytest.mark.parametrize("instance", ["arith", "dfa"])
def test_skipping_swept_prefixes_loses_nothing(method, instance, arith_lm, arith_checker):
    """run skips the continuations of swept prefixes; the trie it grows must
    equal, generation by generation, one grown by inserting the whole
    invalid set of every trace, swept steps' masks included."""
    if instance == "arith":
        lm, checker = arith_lm, arith_checker
    else:
        from exsample.lm import TableLM

        vocab = Vocabulary.from_tokens(["a", "b", "ab", "ba", "$"], eos=4)
        contexts = {(1,): [0.2, 0.4, 0.1, 0.1, 0.2], (0, 2): [0.1, 0.3, 0.3, 0.2, 0.1]}
        lm = TableLM(vocab, contexts, [0.3, 0.3, 0.15, 0.15, 0.1], max_len=6)
        checker = _no_bb_checker(vocab)
    generations = 300
    cfg = cfg_for(lm, method, seed=17, cap=generations)
    dumps = []
    stream, _ = run(lm, checker, cfg, trie_hook=lambda i, trie: dumps.append(trie.dump()))
    list(stream)
    assert len(dumps) == generations

    trie = InvalidPrefixTrie()
    rng = make_rng(cfg.seed)
    for dump in dumps:
        trace = sample_one(lm, checker, trie, cfg, rng)
        # a copy that counts no swept step gives every group the trace saw
        whole = SampleTrace(trace.tokens, trace.accepted, trace.step_dists, trace.step_masks)
        assert whole.swept == 0
        for ids, dists, _ in invalid_prefixes(whole, invalid_set(whole, method), lm.vocab.eos):
            trie.insert_invalid(ids, dists)
        assert trie.dump() == dump


def test_cap_with_zero_accepts_is_reported(arith_lm):
    vocab = arith_lm.vocab
    # members need nine digits; the horizon allows seven tokens
    hard = EarleyChecker(
        parse_grammar('S : "0" "0" "0" "0" "0" "0" "0" "0" "0"\n'), vocab
    )
    stream, metrics = run(arith_lm, hard, cfg_for(arith_lm, "rs", seed=1, cap=50))
    assert list(stream) == []
    assert metrics.generations == 50 and metrics.accepted == 0


def test_mass_exhaustion_raises(arith_lm):
    vocab = arith_lm.vocab
    # derives only "222", which no token surface can spell
    unreachable = EarleyChecker(parse_grammar('S : "2" "2" "2"\n'), vocab)
    stream, metrics = run(arith_lm, unreachable, cfg_for(arith_lm, "cars", seed=1, cap=50))
    with pytest.raises(MassExhaustedError):
        list(stream)
    assert metrics.p_eps_trajectory[-1] == 0.0


class _DriftingLM(LanguageModel):
    """Each call returns a new conditional a little off the last one, as a
    model with nondeterministic numerics would."""

    def __init__(self, base):
        super().__init__(base.vocab, base.max_len)
        self._base = base
        self._calls = 0

    def _conditional(self, ids):
        self._calls += 1
        probs = np.array(self._base.next_distribution(Sequence(ids, False)).probs)
        probs[0] += 1e-6 * self._calls
        return NextTokenDistribution(probs)


@pytest.mark.parametrize("method", ["ars", "rsft", "cars"])
def test_trie_corruption_names_method_seed_and_generation(method, arith_lm, arith_checker):
    lm = _DriftingLM(arith_lm)
    stream, metrics = run(lm, arith_checker, cfg_for(lm, method, seed=5, cap=500))
    with pytest.raises(TrieCorruptionError) as info:
        list(stream)
    # the first draw through a tracked node after an insert meets a new
    # conditional: that generation is the one after the last counted
    generation = metrics.generations + 1
    assert str(info.value).startswith(f"{method} seed 5 generation {generation}: ")
    assert "edge probability for token" in str(info.value)
    assert str(info.value).endswith(str(info.value.__cause__))


def test_mass_exhaustion_names_method_seed_and_generation(arith_lm):
    unreachable = EarleyChecker(parse_grammar('S : "2" "2" "2"\n'), arith_lm.vocab)
    stream, metrics = run(arith_lm, unreachable, cfg_for(arith_lm, "cars", seed=3, cap=50))
    with pytest.raises(MassExhaustedError, match=r"^cars seed 3 generation \d+: ") as info:
        list(stream)
    assert str(info.value) == (
        f"cars seed 3 generation {metrics.generations + 1}: {info.value.__cause__}"
    )


def test_target_valid_stops_early(arith_lm, arith_checker):
    stream, metrics = run(
        arith_lm, arith_checker, cfg_for(arith_lm, "cars", seed=4, cap=10000),
        target_valid=25,
    )
    got = list(stream)
    assert len(got) == 25 and metrics.accepted == 25
    assert metrics.generations < 10000


def _ab_instance():
    """A DFA instance with dead prefixes: (ab)+ over tokens a, b, ab."""
    vocab = Vocabulary.from_tokens(["a", "b", "ab", "$"], eos=3)
    lm = TableLM(vocab, {}, [0.3, 0.3, 0.2, 0.2], 6)
    a, b = ord("a"), ord("b")
    dfa = make_dfa(3, 0, [2], b"ab", {(0, a): 1, (1, b): 2, (2, a): 1})
    return lm, DfaChecker(dfa, vocab)


@pytest.mark.parametrize("method", ["rs", "cars"])
@pytest.mark.parametrize("instance", ["arith", "dfa"])
def test_membership_is_asked_only_of_viable_traces(instance, method, arith_lm, arith_grammar):
    """A trace that failed a viability mask has no member among its
    extensions, so run asks is_complete once per accept; its accepted flags
    must still be those of asking every trace."""
    for seed in (1, 2, 3):
        if instance == "arith":
            lm, checker = arith_lm, EarleyChecker(arith_grammar, arith_lm.vocab)
            referee = EarleyChecker(arith_grammar, lm.vocab)
        else:
            lm, checker = _ab_instance()
            referee = _ab_instance()[1]
        calls = 0
        is_complete = checker.is_complete

        def counted(w):
            nonlocal calls
            calls += 1
            return is_complete(w)

        checker.is_complete = counted
        stream, metrics = run(lm, checker, cfg_for(lm, method, seed, cap=300))
        n_accepted = len(list(stream))
        assert calls == metrics.accepted == n_accepted > 0
        assert metrics.accepted < metrics.generations
        cumulative = metrics.cumulative_accepts
        flags = [b > a for a, b in zip([0] + cumulative, cumulative)]

        trie, rng = InvalidPrefixTrie(), make_rng(seed)
        want = []
        for _ in range(metrics.generations):
            trace = sample_one(lm, referee, trie, cfg_for(lm, method, seed), rng)
            member = referee.is_complete(trace.tokens)
            assert trace.accepted == member
            want.append(member)
            trie.update(trace.tokens.ids, trace.step_dists, invalid_set(trace, method))
        assert flags == want


@pytest.mark.parametrize("method", ["rsft", "cars"])
@pytest.mark.parametrize("instance", ["arith", "dfa"])
def test_swept_nodes_supply_the_checkers_masks(instance, method, arith_lm, arith_grammar):
    """A step at a swept trie node takes its mask from the node, not the
    checker: every recorded mask must still be the one a separate checker
    gives for that prefix, and a run asks its checker fewer times than it
    has viable steps."""
    if instance == "arith":
        lm, checker = arith_lm, EarleyChecker(arith_grammar, arith_lm.vocab)
        referee = EarleyChecker(arith_grammar, lm.vocab)
    else:
        lm, checker = _ab_instance()
        referee = _ab_instance()[1]
    calls = 0
    viability_mask = checker.viability_mask

    def counted(prefix):
        nonlocal calls
        calls += 1
        return viability_mask(prefix)

    checker.viability_mask = counted
    cfg = cfg_for(lm, method, seed=11, cap=300)
    stream, metrics = run(lm, checker, cfg)
    accepted = list(stream)
    run_calls, calls = calls, 0

    trie, rng = InvalidPrefixTrie(), make_rng(cfg.seed)
    replayed, steps, swept = [], 0, 0
    for _ in range(metrics.generations):
        trace = sample_one(lm, checker, trie, cfg, rng)
        ids = trace.tokens.ids
        for depth, mask in enumerate(trace.step_masks):
            assert np.array_equal(mask, referee.viability_mask(Sequence(ids[:depth], False)))
        steps += len(trace.step_masks)
        swept += trace.swept
        trie.update(ids, trace.step_dists, invalid_set(trace, method))
        if trace.accepted:
            replayed.append(trace.tokens)
    assert replayed == accepted
    assert swept > 0
    assert run_calls == calls <= steps - swept < steps


def _all_viable_instance():
    """A DFA instance whose prefixes of fewer than two letters accept every
    token: any two letters, then no "bb"."""
    vocab = Vocabulary.from_tokens(["a", "b", "ab", "$"], eos=3)
    lm = TableLM(vocab, {}, [0.3, 0.3, 0.2, 0.2], 6)
    a, b = ord("a"), ord("b")
    moves = {(0, a): 1, (0, b): 1, (1, a): 2, (1, b): 2, (2, a): 2, (2, b): 3, (3, a): 2}
    return lm, DfaChecker(make_dfa(4, 0, [0, 1, 2, 3], b"ab", moves), vocab)


def _tracked_depth(trie, ids):
    """How many leading prefixes of ``ids``, from the empty one, are
    tracked nodes."""
    if trie.root.dist is None:
        return 0
    node, depth = trie.root, 1
    for token in ids:
        node = node.children.get(token)
        if node is None:
            break
        depth += 1
    return depth


@pytest.mark.parametrize("method", ["rsft", "cars"])
@pytest.mark.parametrize("instance", ["arith", "dfa-v1024", "all-viable"])
def test_masks_land_below_the_tracked_nodes(instance, method, arith_lm, arith_checker):
    """A mask sweeps only a node it makes: every mask group that
    ``invalid_set`` gives lands deeper than the path's tracked nodes, also
    where a node was made on the way at the depth of a mask that ruled
    nothing out (the all-viable instance's first two depths)."""
    if instance == "arith":
        lm, checker = arith_lm, arith_checker
    elif instance == "dfa-v1024":
        lm, checker = bench_workload(instance).build()
    else:
        lm, checker = _all_viable_instance()
    cfg = cfg_for(lm, method, seed=3)
    trie, rng = InvalidPrefixTrie(), make_rng(cfg.seed)
    masks = 0
    for _ in range(100):
        trace = sample_one(lm, checker, trie, cfg, rng)
        groups = invalid_set(trace, method)
        tracked = _tracked_depth(trie, trace.tokens.ids)
        for depth, group in groups.items():
            assert isinstance(group, np.ndarray) and depth >= tracked, (trace.tokens, depth)
        masks += len(groups)
        trie.update(trace.tokens.ids, trace.step_dists, groups)
    assert masks > 0
    if instance == "all-viable" and method == "cars":
        # some node was made on the way, at a mask that ruled nothing out
        assert any(node.mask is not None and node.mask.all() for _, node in trie.nodes())


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("instance", ["arith", "dfa"])
def test_checker_steps_each_state_token_pair_once(instance, method, arith_lm, arith_grammar):
    """Over a whole run, the checker steps each (state, token) pair at most
    once and keeps one node per live state it reached, not an entry per
    prefix it was asked about."""
    if instance == "arith":
        lm, checker = arith_lm, EarleyChecker(arith_grammar, arith_lm.vocab)
    else:
        lm, checker = _ab_instance()
    steps = {}
    step = checker._step

    def counted(state, token):
        steps[state, token] = steps.get((state, token), 0) + 1
        return step(state, token)

    checker._step = counted
    stream, metrics = run(lm, checker, cfg_for(lm, method, seed=5, cap=300))
    assert list(stream) and metrics.generations == 300
    assert max(steps.values(), default=1) == 1
    if instance == "dfa":
        live = checker.dfa.co_reachable
    else:
        live = {checker._start()} | {step(*pair) for pair in steps} - {None}
    assert set(checker._nodes) <= live


# -- gcd ------------------------------------------------------------------------

def test_gcd_unrestricted_equals_unconstrained(arith_lm):
    vocab = arith_lm.vocab
    anything = EarleyChecker(parse_grammar('S : ("0" | "1" | "+")*\n'), vocab)
    cfg = cfg_for(arith_lm, "gcd")
    rng = make_rng(21)
    plain_rng = make_rng(21)
    trie = InvalidPrefixTrie()
    for _ in range(300):
        constrained = gcd_sample(arith_lm, anything, InvalidPrefixTrie(), cfg, rng)
        plain = sample_one(arith_lm, anything, trie, cfg, plain_rng)
        assert constrained.tokens.ids == plain.tokens.ids
        assert constrained.accepted


def test_gcd_draws_without_the_module_sample_one(arith_lm, arith_checker, monkeypatch):
    """gcd_sample runs the shared per-token loop itself, not through the
    module-level ``sample_one``: a tracer that wraps each name counts gcd's
    draws under gcd_sample alone."""
    import exsample.sampler as sampler_mod

    def wrapped(*args):
        raise AssertionError("gcd_sample went through sample_one")

    monkeypatch.setattr(sampler_mod, "sample_one", wrapped)
    cfg = cfg_for(arith_lm, "gcd")
    assert gcd_sample(arith_lm, arith_checker, InvalidPrefixTrie(), cfg, make_rng(3)).accepted
    stream, _ = run(arith_lm, arith_checker, cfg_for(arith_lm, "gcd"), target_valid=20)
    assert len(list(stream)) == 20


def test_gcd_two_word_bias(twoword_lm, twoword_checker):
    cfg = cfg_for(twoword_lm, "gcd")
    rng = make_rng(6)
    counts = {"a": 0, "bb": 0}
    trie = InvalidPrefixTrie()
    for _ in range(10000):
        trace = gcd_sample(twoword_lm, twoword_checker, trie, cfg, rng)
        assert trace.accepted
        counts["a" if trace.tokens.ids == (0, 3) else "bb"] += 1
    freq_a = counts["a"] / 10000
    # masked renormalization yields 0.5/0.8, far from the target 0.943
    assert freq_a == pytest.approx(0.625, abs=0.02)


def test_gcd_horizon_discard():
    vocab = Vocabulary.from_tokens(["a", "$"], eos=1)
    from exsample.lm import TableLM

    lm = TableLM(vocab, {}, [0.9, 0.1], max_len=2)
    checker = EarleyChecker(parse_grammar('S : "a" "a" "a"\n'), vocab)
    stream, metrics = run(lm, checker, SamplerConfig(method="gcd", seed=1, max_len=2, sample_cap=20))
    assert list(stream) == []
    assert metrics.accepted == 0
    assert metrics.gcd_discards == metrics.generations == 20


def _gcd_instance(name, arith_lm, arith_checker):
    if name == "arith":
        return arith_lm, arith_checker
    from exsample.lm import TableLM

    vocab = Vocabulary.from_tokens(["a", "b", "ab", "ba", "$"], eos=4)
    contexts = {(1,): [0.2, 0.4, 0.1, 0.1, 0.2], (0, 2): [0.1, 0.3, 0.3, 0.2, 0.1]}
    lm = TableLM(vocab, contexts, [0.3, 0.3, 0.15, 0.15, 0.1], max_len=6)
    return lm, _no_bb_checker(vocab)


@pytest.mark.parametrize("instance", ["arith", "dfa"])
def test_gcd_cached_tables_match_fresh_renormalization(instance, arith_lm, arith_checker):
    """gcd's cached running sums give the same tokens as renormalizing
    ``dist.probs * mask`` afresh at every step with ``np.cumsum``, fed the
    same uniforms, when one trie's cache serves many samples."""
    lm, checker = _gcd_instance(instance, arith_lm, arith_checker)
    cfg = cfg_for(lm, "gcd")
    rng = make_rng(31)
    ref_rng = make_rng(31)
    trie = InvalidPrefixTrie()
    for _ in range(300):
        trace = gcd_sample(lm, checker, trie, cfg, rng)
        ref_ids = []
        while True:
            prefix = Sequence(tuple(ref_ids), False)
            allowed = lm.next_distribution(prefix).probs * checker.viability_mask(prefix)
            if allowed.sum() <= 0.0:  # horizon dead end
                assert len(ref_ids) == lm.max_len and not trace.tokens.terminated
                break
            probs = allowed / allowed.sum()
            token = draw_index(np.cumsum(probs).tolist(), ref_rng.random())
            ref_ids.append(token)
            if token == lm.vocab.eos:
                break
        assert trace.tokens.ids == tuple(ref_ids)
        assert trace.accepted == (trace.tokens.terminated and checker.is_complete(trace.tokens))
    # each entry holds the two objects whose ids key it, so no id is reused
    assert trie._cache
    assert all(key == (id(entry.dist), id(entry.mask)) for key, entry in trie._cache.items())
    assert trie.root.dist is None  # gcd records nothing


def test_gcd_horizon_dead_end_trace_with_shared_cache(monkeypatch):
    from functools import cached_property

    import exsample.trie as trie_mod
    from exsample.lm import TableLM

    vocab = Vocabulary.from_tokens(["a", "$"], eos=1)
    lm = TableLM(vocab, {}, [0.9, 0.1], max_len=2)
    checker = EarleyChecker(parse_grammar('S : "a" "a" "a"\n'), vocab)
    cfg = SamplerConfig(method="gcd", seed=1, max_len=2)
    rng = make_rng(1)
    trie = InvalidPrefixTrie()
    built = []

    plain = trie_mod.Masked.cdf.func

    def counted(entry):
        built.append(entry)
        return plain(entry)

    cdf = cached_property(counted)
    cdf.__set_name__(trie_mod.Masked, "cdf")
    monkeypatch.setattr(trie_mod.Masked, "cdf", cdf)
    for i in range(3):  # the dead-end entry is served from the cache after the first
        trace = gcd_sample(lm, checker, trie, cfg, rng)
        assert trace.tokens == Sequence((0, 0), False)
        assert not trace.accepted
        assert trace.lm_calls == len(trace.step_dists) == len(trace.step_masks) == 3
        assert trace.step_dists[-1] is lm.next_distribution(Sequence((0, 0), False))
        if i == 0:
            entries = dict(trie._cache)
            # the horizon's eos point mass masked to nothing: a None cdf, cached
            dead = [entry for entry in entries.values() if entry.cdf is None]
            assert len(dead) == 1 and dead[0].dist is trace.step_dists[-1]
            first = len(built)
        assert trie._cache == entries  # the same entry objects, nothing added
        assert len(built) == first  # and no running sums recomputed


def test_gcd_exact_methods_beat_it_on_kl(arith_lm, arith_checker):
    from exsample.metrics import empirical_kl

    oracle = condition(enumerate_lm(arith_lm), arith_checker)
    cfg_g = cfg_for(arith_lm, "gcd", seed=8, cap=20000)
    stream_g, _ = run(arith_lm, arith_checker, cfg_g, target_valid=10000)
    kl_gcd = empirical_kl(list(stream_g), oracle)
    cfg_c = cfg_for(arith_lm, "cars", seed=8, cap=40000)
    stream_c, _ = run(arith_lm, arith_checker, cfg_c, target_valid=10000)
    kl_cars = empirical_kl(list(stream_c), oracle)
    assert kl_gcd > kl_cars
