import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exsample import MassExhaustedError, Sequence, TrieCorruptionError, enumerate_lm
from exsample.lm import TableLM, sequence_probability
from exsample.oracle import exact_p
from exsample.trie import (
    _ACCUMULATE_MIN,
    _DRIFT,
    _EDGE_TOL,
    _NO_CHILDREN,
    InvalidPrefixTrie,
    TrieNode,
    _clamped,
    _subtract_in_turn,
    load_snapshot,
)
from exsample.vocab import Vocabulary
from conftest import step_dists

# invalid-prefix families for the arithmetic figure, as token ids over
# {0:"0", 1:"1", 2:"+", 3:"$"}
ARS_INSERT = [(0, 2, 2)]
CARS_INSERTS = [(2,), (3,), (0, 0), (0, 1), (0, 2, 2), (0, 2, 3)]


def build(lm, inserts):
    trie = InvalidPrefixTrie()
    total = 0.0
    for ids in inserts:
        total += trie.insert_invalid(lm.vocab.seq(ids), step_dists(lm, ids))
    return trie, total


def test_single_insert_removes_path_mass(arith_lm):
    trie, removed = build(arith_lm, ARS_INSERT)
    assert removed == pytest.approx(0.45 * 0.45 * 0.45, abs=1e-15)
    assert removed == pytest.approx(0.091125, abs=1e-12)
    assert trie.p_eps == pytest.approx(1 - 0.091125, abs=1e-12)


def test_sweep_inserts_remove_summed_mass(arith_lm):
    trie, removed = build(arith_lm, CARS_INSERTS)
    assert removed == pytest.approx(0.3 + 0.45 * 0.55 + 0.091125, abs=1e-12)
    assert removed == pytest.approx(0.638625, abs=1e-12)
    assert trie.p_value(arith_lm.vocab.empty()) == pytest.approx(0.361375, abs=1e-12)


def test_reinsert_is_noop(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    again = trie.insert_invalid(arith_lm.vocab.seq([0, 2, 2]), step_dists(arith_lm, [0, 2, 2]))
    assert again == 0.0


def test_insert_below_leaf_is_covered(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    below = trie.insert_invalid(
        arith_lm.vocab.seq([0, 2, 2, 1]), step_dists(arith_lm, [0, 2, 2, 1])
    )
    assert below == 0.0
    assert trie.p_value(arith_lm.vocab.seq([0, 2, 2, 1])) == 0.0


def test_p_values(arith_lm):
    v = arith_lm.vocab
    empty = InvalidPrefixTrie()
    assert empty.p_value(v.seq([0, 2])) == 1.0  # nothing ruled out yet
    trie, _ = build(arith_lm, ARS_INSERT)
    assert trie.p_value(v.seq([0, 2, 2, 0])) == 0.0  # extension of a leaf
    assert trie.p_value(v.seq([1])) == 1.0  # off the tracked paths
    assert trie.p_value(v.seq([0, 2, 2])) == 0.0  # the leaf itself


def test_insert_prunes_dominated_subtree(arith_lm):
    v = arith_lm.vocab
    trie, _ = build(arith_lm, ARS_INSERT)
    p_before = trie.p_value(v.seq([0]))
    delta = trie.insert_invalid(v.seq([0]), step_dists(arith_lm, [0]))
    # the propagated decrease is the node's remaining mass, not P(u)
    assert delta == pytest.approx(0.45 * p_before, abs=1e-15)
    assert trie.p_value(v.seq([0])) == 0.0
    assert trie.leaves() == [(0,)]
    trie.check_local_consistency()


def test_prefix_freeness(arith_lm):
    trie, _ = build(arith_lm, CARS_INSERTS)
    leaves = trie.leaves()
    stored = [ids for ids, _ in trie.nodes()]
    for leaf in leaves:
        for other in stored:
            assert not (len(other) > len(leaf) and other[: len(leaf)] == leaf)


def test_edge_probability_mismatch_fails_loudly(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    wrong = step_dists(arith_lm, [0, 0])  # second dist is for context "0"
    with pytest.raises(TrieCorruptionError, match="edge probability"):
        trie.insert_invalid(arith_lm.vocab.seq([0, 2]), [wrong[0], wrong[0]])


def test_edge_probability_mismatch_names_prefix_and_token(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    root, after_0 = step_dists(arith_lm, [0, 0])
    # the existing child (0, 2) met with the root's conditional
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0,\)"):
        trie.insert_invalid_children((0,), [root, root], [2])
    # the path walk meets the existing node (0,) with the conditional at "0"
    with pytest.raises(TrieCorruptionError, match=r"token 0 after prefix \(\) "):
        trie.insert_invalid_children((0,), [after_0, after_0], [1])


def test_edge_probability_mismatch_at_a_leaf_changes_nothing(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    before, n_nodes = trie.dump(), trie.n_nodes
    root, after_0, after_02 = step_dists(arith_lm, [0, 2, 2])
    assert abs(root.probs[2] - after_02.probs[2]) > _EDGE_TOL
    # (0, 2, 2) is a leaf met with the root's conditional; token 1 sorts
    # before it and would be a new leaf
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0, 2\)"):
        trie.insert_invalid_children((0, 2), [root, after_0, root], [1, 2])
    assert trie.dump() == before
    assert trie.n_nodes == n_nodes


def test_reweight_checks_name_the_prefix(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    root, _, after_02 = step_dists(arith_lm, [0, 2, 2])
    # the leaf (0, 2, 2) met with the root's conditional
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0, 2\) "):
        trie.reweight_factors((0, 2), root)
    node = trie.root.children[0].children[2]
    node.p /= 2  # corrupt the bookkeeping
    with pytest.raises(TrieCorruptionError, match=r"after prefix \(0, 2\) sums to"):
        trie.draw_tables(node, after_02, (0, 2))


def _count(node):
    return 1 + sum(_count(child) for child in node.children.values())


def _insert_one_by_one(trie, ids, dists):
    """The insert the sibling batch replaced, one prefix per call: the
    reference ``insert_invalid_children`` must match bit for bit."""
    path = [trie.root]
    node = trie.root
    for token, dist in zip(ids, dists):
        if node.is_invalid_leaf:
            return 0.0
        edge = float(dist.probs[token])
        child = node.children.get(token)
        if child is None:
            child = TrieNode(edge)
            if not node.children:
                node.children = {}
            node.children[token] = child
            trie.n_nodes += 1
        else:
            assert abs(child.edge_prob - edge) <= _EDGE_TOL
        node = child
        path.append(node)
    if node.is_invalid_leaf:
        return 0.0
    if node.children:
        trie.n_nodes -= _count(node) - 1
        node.children = _NO_CHILDREN
    delta = node.p
    node.p = 0.0
    node.is_invalid_leaf = True
    for parent, child in zip(reversed(path[:-1]), reversed(path[1:])):
        delta *= child.edge_prob
        parent.p = _clamped(parent.p - delta)
    return delta


def _tracked(trie, ids):
    """The node at ``ids`` and whether a leaf covers a proper prefix of it."""
    node = trie.root
    for token in ids:
        if node.is_invalid_leaf:
            return None, True
        node = node.children.get(token)
        if node is None:
            return None, False
    return node, False


@pytest.mark.parametrize("size, horizon", [(5, 5), (40, 4)])
def test_sibling_batch_matches_one_by_one_inserts(size, horizon):
    """Random sibling groups, batched into one trie and inserted prefix by
    prefix into another: same dump, bit for bit, and same node count."""
    seen = set()
    for seed in range(6):
        lm = _random_lm(seed, size=size, horizon=horizon)
        rng = np.random.default_rng(seed)
        batched, reference = InvalidPrefixTrie(), InvalidPrefixTrie()
        for _ in range(40):
            depth = int(rng.integers(0, horizon - 1))
            base = tuple(int(t) for t in rng.integers(0, size - 1, size=depth))
            k = int(rng.integers(0, size + 1))
            tokens = [int(t) for t in rng.choice(size, size=k, replace=False)]
            dists = step_dists(lm, base + (0,))

            node, covered = _tracked(reference, base)
            if not tokens:
                seen.add("empty")
            elif covered or (node is not None and node.is_invalid_leaf):
                seen.add("base below a leaf")
            elif node is not None:
                for t in tokens:
                    child = node.children.get(t)
                    if child is not None and child.is_invalid_leaf:
                        seen.add("already a leaf")
                    elif child is not None and child.children:
                        seen.add("deeper subtree")
            if lm.vocab.eos in tokens:
                seen.add("eos")
            if len(tokens) >= _ACCUMULATE_MIN:
                seen.add("long")

            got = batched.insert_invalid_children(base, dists, tokens)
            want = sum(
                _insert_one_by_one(reference, base + (t,), dists) for t in sorted(tokens)
            )
            assert abs(got - want) <= _DRIFT
            assert batched.dump() == reference.dump()
            assert batched.n_nodes == reference.n_nodes
            batched.check_local_consistency()
    want_seen = {"empty", "already a leaf", "deeper subtree", "eos", "base below a leaf"}
    assert want_seen <= seen
    assert ("long" in seen) == (size >= _ACCUMULATE_MIN)


def test_accumulated_subtraction_matches_the_loop():
    """np.subtract.accumulate, back to the loop when a clamp fires, against
    the loop that clamps after every subtraction."""
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = float(rng.random())
        # decreases summing to a little less than p, to p up to rounding, or
        # to a little more; then a tail of decreases below the clamp's
        # tolerance, which the loop absorbs one by one at 0 but which can
        # add up to more than the tolerance
        scale = 1.0 + float(rng.choice([-1e-3, 0.0, 1e-3]))
        body = rng.dirichlet(np.ones(int(rng.integers(16, 64)))) * p * scale
        tail = np.full(int(rng.integers(0, 30)), _DRIFT / 4)
        deltas = np.concatenate((body, tail))

        def outcome(subtract):
            try:
                return subtract()
            except TrieCorruptionError as err:
                return str(err)

        def loop():
            value = p
            for d in deltas.tolist():
                value = _clamped(value - d)
            return value

        want = outcome(loop)
        got = outcome(lambda: _subtract_in_turn(p, deltas))
        assert got == want and type(got) is type(want)
        outcomes.add("raised" if isinstance(got, str) else "zero" if got == 0.0 else "kept")
    assert outcomes == {"raised", "zero", "kept"}


def test_swept_marks_tracked_prefixes_only(arith_lm):
    trie, _ = build(arith_lm, [(0, 2, 2)])
    n_nodes = trie.n_nodes
    assert trie.swept_depth((0, 2, 1)) == 0
    trie.mark_swept((0, 2, 1))  # (0, 2, 1) is untracked: left unmarked
    assert trie.n_nodes == n_nodes
    assert trie.swept_depth((0, 2, 1)) == 3
    assert trie.swept_depth((0, 2)) == 3
    assert trie.swept_depth((1,)) == 1
    assert trie.swept_depth(()) == 1


def test_draw_tables_match_reweight_factors(arith_lm):
    trie = InvalidPrefixTrie()
    for ids in CARS_INSERTS:
        trie.insert_invalid(arith_lm.vocab.seq(ids), step_dists(arith_lm, ids))
        for prefix, node in trie.nodes():
            if node.children and not node.is_invalid_leaf:
                dist = arith_lm.next_distribution(Sequence(prefix, False))
                want = trie.reweight_factors(prefix, dist)
                for _ in range(2):  # built, then served from the cache
                    probs, cum = trie.draw_tables(node, dist, prefix)
                    assert probs == want.tolist()
                    assert cum == np.cumsum(want).tolist()


def test_reweight_untracked_is_identity(arith_lm):
    v = arith_lm.vocab
    trie, _ = build(arith_lm, ARS_INSERT)
    dist = arith_lm.next_distribution(v.seq([1]))
    out = trie.reweight_factors(v.seq([1]), dist)
    assert out is dist.probs  # reduces to the original conditional


def test_reweight_zeroes_pruned_edge(arith_lm):
    v = arith_lm.vocab
    trie, _ = build(arith_lm, ARS_INSERT)
    dist = arith_lm.next_distribution(v.seq([0, 2]))
    out = trie.reweight_factors(v.seq([0, 2]), dist)
    assert out[2] == 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-8)
    expected = np.array([0.3, 0.25, 0.0, 0.0]) / 0.55
    assert np.allclose(out, expected, atol=1e-12)


def test_reweight_refuses_dead_prefixes(arith_lm):
    v = arith_lm.vocab
    trie, _ = build(arith_lm, ARS_INSERT)
    dist = arith_lm.next_distribution(v.seq([0, 2]))
    with pytest.raises(MassExhaustedError):
        trie.reweight_factors(v.seq([0, 2, 2]), dist)


def _random_lm(seed, size=4, horizon=6):
    rng = np.random.default_rng(seed)
    tokens = [chr(ord("a") + i) for i in range(size - 1)] + ["$"]
    vocab = Vocabulary.from_tokens(tokens, eos=size - 1)
    contexts = {}
    for _ in range(3):
        depth = rng.integers(1, horizon - 1)
        ids = tuple(int(t) for t in rng.integers(0, size - 1, size=depth))
        contexts[ids] = rng.dirichlet(np.ones(size))
    return TableLM(vocab, contexts, rng.dirichlet(np.ones(size)), horizon)


def _random_prefix(rng, lm):
    depth = int(rng.integers(1, lm.max_len + 1))
    ids = [int(t) for t in rng.integers(0, lm.vocab.size - 1, size=depth - 1)]
    last = int(rng.integers(0, lm.vocab.size))
    ids.append(lm.vocab.eos if last == lm.vocab.eos else last)
    return tuple(ids)


def test_reweight_sums_to_one_everywhere():
    # ten random invalid inserts, then every reachable prefix reweights to a
    # proper distribution and matches the enumeration referee
    lm = _random_lm(seed=5)
    dist_table = enumerate_lm(lm)
    rng = np.random.default_rng(17)
    trie = InvalidPrefixTrie()
    for _ in range(10):
        ids = _random_prefix(rng, lm)
        trie.insert_invalid(lm.vocab.seq(ids), step_dists(lm, ids))
    leaves = trie.leaves()

    def walk(ids):
        if len(ids) >= lm.max_len:
            return
        u = Sequence(ids, False)
        if trie.p_value(u) <= 0.0:
            return
        dist = lm.next_distribution(u)
        out = trie.reweight_factors(u, dist)
        assert abs(out.sum() - 1.0) <= 1e-8
        for t in range(lm.vocab.size):
            want = exact_p(ids + (t,), leaves, dist_table)
            have = trie.p_value(ids + (t,))
            if dist[t] > 0:
                assert have == pytest.approx(want, abs=1e-9)
            if t != lm.vocab.eos:
                walk(ids + (t,))

    walk(())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.randoms(use_true_random=False))
def test_interleaved_inserts_stay_consistent(lm_seed, n_inserts, pyrng):
    lm = _random_lm(lm_seed, size=4, horizon=5)
    table = enumerate_lm(lm)
    rng = np.random.default_rng(pyrng.getrandbits(32))
    trie = InvalidPrefixTrie()
    last_root = trie.p_eps
    for _ in range(n_inserts):
        ids = _random_prefix(rng, lm)
        covered = trie.p_value(ids) == 0.0
        tracked_fresh = all(
            ids[:k] not in {n for n, _ in trie.nodes()} for k in (len(ids),)
        )
        removed = trie.insert_invalid(lm.vocab.seq(ids), step_dists(lm, ids))
        assert removed >= 0.0
        if covered:
            assert removed == 0.0
        assert trie.p_eps <= last_root + 1e-12
        last_root = trie.p_eps
        trie.check_local_consistency(tol=1e-9)
        want = exact_p((), trie.leaves(), table)
        assert trie.p_eps == pytest.approx(want, abs=1e-9)


def test_fresh_insert_removes_exact_path_probability(arith_lm):
    # with no descendants previously removed, the root decrease is P(u)
    trie = InvalidPrefixTrie()
    for ids in [(0, 0), (1, 2, 2), (2,)]:
        want = 1.0
        for i, t in enumerate(ids):
            want *= arith_lm.next_distribution(Sequence(ids[:i], False))[t]
        got = trie.insert_invalid(arith_lm.vocab.seq(ids), step_dists(arith_lm, ids))
        assert got == pytest.approx(want, rel=1e-12)


def test_terminated_insert_uses_eos_edge(arith_lm):
    v = arith_lm.vocab
    trie = InvalidPrefixTrie()
    removed = trie.insert_invalid(v.seq([1, 3]), step_dists(arith_lm, [1, 3]))
    assert removed == pytest.approx(sequence_probability(v.seq([1, 3]), arith_lm), rel=1e-12)


def test_snapshot_dump_and_reload(arith_lm):
    trie, _ = build(arith_lm, CARS_INSERTS)
    text = trie.dump()
    lines = text.splitlines()
    assert lines[0].startswith("\t")  # root has the empty prefix
    assert all(len(line.split("\t")) == 3 for line in lines)
    clone = load_snapshot(text, arith_lm)
    assert sorted(clone.leaves()) == sorted(trie.leaves())
    # p is re-derived on load: semantically equal, bit-exactness not promised
    for ids, node in trie.nodes():
        assert clone.p_value(ids) == pytest.approx(node.p, abs=1e-12)
    # a canonical (dump-ordered) snapshot round-trips bit-exactly
    canonical = clone.dump()
    assert load_snapshot(canonical, arith_lm).dump() == canonical
