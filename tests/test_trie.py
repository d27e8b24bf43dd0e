import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exsample import (
    MassExhaustedError,
    SamplerConfig,
    Sequence,
    TrieCorruptionError,
    enumerate_lm,
    run,
)
from exsample.lm import NextTokenDistribution, TableLM, draw_index, sequence_probability
from exsample.oracle import exact_p
from exsample.trie import _DRIFT, _EDGE_TOL, InvalidPrefixTrie, Masked, _clamped, _tree
from exsample.vocab import Vocabulary
from conftest import bench_workload, step_dists

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
        trie.update((0,), [root, root], {1: [2]})
    # the path walk meets the root with the conditional at "0"; the
    # largest difference is the one named
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(\) "):
        trie.update((0,), [after_0, after_0], {1: [1]})


def test_edge_probability_mismatch_at_a_leaf_changes_nothing(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    before, n_nodes = trie.dump(), trie.n_nodes
    root, after_0, after_02 = step_dists(arith_lm, [0, 2, 2])
    assert abs(root.probs[2] - after_02.probs[2]) > _EDGE_TOL
    # (0, 2, 2) is a leaf met with the root's conditional; token 1 sorts
    # before it and would be a new leaf
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0, 2\)"):
        trie.update((0, 2), [root, after_0, root], {2: [1, 2]})
    assert trie.dump() == before
    assert trie.n_nodes == n_nodes


def test_edge_probability_mismatch_through_a_leaf_changes_nothing(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    before, n_nodes = trie.dump(), trie.n_nodes
    root, after_0, _ = step_dists(arith_lm, [0, 2, 2])
    # the path passes through the leaf (0, 2, 2), met with the root's conditional
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0, 2\)"):
        trie.update((0, 2, 2), [root, after_0, root, root], {3: [1]})
    assert trie.dump() == before
    assert trie.n_nodes == n_nodes


def test_edge_probability_mismatch_below_a_group_changes_nothing(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    before, n_nodes = trie.dump(), trie.n_nodes
    root, after_0, _ = step_dists(arith_lm, [0, 2, 2])
    # the root's group is sound, but the path is checked before it is applied
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0, 2\)"):
        trie.update((0, 2), [root, after_0, root], {0: [3], 2: [1]})
    assert trie.dump() == before
    assert trie.n_nodes == n_nodes


def test_update_needs_a_conditional_per_depth(arith_lm):
    trie = InvalidPrefixTrie()
    with pytest.raises(ValueError, match="step distributions"):
        trie.update((0, 2), step_dists(arith_lm, [0, 2]), {2: [1]})
    with pytest.raises(ValueError, match="step distributions"):
        trie.update((0,), step_dists(arith_lm, [0, 2, 1]), {2: [1]})
    assert trie.n_nodes == 1 and trie.p_eps == 1.0


def test_repeated_tokens_count_one_leaf_each(arith_lm):
    trie = InvalidPrefixTrie()
    removed = trie.update((), step_dists(arith_lm, [0]), {0: [2, 3, 2, 2]})
    assert removed == pytest.approx(0.3, abs=1e-12)
    assert trie.leaves() == [(2,), (3,)]
    assert trie.n_nodes == 3 == len(trie.dump().splitlines())


def test_reweight_checks_name_the_prefix(arith_lm):
    trie, _ = build(arith_lm, ARS_INSERT)
    root, _, after_02 = step_dists(arith_lm, [0, 2, 2])
    # the leaf (0, 2, 2) met with the root's conditional
    with pytest.raises(TrieCorruptionError, match=r"token 2 after prefix \(0, 2\) "):
        trie.reweight_factors((0, 2), root)
    node = trie.root.children[0].children[2]
    node.p /= 2  # corrupt the bookkeeping
    with pytest.raises(TrieCorruptionError, match=r"after prefix \(0, 2\) sums to"):
        trie.draw(node, after_02, 0.5)


class _RefNode:
    """A node of the reference trie: tracked children, invalid entries
    t -> P(t|u), the cached edge into the node and its p."""

    def __init__(self, edge):
        self.children, self.invalid, self.edge, self.p = {}, {}, edge, 1.0

    def size(self):
        """Tracked nodes and invalid prefixes at and below this node."""
        return 1 + len(self.invalid) + sum(c.size() for c in self.children.values())


class _OneByOne:
    """Reference trie that inserts one prefix per call and keeps each p as
    1 minus the removed mass, subtracted up the path and scaled by the
    cached edges: independent of ``InvalidPrefixTrie``'s share vectors,
    which must match it up to rounding."""

    def __init__(self):
        self.root = _RefNode(1.0)
        self.n_nodes = 1

    def insert(self, ids, dists):
        path = [self.root]
        node = self.root
        for i, (token, dist) in enumerate(zip(ids, dists), start=1):
            edge = float(dist.probs[token])
            if token in node.invalid:  # ids is covered
                assert abs(node.invalid[token] - edge) <= _EDGE_TOL
                return 0.0
            child = node.children.get(token)
            if child is not None:
                assert abs(child.edge - edge) <= _EDGE_TOL
            if i == len(ids):
                break
            if child is None:
                child = node.children[token] = _RefNode(edge)
                self.n_nodes += 1
            node = child
            path.append(node)
        if child is None:
            self.n_nodes += 1
            delta = edge
        else:  # ids dominates the subtree below it
            del node.children[token]
            self.n_nodes -= child.size() - 1
            edge = child.edge
            delta = child.p * edge
        node.invalid[token] = edge
        node.p = _clamped(node.p - delta)
        for parent, child in zip(reversed(path[:-1]), reversed(path[1:])):
            delta *= child.edge
            parent.p = _clamped(parent.p - delta)
        return delta

    def tracked(self, ids):
        """The node at ``ids``, and whether an invalid prefix covers ``ids``."""
        node = self.root
        for token in ids:
            if token in node.invalid:
                return None, True
            node = node.children.get(token)
            if node is None:
                return None, False
        return node, False

    def lines(self, node=None, ids=()):
        """``dump()``'s (prefix, p, leaf) columns, depth-first in token order."""
        node = node or self.root
        yield ",".join(map(str, ids)), node.p, "0"
        for token in sorted([*node.children, *node.invalid]):
            child = node.children.get(token)
            if child is None:
                yield ",".join(map(str, ids + (token,))), 0.0, "1"
            else:
                yield from self.lines(child, ids + (token,))


def _invalid_tokens(seed, prefix, size):
    """A fixed invalid set per prefix, as a checker gives one: True at
    each invalid one-token continuation of ``prefix``."""
    return np.random.default_rng([seed, len(prefix), *prefix]).random(size) < 0.3


def _assert_same_as(trie, reference):
    """``trie`` holds the prefixes and leaves of the ``_OneByOne``
    ``reference``, in ``dump()`` order, with every p within rounding, the
    same node count, and is consistent."""
    got_lines = [line.split("\t") for line in trie.dump().splitlines()]
    want_lines = list(reference.lines())
    assert [(ids, leaf) for ids, _, leaf in got_lines] == [
        (ids, leaf) for ids, _, leaf in want_lines
    ]
    for (ids, got_p, _), (_, want_p, _) in zip(got_lines, want_lines):
        assert abs(float(got_p) - float(want_p)) <= _DRIFT, ids
    assert trie.n_nodes == reference.n_nodes
    assert trie.n_nodes == len(trie.dump().splitlines())
    trie.check_local_consistency()


def _node_at(trie, ids):
    node = trie.root
    for token in ids:
        node = node.children.get(token)
        if node is None:
            return None
    return node


@pytest.mark.parametrize("size, horizon", [(5, 5), (40, 4)])
def test_sibling_batch_matches_one_by_one_inserts(size, horizon):
    """Random updates, each with groups at several depths of one path,
    applied to one trie and inserted prefix by prefix, by depth and then
    token, into another: the same prefixes and leaves, the same node count,
    and every p within rounding.  A group is a token list, repeats
    allowed, or a viability mask from a fixed invalid set per prefix."""
    seen = set()
    for seed in range(6):
        lm = _random_lm(seed, size=size, horizon=horizon)
        rng = np.random.default_rng(seed)
        batched, reference = InvalidPrefixTrie(), _OneByOne()
        for _ in range(40):
            length = int(rng.integers(0, horizon - 1))
            path = tuple(int(t) for t in rng.integers(0, size - 1, size=length))
            dists = step_dists(lm, path + (0,))
            depths = rng.choice(length + 1, size=int(rng.integers(1, length + 2)), replace=False)
            groups = {}
            want = 0.0
            for depth in sorted(int(d) for d in depths):
                invalid = _invalid_tokens(seed, path[:depth], size)
                node = _node_at(batched, path[:depth])
                if rng.random() < 0.5:
                    groups[depth] = ~invalid
                    tokens = np.flatnonzero(invalid).tolist()
                    if node is not None and node.mask is not None:
                        seen.add("swept")
                else:
                    k = int(rng.integers(0, size + 1))
                    groups[depth] = [int(t) for t in rng.integers(0, size, size=k)]
                    tokens = sorted(set(groups[depth]))

                ref_node, covered = reference.tracked(path[:depth])
                if not tokens:
                    seen.add("empty")
                elif covered:
                    seen.add("path through a leaf")
                elif ref_node is not None:
                    for t in tokens:
                        if t in ref_node.invalid:
                            seen.add("already a leaf")
                        elif t in ref_node.children:
                            seen.add("deeper subtree")
                if lm.vocab.eos in tokens:
                    seen.add("eos")
                for t in tokens:
                    want += reference.insert(path[:depth] + (t,), dists)

            got = batched.update(path, dists, groups)
            assert abs(got - want) <= _DRIFT
            _assert_same_as(batched, reference)
    want_seen = {"empty", "already a leaf", "deeper subtree", "eos", "path through a leaf", "swept"}
    assert want_seen <= seen


def test_swept_marks_tracked_prefixes_only(arith_lm):
    """A mask sweeps only a node it makes.  At a node already tracked it
    records exactly its False tokens, as one insert per token would, and
    the node keeps its (conditional, None) entry; at a swept node it
    changes nothing.  The trie matches a prefix-by-prefix reference
    throughout."""
    dists = step_dists(arith_lm, [0, 2, 1, 0])
    trie, _ = build(arith_lm, [(0, 2, 2)])
    reference = _OneByOne()
    reference.insert((0, 2, 2), dists)
    entries = [node.masked for _, node in trie.nodes()]
    assert len(entries) == 3 and all(entry.mask is None for entry in entries)
    # masks with no invalid token along (0, 2, 1): nothing is recorded, no
    # tracked node changes its entry and no node is made for (0, 2, 1)
    viable = np.ones(arith_lm.vocab.size, dtype=bool)
    assert trie.update((0, 2, 1), dists, {d: viable for d in range(4)}) == 0.0
    assert [node.masked for _, node in trie.nodes()] == entries
    _assert_same_as(trie, reference)
    # a mask at the tracked node (0,) records its tokens 1 and 3, no more
    mask = viable.copy()
    mask[[1, 3]] = False
    want = reference.insert((0, 1), dists) + reference.insert((0, 3), dists)
    assert abs(trie.update((0,), dists, {1: mask}) - want) <= _DRIFT
    node = trie.root.children[0]
    assert node.mask is None and node.masked is entries[1] and node.invalid == {1, 3}
    _assert_same_as(trie, reference)
    # a mask at (1,), untracked, makes the node swept; a mask there again,
    # or a token it rules out, changes nothing, and a token group is recorded
    want = reference.insert((1, 1), dists) + reference.insert((1, 3), dists)
    assert abs(trie.update((1,), dists, {1: mask}) - want) <= _DRIFT
    swept = trie.root.children[1]
    assert swept.mask is mask and swept.masked is trie.masked(dists[1], mask)
    before = trie.dump()
    assert trie.update((1,), dists, {1: mask.copy()}) == 0.0
    assert trie.update((1,), dists, {1: [3]}) == 0.0
    assert trie.dump() == before and swept.masked is trie.masked(dists[1], mask)
    want = reference.insert((1, 2), dists)
    assert abs(trie.update((1,), dists, {1: [2]}) - want) <= _DRIFT
    _assert_same_as(trie, reference)


def _inverse_cdf(probs, cum, u):
    """The referee draw: the first positive-mass index whose running sum
    reaches u, else the last positive-mass index."""
    positive = np.flatnonzero(probs > 0.0)
    reached = positive[cum[positive] >= u]
    return int(reached[0] if len(reached) else positive[-1])


def _assert_draws_match(trie, node, dist, prefix, grid):
    """``draw`` at ``node`` against an inverse CDF over ``reweight_factors``
    at every u of ``grid`` more than 1e-12 from a boundary, and at the two
    ends: u = 0 draws the first positive-mass token, u = 1 - 2**-53 the
    last."""
    probs = trie.reweight_factors(prefix, dist)
    cum = np.cumsum(probs)
    grid = np.asarray(grid)
    clear = np.abs(grid[:, None] - cum[None, :]).min(axis=1) > 1e-12
    assert clear.any()
    for u in grid[clear].tolist():
        assert trie.draw(node, dist, u) == _inverse_cdf(probs, cum, u), (prefix, u)
    positive = np.flatnonzero(probs > 0.0)
    assert trie.draw(node, dist, 0.0) == positive[0]
    assert trie.draw(node, dist, 1.0 - 2.0**-53) == positive[-1]


def _token_grid(probs):
    """Three u values inside each positive-mass token's step of the CDF,
    the two near its edges 1e-9 in from them."""
    cum = np.cumsum(probs)
    lo = cum - probs
    inside = probs > 3e-9
    return np.concatenate(
        [lo[inside] + 1e-9, (lo[inside] + cum[inside]) / 2, cum[inside] - 1e-9]
    )


def test_draw_matches_reweight_factors(arith_lm):
    trie = InvalidPrefixTrie()
    for ids in CARS_INSERTS:
        trie.insert_invalid(arith_lm.vocab.seq(ids), step_dists(arith_lm, ids))
        for prefix, node in trie.nodes():
            dist = arith_lm.next_distribution(Sequence(prefix, False))
            grid = _token_grid(trie.reweight_factors(prefix, dist))
            _assert_draws_match(trie, node, dist, prefix, np.append(grid, np.linspace(0, 1, 201)))
            # a draw never lands on a leaf or a zero-mass token
            for u in np.linspace(0, 1, 101).tolist():
                token = trie.draw(node, dist, u)
                assert trie.p_value(prefix + (token,)) > 0.0 and dist[token] > 0.0


def _effective_tree(node):
    """The bytes of a node's sum tree: its base with its overlay applied."""
    tree = node.masked.tree[:]
    for k, s in node.overlay.items():
        tree[k] = s
    return tree.tobytes()


def test_draw_is_read_only(arith_lm):
    trie, _ = build(arith_lm, CARS_INSERTS)
    before = trie.dump()
    trees = {prefix: (_effective_tree(node), node.p) for prefix, node in trie.nodes()}
    for prefix, node in trie.nodes():
        dist = arith_lm.next_distribution(Sequence(prefix, False))
        for u in np.linspace(0, 1, 101).tolist():
            trie.draw(node, dist, u)
    assert trie.dump() == before
    assert {prefix: (_effective_tree(node), node.p) for prefix, node in trie.nodes()} == trees
    trie.check_local_consistency()


@pytest.mark.parametrize("size", [2, 3, 5, 6, 7, 8, 9, 40])
def test_draw_at_any_vocabulary_size(size):
    """Sum trees over V tokens padded with zero terms to a power of two,
    every sum stored: after random token groups and sweeps, every tracked
    node's tree is the one its shares give and ``draw`` matches the
    inverse CDF; with the stored p a little above the tree's total, the
    largest u falls short and draws the last positive-mass token."""
    rng = np.random.default_rng(size)
    probs = rng.dirichlet(np.ones(size))
    probs[rng.random(size) < 0.2] = 0.0
    probs[0] = max(probs[0], 0.1)
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(size - 1)] + ["$"], eos=size - 1)
    lm = TableLM(vocab, {}, probs, 4)
    trie = InvalidPrefixTrie()
    for _ in range(12):
        path = (0,) * int(rng.integers(0, 3))
        if rng.random() < 0.5:
            group = rng.random(size) < 0.8
            group[0] = True
        else:
            group = [int(t) for t in rng.integers(1, size, size=2)]
        trie.update(path, step_dists(lm, path + (0,)), {int(rng.integers(0, len(path) + 1)): group})
        trie.check_local_consistency()
        for prefix, node in trie.nodes():
            if node.dist is None:  # nothing recorded yet
                continue
            weights = trie.reweight_factors(prefix, node.dist)
            grid = np.append(_token_grid(weights), np.linspace(0, 1, 51))
            _assert_draws_match(trie, node, node.dist, prefix, grid)
            p = node.p
            node.p = p * (1 + 1e-9)
            last = np.flatnonzero(weights)[-1]
            assert trie.draw(node, node.dist, 1.0 - 2.0**-53) == last
            node.p = p


class _NoListTables(NextTokenDistribution):
    """A conditional whose list of running sums must not be read."""

    __slots__ = ()

    @property
    def cdf(self):
        raise AssertionError("the trie read a conditional's list of running sums")


@pytest.mark.parametrize("size", [8, 1024])
def test_token_groups_need_no_list_tables(size):
    """Under ars-style token groups the trie reads a conditional only as
    an array: with conditionals whose running-sum lists raise, every update
    succeeds, and every descent draw matches ``reweight_factors``."""
    rng = np.random.default_rng(size)
    dists = {}

    def dist_at(ids):
        if ids not in dists:
            dists[ids] = _NoListTables(rng.dirichlet(np.ones(size)))
        return dists[ids]

    trie = InvalidPrefixTrie()
    grid = np.linspace(0, 1, 41)
    for _ in range(12):
        # tokens 0 and 1 are never invalid, so every node keeps mass and
        # nodes under token 1 are never pruned
        path = tuple(int(t) for t in rng.integers(1, 4, size=int(rng.integers(0, 4))))
        group = [int(t) for t in rng.integers(2, size, size=int(rng.integers(1, 4)))]
        steps = [dist_at(path[:d]) for d in range(len(path) + 1)]
        trie.update(path, steps, {int(rng.integers(0, len(path) + 1)): group})
        for prefix, node in trie.nodes():
            _assert_draws_match(trie, node, node.dist, prefix, grid)
    assert len(list(trie.nodes())) > 2  # draws ran below the root too
    trie.check_local_consistency()


def test_draw_short_inside_a_subtree_stays_on_positive_mass():
    """Tokens 1..3 are leaves, so the root's left subtree (tokens 0..3)
    holds token 0's term alone.  With that subtree's sum raised by an ulp,
    a target just above the term enters the subtree and falls short in
    it; the descent must not step right into the massless leaf pair or
    onto leaf 1, so every u draws a positive-mass, non-leaf token."""
    # light leaves keep p near 1, so u and u·p share a binade and the u
    # next to edge reach every target float near the subtree's sum
    probs = [1.0, 0.01, 0.01, 0.01, 2.0, 2.0, 2.0, 2.0]
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(7)] + ["$"], eos=7)
    lm = TableLM(vocab, {}, probs, 3)
    dist = lm.next_distribution(vocab.empty())
    trie = InvalidPrefixTrie()
    trie.update((), [dist], {0: [1, 2, 3]})
    node = trie.root
    over = node.overlay  # tokens 1..3's paths: sums 4, 5, 2 and 1
    left = over[2]
    assert left == dist[0] and over[5] == 0.0
    over[2] = math.nextafter(left, 1.0)
    edge = left / node.p  # the u whose target is the term
    near = [edge]
    for _ in range(4):
        near = [math.nextafter(near[0], 0.0)] + near + [math.nextafter(near[-1], 1.0)]
    grid = np.linspace(0, 1, 1001).tolist() + near
    assert any(left < u * node.p <= over[2] for u in grid)  # some u falls short
    for u in grid:
        token = trie.draw(node, dist, u)
        assert trie.p_value((token,)) > 0.0 and dist[token] > 0.0, (u, token)


@pytest.mark.parametrize("method", ["ars", "rsft", "cars"])
def test_v1024_draws_match_the_dense_referee(method):
    """On the dfa-v1024 instance (V = 1024), every 10th generation of a
    seed-1 episode: every node's sum tree is bit for bit the one its shares
    give, ``n_nodes`` counts the snapshot's lines, and at every tracked
    node ``draw`` matches an inverse CDF over ``reweight_factors``."""
    lm, checker = bench_workload("dfa-v1024").build()
    grid = np.concatenate([np.linspace(0, 1, 41)[1:-1], np.random.default_rng(7).random(24)])
    checked = []

    def hook(generation, trie):
        if generation % 10:
            return
        trie.check_local_consistency()
        assert trie.n_nodes == len(trie.dump().splitlines())
        for prefix, node in trie.nodes():
            _assert_draws_match(trie, node, node.dist, prefix, grid)
        checked.append(trie.n_nodes)

    cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=2000)
    stream, _ = run(lm, checker, cfg, 20, trie_hook=hook)
    assert len(list(stream)) == 20
    assert checked and checked[-1] > 1


def test_v1024_tiny_mass_stays_exact():
    """A V = 1024 node whose leaves leave about 1e-12 of its conditional's
    mass: p is the exact sum of the remaining terms to 1e-14, relative, and
    no draw lands on a leaf or a zero-mass token.  A p kept as the whole
    mass minus the leaves' would lose this to cancellation."""
    size = 1024
    rng = np.random.default_rng(12)
    probs = rng.dirichlet(np.full(size, 0.5))
    probs[[5, 700, 1023]] = [3e-13, 4e-13, 2e-13]
    probs[[17, 18]] = 0.0  # zero-probability tokens: 17 valid, 18 a leaf
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(size - 1)] + ["$"], eos=size - 1)
    lm = TableLM(vocab, {}, probs, 3)
    dist = lm.next_distribution(vocab.empty())
    alive = [5, 17, 700, 1023]
    mask = np.zeros(size, dtype=bool)
    mask[alive] = True
    trie = InvalidPrefixTrie()
    trie.update((), [dist], {0: [int(t) for t in rng.permutation(np.flatnonzero(~mask))[:600]]})
    trie.update((), [dist], {0: mask})  # the rest, as a sweep
    want = math.fsum(float(dist.probs[t]) for t in alive)
    assert 5e-13 < want < 2e-12
    assert abs(trie.p_eps - want) <= 1e-14 * want
    assert trie.n_nodes == 1 + size - len(alive)
    assert (18,) in trie.leaves() and (17,) not in trie.leaves()
    trie.check_local_consistency()
    node = trie.root
    for u in np.append(np.linspace(0, 1, 2001), 1 - 2.0**-53).tolist():
        token = trie.draw(node, dist, u)
        assert token in (5, 700, 1023), u
    _assert_draws_match(trie, node, dist, (), np.linspace(0, 1, 2001))


def test_consistency_check_compares_sum_trees_bit_for_bit(arith_lm):
    trie, _ = build(arith_lm, CARS_INSERTS)
    trie.check_local_consistency()
    node = trie.root.children[0]
    node.overlay[1] = math.nextafter(node.overlay[1], 1.0)  # one ulp; p untouched
    with pytest.raises(TrieCorruptionError, match=r"node \(0,\): sum tree differs"):
        trie.check_local_consistency()


def test_consistency_check_needs_overlay_keys_closed_upward():
    """Token 1 has no mass, so making it a leaf rewrites its leaf, 9, and
    recomputes sums 4, 2 and 1, all to their base bits.  With sum 2
    dropped from the overlay the effective tree is still bit for bit the
    one the shares give, but sum 4 is orphaned, and a descent that leaves
    the overlay at 2 would never read it: the check must name the node."""
    probs = [0.2, 0.0, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1]
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(7)] + ["$"], eos=7)
    lm = TableLM(vocab, {}, probs, 3)
    dist = lm.next_distribution(vocab.empty())
    trie = InvalidPrefixTrie()
    trie.update((), [dist], {0: [1]})
    trie.update((0,), [dist, dist], {1: [1]})
    node = trie.root.children[0]
    assert sorted(node.overlay) == [1, 2, 4, 9]
    trie.check_local_consistency()
    assert node.overlay.pop(2) == node.masked.tree[2]
    with pytest.raises(TrieCorruptionError, match=r"node \(0,\): overlay sum 4 .*lacks its parent"):
        trie.check_local_consistency()


def test_consistency_check_needs_the_cache_entry(arith_lm):
    """A node's base must be the trie's own cache entry for its
    (conditional, mask) pair: another pair's entry fails the check, and so
    does an entry of the same pair that the cache does not hold, though
    its tree has the right bits.  The check names the node and adds no
    entry to the cache."""
    trie, _ = build(arith_lm, CARS_INSERTS)
    trie.check_local_consistency()
    node = trie.root.children[0]
    for entry in (trie.root.masked, Masked(node.dist, node.mask)):
        node.masked = entry
        entries = len(trie._cache)
        with pytest.raises(TrieCorruptionError, match=r"node \(0,\): base is not the cache entry"):
            trie.check_local_consistency()
        assert len(trie._cache) == entries


def test_consistency_check_needs_each_prefix_to_be_its_path(arith_lm):
    """A tracked node holds its path as an unterminated ``Sequence``: a
    shorter path, the path terminated or its bare ids fail the check,
    which names the node."""
    trie, _ = build(arith_lm, CARS_INSERTS)
    node = trie.root.children[0].children[2]
    assert node.prefix == Sequence((0, 2), False)
    trie.check_local_consistency()
    prefix = node.prefix
    for wrong in (Sequence((0,), False), Sequence((0, 2), True), (0, 2)):
        node.prefix = wrong
        with pytest.raises(TrieCorruptionError, match=r"node \(0, 2\): prefix .* is not its path"):
            trie.check_local_consistency()
    node.prefix = prefix
    trie.check_local_consistency()


@pytest.mark.parametrize("method", ["ars", "cars"])
def test_v1024_nodes_share_base_trees(method):
    """After a seed-1 episode of 20 accepts on dfa-v1024, every tracked
    node's base is the tree of the trie's cache entry for its
    (conditional, mask) pair, shared by every node of that pair, and it
    overlays only the paths of the shares changed since: at most
    log2 W + 1 entries, a leaf and its sums, per child and explicit leaf,
    and under 5% of W floats per node over the whole trie."""
    lm, checker = bench_workload("dfa-v1024").build()
    tries = []
    cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=500 * 20)
    stream, _ = run(lm, checker, cfg, 20, trie_hook=lambda generation, trie: tries.append(trie))
    assert len(list(stream)) == 20
    trie = tries[-1]
    trie.check_local_consistency()
    nodes = [node for _, node in trie.nodes()]
    width = len(nodes[0].masked.tree) // 2
    assert width == 1024
    bases = {}
    for node in nodes:
        key = (id(node.dist), id(node.mask))
        assert node.masked is trie._cache[key]
        tree = node.masked.tree
        assert bases.setdefault(key, tree) is tree
        bound = (len(node.children) + len(node.invalid)) * width.bit_length()
        assert len(node.overlay) <= bound
    assert len(bases) < len(nodes)
    assert sum(len(node.overlay) for node in nodes) <= 0.05 * len(nodes) * width


def _episode_trie(workload, method, accepts=20):
    """The trie of a seed-1 ``method`` episode of ``accepts`` accepts on
    the benchmark workload ``workload``."""
    lm, checker = bench_workload(workload).build()
    tries = []
    cfg = SamplerConfig(method=method, seed=1, max_len=lm.max_len, sample_cap=500 * accepts)
    stream, _ = run(lm, checker, cfg, accepts, trie_hook=lambda generation, trie: tries.append(trie))
    assert len(list(stream)) == accepts
    return tries[-1]


@pytest.mark.parametrize("method", ["ars", "rsft", "cars"])
def test_v1024_sweeps_read_each_count_once(method, monkeypatch):
    """After a seed-1 episode on dfa-v1024, every cache entry of a mask had
    its ruled-out count computed exactly once, by the ``update`` that made
    the entry, and every other entry never; a sweeping method's nodes are
    born at their mask's entry, so the cache holds no (conditional, None)
    entry."""
    from functools import cached_property

    import exsample.trie as trie_mod

    counted = []
    plain = trie_mod.Masked.ruled_out.func

    def count(entry):
        counted.append(entry)
        return plain(entry)

    ruled_out = cached_property(count)
    ruled_out.__set_name__(trie_mod.Masked, "ruled_out")
    monkeypatch.setattr(trie_mod.Masked, "ruled_out", ruled_out)
    trie = _episode_trie("dfa-v1024", method)
    masked = [entry for entry in trie._cache.values() if entry.mask is not None]
    assert sorted(map(id, counted)) == sorted(map(id, masked))
    if method == "ars":
        assert not masked
    else:
        assert masked and len(masked) == len(trie._cache)


def test_a_node_swept_at_birth_starts_at_its_pairs_entry():
    """A node that a mask's group makes, the root too, is created at the
    (conditional, mask) entry, and so is a node made on the way to a
    deeper group at the depth of a mask; a node made on the way at a depth
    with no group starts at its conditional's unmasked entry.  A mask
    that rules nothing out at a depth with no node makes none."""
    size = 8
    probs = np.linspace(1.0, 2.0, size)
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(size - 1)] + ["$"], eos=size - 1)
    lms = [TableLM(vocab, {}, probs, 4) for _ in range(3)]  # three conditional objects
    dists = [lm.next_distribution(vocab.empty()) for lm in lms]
    mask = np.ones(size, dtype=bool)
    mask[[2, 5]] = False
    trie = InvalidPrefixTrie()
    trie.update((0,), dists[:2], {0: mask, 1: np.ones(size, dtype=bool)})
    root = trie.root
    assert root.mask is mask and root.masked is trie._cache[id(dists[0]), id(mask)]
    assert not root.children and trie.n_nodes == 3 == len(trie.dump().splitlines())
    assert not any(entry.mask is None for entry in trie._cache.values())
    trie.update((0, 1), dists, {2: mask})
    node, deep = root.children[0], root.children[0].children[1]
    assert node.mask is None and node.masked is trie._cache[id(dists[1]), id(None)]
    assert deep.mask is mask and deep.masked is trie._cache[id(dists[2]), id(mask)]
    assert trie.n_nodes == 7 == len(trie.dump().splitlines())
    # (3,) is made on the way to (3, 1) at a depth whose mask rules nothing
    # out: it starts at that mask's entry, and with a child it descends
    viable = np.ones(size, dtype=bool)
    trie.update((3, 1), dists, {1: viable, 2: mask})
    node = root.children[3]
    assert node.mask is viable and node.masked is trie._cache[id(dists[1]), id(viable)]
    assert node.overlay and node.masked.tree.tobytes() == _tree(dists[1].probs).tobytes()
    assert node.children[1].masked is trie._cache[id(dists[2]), id(mask)]
    assert trie.n_nodes == 11 == len(trie.dump().splitlines())
    trie.check_local_consistency()


def test_unmasked_entry_has_the_conditionals_running_sums(arith_lm):
    """The entry of (conditional, None) rules nothing out: its running sums
    are the conditional's own, its tree is the conditional's, and its
    count is 0."""
    dist = arith_lm.next_distribution(arith_lm.vocab.empty())
    entry = InvalidPrefixTrie().masked(dist, None)
    assert entry.cdf is dist.cdf
    assert entry.tree.tobytes() == _tree(dist.probs).tobytes()
    assert entry.ruled_out == 0


@pytest.mark.parametrize("workload", ["arith", "dfa-v1024"])
def test_swept_root_draws_flat_as_the_referee(workload, monkeypatch):
    """After a seed-1 rsft episode the root is swept, with no children or
    other leaves and an empty overlay, so ``draw`` bisects the masked
    conditional's running sums: for 20 000 uniforms it gives the token that
    ``draw_index`` gives over the running sums of ``reweight_factors``."""
    import exsample.trie as trie_mod

    trie = _episode_trie(workload, "rsft")
    root = trie.root
    assert root.mask is not None and not root.children and not root.invalid and not root.overlay
    assert root.masked is trie.masked(root.dist, root.mask)
    probs = trie.reweight_factors((), root.dist)
    cdf = np.cumsum(probs).tolist()
    flat = []
    monkeypatch.setattr(trie_mod, "draw_index", lambda *args: flat.append(1) or draw_index(*args))
    for u in np.random.default_rng(21).random(20000).tolist() + [0.0, 1.0 - 2.0**-53]:
        assert trie.draw(root, root.dist, u) == draw_index(cdf, u), u
    assert len(flat) == 20002  # every draw took the bisect
    trie.check_local_consistency()


def _plain_swept(size=8):
    """A trie whose node (0,) is swept by a mask and has nothing else, and
    the node's conditional."""
    probs = np.linspace(1.0, 2.0, size)
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(size - 1)] + ["$"], eos=size - 1)
    lm = TableLM(vocab, {}, probs, 4)
    dist = lm.next_distribution(vocab.empty())
    mask = np.ones(size, dtype=bool)
    mask[[2, 5]] = False
    trie = InvalidPrefixTrie()
    trie.update((0,), [dist, dist], {1: mask})
    node = trie.root.children[0]
    assert node.mask is not None and not node.children and not node.overlay
    assert node.masked is trie.masked(dist, mask)
    return dist, trie


def test_swept_node_that_gains_a_child_draws_by_descent(monkeypatch):
    """A plain swept node bisects its masked running sums until it gains a child;
    from then on its overlay is not empty and it descends its tree, still
    matching the referee, and the trie stays consistent."""
    import exsample.trie as trie_mod

    dist, trie = _plain_swept()
    node = trie.root.children[0]
    grid = np.linspace(0, 1, 201)
    flat = []
    monkeypatch.setattr(trie_mod, "draw_index", lambda *args: flat.append(1) or draw_index(*args))
    _assert_draws_match(trie, node, dist, (0,), grid)
    assert flat
    trie.update((0, 1), [dist, dist, dist], {2: [3]})
    assert 1 in node.children and node.overlay
    trie.check_local_consistency()

    def refuse(*args):
        raise AssertionError("a node with a child drew from its masked running sums")

    monkeypatch.setattr(trie_mod, "draw_index", refuse)
    _assert_draws_match(trie, node, dist, (0,), grid)


def test_sweep_rewrites_only_the_survivors_paths():
    """A mask given at a tracked node that has a tracked child (1), a child
    the mask rules out (4), an explicit leaf it rules out too (5) and one
    it does not (6) records exactly its False tokens: 0 becomes a leaf,
    4's subtree is pruned to one, and 1, 5 and 6 stay as they were.
    The node keeps its (conditional, None) entry, its overlay gains only
    the path of 0 and changes only the entries on the paths of 0 and 4;
    its p is the root sum of the tree its shares give, bit for bit, the
    trie matches a prefix-by-prefix reference, and its draws match the
    referee."""
    size = 8
    probs = np.linspace(1.0, 2.0, size)
    vocab = Vocabulary.from_tokens([f"t{i}" for i in range(size - 1)] + ["$"], eos=size - 1)
    dist = TableLM(vocab, {}, probs, 4).next_distribution(vocab.empty())
    trie, reference = InvalidPrefixTrie(), _OneByOne()
    for path, group in [((1,), {1: [2]}), ((4,), {1: [3]}), ((), {0: [5, 6]})]:
        trie.update(path, [dist] * (len(path) + 1), group)
        for depth, tokens in group.items():
            for token in tokens:
                reference.insert(path[:depth] + (token,), [dist] * (depth + 1))
    node = trie.root
    entry, before = node.masked, dict(node.overlay)
    mask = np.ones(size, dtype=bool)
    mask[[0, 4, 5]] = False
    want = sum(reference.insert((token,), [dist]) for token in (0, 4, 5))
    assert abs(trie.update((), [dist], {0: mask}) - want) <= _DRIFT
    assert node.masked is entry and entry.mask is None and node.mask is None
    assert list(node.children) == [1] and node.invalid == {0, 4, 5, 6}

    def path(token):  # the heap indices of a leaf and the sums above it
        i = len(node.masked.tree) // 2 + token
        return {i >> h for h in range(i.bit_length())}

    assert set(node.overlay) == set(before) | path(0)
    rewritten = {k for k, s in node.overlay.items() if before.get(k) != s}
    assert path(0) - path(4) <= rewritten <= path(0) | path(4)
    assert node.p == _tree(dist.probs * node.shares())[1]
    _assert_same_as(trie, reference)
    grid = np.append(_token_grid(trie.reweight_factors((), dist)), np.linspace(0, 1, 201))
    _assert_draws_match(trie, node, dist, (), grid)


def test_flat_draw_keeps_the_invariant_checks():
    """On the bisect path ``draw`` still refuses a p that left its tree's
    total by more than ``_SUM_TOL`` and a conditional that differs from
    the node's by more than ``_EDGE_TOL``, naming the prefix."""
    dist, trie = _plain_swept()
    node = trie.root.children[0]
    p = node.p
    node.p = p * (1 + 1e-7)
    with pytest.raises(TrieCorruptionError, match=r"after prefix \(0,\) sums to"):
        trie.draw(node, dist, 0.5)
    node.p = p
    probs = dist.probs.copy()
    probs[[0, 1]] += [1e-9, -1e-9]
    with pytest.raises(TrieCorruptionError, match=r"token [01] after prefix \(0,\) changed"):
        trie.draw(node, NextTokenDistribution(probs), 0.5)
    trie.draw(node, dist, 0.5)  # untouched


def _built(trie, part):
    """The cache entries of ``trie`` whose ``part`` (tree or cdf) was built."""
    return [entry for entry in trie._cache.values() if part in vars(entry)]


@pytest.mark.parametrize("workload", ["arith", "dfa-v1024"])
def test_cache_builds_only_what_is_read(workload):
    """Each view of a cache entry is built on first use: gcd reads running
    sums and no sum tree, rsft builds one list of running sums, the
    root's."""
    trie = _episode_trie(workload, "gcd")
    assert _built(trie, "cdf") and not _built(trie, "tree")
    trie = _episode_trie(workload, "rsft")
    root = trie.root
    assert _built(trie, "cdf") == [root.masked]
    assert root.masked.dist is root.dist and root.masked.mask is root.mask


def test_cars_builds_tables_only_for_flat_draws(monkeypatch):
    """A 20-accept cars episode on dfa-v1024 builds the masked running
    sums of exactly the (conditional, mask) pairs that a plain swept node
    drew from, for no more pairs than swept pairs with a tree."""
    import exsample.sampler as sampler_mod

    drawn = {}
    plain_trie = sampler_mod.InvalidPrefixTrie

    def watched():
        trie = plain_trie()
        draw = trie.draw

        def recorded(node, dist, u):
            if not node.overlay and node.masked.mask is not None:
                drawn[id(node.masked)] = node.masked
            return draw(node, dist, u)

        trie.draw = recorded
        return trie

    monkeypatch.setattr(sampler_mod, "InvalidPrefixTrie", watched)
    trie = _episode_trie("dfa-v1024", "cars")
    built = _built(trie, "cdf")
    assert built and {id(entry) for entry in built} == set(drawn)
    assert all(entry.mask is not None for entry in built)
    assert len(built) <= len(_built(trie, "tree"))


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
        assert trie.p_eps <= last_root
        last_root = trie.p_eps
        trie.check_local_consistency()
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


def test_snapshot_format(arith_lm):
    trie, _ = build(arith_lm, CARS_INSERTS)
    lines = trie.dump().splitlines()
    assert lines[0].startswith("\t")  # root has the empty prefix
    assert all(len(line.split("\t")) == 3 for line in lines)
    assert len(lines) == trie.n_nodes


def test_dump_text_of_the_sweep(arith_lm):
    trie, _ = build(arith_lm, CARS_INSERTS)
    assert trie.dump() == (
        "\t0.3613750000000001\t0\n"
        "0\t0.24750000000000003\t0\n"
        "0,0\t0.0\t1\n"
        "0,1\t0.0\t1\n"
        "0,2\t0.55\t0\n"
        "0,2,2\t0.0\t1\n"
        "0,2,3\t0.0\t1\n"
        "2\t0.0\t1\n"
        "3\t0.0\t1\n"
    )
    assert trie.leaves() == [(0, 0), (0, 1), (0, 2, 2), (0, 2, 3), (2,), (3,)]
    assert [ids for ids, _ in trie.nodes()] == [(), (0,), (0, 2)]


def test_dump_text_after_pruning(arith_lm):
    # (0, 2) dominates (0, 2, 2) and (0, 2, 1, 1): their subtree goes
    trie, _ = build(arith_lm, [(0, 2, 2), (0, 2, 1, 1), (1, 0), (0, 2)])
    assert trie.dump() == (
        "\t0.7350000000000001\t0\n"
        "0\t0.55\t0\n"
        "0,2\t0.0\t1\n"
        "1\t0.75\t0\n"
        "1,0\t0.0\t1\n"
    )
    assert trie.n_nodes == 5
    trie.check_local_consistency()


def test_a_trie_deeper_than_the_recursion_limit_is_walked():
    """Dump, list, check and prune keep their pending nodes on an explicit
    stack: a path of 2000 tracked nodes, twice Python's default recursion
    limit, is walked in the same depth-first token order."""
    depth = 2000
    dist = NextTokenDistribution(np.array([0.5, 0.3, 0.2]))
    path = (0,) * depth
    trie = InvalidPrefixTrie()
    trie.update(path, [dist] * (depth + 1), {depth: [1], depth - 1: [2]})
    assert trie.n_nodes == depth + 3  # the tracked path and two leaves
    lines = trie.dump().splitlines()
    assert len(lines) == trie.n_nodes
    assert lines[-3:] == [
        f"{','.join(['0'] * depth)}\t{trie.p_value(path)!r}\t0",
        f"{','.join(['0'] * depth + ['1'])}\t0.0\t1",
        f"{','.join(['0'] * (depth - 1) + ['2'])}\t0.0\t1",
    ]
    assert [ids for ids, _ in trie.nodes()] == [path[:d] for d in range(depth + 1)]
    assert trie.leaves() == [path + (1,), path[:-1] + (2,)]
    trie.check_local_consistency()
    assert trie.p_eps == pytest.approx(1.0 - 0.5**1999 * (0.2 + 0.5 * 0.3), abs=1e-15)

    # the check visits children before parents, so a fault at the deepest
    # tracked node is reported there, not as its ancestors' sum trees
    ids, deepest = list(trie.nodes())[-1]
    assert ids == path
    stored = deepest.p
    deepest.p = stored - 1e-6
    with pytest.raises(TrieCorruptionError, match=re.escape(f"node {path}: stored p")):
        trie.check_local_consistency()
    deepest.p = stored
    # its leaf's path sums sit in its overlay: drop one that has a sum below it
    k = next(k for k in deepest.overlay if 2 * k in deepest.overlay or 2 * k + 1 in deepest.overlay)
    s = deepest.overlay.pop(k)
    with pytest.raises(TrieCorruptionError, match="lacks its parent"):
        trie.check_local_consistency()
    deepest.overlay[k] = s
    trie.check_local_consistency()

    # a prefix one token deep dominates the whole path: its subtree goes
    assert trie.insert_invalid(path[:1], [dist]) == pytest.approx(0.5, abs=1e-15)
    assert trie.n_nodes == 2
    assert trie.dump() == "\t0.5\t0\n0\t0.0\t1\n"
    assert trie.leaves() == [(0,)]
    trie.check_local_consistency()
