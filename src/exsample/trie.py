"""Invalid-prefix trie with exact probability-mass bookkeeping.

Leaves are discovered invalid prefixes; every tracked node u carries the
probability p that continuing from u avoids all discovered invalid
prefixes.  Untracked sequences implicitly have p = 1 (no extension is
known invalid) or p = 0 (below a leaf).  Inserting a prefix sets its leaf
to 0 and propagates the decrease upward, scaled by the cached edge
probabilities, so the root value is always the total mass of sequences
avoiding the invalid set.

Inserts come in sibling batches: one walk down to a node turns any number
of its one-token continuations into leaves, and every node on the path
then subtracts their decreases one at a time, in token order, so p ends
up with the same bits as after inserting the prefixes one by one.

Each node drawn from keeps its reweighted conditional and running sums
as Python lists until an insert changes p at or below it, so a step
through an unchanged node costs one ``bisect``.  A viable node whose
invalid one-token continuations are all leaves can be marked *swept*;
updates then skip it, since re-inserting those continuations is a no-op.

Single writer, no concurrent readers: ``draw_tables`` writes too, since
it fills the per-node cache, so it must be serialized with inserts and
with itself; ``p_value`` and ``reweight_factors`` only read.  Nodes must
not be changed except through the trie's methods, or their cached tables
go stale.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .lm import LanguageModel, NextTokenDistribution
from .vocab import Sequence


class TrieCorruptionError(RuntimeError):
    """Bookkeeping invariant broke: cached edge probabilities disagree,
    a reweighted vector failed its sum check, or a p value left [0, 1]
    by more than rounding noise."""


class MassExhaustedError(RuntimeError):
    """The root value reached 0: every sequence extends an invalid prefix."""


_EDGE_TOL = 1e-12   # cached edge probabilities must match to this
_DRIFT = 1e-12      # p excursions beyond [0,1] by more than this are bugs
_SUM_TOL = 1e-8     # reweighted vectors must sum to 1 within this


# Batches of at least this many decreases are subtracted level by level
# with numpy.  Timed on paths of 2-8 nodes (x86 Xeon, Python 3.11, numpy
# 2.4), the Python loop wins below 28-32 decreases and numpy is 5-8x faster
# at the ~730 of a cars batch on a V=1024 model.
_ACCUMULATE_MIN = 32


def _clamped(p: float) -> float:
    if p < 0.0:
        if p >= -_DRIFT:
            return 0.0
        raise TrieCorruptionError(f"p value {p!r} below 0")
    if p > 1.0:
        if p <= 1.0 + _DRIFT:
            return 1.0
        raise TrieCorruptionError(f"p value {p!r} above 1")
    return p


def _edge_changed(
    prefix: tuple[int, ...], token: int, cached: float, edge: float
) -> TrieCorruptionError:
    return TrieCorruptionError(
        f"edge probability for token {token} after prefix {prefix} "
        f"changed from {cached!r} to {edge!r}"
    )


def _subtract_in_turn(p: float, deltas: np.ndarray) -> float:
    """``p`` minus each of the non-negative ``deltas`` in turn, each
    intermediate value clamped, as inserting the prefixes one by one does.

    ``np.subtract.accumulate`` subtracts left to right in float64, so it
    yields the same bits whenever no clamp fires; the running value only
    falls, so that is the case when the last value is not negative.
    """
    last = float(np.subtract.accumulate(np.concatenate(([p], deltas)))[-1])
    if last >= 0.0:
        return last
    for d in deltas.tolist():
        p = _clamped(p - d)
    return p


# Childless nodes (almost all of them are leaves) share one read-only empty
# mapping instead of holding an empty dict each.
_NO_CHILDREN: Mapping[int, "TrieNode"] = MappingProxyType({})


class TrieNode:
    __slots__ = ("children", "edge_prob", "p", "is_invalid_leaf", "swept", "tables")

    def __init__(
        self, edge_prob: float, p: float = 1.0, is_invalid_leaf: bool = False
    ) -> None:
        self.children: Mapping[int, TrieNode] = _NO_CHILDREN
        self.edge_prob = edge_prob  # P(ua|u) for the edge into this node
        self.p = p
        self.is_invalid_leaf = is_invalid_leaf
        self.swept = False  # every invalid one-token continuation is a leaf
        self.tables = None  # (dist, probs, cum) from the last draw_tables


class InvalidPrefixTrie:
    def __init__(self) -> None:
        self.root = TrieNode(1.0)
        self.n_nodes = 1

    @property
    def p_eps(self) -> float:
        """Mass of all terminated sequences avoiding the invalid set."""
        return self.root.p

    def insert_invalid(
        self,
        u: Sequence | Iterable[int],
        step_dists: Iterable[NextTokenDistribution],
    ) -> float:
        """Record u as invalid; returns the decrease of the root value.

        ``step_dists`` supplies the model conditional at each step along u
        (so the edge probability for token u_i is step_dists[i-1][u_i]).
        The caller is responsible for u actually being invalid; exactness
        of the whole sampler rests on that.  Inserting a prefix already
        covered by a leaf is a no-op returning 0; inserting a proper prefix
        of existing nodes prunes the subtree below it.
        """
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        if not ids:
            raise ValueError("cannot insert the empty prefix as invalid")
        return self.insert_invalid_children(ids[:-1], step_dists, [ids[-1]])

    def insert_invalid_children(
        self,
        base: Iterable[int],
        step_dists: Iterable[NextTokenDistribution],
        tokens: Iterable[int],
    ) -> float:
        """Record ``base + (t,)`` as invalid for every t in ``tokens``;
        returns the total decrease of the root value.

        The batch has the effect, bit for bit, of inserting each prefix on
        its own with ``insert_invalid``, t ascending: the path to ``base``
        is walked once, and every ancestor applies the per-token decreases
        one at a time, in that order.  ``step_dists`` has one conditional
        per token of ``base`` plus the one at ``base``, from which all the
        new edges are read.  No tokens, or a ``base`` covered by a leaf,
        change nothing.  A cached edge probability that disagrees with
        ``step_dists`` raises ``TrieCorruptionError`` before anything
        changes.
        """
        base = tuple(base)
        dists = list(step_dists)
        if len(dists) != len(base) + 1:
            raise ValueError("need one step distribution per token of the prefix")
        tokens = sorted(tokens)
        if not tokens:
            return 0.0
        path = [self.root]
        node = self.root
        for depth, (token, dist) in enumerate(zip(base, dists)):
            if node.is_invalid_leaf:
                return 0.0
            edge = float(dist.probs[token])
            child = node.children.get(token)
            if child is None:
                child = TrieNode(edge)
                if not node.children:
                    node.children = {}
                node.children[token] = child
                self.n_nodes += 1
            elif abs(child.edge_prob - edge) > _EDGE_TOL:
                raise _edge_changed(base[:depth], token, child.edge_prob, edge)
            node = child
            path.append(node)
        if node.is_invalid_leaf:
            return 0.0

        edges = dists[-1].probs[tokens].tolist()
        children = node.children
        # check every existing child, leaves included, before changing any
        if children:
            for token, edge in zip(tokens, edges):
                child = children.get(token)
                if child is not None and abs(child.edge_prob - edge) > _EDGE_TOL:
                    raise _edge_changed(base, token, child.edge_prob, edge)

        # each new leaf's removed mass, scaled by the edge into it
        deltas = []
        if not children:
            children = node.children = {}
        created = 0
        for token, edge in zip(tokens, edges):
            child = children.get(token)
            if child is None:
                children[token] = TrieNode(edge, 0.0, True)
                created += 1
                deltas.append(edge)  # its p was 1
                continue
            if child.is_invalid_leaf:
                continue
            if child.children:
                # a longer prefix was inserted earlier; base+t dominates it
                self.n_nodes -= sum(1 for _ in self._walk(child)) - 1
                child.children = _NO_CHILDREN
            deltas.append(child.p * child.edge_prob)
            child.p = 0.0
            child.is_invalid_leaf = True
            child.tables = None
        self.n_nodes += created
        if not deltas:
            return 0.0

        for ancestor in path:
            ancestor.tables = None
        if len(deltas) < _ACCUMULATE_MIN:
            removed = 0.0
            for d in deltas:
                for ancestor in reversed(path):
                    ancestor.p = _clamped(ancestor.p - d)
                    d *= ancestor.edge_prob  # 1 at the root
                removed += d
            return removed
        # level by level: each ancestor still sees the decreases in token order
        deltas = np.array(deltas)
        for ancestor in reversed(path):
            ancestor.p = _subtract_in_turn(ancestor.p, deltas)
            deltas *= ancestor.edge_prob
        return float(deltas.sum())

    def p_value(self, u: Sequence | Iterable[int]) -> float:
        """p for any sequence: stored when tracked, 0 below a leaf, else 1."""
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        node = self.root
        for token in ids:
            if node.is_invalid_leaf:
                return 0.0
            child = node.children.get(token)
            if child is None:
                return 1.0
            node = child
        return node.p

    def reweight_factors(
        self, u: Sequence | Iterable[int], dist: NextTokenDistribution
    ) -> np.ndarray:
        """The conditional over next tokens renormalized to avoid the
        invalid set: a -> P(ua|u) * p(ua) / p(u).

        The returned vector must sum to 1 within tolerance; that sum is the
        online consistency check of the bookkeeping.
        """
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        node = self.root
        for token in ids:
            if node.is_invalid_leaf:
                raise MassExhaustedError("cannot reweight below an invalid prefix")
            child = node.children.get(token)
            if child is None:
                return dist.probs  # untracked: reduces to the original conditional
            node = child
        return self._reweight_at(node, dist, ids)

    def draw_tables(
        self, node: TrieNode, dist: NextTokenDistribution, ids: tuple[int, ...]
    ) -> tuple[list[float], list[float]]:
        """The reweighted conditional at the tracked node of prefix ``ids``
        and its running sums, as lists for an inverse-CDF draw.

        Built by the same operations as ``reweight_factors``, checks
        included, and cached on the node until an insert changes p at or
        below it or ``dist`` is a different object.  ``ids`` only names
        the prefix when a check fails.
        """
        cached = node.tables
        if cached is not None and cached[0] is dist:
            return cached[1], cached[2]
        probs = self._reweight_at(node, dist, ids)
        node.tables = (dist, probs.tolist(), np.cumsum(probs).tolist())
        return node.tables[1], node.tables[2]

    def swept_depth(self, ids: Iterable[int]) -> int:
        """How many leading prefixes of ``ids``, from the empty one up to
        ``ids`` itself, are swept."""
        node = self.root
        depth = 0
        for token in ids:
            if not node.swept:
                return depth
            depth += 1
            node = node.children.get(token)
            if node is None:
                return depth
        return depth + 1 if node.swept else depth

    def mark_swept(self, ids: Iterable[int]) -> None:
        """Mark every tracked prefix of ``ids``, ``ids`` included, swept:
        the caller has inserted all invalid one-token continuations of
        each.  Untracked prefixes have no node to mark; none is made."""
        node = self.root
        for token in ids:
            node.swept = True
            node = node.children.get(token)
            if node is None:
                return
        node.swept = True

    def _reweight_at(
        self, node: TrieNode, dist: NextTokenDistribution, ids: tuple[int, ...]
    ) -> np.ndarray:
        if node.is_invalid_leaf or node.p <= 0.0:
            raise MassExhaustedError(f"prefix {ids} has no remaining valid mass")
        if not node.children:
            return dist.probs
        out = np.array(dist.probs)
        for token, child in node.children.items():
            if abs(child.edge_prob - dist.probs[token]) > _EDGE_TOL:
                raise _edge_changed(ids, token, child.edge_prob, float(dist.probs[token]))
            out[token] *= child.p
        out /= node.p
        total = float(out.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise TrieCorruptionError(
                f"reweighted conditional after prefix {ids} sums to {total!r}; "
                "bookkeeping corrupt"
            )
        return out

    # -- introspection ------------------------------------------------------

    def _walk(self, node: TrieNode, ids: tuple[int, ...] = ()) -> Iterator:
        yield ids, node
        for token in sorted(node.children):
            yield from self._walk(node.children[token], ids + (token,))

    def nodes(self) -> Iterator:
        """Depth-first (prefix ids, node) pairs, children in token order."""
        return self._walk(self.root)

    def leaves(self) -> list[tuple[int, ...]]:
        return [ids for ids, node in self.nodes() if node.is_invalid_leaf]

    def check_local_consistency(self, tol: float = 1e-9) -> None:
        """Debug mode: recompute every p bottom-up and compare against the
        incrementally maintained values."""

        def recompute(node: TrieNode) -> float:
            if node.is_invalid_leaf:
                return 0.0
            fresh = 1.0
            for child in node.children.values():
                fresh -= child.edge_prob * (1.0 - recompute(child))
            return fresh

        for ids, node in self.nodes():
            fresh = recompute(node)
            if abs(fresh - node.p) > tol:
                raise TrieCorruptionError(
                    f"node {ids}: stored p {node.p!r} vs recomputed {fresh!r}"
                )

    def dump(self) -> str:
        """Depth-first snapshot: one ``prefix<TAB>p<TAB>leaf`` line per node."""
        lines = []
        for ids, node in self.nodes():
            prefix = ",".join(str(t) for t in ids)
            lines.append(f"{prefix}\t{node.p!r}\t{int(node.is_invalid_leaf)}")
        return "\n".join(lines) + "\n"


def load_snapshot(text: str, lm: LanguageModel) -> InvalidPrefixTrie:
    """Rebuild a trie from a snapshot by re-inserting its leaves; p values
    are re-derived from the model, so round-trips are semantically exact
    but not required to be bit-exact."""
    trie = InvalidPrefixTrie()
    for line in text.splitlines():
        if not line.strip():
            continue
        prefix, _, leaf = line.split("\t")
        if leaf != "1":
            continue
        ids = tuple(int(t) for t in prefix.split(",")) if prefix else ()
        dists = [
            lm.next_distribution(Sequence(ids[:i], False)) for i in range(len(ids))
        ]
        trie.insert_invalid(ids, dists)
    return trie
