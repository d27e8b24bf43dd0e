"""Invalid-prefix trie with exact probability-mass bookkeeping.

Every tracked node u is a viable prefix carrying the probability p that
continuing from u avoids all discovered invalid prefixes.  A leaf, a
discovered invalid prefix u·t, is no node but an entry t -> P(t|u) in
u's ``invalid`` map.  Untracked sequences implicitly have p = 1 (no
extension is known invalid) or p = 0 (at or below a leaf).  Inserting u·t
propagates its removed mass upward, scaled by the cached edge
probabilities, so the root value is always the total mass of sequences
avoiding the invalid set.

Inserts come in sibling batches: one walk down to a node turns any number
of its one-token continuations into leaves, and every node on the path
then subtracts their summed decrease once, so p equals what inserting the
prefixes one by one gives, up to rounding.

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

from typing import Iterable, Iterator

import numpy as np

from .lm import NextTokenDistribution
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


class TrieNode:
    """A tracked viable prefix u: ``children`` maps a token t to the node
    of u·t, and ``invalid`` maps t to P(t|u) when u·t is a recorded
    invalid prefix.  No token is a key of both."""

    __slots__ = ("children", "invalid", "edge_prob", "p", "swept", "tables")

    def __init__(self, edge_prob: float) -> None:
        self.children: dict[int, TrieNode] = {}
        self.invalid: dict[int, float] = {}
        self.edge_prob = edge_prob  # P(ua|u) for the edge into this node
        self.p = 1.0
        self.swept = False  # every invalid one-token continuation is a leaf
        self.tables = None  # (dist, probs, cum) from the last draw_tables


class InvalidPrefixTrie:
    def __init__(self) -> None:
        self.root = TrieNode(1.0)
        self.n_nodes = 1  # tracked nodes plus invalid prefixes: dump()'s lines

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

        The batch has the effect, up to rounding, of inserting each prefix
        on its own with ``insert_invalid``: the path to ``base`` is walked
        once, the new leaves' decreases are summed in ascending token order,
        and every ancestor subtracts that sum once, scaled by the edges
        below it.  ``step_dists`` has one conditional per token of ``base``
        plus the one at ``base``, from which all the new edges are read.
        No tokens, or a ``base`` covered by a leaf, change nothing.  A
        cached edge probability that disagrees with ``step_dists`` raises
        ``TrieCorruptionError`` before anything changes.
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
            edge = float(dist.probs[token])
            child = node.children.get(token)
            cached = node.invalid.get(token) if child is None else child.edge_prob
            if cached is not None and abs(cached - edge) > _EDGE_TOL:
                raise _edge_changed(base[:depth], token, cached, edge)
            if child is None:
                if cached is not None:
                    return 0.0  # base extends an invalid prefix
                child = node.children[token] = TrieNode(edge)
                self.n_nodes += 1
            node = child
            path.append(node)

        edges = dists[-1].probs[tokens].tolist()
        children, invalid = node.children, node.invalid
        # check every existing entry, invalid ones included, before changing any
        if children or invalid:
            for token, edge in zip(tokens, edges):
                child = children.get(token)
                cached = invalid.get(token) if child is None else child.edge_prob
                if cached is not None and abs(cached - edge) > _EDGE_TOL:
                    raise _edge_changed(base, token, cached, edge)

        # the new leaves' removed mass, each scaled by the edge into it,
        # summed in token order
        removed = 0.0
        added = 0
        for token, edge in zip(tokens, edges):
            if token in invalid:
                continue
            child = children.pop(token, None)
            if child is None:
                removed += edge  # its p was 1
            else:
                # a longer prefix was inserted earlier; base+t dominates it
                self.n_nodes -= sum(1 for _ in self._walk(child))
                edge = child.edge_prob
                removed += child.p * edge
            invalid[token] = edge
            added += 1
        if not added:
            return 0.0
        self.n_nodes += added

        for ancestor in reversed(path):
            ancestor.tables = None
            ancestor.p = _clamped(ancestor.p - removed)
            removed *= ancestor.edge_prob  # 1 at the root
        return removed

    def p_value(self, u: Sequence | Iterable[int]) -> float:
        """p for any sequence: stored when tracked, 0 when covered, else 1."""
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        node = self.root
        for token in ids:
            child = node.children.get(token)
            if child is None:
                return 0.0 if token in node.invalid else 1.0
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
            child = node.children.get(token)
            if child is None:
                if token in node.invalid:
                    raise MassExhaustedError(f"prefix {ids} extends an invalid prefix")
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
        below it or ``dist`` is a different object; a node with no entries
        is served ``dist``'s own tables.  ``ids`` only names the prefix
        when a check fails.
        """
        cached = node.tables
        if cached is not None and cached[0] is dist:
            return cached[1], cached[2]
        if not node.children and not node.invalid:
            return dist.draw_tables
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
        if node.p <= 0.0:
            raise MassExhaustedError(f"prefix {ids} has no remaining valid mass")
        if not node.children and not node.invalid:
            return dist.probs
        probs = dist.probs
        out = np.array(probs)
        for token, child in node.children.items():
            if abs(child.edge_prob - probs[token]) > _EDGE_TOL:
                raise _edge_changed(ids, token, child.edge_prob, float(probs[token]))
            out[token] *= child.p
        for token, edge in node.invalid.items():
            if abs(edge - probs[token]) > _EDGE_TOL:
                raise _edge_changed(ids, token, edge, float(probs[token]))
            out[token] = 0.0
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
        """Depth-first (ids, node) pairs in token order; None: invalid prefix."""
        yield ids, node
        children = node.children
        for token in sorted([*children, *node.invalid]):
            child = children.get(token)
            if child is None:
                yield ids + (token,), None
            else:
                yield from self._walk(child, ids + (token,))

    def nodes(self) -> Iterator:
        """Depth-first (prefix ids, node) pairs of the tracked nodes."""
        return ((ids, node) for ids, node in self._walk(self.root) if node is not None)

    def leaves(self) -> list[tuple[int, ...]]:
        """The invalid prefixes, depth-first in token order."""
        return [ids for ids, node in self._walk(self.root) if node is None]

    def check_local_consistency(self, tol: float = 1e-9) -> None:
        """Debug mode: recompute every p bottom-up and compare against the
        incrementally maintained values."""

        def recompute(node: TrieNode) -> float:
            fresh = 1.0 - sum(node.invalid.values())
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
        """Depth-first snapshot: one ``prefix<TAB>p<TAB>leaf`` line per
        tracked node or invalid prefix (leaf 1, p 0.0), in token order."""
        lines = []
        for ids, node in self._walk(self.root):
            prefix = ",".join(str(t) for t in ids)
            p = 0.0 if node is None else node.p
            lines.append(f"{prefix}\t{p!r}\t{int(node is None)}")
        return "\n".join(lines) + "\n"
