"""Invalid-prefix trie with exact probability-mass bookkeeping.

Every tracked node u is a viable prefix carrying the probability p that
continuing from u avoids all discovered invalid prefixes.  It holds its
own conditional ``dist`` = P(.|u) and one share vector ``keep`` over the
vocabulary: keep[a] is p(u·a), that is 1 for an untracked token, 0 for a
leaf (a discovered invalid prefix u·a, which is no node) and the child's p
for a tracked child.  So p(u) = sum_a P(a|u)·keep[a], a sum of
non-negative terms that keeps its relative accuracy however small it
gets, and the root value is the total mass of sequences avoiding the
invalid set.  Untracked sequences implicitly have p = 1 (no extension is
known invalid) or p = 0 (at or below a leaf).

A generation's invalid prefixes all branch off its sampled path, so they
come as one update: groups of one-token continuations keyed by depth
along the path.  One walk down checks the path, makes each group's tokens
leaves, and every node from the deepest one changed up to the root then
recomputes its p from its ``keep`` and writes it into its parent's.

Each node drawn from keeps its reweighted conditional and running sums
as read-only float64 arrays until an update changes p at or below it, so
a step through an unchanged node costs one ``bisect``.  A group given as
a viability mask sweeps its node, zeroing its invalid shares in one
multiply: every invalid one-token continuation is then a leaf, so later
masks at that node are skipped, and an update whose every group is such
a mask returns after its walk.

Single writer, no concurrent readers: ``draw_tables`` writes too, since
it fills the per-node cache, so it must be serialized with updates and
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
    """Bookkeeping invariant broke: a conditional disagrees with the one a
    node stored, a reweighted vector failed its sum check, or a p value
    left [0, 1] by more than rounding noise."""


class MassExhaustedError(RuntimeError):
    """The root value reached 0: every sequence extends an invalid prefix."""


# _EDGE_TOL: a conditional given for a node must match the one it stored,
#   entry by entry, to this.
# _DRIFT: p excursions beyond [0,1] by more than this are bugs.
# _SUM_TOL: a reweighted vector P(a|u)·keep[a] / p(u) must sum to 1 within
#   this, i.e. the stored p(u) must equal u's kept mass as it stands now.
_EDGE_TOL = 1e-12
_DRIFT = 1e-12
_SUM_TOL = 1e-8


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


class TrieNode:
    """A tracked viable prefix u: ``children`` maps a token t to the node
    of u·t, and ``keep`` holds p(u·a) for every token a."""

    __slots__ = ("children", "dist", "keep", "p", "swept", "tables")

    def __init__(self, dist: NextTokenDistribution | None) -> None:
        self.children: dict[int, TrieNode] = {}
        self.dist = dist  # P(.|u); None only at a root nothing was inserted under
        self.keep = None if dist is None else np.ones(len(dist))
        self.p = 1.0
        self.swept = False  # every invalid one-token continuation is a leaf
        self.tables = None  # (dist, probs, cum) from the last draw_tables

    def check(self, dist: NextTokenDistribution, ids: tuple[int, ...]) -> None:
        """Raise unless ``dist`` is this node's conditional, to ``_EDGE_TOL``;
        ``ids``, the node's prefix, names it in the error."""
        if dist is self.dist:
            return
        diff = np.abs(dist.probs - self.dist.probs)
        token = int(diff.argmax())
        if diff[token] > _EDGE_TOL:
            raise TrieCorruptionError(
                f"edge probability for token {token} after prefix {ids} changed "
                f"from {float(self.dist.probs[token])!r} to {float(dist.probs[token])!r}"
            )

    def kept_mass(self) -> float:
        """sum_a P(a|u)·keep[a], by numpy's pairwise sum rather than a BLAS
        dot, whose bits may depend on the CPU."""
        return _clamped(float((self.dist.probs * self.keep).sum()))


class InvalidPrefixTrie:
    def __init__(self) -> None:
        self.root = TrieNode(None)
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
        """Record u as invalid, an ``update`` with one group; returns the
        decrease of the root value.  ``step_dists[i]`` is the conditional
        at ``u[:i]``.  A prefix already covered by a leaf is a no-op; a
        proper prefix of existing nodes prunes the subtree below it.
        """
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        if not ids:
            raise ValueError("cannot insert the empty prefix as invalid")
        return self.update(ids, step_dists, {len(ids) - 1: [ids[-1]]})

    def update(
        self,
        path: Iterable[int],
        step_dists: Iterable[NextTokenDistribution],
        groups: dict[int, list[int] | np.ndarray],
    ) -> float:
        """Record one generation's invalid prefixes, which all branch off
        ``path``; returns the decrease of the root value.

        ``groups`` maps a depth d to invalid continuations of ``path[:d]``:
        a list of tokens, or a viability mask, an array over the vocabulary
        that is false at exactly those tokens.  A mask sweeps its node, and
        later masks skip a swept node.  ``step_dists[d]`` is the conditional
        at ``path[:d]``.  The effect is that of ``insert_invalid`` on each
        prefix, by depth and then token, and nodes are made only down to the
        deepest group that changes something.  Every existing node on the
        path is checked against its conditional before anything changes.
        The caller vouches that every token given is invalid; exactness of
        the whole sampler rests on that.
        """
        if not groups:
            return 0.0
        path = tuple(path)
        dists = list(step_dists)
        depths = sorted(groups)
        deepest = depths[-1]
        if len(dists) <= deepest or len(path) < deepest:
            raise ValueError(
                f"a group at depth {deepest} needs {deepest} path tokens and "
                f"{deepest + 1} step distributions"
            )
        root = self.root
        nodes = []  # the tracked nodes of path[:0], path[:1], ...
        node = root if root.dist is not None else None
        reach = deepest  # groups below a leaf on the path change nothing
        dead = 0  # groups that are masks at swept nodes change nothing
        depth = 0
        while node is not None:
            if dists[depth] is not node.dist:  # spare the call and the slice
                node.check(dists[depth], path[:depth])
            nodes.append(node)
            if node.swept and isinstance(groups.get(depth), np.ndarray):
                dead += 1
            if depth == deepest:
                break
            token = path[depth]
            node = node.children.get(token)
            if node is None and not nodes[depth].keep[token]:
                reach = depth
            depth += 1
        if dead == len(depths):
            return 0.0

        changed = -1
        for depth in depths:
            if depth > reach:
                break
            group = groups[depth]
            sweep = isinstance(group, np.ndarray)
            if sweep:
                # swept before, or nothing to record and no node to mark swept
                if nodes[depth].swept if depth < len(nodes) else group.all():
                    continue
            else:
                invalid = list(set(group))
                if depth >= len(nodes) and not invalid:
                    continue
            if not nodes:
                root.dist, root.keep = dists[0], np.ones(len(dists[0]))
                nodes.append(root)
            while len(nodes) <= depth:
                child = nodes[-1].children[path[len(nodes) - 1]] = TrieNode(dists[len(nodes)])
                self.n_nodes += 1
                nodes.append(child)
            node = nodes[depth]
            node.swept |= sweep
            keep, children = node.keep, node.children
            if sweep:
                pruned = [t for t in children if not group[t]]
            else:
                pruned = [t for t in invalid if t in children]
            for token in pruned:
                # a longer prefix was inserted earlier; this one dominates it
                self.n_nodes -= sum(1 for _ in self._walk(children.pop(token))) - 1
                keep[token] = 0.0
            # untracked invalid tokens become new leaves; keep holds finite
            # values >= 0, so x·1.0 is x and x·0.0 is +0.0
            if sweep:
                fresh = int(np.count_nonzero(keep))
                np.multiply(keep, group, out=keep)
                fresh -= int(np.count_nonzero(keep))
            else:  # a few tokens, ars's one: scalar tests beat fancy indexing
                fresh = 0
                for token in invalid:
                    if keep[token]:
                        keep[token] = 0.0
                        fresh += 1
            if fresh or pruned:
                self.n_nodes += fresh
                changed = depth
            if depth < deepest and path[depth] not in children and not keep[path[depth]]:
                reach = depth  # the group made the path a leaf

        if changed < 0:
            return 0.0
        before = root.p
        for depth in range(changed, -1, -1):
            node = nodes[depth]
            node.tables = None
            node.p = node.kept_mass()
            if depth:
                nodes[depth - 1].keep[path[depth - 1]] = node.p
        return before - root.p

    def _find(self, ids: tuple[int, ...]) -> TrieNode | float:
        """The tracked node of ``ids``, else its p: 0 when a leaf covers
        ``ids``, 1 when no known invalid prefix does."""
        node = self.root
        for token in ids:
            child = node.children.get(token)
            if child is None:
                return 1.0 if node.keep is None else float(node.keep[token])
            node = child
        return node

    def p_value(self, u: Sequence | Iterable[int]) -> float:
        """p for any sequence: stored when tracked, 0 when covered, else 1."""
        found = self._find(u.ids if isinstance(u, Sequence) else tuple(u))
        return found.p if isinstance(found, TrieNode) else found

    def reweight_factors(
        self, u: Sequence | Iterable[int], dist: NextTokenDistribution
    ) -> np.ndarray:
        """The conditional over next tokens renormalized to avoid the
        invalid set: a -> P(ua|u) * p(ua) / p(u).

        The returned vector must sum to 1 within tolerance; that sum is the
        online consistency check of the bookkeeping.
        """
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        found = self._find(ids)
        if isinstance(found, TrieNode):
            return self._reweight_at(found, dist, ids)
        if not found:
            raise MassExhaustedError(f"prefix {ids} extends an invalid prefix")
        return dist.probs  # untracked: reduces to the original conditional

    def draw_tables(
        self, node: TrieNode, dist: NextTokenDistribution, ids: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The reweighted conditional at the tracked node of prefix ``ids``
        and its running sums, as read-only float64 arrays for an
        inverse-CDF draw.

        Built by the same operations as ``reweight_factors``, checks
        included, and cached on the node until an update changes p at or
        below it or ``dist`` is a different object.  ``ids`` only names the
        prefix when a check fails.
        """
        cached = node.tables
        if cached is not None and cached[0] is dist:
            return cached[1], cached[2]
        probs = self._reweight_at(node, dist, ids)
        cum = np.cumsum(probs)
        probs.flags.writeable = cum.flags.writeable = False
        node.tables = (dist, probs, cum)
        return probs, cum

    def _reweight_at(
        self, node: TrieNode, dist: NextTokenDistribution, ids: tuple[int, ...]
    ) -> np.ndarray:
        if node.p <= 0.0:
            raise MassExhaustedError(f"prefix {ids} has no remaining valid mass")
        if node.dist is None:
            return dist.probs
        node.check(dist, ids)
        out = dist.probs * node.keep / node.p
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
        if node.keep is None:
            return
        children = node.children
        for token in sorted({*children, *np.flatnonzero(node.keep == 0.0).tolist()}):
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
        """Debug mode: recompute every p bottom-up from the children's
        recomputed values, not from the stored shares, and compare against
        the incrementally maintained values."""

        def recompute(ids: tuple[int, ...], node: TrieNode) -> float:
            fresh = 1.0
            if node.dist is not None:
                keep = (node.keep != 0.0).astype(np.float64)  # untracked 1, leaf 0
                for token, child in node.children.items():
                    keep[token] = recompute(ids + (token,), child)
                fresh = float((node.dist.probs * keep).sum())
            if abs(fresh - node.p) > tol:
                raise TrieCorruptionError(
                    f"node {ids}: stored p {node.p!r} vs recomputed {fresh!r}"
                )
            return fresh

        recompute((), self.root)

    def dump(self) -> str:
        """Depth-first snapshot: one ``prefix<TAB>p<TAB>leaf`` line per
        tracked node or invalid prefix (leaf 1, p 0.0), in token order."""
        lines = []
        for ids, node in self._walk(self.root):
            prefix = ",".join(str(t) for t in ids)
            p = 0.0 if node is None else node.p
            lines.append(f"{prefix}\t{p!r}\t{int(node is None)}")
        return "\n".join(lines) + "\n"
