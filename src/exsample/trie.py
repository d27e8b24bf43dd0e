"""Invalid-prefix trie with exact probability-mass bookkeeping.

Every tracked node u is a viable prefix carrying the probability p that
continuing from u avoids all discovered invalid prefixes.  Each token a
has a share(a) = p(u·a): the child's p for a tracked child, 0 for a leaf
(a discovered invalid prefix u·a, which is no node) and 1 otherwise.  So
p(u) = sum_a P(a|u)·share(a), a sum of non-negative terms that keeps its
relative accuracy however small it gets, and the root value is the total
mass of sequences avoiding the invalid set.  Untracked sequences
implicitly have p = 1 (no extension is known invalid) or p = 0 (at or
below a leaf).

A node holds its conditional ``dist`` = P(.|u), its tracked ``children``,
its leaves, recorded explicitly (the ``invalid`` tokens, plus the False
entries of the viability ``mask`` that swept it), and the internal sums
of a binary sum tree over its V terms P(a|u)·share(a) (Wong & Easton,
"An efficient method for weighted sampling without replacement", SIAM J.
Comput. 1980).  The tree is a heap over W leaves, W being V rounded up to
a power of two: leaf W + t is token t's term (zero past V) and sum i is
sum 2i plus sum 2i + 1, so sum 1 is p(u).  Every sum is stored, at its
index in a float64 array of length W (index 0 unused), so a node holds W
floats: V when V is a power of two, up to 2V just above one (V = 50257
pads to 65536, 30% more).  Leaf terms are not stored: they are computed
when read, from ``dist`` and the shares.

A changed share recomputes the sums on its token's path, log2 W of them,
each as left + right from its two children; a draw descends one path,
stepping right only into positive mass, so it always ends on a
positive-mass token: O(log V) either way, where a dense share vector
costs a V-length sum per change and a V-length table per draw.  No sum
is ever adjusted by adding or subtracting a delta.  Each is recomputed
from its children, so it is always a fixed-order sum of the node's
current terms, its bits a function of those terms alone; float addition
is monotone, so a share that falls can never raise a sum, and no
cancellation can eat a tiny remaining mass.

A generation's invalid prefixes all branch off its sampled path, so they
come as one update: groups of one-token continuations keyed by depth
along the path.  One walk down checks the path, makes each group's tokens
leaves, and every node from the deepest one changed up to the root then
recomputes the changed paths of its tree and sets p from its root sum
(a node no update has changed yet keeps p = 1).  A group given as a
viability mask sweeps its node: every invalid one-token continuation is
then a leaf, so later masks at that node are skipped, and an update that
changes nothing returns after its walk.  A new node copies a
base tree, which the trie builds once per conditional for an unswept
node and once per (conditional, mask) pair for a swept one, and drops
with itself.  A sweep of a node that already has children or leaves
rebuilds its tree once, in O(V), with the same sums in the same order,
so the bits are those of the incremental path.

Single writer: updates must be serialized; ``draw``, ``p_value`` and
``reweight_factors`` only read.  Nodes must not be changed except
through the trie's methods.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np

from .lm import NextTokenDistribution
from .vocab import Sequence


class TrieCorruptionError(RuntimeError):
    """Bookkeeping invariant broke: a conditional disagrees with the one a
    node stored, a node's sum tree disagrees with its stored p, or a p
    value left [0, 1] by more than rounding noise."""


class MassExhaustedError(RuntimeError):
    """The root value reached 0: every sequence extends an invalid prefix."""


# _EDGE_TOL: a conditional given for a node must match the one it stored,
#   entry by entry, to this.
# _DRIFT: p excursions beyond [0,1] by more than this are bugs.
# _SUM_TOL: a reweighted conditional P(a|u)·share(a) / p(u) must sum to 1
#   within this, i.e. the stored p(u) must equal u's kept mass as it
#   stands now: the tree's total at a draw, the dense sum in
#   ``reweight_factors``.
_EDGE_TOL = 1e-12
_DRIFT = 1e-12
_SUM_TOL = 1e-8

_TINY = 5e-324  # the least positive float: a draw's target when u·p is 0


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


def _tree(terms: np.ndarray) -> array:
    """The internal sums of the sum tree over ``terms``, padded with zero
    terms to a power of two, built bottom-up one height at a time by the
    same additions as ``_repath``."""
    width = 1 << (len(terms) - 1).bit_length()
    heap = np.zeros(width)
    level = np.zeros(width)
    level[: len(terms)] = terms
    while width > 1:
        level = level[0::2] + level[1::2]
        width >>= 1
        heap[width : 2 * width] = level
    return array("d", heap.tobytes())


_NO_LEAVES: frozenset[int] = frozenset()


class TrieNode:
    """A tracked viable prefix u: ``children`` maps a token t to the node
    of u·t, and ``sums`` holds the sum tree of P(a|u)·p(u·a)."""

    __slots__ = ("children", "dist", "invalid", "mask", "p", "sums")

    def __init__(self, dist: NextTokenDistribution | None) -> None:
        self.children: dict[int, TrieNode] = {}
        self.dist = dist  # P(.|u); None only at a root nothing was inserted under
        self.invalid: frozenset[int] = _NO_LEAVES  # leaves given as tokens
        self.mask = None  # the viability mask that swept the node
        self.p = 1.0
        self.sums = None  # the tree's internal sums, set by the first update

    @property
    def swept(self) -> bool:
        """Every invalid one-token continuation is a leaf."""
        return self.mask is not None

    def is_leaf(self, token: int) -> bool:
        """Whether u·token is a recorded invalid prefix."""
        mask = self.mask
        return token in self.invalid or (mask is not None and not mask[token])

    def shares(self) -> np.ndarray:
        """share(a) = p(u·a) for every token a, densely."""
        if self.mask is None:
            shares = np.ones(len(self.dist))
        else:
            shares = self.mask.astype(np.float64)
        if self.invalid:
            shares[list(self.invalid)] = 0.0
        for token, child in self.children.items():
            shares[token] = child.p
        return shares

    def term(self, probs: list[float], token: int) -> float:
        """P(token|u)·share(token), ``probs`` being ``dist``'s list."""
        child = self.children.get(token)
        if child is not None:
            return probs[token] * child.p
        if token in self.invalid:
            return 0.0
        mask = self.mask
        if mask is not None and not mask[token]:
            return 0.0
        return probs[token]

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


class InvalidPrefixTrie:
    def __init__(self) -> None:
        self.root = TrieNode(None)
        self.n_nodes = 1  # tracked nodes plus invalid prefixes: dump()'s lines
        self._bases: dict = {}  # (id(dist), id(mask) or None) -> (dist, mask, tree)

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
        depth = 0
        while node is not None:
            if dists[depth] is not node.dist:  # spare the call and the slice
                node.check(dists[depth], path[:depth])
            nodes.append(node)
            if depth == deepest:
                break
            token = path[depth]
            node = node.children.get(token)
            if node is None and nodes[depth].is_leaf(token):
                reach = depth
            depth += 1

        changed = -1
        dirty: dict[int, list[int] | None] = {}  # depth -> changed shares; None: all
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
                root.dist = dists[0]
                nodes.append(root)
            while len(nodes) <= depth:
                child = nodes[-1].children[path[len(nodes) - 1]] = TrieNode(dists[len(nodes)])
                self.n_nodes += 1
                nodes.append(child)
            node = nodes[depth]
            children, leaves = node.children, node.invalid
            plain = not children and not leaves
            if sweep:
                pruned = [t for t in children if not group[t]]
            else:
                pruned = [t for t in invalid if t in children]
            for token in pruned:
                # a longer prefix was inserted earlier; this one dominates it
                self.n_nodes -= sum(1 for _ in self._walk(children.pop(token))) - 1
            if sweep:
                # the mask's False entries that were neither leaves nor
                # children become leaves
                fresh = len(group) - int(np.count_nonzero(group)) - len(pruned)
                if leaves:
                    fresh -= sum(1 for t in leaves if not group[t])
                node.mask = group
                if fresh or pruned:
                    if plain:
                        node.sums = self._base(node.dist, group)[:]
                    else:
                        dirty[depth] = None
            else:  # a few tokens, ars's one: a path each
                new = [t for t in invalid if t not in pruned and not node.is_leaf(t)]
                if pruned or new:
                    node.invalid = leaves.union(pruned, new)
                    dirty[depth] = pruned + new
                fresh = len(new)
            if fresh or pruned:
                self.n_nodes += fresh
                changed = depth
            if depth < deepest and path[depth] not in children and node.is_leaf(path[depth]):
                reach = depth  # the group made the path a leaf

        if changed < 0:
            return 0.0
        before = root.p
        for depth in range(changed, -1, -1):
            node = nodes[depth]
            tokens = dirty.get(depth, ())
            if tokens is None:
                node.sums = _tree(node.dist.probs * node.shares())
            else:
                if node.sums is None:
                    node.sums = self._base(node.dist, None)[:]
                for token in tokens:
                    self._repath(node, token)
                if depth < changed:
                    self._repath(node, path[depth])  # the child's p changed
            node.p = _clamped(node.sums[1])
        return before - root.p

    def _base(self, dist: NextTokenDistribution, mask: np.ndarray | None) -> array:
        """The tree of a node with conditional ``dist``, no children and no
        leaves but ``mask``'s False entries; built once per pair."""
        key = (id(dist), None if mask is None else id(mask))
        hit = self._bases.get(key)
        if hit is None:  # the entry holds both objects, so neither id is reused
            terms = dist.probs if mask is None else dist.probs * mask
            hit = self._bases[key] = (dist, mask, _tree(terms))
        return hit[2]

    def _repath(self, node: TrieNode, token: int) -> None:
        """Recompute the sums on ``token``'s path, bottom-up."""
        sums = node.sums
        probs = node.dist.draw_tables[0]
        t = token & ~1  # the left leaf of token's pair
        right = node.term(probs, t + 1) if t + 1 < len(probs) else 0.0
        i = (len(sums) + t) >> 1
        sums[i] = node.term(probs, t) + right
        i >>= 1
        while i:
            sums[i] = sums[2 * i] + sums[2 * i + 1]
            i >>= 1

    def draw(
        self, node: TrieNode, dist: NextTokenDistribution, ids: tuple[int, ...], u: float
    ) -> int:
        """Inverse-CDF draw from the reweighted conditional at the tracked
        node of prefix ``ids``, by one descent of its sum tree: the first
        positive-mass token whose running sum reaches u·p, the lower id on
        a tie.  The descent steps right only into positive mass, so on a
        floating shortfall it ends on the last positive-mass token of the
        subtree it fell short in.

        ``dist`` must be the node's conditional; the tree's total must equal
        the stored p to ``_SUM_TOL``.  ``ids`` only names the prefix when a
        check fails.
        """
        if dist is not node.dist:
            node.check(dist, ids)
        p = node.p
        if p <= 0.0:
            raise MassExhaustedError(f"prefix {ids} has no remaining valid mass")
        sums = node.sums
        if abs(sums[1] - p) > _SUM_TOL * p:
            raise TrieCorruptionError(
                f"reweighted conditional after prefix {ids} sums to {sums[1] / p!r}; "
                "bookkeeping corrupt"
            )
        width = len(sums)
        half = width >> 1
        # acc < target throughout, so every subtree entered holds mass: a
        # left one reaches target or has a massless sibling, a right one is
        # tested
        target = u * p or _TINY
        acc = 0.0
        k = 1
        while k < half:
            k <<= 1
            s = acc + sums[k]
            if s < target and sums[k + 1] > 0.0:
                acc = s
                k += 1
        probs = node.dist.draw_tables[0]
        token = (k << 1) - width
        if acc + node.term(probs, token) >= target:
            return token
        if token + 1 < len(probs) and node.term(probs, token + 1) > 0.0:
            return token + 1
        return token

    def _find(self, ids: tuple[int, ...]) -> TrieNode | float:
        """The tracked node of ``ids``, else its p: 0 when a leaf covers
        ``ids``, 1 when no known invalid prefix does."""
        node = self.root
        for token in ids:
            child = node.children.get(token)
            if child is None:
                return 0.0 if node.is_leaf(token) else 1.0
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
        invalid set: a -> P(ua|u) * p(ua) / p(u), computed densely; the
        referee view of what ``draw`` samples.

        The returned vector must sum to 1 within tolerance; that sum is the
        online consistency check of the bookkeeping.
        """
        ids = u.ids if isinstance(u, Sequence) else tuple(u)
        found = self._find(ids)
        if not isinstance(found, TrieNode):
            if not found:
                raise MassExhaustedError(f"prefix {ids} extends an invalid prefix")
            return dist.probs  # untracked: reduces to the original conditional
        if found.p <= 0.0:
            raise MassExhaustedError(f"prefix {ids} has no remaining valid mass")
        if found.dist is None:
            return dist.probs
        found.check(dist, ids)
        out = dist.probs * found.shares() / found.p
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
        leaves = set(node.invalid)
        if node.mask is not None:
            leaves.update(np.flatnonzero(~node.mask).tolist())
        for token in sorted(leaves.union(children)):
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
        """Debug mode: rebuild every node's sum tree from its shares, which
        must give the stored sums bit for bit, and recompute every p
        bottom-up from the children's recomputed values, not from the
        stored shares, and compare against the incrementally maintained
        values."""

        def recompute(ids: tuple[int, ...], node: TrieNode) -> float:
            fresh = 1.0
            if node.dist is not None:
                shares = node.shares()
                want = _tree(node.dist.probs * shares)
                if node.sums is None or node.sums.tobytes() != want.tobytes():
                    raise TrieCorruptionError(
                        f"node {ids}: sum tree differs from the one its shares give"
                    )
                for token, child in node.children.items():
                    shares[token] = recompute(ids + (token,), child)
                fresh = float((node.dist.probs * shares).sum())
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
