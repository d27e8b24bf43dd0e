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
entries of the viability ``mask`` it was born swept by), and a binary sum
tree over its V terms P(a|u)·share(a) (Wong & Easton, "An efficient method
for weighted sampling without replacement", SIAM J. Comput. 1980): a heap of
2W floats, W being V rounded up to a power of two, where leaf W + t holds
token t's term (zero past V) and sum i is sum 2i plus sum 2i + 1, so sum
1 is p(u).  A changed share rewrites its token's leaf and recomputes the
log2 W sums above it, each as left + right, never by adding or
subtracting a delta: every sum is a fixed-order sum of the node's current
terms, whatever order the changes came in, and float addition is
monotone, so a falling share never raises a sum and no cancellation eats
a tiny remaining mass.  A draw descends one path to a leaf, stepping
right only into positive mass, so it ends on a positive-mass token.

A node does not own a heap.  Its base is the tree of ``masked``, the
trie's one per-run cache entry for its (conditional, mask) pair, the mask
None unless the node was born swept: leaf t holds P(t|u), or 0 where the
mask rules t out.  The base never changes after the node's birth (the
root's first update gives the empty root its own).
Its ``overlay`` maps a heap index to an entry rewritten since: entry i is
``overlay[i]`` when present, else the base's.  A rewritten entry's parent
is rewritten too, so the overlay's keys are closed upward, and an entry
it lacks covers only terms unchanged since the base, so it has the
base's bits: the bits of a whole heap per node, for log2 W + 1 stored
floats per changed share (path copying: Driscoll, Sarnak, Sleator &
Tarjan, "Making Data Structures Persistent", 1989).  A child's token is
never masked out, so its leaf is the base's times the child's p.

A cache entry also holds the running sums of its pair's masked
conditional, renormalized, which gcd draws from, and the count of tokens
the mask rules out, which a sweep reads in place of a scan of the mask;
each part is built when first read.  A swept node with an empty overlay
has no children and no leaves but its mask's, so its reweighted
conditional is its entry's: it bisects those running sums, as gcd does
(rsft's root, from its second generation on).  The two inverse CDFs
round differently, so they can part only for a u within rounding of a
boundary between two tokens.

A generation's invalid prefixes all branch off its sampled path, so they
come as one update: groups of one-token continuations keyed by depth
along the path.  One walk down checks the path and applies each group,
rewriting its new leaves' paths; every node from the deepest one changed
up to the root then rewrites its path child's leaf and sets p from its
root sum (an unchanged node keeps p = 1).  A viability mask sweeps only
a node it makes: the node is born at its pair's entry with nothing to
rewrite, and no (conditional, None) entry is made for it.  A mask whose
count is 0 at a depth with no node makes no node, but a node made on the
way to a deeper group at that depth is born at the mask's entry all the
same.  A swept node keeps its mask, the checker's own array, and
supplies it to the sampler in place of a checker query, so no later
group comes back for it.  A mask given at an already tracked node counts
as its False tokens, each recorded as a token group's would be: at a
swept node every one is a leaf already, so nothing changes.

Single writer: updates must be serialized; ``draw``, ``p_value`` and
``reweight_factors`` only read.  Nodes must not be changed except
through the trie's methods.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .lm import NextTokenDistribution, draw_index
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
# _CHECK_TOL: ``check_local_consistency``'s bound on a stored p's distance
#   from the one recomputed densely, bottom-up, from the children's.
_EDGE_TOL = 1e-12
_DRIFT = 1e-12
_SUM_TOL = 1e-8
_CHECK_TOL = 1e-9

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
    """The sum tree over ``terms``, padded with zero terms to a power of
    two W: leaf W + t holds term t, and the sums are built bottom-up one
    height at a time by the same additions as ``_repath``."""
    width = 1 << (len(terms) - 1).bit_length()
    heap = np.zeros(2 * width)
    heap[width : width + len(terms)] = terms
    while width > 1:
        heap[width >> 1 : width] = heap[width : 2 * width : 2] + heap[width + 1 : 2 * width : 2]
        width >>= 1
    return array("d", heap.tobytes())


_NO_LEAVES: frozenset[int] = frozenset()


class Masked:
    """A trie's cache entry for (``dist``, ``mask``), holding both so neither
    id in its key is reused: dist.probs·mask's sum ``tree``, the running
    sums ``cdf`` of its renormalization (None when no mass is left) and
    the count ``ruled_out`` of tokens the mask rules out, each built when
    first read.  A None mask rules nothing out: the tree is dist.probs's,
    the running sums are ``dist.cdf`` and the count is 0."""

    def __init__(self, dist: NextTokenDistribution, mask: np.ndarray | None) -> None:
        self.dist = dist
        self.mask = mask

    @cached_property
    def tree(self) -> array:
        return _tree(self.dist.probs if self.mask is None else self.dist.probs * self.mask)

    @cached_property
    def cdf(self) -> list[float] | None:
        if self.mask is None:
            return self.dist.cdf
        terms = self.dist.probs * self.mask
        total = float(terms.sum())  # divided as NextTokenDistribution does
        return np.cumsum(terms / total).tolist() if total > 0.0 else None

    @cached_property
    def ruled_out(self) -> int:
        mask = self.mask
        return 0 if mask is None else len(mask) - int(np.count_nonzero(mask))


class TrieNode:
    """A tracked viable prefix u: ``children`` maps a token t to the node
    of u·t, and ``masked.tree`` and ``overlay`` hold the sum tree of
    P(a|u)·p(u·a): entry i is ``overlay[i]`` if present, else
    ``masked.tree[i]``."""

    __slots__ = ("children", "dist", "invalid", "mask", "masked", "overlay", "p")

    def __init__(self, dist: NextTokenDistribution | None, masked: Masked | None) -> None:
        self.children: dict[int, TrieNode] = {}
        self.dist = dist  # P(.|u); None only at a root nothing was inserted under
        self.invalid: frozenset[int] = _NO_LEAVES  # leaves given as tokens
        self.mask = None if masked is None else masked.mask  # the mask it was born swept by
        self.masked = masked  # the cache entry of (dist, mask), whose tree is the base
        self.p = 1.0
        self.overlay: dict[int, float] = {}  # heap index -> entry rewritten since base

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
        self.root = TrieNode(None, None)
        self.n_nodes = 1  # tracked nodes plus invalid prefixes: dump()'s lines
        self._cache: dict = {}  # (id(dist), id(mask)) -> Masked

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
        that is false at exactly those tokens.  A mask at a depth with no
        node makes one born swept, at the mask's cache entry, unless it
        rules nothing out; a node made on the way at a mask's depth starts
        at that entry too.  A mask at a tracked node is taken as the list
        of its False tokens.  ``step_dists[d]`` is the
        conditional at ``path[:d]``.  The effect is that of
        ``insert_invalid`` on each prefix, by depth and then token, and
        nodes are made only down to the deepest group that changes
        something.  Every existing node on the path is checked against its
        conditional before anything changes.  The caller vouches that every
        token given is invalid; exactness of the whole sampler rests on
        that.
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
        for depth in depths:
            if depth > reach:
                break
            group = groups[depth]
            born = None  # the entry of a mask whose node the group makes
            if depth >= len(nodes) and isinstance(group, np.ndarray):
                born = self.masked(dists[depth], group)
                if not born.ruled_out:  # nothing to record, no node to make
                    continue
            else:
                if isinstance(group, np.ndarray):  # a tracked node's: its False tokens
                    group = np.flatnonzero(~group).tolist()
                invalid = list(set(group))
                if depth >= len(nodes) and not invalid:
                    continue
            while len(nodes) <= depth:  # a node at a mask's depth starts at its entry, swept
                at = len(nodes)
                dist, mask = dists[at], groups.get(at)
                base = self.masked(dist, mask if isinstance(mask, np.ndarray) else None)
                if at:
                    node = nodes[-1].children[path[at - 1]] = TrieNode(dist, base)
                    self.n_nodes += 1
                else:
                    node = root
                    root.dist, root.mask, root.masked = dist, base.mask, base
                nodes.append(node)
            node = nodes[depth]
            children = node.children
            if born is not None:  # the mask's False entries are all its leaves
                self.n_nodes += born.ruled_out
                changed = depth
            else:  # a few tokens, ars's one, or a tracked node's mask: a path each
                pruned = [t for t in invalid if t in children]
                for token in pruned:
                    # a longer prefix was inserted earlier; this one dominates it
                    self.n_nodes -= sum(1 for _ in self._walk(children.pop(token))) - 1
                new = [t for t in invalid if t not in pruned and not node.is_leaf(t)]
                if pruned or new:
                    node.invalid = node.invalid.union(pruned, new)
                    for token in pruned + new:
                        self._repath(node, token)
                    self.n_nodes += len(new)
                    changed = depth
            if depth < deepest and path[depth] not in children and node.is_leaf(path[depth]):
                reach = depth  # the group made the path a leaf

        if changed < 0:
            return 0.0
        before = root.p
        for depth in range(changed, -1, -1):
            node = nodes[depth]
            if depth < changed:
                self._repath(node, path[depth])  # the child's p changed
            over = node.overlay
            p = over[1] if 1 in over else node.masked.tree[1]
            node.p = p if 0.0 <= p <= 1.0 else _clamped(p)
        return before - root.p

    def masked(self, dist: NextTokenDistribution, mask: np.ndarray | None) -> Masked:
        """The cache entry of (``dist``, ``mask``), made on first use."""
        key = (id(dist), id(mask))
        entry = self._cache.get(key)
        if entry is None:
            entry = self._cache[key] = Masked(dist, mask)
        return entry

    def _repath(self, node: TrieNode, token: int) -> None:
        """Rewrite the leaf of ``token``, a child's or an explicit leaf's,
        and recompute the sums above it, bottom-up, into the node's
        overlay; each is its children's sum, and float addition commutes,
        so adding the sibling to the path's sum gives left + right bit for
        bit."""
        base, over = node.masked.tree, node.overlay
        i = (len(base) >> 1) + token
        child = node.children.get(token)
        s = over[i] = base[i] * child.p if child is not None else 0.0
        while i > 1:
            sibling = i ^ 1
            i >>= 1
            s = over[i] = s + (over[sibling] if sibling in over else base[sibling])

    def draw(
        self, node: TrieNode, dist: NextTokenDistribution, ids: tuple[int, ...], u: float
    ) -> int:
        """Inverse-CDF draw from the reweighted conditional at the tracked
        node of prefix ``ids``, by one descent of its sum tree to a leaf:
        the first positive-mass token whose running sum reaches u·p, the
        lower id on a tie.  The descent steps right only into positive
        mass, so on a floating shortfall it ends on the last positive-mass
        token of the subtree it fell short in.

        A swept node with an empty overlay has its entry's tree, so its
        reweighted conditional is its entry's: it bisects ``masked.cdf``.

        ``dist`` must be the node's conditional; the tree's total must equal
        the stored p to ``_SUM_TOL``.  ``ids`` only names the prefix when a
        check fails.
        """
        if dist is not node.dist:
            node.check(dist, ids)
        p = node.p
        if p <= 0.0:
            raise MassExhaustedError(f"prefix {ids} has no remaining valid mass")
        masked, over = node.masked, node.overlay
        base = masked.tree
        total = over[1] if 1 in over else base[1]
        if abs(total - p) > _SUM_TOL * p:
            raise TrieCorruptionError(
                f"reweighted conditional after prefix {ids} sums to {total / p!r}; "
                "bookkeeping corrupt"
            )
        if not over and masked.mask is not None:
            return draw_index(masked.cdf, u)
        width = len(base) >> 1
        # acc < target throughout, so every subtree entered holds mass: a
        # left one reaches target or has a massless sibling, a right one is
        # tested.  The overlay's keys are closed upward, so below an entry
        # it lacks every entry is the base's.
        target = u * p or _TINY
        acc = 0.0
        k = 1
        while k < width and k in over:
            k <<= 1
            s = acc + (over[k] if k in over else base[k])
            if s < target and (over[k + 1] if k + 1 in over else base[k + 1]) > 0.0:
                acc = s
                k += 1
        while k < width:
            k <<= 1
            s = acc + base[k]
            if s < target and base[k + 1] > 0.0:
                acc = s
                k += 1
        return k - width

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
        """Depth-first (ids, node) pairs in token order; None: invalid prefix.
        The pending pairs sit on an explicit stack, in reverse token order,
        so a trie of any depth is walked without recursion."""
        stack = [(ids, node)]
        while stack:
            ids, node = stack.pop()
            yield ids, node
            if node is None:
                continue
            children = node.children
            leaves = set(node.invalid)
            if node.mask is not None:
                leaves.update(np.flatnonzero(~node.mask).tolist())
            for token in sorted(leaves.union(children), reverse=True):
                stack.append((ids + (token,), children.get(token)))

    def nodes(self) -> Iterator:
        """Depth-first (prefix ids, node) pairs of the tracked nodes."""
        return ((ids, node) for ids, node in self._walk(self.root) if node is not None)

    def leaves(self) -> list[tuple[int, ...]]:
        """The invalid prefixes, depth-first in token order."""
        return [ids for ids, node in self._walk(self.root) if node is None]

    def check_local_consistency(self) -> None:
        """Debug mode: check that every node's base is the tree of the
        trie's cache entry for its (conditional, mask) pair and its overlay
        keys are closed upward, rebuild every node's sum tree from its
        shares, which must give its base overlaid with its overlay bit for
        bit, and recompute every p bottom-up from the children's recomputed
        values, not from the stored shares, and compare against the
        incrementally maintained values to ``_CHECK_TOL``."""

        def opened(ids: tuple[int, ...], node: TrieNode) -> tuple:
            """Check the node's base and sum tree; its frame holds its
            shares, which its children's recomputed values overwrite, and
            the children still to visit."""
            shares = None
            if node.dist is not None:
                if node.masked is not self._cache.get((id(node.dist), id(node.mask))):
                    raise TrieCorruptionError(
                        f"node {ids}: base is not the cache entry of its conditional and mask"
                    )
                shares = node.shares()
                want = _tree(node.dist.probs * shares)
                over = node.overlay
                tree = node.masked.tree[:]
                for k, s in over.items():
                    if not 0 < k < len(tree) or (k > 1 and k >> 1 not in over):
                        raise TrieCorruptionError(
                            f"node {ids}: overlay sum {k} is off the heap or lacks its parent"
                        )
                    tree[k] = s
                if tree.tobytes() != want.tobytes():
                    raise TrieCorruptionError(
                        f"node {ids}: sum tree differs from the one its shares give"
                    )
            return ids, node, shares, iter(node.children.items())

        # an explicit stack of the open nodes, root first: a node's p is
        # compared once all its children's are recomputed
        stack = [opened((), self.root)]
        while stack:
            ids, node, shares, children = stack[-1]
            child = next(children, None)
            if child is not None:
                stack.append(opened(ids + (child[0],), child[1]))
                continue
            stack.pop()
            fresh = 1.0 if shares is None else float((node.dist.probs * shares).sum())
            if abs(fresh - node.p) > _CHECK_TOL:
                raise TrieCorruptionError(
                    f"node {ids}: stored p {node.p!r} vs recomputed {fresh!r}"
                )
            if stack:  # the parent's share of this node
                stack[-1][2][ids[-1]] = fresh

    def dump(self) -> str:
        """Depth-first snapshot: one ``prefix<TAB>p<TAB>leaf`` line per
        tracked node or invalid prefix (leaf 1, p 0.0), in token order."""
        lines = []
        for ids, node in self._walk(self.root):
            prefix = ",".join(str(t) for t in ids)
            p = 0.0 if node is None else node.p
            lines.append(f"{prefix}\t{p!r}\t{int(node is None)}")
        return "\n".join(lines) + "\n"
