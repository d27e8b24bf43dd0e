"""Incremental constraint checkers.

A checker answers two questions about a constraint set L: for a viable
prefix u, which tokens a keep u·a inside prefix(L) (the viability mask,
with the eos bit answering whether u terminated now is a member), and
whether a terminated sequence is a member.  Tokens are matched by their
surface bytes, consumed byte-by-byte, so checkers are independent of any
tokenizer.

Each backend is a token automaton that defines ``_start()``,
``_step(state, token)`` and ``_accepts(state)``.  A state is any hashable
value; ``None`` is the dead state, which ``_step`` returns once no member
of L extends the prefix.  The base class keeps the memo, per state and not
per prefix: it builds the automaton lazily, one node per live state
reached, holding the state's read-only mask and each token's successor,
linked to the successor's node once that step is taken.  A query walks
from the start node, so a step already taken is one list index.  A node is
built from ``_step_all(state)``, which by default steps each token on its
own; the DFA backend overrides it with one row of the token table that it
steps every surface into when it is built.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grammar import EmptyLanguageError, Grammar, nullable_set, parse_grammar, reduce_grammar
from .vocab import Sequence, UnterminatedSequenceError, Vocabulary


class NonViablePrefixError(ValueError):
    """A mask was requested for a prefix that cannot reach the language."""


@dataclass(slots=True, eq=False)
class _Node:
    """A live state's read-only mask and, per token, its successor: the
    state, then its node once the step is taken; ``None`` where dead."""

    mask: np.ndarray
    next: list


class ConstraintChecker(ABC):
    """A token automaton, built lazily from its start state.  A subclass
    sets up what its ``_start`` needs before it calls this ``__init__``."""

    def __init__(self, vocab: Vocabulary) -> None:
        self.vocab = vocab
        self._root: _Node | None = None
        self._nodes: dict[Hashable, _Node] = {}

    def viability_mask(self, u: Sequence) -> np.ndarray:
        """Read-only boolean vector over the vocabulary: bit a iff u·a is
        viable.

        Raises NonViablePrefixError when u itself is not viable; querying
        such a prefix indicates a sampler bug, not a rejected sample.
        """
        if u.terminated:
            raise ValueError("cannot extend a terminated sequence")
        node = self._walk(u.ids)
        if node is None:
            raise NonViablePrefixError(f"prefix {u.ids} is not viable")
        return node.mask

    def is_complete(self, w: Sequence) -> bool:
        """Membership test for a terminated sequence."""
        if not w.terminated:
            raise UnterminatedSequenceError("membership needs a terminated sequence")
        node = self._walk(w.ids[:-1])
        return node is not None and bool(node.mask[self.vocab.eos])

    def _walk(self, ids: tuple[int, ...]) -> _Node | None:
        """The node of prefix ``ids``, or None once a step is dead.  A step
        not taken before links the successor's node, built on first use."""
        node = self._root
        if node is None:
            node = self._root = self._new_node(self._start())
        for token in ids:
            child = node.next[token]
            if child.__class__ is not _Node:
                if child is None:
                    return None
                child = node.next[token] = self._nodes.get(child) or self._new_node(child)
            node = child
        return node

    def _new_node(self, state: Hashable) -> _Node:
        """The node of a live state not reached before: every token stepped
        from it, and the mask's eos bit from acceptance."""
        successors = self._step_all(state)
        mask = np.fromiter((s is not None for s in successors), dtype=bool, count=self.vocab.size)
        mask[self.vocab.eos] = self._accepts(state)
        mask.flags.writeable = False
        node = self._nodes[state] = _Node(mask, successors)
        return node

    def _step_all(self, state: Hashable) -> list:
        """A new list of ``_step(state, a)`` for each token a of a live
        state, ``None`` for eos.  A backend that can step every token at
        once overrides this loop."""
        eos = self.vocab.eos
        return [None if t == eos else self._step(state, t) for t in range(self.vocab.size)]

    @abstractmethod
    def _start(self) -> Hashable:
        """The state of the empty prefix, which is live."""

    @abstractmethod
    def _step(self, state: Hashable, token: int) -> Hashable | None:
        """The state after ``token``'s surface bytes from a live state."""

    @abstractmethod
    def _accepts(self, state: Hashable) -> bool:
        """Whether a live state's prefix is itself a member of L."""


class EarleyChecker(ConstraintChecker):
    """Recognizer-backed checker for a context-free constraint.

    The grammar is reduced at construction, which makes "chart column
    non-empty" a sound and complete viability test: every live item can
    then be completed to a member of L.  A state is the tuple of chart
    columns, one per byte read plus the initial one; each column is a
    frozenset of (production, dot, origin) items.
    """

    def __init__(self, grammar: Grammar, vocab: Vocabulary) -> None:
        grammar, _ = reduce_grammar(grammar)
        prods = [("%accept", (grammar.start,))] + list(grammar.productions)
        self._prods = prods
        self._by_lhs: dict[str, list[int]] = {}
        for idx, (lhs, _) in enumerate(prods):
            self._by_lhs.setdefault(lhs, []).append(idx)
        self._nullable = nullable_set(prods)
        super().__init__(vocab)

    def _closure(self, cols: list, seed: set, pos: int) -> frozenset:
        col = set(seed)
        agenda = list(seed)
        while agenda:
            item = agenda.pop()
            pi, dot, org = item
            lhs, rhs = self._prods[pi]
            if dot == len(rhs):
                if org == pos:
                    continue  # zero-span completion; covered by nullable advance
                for pj, dj, oj in cols[org]:
                    rhsj = self._prods[pj][1]
                    if dj < len(rhsj) and rhsj[dj] == lhs:
                        new = (pj, dj + 1, oj)
                        if new not in col:
                            col.add(new)
                            agenda.append(new)
            else:
                sym = rhs[dot]
                if isinstance(sym, str):
                    for pk in self._by_lhs.get(sym, ()):
                        new = (pk, 0, pos)
                        if new not in col:
                            col.add(new)
                            agenda.append(new)
                    if sym in self._nullable:
                        new = (pi, dot + 1, org)
                        if new not in col:
                            col.add(new)
                            agenda.append(new)
        return frozenset(col)

    def _advance(self, cols: list, byte: int) -> frozenset:
        pos = len(cols)
        seed = set()
        for pi, dot, org in cols[-1]:
            rhs = self._prods[pi][1]
            if dot < len(rhs) and not isinstance(rhs[dot], str) and byte in rhs[dot]:
                seed.add((pi, dot + 1, org))
        return self._closure(cols, seed, pos)  # empty for an empty seed

    def _start(self) -> tuple:
        return (self._closure([], {(0, 0, 0)}, 0),)

    def _step(self, state: tuple, token: int) -> tuple | None:
        cols = list(state)
        for byte in self.vocab.surfaces[token]:
            col = self._advance(cols, byte)
            if not col:
                return None
            cols.append(col)
        return tuple(cols)

    def _accepts(self, state: tuple) -> bool:
        return (0, 1, 0) in state[-1]


# ---------------------------------------------------------------------------
# DFA backend

@dataclass(frozen=True, eq=False)
class DfaConstraint:
    """Byte-level DFA with a total transition table (dead state included)
    and the exact co-reachable set (states from which accepting states are
    reachable), computed by backward fixpoint."""

    state_count: int
    start: int
    accepting: frozenset[int]
    alphabet: frozenset[int]
    transitions: dict
    co_reachable: frozenset[int]


def make_dfa(
    state_count: int,
    start: int,
    accepting,
    alphabet,
    transitions: dict,
) -> DfaConstraint:
    """Build a DfaConstraint; missing (state, byte) pairs go to an added
    dead state so the table is total over the declared alphabet."""
    alphabet = frozenset(int(b) for b in alphabet)
    accepting = frozenset(int(s) for s in accepting)
    for b in sorted(alphabet):
        if not 0 <= b <= 255:
            raise ValueError(f"alphabet byte {b} outside 0..255")
    if not 0 <= start < state_count:
        raise ValueError("start state out of range")
    if any(not 0 <= s < state_count for s in accepting):
        raise ValueError("accepting state out of range")
    table = {}
    for (src, byte), dst in transitions.items():
        src, byte, dst = int(src), int(byte), int(dst)
        if not 0 <= byte <= 255:
            raise ValueError(f"transition byte {byte} outside 0..255")
        if byte not in alphabet:
            raise ValueError(f"transition byte {byte} outside the DFA alphabet")
        if not (0 <= src < state_count and 0 <= dst < state_count):
            raise ValueError("transition state out of range")
        table[(src, byte)] = dst
    missing = [(s, b) for s in range(state_count) for b in alphabet if (s, b) not in table]
    if missing:  # they go to an added dead state, which loops on every byte
        dead, state_count = state_count, state_count + 1
        table.update(dict.fromkeys(missing + [(dead, b) for b in alphabet], dead))
    # backward reachability from accepting states
    preds: dict[int, set[int]] = {s: set() for s in range(state_count)}
    for (src, _), dst in table.items():
        preds[dst].add(src)
    co = set(accepting)
    frontier = list(accepting)
    while frontier:
        s = frontier.pop()
        for p in preds[s]:
            if p not in co:
                co.add(p)
                frontier.append(p)
    return DfaConstraint(state_count, start, accepting, alphabet, table, frozenset(co))


def load_dfa(source: str) -> DfaConstraint:
    """Parse a .dfa automaton table (see README format)."""
    alphabet: frozenset[int] | None = None
    start: int | None = None
    accepting: list[int] = []
    raw_edges: list[tuple[int, bytes, int]] = []
    max_state = -1
    header_line: dict[str, int] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = _COMMENT.sub(r"\1", line).strip()
        if not line:
            continue
        head, *arg = line.split(None, 1)
        if head in ("alphabet", "start", "accept"):
            if not arg:
                raise ValueError(f"{lineno}: '{head}' needs an argument")
            if head in header_line:
                raise ValueError(
                    f"{lineno}: second '{head}' line (first on line {header_line[head]})"
                )
            header_line[head] = lineno
        if head == "alphabet":
            alphabet = frozenset(_quoted_bytes(arg[0], lineno))
        elif head == "start":
            start = _state(arg[0], lineno)
        elif head == "accept":
            accepting = [_state(x, lineno) for x in arg[0].split()]
        else:
            fields = _EDGE.fullmatch(line)  # the quoted field whole, spaces and all
            if fields is None:
                raise ValueError(f"{lineno}: expected 'SRC \"bytes\" DST'")
            src = _state(fields[1], lineno)
            data = _quoted_bytes(fields[2], lineno)
            dst = _state(fields[3], lineno)
            raw_edges.append((lineno, src, data, dst))
            max_state = max(max_state, src, dst)
    if alphabet is None or start is None:
        raise ValueError("dfa file needs 'alphabet' and 'start' lines")
    state_count = max(max_state, start, max(accepting, default=0)) + 1
    transitions = {}
    edge_line = {}
    for lineno, src, data, dst in raw_edges:
        for b in dict.fromkeys(data):  # a byte listed twice is one edge
            if b not in alphabet:
                raise ValueError(f"{lineno}: byte {bytes([b])!r} outside the alphabet")
            if (src, b) in edge_line:
                raise ValueError(
                    f"{lineno}: second edge for state {src} byte {bytes([b])!r} "
                    f"(first on line {edge_line[src, b]})"
                )
            edge_line[src, b] = lineno
            transitions[(src, b)] = dst
    return make_dfa(state_count, start, accepting, alphabet, transitions)


_COMMENT = re.compile(r'("[^"]*")|//.*')  # a quoted field is kept whole, // in it too
_EDGE = re.compile(r'(\S+)\s+("[^"]*"|\S+)\s+(\S+)')


def _state(text: str, lineno: int) -> int:
    try:
        state = int(text)
    except ValueError:
        raise ValueError(f"{lineno}: expected a state number, got {text!r}") from None
    if state < 0:
        raise ValueError(f"{lineno}: state {state} is negative")
    return state


def _quoted_bytes(text: str, lineno: int) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise ValueError(f"{lineno}: expected a double-quoted byte string")
    return text[1:-1].encode("utf-8")


class DfaChecker(ConstraintChecker):
    """Checker for a regular constraint.  A state is the automaton state
    after the prefix's bytes, live while it is co-reachable; membership is
    acceptance, so there is at most one node per co-reachable state.  A
    start state that is not co-reachable is an EmptyLanguageError.

    Construction runs every surface through the byte automaton at once,
    from every state, into a token table: row s holds, per token, the live
    state its bytes lead to from s, or -1.  A step is then one lookup and
    a state's node one row, whatever the surfaces' lengths.  The table has
    S×V entries for S automaton states and V tokens, in the narrowest
    integer type that holds -1 and every state.
    """

    def __init__(self, dfa: DfaConstraint, vocab: Vocabulary) -> None:
        if dfa.start not in dfa.co_reachable:
            raise EmptyLanguageError(f"start state {dfa.start} reaches no accepting state")
        self.dfa = dfa
        self._next = _token_table(dfa, vocab)
        super().__init__(vocab)

    def _start(self) -> int:
        return self.dfa.start

    def _step(self, state: int, token: int) -> int | None:
        state = self._next.item(state, token)
        return None if state < 0 else state

    def _step_all(self, state: int) -> list:
        return [None if s < 0 else s for s in self._next[state].tolist()]

    def _accepts(self, state: int) -> bool:
        return state in self.dfa.accepting


def _token_table(dfa: DfaConstraint, vocab: Vocabulary) -> np.ndarray:
    """A DfaChecker's (state, token) table.  Every surface but eos's is
    stepped from every state at once, one byte position at a time over the
    surfaces padded to the longest; an end state that is not co-reachable,
    and eos, become -1.  A byte outside the alphabet leads to an extra
    state n that keeps the token there, so the same pass finds the first
    surface, in token order, with such a byte, and raises ValueError
    naming it and the byte."""
    n, size = dfa.state_count, vocab.size
    surfaces = list(vocab.surfaces)
    surfaces[vocab.eos] = b""
    lengths = np.fromiter(map(len, surfaces), dtype=np.intp, count=size)
    flat = np.frombuffer(b"".join(surfaces), dtype=np.uint8)
    token = np.repeat(np.arange(size), lengths)  # the token of each byte of flat
    pad = 256  # the byte past a surface's end: every state stays put
    # padded[j, t]: byte j of surface t, or pad past its end
    padded = np.full((lengths.max(), size), pad, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    padded[np.arange(flat.size) - starts[token], token] = flat
    # delta[s * (pad + 1) + b]: the state after byte b from state s
    delta = np.full((n + 1, pad + 1), n, dtype=np.intp)
    delta[:n, pad] = np.arange(n)
    if dfa.transitions:  # none over an empty alphabet
        src, byte = zip(*dfa.transitions)
        delta[src, byte] = list(dfa.transitions.values())
    delta = delta.ravel()
    state = np.repeat(np.arange(n)[:, None], size, axis=1)
    for column in padded:
        state = delta.take(state * (pad + 1) + column)
    outside = np.flatnonzero(state[0] == n)
    if outside.size:
        tid = int(outside[0])
        b = next(b for b in surfaces[tid] if b not in dfa.alphabet)
        raise ValueError(f"token {tid} surface byte {bytes([b])!r} outside the DFA alphabet")
    live = np.full(n, -1, dtype=np.min_scalar_type(-n))  # -1 and every state fit
    co_reachable = list(dfa.co_reachable)
    live[co_reachable] = co_reachable
    table = live.take(state)
    table[:, vocab.eos] = -1
    return table


def load_constraint(path: str | Path, vocab: Vocabulary) -> ConstraintChecker:
    """Build a checker from a constraint file, sniffing format by extension
    (.g grammar, .dfa automaton table)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".g":
        return EarleyChecker(parse_grammar(text), vocab)
    if path.suffix == ".dfa":
        return DfaChecker(load_dfa(text), vocab)
    raise ValueError(f"unknown constraint format {path.suffix!r} (want .g or .dfa)")
