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
of L extends the prefix.  The memo lives in one place, the base class: the
state of every prefix queried, and one read-only mask per live state, so
all prefixes that reach one state share one mask.  A mask is built from
``_step_all(state)``, which by default steps each token on its own; a
backend that can step all tokens at once overrides it.  The DFA backend
does: it steps every surface from every state when it is built, so that
afterwards a step is one table lookup and a mask one table row.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grammar import Grammar, nullable_set, parse_grammar, reduce_grammar
from .vocab import Sequence, UnterminatedSequenceError, Vocabulary

_MISSING = object()


class NonViablePrefixError(ValueError):
    """A mask was requested for a prefix that cannot reach the language."""


class ConstraintChecker(ABC):
    """A token automaton with the memo of its answers.  A subclass sets up
    what its ``_start`` needs before it calls this ``__init__``."""

    def __init__(self, vocab: Vocabulary) -> None:
        self.vocab = vocab
        self._states: dict[tuple[int, ...], Hashable | None] = {(): self._start()}
        self._masks: dict[Hashable, np.ndarray] = {}

    def viability_mask(self, u: Sequence) -> np.ndarray:
        """Read-only boolean vector over the vocabulary: bit a iff u·a is
        viable.

        Raises NonViablePrefixError when u itself is not viable; querying
        such a prefix indicates a sampler bug, not a rejected sample.
        """
        if u.terminated:
            raise ValueError("cannot extend a terminated sequence")
        state = self._state(u.ids)
        if state is None:
            raise NonViablePrefixError(f"prefix {u.ids} is not viable")
        mask = self._masks.get(state)
        if mask is None:
            mask = self._masks[state] = self._build_mask(state)
        return mask

    def is_complete(self, w: Sequence) -> bool:
        """Membership test for a terminated sequence."""
        if not w.terminated:
            raise UnterminatedSequenceError("membership needs a terminated sequence")
        state = self._state(w.ids[:-1])
        return state is not None and self._accepts(state)

    def _state(self, ids: tuple[int, ...]) -> Hashable | None:
        """The state of prefix ``ids``, stepped on from its longest
        memoized prefix; every prefix stepped through is memoized."""
        state = self._states.get(ids, _MISSING)
        if state is _MISSING:
            k = len(ids) - 1
            while (state := self._states.get(ids[:k], _MISSING)) is _MISSING:
                k -= 1
            for k in range(k, len(ids)):
                if state is not None:
                    state = self._step(state, ids[k])
                self._states[ids[: k + 1]] = state
        return state

    def _build_mask(self, state: Hashable) -> np.ndarray:
        """The read-only mask of a live state: every token stepped from it,
        and the eos bit from acceptance."""
        mask = self._step_all(state)
        mask[self.vocab.eos] = self._accepts(state)
        mask.flags.writeable = False
        return mask

    def _step_all(self, state: Hashable) -> np.ndarray:
        """A new boolean vector over the vocabulary: bit a iff
        ``_step(state, a)`` is live, for a live state (the eos bit is not
        read).  A backend that can step every token at once overrides
        this; by default each token is stepped on its own."""
        live = np.zeros(self.vocab.size, dtype=bool)
        for token in range(self.vocab.size):
            if token != self.vocab.eos:
                live[token] = self._step(state, token) is not None
        return live

    @abstractmethod
    def _start(self) -> Hashable | None:
        """The state of the empty prefix."""

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
        if not seed:
            return frozenset()
        return self._closure(cols, seed, pos)

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

    n_states: int
    start: int
    accepting: frozenset[int]
    alphabet: frozenset[int]
    transitions: dict
    co_reachable: frozenset[int]


def make_dfa(
    n_states: int,
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
    if not 0 <= start < n_states:
        raise ValueError("start state out of range")
    if any(not 0 <= s < n_states for s in accepting):
        raise ValueError("accepting state out of range")
    table = {}
    need_dead = False
    for (src, byte), dst in transitions.items():
        src, byte, dst = int(src), int(byte), int(dst)
        if not 0 <= byte <= 255:
            raise ValueError(f"transition byte {byte} outside 0..255")
        if byte not in alphabet:
            raise ValueError(f"transition byte {byte} outside the DFA alphabet")
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise ValueError("transition state out of range")
        table[(src, byte)] = dst
    dead = n_states
    for s in range(n_states):
        for b in alphabet:
            if (s, b) not in table:
                table[(s, b)] = dead
                need_dead = True
    total_states = n_states + 1 if need_dead else n_states
    if need_dead:
        for b in alphabet:
            table[(dead, b)] = dead
    # backward reachability from accepting states
    preds: dict[int, set[int]] = {s: set() for s in range(total_states)}
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
    return DfaConstraint(
        total_states, start, accepting, alphabet, table, frozenset(co)
    )


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
    n_states = max(max_state, start, max(accepting, default=0)) + 1
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
    return make_dfa(n_states, start, accepting, alphabet, transitions)


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
    acceptance.  So at most one mask is built per co-reachable state,
    however many prefixes are queried.

    Construction runs every surface through the byte automaton at once,
    from every state, into a token table: row s holds, per token, the live
    state its bytes lead to from s, or -1.  A step is then one lookup and
    a state's mask one row compare, whatever the surfaces' lengths.  The
    table has S×V entries for S automaton states and V tokens, in the
    narrowest integer type that holds -1 and every state.
    """

    def __init__(self, dfa: DfaConstraint, vocab: Vocabulary) -> None:
        self.dfa = dfa
        self._next = _token_table(dfa, vocab)
        super().__init__(vocab)

    def _start(self) -> int | None:
        return self.dfa.start if self.dfa.start in self.dfa.co_reachable else None

    def _step(self, state: int, token: int) -> int | None:
        state = self._next.item(state, token)
        return None if state < 0 else state

    def _step_all(self, state: int) -> np.ndarray:
        return self._next[state] >= 0

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
    n, size = dfa.n_states, vocab.size
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
