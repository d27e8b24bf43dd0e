"""Context-free grammar definitions: a line-oriented file format, desugaring
of repetition operators, and reduction to reachable + productive rules.

Format, one rule per line::

    name : alternative | alternative    // comment
    E : "0".."1" | "0".."1" "+" E

Terminals are double-quoted byte strings; ``"a".."z"`` is a single-byte
range; postfix ``*`` ``+`` ``?`` repeat the preceding element; ``( ... )``
groups.  Repeated rules for one name extend its alternatives.

Internally a production right-hand side is a tuple of symbols where a
nonterminal is a ``str`` and a terminal is a ``frozenset`` of acceptable
byte values for exactly one input byte (multi-byte quoted literals expand
to one symbol per byte).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Union

Symbol = Union[str, frozenset]
Production = tuple[str, tuple[Symbol, ...]]


class GrammarSyntaxError(ValueError):
    """Grammar source that does not parse; carries line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EmptyLanguageError(ValueError):
    """The constraint accepts nothing: a grammar's start symbol derives no
    string, or a DFA's start state reaches no accepting state."""


@dataclass(frozen=True)
class Grammar:
    start: str
    productions: tuple[tuple, ...]

    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(lhs for lhs, _ in self.productions)

    @property
    def alphabet(self) -> frozenset[int]:
        """All bytes any terminal symbol can consume."""
        out: set[int] = set()
        for _, rhs in self.productions:
            for sym in rhs:
                if isinstance(sym, frozenset):
                    out |= sym
        return frozenset(out)


def nullable_set(productions) -> frozenset[str]:
    """The nonterminals of ``productions`` that derive the empty string."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in productions:
            if lhs in nullable:
                continue
            if all(isinstance(s, str) and s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    return frozenset(nullable)


def reduce_grammar(g: Grammar) -> tuple[Grammar, tuple[str, ...]]:
    """Drop unproductive and unreachable nonterminals.

    Returns the reduced grammar and the removed nonterminal names; raises
    EmptyLanguageError when the start symbol itself dies.
    """
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in g.productions:
            if lhs in productive:
                continue
            if all(not isinstance(s, str) or s in productive for s in rhs):
                productive.add(lhs)
                changed = True
    if g.start not in productive:
        raise EmptyLanguageError(f"start symbol {g.start!r} derives no string")
    kept = [
        (lhs, rhs)
        for lhs, rhs in g.productions
        if lhs in productive
        and all(not isinstance(s, str) or s in productive for s in rhs)
    ]
    reachable = {g.start}
    frontier = [g.start]
    by_lhs: dict[str, list] = {}
    for lhs, rhs in kept:
        by_lhs.setdefault(lhs, []).append(rhs)
    while frontier:
        nt = frontier.pop()
        for rhs in by_lhs.get(nt, ()):
            for sym in rhs:
                if isinstance(sym, str) and sym not in reachable:
                    reachable.add(sym)
                    frontier.append(sym)
    final = tuple((lhs, rhs) for lhs, rhs in kept if lhs in reachable)
    removed = tuple(sorted(g.nonterminals - {lhs for lhs, _ in final}))
    return Grammar(g.start, final), removed


# ---------------------------------------------------------------------------
# file-format front end

_ESCAPES = {"n": 0x0A, "t": 0x09, "r": 0x0D, '"': 0x22, "\\": 0x5C, "0": 0x00}


@dataclass
class _Token:
    kind: str
    value: object
    line: int
    col: int


def _lex(source: str):
    tokens: list[_Token] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            col = i + 1
            if c in " \t":
                i += 1
                continue
            if line.startswith("//", i):
                break
            if c == '"':
                data: list[int] = []
                i += 1
                while True:
                    if i >= n:
                        raise GrammarSyntaxError("unbalanced quote", lineno, col)
                    c = line[i]
                    if c == '"':
                        i += 1
                        break
                    if c == "\\":
                        if i + 1 >= n or line[i + 1] not in _ESCAPES:
                            raise GrammarSyntaxError("bad escape", lineno, i + 1)
                        data.append(_ESCAPES[line[i + 1]])
                        i += 2
                    else:
                        data.extend(c.encode("utf-8"))
                        i += 1
                tokens.append(_Token("string", bytes(data), lineno, col))
                continue
            if line.startswith("..", i):
                tokens.append(_Token("rangeop", "..", lineno, col))
                i += 2
                continue
            if c in ":|()*+?":
                kinds = {
                    ":": "colon",
                    "|": "pipe",
                    "(": "lparen",
                    ")": "rparen",
                    "*": "star",
                    "+": "plus",
                    "?": "qmark",
                }
                tokens.append(_Token(kinds[c], c, lineno, col))
                i += 1
                continue
            if c.isalnum() or c == "_":
                j = i
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(_Token("name", line[i:j], lineno, col))
                i = j
                continue
            raise GrammarSyntaxError(f"unexpected character {c!r}", lineno, col)
        tokens.append(_Token("eol", None, lineno, n + 1))
    return tokens


@dataclass
class _Parser:
    tokens: list[_Token]
    pos: int = 0
    fresh: int = 0
    extra: list = field(default_factory=list)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise GrammarSyntaxError(f"expected {kind}, found {tok.kind}", tok.line, tok.col)
        self.pos += 1
        return tok

    def fresh_name(self, base: str) -> str:
        self.fresh += 1
        return f"%{base}{self.fresh}"

    def parse(self) -> Grammar:
        rules: dict[str, list] = {}
        order: list[str] = []
        while self.pos < len(self.tokens):
            if self.peek().kind == "eol":
                self.pos += 1
                continue
            name = self.take("name").value
            self.take("colon")
            alts = self.parse_alternatives()
            self.take("eol")
            if name not in rules:
                rules[name] = []
                order.append(name)
            rules[name].extend(alts)
        if not order:
            raise GrammarSyntaxError("empty grammar", 1, 1)
        productions = []
        for name in order:
            for alt in rules[name]:
                productions.append((name, tuple(alt)))
        productions.extend(self.extra)
        return Grammar(order[0], tuple(productions))

    def parse_alternatives(self) -> list[list]:
        alts = [self.parse_sequence()]
        while self.peek().kind == "pipe":
            self.pos += 1
            alts.append(self.parse_sequence())
        return alts

    def parse_sequence(self) -> list:
        seq: list = []
        while True:
            tok = self.peek()
            if tok.kind in ("eol", "pipe", "rparen"):
                if not seq:
                    raise GrammarSyntaxError("empty alternative", tok.line, tok.col)
                return seq
            seq.extend(self.parse_element())

    def parse_element(self) -> list:
        """One element with its postfix operators, as a list of symbols."""
        tok = self.peek()
        if tok.kind == "string":
            self.pos += 1
            if self.peek().kind == "rangeop":
                self.pos += 1
                hi = self.take("string")
                lo = tok.value
                if len(lo) != 1 or len(hi.value) != 1:
                    raise GrammarSyntaxError("range endpoints must be single bytes", tok.line, tok.col)
                if lo[0] > hi.value[0]:
                    raise GrammarSyntaxError("empty byte range", tok.line, tok.col)
                symbols = [frozenset(range(lo[0], hi.value[0] + 1))]
            else:
                if not tok.value:
                    raise GrammarSyntaxError("empty terminal string", tok.line, tok.col)
                symbols = [frozenset((b,)) for b in tok.value]
        elif tok.kind == "name":
            self.pos += 1
            symbols = [tok.value]
        elif tok.kind == "lparen":
            self.pos += 1
            alts = self.parse_alternatives()
            self.take("rparen")
            group = self.fresh_name("grp")
            for alt in alts:
                self.extra.append((group, tuple(alt)))
            symbols = [group]
        else:
            raise GrammarSyntaxError(f"unexpected {tok.kind}", tok.line, tok.col)

        while self.peek().kind in ("star", "plus", "qmark"):
            op = self.take(self.peek().kind)
            body = tuple(symbols)
            wrapper = self.fresh_name("rep")
            if op.kind == "star":
                self.extra.append((wrapper, body + (wrapper,)))
                self.extra.append((wrapper, ()))
            elif op.kind == "plus":
                self.extra.append((wrapper, body + (wrapper,)))
                self.extra.append((wrapper, body))
            else:
                self.extra.append((wrapper, body))
                self.extra.append((wrapper, ()))
            symbols = [wrapper]
        return symbols


def parse_grammar(source: str) -> Grammar:
    """Parse and reduce grammar source text.

    Warns with a diagnostic when reduction removes unproductive or
    unreachable symbols; raises GrammarSyntaxError / EmptyLanguageError.
    """
    grammar = _Parser(_lex(source)).parse()
    reduced, removed = reduce_grammar(grammar)
    visible = [name for name in removed if not name.startswith("%")]
    if visible:
        warnings.warn(
            "removed unproductive/unreachable symbols: " + ", ".join(visible),
            stacklevel=2,
        )
    return reduced
