import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exsample import (
    DfaChecker,
    EarleyChecker,
    NonViablePrefixError,
    make_dfa,
    parse_grammar,
)
from exsample.constraints import ConstraintChecker, load_dfa
from exsample.grammar import EmptyLanguageError, Grammar
from exsample.vocab import Vocabulary

VOCAB = Vocabulary.from_tokens(["0", "1", "+", "$"], eos=3)


def mask_dict(checker, ids):
    m = checker.viability_mask(checker.vocab.seq(ids))
    return {checker.vocab.surfaces[t].decode(): bool(m[t]) for t in range(checker.vocab.size)}


# -- arithmetic grammar examples ---------------------------------------------

def test_arith_mask_at_root(arith_checker):
    assert mask_dict(arith_checker, []) == {"0": True, "1": True, "+": False, "$": False}


def test_arith_mask_after_digit_plus(arith_checker):
    assert mask_dict(arith_checker, [0, 2]) == {"0": True, "1": True, "+": False, "$": False}


def test_arith_membership(arith_checker):
    v = arith_checker.vocab
    assert arith_checker.is_complete(v.seq(v.encode("1+0+1") + (3,)))
    assert not arith_checker.is_complete(v.seq(v.encode("0++") + (3,)))
    assert not arith_checker.is_complete(v.seq(v.encode("+1") + (3,)))
    assert not arith_checker.is_complete(v.seq([3]))  # no empty sum


def test_mask_rejects_nonviable_prefix(arith_checker):
    with pytest.raises(NonViablePrefixError):
        arith_checker.viability_mask(arith_checker.vocab.seq([2, 2]))


def test_right_linear_chain():
    vocab = Vocabulary.from_tokens(["a", "$"], eos=1)
    checker = EarleyChecker(parse_grammar('S : "a" S | "a"\n'), vocab)
    for n in range(1, 6):
        u = vocab.seq([0] * n)
        assert checker.viability_mask(u)[0]
        assert checker.is_complete(vocab.seq([0] * n + [1]))


def test_multibyte_token_surfaces():
    # tokens need not align with grammar terminals byte-for-byte
    vocab = Vocabulary.from_tokens(["ab", "a", "x", "$"], eos=3)
    checker = EarleyChecker(parse_grammar('S : "aba"\n'), vocab)
    m = checker.viability_mask(vocab.empty())
    assert m.tolist() == [True, True, False, False]
    m2 = checker.viability_mask(vocab.seq([0]))  # consumed "ab"
    assert m2.tolist() == [False, True, False, False]
    assert checker.is_complete(vocab.seq([0, 1, 3]))


def test_out_of_alphabet_token_is_nonviable(arith_checker):
    # the vocabulary's eos-adjacent junk tokens are classified, not errors
    vocab = Vocabulary.from_tokens(["0", "1", "+", "z", "$"], eos=4)
    checker = EarleyChecker(
        parse_grammar('E : "0".."1" | "0".."1" "+" E\n'), vocab
    )
    m = checker.viability_mask(vocab.empty())
    assert m.tolist() == [True, True, False, False, False]


def test_nullable_elements():
    vocab = Vocabulary.from_tokens(["a", "b", "$"], eos=2)
    checker = EarleyChecker(parse_grammar('S : "a"? "b"\n'), vocab)
    assert checker.is_complete(vocab.seq([1, 2]))
    assert checker.is_complete(vocab.seq([0, 1, 2]))
    assert not checker.is_complete(vocab.seq([0, 2]))


# -- DFA examples -------------------------------------------------------------

def _pairs_dfa():
    # (01)*
    return make_dfa(
        2, 0, accepting=[0], alphabet=b"01",
        transitions={(0, ord("0")): 1, (1, ord("1")): 0},
    )


def test_dfa_zero_one_pairs():
    vocab = Vocabulary.from_tokens(["0", "1", "$"], eos=2)
    checker = DfaChecker(_pairs_dfa(), vocab)
    m = checker.viability_mask(vocab.seq([0, 1]))
    # brute-force path search over the automaton graph
    assert m.tolist() == _bfs_mask(_pairs_dfa(), vocab, (0, 1))
    assert checker.is_complete(vocab.seq([0, 1, 2]))
    assert not checker.is_complete(vocab.seq([0, 2]))


def test_dfa_digit_plus_digit():
    # 0(+0)*
    dfa = make_dfa(
        3, 0, accepting=[1], alphabet=b"01+",
        transitions={(0, ord("0")): 1, (1, ord("+")): 2, (2, ord("0")): 1},
    )
    checker = DfaChecker(dfa, VOCAB)
    assert mask_dict(checker, [0, 2]) == {"0": True, "1": False, "+": False, "$": False}
    with pytest.raises(NonViablePrefixError):
        checker.viability_mask(VOCAB.seq([2, 2]))


def test_dfa_rejects_uncovered_vocabulary():
    vocab = Vocabulary.from_tokens(["0", "2", "$"], eos=2)
    with pytest.raises(ValueError, match="outside the DFA alphabet"):
        DfaChecker(_pairs_dfa(), vocab)


@pytest.mark.parametrize(
    "tokens, eos, message",
    [
        pytest.param(["0", "1x", "y", "$"], 3, "token 1 surface byte b'x'", id="first-token"),
        pytest.param(["0", "01", "1z0", "$"], 3, "token 2 surface byte b'z'", id="mid-surface"),
        # eos's surface is never read, so the first offending token comes after it
        pytest.param(["0", "$", "10", "0q", "r"], 1, "token 3 surface byte b'q'", id="after-eos"),
    ],
)
def test_dfa_alphabet_error_names_the_first_token_and_byte(tokens, eos, message):
    vocab = Vocabulary.from_tokens(tokens, eos=eos)
    with pytest.raises(ValueError, match=f"^{re.escape(message)} outside the DFA alphabet$"):
        DfaChecker(_pairs_dfa(), vocab)



@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: load_dfa('alphabet ""\nstart 0\naccept 0\n'), id="loaded"),
        pytest.param(lambda: make_dfa(1, 0, [0], b"", {}), id="made"),
    ],
)
def test_dfa_with_an_empty_alphabet_names_the_first_token(build):
    """An automaton with no alphabet has no transitions; every non-eos
    surface byte lies outside it, and the error names the first."""
    with pytest.raises(ValueError, match=r"^token 0 surface byte b'0' outside the DFA alphabet$"):
        DfaChecker(build(), VOCAB)


@pytest.mark.parametrize(
    "alphabet, transitions, message",
    [
        pytest.param([300, 97], {(0, 300): 1, (0, 97): 0}, "alphabet byte 300", id="alphabet-300"),
        pytest.param([97, -1], {(0, 97): 0}, "alphabet byte -1", id="alphabet-negative"),
        pytest.param([97], {(0, 97): 1, (1, 256): 0}, "transition byte 256", id="edge-256"),
        pytest.param([97], {(0, -3): 0}, "transition byte -3", id="edge-negative"),
    ],
)
def test_make_dfa_rejects_bytes_outside_0_255(alphabet, transitions, message):
    with pytest.raises(ValueError, match=f"^{message} outside 0..255$"):
        make_dfa(2, 0, [0], alphabet, transitions)


def test_load_dfa_format(tmp_path):
    text = """
// all strings of 0s of even length
alphabet "01"
start 0
accept 0
0 "0" 1
1 "0" 0
"""
    dfa = load_dfa(text)
    vocab = Vocabulary.from_tokens(["0", "1", "$"], eos=2)
    checker = DfaChecker(dfa, vocab)
    assert checker.is_complete(vocab.seq([0, 0, 2]))
    assert not checker.is_complete(vocab.seq([0, 2]))
    # '1' goes to the implicit dead state
    assert not checker.viability_mask(vocab.empty())[1]


def test_load_dfa_errors():
    with pytest.raises(ValueError, match="alphabet"):
        load_dfa("start 0\naccept 0\n")
    with pytest.raises(ValueError, match="quoted"):
        load_dfa('alphabet "01"\nstart 0\naccept 0\n0 x 1\n')


def test_load_dfa_quoted_slashes_and_spaces_are_bytes():
    """``//`` starts a comment only outside quotes, and an edge's quoted
    field is taken whole, spaces included."""
    text = """
alphabet "a/ "  // a comment after a quoted field
start 0
accept 2
0 "//" 1  // slash goes to 1
1 " " 2
2 "a" 2   // "quotes" in a comment
"""
    dfa = load_dfa(text)
    assert dfa.alphabet == frozenset(b"a/ ")
    vocab = Vocabulary.from_tokens(["/", " ", "a", "$"], eos=3)
    checker = DfaChecker(dfa, vocab)
    assert checker.is_complete(vocab.seq([0, 1, 2, 3]))
    assert checker.is_complete(vocab.seq([0, 1, 3]))
    assert not checker.is_complete(vocab.seq([0, 3]))
    assert load_dfa('alphabet "a/"\nstart 0\n').alphabet == frozenset(b"a/")
    assert load_dfa('alphabet "a/"\nstart 0\n0 "/" 0 // "/"\n').transitions[0, ord("/")] == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ('alphabet\nstart 0\n', r"^1: 'alphabet' needs an argument"),
        ('alphabet "01"\nstart\n', r"^2: 'start' needs an argument"),
        ('alphabet "01"\nstart 0\n// comment\naccept \n', r"^4: 'accept' needs an argument"),
        ('alphabet "01"\nstart x\n', r"^2: expected a state number, got 'x'"),
        ('alphabet "01"\nstart 0\naccept 0 y\n', r"^3: expected a state number, got 'y'"),
        ('alphabet "01"\nstart 0\n0 "0" x\n', r"^3: expected a state number, got 'x'"),
        ('alphabet "01"\nstart 0\nz "0" 1\n', r"^3: expected a state number, got 'z'"),
        ('alphabet "01"\nstart -1\n', r"^2: state -1 is negative"),
        ('alphabet "01"\nstart 0\naccept 0 -3\n', r"^3: state -3 is negative"),
        ('alphabet "01"\nstart 0\n0 "0" -2\n', r"^3: state -2 is negative"),
        ('alphabet "01"\nstart 0\n0 "2" 1\n', r"^3: byte b'2' outside the alphabet"),
        ('alphabet "01"\nstart 0\n0 "0 1\n', r"^3: expected a double-quoted byte string"),
        ('alphabet "01"\nstart 0\n0 "0 1" 1 1\n', r"^3: expected 'SRC \"bytes\" DST'"),
        # the alphabet may come after the edges
        ('start 0\n0 "0" 1\n1 "02" 0\nalphabet "01"\n', r"^3: byte b'2' outside the alphabet"),
        # a later line must not replace an earlier one
        ('alphabet "01"\nstart 0\nstart 1\n', r"^3: second 'start' line \(first on line 2\)"),
        ('alphabet "01"\nstart 0\naccept 1\naccept 0\n', r"^4: second 'accept' line"),
        ('alphabet "01"\nstart 0\nalphabet "0"\n', r"^3: second 'alphabet' line"),
        (
            'alphabet "01"\nstart 0\n0 "0" 1\n0 "0" 0\n',
            r"^4: second edge for state 0 byte b'0' \(first on line 3\)",
        ),
        ('alphabet "01"\nstart 0\n0 "01" 1\n1 "0" 1\n0 "10" 0\n', r"^5: second edge for state 0 byte b'1'"),
    ],
)
def test_load_dfa_bad_lines_name_their_number(text, message):
    with pytest.raises(ValueError, match=message):
        load_dfa(text)


# -- brute-force referees ------------------------------------------------------

def _bfs_mask(dfa, vocab, ids):
    """Path-search oracle: viability by explicit reachability to accepting."""
    def state_after(ids):
        s = dfa.start
        for t in ids:
            for b in vocab.surfaces[t]:
                s = dfa.transitions[(s, b)]
        return s

    def reaches_accept(s):
        seen, frontier = {s}, [s]
        while frontier:
            x = frontier.pop()
            if x in dfa.accepting:
                return True
            for b in dfa.alphabet:
                nxt = dfa.transitions[(x, b)]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    out = []
    for t in range(vocab.size):
        if t == vocab.eos:
            out.append(state_after(ids) in dfa.accepting)
        else:
            out.append(reaches_accept(state_after(ids + (t,))))
    return out


def _derivations(grammar, cap=4000):
    """All byte strings an acyclic grammar derives (exact, finite)."""
    by_lhs = {}
    for lhs, rhs in grammar.productions:
        by_lhs.setdefault(lhs, []).append(rhs)
    memo = {}

    def expand(sym):
        if isinstance(sym, frozenset):
            return {bytes([b]) for b in sym}
        if sym in memo:
            return memo[sym]
        out = set()
        for rhs in by_lhs[sym]:
            parts = [expand(s) for s in rhs]
            words = {b""}
            for choices in parts:
                words = {w + c for w in words for c in choices}
                if len(words) > cap:
                    raise OverflowError
            out |= words
        memo[sym] = out
        return out

    return expand(grammar.start)


# -- randomized agreement properties ------------------------------------------

@st.composite
def random_dfas(draw):
    n = draw(st.integers(2, 6))
    alphabet = b"01+"
    transitions = {}
    for s in range(n):
        for b in alphabet:
            transitions[(s, b)] = draw(st.integers(0, n - 1))
    accepting = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return make_dfa(n, 0, accepting, alphabet, transitions)


def _agrees_with_path_search(dfa, vocab, depth):
    """Every viable prefix of fewer than ``depth`` tokens has the path
    search's mask, and every dead one is dead by the path search too.  A
    DFA whose start is dead is rejected at construction."""
    try:
        checker = DfaChecker(dfa, vocab)
    except EmptyLanguageError:
        assert not any(_bfs_mask(dfa, vocab, ()))
        return
    stack = [()]
    while stack:
        ids = stack.pop()
        want = _bfs_mask(dfa, vocab, ids)
        try:
            got = checker.viability_mask(vocab.seq(ids))
        except NonViablePrefixError:
            # oracle must agree the prefix is dead
            assert not _bfs_mask(dfa, vocab, ids[:-1])[ids[-1]]
            continue
        assert got.tolist() == want
        # eos consistency and monotone viability
        assert checker.is_complete(vocab.seq(ids + (vocab.eos,))) == got[vocab.eos]
        if len(ids) < depth:
            stack.extend(ids + (t,) for t in range(vocab.size) if t != vocab.eos and got[t])


@settings(max_examples=40, deadline=None)
@given(random_dfas())
def test_dfa_agrees_with_path_search(dfa):
    _agrees_with_path_search(dfa, VOCAB, 6)


@st.composite
def ragged_dfa_instances(draw):
    """A DFA over 01+ whose table may miss edges (make_dfa then adds the
    dead state), and a vocabulary of distinct 1-4 byte surfaces over that
    alphabet with eos, "$" and outside it, at any id."""
    n = draw(st.integers(1, 5))
    alphabet = b"01+"
    transitions = {}
    for s in range(n):
        for b in alphabet:
            dst = draw(st.none() | st.integers(0, n - 1))
            if dst is not None:
                transitions[(s, b)] = dst
    accepting = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    surface = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4).map(bytes)
    surfaces = draw(st.lists(surface, min_size=1, max_size=7, unique=True))
    eos = draw(st.integers(0, len(surfaces)))
    surfaces.insert(eos, b"$")
    return make_dfa(n, 0, accepting, alphabet, transitions), Vocabulary(tuple(surfaces), eos)


@settings(max_examples=60, deadline=None)
@given(ragged_dfa_instances())
def test_dfa_with_ragged_surfaces_agrees_with_path_search(instance):
    dfa, vocab = instance
    _agrees_with_path_search(dfa, vocab, 3)


@st.composite
def random_acyclic_grammars(draw):
    n_nts = draw(st.integers(1, 4))
    names = [f"N{i}" for i in range(n_nts)]
    alphabet = b"01+"
    productions = []
    for i, name in enumerate(names):
        n_alts = draw(st.integers(1, 2))
        # first alternative is terminal-only, keeping every symbol productive
        first = tuple(
            frozenset([draw(st.sampled_from(alphabet))])
            for _ in range(draw(st.integers(1, 2)))
        )
        productions.append((name, first))
        for _ in range(n_alts - 1):
            rhs = []
            for _ in range(draw(st.integers(1, 2))):
                if i + 1 < n_nts and draw(st.booleans()):
                    rhs.append(names[draw(st.integers(i + 1, n_nts - 1))])
                else:
                    rhs.append(frozenset([draw(st.sampled_from(alphabet))]))
            productions.append((name, tuple(rhs)))
    return Grammar(names[0], tuple(productions))


@settings(max_examples=40, deadline=None)
@given(random_acyclic_grammars())
def test_earley_agrees_with_derivation_enumeration(grammar):
    try:
        words = _derivations(grammar)
    except OverflowError:
        return
    checker = EarleyChecker(grammar, VOCAB)
    stack = [()]
    while stack:
        ids = stack.pop()
        surface = b"".join(VOCAB.surfaces[t] for t in ids)
        want_viable = any(w.startswith(surface) for w in words)
        try:
            got = checker.viability_mask(VOCAB.seq(ids))
            assert want_viable
        except NonViablePrefixError:
            assert not want_viable
            continue
        assert got[VOCAB.eos] == (surface in words)
        assert checker.is_complete(VOCAB.seq(ids + (VOCAB.eos,))) == got[VOCAB.eos]
        for t in range(VOCAB.size):
            if t == VOCAB.eos:
                continue
            extended = surface + VOCAB.surfaces[t]
            assert got[t] == any(w.startswith(extended) for w in words)
            if got[t] and len(ids) < 5:
                stack.append(ids + (t,))


def test_arith_earley_against_bounded_enumeration(arith_checker):
    # recursive grammar: enumerate derivations to 11 bytes, which covers
    # every completion of a viable prefix of at most 5 tokens (a prefix of
    # k bytes completes within k+2 bytes in this grammar)
    words = set()

    def grow(prefix):
        for d in "01":
            w = prefix + d
            words.add(w.encode())
            if len(w) + 2 <= 11:
                grow(w + "+")

    grow("")
    vocab = arith_checker.vocab
    stack = [()]
    while stack:
        ids = stack.pop()
        surface = vocab.decode(ids)
        got = arith_checker.viability_mask(vocab.seq(ids))
        for t in range(vocab.size):
            if t == vocab.eos:
                assert got[t] == (surface in words)
                continue
            extended = surface + vocab.surfaces[t]
            assert got[t] == any(w.startswith(extended) for w in words)
            if got[t] and len(ids) < 5:
                stack.append(ids + (t,))


def test_empty_language_grammar_rejected_at_construction():
    hopeless = Grammar("S", (("S", ("S",)),))
    with pytest.raises(EmptyLanguageError):
        EarleyChecker(hopeless, VOCAB)


def test_empty_language_dfa_rejected_at_construction():
    # accept 2 has no incoming edge, so start 0 reaches no accepting state
    dfa = load_dfa('alphabet "01+"\nstart 0\naccept 2\n0 "0" 1\n1 "+" 0\n')
    with pytest.raises(EmptyLanguageError, match="start state 0"):
        DfaChecker(dfa, VOCAB)


def test_checkers_are_deterministic(arith_grammar):
    a = EarleyChecker(arith_grammar, VOCAB)
    b = EarleyChecker(arith_grammar, VOCAB)
    for ids in [(), (0,), (0, 2), (1, 2, 0)]:
        assert np.array_equal(a.viability_mask(VOCAB.seq(ids)), b.viability_mask(VOCAB.seq(ids)))


# -- DFA masks per automaton state ----------------------------------------------

AB = Vocabulary.from_tokens(["a", "b", "ab", "ba", "bb", "$"], eos=5)


def _no_bb_dfa():
    """Over a, b: no "bb", not ending in b.  State 0 after a, 1 after b,
    2 the dead state make_dfa adds for the missing (1, b) edge."""
    transitions = {(0, ord("a")): 0, (0, ord("b")): 1, (1, ord("a")): 0}
    return make_dfa(2, 0, [0], b"ab", transitions)


def _count_mask_builds(monkeypatch):
    """Counter of node builds, each with its mask, per checker state, for
    either backend."""
    from collections import Counter

    built = Counter()
    plain = ConstraintChecker._new_node

    def counted(self, state):
        built[state] += 1
        return plain(self, state)

    monkeypatch.setattr(ConstraintChecker, "_new_node", counted)
    return built


def test_dfa_construction_builds_no_mask(monkeypatch):
    built = _count_mask_builds(monkeypatch)
    checker = DfaChecker(_no_bb_dfa(), AB)
    assert not built
    checker.viability_mask(AB.empty())
    assert built == {0: 1}


# the language of _no_bb_dfa as a grammar
NO_BB_GRAMMAR = 'S : ("a" | "b" "a")*\n'
METHODS = ["rs", "ars", "rsft", "cars", "gcd"]


@pytest.mark.parametrize(
    "backend, method",
    [pytest.param("dfa", m, id=m) for m in METHODS]
    + [pytest.param("earley", m, id=f"earley-{m}") for m in METHODS],
)
def test_dfa_run_builds_at_most_one_mask_per_state(backend, method, monkeypatch):
    """Every method builds each state's mask at most once: per automaton
    state for the DFA, per distinct chart for Earley."""
    from exsample import SamplerConfig, run
    from exsample.lm import TableLM

    built = _count_mask_builds(monkeypatch)
    contexts = {(1,): [0.2, 0.3, 0.1, 0.1, 0.1, 0.2], (0, 3): [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]}
    lm = TableLM(AB, contexts, [0.3, 0.2, 0.15, 0.1, 0.15, 0.1], max_len=6)
    dfa = _no_bb_dfa()
    if backend == "dfa":
        checker = DfaChecker(dfa, AB)
    else:
        checker = EarleyChecker(parse_grammar(NO_BB_GRAMMAR), AB)
    cfg = SamplerConfig(method=method, seed=3, max_len=lm.max_len, sample_cap=300)
    stream, metrics = run(lm, checker, cfg)
    assert list(stream) and metrics.generations == 300
    assert max(built.values()) == 1
    if backend == "dfa":
        assert set(built) == set(dfa.co_reachable)


def test_dfa_v1024_token_table_matches_byte_steps(monkeypatch):
    """On the benchmark's V = 1024 instance, ragged 1-6 byte surfaces: a
    step is the byte-by-byte walk through the transition table, from every
    co-reachable state with every token; each state's table row is the
    per-token loop's, and its node's mask is what the walk makes viable."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import WORKLOADS

    lm, checker = WORKLOADS["dfa-v1024"]().build()
    dfa, vocab = checker.dfa, lm.vocab
    assert {len(s) for s in vocab.surfaces} == set(range(1, 7))
    for state in sorted(dfa.co_reachable):
        want_mask = np.zeros(vocab.size, dtype=bool)
        want_next = []
        for token, surface in enumerate(vocab.surfaces):
            if token == vocab.eos:
                want_next.append(None)
                continue
            end = state
            for b in surface:
                end = dfa.transitions[(end, b)]
            want = end if end in dfa.co_reachable else None
            assert checker._step(state, token) == want, (state, token)
            want_next.append(want)
            want_mask[token] = want is not None
        want_mask[vocab.eos] = state in dfa.accepting
        loop = ConstraintChecker._step_all(checker, state)
        assert checker._step_all(state) == want_next == loop
        assert checker._new_node(state).mask.tolist() == want_mask.tolist()


def test_dfa_prefixes_in_one_state_share_one_readonly_mask():
    checker = DfaChecker(_no_bb_dfa(), AB)
    # "a", "ba" and "ab·a" all end after an a: state 0, like the empty prefix
    masks = [checker.viability_mask(AB.seq(ids)) for ids in [(), (0,), (3,), (2, 0)]]
    assert all(m is masks[0] for m in masks)
    after_b = checker.viability_mask(AB.seq((1,)))
    assert checker.viability_mask(AB.seq((2,))) is after_b
    assert after_b is not masks[0]
    for mask in (masks[0], after_b):
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
    assert masks[0].tolist() == _bfs_mask(_no_bb_dfa(), AB, ())
    assert after_b.tolist() == _bfs_mask(_no_bb_dfa(), AB, (1,))


def test_dfa_dead_state_prefix_still_raises():
    checker = DfaChecker(_no_bb_dfa(), AB)
    checker.viability_mask(AB.seq((1,)))
    for ids in [(4,), (1, 1), (0, 4), (2, 4, 0)]:
        for _ in range(2):  # the answer is not cached away
            with pytest.raises(NonViablePrefixError):
                checker.viability_mask(AB.seq(ids))
    assert not checker.is_complete(AB.seq((1, 1, 5)))
    assert checker.is_complete(AB.seq((2, 0, 5)))


def test_earley_prefixes_with_equal_charts_share_one_readonly_mask(arith_lm, arith_grammar):
    checker = EarleyChecker(arith_grammar, arith_lm.vocab)
    v = checker.vocab
    # "0" and "1" both read one digit byte: the same items, the same chart
    after_digit = checker.viability_mask(v.seq([0]))
    assert checker.viability_mask(v.seq([1])) is after_digit
    after_plus = checker.viability_mask(v.seq([1, 2]))
    assert checker.viability_mask(v.seq([0, 2])) is after_plus
    assert checker.viability_mask(v.seq([0, 2, 1])) is checker.viability_mask(v.seq([1, 2, 0]))
    assert after_plus is not after_digit
    assert after_digit is not checker.viability_mask(v.empty())
    for mask in (after_digit, after_plus):
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
    assert mask_dict(checker, [1]) == {"0": False, "1": False, "+": True, "$": True}
    assert mask_dict(checker, [0, 2]) == {"0": True, "1": True, "+": False, "$": False}
