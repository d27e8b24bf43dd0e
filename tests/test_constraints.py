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
from exsample.constraints import load_dfa
from exsample.grammar import Grammar
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


@settings(max_examples=40, deadline=None)
@given(random_dfas())
def test_dfa_agrees_with_path_search(dfa):
    checker = DfaChecker(dfa, VOCAB)
    stack = [()]
    while stack:
        ids = stack.pop()
        want = _bfs_mask(dfa, VOCAB, ids)
        try:
            got = checker.viability_mask(VOCAB.seq(ids))
        except NonViablePrefixError:
            # oracle must agree the prefix is dead
            assert ids == () or not _bfs_mask(dfa, VOCAB, ids[:-1])[ids[-1]]
            continue
        assert got.tolist() == want
        # eos consistency and monotone viability
        assert checker.is_complete(VOCAB.seq(ids + (VOCAB.eos,))) == got[VOCAB.eos]
        if len(ids) < 6:
            stack.extend(ids + (t,) for t in range(VOCAB.size) if t != VOCAB.eos and got[t])


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
    from exsample.grammar import EmptyLanguageError

    hopeless = Grammar("S", (("S", ("S",)),))
    with pytest.raises(EmptyLanguageError):
        EarleyChecker(hopeless, VOCAB)


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
    """Counter of DfaChecker mask builds per automaton state."""
    from collections import Counter

    built = Counter()
    plain = DfaChecker._build_mask

    def counted(self, state):
        built[state] += 1
        return plain(self, state)

    monkeypatch.setattr(DfaChecker, "_build_mask", counted)
    return built


def test_dfa_construction_builds_no_mask(monkeypatch):
    built = _count_mask_builds(monkeypatch)
    checker = DfaChecker(_no_bb_dfa(), AB)
    assert not built
    checker.viability_mask(AB.empty())
    assert built == {0: 1}


@pytest.mark.parametrize("method", ["rs", "ars", "rsft", "cars", "gcd"])
def test_dfa_run_builds_at_most_one_mask_per_state(method, monkeypatch):
    from exsample import SamplerConfig, run
    from exsample.lm import TableLM

    built = _count_mask_builds(monkeypatch)
    contexts = {(1,): [0.2, 0.3, 0.1, 0.1, 0.1, 0.2], (0, 3): [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]}
    lm = TableLM(AB, contexts, [0.3, 0.2, 0.15, 0.1, 0.15, 0.1], max_len=6)
    dfa = _no_bb_dfa()
    checker = DfaChecker(dfa, AB)
    cfg = SamplerConfig(method=method, seed=3, max_len=lm.max_len, sample_cap=300)
    stream, metrics = run(lm, checker, cfg)
    assert list(stream) and metrics.generations == 300
    assert set(built) == set(dfa.co_reachable)
    assert max(built.values()) == 1


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
