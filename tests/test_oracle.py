import numpy as np
import pytest

from exsample import (
    DfaChecker, EarleyChecker, Sequence, condition, enumerate_lm, make_dfa, parse_grammar
)
from exsample.lm import NGramLM, TableLM
from exsample.oracle import ExactDistribution, constrained_mass, dump_distribution, exact_p
from exsample.trie import InvalidPrefixTrie
from exsample.vocab import Vocabulary
from exsample.oracle import StateSpaceError
from conftest import step_dists


def test_uniform_two_token_enumeration():
    v = Vocabulary.from_tokens(["x", "$"], eos=1)
    lm = TableLM(v, {}, [0.5, 0.5], max_len=2)
    dist = enumerate_lm(lm)
    assert dist.table[v.seq([1])] == pytest.approx(0.5)
    assert dist.table[v.seq([0, 1])] == pytest.approx(0.25)
    # eos forced at the horizon, so the leftover quarter lands on xx$
    assert dist.table[v.seq([0, 0, 1])] == pytest.approx(0.25)
    assert len(dist) == 3
    assert dist.total == pytest.approx(1.0, abs=1e-12)


def test_prefixed_mass_matches_figure_product(arith_lm):
    dist = enumerate_lm(arith_lm)
    mass = sum(p for w, p in dist.table.items() if w.ids[:3] == (0, 2, 2))
    assert mass == pytest.approx(0.091125, abs=1e-12)


def _independent_enumeration(lm):
    """Second enumerator: linear-space products, breadth-first order."""
    out = {}
    frontier = [((), 1.0)]
    while frontier:
        nxt = []
        for ids, prob in frontier:
            dist = lm.next_distribution(Sequence(ids, False))
            for t in range(lm.vocab.size):
                p = prob * dist[t]
                if t == lm.vocab.eos:
                    out[ids + (t,)] = p
                elif len(ids) < lm.max_len:
                    nxt.append((ids + (t,), p))
        frontier = nxt
    return out


def test_ngram_table_matches_independent_enumerator():
    v = Vocabulary.from_tokens(["0", "1", "+", "$"], eos=3)
    lm = NGramLM(v, order=2, corpus=[v.encode("0+1"), v.encode("1")], max_len=4)
    dist = enumerate_lm(lm)
    other = _independent_enumeration(lm)
    assert len(dist) == len(other)
    for w, p in dist.table.items():
        assert p == pytest.approx(other[w.ids], rel=1e-9)


def test_guard_rejects_blowup():
    v = Vocabulary.from_tokens([str(i) for i in range(9)] + ["$"], eos=9)
    lm = TableLM(v, {}, [0.1] * 10, max_len=8)
    with pytest.raises(StateSpaceError):
        enumerate_lm(lm)


def test_condition_on_everything_is_identity(arith_lm):
    vocab = arith_lm.vocab
    anything = EarleyChecker(parse_grammar('S : ("0" | "1" | "+")*\n'), vocab)
    dist = enumerate_lm(arith_lm)
    same = condition(dist, anything)
    assert len(same) == len(dist)
    for w, p in dist.table.items():
        assert same.table[w] == pytest.approx(p, rel=1e-12)
    assert constrained_mass(dist, anything) == pytest.approx(1.0, abs=1e-9)


def test_condition_renormalizes(arith_lm, arith_checker):
    dist = enumerate_lm(arith_lm)
    cond = condition(dist, arith_checker)
    assert cond.total == pytest.approx(1.0)
    assert sum(cond.table.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(arith_checker.is_complete(w) for w in cond.table)


def test_condition_two_word_instance(twoword_lm, twoword_checker):
    dist = enumerate_lm(twoword_lm)
    cond = condition(dist, twoword_checker)
    v = twoword_lm.vocab
    a = cond.table[v.seq([0, 3])]
    bb = cond.table[v.seq([1, 1, 3])]
    assert a == pytest.approx(0.5 / 0.53, rel=1e-12)
    assert bb == pytest.approx(0.03 / 0.53, rel=1e-12)
    assert a == pytest.approx(0.9434, abs=5e-5)


def test_condition_empty_support_errors(arith_lm):
    vocab = arith_lm.vocab
    # members need nine digits, the horizon allows at most seven tokens
    too_long = EarleyChecker(
        parse_grammar('S : "0" "0" "0" "0" "0" "0" "0" "0" "0"\n'), vocab
    )
    with pytest.raises(ValueError, match="no probability mass"):
        condition(enumerate_lm(arith_lm), too_long)


def test_masses_add_left_to_right_on_every_python():
    """Member masses add in table order, one rounding per addition, the
    bits Python 3.10 and 3.11 give; the compensated builtin ``sum`` of
    Python 3.12+ would give 0.6 here."""
    vocab = Vocabulary.from_tokens(["a", "b", "$"], eos=2)
    checker = DfaChecker(make_dfa(1, 0, [0], b"ab", {(0, ord("a")): 0}), vocab)
    table = {vocab.seq([0, 2]): 0.1, vocab.seq([1, 2]): 0.4, vocab.seq([0, 0, 2]): 0.2,
             vocab.seq([0, 0, 0, 2]): 0.3}
    dist = ExactDistribution(table, 1.0)
    assert constrained_mass(dist, checker) == 0.6000000000000001
    assert condition(dist, checker).table[vocab.seq([0, 2])] == 0.1 / 0.6000000000000001


def test_exact_p_empty_invalid_set(arith_lm):
    dist = enumerate_lm(arith_lm)
    for ids in [(), (0,), (0, 2), (1, 2, 1)]:
        assert exact_p(ids, [], dist) == 1.0


def test_exact_p_matches_figure(arith_lm):
    dist = enumerate_lm(arith_lm)
    assert exact_p((), [(0, 2, 2)], dist) == pytest.approx(1 - 0.091125, abs=1e-9)


def test_exact_p_referees_the_trie(arith_lm):
    rng = np.random.default_rng(3)
    dist = enumerate_lm(arith_lm)
    trie = InvalidPrefixTrie()
    inserted = []
    while len(inserted) < 5:
        depth = int(rng.integers(1, 5))
        ids = tuple(int(t) for t in rng.integers(0, 3, size=depth))
        if trie.insert_invalid(arith_lm.vocab.seq(ids), step_dists(arith_lm, ids)) > 0:
            inserted.append(ids)
        leaves = trie.leaves()
        for node_ids, node in trie.nodes():
            assert node.p == pytest.approx(exact_p(node_ids, leaves, dist), abs=1e-9)
        for leaf in leaves:
            assert trie.p_value(leaf) == exact_p(leaf, leaves, dist) == 0.0


def test_dump_format(arith_lm):
    dist = enumerate_lm(arith_lm)
    text = dump_distribution(dist)
    lines = text.splitlines()
    assert len(lines) == len(dist)
    assert lines[0].split("\t")[0] == "0,0,0,0,0,0,0,3"  # lexicographic order
    first_prob = float(lines[0].split("\t")[1])
    assert first_prob == dist.table[arith_lm.vocab.seq([0] * 7 + [3])]
