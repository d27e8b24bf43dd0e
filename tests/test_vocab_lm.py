import io
import json
import math

import numpy as np
import pytest

from exsample import Sequence, enumerate_lm, load_table_lm
from exsample.lm import (
    NGramLM,
    NextTokenDistribution,
    TableLM,
    TerminatedPrefixError,
    load_ngram_lm,
    ngram_lm_from_doc,
    sequence_probability,
    table_lm_from_doc,
)
from exsample.vocab import UnterminatedSequenceError, Vocabulary


def test_vocabulary_basics():
    v = Vocabulary.from_tokens(["0", "1", "+", "$"], eos=3)
    assert v.size == 4
    assert v.surfaces[2] == b"+"
    s = v.seq([0, 2, 1, 3])
    assert s.terminated and len(s) == 4
    assert not v.seq([0, 2]).terminated
    assert v.empty().ids == ()


def test_vocabulary_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Vocabulary.from_tokens(["a", ""], eos=0)  # empty non-eos surface
    with pytest.raises(ValueError):
        Vocabulary.from_tokens(["a", "$"], eos=5)
    v = Vocabulary.from_tokens(["a", "b", "$"], eos=2)
    with pytest.raises(ValueError):
        v.seq([2, 0])  # eos not final
    with pytest.raises(ValueError):
        v.seq([7])


def test_encode_decode_longest_match():
    v = Vocabulary.from_tokens(["a", "ab", "b", "$"], eos=3)
    assert v.encode("abab") == (1, 1)
    assert v.encode("aab") == (0, 1)
    assert v.decode(v.seq([0, 2, 3])) == b"ab"
    with pytest.raises(ValueError):
        v.encode("abc")


def test_distribution_renormalizes_and_validates():
    d = NextTokenDistribution([2.0, 2.0])
    assert d[0] == 0.5 and abs(sum(d.probs) - 1) < 1e-9
    assert d.cum[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        NextTokenDistribution([0.5, -0.1])
    with pytest.raises(ValueError):
        NextTokenDistribution([0.0, 0.0])
    with pytest.raises(ValueError):
        NextTokenDistribution([0.5, float("nan")])


@pytest.fixture
def uniform_lm():
    v = Vocabulary.from_tokens(["x", "y", "z", "$"], eos=3)
    return TableLM(v, {}, [0.25] * 4, max_len=3)


def test_uniform_default_everywhere(uniform_lm):
    # empty context map, uniform default: every sub-horizon conditional is 0.25
    for ids in [(), (0,), (1, 2), (0, 0, 0)][:3]:
        dist = uniform_lm.next_distribution(Sequence(ids, False))
        assert np.allclose(dist.probs, 0.25)


def test_truncation_forces_eos(uniform_lm):
    dist = uniform_lm.next_distribution(Sequence((0, 1, 2), False))
    assert dist[uniform_lm.vocab.eos] == 1.0 and dist.probs.sum() == 1.0
    with pytest.raises(ValueError):
        uniform_lm.next_distribution(Sequence((0, 0, 0, 0), False))


def test_terminated_prefix_rejected(uniform_lm):
    with pytest.raises(TerminatedPrefixError):
        uniform_lm.next_distribution(Sequence((0, 3), True))


def test_fig_fixture_mass_split(arith_lm):
    # aggregated masses at the root: invalid-first-token mass and the
    # leading-digit edge
    dist = arith_lm.next_distribution(arith_lm.vocab.empty())
    assert dist[0] == pytest.approx(0.45, abs=1e-12)
    invalid_mass = dist[2] + dist[3]  # '+' and eos cannot begin a sum
    assert invalid_mass == pytest.approx(0.3, abs=1e-12)


def test_sequence_probability_single_factor():
    v = Vocabulary.from_tokens(["x", "$"], eos=1)
    lm = TableLM(v, {(): [0.7, 0.3]}, [0.5, 0.5], max_len=4)
    assert sequence_probability(v.seq([1]), lm) == pytest.approx(0.3)


def test_sequence_probability_matches_telescoping_product(arith_lm):
    w = arith_lm.vocab.seq([0, 2, 1, 3])
    log_p = 0.0
    for i, token in enumerate(w.ids):
        log_p += math.log(arith_lm.next_distribution(Sequence(w.ids[:i], False))[token])
    # same floating operations, so equality is exact
    assert sequence_probability(w, arith_lm) == math.exp(log_p)


def test_sequence_probability_requires_termination(arith_lm):
    with pytest.raises(UnterminatedSequenceError):
        sequence_probability(Sequence((0, 2), False), arith_lm)
    with pytest.raises(ValueError):
        sequence_probability(Sequence((3, 0, 3), True), arith_lm)


def test_total_mass_is_one(arith_lm):
    dist = enumerate_lm(arith_lm)
    assert dist.total == pytest.approx(1.0, abs=1e-6)
    # and the table agrees with sequence_probability on every entry
    some = list(dist.table)[::37]
    for w in some:
        assert dist.table[w] == pytest.approx(sequence_probability(w, arith_lm), abs=1e-15)


# -- table LM loading -------------------------------------------------------

def _doc():
    return {
        "tokens": ["0", "1", "+", "$"],
        "eos": 3,
        "horizon": 5,
        "default": [0.25, 0.25, 0.25, 0.25],
        "contexts": {"0,2": [0.5, 0.5, 0.0, 0.0]},
    }


def test_load_table_lm_roundtrip(tmp_path):
    path = tmp_path / "lm.json"
    path.write_text(json.dumps(_doc()))
    lm = load_table_lm(path)
    d = lm.next_distribution(lm.vocab.seq([0, 2]))
    assert d[0] == 0.5 and d[2] == 0.0


def test_load_table_lm_errors():
    doc = _doc()
    del doc["default"]
    with pytest.raises(ValueError, match="default"):
        table_lm_from_doc(doc)

    doc = _doc()
    doc["default"] = [0.5, 0.5, 0.5, 0.0]  # sums to 1.5
    with pytest.raises(ValueError, match="sum"):
        table_lm_from_doc(doc)

    doc = _doc()
    doc["contexts"]["0,2"] = [0.7, 0.5, -0.2, 0.0]
    with pytest.raises(ValueError, match="negative"):
        table_lm_from_doc(doc)

    with pytest.raises(ValueError, match="malformed"):
        load_table_lm(io.StringIO("{not json"))


def test_load_table_lm_warns_on_small_drift():
    doc = _doc()
    doc["default"] = [0.25, 0.25, 0.25, 0.25002]
    with pytest.warns(UserWarning, match="renormalizing"):
        lm = table_lm_from_doc(doc)
    assert lm.next_distribution(lm.vocab.empty()).probs.sum() == pytest.approx(1.0)


# -- n-gram LM --------------------------------------------------------------

def _count_and_smooth(corpus, order, vocab_size, eos):
    """Independent add-one bigram oracle used to freeze expected values."""
    counts = {}
    for ids in corpus:
        ids = list(ids) + [eos]
        history = [-1] * (order - 1)
        for token in ids:
            ctx = tuple(history[len(history) - (order - 1):]) if order > 1 else ()
            counts.setdefault(ctx, [0] * vocab_size)
            counts[ctx][token] += 1
            history.append(token)
    def prob(ctx, token):
        c = counts.get(tuple(ctx), [0] * vocab_size)
        return (c[token] + 1) / (sum(c) + vocab_size)
    return prob


def test_ngram_against_count_oracle():
    v = Vocabulary.from_tokens(["0", "1", "+", "$"], eos=3)
    corpus = [v.encode("0+1"), v.encode("1")]
    lm = NGramLM(v, order=2, corpus=corpus, max_len=6)
    oracle = _count_and_smooth(corpus, 2, v.size, v.eos)

    got = lm.next_distribution(v.seq([0])).probs
    want = [oracle([0], t) for t in range(4)]
    assert np.allclose(got, want, atol=1e-12)
    # frozen from the count tables: context "0" saw only "+"
    assert got.tolist() == pytest.approx([0.2, 0.2, 0.4, 0.2], abs=1e-12)

    got_root = lm.next_distribution(v.empty()).probs
    assert got_root.tolist() == pytest.approx(
        [1 / 3, 1 / 3, 1 / 6, 1 / 6], abs=1e-12
    )
    # context "+" saw only "1"
    got_plus = lm.next_distribution(v.seq([2])).probs
    assert got_plus.tolist() == pytest.approx([0.2, 0.4, 0.2, 0.2], abs=1e-12)


def test_ngram_has_full_support():
    v = Vocabulary.from_tokens(["a", "b", "$"], eos=2)
    lm = NGramLM(v, order=3, corpus=[v.encode("ab")], max_len=4)
    dist = enumerate_lm(lm)
    assert dist.total == pytest.approx(1.0, abs=1e-9)
    assert all(p > 0 for p in dist.table.values())


def _corpus_doc():
    return {
        "tokens": ["0", "1", "+", "$"],
        "eos": 3,
        "order": 2,
        "horizon": 6,
        "corpus": ["0+1", "1"],
    }


def test_ngram_lm_from_doc_matches_the_file_loader(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(_corpus_doc()))
    from_file = load_ngram_lm(path)
    from_doc = ngram_lm_from_doc(_corpus_doc())
    for ids in [(), (0,), (0, 2), (1, 2, 0)]:
        prefix = from_doc.vocab.seq(ids)
        assert from_doc.next_distribution(prefix).probs.tolist() == (
            from_file.next_distribution(prefix).probs.tolist()
        )
    assert from_doc.max_len == from_file.max_len == 6


def test_load_ngram_lm_errors():
    doc = _corpus_doc()
    del doc["order"]
    with pytest.raises(ValueError, match="n-gram LM document is missing 'order'"):
        ngram_lm_from_doc(doc)
    with pytest.raises(ValueError, match="malformed n-gram LM document"):
        load_ngram_lm(io.StringIO("{not json"))
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_ngram_lm(io.StringIO("[1, 2]"))
