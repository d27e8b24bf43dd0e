import copy
import io
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exsample import Sequence, enumerate_lm, load_table_lm
from exsample.cli import ExperimentConfig, load_lm
from exsample.lm import (
    NGramLM,
    NextTokenDistribution,
    TableLM,
    TerminatedPrefixError,
    draw_index,
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


def test_sequence_is_an_immutable_value():
    s = Sequence((0, 2, 1, 3), True)
    with pytest.raises(AttributeError):
        s.ids = (0,)
    with pytest.raises(AttributeError):
        s.terminated = False
    with pytest.raises(AttributeError):
        del s.ids
    assert s.ids == (0, 2, 1, 3) and s.terminated
    same = Sequence(ids=(0, 2, 1, 3), terminated=True)
    assert same == s and hash(same) == hash(s) and same is not s
    assert len({s, same}) == 1
    assert s != Sequence((0, 2, 1, 3), False)
    assert s != Sequence((0, 2, 1), True)
    assert s != ((0, 2, 1, 3), True) and s != (0, 2, 1, 3)
    assert repr(s) == "Sequence(ids=(0, 2, 1, 3), terminated=True)"
    assert len(s) == 4 and len(Sequence((), False)) == 0
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s)
        assert type(twin) is Sequence


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


def _encode_by_scan(vocab, text):
    """The first ``Vocabulary.encode``: at each offset every token but eos
    is tried, longest surface first, the lowest id first among equals."""
    by_len = sorted(
        (t for t in range(vocab.size) if t != vocab.eos),
        key=lambda t: len(vocab.surfaces[t]),
        reverse=True,
    )
    out, pos = [], 0
    while pos < len(text):
        for t in by_len:
            s = vocab.surfaces[t]
            if text[pos : pos + len(s)] == s:
                out.append(t)
                pos += len(s)
                break
        else:
            raise ValueError(f"cannot tokenize byte {text[pos:pos+1]!r} at offset {pos}")
    return tuple(out)


def _random_bytes(rng, letters, max_len):
    return bytes(rng.choice(list(letters), size=int(rng.integers(0, max_len + 1))).tolist())


@pytest.mark.parametrize("case", ["v1024", "duplicates"])
def test_encode_matches_the_scan_over_every_token(case):
    """Greedy longest match, ties to the lowest id, eos never used, and the
    same error for an untokenizable byte, on random strings: a V = 1024
    vocabulary of 1-6 byte surfaces, and a small one with repeated
    surfaces, one of them eos's."""
    rng = np.random.default_rng(1024)
    if case == "v1024":
        every = [bytes(p) for n in range(1, 7) for p in itertools.product(b"abc", repeat=n)]
        surfaces = [every[i] for i in rng.permutation(len(every))[:1023]]
        vocab = Vocabulary(tuple(surfaces) + (b"$",), eos=1023)
        letters, max_len, n = b"abc" * 8 + b"d", 24, 300  # d is in no surface
    else:
        tokens = ["ab", "b", "a", "ab", "ba", "a", "bab", "b", "c"]
        vocab = Vocabulary.from_tokens(tokens, eos=2)  # eos's "a" is token 5's too
        letters, max_len, n = b"abc" * 4 + b"d", 12, 2000
    for _ in range(n):
        text = _random_bytes(rng, letters, max_len)
        try:
            want = _encode_by_scan(vocab, text)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                vocab.encode(text)
        else:
            assert vocab.encode(text) == want, text


def test_distribution_renormalizes_and_validates():
    d = NextTokenDistribution([2.0, 2.0])
    assert d[0] == 0.5 and abs(sum(d.probs) - 1) < 1e-9
    assert d.cdf[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        NextTokenDistribution([0.5, -0.1])
    with pytest.raises(ValueError):
        NextTokenDistribution([0.0, 0.0])
    with pytest.raises(ValueError):
        NextTokenDistribution([0.5, float("nan")])


def _draw_by_scan(probs, cdf, u):
    """Referee of ``draw_index``: the first positive-mass index whose
    running sum reaches min(u, total), by a scan."""
    target = min(u, cdf[-1])
    return next(i for i, (p, c) in enumerate(zip(probs, cdf)) if p > 0.0 and c >= target)


@pytest.mark.parametrize(
    "probs",
    [
        [0.0, 0.0, 0.25, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0],  # zeros first, between, last
        [0.0, 0.125, 0.0, 0.0, 0.25, 0.125],  # total 0.5: every u above it too
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.1] * 10,  # inexact running sums
    ],
)
def test_draw_index_matches_a_scan_on_every_boundary(probs):
    """u = 0, every running sum and its neighbouring floats, and u above
    the total draw the referee's index, which has positive mass."""
    cdf = np.cumsum(probs).tolist()
    grid = [0.0, 5e-324, 0.5, 0.75, 1.0 - 2.0**-53]
    for c in cdf:
        grid += [c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)]
    for u in grid:
        if u < 1.0:
            i = draw_index(cdf, u)
            assert i == _draw_by_scan(probs, cdf, u) and probs[i] > 0.0, u
    assert draw_index(cdf, 0.0) == next(i for i, p in enumerate(probs) if p > 0.0)


def test_draw_index_shortfall_takes_the_first_index_at_the_total():
    """Tokens 2 and 3 have mass too small to move the running sum, so the
    total falls short of 1 by an ulp; a u above it draws token 1, the
    first index whose running sum reaches the total, not the last
    positive-mass token."""
    probs = [0.5, 0.5 - 2.0**-52, 1e-17, 1e-17]
    cdf = np.cumsum(probs).tolist()
    assert cdf[1] == cdf[2] == cdf[3] == 1.0 - 2.0**-52
    u = 1.0 - 2.0**-53
    assert draw_index(cdf, u) == _draw_by_scan(probs, cdf, u) == 1


_mass = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(1e-20, 1e-15))


@settings(max_examples=300, deadline=None)
@given(st.lists(_mass, min_size=1, max_size=40).filter(any), st.data())
def test_draw_index_lands_on_positive_mass(weights, data):
    """For any conditional with zero-mass entries and any u in [0, 1), the
    drawn index has positive mass and, when 0 < u <= total, is the one
    whose running sums bracket u: prev < u <= cdf[i]."""
    dist = NextTokenDistribution(weights)
    probs, cdf = dist.probs.tolist(), dist.cdf
    u = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(cdf)))
    if u >= 1.0:
        return
    i = draw_index(cdf, u)
    assert probs[i] > 0.0
    if 0.0 < u <= cdf[-1]:
        prev = cdf[i - 1] if i else 0.0
        assert prev < u <= cdf[i]
    assert i == _draw_by_scan(probs, cdf, u)


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


@pytest.mark.parametrize(
    "field, index, bad",
    [("default", 1, "0.25"), ("default", 3, False), ("contexts", 0, True), ("contexts", 2, None)],
)
def test_table_lm_probabilities_must_be_json_numbers(field, index, bad):
    """An entry that only coerces to a float is refused, by field and index."""
    doc = _doc()
    vec = doc["default"] if field == "default" else doc["contexts"]["0,2"]
    vec[index] = bad
    where = "default vector" if field == "default" else "context '0,2'"
    want = f"{where}: entry {index} is {bad!r}, not a number"
    with pytest.raises(ValueError, match=re.escape(want)):
        table_lm_from_doc(doc)


@pytest.mark.parametrize(
    "field, index, big",
    [("default", 2, 10**400), ("contexts", 0, -(10**309))],
    ids=["default", "context"],
)
def test_table_lm_probabilities_must_fit_a_float(field, index, big):
    """A JSON integer beyond the float range is refused by vector and
    index, not passed on as an OverflowError."""
    doc = _doc()
    vec = doc["default"] if field == "default" else doc["contexts"]["0,2"]
    vec[index] = big
    where = "default vector" if field == "default" else "context '0,2'"
    want = f"{where}: entry {index} is too large for a float"
    with pytest.raises(ValueError, match=re.escape(want)):
        table_lm_from_doc(doc)


@pytest.mark.parametrize(
    "field, bad", [("eos", 2.9), ("eos", 3.0), ("eos", True), ("horizon", "3"), ("horizon", None)]
)
def test_table_lm_eos_and_horizon_must_be_json_integers(field, bad):
    doc = _doc()
    doc[field] = bad
    want = f"table LM document field {field!r} must be an integer, not {bad!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        table_lm_from_doc(doc)


@pytest.mark.parametrize(
    "field, bad", [("eos", "3"), ("eos", False), ("order", 2.0), ("order", "2"), ("horizon", 6.5)]
)
def test_ngram_lm_integer_fields_must_be_json_integers(field, bad):
    doc = _corpus_doc()
    doc[field] = bad
    want = f"n-gram LM document field {field!r} must be an integer, not {bad!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        ngram_lm_from_doc(doc)


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


def _load_file_lm(path):
    """The model in an LM file, read as ``exsample --lm path`` reads it."""
    return load_lm(ExperimentConfig(lm=str(path), constraint="unused.g"))


def test_ngram_lm_from_doc_matches_the_file_loader(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(_corpus_doc()))
    from_file = _load_file_lm(path)
    from_doc = ngram_lm_from_doc(_corpus_doc())
    assert isinstance(from_file, NGramLM)
    for ids in [(), (0,), (0, 2), (1, 2, 0)]:
        prefix = from_doc.vocab.seq(ids)
        assert from_doc.next_distribution(prefix).probs.tolist() == (
            from_file.next_distribution(prefix).probs.tolist()
        )
    assert from_doc.max_len == from_file.max_len == 6


def test_load_ngram_lm_errors(tmp_path):
    doc = _corpus_doc()
    del doc["order"]
    with pytest.raises(ValueError, match="n-gram LM document is missing 'order'"):
        ngram_lm_from_doc(doc)
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="n-gram LM document is missing 'order'"):
        _load_file_lm(path)
    # a file that is not JSON, or not an object: test_cli's
    # test_bad_json_file_is_a_value_error_naming_it[*-lm]
