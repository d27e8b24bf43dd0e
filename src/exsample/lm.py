"""Autoregressive language models: a shared interface plus table, n-gram and
remote-endpoint implementations.

Probabilities are 64-bit floats in linear space; whole-sequence products are
accumulated in log space and exponentiated once.  Every implementation is
immutable after construction, deterministic per prefix, and collapses to an
eos point mass once a prefix reaches the truncation horizon, so total mass
over terminated sequences is 1.
"""

from __future__ import annotations

import http.client
import json
import math
import urllib.error
import urllib.request
import warnings
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import IO, Iterable, Mapping

import numpy as np

from .vocab import Sequence, UnterminatedSequenceError, Vocabulary


class TerminatedPrefixError(ValueError):
    """next_distribution was asked to continue past an eos token."""


class TransportError(RuntimeError):
    """The remote logit endpoint failed or returned an unusable response."""


# Vector-sum drift handling in load_table_lm: below _SUM_WARN we renormalize
# silently, up to _SUM_HARD we renormalize with a warning, beyond that the
# document is rejected as malformed.
_SUM_WARN = 1e-6
_SUM_HARD = 1e-3


class NextTokenDistribution:
    """One conditional P(.|u) over the full vocabulary, renormalized on build."""

    __slots__ = ("probs", "_cdf")

    def __init__(self, probs) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("probability vector must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probability vector has non-finite entries")
        if np.any(arr < 0):
            raise ValueError("negative probability")
        total = float(arr.sum())
        if total <= 0.0:
            raise ValueError("probability vector sums to zero")
        arr = arr / total
        arr.flags.writeable = False
        self.probs = arr
        self._cdf = None

    @property
    def cdf(self) -> list[float]:
        """The running sums of ``probs`` as a Python list, cached: the
        table of ``draw_index``, as bisecting a list is several times
        faster than searching an array."""
        if self._cdf is None:
            self._cdf = np.cumsum(self.probs).tolist()
        return self._cdf

    def __getitem__(self, token: int) -> float:
        return float(self.probs[token])

    def __len__(self) -> int:
        return len(self.probs)


def draw_index(cdf: list[float], u: float) -> int:
    """Inverse-CDF draw over running sums ``cdf``: the first index whose
    running sum reaches u, or exceeds 0 for u = 0.  A sum reaches a target
    its predecessor's did not only if its own term is positive, so the
    index has positive mass.  A u above the total (a floating shortfall)
    draws the first index whose running sum reaches the total."""
    if u > 0.0:
        i = bisect_left(cdf, u)
        return i if i < len(cdf) else bisect_left(cdf, cdf[-1])
    return bisect_right(cdf, 0.0)


class LanguageModel(ABC):
    """Next-token model over a vocabulary, truncated at horizon ``max_len``."""

    def __init__(self, vocab: Vocabulary, max_len: int) -> None:
        if max_len < 1:
            raise ValueError("horizon must be a positive integer")
        self.vocab = vocab
        self.max_len = max_len
        point = np.zeros(vocab.size)
        point[vocab.eos] = 1.0
        self._eos_mass = NextTokenDistribution(point)

    def next_distribution(self, prefix: Sequence) -> NextTokenDistribution:
        """P(.|prefix); the eos point mass once the horizon is reached."""
        if prefix.terminated:
            raise TerminatedPrefixError("cannot extend a terminated sequence")
        n = len(prefix.ids)
        if n > self.max_len:
            raise ValueError(f"prefix length {n} exceeds horizon {self.max_len}")
        if n == self.max_len:
            return self._eos_mass
        return self._conditional(prefix.ids)

    @abstractmethod
    def _conditional(self, ids: tuple[int, ...]) -> NextTokenDistribution:
        """The stored conditional for a sub-horizon, unterminated prefix."""


def sequence_probability(w: Sequence, lm: LanguageModel) -> float:
    """P(w): the chain-rule product over w's tokens, accumulated in log space."""
    if not w.terminated:
        raise UnterminatedSequenceError("sequence probability needs a terminated sequence")
    if lm.vocab.eos in w.ids[:-1]:
        raise ValueError("eos appears before the end of the sequence")
    log_p = 0.0
    for i, token in enumerate(w.ids):
        step = lm.next_distribution(Sequence(w.ids[:i], False))[token]
        if step == 0.0:
            return 0.0
        log_p += math.log(step)
    return math.exp(log_p)


class TableLM(LanguageModel):
    """Lookup model: explicit conditionals for some contexts, one default
    vector everywhere else.  All distributions are built once and shared."""

    def __init__(
        self,
        vocab: Vocabulary,
        contexts: Mapping[tuple[int, ...], Iterable[float]],
        default: Iterable[float],
        max_len: int,
    ) -> None:
        super().__init__(vocab, max_len)
        self._default = self._vector(default)
        self._table = {tuple(ctx): self._vector(v) for ctx, v in contexts.items()}

    def _vector(self, values) -> NextTokenDistribution:
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.shape != (self.vocab.size,):
            raise ValueError(
                f"probability vector of length {arr.size} does not match "
                f"vocabulary size {self.vocab.size}"
            )
        return NextTokenDistribution(arr)

    def _conditional(self, ids: tuple[int, ...]) -> NextTokenDistribution:
        return self._table.get(ids, self._default)


def _floats(values: list, label: str) -> list[float]:
    """``values``, JSON numbers, as floats; a ValueError names ``label`` and
    the first entry that is no number or lies beyond the float range."""
    numbers = {int, float}  # what a JSON number parses to; a bool is neither
    if not set(map(type, values)) <= numbers:
        bad = next(i for i, x in enumerate(values) if type(x) not in numbers)
        raise ValueError(f"{label} entry {bad} is {values[bad]!r}, not a number")
    try:
        return list(map(float, values))
    except OverflowError:  # a JSON integer beyond the float range
        for i, x in enumerate(values):
            try:
                float(x)
            except OverflowError:
                raise ValueError(f"{label} entry {i} is too large for a float") from None
        raise


def _int_field(doc: Mapping, field: str, kind: str) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{kind} document field {field!r} must be an integer, not {value!r}")
    return value


def vocab_from_doc(doc: Mapping, kind: str) -> Vocabulary:
    """The vocabulary of a parsed ``kind`` document: its ``tokens`` and
    its ``eos``, which must be a JSON integer."""
    return Vocabulary.from_tokens(doc["tokens"], _int_field(doc, "eos", kind))


def _checked_vector(raw, size: int, where: str) -> list[float]:
    if not isinstance(raw, list) or len(raw) != size:
        raise ValueError(f"{where}: expected a probability array of length {size}")
    vec = _floats(raw, f"{where}:")
    if any(x < 0 for x in vec):
        raise ValueError(f"{where}: negative probability")
    drift = abs(sum(vec) - 1.0)
    if drift > _SUM_HARD:
        raise ValueError(f"{where}: probabilities sum to {sum(vec):.6g}, not 1")
    if drift > _SUM_WARN:
        warnings.warn(f"{where}: renormalizing vector off by {drift:.3g}", stacklevel=3)
    return vec


def _parse_context_key(key: str, vocab: Vocabulary) -> tuple[int, ...]:
    if key == "":
        return ()
    try:
        ids = tuple(int(part) for part in key.split(","))
    except ValueError:
        raise ValueError(f"malformed context key {key!r}") from None
    return vocab.seq(ids).ids


def read_doc(source: str | Path | IO[str], kind: str) -> dict:
    """The JSON object in ``source`` (path or open file); anything else is
    a ValueError that names the file."""
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", "<stream>")
    else:
        text = Path(source).read_text(encoding="utf-8")
        name = source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {kind} document {name}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} document {name} must be a JSON object")
    return doc


def table_lm_from_doc(doc: Mapping) -> TableLM:
    """Build a TableLM from a parsed table-LM document (see README format)."""
    for field in ("tokens", "eos", "horizon", "default"):
        if field not in doc:
            raise ValueError(f"table LM document is missing {field!r}")
    vocab = vocab_from_doc(doc, "table LM")
    horizon = _int_field(doc, "horizon", "table LM")
    default = _checked_vector(doc["default"], vocab.size, "default vector")
    contexts = {}
    for key, raw in doc.get("contexts", {}).items():
        ids = _parse_context_key(key, vocab)
        contexts[ids] = _checked_vector(raw, vocab.size, f"context {key!r}")
    return TableLM(vocab, contexts, default, horizon)


def ngram_lm_from_doc(doc: Mapping) -> NGramLM:
    """Build an NGramLM from a parsed corpus document (see README format)."""
    for field in ("tokens", "eos", "order", "horizon", "corpus"):
        if field not in doc:
            raise ValueError(f"n-gram LM document is missing {field!r}")
    vocab = vocab_from_doc(doc, "n-gram LM")
    order, horizon = (_int_field(doc, f, "n-gram LM") for f in ("order", "horizon"))
    corpus = [vocab.encode(line) for line in doc["corpus"]]
    return NGramLM(vocab, order, corpus, horizon)


def load_table_lm(source: str | Path | IO[str]) -> TableLM:
    """Load a table LM from a JSON document (path or open file)."""
    return table_lm_from_doc(read_doc(source, "table LM"))


class NGramLM(LanguageModel):
    """Fixed-order n-gram model with add-one smoothing.

    Contexts are the last order-1 tokens, left-padded at the start of a
    sequence; smoothing gives every token non-zero mass everywhere.
    """

    _BOS = -1

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        corpus: Iterable[Iterable[int]],
        max_len: int,
    ) -> None:
        super().__init__(vocab, max_len)
        if order < 1:
            raise ValueError("n-gram order must be >= 1")
        self.order = order
        counts: dict[tuple[int, ...], np.ndarray] = {}
        for entry in corpus:
            ids = tuple(int(t) for t in entry)
            if vocab.eos in ids[:-1]:
                raise ValueError("corpus sequence has eos before its end")
            if not ids or ids[-1] != vocab.eos:
                ids = ids + (vocab.eos,)
            for i, token in enumerate(ids):
                ctx = self._context(ids[:i])
                if ctx not in counts:
                    counts[ctx] = np.zeros(vocab.size)
                counts[ctx][token] += 1
        self._counts = counts
        self._dists: dict[tuple[int, ...], NextTokenDistribution] = {}
        self._unseen = NextTokenDistribution(np.ones(vocab.size))

    def _context(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        need = self.order - 1
        padded = (self._BOS,) * max(0, need - len(ids)) + ids[len(ids) - need :] if need else ()
        return padded

    def _conditional(self, ids: tuple[int, ...]) -> NextTokenDistribution:
        ctx = self._context(ids)
        dist = self._dists.get(ctx)
        if dist is None:
            c = self._counts.get(ctx)
            if c is None:
                dist = self._unseen
            else:
                dist = NextTokenDistribution(c + 1.0)
            self._dists[ctx] = dist
        return dist


class RemoteLM(LanguageModel):
    """Client for a next-token log-probability endpoint.

    Wire format: POST {"prefix": [ids]} -> 200 with {"logprobs": [float] *
    vocab size}.  Responses are exponentiated, renormalized and cached per
    prefix for the lifetime of the client, so a prefix is queried over the
    network at most once per run.  Each query is one standard-library POST on
    its own connection.  Any status but 200, a refused, unreachable or timed-out
    connection, and a reply that is not HTTP or not JSON are a TransportError.
    """

    def __init__(
        self, vocab: Vocabulary, endpoint: str, max_len: int, timeout: float = 10.0
    ) -> None:
        super().__init__(vocab, max_len)
        self.endpoint = endpoint
        self._timeout = timeout
        self._cache: dict[tuple[int, ...], NextTokenDistribution] = {}

    def _conditional(self, ids: tuple[int, ...]) -> NextTokenDistribution:
        hit = self._cache.get(ids)
        if hit is not None:
            return hit
        body = json.dumps({"prefix": list(ids)}).encode()
        request = urllib.request.Request(self.endpoint, body, {"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as resp:
                status, reply = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # a status outside 2xx
            exc.close()
            raise TransportError(f"logit endpoint returned HTTP {exc.code}") from exc
        except (OSError, http.client.HTTPException) as exc:  # a read timeout is an OSError
            raise TransportError(f"logit endpoint unreachable: {exc}") from exc
        if status != 200:
            raise TransportError(f"logit endpoint returned HTTP {status}")
        try:
            payload = json.loads(reply)
        except ValueError as exc:
            raise TransportError("logit endpoint returned non-JSON body") from exc
        logprobs = payload.get("logprobs") if isinstance(payload, dict) else None
        if not isinstance(logprobs, list) or len(logprobs) != self.vocab.size:
            got = len(logprobs) if isinstance(logprobs, list) else "no"
            raise ValueError(
                f"logprobs of length {got} do not match vocabulary size {self.vocab.size}"
            )
        arr = np.asarray(_floats(logprobs, "logprobs"))
        if not np.all(np.isfinite(arr)):
            raise ValueError("logit endpoint returned non-finite log-probabilities")
        dist = NextTokenDistribution(np.exp(arr - arr.max()))
        return self._cache.setdefault(ids, dist)
