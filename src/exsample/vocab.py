"""Token alphabet and token-sequence primitives shared by every module."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class UnterminatedSequenceError(ValueError):
    """An operation that needs a terminated sequence got an open one."""


@dataclass(frozen=True, slots=True, init=False)
class Sequence:
    """A token-id string; ``terminated`` is true iff it ends with eos.

    An immutable value with no per-instance ``__dict__``: equal and hashed
    by its fields, and built by storing them straight into its slots,
    because the sampler builds one per emitted token.
    """

    ids: tuple[int, ...]
    terminated: bool

    def __init__(self, ids: tuple[int, ...], terminated: bool) -> None:
        _set_ids(self, ids)
        _set_terminated(self, terminated)

    def __len__(self) -> int:
        return len(self.ids)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not by setting slots
        return Sequence, (self.ids, self.terminated)


_set_ids = Sequence.ids.__set__
_set_terminated = Sequence.terminated.__set__


@dataclass(frozen=True)
class Vocabulary:
    """Dense token alphabet 0..n-1 with one distinguished end-of-sequence id.

    Surfaces are the byte strings constraint checkers consume.  The eos
    surface is conventional ("$") and is never fed to a checker.
    """

    surfaces: tuple[bytes, ...]
    eos: int

    def __post_init__(self) -> None:
        if len(self.surfaces) < 2:
            raise ValueError("vocabulary needs at least one token besides eos")
        if not 0 <= self.eos < len(self.surfaces):
            raise ValueError(
                f"eos id {self.eos} outside vocabulary of size {len(self.surfaces)}"
            )
        for tid, s in enumerate(self.surfaces):
            if tid != self.eos and not s:
                raise ValueError(f"token {tid} has an empty surface")

    @classmethod
    def from_tokens(cls, tokens: Iterable[str | bytes], eos: int) -> "Vocabulary":
        surfaces = tuple(
            t.encode("utf-8") if isinstance(t, str) else bytes(t) for t in tokens
        )
        return cls(surfaces, eos)

    @property
    def size(self) -> int:
        return len(self.surfaces)

    def seq(self, ids: Iterable[int] = ()) -> Sequence:
        """Validated sequence: ids in range, eos at most once and final."""
        ids = tuple(int(t) for t in ids)
        for pos, t in enumerate(ids):
            if not 0 <= t < self.size:
                raise ValueError(f"token id {t} outside vocabulary of size {self.size}")
            if t == self.eos and pos != len(ids) - 1:
                raise ValueError("eos may only appear as the final token")
        return Sequence(ids, bool(ids) and ids[-1] == self.eos)

    def empty(self) -> Sequence:
        return Sequence((), False)

    def encode(self, text: str | bytes) -> tuple[int, ...]:
        """Greedy longest-match tokenization of ``text`` (eos excluded)."""
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        lengths, ids = self._encoder
        out: list[int] = []
        pos = 0
        while pos < len(data):
            for n in lengths:
                t = ids.get(data[pos : pos + n])
                if t is not None:
                    out.append(t)
                    pos += len(self.surfaces[t])
                    break
            else:
                raise ValueError(f"cannot tokenize byte {data[pos:pos+1]!r} at offset {pos}")
        return tuple(out)

    @cached_property
    def _encoder(self) -> tuple[tuple[int, ...], dict[bytes, int]]:
        """``encode``'s lookup: the surface lengths, longest first, and the
        lowest id of each surface but eos's."""
        ids = {s: t for t, s in reversed(list(enumerate(self.surfaces))) if t != self.eos}
        return tuple(sorted({len(s) for s in ids}, reverse=True)), ids

    def decode(self, seq: Sequence | Iterable[int]) -> bytes:
        ids = seq.ids if isinstance(seq, Sequence) else tuple(seq)
        return b"".join(self.surfaces[t] for t in ids if t != self.eos)
