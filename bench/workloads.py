"""The benchmark's instances and their membership referees.

Each workload is a model document (the JSON a table LM is loaded from)
plus a constraint (grammar text or DFA table).  The synthetic one is
built from a fixed instance seed, so every run and every commit samples
from the same instance; only the sampler seeds follow ``--seed``.

The referees decide membership from the surface bytes with code written
here, independently of the checkers under test.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from exsample import (
    DfaChecker,
    EarleyChecker,
    load_table_lm,
    make_dfa,
    parse_grammar,
)

ROOT = Path(__file__).resolve().parent.parent

# Instance seed of the synthetic workload.  Changing it changes the
# instance, so results before and after are not comparable.
DFA_INSTANCE_SEED = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    lm_text: str                       # table-LM JSON document
    build_checker: Callable            # vocab -> checker, from the parsed inputs
    is_member: Callable[[bytes], bool]  # referee over the decoded surface bytes
    surfaces: tuple[bytes, ...]
    eos: int
    accepts: dict                      # method -> accepts per episode
    counted_rounds: int                # rounds whose LM calls every run counts
    round_s: float                     # seconds per round, 2-core x86 reference
    exact_oracle: bool                 # small enough to enumerate

    def build(self):
        """Model and checker from the inputs: what ``setup_s`` times."""
        lm = load_table_lm(io.StringIO(self.lm_text))
        return lm, self.build_checker(lm.vocab)

    def decode(self, ids) -> bytes:
        return b"".join(self.surfaces[t] for t in ids if t != self.eos)


# -- arith: the bundled fixture -------------------------------------------------

_ARITH_RE = re.compile(rb"[01](\+[01])*")


def _arith() -> Workload:
    lm_text = (ROOT / "fixtures" / "arith_lm.json").read_text(encoding="utf-8")
    grammar_text = (ROOT / "fixtures" / "arith.g").read_text(encoding="utf-8")
    doc = json.loads(lm_text)
    return Workload(
        name="arith",
        lm_text=lm_text,
        build_checker=lambda vocab: EarleyChecker(parse_grammar(grammar_text), vocab),
        is_member=lambda data: _ARITH_RE.fullmatch(data) is not None,
        surfaces=tuple(t.encode() for t in doc["tokens"]),
        eos=int(doc["eos"]),
        accepts={"rs": 2000, "ars": 8000, "rsft": 1500, "cars": 5000, "gcd": 6000},
        counted_rounds=18,
        round_s=1.5,
        exact_oracle=True,
    )


# -- synthetic table models ------------------------------------------------------

def _distinct_surfaces(rng, n, letters, weights, max_len):
    seen: dict[bytes, None] = {}
    while len(seen) < n:
        length = int(rng.integers(1, max_len + 1))
        picks = rng.choice(len(letters), size=length, p=weights)
        seen.setdefault(bytes(letters[i] for i in picks), None)
    return list(seen)


def _lm_doc(rng, surfaces, eos_share, horizon, n_contexts, depth):
    """Table-LM document: a Dirichlet(0.5) default plus ``n_contexts``
    explicit conditionals on short prefixes, each with ``eos_share`` of its
    mass on eos (the last token)."""
    size = len(surfaces) + 1

    def vector():
        body = rng.dirichlet(np.full(size - 1, 0.5)) * (1.0 - eos_share)
        return [float(x) for x in body] + [eos_share]

    contexts = {}
    while len(contexts) < n_contexts:
        k = int(rng.integers(1, depth + 1))
        key = ",".join(str(int(t)) for t in rng.integers(0, size - 1, size=k))
        contexts[key] = vector()
    tokens = [s.decode("ascii") for s in surfaces] + ["$"]
    return {
        "tokens": tokens,
        "eos": size - 1,
        "horizon": horizon,
        "default": vector(),
        "contexts": contexts,
    }


# -- dfa-v1024 -------------------------------------------------------------------

# Over a, b, c: no "cc", not ending in c.  State = class of the last byte; the
# missing (2, c) edge goes to the dead state make_dfa adds.
_DFA_TRANSITIONS = {
    (s, b): {ord("a"): 0, ord("b"): 1, ord("c"): 2}[b]
    for s in range(3)
    for b in b"abc"
    if not (s == 2 and b == ord("c"))
}


def _dfa_member(data: bytes) -> bool:
    state = 0
    for b in data:
        state = _DFA_TRANSITIONS.get((state, b))
        if state is None:
            return False
    return state != 2


def _dfa_v1024() -> Workload:
    rng = np.random.default_rng(DFA_INSTANCE_SEED)
    surfaces = _distinct_surfaces(rng, 1023, b"abc", [0.3, 0.3, 0.4], 6)
    doc = _lm_doc(rng, surfaces, eos_share=0.1, horizon=8, n_contexts=16, depth=2)

    def build_checker(vocab):
        dfa = make_dfa(3, 0, [0, 1], b"abc", _DFA_TRANSITIONS)
        return DfaChecker(dfa, vocab)

    return Workload(
        name="dfa-v1024",
        lm_text=json.dumps(doc),
        build_checker=build_checker,
        is_member=_dfa_member,
        surfaces=tuple(surfaces) + (b"$",),
        eos=1023,
        accepts={"rs": 300, "ars": 250, "rsft": 180, "cars": 100, "gcd": 300},
        counted_rounds=5,
        round_s=6.0,
        exact_oracle=False,
    )


WORKLOADS = {"arith": _arith, "dfa-v1024": _dfa_v1024}
