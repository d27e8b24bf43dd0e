"""Exact constrained sampling from autoregressive language models.

Sequences are drawn from a model reweighted to avoid a growing trie of
discovered invalid prefixes; accepted samples follow the model's
distribution conditioned on the constraint exactly, and acceptance rates
improve monotonically as the trie grows.

The package exports what the README's library sketch, the benchmark and
the scripts use; everything else is imported from its own module.
"""

from .constraints import DfaChecker, EarleyChecker, NonViablePrefixError, make_dfa
from .grammar import parse_grammar
from .lm import load_table_lm
from .oracle import condition, enumerate_lm
from .sampler import METHODS, SamplerConfig, run
from .trie import MassExhaustedError, TrieCorruptionError
from .vocab import Sequence

__all__ = [
    "DfaChecker",
    "EarleyChecker",
    "MassExhaustedError",
    "METHODS",
    "NonViablePrefixError",
    "SamplerConfig",
    "Sequence",
    "TrieCorruptionError",
    "condition",
    "enumerate_lm",
    "load_table_lm",
    "make_dfa",
    "parse_grammar",
    "run",
]
