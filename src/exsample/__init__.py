"""Exact constrained sampling from autoregressive language models.

Sequences are drawn from a model reweighted to avoid a growing trie of
discovered invalid prefixes; accepted samples follow the model's
distribution conditioned on the constraint exactly, and acceptance rates
improve monotonically as the trie grows.
"""

from .constraints import (
    ConstraintChecker,
    DfaChecker,
    DfaConstraint,
    EarleyChecker,
    NonViablePrefixError,
    load_constraint,
    load_dfa,
    make_dfa,
)
from .grammar import EmptyLanguageError, Grammar, GrammarSyntaxError, parse_grammar
from .lm import (
    LanguageModel,
    NextTokenDistribution,
    NGramLM,
    RemoteLM,
    TableLM,
    TerminatedPrefixError,
    TransportError,
    load_ngram_lm,
    load_table_lm,
    sequence_probability,
    table_lm_from_doc,
)
from .metrics import (
    RunMetrics,
    bootstrap_ci,
    efficiency_summary,
    empirical_kl,
    empirical_tv,
    lm_reference,
)
from .oracle import (
    ExactDistribution,
    condition,
    constrained_mass,
    dump_distribution,
    enumerate_lm,
    exact_p,
)
from .sampler import (
    METHODS,
    SampleTrace,
    SamplerConfig,
    UpdateStrategy,
    draw_index,
    gcd_sample,
    invalid_set,
    make_rng,
    run,
    sample_one,
)
from .trie import (
    InvalidPrefixTrie,
    MassExhaustedError,
    TrieCorruptionError,
    TrieNode,
    load_snapshot,
)
from .vocab import Sequence, UnterminatedSequenceError, Vocabulary

__all__ = [
    "ConstraintChecker",
    "DfaChecker",
    "DfaConstraint",
    "EarleyChecker",
    "EmptyLanguageError",
    "ExactDistribution",
    "Grammar",
    "GrammarSyntaxError",
    "InvalidPrefixTrie",
    "LanguageModel",
    "MassExhaustedError",
    "METHODS",
    "NextTokenDistribution",
    "NGramLM",
    "NonViablePrefixError",
    "RemoteLM",
    "RunMetrics",
    "SampleTrace",
    "SamplerConfig",
    "Sequence",
    "TableLM",
    "TerminatedPrefixError",
    "TransportError",
    "TrieCorruptionError",
    "TrieNode",
    "UnterminatedSequenceError",
    "UpdateStrategy",
    "Vocabulary",
    "bootstrap_ci",
    "condition",
    "constrained_mass",
    "draw_index",
    "dump_distribution",
    "efficiency_summary",
    "empirical_kl",
    "empirical_tv",
    "enumerate_lm",
    "exact_p",
    "gcd_sample",
    "invalid_set",
    "lm_reference",
    "load_constraint",
    "load_dfa",
    "load_ngram_lm",
    "load_snapshot",
    "load_table_lm",
    "make_dfa",
    "make_rng",
    "parse_grammar",
    "run",
    "sample_one",
    "sequence_probability",
    "table_lm_from_doc",
]
