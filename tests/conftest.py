from pathlib import Path

import pytest

from exsample import EarleyChecker, load_table_lm, parse_grammar

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def arith_lm():
    return load_table_lm(FIXTURES / "arith_lm.json")


@pytest.fixture(scope="session")
def arith_grammar():
    return parse_grammar((FIXTURES / "arith.g").read_text())


@pytest.fixture(scope="session")
def arith_checker(arith_lm, arith_grammar):
    return EarleyChecker(arith_grammar, arith_lm.vocab)


@pytest.fixture(scope="session")
def twoword_lm():
    return load_table_lm(FIXTURES / "twoword_lm.json")


@pytest.fixture(scope="session")
def twoword_checker(twoword_lm):
    grammar = parse_grammar((FIXTURES / "twoword.g").read_text())
    return EarleyChecker(grammar, twoword_lm.vocab)


@pytest.fixture(scope="session")
def lowmass_lm():
    return load_table_lm(FIXTURES / "arith_lowmass_lm.json")


def bench_workload(name):
    """A benchmark workload, read from ``bench/workloads.py``."""
    import sys

    sys.path.insert(0, str(FIXTURES.parent / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return WORKLOADS[name]()


def step_dists(lm, ids):
    """Model conditionals along a path, as insert_invalid and update want them."""
    from exsample import Sequence

    return [lm.next_distribution(Sequence(tuple(ids[:i]), False)) for i in range(len(ids))]


def invalid_prefixes(trace, groups, eos):
    """invalid_set's groups for ``trace`` expanded to one (ids, dists,
    terminated) per invalid prefix, by depth and then token; dists runs
    along ids."""
    import numpy as np

    ids, dists = trace.tokens.ids, trace.step_dists
    out = []
    for depth in sorted(groups):
        group = groups[depth]
        if isinstance(group, np.ndarray):  # a viability mask
            tokens = np.flatnonzero(~group).tolist()
        else:
            tokens = sorted(set(group))
        out += [(ids[:depth] + (t,), dists[: depth + 1], t == eos) for t in tokens]
    return out
