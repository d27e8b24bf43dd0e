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


def step_dists(lm, ids):
    """Model conditionals along a path, as insert_invalid wants them."""
    from exsample import Sequence

    return [lm.next_distribution(Sequence(tuple(ids[:i]), False)) for i in range(len(ids))]


def invalid_prefixes(groups, eos):
    """invalid_set's sibling groups expanded to one (ids, dists, terminated)
    per invalid prefix, in insertion order; dists runs along ids."""
    return [
        (base + (t,), dists, t == eos)
        for base, dists, tokens in groups
        for t in tokens
    ]
