import pytest

from exsample import parse_grammar
from exsample.grammar import EmptyLanguageError, Grammar, GrammarSyntaxError
from exsample.grammar import reduce_grammar


def test_arithmetic_source_shape(arith_grammar):
    # one nonterminal, two productions: ranges expand to byte classes, not
    # extra rules
    assert arith_grammar.nonterminals == {"E"}
    assert len(arith_grammar.productions) == 2
    assert arith_grammar.alphabet == frozenset(b"01+")


def test_literal_and_range_terminals():
    g = parse_grammar('S : "ab" | "0".."3"\n')
    bodies = {rhs for _, rhs in g.productions}
    assert (frozenset(b"a"), frozenset(b"b")) in bodies
    assert (frozenset(b"0123"),) in bodies


def test_repetition_desugars_to_fresh_rules():
    g = parse_grammar('S : "a"+ "b"?\n')
    # fresh helper names stay out of the user's namespace
    helpers = {lhs for lhs, _ in g.productions} - {"S"}
    assert helpers and all(h.startswith("%") for h in helpers)


def test_groups_and_star():
    g = parse_grammar('S : "a" ("b" | "c")*\n')
    names = {lhs for lhs, _ in g.productions}
    assert "S" in names and len(names) >= 3


def test_rule_merge_across_lines():
    g = parse_grammar('S : "a"\nS : "b"\n')
    assert len([1 for lhs, _ in g.productions if lhs == "S"]) == 2


def test_comments_and_blank_lines():
    g = parse_grammar('// header\n\nS : "a" // trailing\n')
    assert len(g.productions) == 1


def test_unproductive_rule_removed_with_diagnostic():
    with pytest.warns(UserWarning, match="X"):
        g = parse_grammar('S : "a" | X\nX : X\n')
    assert g.nonterminals == {"S"}
    assert len(g.productions) == 1


def test_unreachable_rule_removed():
    with pytest.warns(UserWarning, match="Z"):
        g = parse_grammar('S : "a"\nZ : "b"\n')
    assert g.nonterminals == {"S"}


def test_empty_language_rejected():
    with pytest.raises(EmptyLanguageError):
        parse_grammar("S : S\n")


def test_unbalanced_quote_location():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar('S : "a"\nT : "b\n')
    assert err.value.line == 2 and err.value.col == 5


def test_other_syntax_errors():
    with pytest.raises(GrammarSyntaxError, match="expected colon"):
        parse_grammar('S "a"\n')
    with pytest.raises(GrammarSyntaxError, match="empty alternative"):
        parse_grammar('S : "a" |\n')
    with pytest.raises(GrammarSyntaxError, match="single bytes"):
        parse_grammar('S : "ab".."c"\n')
    with pytest.raises(GrammarSyntaxError, match="unexpected character"):
        parse_grammar("S : @\n")


def test_reduce_keeps_nullable_chains():
    # a nullable helper is productive and must survive reduction
    g = Grammar("S", (("S", (frozenset(b"a"), "R")), ("R", ()), ("R", (frozenset(b"b"), "R"))))
    reduced, removed = reduce_grammar(g)
    assert removed == ()
    assert reduced.nonterminals == {"S", "R"}
