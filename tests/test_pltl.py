"""Formula syntax, normal forms, the N/T/R rewrites, and both semantics routes."""

import sys

import pytest

import gen
import oracles
from faircheck import pltl
from faircheck.automata import Alphabet, LassoWord, is_empty
from faircheck.pltl import (
    EPS,
    TRUE,
    Always,
    And,
    Atom,
    Before,
    Eventually,
    Formula,
    MAX_FORMULA_DEPTH,
    FormulaSyntaxError,
    Iff,
    Implies,
    Labeling,
    Next,
    Not,
    NotNormalFormError,
    Or,
    Until,
    atoms_of,
    check_normal_form,
    children,
    evaluate_lasso,
    format_formula,
    parse_formula,
    substitute_atom,
    to_buchi,
    to_positive_normal_form,
    transform,
)
from faircheck.automata import BuchiAutomaton, accepted_lassos, lasso_membership
from faircheck.relprops import PropertySpec

AB = Alphabet(("a", "b"))


def ev(text: str, x: LassoWord, alphabet: Alphabet = AB) -> bool:
    return evaluate_lasso(x, Labeling.canonical(alphabet), parse_formula(text))


class TestParser:
    def test_goldens(self):
        assert parse_formula("G F result") == Always(Eventually(Atom("result")))
        assert parse_formula("a U (b & !c)") == Until(
            Atom("a"), And(Atom("b"), Not(Atom("c")))
        )
        assert parse_formula("(a) B (b)") == Before(Atom("a"), Atom("b"))
        assert parse_formula("G F a  ") == Always(Eventually(Atom("a")))

    def test_precedence(self):
        assert parse_formula("!a & b") == And(Not(Atom("a")), Atom("b"))
        assert parse_formula("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse_formula("a U b U c") == Until(
            Atom("a"), Until(Atom("b"), Atom("c"))
        )
        assert parse_formula("a -> b -> c") == Implies(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )
        assert parse_formula("a <-> b -> c") == Iff(
            Atom("a"), Implies(Atom("b"), Atom("c"))
        )
        assert parse_formula("X a U b") == Until(Next(Atom("a")), Atom("b"))

    def test_true_and_eps_tokens(self):
        assert parse_formula("true") == TRUE
        assert parse_formula("eps") == EPS

    def test_a_formula_equals_no_other_type(self):
        # == leaves a non-formula to the other side, so a name is no atom
        assert Atom("a").__eq__("a") is NotImplemented
        assert not Atom("a") == "a"
        assert Atom("a") != "a"

    def test_a_foreign_node_raises_one_error_everywhere(self):
        # children is the one check of the node types, so every entry point
        # rejects a node type the package does not define with the same error
        class Foreign(Formula):
            __slots__ = ()

            def __repr__(self):
                return "Foreign()"

        f = Foreign()
        entries = [
            lambda: to_positive_normal_form(f),
            lambda: to_positive_normal_form(Not(f)),
            lambda: transform(f, "T"),
            lambda: to_buchi(f, AB),
            lambda: evaluate_lasso(LassoWord((), ("a",)), Labeling.canonical(AB), f),
            lambda: format_formula(f),
            lambda: atoms_of(f),
            lambda: substitute_atom(f, "a", "b"),
            lambda: f == Foreign(),
        ]
        for entry in entries:
            with pytest.raises(TypeError, match=r"^unknown formula node Foreign\(\)$"):
                entry()

    def test_errors_carry_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("a & & b")
        assert info.value.position == 4
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(a U b")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a $ b")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("")
        for text, message in [
            ("a)", "unexpected token ')' (at position 1)"),
            ("(a b", "expected ')' (at position 3)"),
            ("a b", "unexpected token 'b' (at position 2)"),
        ]:
            with pytest.raises(FormulaSyntaxError) as info:
                parse_formula(text)
            assert str(info.value) == message

    def test_print_parse_round_trip(self, rng):
        for _ in range(300):
            f = gen.random_formula(rng, ("a", "b", "c"), 4)
            assert parse_formula(format_formula(f)) == f

    def test_depth_limit(self):
        deep = parse_formula("X " * 400 + "a")
        for _ in range(400):
            deep = deep.operand
        assert deep == Atom("a")
        for text in ("!" * 3000 + "a", " & ".join(["a"] * 3000), "a U " * 3000 + "b"):
            with pytest.raises(FormulaSyntaxError, match="nested deeper"):
                parse_formula(text)
        at_limit = "X " * (MAX_FORMULA_DEPTH - 1) + "a"
        parse_formula(at_limit)
        with pytest.raises(FormulaSyntaxError):
            parse_formula("X " + at_limit)

    def test_redundant_parentheses_add_no_depth(self):
        assert parse_formula("(" * 3000 + "a" + ")" * 3000) == Atom("a")

    def test_golden_rendering(self):
        f = Until(EPS, And(Not(EPS), Next(Until(EPS, Atom("a")))))
        assert format_formula(f) == "eps U (!eps & X (eps U a))"

    def test_every_operator_pair_renders_as_before(self):
        # (outer, inner, side, rendering): the inner operator applied to p
        # (and q) sits on that side of the outer one, r on the other side
        prefix = {"!": Not, "X": Next, "F": Eventually, "G": Always}
        binary = {"&": And, "|": Or, "->": Implies, "<->": Iff, "U": Until, "B": Before}
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        for outer, inner, side, expected in PRINTER_GOLDEN:
            sub = prefix[inner](p) if inner in prefix else binary[inner](p, q)
            if outer in prefix:
                f = prefix[outer](sub)
            else:
                f = binary[outer](*((sub, r) if side == "left" else (r, sub)))
            assert format_formula(f) == expected
            assert parse_formula(expected) == f
        assert len(PRINTER_GOLDEN) == 4 * 10 + 6 * 10 * 2


PRINTER_GOLDEN = [
    ('!', '!', 'operand', '!!p'),
    ('!', 'X', 'operand', '!X p'),
    ('!', 'F', 'operand', '!F p'),
    ('!', 'G', 'operand', '!G p'),
    ('!', '&', 'operand', '!(p & q)'),
    ('!', '|', 'operand', '!(p | q)'),
    ('!', '->', 'operand', '!(p -> q)'),
    ('!', '<->', 'operand', '!(p <-> q)'),
    ('!', 'U', 'operand', '!(p U q)'),
    ('!', 'B', 'operand', '!(p B q)'),
    ('X', '!', 'operand', 'X !p'),
    ('X', 'X', 'operand', 'X X p'),
    ('X', 'F', 'operand', 'X F p'),
    ('X', 'G', 'operand', 'X G p'),
    ('X', '&', 'operand', 'X (p & q)'),
    ('X', '|', 'operand', 'X (p | q)'),
    ('X', '->', 'operand', 'X (p -> q)'),
    ('X', '<->', 'operand', 'X (p <-> q)'),
    ('X', 'U', 'operand', 'X (p U q)'),
    ('X', 'B', 'operand', 'X (p B q)'),
    ('F', '!', 'operand', 'F !p'),
    ('F', 'X', 'operand', 'F X p'),
    ('F', 'F', 'operand', 'F F p'),
    ('F', 'G', 'operand', 'F G p'),
    ('F', '&', 'operand', 'F (p & q)'),
    ('F', '|', 'operand', 'F (p | q)'),
    ('F', '->', 'operand', 'F (p -> q)'),
    ('F', '<->', 'operand', 'F (p <-> q)'),
    ('F', 'U', 'operand', 'F (p U q)'),
    ('F', 'B', 'operand', 'F (p B q)'),
    ('G', '!', 'operand', 'G !p'),
    ('G', 'X', 'operand', 'G X p'),
    ('G', 'F', 'operand', 'G F p'),
    ('G', 'G', 'operand', 'G G p'),
    ('G', '&', 'operand', 'G (p & q)'),
    ('G', '|', 'operand', 'G (p | q)'),
    ('G', '->', 'operand', 'G (p -> q)'),
    ('G', '<->', 'operand', 'G (p <-> q)'),
    ('G', 'U', 'operand', 'G (p U q)'),
    ('G', 'B', 'operand', 'G (p B q)'),
    ('&', '!', 'left', '!p & r'),
    ('&', '!', 'right', 'r & !p'),
    ('&', 'X', 'left', 'X p & r'),
    ('&', 'X', 'right', 'r & X p'),
    ('&', 'F', 'left', 'F p & r'),
    ('&', 'F', 'right', 'r & F p'),
    ('&', 'G', 'left', 'G p & r'),
    ('&', 'G', 'right', 'r & G p'),
    ('&', '&', 'left', 'p & q & r'),
    ('&', '&', 'right', 'r & (p & q)'),
    ('&', '|', 'left', '(p | q) & r'),
    ('&', '|', 'right', 'r & (p | q)'),
    ('&', '->', 'left', '(p -> q) & r'),
    ('&', '->', 'right', 'r & (p -> q)'),
    ('&', '<->', 'left', '(p <-> q) & r'),
    ('&', '<->', 'right', 'r & (p <-> q)'),
    ('&', 'U', 'left', 'p U q & r'),
    ('&', 'U', 'right', 'r & p U q'),
    ('&', 'B', 'left', 'p B q & r'),
    ('&', 'B', 'right', 'r & p B q'),
    ('|', '!', 'left', '!p | r'),
    ('|', '!', 'right', 'r | !p'),
    ('|', 'X', 'left', 'X p | r'),
    ('|', 'X', 'right', 'r | X p'),
    ('|', 'F', 'left', 'F p | r'),
    ('|', 'F', 'right', 'r | F p'),
    ('|', 'G', 'left', 'G p | r'),
    ('|', 'G', 'right', 'r | G p'),
    ('|', '&', 'left', 'p & q | r'),
    ('|', '&', 'right', 'r | p & q'),
    ('|', '|', 'left', 'p | q | r'),
    ('|', '|', 'right', 'r | (p | q)'),
    ('|', '->', 'left', '(p -> q) | r'),
    ('|', '->', 'right', 'r | (p -> q)'),
    ('|', '<->', 'left', '(p <-> q) | r'),
    ('|', '<->', 'right', 'r | (p <-> q)'),
    ('|', 'U', 'left', 'p U q | r'),
    ('|', 'U', 'right', 'r | p U q'),
    ('|', 'B', 'left', 'p B q | r'),
    ('|', 'B', 'right', 'r | p B q'),
    ('->', '!', 'left', '!p -> r'),
    ('->', '!', 'right', 'r -> !p'),
    ('->', 'X', 'left', 'X p -> r'),
    ('->', 'X', 'right', 'r -> X p'),
    ('->', 'F', 'left', 'F p -> r'),
    ('->', 'F', 'right', 'r -> F p'),
    ('->', 'G', 'left', 'G p -> r'),
    ('->', 'G', 'right', 'r -> G p'),
    ('->', '&', 'left', 'p & q -> r'),
    ('->', '&', 'right', 'r -> p & q'),
    ('->', '|', 'left', 'p | q -> r'),
    ('->', '|', 'right', 'r -> p | q'),
    ('->', '->', 'left', '(p -> q) -> r'),
    ('->', '->', 'right', 'r -> p -> q'),
    ('->', '<->', 'left', '(p <-> q) -> r'),
    ('->', '<->', 'right', 'r -> (p <-> q)'),
    ('->', 'U', 'left', 'p U q -> r'),
    ('->', 'U', 'right', 'r -> p U q'),
    ('->', 'B', 'left', 'p B q -> r'),
    ('->', 'B', 'right', 'r -> p B q'),
    ('<->', '!', 'left', '!p <-> r'),
    ('<->', '!', 'right', 'r <-> !p'),
    ('<->', 'X', 'left', 'X p <-> r'),
    ('<->', 'X', 'right', 'r <-> X p'),
    ('<->', 'F', 'left', 'F p <-> r'),
    ('<->', 'F', 'right', 'r <-> F p'),
    ('<->', 'G', 'left', 'G p <-> r'),
    ('<->', 'G', 'right', 'r <-> G p'),
    ('<->', '&', 'left', 'p & q <-> r'),
    ('<->', '&', 'right', 'r <-> p & q'),
    ('<->', '|', 'left', 'p | q <-> r'),
    ('<->', '|', 'right', 'r <-> p | q'),
    ('<->', '->', 'left', 'p -> q <-> r'),
    ('<->', '->', 'right', 'r <-> p -> q'),
    ('<->', '<->', 'left', '(p <-> q) <-> r'),
    ('<->', '<->', 'right', 'r <-> p <-> q'),
    ('<->', 'U', 'left', 'p U q <-> r'),
    ('<->', 'U', 'right', 'r <-> p U q'),
    ('<->', 'B', 'left', 'p B q <-> r'),
    ('<->', 'B', 'right', 'r <-> p B q'),
    ('U', '!', 'left', '!p U r'),
    ('U', '!', 'right', 'r U !p'),
    ('U', 'X', 'left', 'X p U r'),
    ('U', 'X', 'right', 'r U X p'),
    ('U', 'F', 'left', 'F p U r'),
    ('U', 'F', 'right', 'r U F p'),
    ('U', 'G', 'left', 'G p U r'),
    ('U', 'G', 'right', 'r U G p'),
    ('U', '&', 'left', '(p & q) U r'),
    ('U', '&', 'right', 'r U (p & q)'),
    ('U', '|', 'left', '(p | q) U r'),
    ('U', '|', 'right', 'r U (p | q)'),
    ('U', '->', 'left', '(p -> q) U r'),
    ('U', '->', 'right', 'r U (p -> q)'),
    ('U', '<->', 'left', '(p <-> q) U r'),
    ('U', '<->', 'right', 'r U (p <-> q)'),
    ('U', 'U', 'left', '(p U q) U r'),
    ('U', 'U', 'right', 'r U p U q'),
    ('U', 'B', 'left', '(p B q) U r'),
    ('U', 'B', 'right', 'r U p B q'),
    ('B', '!', 'left', '!p B r'),
    ('B', '!', 'right', 'r B !p'),
    ('B', 'X', 'left', 'X p B r'),
    ('B', 'X', 'right', 'r B X p'),
    ('B', 'F', 'left', 'F p B r'),
    ('B', 'F', 'right', 'r B F p'),
    ('B', 'G', 'left', 'G p B r'),
    ('B', 'G', 'right', 'r B G p'),
    ('B', '&', 'left', '(p & q) B r'),
    ('B', '&', 'right', 'r B (p & q)'),
    ('B', '|', 'left', '(p | q) B r'),
    ('B', '|', 'right', 'r B (p | q)'),
    ('B', '->', 'left', '(p -> q) B r'),
    ('B', '->', 'right', 'r B (p -> q)'),
    ('B', '<->', 'left', '(p <-> q) B r'),
    ('B', '<->', 'right', 'r B (p <-> q)'),
    ('B', 'U', 'left', '(p U q) B r'),
    ('B', 'U', 'right', 'r B p U q'),
    ('B', 'B', 'left', '(p B q) B r'),
    ('B', 'B', 'right', 'r B p B q'),
]


class TestPositiveNormalForm:
    def test_goldens(self):
        assert to_positive_normal_form(parse_formula("!(G F a)")) == parse_formula(
            "F G !a"
        )
        assert to_positive_normal_form(parse_formula("!(a U b)")) == parse_formula(
            "(!a) B b"
        )
        already = parse_formula("G (a -> F b)")
        assert to_positive_normal_form(already) == already

    def test_negated_before_becomes_until(self):
        assert to_positive_normal_form(parse_formula("!(a B b)")) == parse_formula(
            "(!a) U b"
        )

    def test_shape_and_meaning(self, rng):
        lab = Labeling.canonical(AB)
        for _ in range(150):
            f = gen.random_formula(rng, ("a", "b"), 3)
            p = to_positive_normal_form(f)
            assert check_normal_form(p, AB, "sigma") or not atoms_of(p) <= {"a", "b"}
            x = gen.random_lasso(rng, AB)
            assert evaluate_lasso(x, lab, f) == evaluate_lasso(x, lab, p)


class TestCheckNormalForm:
    def test_sigma(self):
        srr = Alphabet(("request", "result", "reject"))
        assert check_normal_form(parse_formula("G F result"), srr, "sigma")
        assert not check_normal_form(parse_formula("!(a U b)"), AB, "sigma")
        assert not check_normal_form(parse_formula("G F lock"), srr, "sigma")

    def test_extended(self):
        srr = Alphabet(("request", "result", "reject"))
        assert not check_normal_form(parse_formula("eps"), srr, "extended_sigma")
        assert check_normal_form(
            parse_formula("F G eps | G F result"), srr, "extended_sigma"
        )
        assert not check_normal_form(
            parse_formula("F eps | G F result"), srr, "extended_sigma"
        )
        assert not check_normal_form(parse_formula("G !eps"), srr, "extended_sigma")
        assert not check_normal_form(parse_formula("G F c | G eps"), AB, "extended_sigma")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            check_normal_form(TRUE, AB, "nonsense")


def _subformulas(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(children(g))


def _mixes_boolean_and_temporal(f) -> bool:
    """Some Boolean connective has one purely Boolean and one temporal operand."""
    return any(
        isinstance(g, (And, Or, Implies, Iff))
        and oracles.is_boolean(g.left) != oracles.is_boolean(g.right)
        for g in _subformulas(f)
    )


class TestTransforms:
    def test_t_goldens(self):
        assert transform(parse_formula("G a"), "T") == parse_formula("G (eps | a)")
        assert transform(parse_formula("X a"), "T") == parse_formula(
            "eps U (!eps & X (eps U a))"
        )
        assert transform(parse_formula("!a"), "T") == parse_formula("!a & !eps")
        assert transform(parse_formula("a U b"), "T") == parse_formula(
            "(eps | a) U b"
        )
        assert transform(parse_formula("F a"), "T") == parse_formula("F a")
        assert transform(parse_formula("a B b"), "T") == parse_formula("a B b")
        assert transform(TRUE, "T") == TRUE
        assert transform(Not(TRUE), "T") == Not(TRUE)

    def test_n_goldens(self):
        assert transform(parse_formula("!a"), "N") == parse_formula("!a & !eps")
        assert transform(parse_formula("a & !b"), "N") == parse_formula(
            "a & (!b & !eps)"
        )
        assert transform(parse_formula("!true"), "N") == Not(TRUE)
        assert transform(parse_formula("a -> b"), "N") == parse_formula(
            "(a -> b) & !eps"
        )

    def test_r_goldens(self):
        assert transform(parse_formula("a & b"), "R") == parse_formula("eps U (a & b)")
        assert transform(parse_formula("G a"), "R") == parse_formula(
            "G (eps | (eps U a))"
        )
        assert transform(parse_formula("G F result"), "R") == parse_formula(
            "G (eps | F (eps U result))"
        )
        assert transform(parse_formula("G eps"), "R") == parse_formula("G (eps | eps)")

    def test_r_wraps_boolean_operands_of_mixed_nodes(self):
        assert transform(parse_formula("a & F b"), "R") == parse_formula(
            "(eps U a) & F (eps U b)"
        )
        assert transform(parse_formula("!a | X b"), "R") == parse_formula(
            "(eps U (!a & !eps)) | (eps U (!eps & X (eps U (eps U b))))"
        )

    def test_t_and_r_match_the_reference(self, rng):
        mixed = 0
        for i in range(1200):
            make = gen.random_nf_formula if i % 2 else gen.random_extended_formula
            f = make(rng, ("a", "b", "c"), rng.randint(1, 5))
            assert transform(f, "T") == oracles.reference_t(f)
            assert transform(f, "R") == oracles.reference_r(f)
            mixed += _mixes_boolean_and_temporal(f)
        assert mixed > 100

    def test_rejects_non_normal_input(self):
        with pytest.raises(NotNormalFormError):
            transform(parse_formula("!(a U b)"), "T")
        with pytest.raises(NotNormalFormError):
            transform(parse_formula("F eps"), "R")
        with pytest.raises(ValueError):
            transform(TRUE, "Q")

    def test_substitute_atom(self):
        f = parse_formula("G (eps | F (eps U result))")
        g = substitute_atom(f, "eps", "#")
        assert format_formula(g) == "G (# | F (# U result))"


class TestLabeling:
    def test_canonical(self):
        lab = Labeling.canonical(AB)
        assert lab.props("a") == frozenset({"a"})

    def test_extensions(self):
        lab = Labeling.canonical(AB)
        assert lab.eps_extension().props("#") == frozenset({"eps"})

    def test_errors(self):
        with pytest.raises(ValueError):
            Labeling((("a", frozenset({"a"})), ("a", frozenset({"b"}))))
        with pytest.raises(ValueError):
            Labeling.canonical(AB).props("z")


class TestEvaluateLasso:
    def test_goldens(self):
        assert ev("G F a", LassoWord((), ("a", "b")))
        assert ev("a U b", LassoWord((), ("b",)))
        assert not ev("a U b", LassoWord((), ("a",)))
        assert ev("F (a & X a)", LassoWord(("a", "a"), ("b",)))
        assert not ev("F (a & X a)", LassoWord((), ("a", "b")))

    def test_server_example(self):
        sigma = Alphabet(("free", "lock", "no", "reject", "request", "result"))
        x = LassoWord(("lock",), ("request", "no", "reject"))
        assert not ev("G F result", x, sigma)
        y = LassoWord((), ("request", "result"))
        assert ev("G F result", y, sigma)

    def test_before_guard_at_first_position(self):
        # b at the very first position defeats B; an earlier a rescues it
        assert not ev("a B b", LassoWord((), ("b",)))
        assert ev("a B b", LassoWord(("a",), ("b",)))
        assert ev("a B b", LassoWord((), ("a",)))

    def test_until_includes_present(self):
        assert ev("b U a", LassoWord(("a",), ("b",)))

    def test_next_wraps_cycle(self):
        assert ev("X a", LassoWord((), ("b", "a")))
        assert not ev("X a", LassoWord((), ("a", "b")))


class TestToBuchi:
    def test_true_pair(self):
        pos, neg = to_buchi(TRUE, AB)
        assert not is_empty(pos)
        assert is_empty(neg)
        assert lasso_membership(LassoWord((), ("a", "b")), pos)

    def test_recurrence_goldens(self):
        pos, neg = to_buchi(parse_formula("G F a"), AB)
        assert lasso_membership(LassoWord((), ("a", "b")), pos)
        assert lasso_membership(LassoWord((), ("b", "a", "a")), pos)
        assert lasso_membership(LassoWord(("a",), ("b",)), neg)
        assert lasso_membership(LassoWord((), ("b",)), neg)

    def test_double_a_goldens(self):
        pos, neg = to_buchi(parse_formula("F (a & X a)"), AB)
        assert lasso_membership(LassoWord(("a", "a"), ("b",)), pos)
        assert lasso_membership(LassoWord((), ("a", "b")), neg)

    def test_recurrence_behind_next_goldens(self):
        # the fulfilling step must survive next to the postponing one
        pos, neg = to_buchi(parse_formula("G X F b"), AB)
        assert lasso_membership(LassoWord((), ("b",)), pos)
        assert lasso_membership(LassoWord((), ("a", "b")), pos)
        assert lasso_membership(LassoWord(("b",), ("a",)), neg)

    def test_agrees_with_evaluation_and_partitions(self, rng):
        lab = Labeling.canonical(AB)
        for _ in range(60):
            f = gen.random_formula(rng, ("a", "b"), 3)
            pos, neg = to_buchi(f, AB, lab)
            for _ in range(6):
                x = gen.random_lasso(rng, AB)
                truth = evaluate_lasso(x, lab, f)
                assert lasso_membership(x, pos) == truth
                assert lasso_membership(x, neg) == (not truth)

    def test_oracle_membership_route(self, rng):
        # same agreement, but deciding membership with the independent oracle
        lab = Labeling.canonical(AB)
        for _ in range(25):
            f = gen.random_formula(rng, ("a", "b"), 3)
            pos, neg = to_buchi(f, AB, lab)
            for _ in range(4):
                x = gen.random_lasso(rng, AB)
                truth = evaluate_lasso(x, lab, f)
                assert oracles.buchi_accepts_lasso(pos, x) == truth
                assert oracles.buchi_accepts_lasso(neg, x) == (not truth)


    def test_next_chain_stays_linear(self):
        for k in (1, 2, 12, 16, 100, 400):
            pos, neg = to_buchi(parse_formula("X " * k + "a"), AB)
            assert pos.n_states <= k + 2 and neg.n_states <= k + 2
            hit = LassoWord(("b",) * k + ("a",), ("b",))
            assert lasso_membership(hit, pos) and not lasso_membership(hit, neg)

    def test_recurrence_conjunction_stays_small(self):
        letters = tuple(f"a{i}" for i in range(1, 9))
        sigma = Alphabet(letters)
        f = parse_formula(" & ".join(f"G F {a}" for a in letters))
        pos, neg = to_buchi(f, sigma)
        assert pos.n_states <= 200 and neg.n_states <= 200
        assert lasso_membership(LassoWord((), letters), pos)
        assert lasso_membership(LassoWord(letters, letters[:-1]), neg)

    def test_retransformed_formulas_under_hidden_letters(self, rng):
        # R outputs nest eps U ... around shared subformulas: the hardest
        # input for cover expansion
        labelings = [
            (AB.with_hash(), Labeling.canonical(AB).eps_extension()),
            (TestAbstractionLemmas.SIGMA, TestAbstractionLemmas.LAB_MIXED),
        ]
        for _ in range(40):
            f = transform(gen.random_nf_formula(rng, ("a", "b"), 3), "R")
            for alphabet, lab in labelings:
                pos, neg = to_buchi(f, alphabet, lab)
                for _ in range(3):
                    x = gen.random_lasso(rng, alphabet)
                    truth = evaluate_lasso(x, lab, f)
                    assert lasso_membership(x, pos) == truth
                    assert lasso_membership(x, neg) == (not truth)

    def test_each_side_is_translated_alone(self, rng):
        # a translator interns one side's normal form and nothing else, so
        # each side is, state for state, what a translator of its own builds,
        # whichever side is read first and through whichever entry
        labelings = [
            (AB, Labeling.canonical(AB)),
            (AB.with_hash(), Labeling.canonical(AB).eps_extension()),
        ]
        formulas = [parse_formula("G F a"), parse_formula("G (a -> F b)")]
        for i in range(30):
            if i % 2:
                formulas.append(transform(gen.random_nf_formula(rng, ("a", "b"), 3), "R"))
            else:
                formulas.append(gen.random_formula(rng, ("a", "b"), 3))
        for alphabet, lab in labelings:
            every = BuchiAutomaton(alphabet, 1, {0}, {0}, {(0, c, 0) for c in alphabet})
            lassos = set(accepted_lassos(every, 4))
            for f in formulas:
                alone = tuple(
                    pltl._Translator(alphabet, lab).automaton(f, side) for side in (True, False)
                )
                pltl._translated.cache_clear()
                pair = to_buchi(f, alphabet, lab)
                assert (pair[0], pair[1]) == alone, f
                pltl._translated.cache_clear()
                complement = pltl._translated(f, alphabet, lab, False)
                assert complement == alone[1], f
                assert tuple(to_buchi(f, alphabet, lab)) == alone, f
                pltl._translated.cache_clear()
                spec = PropertySpec.from_formula(f, alphabet, lab)
                assert (spec.complement, spec.positive) == alone[::-1], f
                PropertySpec.from_automata(*alone)  # decides disjointness exactly
                accepted = [set(accepted_lassos(side, 4)) for side in alone]
                assert not accepted[0] & accepted[1] and accepted[0] | accepted[1] == lassos, f
        # the complement counts only its own untils: no position is idle
        assert to_buchi(parse_formula("G F a"), AB)[1].n_states == 2

    def test_a_cache_hit_walks_a_new_formula_once(self, monkeypatch):
        # a node keeps its preorder: the hit hashes the new formula and
        # compares it with the kept key, and only the hash walks it
        text = "G (request -> F (result & X !no))"
        alphabet = Alphabet(("no", "request", "result"))
        to_buchi(parse_formula(text), alphabet)
        f = parse_formula(text)
        walked = []
        real = pltl.children

        def counted(g):
            walked.append(g)
            return real(g)

        monkeypatch.setattr(pltl, "children", counted)
        to_buchi(f, alphabet)
        # by identity: comparing nodes by == could walk them again
        roots = [g is f for g in walked]
        assert sum(roots) == 1 and len(roots) == 9  # one walk of f's 9 nodes

    def test_the_pair_reads_like_a_tuple(self):
        pair = to_buchi(parse_formula("G F a"), AB)
        pos, neg = pair
        assert len(pair) == 2 and (pair[-2], pair[-1]) == (pos, neg)
        assert pair[:] == (pos, neg) and pair[1:] == (neg,)
        with pytest.raises(IndexError):
            pair[2]


def _image(x: LassoWord, hidden: set[str]) -> LassoWord | None:
    stem = tuple(s for s in x.stem if s not in hidden)
    cycle = tuple(s for s in x.cycle if s not in hidden)
    if not cycle:
        return None
    return LassoWord(stem, cycle)


class TestDeepFormulas:
    """Every formula pass walks trees without recursion, so a tree built in
    code may be deeper than the parser's limit and the interpreter's stack."""

    DEPTH = 3 * sys.getrecursionlimit()

    def nexts(self, leaf):
        f = leaf
        for _ in range(self.DEPTH):
            f = Next(f)
        return f

    def test_syntax_passes(self):
        f = self.nexts(Atom("a"))
        assert format_formula(f) == "X " * self.DEPTH + "a"
        assert format_formula(to_positive_normal_form(Not(f))) == "X " * self.DEPTH + "!a"
        assert atoms_of(substitute_atom(f, "a", "b")) == {"b"}
        assert check_normal_form(f, AB, "sigma")
        assert f == self.nexts(Atom("a")) and hash(f) == hash(self.nexts(Atom("a")))

    def test_rewrites(self):
        f = self.nexts(Atom("a"))
        assert transform(f, "N") == f
        assert atoms_of(transform(f, "T")) == {"a", "eps"}
        r = transform(f, "R")
        for _ in range(self.DEPTH):  # eps U (!eps & X (eps U r'))
            assert isinstance(r, Until) and r.left == EPS
            r = r.right.right.operand.right
        assert r == Until(EPS, Atom("a"))

    def test_semantics(self):
        f = self.nexts(Atom("a"))
        assert evaluate_lasso(LassoWord((), ("a",)), Labeling.canonical(AB), f)
        assert not evaluate_lasso(LassoWord(("a",) * self.DEPTH, ("b",)), Labeling.canonical(AB), f)
        positive, negative = to_buchi(f, AB)
        assert positive.n_states <= self.DEPTH + 2 and negative.n_states <= self.DEPTH + 2


class TestAbstractionLemmas:
    """Sampled semantic checks for the N/T/R rewrites across a letter-hiding map."""

    SIGMA = Alphabet(("a", "b", "c"))
    PRIME = AB
    LAB_PRIME = Labeling.canonical(PRIME)
    # c is hidden: it satisfies only the reserved proposition eps
    LAB_MIXED = Labeling.from_map(
        {"a": {"a"}, "b": {"b"}, "c": {"eps"}}
    )

    def test_boolean_lemma(self, rng):
        for _ in range(200):
            f = gen.random_monotone_boolean(rng, ("a", "b"), 2)
            x = gen.random_lasso(rng, self.SIGMA)
            xp = _image(x, {"c"})
            if xp is None:
                continue
            wrapped = Until(EPS, transform(f, "N"))
            assert evaluate_lasso(xp, self.LAB_PRIME, f) == evaluate_lasso(
                x, self.LAB_MIXED, wrapped
            )

    def test_purely_temporal_lemma(self, rng):
        for _ in range(200):
            f = gen.random_purely_temporal(rng, ("a", "b"), 3)
            x = gen.random_lasso(rng, self.SIGMA)
            xp = _image(x, {"c"})
            if xp is None:
                continue
            assert evaluate_lasso(xp, self.LAB_PRIME, f) == evaluate_lasso(
                x, self.LAB_MIXED, transform(f, "T")
            )

    def test_full_retransformation_lemma(self, rng):
        for _ in range(300):
            f = gen.random_nf_formula(rng, ("a", "b"), 3)
            x = gen.random_lasso(rng, self.SIGMA)
            xp = _image(x, {"c"})
            if xp is None:
                continue
            assert evaluate_lasso(xp, self.LAB_PRIME, f) == evaluate_lasso(
                x, self.LAB_MIXED, transform(f, "R")
            )

    def test_retransformation_lemma_on_every_positive_formula(self, rng):
        # unlike random_nf_formula, these draws hold purely Boolean -> and <->,
        # which hold at every hidden step unless R tightens them
        boolean_implications = 0
        for _ in range(1000):
            f = gen.random_pnf_formula(rng, ("a", "b"), 3)
            boolean_implications += any(
                isinstance(g, (Implies, Iff)) and oracles.is_boolean(g)
                for g in _subformulas(f)
            )
            x = gen.random_lasso(rng, self.SIGMA)
            xp = _image(x, {"c"})
            if xp is None:
                continue
            assert evaluate_lasso(xp, self.LAB_PRIME, f) == evaluate_lasso(
                x, self.LAB_MIXED, transform(f, "R")
            )
        assert boolean_implications > 100
