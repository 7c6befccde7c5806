import pytest
from hypothesis import given, strategies as st

from faultkit.boolexpr import And, Atom, Const, Not, Or, parse_expr
from faultkit.errors import ExpressionError


class TestParsing:
    def test_atom(self):
        assert parse_expr("fault") == Atom("fault")

    def test_constants(self):
        assert parse_expr("true") == Const(True)
        assert parse_expr("false") == Const(False)

    def test_precedence_not_binds_tightest(self):
        assert parse_expr("!a & b") == And(Not(Atom("a")), Atom("b"))

    def test_precedence_and_over_or(self):
        assert parse_expr("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_parentheses(self):
        assert parse_expr("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_node_class_is_part_of_equality(self):
        # an And and an Or over the same operands are different values
        conj, disj = parse_expr("a & b"), parse_expr("a | b")
        assert conj != disj
        assert len({conj: 1, disj: 2}) == 2

    def test_equal_trees_hash_equal(self):
        e, f = parse_expr("(a | !b) & c"), parse_expr("(a|!b)&c")
        assert e == f and e is not f
        assert hash(e) == hash(f)
        assert {e: 1}[f] == 1

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("   ")

    def test_trailing_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("a b")

    def test_unbalanced_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expr("(a & b")

    def test_bad_character(self):
        with pytest.raises(ExpressionError):
            parse_expr("a + b")


BITS = {"a": 4, "b": 2, "c": 1}


def value(expr, valuation):
    """expr's value in one valuation of a, b and c, evaluated over its mask."""
    return expr.over([sum(BITS[a] for a, v in valuation.items() if v)], BITS)[0]


class TestEvaluation:
    def test_basic(self):
        e = parse_expr("a & (b | !c)")
        assert value(e, {"a": True, "b": False, "c": False})
        assert not value(e, {"a": False, "b": True, "c": False})

    def test_missing_atom(self):
        with pytest.raises(ExpressionError):
            parse_expr("a").over([1], {"b": 1})

    def test_one_flag_per_mask_in_order(self):
        assert parse_expr("a & !b | c").over(list(range(8)), BITS) == \
            [False, True, False, True, True, True, False, True]
        assert parse_expr("true").over([0, 7], BITS) == [True, True]
        assert parse_expr("false").over([], BITS) == []

    def test_atoms(self):
        assert parse_expr("a & !b | c").atoms() == {"a", "b", "c"}


@st.composite
def exprs(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return Atom(draw(st.sampled_from(["a", "b", "c"])))
    kind = draw(st.sampled_from(["not", "and", "or"]))
    if kind == "not":
        return Not(draw(exprs(depth=depth - 1)))
    left = draw(exprs(depth=depth - 1))
    right = draw(exprs(depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


class TestRendering:
    @pytest.mark.parametrize("expr,text", [
        (Const(True), "true"),
        (Not(Not(Atom("a"))), "!!a"),
        (Not(And(Atom("a"), Atom("b"))), "!(a & b)"),
        (Not(Or(Atom("a"), Atom("b"))), "!(a | b)"),
        (And(Or(Atom("a"), Atom("b")), Not(Atom("c"))), "(a | b) & !c"),
        (And(Atom("a"), And(Atom("b"), Atom("c"))), "a & b & c"),
        (Or(And(Atom("a"), Atom("b")), Or(Atom("c"), Const(False))), "a & b | c | false"),
        (And(Not(Or(Atom("a"), Atom("b"))), Or(Atom("c"), And(Atom("a"), Atom("b")))),
         "!(a | b) & (c | a & b)"),
    ])
    def test_parenthesises_only_where_precedence_requires(self, expr, text):
        assert str(expr) == text

    def test_deep_tree_renders(self):
        # deeper than the recursion limit, as a long alarm condition is
        text = " | ".join(["a"] * 5000)
        assert str(parse_expr(text)) == text


class TestRoundTrip:
    @given(exprs(), st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_render_parse_same_semantics(self, expr, values):
        valuation = dict(zip("abc", values))
        reparsed = parse_expr(str(expr))
        assert value(reparsed, valuation) == value(expr, valuation)
