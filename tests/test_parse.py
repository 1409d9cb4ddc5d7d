"""Expression grammar: round trips, compact table notation, error positions."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from skewpoisson import PolyParseError, Polynomial, format_poly, parse_poly
from skewpoisson.parse import DEGREE_CAP, TERM_PRODUCT_BUDGET, ExpansionBudget, power_work
from skewpoisson.poly import variable_name

GEN_NAMES = ["f1", "f2", "f3", "f4", "h1", "h2", "h3", "h4"]


class TestBasics:
    def test_generator_polynomial(self):
        got = parse_poly("x1^2 + x3^2", nvars=4)
        assert got == Polynomial(4, {(2, 0, 0, 0): 1, (0, 0, 2, 0): 1})

    def test_zero(self):
        assert parse_poly("0", nvars=4).is_zero

    def test_explicit_star_relation(self):
        got = parse_poly("1/2*f1*f2*h4 - 1/2*f1*f4*h1", names=GEN_NAMES)
        assert len(got) == 2
        assert got.coefficient((1, 1, 0, 0, 0, 0, 0, 1)) == Fraction(1, 2)
        assert got.coefficient((1, 0, 0, 1, 1, 0, 0, 0)) == Fraction(-1, 2)

    def test_whitespace_insignificant(self):
        assert parse_poly(" x1 ^ 2+ x3^2 ", nvars=4) == parse_poly("x1^2+x3^2", nvars=4)

    def test_parentheses_and_signs(self):
        assert parse_poly("-(x1 - x2)^2", nvars=2) == parse_poly(
            "-x1^2 + 2*x1*x2 - x2^2", nvars=2
        )

    def test_unicode_minus_normalized(self):
        assert parse_poly("−1", nvars=1) == Polynomial.constant(1, -1)


class TestPowers:
    @pytest.mark.parametrize("base", ["x1 + x2", "1/2*x1*x2 - x3^2 + 3", "-x4", "x1 - x1"])
    def test_parsed_power_is_the_polynomial_power(self, base):
        parsed = parse_poly(base, nvars=4)
        for e in range(7):
            assert parse_poly(f"({base})^{e}", nvars=4) == parsed ** e


class TestCompactNotation:
    def test_literal_name_juxtaposition(self):
        assert parse_poly("1/2f1", names=GEN_NAMES) == parse_poly(
            "1/2*f1", names=GEN_NAMES
        )

    def test_literal_power_name_chain(self):
        # 1/2f1^2f2 means (1/2) * f1^2 * f2
        assert parse_poly("1/2f1^2f2", names=GEN_NAMES) == parse_poly(
            "1/2*f1^2*f2", names=GEN_NAMES
        )

    def test_name_name_juxtaposition(self):
        assert parse_poly("-f1f2h1 + 2h1h2", names=GEN_NAMES) == parse_poly(
            "-f1*f2*h1 + 2*h1*h2", names=GEN_NAMES
        )

    def test_stray_star_is_plain_multiplication(self):
        assert parse_poly("1/2f1f2*h4", names=GEN_NAMES) == parse_poly(
            "1/2*f1*f2*h4", names=GEN_NAMES
        )

    def test_greedy_name_matching_many_variables(self):
        # x1x12 must split as x1 * x12, not x1 * x1 * <error>
        got = parse_poly("x1x12", nvars=12)
        exps = [0] * 12
        exps[0] = 1
        exps[11] = 1
        assert got == Polynomial(12, {tuple(exps): 1})


class TestErrors:
    def test_unknown_symbol_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x1 + y2", nvars=4)
        assert err.value.position == 6

    def test_unexpected_trailing_input(self):
        with pytest.raises(PolyParseError, match="trailing"):
            parse_poly("x1 )", nvars=4)

    def test_missing_operand(self):
        with pytest.raises(PolyParseError):
            parse_poly("x1 + ", nvars=4)

    def test_general_division_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("x1/2", nvars=4)

    def test_zero_denominator(self):
        with pytest.raises(PolyParseError, match="zero denominator"):
            parse_poly("1/0", nvars=4)

    def test_exponent_overflow(self):
        with pytest.raises(PolyParseError, match="exponent 65 exceeds the degree cap 64"):
            parse_poly("x1^65", nvars=4)

    @pytest.mark.parametrize("text", ["(x1^64)^64", "x1^40*x1^40", "x1^40 x1^40",
                                      "(x1^2 + x2)^33", "(x1*x2)^40"])
    def test_nested_degree_overflow(self, text):
        with pytest.raises(PolyParseError, match="degree cap 64"):
            parse_poly(text, nvars=4)

    def test_degree_at_the_cap_accepted(self):
        assert parse_poly("(x1^8)^8", nvars=4) == parse_poly("x1^64", nvars=4)
        assert parse_poly("x1^32*x2^32 + x3", nvars=4).total_degree() == 64

    def test_dense_product_over_the_budget_rejected_unbuilt(self):
        # each power fits the budget, their product (455 x 455 terms) does not
        start = time.perf_counter()
        with pytest.raises(PolyParseError,
                           match=f"term-product budget {TERM_PRODUCT_BUDGET}"):
            parse_poly("(x1+x2+x3+x4)^12*(x1+x2+x3+x4)^12", nvars=4)
        assert time.perf_counter() - start < 0.5

    def test_budget_holds_the_whole_expression(self):
        # 15504 term products per power: three fit the budget, four do not
        power = "(x1+x2+x3+x4)^16"
        assert parse_poly(" + ".join([power] * 3), nvars=4) == 3 * parse_poly(power, nvars=4)
        with pytest.raises(PolyParseError, match=(
                f"^position 66: expanding needs up to 62016 term products, over "
                f"the term-product budget {TERM_PRODUCT_BUDGET}$")):
            parse_poly("+".join([power] * 4), nvars=4)

    def test_dense_power_within_the_budget_accepted(self):
        # every monomial of degree 16 in four variables
        assert len(parse_poly("(x1+x2+x3+x4)^16", nvars=4)) == 969

    def test_zero_power_needs_no_work(self):
        assert parse_poly("(x1-x1)^64", nvars=4).is_zero

    @pytest.mark.parametrize("text, position", [("x1^\u00b2", 4), ("\u0663*x1", 1)])
    def test_non_ascii_digit_is_an_unknown_symbol(self, text, position):
        # superscript two and Arabic-Indic three are digits to str.isdigit(),
        # not INT tokens of the grammar
        with pytest.raises(PolyParseError, match="unknown symbol") as err:
            parse_poly(text, nvars=4)
        assert err.value.position == position

    def test_number_after_name_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("x1 2", nvars=4)

    def test_bad_name_context(self):
        with pytest.raises(ValueError):
            parse_poly("x1", names=[])
        with pytest.raises(ValueError):
            parse_poly("x1")

    @pytest.mark.parametrize("text, alphabet, match", [
        ("x1^x2", {"nvars": 2}, "integer exponent"),
        ("1/x1", {"nvars": 2}, "integer denominator"),
        ("a", {"nvars": 2, "names": ["a"]}, "disagrees with the number of names"),
        ("a", {"names": ["a", "a"]}, "unique"),
        # a name the tokenizer would read as a number, an operator or a space
        ("2", {"names": ["f1", "2"]}, "cannot be read"),
        ("+a", {"names": ["f1", "+a"]}, "cannot be read"),
        (" a", {"names": ["f1", " a"]}, "cannot be read"),
    ])
    def test_guards(self, text, alphabet, match):
        with pytest.raises(ValueError, match=match):
            parse_poly(text, **alphabet)


class TestRoundTrip:
    CASES = [
        "0",
        "1",
        "-1",
        "5/3",
        "x1",
        "-x4",
        "2*x1^2 + 2*x3^2",
        "x1*x2 + x3*x4",
        "1/2*x1^3*x2 - 7*x4 + 2/9",
        "x1^2*x2^2 + x3^2*x4^2",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_format_then_parse(self, text):
        p = parse_poly(text, nvars=4)
        assert parse_poly(format_poly(p), nvars=4) == p

    def test_format_is_grlex_descending(self):
        p = parse_poly("x3^2 + x1^2*x2^2 + 1 + x1", nvars=4)
        assert format_poly(p) == "x1^2*x2^2 + x3^2 + x1 + 1"


class RandomExpression:
    """A seeded random expression, written out as text while the same tree
    is built with :class:`Polynomial` arithmetic.  ``charges`` lists the
    ``(degree, work, position)`` of every power and product in parse order:
    a product of ``a`` and ``b`` charges ``deg a + deg b`` and
    ``len(a) * len(b)`` at its ``*`` or juxtaposed name, a power ``b^e``
    charges ``e * deg b`` and ``power_work(b, e)`` at its exponent."""

    def __init__(self, rng: random.Random, names):
        self.rng, self.names, self.nvars = rng, names, len(names)
        self.text = ""
        self.charges = []

    def emit(self, piece: str) -> int:
        """Append ``piece``, sometimes after a space; its 1-based position."""
        if self.rng.random() < 0.15:
            self.text += " "
        self.text += piece
        return len(self.text) - len(piece) + 1

    def expr(self, depth: int) -> Polynomial:
        terms = []
        for k in range(self.rng.randint(1, 3)):
            sign = self.rng.choice("+-") if k else self.rng.choice(["", "+", "-"])
            if sign:
                self.emit(sign)
            term = self.term(depth)
            terms.append(-term if sign == "-" else term)
        return Polynomial.sum(self.nvars, terms)

    def term(self, depth: int) -> Polynomial:
        product, _ = self.factor(depth, self.rng.choice(["number", "name", "name", "("]))
        for _ in range(self.rng.randint(0, 3)):
            if self.rng.random() < 0.5:  # compact juxtaposition: 1/2f1^2f2
                factor, pos = self.factor(depth, "name")
            else:
                pos = self.emit("*")
                factor, _ = self.factor(depth, self.rng.choice(["number", "name", "("]))
            self.charges.append((product.total_degree() + factor.total_degree(),
                                 len(product) * len(factor), pos))
            product = product * factor
        return product

    def factor(self, depth: int, kind: str):
        """The factor's polynomial and the position of its first character."""
        rng = self.rng
        if kind == "number":
            num, den = rng.randint(0, 4), rng.choice([1, 1, 2, 3])
            start = self.emit(str(num))
            if den != 1 or rng.random() < 0.1:
                self.emit("/")
                self.emit(str(den))
            base = Polynomial.constant(self.nvars, Fraction(num, den))
        elif kind == "name" or depth == 0:
            i = rng.randrange(self.nvars)
            start = self.emit(self.names[i])
            base = Polynomial.monomial(self.nvars, [int(j == i) for j in range(self.nvars)])
        else:
            start = self.emit("(")
            if rng.random() < 0.25:  # a zero factor such as (x1-x1)
                name = rng.choice(self.names)
                self.emit(name)
                self.emit("-")
                self.emit(name)
                base = Polynomial.zero(self.nvars)
            else:
                base = self.expr(depth - 1)
            self.emit(")")
        if rng.random() < 0.4:
            self.emit("^")
            e = rng.randint(0, 4)
            self.charges.append((base.total_degree() * e, power_work(base, e), self.emit(str(e))))
            base = base ** e
        return base, start


def refusal(charges):
    """The index and message of the first charge the budgets refuse, if any."""
    spent = 0
    for k, (degree, work, _) in enumerate(charges):
        if degree > DEGREE_CAP:
            return k, f"degree {degree} exceeds the degree cap {DEGREE_CAP}"
        spent += work
        if spent > TERM_PRODUCT_BUDGET:
            return k, (f"expanding needs up to {spent} term products, over the "
                       f"term-product budget {TERM_PRODUCT_BUDGET}")
    return None


class TestRandomExpressions:
    @pytest.mark.parametrize("seed", range(8))
    def test_parse_equals_the_arithmetic_of_the_same_tree(self, seed, monkeypatch):
        rng = random.Random(f"parse-equivalence:{seed}")
        names = GEN_NAMES if seed % 2 else [variable_name(i) for i in range(4)]
        charged, budgets = [], []
        charge = ExpansionBudget.charge

        def recording_charge(budget, degree, work):
            charged.append((degree, work))
            budgets.append(budget)
            charge(budget, degree, work)

        monkeypatch.setattr(ExpansionBudget, "charge", recording_charge)
        refused = 0
        for _ in range(40):
            tree = RandomExpression(rng, names)
            expected = tree.expr(depth=2)
            charged.clear()
            budgets.clear()
            refused_at = refusal(tree.charges)
            if refused_at is None:
                assert parse_poly(tree.text, names=names) == expected, tree.text
                assert charged == [(d, w) for d, w, _ in tree.charges], tree.text
                assert not budgets or (len(set(map(id, budgets))) == 1
                                       and budgets[0].spent == sum(w for _, w in charged))
            else:
                refused += 1
                k, message = refused_at
                with pytest.raises(PolyParseError) as err:
                    parse_poly(tree.text, names=names)
                assert str(err.value) == f"position {tree.charges[k][2]}: {message}"
                assert charged == [(d, w) for d, w, _ in tree.charges[:k + 1]]
        assert refused < 40

    @pytest.mark.parametrize("text, message", [
        ("x1^40*x1^40", "position 6: degree 80 exceeds the degree cap 64"),
        ("1/2x1^40x1^30", "position 9: degree 70 exceeds the degree cap 64"),
        ("0^0*x1^64*x1", "position 10: degree 65 exceeds the degree cap 64"),
        ("-x1^20x2^20x3^20x4^20", "position 17: degree 80 exceeds the degree cap 64"),
        ("x1^30*(x1+x2)^30*(x1+x2)^5", "position 17: degree 65 exceeds the degree cap 64"),
        ("+".join(["(x1+x2+x3+x4)^16"] * 4), "position 66: expanding needs up to 62016 "
         f"term products, over the term-product budget {TERM_PRODUCT_BUDGET}"),
    ])
    def test_refusals_keep_their_messages_and_positions(self, text, message):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, nvars=4)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["0*x1^40*x1^40", "(x1-x1)^3*x1^64*x1", "0*x1^64*x2"])
    def test_a_zero_factor_has_degree_minus_one(self, text):
        assert parse_poly(text, nvars=4).is_zero


class TestNoProductsForMonomialTerms:
    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        for op in ("__mul__", "__rmul__", "__pow__"):
            def counted(*args, _real=getattr(Polynomial, op), _op=op):
                calls.append(_op)
                return _real(*args)
            monkeypatch.setattr(Polynomial, op, counted)
        return calls

    def test_bundled_tables_multiply_no_polynomials(self, config, products):
        config.build_generator_set()
        config.build_relation_set()
        assert products == []

    def test_a_parenthesized_factor_still_multiplies(self, products):
        assert parse_poly("(x1+x2)^2*x3", nvars=4) == parse_poly(
            "x1^2*x3 + 2*x1*x2*x3 + x2^2*x3", nvars=4)
        assert "__mul__" in products and "__pow__" in products
