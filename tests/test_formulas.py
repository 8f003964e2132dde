import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk import formulas, linalg
from modelk.cosets import AffineCoset, LinearSystem
from modelk.defsets import (And, DefinableSet, Not, Or, boolean_normalize,
                            k0_class)
from modelk.errors import FormulaError
from modelk.formulas import (MAX_DEPTH, Formula, elaborate, format_formula,
                             parse_formula, tokenize)
from modelk.suites import random_expression


def atom(ambient, bound, rows):
    return LinearSystem(ambient, bound, rows)


# --- tokenizing and positions -------------------------------------------------

def test_token_positions():
    toks = tokenize("ambient 2;\n pp(x1 = 0)")
    assert [(t.kind, t.text) for t in toks[:3]] == [
        ("keyword", "ambient"), ("int", "2"), ("symbol", ";")]
    pp = toks[3]
    assert (pp.line, pp.col) == (2, 2)
    assert toks[-1].kind == "eof"


def test_tokens_keep_their_fields():
    toks = tokenize("ambient 2;\n pp(x1 = 1/2)")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("keyword", "ambient", 1, 1), ("int", "2", 1, 9), ("symbol", ";", 1, 10),
        ("keyword", "pp", 2, 2), ("symbol", "(", 2, 4), ("var", "x1", 2, 5),
        ("symbol", "=", 2, 8), ("int", "1", 2, 10), ("symbol", "/", 2, 11),
        ("int", "2", 2, 12), ("symbol", ")", 2, 13), ("eof", "", 2, 14)]


def test_unknown_name_position():
    with pytest.raises(FormulaError) as info:
        tokenize("ambient 1; pp(z3 = 0)")
    assert (info.value.line, info.value.col) == (1, 15)
    assert "z3" in str(info.value) and "line 1" in str(info.value)


def test_stray_character_position():
    with pytest.raises(FormulaError) as info:
        tokenize("ambient 1;\npp(x1 @ 0)")
    assert (info.value.line, info.value.col) == (2, 7)


@pytest.mark.parametrize("text, col, fragment", [
    ("ambient \u00b2; pp(x1 = 0)", 9, "stray character"),
    ("ambient 1; pp(x\u00b2 = 0)", 15, "unknown name"),
    ("ambient 1; pp(x1 = \u00b3)", 20, "stray character"),
    ("ambient 1; pp(x1 = 1\u00b2)", 21, "stray character"),
    ("ambient 1; pp(x\u0661 = 1)", 15, "unknown name"),
])
def test_only_ascii_digits_are_numbers(text, col, fragment):
    # str.isdigit accepts superscripts, which int() refuses, and other
    # scripts' digits, which int() reads as ASCII ones
    with pytest.raises(FormulaError) as info:
        parse_formula(text)
    assert (info.value.line, info.value.col) == (1, col)
    assert fragment in str(info.value)


# --- parsing -------------------------------------------------------------------

def test_simple_atom_rows():
    f = parse_formula("ambient 2; pp(2*x1 + 1/2*x2 = 3)")
    assert f.ambient == 2
    assert f.root == atom(2, 0, [["2", "1/2", "3"]])


def test_variables_collected_across_both_sides():
    f = parse_formula("ambient 2; pp(x1 + 1 = x2 - 2)")
    assert f.root == atom(2, 0, [[1, -1, -3]])
    g = parse_formula("ambient 1; pp(3*x1 - x1 = 4)")
    assert g.root == atom(1, 0, [[2, 4]])


def test_existential_block():
    f = parse_formula("ambient 2; pp(E y1 y2 : x1 - y1 = 0 & y2 = 1)")
    assert f.root == atom(2, 2, [[1, 0, -1, 0, 0], [0, 0, 0, 1, 1]])


def test_precedence_and_parens():
    f = parse_formula(
        "ambient 1; pp(x1 = 0) | pp(x1 = 1) & !pp(x1 = 2)")
    assert isinstance(f.root, Or)
    assert isinstance(f.root.right, And)
    assert isinstance(f.root.right.right, Not)
    g = parse_formula(
        "ambient 1; (pp(x1 = 0) | pp(x1 = 1)) & !pp(x1 = 2)")
    assert isinstance(g.root, And)
    assert isinstance(g.root.left, Or)


def test_chains_fold_from_the_left():
    a, b, c = (atom(1, 0, [[1, k]]) for k in range(3))
    f = parse_formula("ambient 1; pp(x1 = 0) | pp(x1 = 1) | pp(x1 = 2)")
    assert f.root == Or(Or(a, b), c)
    g = parse_formula("ambient 1; pp(x1 = 0) & (pp(x1 = 1) & pp(x1 = 2))")
    assert g.root == And(a, And(b, c))


def test_double_negation_parses():
    f = parse_formula("ambient 1; !!pp(x1 = 0)")
    assert isinstance(f.root, Not) and isinstance(f.root.child, Not)


def test_parse_errors_carry_positions():
    cases = [
        ("ambient 0; pp(x1 = 0)", "ambient"),
        ("ambient 1; pp(x2 = 0)", "exceeds the ambient"),
        ("ambient 1; pp(y1 = 0)", "not bound"),
        ("ambient 1; pp(E y2 : x1 = y2)", "in order"),
        ("ambient 1; pp(E : x1 = 0)", "at least one"),
        ("ambient 1; pp(E y1 : x1 = y2)", "exceeds the 1 bound"),
        ("ambient 1; pp(x1 = 1/0)", "zero denominator"),
        ("ambient 1; pp(x1 = 0", "expected"),
        ("ambient 1; pp(x1 = 0) pp(x1 = 1)", "unexpected"),
        ("ambient 1; pp(x1 == 0)", "expected"),
        ("pp(x1 = 0)", "ambient"),
    ]
    for text, fragment in cases:
        with pytest.raises(FormulaError) as info:
            parse_formula(text)
        assert fragment in str(info.value), text
        assert info.value.line is not None, text


ATOM = "pp(x1 = 0)"
DEEP = {
    "nots": "!" * 1200 + ATOM,
    "parens": "(" * 400 + ATOM + ")" * 400,
    "chain": " | ".join([ATOM] * 1101),
}


# the index in DEEP's text of the operator or parenthesis that passes the
# bound: the `!` with MAX_DEPTH more after it (a tree of `!`s is built from
# the inside out), the (MAX_DEPTH + 1)-th `(` and the (MAX_DEPTH + 1)-th `|`
@pytest.mark.parametrize("kind, index", [("nots", 1200 - MAX_DEPTH - 1),
                                         ("parens", MAX_DEPTH),
                                         ("chain", 13 * (MAX_DEPTH + 1) - 2)])
def test_nesting_past_the_bound_is_a_formula_error(kind, index):
    prefix = "ambient 1; "
    with pytest.raises(FormulaError, match=f"nests deeper than {MAX_DEPTH} levels") \
            as info:
        parse_formula(prefix + DEEP[kind])
    assert DEEP[kind][index] in "!(|"
    assert (info.value.line, info.value.col) == (1, len(prefix) + index + 1)


def test_nesting_at_the_bound_parses_and_normalizes():
    texts = ["!" * MAX_DEPTH + ATOM,
             "(" * MAX_DEPTH + ATOM + ")" * MAX_DEPTH,
             " | ".join([ATOM] * (MAX_DEPTH + 1)),
             "(!" * (MAX_DEPTH // 2) + ATOM + ")" * (MAX_DEPTH // 2)]
    for text in texts:
        f = parse_formula("ambient 1; " + text)
        assert parse_formula(format_formula(f)) == f
        boolean_normalize(f.root, 1)


def test_deep_trees_built_in_python_format():
    # trees past the parser's bound, built directly: printing needs no stack
    leaf = parse_formula("ambient 1; " + ATOM).root
    nots = chain = leaf
    for _ in range(1200):
        nots = Not(nots)
    for _ in range(1100):
        chain = Or(chain, leaf)
    assert format_formula(Formula(1, nots)) == "ambient 1; " + DEEP["nots"]
    assert format_formula(Formula(1, chain)) == "ambient 1; " + DEEP["chain"]


def test_one_integer_route_from_text_to_rows():
    # the parser builds no Fraction, and no second form of a row is kept
    assert not hasattr(formulas, "Fraction")
    assert not hasattr(linalg, "frac_rows")
    assert not hasattr(LinearSystem, "is_integral")


@pytest.mark.parametrize("text, row", [
    ("pp(1/2*x1 + 1/2*x1 = 1)", (1, 1)),
    ("pp(x1 = 1)", (1, 1)),
    ("pp(x1 = 1/2)", (2, 1)),
    ("pp(2*x1 = 4)", (2, 4)),  # an integer row keeps its content
    ("pp(4/2*x1 = 8/2)", (2, 4)),
    ("pp(2/3*x1 = 4/3)", (2, 4)),
    ("pp(0 = 0)", (0, 0)),
    ("pp(0 = 1/2)", (0, 1)),
])
def test_equations_are_cleared_of_denominators(text, row):
    (parsed,) = parse_formula("ambient 1; " + text).root.rows
    assert parsed == row and all(type(x) is int for x in parsed)


FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _sum_text(terms) -> str:
    """A sum of (value, variable name or None, k) terms, each magnitude
    written as the fraction (k * numerator)/(k * denominator); "0" when
    there is no term."""
    parts = []
    for value, name, k in terms:
        num, den = abs(value.numerator) * k, value.denominator * k
        number = str(num) if den == 1 else f"{num}/{den}"
        parts.append(("-" if value < 0 else "+",
                      number if name is None else f"{number}*{name}"))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def _spellings(draw, row, names):
    """Equivalent texts of the equation row . (names, -1) = 0: as written,
    with reducible fractions, with one coefficient split into two terms,
    and with terms moved across `=`."""
    *coeffs, rhs = row
    terms = [(c, name) for c, name in zip(coeffs, names) if c]
    plain = [(c, name, 1) for c, name in terms]
    texts = [f"{_sum_text(plain)} = {_sum_text([(rhs, None, 1)])}"]
    scaled = [(c, name, draw(st.integers(2, 4))) for c, name in terms]
    texts.append(f"{_sum_text(scaled)} = "
                 f"{_sum_text([(rhs, None, draw(st.integers(2, 4)))])}")
    j = draw(st.integers(0, len(coeffs) - 1))
    part = draw(FRACTIONS.filter(bool))
    split = []
    for i, (c, name) in enumerate(zip(coeffs, names)):
        if i == j:
            split += [(part, name, 1), (c - part, name, 1)]
        elif c:
            split.append((c, name, 1))
    texts.append(f"{_sum_text(split)} = {_sum_text([(rhs, None, 1)])}")
    left, right = [], []
    for c, name in terms:
        if draw(st.booleans()):
            right.append((-c, name, 1))
        else:
            left.append((c, name, 1))
    if draw(st.booleans()):
        left.append((-rhs, None, 1))
    else:
        right.append((rhs, None, 1))
    texts.append(f"{_sum_text(left)} = {_sum_text(right)}")
    return texts


@settings(max_examples=200)
@given(st.data())
def test_parser_agrees_with_a_fraction_oracle(data):
    draw = data.draw
    n = draw(st.integers(1, 3))
    bound = draw(st.sampled_from([0, 0, 1, 2]))
    rows = draw(st.lists(st.lists(FRACTIONS, min_size=n + bound + 1,
                                  max_size=n + bound + 1),
                         min_size=1, max_size=3))
    names = [f"x{i + 1}" for i in range(n)] + [f"y{j + 1}" for j in range(bound)]
    prefix = f"E {' '.join(names[n:])} : " if bound else ""
    spelt = [_spellings(draw, row, names) for row in rows]
    expected = LinearSystem(n, bound, rows)
    # each row times the lcm of its denominators, in Fraction arithmetic
    cleared = tuple(tuple(int(x * lcm(*(y.denominator for y in row))) for x in row)
                    for row in rows)
    assert expected.rows == cleared
    for k in range(len(spelt[0])):
        text = f"ambient {n}; pp({prefix}{' & '.join(s[k] for s in spelt)})"
        system = parse_formula(text).root
        assert system == expected, text
        assert all(type(x) is int for row in system.rows for x in row), text
    coset = AffineCoset.from_rows(n + bound, rows).project(n)
    assert (k0_class(boolean_normalize(system, n))
            == k0_class(DefinableSet.from_coset(coset)))


def test_random_expressions_round_trip():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 3)
        f = Formula(n, random_expression(rng, n, depth=3))
        assert parse_formula(format_formula(f)) == f, format_formula(f)


# --- printing ------------------------------------------------------------------

def test_format_canonical_sample():
    f = parse_formula(
        "ambient 2;  pp( E y1 :  x1  - 2*y1 = 0 )  &  !pp( x2 = 1/3 )")
    assert format_formula(f) == (
        "ambient 2; pp(E y1 : x1 - 2*y1 = 0) & !pp(3*x2 = 1)")


def test_format_handles_signs_and_zero_rows():
    f = parse_formula("ambient 2; pp(0 = 1/2 & -x1 - 3/2*x2 = -7)")
    out = format_formula(f)
    assert "0 = 1" in out and "-2*x1 - 3*x2 = -14" in out
    assert parse_formula(out) == f


def test_format_parenthesizes_by_context():
    f = parse_formula("ambient 1; !(pp(x1 = 0) | pp(x1 = 1))")
    assert format_formula(f) == "ambient 1; !(pp(x1 = 0) | pp(x1 = 1))"
    g = parse_formula("ambient 1; (pp(x1 = 0) | pp(x1 = 1)) & pp(x1 = 2)")
    assert format_formula(g) == (
        "ambient 1; (pp(x1 = 0) | pp(x1 = 1)) & pp(x1 = 2)")


def test_format_parenthesizes_only_right_nested_chains():
    a, b, c = "pp(x1 = 0)", "pp(x1 = 1)", "pp(x1 = 2)"
    cases = [
        (f"({a} & {b}) & {c}", f"{a} & {b} & {c}"),
        (f"{a} & ({b} & {c})", f"{a} & ({b} & {c})"),
        (f"({a} | {b}) | {c}", f"{a} | {b} | {c}"),
        (f"{a} | ({b} | {c})", f"{a} | ({b} | {c})"),
        (f"({a} & {b}) | ({b} & {c})", f"{a} & {b} | {b} & {c}"),
        (f"{a} & ({b} | {c})", f"{a} & ({b} | {c})"),
        (f"!({a} & {b})", f"!({a} & {b})"),
        (f"!!{a}", f"!!{a}"),
    ]
    for text, printed in cases:
        f = parse_formula("ambient 1; " + text)
        assert format_formula(f) == "ambient 1; " + printed, text
        assert parse_formula(format_formula(f)) == f, text


def test_round_trip_is_identity_on_ast():
    texts = [
        "ambient 1; pp(x1 = 0)",
        "ambient 3; pp(E y1 : x1 - y1 = 0 & x2 + y1 = 1) | !pp(x3 = -2/5)",
        "ambient 2; !(pp(x1 = 0) & pp(x2 = 0)) | pp(x1 - x2 = 1/7)",
        "ambient 2; pp(1/2*x1 + 2/3*x2 = -5/6)",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f, text


def _random_atom(rng, ambient):
    bound = rng.choice([0, 0, 1, 2])
    rows = []
    for _ in range(rng.randint(1, 2)):
        row = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
               for _ in range(ambient + bound)]
        row.append(Fraction(rng.randint(-6, 6), rng.choice([1, 2])))
        rows.append(row)
    return atom(ambient, bound, rows)


def _random_node(rng, ambient, depth):
    """A random binary tree, with And and Or operands of any shape, so that
    same-operator children sit on both sides."""
    if depth <= 0 or rng.random() < 0.3:
        return _random_atom(rng, ambient)
    shape = rng.choice(["not", "and", "or"])
    if shape == "not":
        return Not(_random_node(rng, ambient, depth - 1))
    left = _random_node(rng, ambient, depth - 1)
    right = _random_node(rng, ambient, depth - 1)
    return And(left, right) if shape == "and" else Or(left, right)


def test_seeded_round_trips():
    rng = random.Random(977)
    for _ in range(80):
        ambient = rng.randint(1, 3)
        f = Formula(ambient, _random_node(rng, ambient, 3))
        text = format_formula(f)
        assert parse_formula(text) == f, text


# --- elaboration -----------------------------------------------------------------

def test_elaborate_structure():
    f = parse_formula("ambient 2; pp(x1 = 0) & !pp(x2 = 0)")
    expr = elaborate(f)
    assert isinstance(expr, And)
    assert isinstance(expr.left, LinearSystem) and isinstance(expr.right, Not)
    system = expr.left
    assert system.ambient == 2 and system.bound == 0
    assert system.rows == ((Fraction(1), Fraction(0), Fraction(0)),)


def test_elaborate_semantics():
    f = parse_formula("ambient 2; pp(E y1 : x1 - 2*y1 = 0) & !pp(x2 = 1/3)")
    cls = k0_class(boolean_normalize(elaborate(f), f.ambient))
    # the existential solves for every x1: a plane minus a line
    assert cls.degree == 2
    assert cls.evaluate(5) == 25 - 5


def test_elaborate_flattens_chains():
    f = parse_formula("ambient 1; pp(x1 = 0) | pp(x1 = 1) | pp(x1 = 2)")
    cls = k0_class(boolean_normalize(elaborate(f), 1))
    assert cls.evaluate(10) == 3 and cls.degree == 0
