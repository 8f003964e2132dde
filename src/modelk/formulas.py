"""Surface syntax for positive-primitive set descriptions.

A formula looks like

    ambient 2; pp(E y1 : x1 - 2*y1 = 0) & !pp(x2 = 1/3)

`ambient <n>;` fixes the free variables x1 .. xn.  A pp atom is a
conjunction of linear equations, whose coefficients are integers or
fractions such as 1/3, optionally prefixed by an existential block
`E y1 .. ym :` binding auxiliary variables.  Atoms combine with ! & | and
parentheses, with the usual precedence (! binds tightest, then &, then |).

Numbers and variable indices are ASCII digits.  Parsing builds the
`defsets` boolean tree that normalization and counting take: a pp atom
becomes a `LinearSystem`, `!` a `Not`, and chains of `&` or `|` fold from
the left into binary `And` or `Or`.  Each equation becomes one integer
row of x coefficients, then y coefficients, then the right side: its
rational coefficients times the lcm of their denominators, so `x2 = 1/3`
is the row of `3*x2 = 1`, and an integer row stays as written.  No
Fraction is built.  `format_formula` prints a tree back in the same
syntax, so that `parse_formula(format_formula(f)) == f`.
Trees and parentheses nest at most `MAX_DEPTH` deep: the parser recurses
on parentheses, and a tree's dataclass equality, hash and repr recurse on
its nodes.  The walks over a tree are `defsets.fold`s, which do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .cosets import LinearSystem
from .defsets import And, Not, Or, fold
from .errors import FormulaError

_KEYWORDS = {"ambient", "pp", "E"}
_SYMBOLS = ";:&|!()=+-*"
# str.isdigit also accepts characters such as '²', which int() refuses
_DIGITS = "0123456789"
# the highest tree, and the deepest nesting of parentheses, that parses
MAX_DEPTH = 200


class Token(NamedTuple):
    kind: str  # int | var | keyword | symbol | eof
    text: str
    line: int
    col: int


def _fail(msg: str, tok: Token):
    raise FormulaError(msg, tok.line, tok.col)


def _checked_depth(depth: int, tok: Token) -> int:
    """depth; a FormulaError at `tok` if it is over MAX_DEPTH."""
    if depth > MAX_DEPTH:
        _fail(f"formula nests deeper than {MAX_DEPTH} levels", tok)
    return depth


def tokenize(text: str) -> list[Token]:
    toks = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c in " \t\r":
            col, i = col + 1, i + 1
            continue
        start_col = start = None
        if c in _DIGITS:
            start, start_col = i, col
            while i < len(text) and text[i] in _DIGITS:
                i, col = i + 1, col + 1
            toks.append(Token("int", text[start:i], line, start_col))
            continue
        if c.isalpha() or c == "_":
            start, start_col = i, col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i, col = i + 1, col + 1
            word = text[start:i]
            if word in _KEYWORDS:
                toks.append(Token("keyword", word, line, start_col))
            elif (word[0] in "xy" and word[1:].isascii() and word[1:].isdigit()
                  and int(word[1:]) >= 1):
                toks.append(Token("var", word, line, start_col))
            else:
                raise FormulaError(f"unknown name {word!r}", line, start_col)
            continue
        if c in _SYMBOLS or c == "/":
            toks.append(Token("symbol", c, line, col))
            col, i = col + 1, i + 1
            continue
        raise FormulaError(f"stray character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass(frozen=True)
class Formula:
    """`root` is a `defsets` boolean tree: `Not`, binary `And` and `Or`,
    and `LinearSystem` leaves."""

    ambient: int
    root: object


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.parens = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            got = tok.text or "end of input"
            _fail(f"expected {want!r}, found {got!r}", tok)
        return tok

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == text

    # grammar ---------------------------------------------------------

    def formula(self) -> Formula:
        self.expect("keyword", "ambient")
        tok = self.expect("int")
        ambient = int(tok.text)
        if ambient < 1:
            _fail("ambient dimension must be at least 1", tok)
        self.expect("symbol", ";")
        self.ambient = ambient
        root, _ = self.or_expr()
        tail = self.next()
        if tail.kind != "eof":
            _fail(f"unexpected {tail.text!r} after formula", tail)
        return Formula(ambient, root)

    # the expression rules return (tree, height), a leaf's height being 0

    def or_expr(self):
        expr, height = self.and_expr()
        while self.at_symbol("|"):
            tok = self.next()
            right, other = self.and_expr()
            expr, height = Or(expr, right), _checked_depth(1 + max(height, other), tok)
        return expr, height

    def and_expr(self):
        expr, height = self.not_expr()
        while self.at_symbol("&"):
            tok = self.next()
            right, other = self.not_expr()
            expr, height = And(expr, right), _checked_depth(1 + max(height, other), tok)
        return expr, height

    def not_expr(self):
        nots = []
        while self.at_symbol("!"):
            nots.append(self.next())
        expr, height = self.primary()
        for tok in reversed(nots):
            expr, height = Not(expr), _checked_depth(height + 1, tok)
        return expr, height

    def primary(self):
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "pp":
            return self.pp_atom(), 0
        if self.at_symbol("("):
            self.next()
            self.parens = _checked_depth(self.parens + 1, tok)
            inner = self.or_expr()
            self.expect("symbol", ")")
            self.parens -= 1
            return inner
        _fail(f"expected a pp atom or '(', found {tok.text or 'end of input'!r}",
              tok)

    def pp_atom(self) -> LinearSystem:
        self.expect("keyword", "pp")
        self.expect("symbol", "(")
        bound = 0
        if self.peek().kind == "keyword" and self.peek().text == "E":
            self.next()
            seen = []
            while self.peek().kind == "var":
                tok = self.next()
                if tok.text[0] != "y":
                    _fail("existential block binds y-variables only", tok)
                idx = int(tok.text[1:])
                if idx != len(seen) + 1:
                    _fail(f"existential variables must be y1, y2, ... in "
                          f"order; found {tok.text!r}", tok)
                seen.append(idx)
            if not seen:
                _fail("existential block needs at least one variable",
                      self.peek())
            self.expect("symbol", ":")
            bound = len(seen)
        rows = [self.equation(bound)]
        while self.at_symbol("&"):
            self.next()
            rows.append(self.equation(bound))
        self.expect("symbol", ")")
        return LinearSystem(self.ambient, bound, tuple(rows))

    def equation(self, bound: int) -> tuple[int, ...]:
        """One row of ints: the equation's rational coefficients, right side
        last, times the lcm of their reduced denominators.  The row is
        summed as numerators over one common denominator D, and that lcm is
        D / gcd(D, every numerator); an integer row stays as written."""
        row = [0] * (self.ambient + bound + 1)
        den = self.linear_sum(bound, row, 1, 1)
        self.expect("symbol", "=")
        den = self.linear_sum(bound, row, -1, den)
        g = gcd(den, *row)
        return tuple(row) if g == 1 else tuple(v // g for v in row)

    def linear_sum(self, bound: int, row: list[int], side: int, den: int) -> int:
        """Add one side of an equation into `row`, numerators over the
        common denominator `den`, and return the common denominator, which
        a term's denominator may enlarge.  The left side (side 1) adds its
        coefficients and subtracts its constants from the right side; the
        right side (side -1) does the opposite."""
        sign = side
        if self.at_symbol("-"):
            self.next()
            sign = -side
        while True:
            num, d, var_slot = self.term(bound)
            if den % d:
                scale = d // gcd(den, d)
                row[:] = [v * scale for v in row]
                den *= scale
            num *= sign * (den // d)
            if var_slot is None:
                row[-1] -= num
            else:
                row[var_slot] += num
            if self.at_symbol("+"):
                self.next()
                sign = side
            elif self.at_symbol("-"):
                self.next()
                sign = -side
            else:
                return den

    def term(self, bound: int):
        """One summand: returns (numerator, denominator, variable slot or
        None)."""
        tok = self.peek()
        if tok.kind == "var":
            return 1, 1, self.var_slot(bound)
        if tok.kind != "int":
            _fail(f"expected a number or variable, found "
                  f"{tok.text or 'end of input'!r}", tok)
        num, den = int(self.next().text), 1
        if self.at_symbol("/"):
            self.next()
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                _fail("zero denominator", den_tok)
        if self.at_symbol("*"):
            self.next()
            return num, den, self.var_slot(bound)
        return num, den, None

    def var_slot(self, bound: int) -> int:
        tok = self.expect("var")
        idx = int(tok.text[1:])
        if tok.text[0] == "x":
            if idx > self.ambient:
                _fail(f"x{idx} exceeds the ambient dimension {self.ambient}",
                      tok)
            return idx - 1
        if bound == 0:
            _fail(f"{tok.text!r} is not bound by an existential block", tok)
        if idx > bound:
            _fail(f"{tok.text!r} exceeds the {bound} bound variable(s)", tok)
        return self.ambient + idx - 1


def parse_formula(text: str) -> Formula:
    return _Parser(tokenize(text)).formula()


# printing ------------------------------------------------------------------


def _row_str(row, ambient: int) -> str:
    names = [f"x{i + 1}" for i in range(ambient)]
    names += [f"y{j + 1}" for j in range(len(row) - 1 - ambient)]
    terms = []
    for c, name in zip(row[:-1], names):
        if c == 0:
            continue
        mag = abs(c)
        body = name if mag == 1 else f"{mag}*{name}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        lhs = "0"
    else:
        sign, body = terms[0]
        lhs = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            lhs += f" {sign} {body}"
    rhs = row[-1]
    if rhs < 0:
        return f"{lhs} = -{-rhs}"
    return f"{lhs} = {rhs}"


def _atom_str(system: LinearSystem) -> str:
    prefix = ""
    if system.bound:
        names = " ".join(f"y{j + 1}" for j in range(system.bound))
        prefix = f"E {names} : "
    eqs = " & ".join(_row_str(row, system.ambient) for row in system.rows)
    return f"pp({prefix}{eqs})"


def _wrapped(value, types) -> str:
    """A child's text, in parentheses if its node is one of `types`."""
    text, kind = value
    return f"({text})" if issubclass(kind, types) else text


def format_formula(formula: Formula) -> str:
    """Parentheses only where the parser needs them: around a weaker
    operator, and around a right operand of the same operator, since the
    parser folds chains to the left.  The fold carries each node's text
    with its kind."""
    text, _ = fold(
        formula.root,
        lambda system: (_atom_str(system), LinearSystem),
        lambda child: ("!" + _wrapped(child, (And, Or)), Not),
        lambda left, right: (_wrapped(left, Or) + " & " + _wrapped(right, (And, Or)), And),
        lambda left, right: (left[0] + " | " + _wrapped(right, Or), Or))
    return f"ambient {formula.ambient}; " + text


def elaborate(formula: Formula):
    """The boolean tree that normalization and counting take, which the
    parser has already built."""
    return formula.root
