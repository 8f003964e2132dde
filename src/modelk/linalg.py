"""Exact linear algebra over the rationals and over prime fields.

Matrices are lists of row lists.  Everything here is small and dense.  One
elimination loop serves every routine that eliminates: a rational row is
cleared once, multiplied by the lcm of its denominators (`cleared_row`)
and divided by its content, Gauss-Jordan runs on integers by
cross-multiplication, and each updated row is divided by its content (over
Q) or reduced mod p (over F_p).  Fractions are built only for the final
reduced rows, so the cost is integer arithmetic rather than a gcd per
Fraction operation.

`cosets` keeps the eliminated rows themselves, sign-fixed so that each
pivot entry is positive, and `reduce_row` tests a row against such a basis.
`project_rows` is the one projection, over Q for cosets and over F_p for
the point counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def primitive(ints: list[int]) -> list[int]:
    """An integer row divided by its content (a zero row stays zero)."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def cleared_row(row) -> list[int]:
    """A rational row times the lcm of its reduced denominators: the
    smallest integer multiple, so an integer row stays as it is."""
    try:
        dens = [x.denominator for x in row]
    except AttributeError:  # floats, strings: anything else Fraction accepts
        return cleared_row([Fraction(x) for x in row])
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // d) for x, d in zip(row, dens)]


def integer_row(row) -> list[int]:
    """The primitive integer row on the same line as a rational row."""
    return primitive(cleared_row(row))


def _eliminate(rows: list[list[int]], p: int | None = None):
    """Gauss-Jordan on integer rows; returns (nonzero rows, pivot columns).

    A row is cleared against the pivot row by cross-multiplication,
    pivot * row - entry * pivot_row, so no division happens.  Over Q
    (p None) the new row is divided by its content, which keeps entries
    small; over F_p (p prime) entries are kept reduced mod p.  Row i of the
    result has its only nonzero pivot-column entry at pivots[i], so dividing
    it by that entry gives row i of the reduced row echelon form.
    """
    m = [row for row in rows if any(row)]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if i == r or not f:
                continue
            row = [pv * a - f * b for a, b in zip(m[i], prow)]
            if p is None:
                g = gcd(*row)
                if g > 1:
                    row = [v // g for v in row]
            else:
                row = [v % p for v in row]
            m[i] = row
        pivots.append(c)
        r += 1
    return m[:r], pivots


def project_rows(rows: list[list[int]], keep: int,
                 p: int | None = None) -> list[list[int]]:
    """The integer rows of the projection of an augmented system onto its
    first `keep` coordinates, over Q (p None) or over F_p (entries reduced
    mod p, p prime).

    The columns are reordered so that the dropped ones come first, and
    `_eliminate` runs once.  A row whose pivot is a dropped column can be
    solved for that coordinate whatever the kept coordinates are: the
    other pivot columns are zero in it, and the remaining dropped columns
    are free.  So the projection is cut out by the other rows, which are
    zero in every dropped column and are returned without them (a row
    0 = b with b != 0 among them makes it empty).  Primitive rows over Q
    stay primitive."""
    drop = len(rows[0]) - 1 - keep if rows else 0
    m, pivots = _eliminate([row[keep:-1] + row[:keep] + row[-1:]
                            for row in rows], p)
    return [row[drop:] for row, c in zip(m, pivots) if c >= drop]


def reduce_row(row, basis, pivots) -> list[int] | None:
    """The primitive residue of an integer row against an echelon basis, or
    None when the row lies in the basis's span.

    The basis rows are eliminated integer rows (as `_eliminate` returns
    them): row i is zero at every pivot column but pivots[i].  Clearing the
    row at each pivot column by cross-multiplication therefore never
    refills a column already cleared, so one pass leaves a row that is zero
    at every pivot column, and zero everywhere exactly when the row is a
    combination of the basis rows."""
    for prow, c in zip(basis, pivots):
        f = row[c]
        if f:
            pv = prow[c]
            row = [pv * a - f * b for a, b in zip(row, prow)]
    return primitive(row) if any(row) else None


_ZERO, _ONE = Fraction(0), Fraction(1)


def rational_row(row, pivot: int) -> list[Fraction]:
    """An integer row divided by its pivot entry; zeros and ones share one
    Fraction each."""
    return [_ZERO if not x else _ONE if x == pivot else Fraction(x, pivot)
            for x in row]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Entries may be ints, Fractions or anything Fraction accepts."""
    m, pivots = _eliminate([integer_row(row) for row in rows])
    return [rational_row(row, row[c]) for row, c in zip(m, pivots)], pivots


def rank(rows) -> int:
    return len(_eliminate([integer_row(row) for row in rows])[1])


def null_space(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows * x = 0, one vector per free column."""
    reduced, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis

