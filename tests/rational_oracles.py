"""Rational oracles shared by the tests: textbook Fraction arithmetic, with
no modelk elimination underneath."""

from fractions import Fraction

from modelk.errors import WorkbenchError


def mat_inv(rows) -> list[list[Fraction]]:
    """Inverse by Gauss-Jordan on [M | I] over the Fractions; raises on a
    singular matrix."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            raise WorkbenchError("matrix is singular over Q")
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]
