"""Exact linear algebra for the benchmark's reference answers.

This is deliberately separate from `modelk.linalg`: a reference answer must
not be computed by the code it checks.  Everything works over Q (Fractions)
or, when a prime is given, over F_p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _field(p):
    if p is None:
        return Fraction, lambda a, b: a / b
    return (lambda a: a % p), (lambda a, b: a * pow(b, -1, p) % p)


def echelon(rows, width, p=None):
    """Reduced row echelon form over Q, or over F_p; returns (rows, pivots)."""
    norm, div = _field(p)
    rows = [[norm(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(width):
        pick = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][col]
        rows[r] = [div(x, lead) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f != 0:
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def project(rows, ambient, bound, p=None):
    """Equations in x of {x : exists y, rows hold}, or None when empty.

    Each row is x-coefficients, y-coefficients, right-hand side.  With the
    y columns eliminated first, the rows left with a zero y part are exactly
    the constraints on x.
    """
    moved = [list(r[ambient:ambient + bound]) + list(r[:ambient]) + [r[-1]]
             for r in rows]
    reduced, pivots = echelon(moved, bound + ambient + 1, p)
    if bound + ambient in pivots:
        return None
    return [row[bound:] for row, c in zip(reduced, pivots) if c >= bound]


def coset_dim(equations, ambient, p=None):
    """Dimension of the solution set of x-equations, or None when empty."""
    if not equations:
        return ambient
    _, pivots = echelon(equations, ambient + 1, p)
    if ambient in pivots:
        return None
    return ambient - len(pivots)


def boolean_class(atoms, holds, ambient, p=None):
    """Class of a boolean combination of cosets, by Venn regions.

    `atoms` are x-equation lists (None for an empty atom), `holds(inside)`
    evaluates the combination on the region inside exactly the atoms whose
    indices are in `inside`.  Over Q the result is the coefficient list of
    the class in Z[X]; over F_p it is the point count.  The region inside S
    and outside the rest has class sum over T >= S of (-1)^|T - S| [A_T].
    """
    k = len(atoms)
    coeffs = [0] * (ambient + 1)
    count = 0
    for size in range(k + 1):
        for T in combinations(range(k), size):
            if any(atoms[i] is None for i in T):
                continue
            d = coset_dim([row for i in T for row in atoms[i]], ambient, p)
            if d is None:
                continue
            weight = sum((-1) ** (size - len(S))
                         for s in range(size + 1)
                         for S in combinations(T, s)
                         if holds(frozenset(S)))
            if p is None:
                coeffs[d] += weight
            else:
                count += weight * p ** d
    if p is not None:
        return count
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def solve(matrix, vector):
    """The unique x with matrix * x = vector (matrix invertible)."""
    n = len(matrix)
    reduced, _ = echelon([list(r) + [v] for r, v in zip(matrix, vector)], n)
    return tuple(row[-1] for row in reduced)


def mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)
