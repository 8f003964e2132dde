"""Finite-field point counts for boolean combinations with integer data.

This is an oracle that is independent of the rational block calculus: points
of F_p^n are enumerated and each leaf system is decided by a mod-p linear
solve, existential variables included.  The good-prime flag certifies that
the count provably equals the Grothendieck class evaluated at p:

  (a) every leaf system keeps its rank pattern mod p (coefficient block,
      augmented matrix, and bound-variable block), so projections behave;
  (b) for every block of the normal form and every subset of its holes, the
      stacked integer system keeps rank and consistency mod p, so the
      inclusion-exclusion over F_p matches the one over Q term by term.
      Subsets of at most n + 1 holes (n the ambient dimension) decide it
      for every subset.  For an integer matrix, rank mod p <= rank over Q.
      The rows of any stacked system have a Q-basis of at most n + 1 rows,
      taken from the carrier and at most n + 1 holes.  If the carrier
      stacked with those holes keeps its rank mod p, the full stack has
      rank mod p at least that, which is its own rank over Q, so the two
      agree; the same goes for the coefficient block.  So no subset fails
      unless a small one does;
  (c) observed mod-p membership agrees pointwise: the reduced blocks stay
      pairwise disjoint and their union is exactly the reduced raw set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cosets import LinearSystem
from .defsets import And, DefinableSet, Leaf, Not, Or, boolean_normalize, expr_leaves, k0_class
from .errors import WorkbenchError
from .linalg import rank, rank_mod_p, solvable_mod_p

_POINT_LIMIT = 10 ** 6


@dataclass(frozen=True)
class CountReport:
    prime: int
    ambient: int
    count: int
    good_prime: bool
    predicted: int

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "ambient": self.ambient,
            "count": self.count,
            "good_prime": self.good_prime,
            "class_value": self.predicted,
        }


def _leaf_systems(expr) -> list[LinearSystem]:
    systems = []
    for leaf in expr_leaves(expr):
        if not isinstance(leaf.payload, LinearSystem):
            raise WorkbenchError("counting needs raw linear systems as leaves")
        if not leaf.payload.is_integral():
            raise WorkbenchError("leaf coefficients must be integers")
        systems.append(leaf.payload)
    return systems


def _leaf_rank_pattern_ok(system: LinearSystem, p: int) -> bool:
    n, b = system.ambient, system.bound
    coeff = [[int(x) for x in row[:-1]] for row in system.rows]
    aug = [[int(x) for x in row] for row in system.rows]
    ybl = [[int(x) for x in row[n:n + b]] for row in system.rows]
    return (rank_mod_p(coeff, p) == rank(coeff)
            and rank_mod_p(aug, p) == rank(aug)
            and rank_mod_p(ybl, p) == rank(ybl))


def _lattice_ranks_ok(d: DefinableSet, p: int) -> bool:
    """Condition (b), checked on the hole subsets of size <= ambient + 1."""
    for block in d.blocks:
        base = block.carrier.basis
        hole_rows = [h.basis for h in block.holes]
        for size in range(min(len(hole_rows), d.ambient + 1) + 1):
            for subset in itertools.combinations(range(len(hole_rows)), size):
                stacked = list(base)
                for i in subset:
                    stacked += hole_rows[i]
                coeff = [row[:-1] for row in stacked]
                if rank_mod_p(coeff, p) != rank(coeff):
                    return False
                if rank_mod_p(stacked, p) != rank(stacked):
                    return False
    return True


def _leaf_mod_p(system: LinearSystem, p: int):
    """A leaf's x-block, y-block and right-hand side as integers mod p."""
    n, b = system.ambient, system.bound
    xbl = [[int(a) % p for a in row[:n]] for row in system.rows]
    ybl = [[int(v) % p for v in row[n:n + b]] for row in system.rows]
    rhs = [int(row[-1]) % p for row in system.rows]
    return xbl, ybl if b else None, rhs


def _leaf_holds(leaf_mod_p, point, p: int) -> bool:
    xbl, ybl, rhs = leaf_mod_p
    shifted = [(c - sum(a * x for a, x in zip(row, point))) % p
               for row, c in zip(xbl, rhs)]
    if ybl is None:
        return not any(shifted)
    return solvable_mod_p(ybl, shifted, p)


def _compile(expr, p: int):
    """The boolean tree as one function of a point of F_p^n, built once per
    count.  Each leaf is reduced mod p here, and And and Or evaluate their
    right side only when the left does not decide."""
    if isinstance(expr, Leaf):
        leaf = _leaf_mod_p(expr.payload, p)
        return lambda point: _leaf_holds(leaf, point, p)
    if isinstance(expr, Not):
        child = _compile(expr.child, p)
        return lambda point: not child(point)
    if isinstance(expr, And):
        left, right = _compile(expr.left, p), _compile(expr.right, p)
        return lambda point: left(point) and right(point)
    if isinstance(expr, Or):
        left, right = _compile(expr.left, p), _compile(expr.right, p)
        return lambda point: left(point) or right(point)
    raise WorkbenchError(f"not a boolean expression node: {expr!r}")


def _rows_mod_p(int_rows, p: int):
    return [([a % p for a in row[:-1]], row[-1] % p) for row in int_rows]


def _point_in_rows(rows_mod_p, point, p: int) -> bool:
    return all(sum(a * x for a, x in zip(coeffs, point)) % p == c
               for coeffs, c in rows_mod_p)


def count_points_mod_p(expr, p: int) -> CountReport:
    """Count F_p points of the combination; flag when the count is certified
    to equal the class polynomial at p."""
    systems = _leaf_systems(expr)
    if not systems:
        raise WorkbenchError("expression has no leaves")
    ambient = systems[0].ambient
    if any(s.ambient != ambient for s in systems):
        raise WorkbenchError("leaf ambient mismatch")
    if p ** ambient > _POINT_LIMIT:
        raise WorkbenchError(f"{p}^{ambient} points is too many to enumerate")

    normal = boolean_normalize(expr, ambient)
    good = all(_leaf_rank_pattern_ok(s, p) for s in systems)
    good = good and _lattice_ranks_ok(normal, p)

    holds = _compile(expr, p)
    block_rows = [(_rows_mod_p(b.carrier.basis, p),
                   [_rows_mod_p(h.basis, p) for h in b.holes])
                  for b in normal.blocks]

    count = 0
    for point in itertools.product(range(p), repeat=ambient):
        raw = holds(point)
        if raw:
            count += 1
        hits = 0
        for carrier_rows, holes_rows in block_rows:
            if _point_in_rows(carrier_rows, point, p) and not any(
                    _point_in_rows(rows, point, p) for rows in holes_rows):
                hits += 1
        if hits > 1 or (hits == 1) != raw:
            good = False

    return CountReport(p, ambient, count, good, k0_class(normal).evaluate(p))
