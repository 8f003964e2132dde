"""Finite-field point counts for boolean combinations of linear systems.

The count is an oracle that is independent of the rational block calculus.
Every F_p point set is held in one form, a mask: an int with one byte per
point of F_p^n (1 in the set, 0 outside).  The tree's leaves are
`LinearSystem`s, whose rows are integer rows (a fractional row cleared by
the lcm of its denominators), so formulas with fractional coefficients
count too; each leaf is projected mod p onto its n free coordinates
(`linalg.project_rows`, so existential variables are eliminated exactly
over F_p), and its mask is listed from the projected echelon form.  The
tree is then evaluated on the masks, Not, And and Or as bitwise
operations, and its mask is the raw set.  The good-prime flag certifies
that the count provably equals the Grothendieck class evaluated at p, by
two conditions:

  (a) for every block of the normal form and every subset of its holes, the
      stacked integer system keeps rank and consistency mod p, so the
      inclusion-exclusion over F_p matches the one over Q term by term.
      Subsets of at most n + 1 holes (n the ambient dimension) decide it
      for every subset.  For an integer matrix, rank mod p <= rank over Q.
      The rows of any stacked system have a Q-basis of at most n + 1 rows,
      taken from the carrier and at most n + 1 holes.  If the carrier
      stacked with those holes keeps its rank mod p, the full stack has
      rank mod p at least that, which is its own rank over Q, so the two
      agree; the same goes for the coefficient block.  So no subset fails
      unless a small one does.  The subsets are walked depth first, each
      child eliminating its parent's rows plus one hole's, and a subtree is
      left out once its ranks agree at the maximum (n, n + 1)
      (`_lattice_ranks_ok` gives the proof);
  (b) the normal form's blocks, reduced mod p, partition the raw set.  Each
      carrier and hole is an F_p point set listed from its mod-p echelon
      form (p^dim points per coset), a block is its carrier's points minus
      its holes', and the blocks must be pairwise disjoint with union the
      raw set.

Together they prove it.  By (b) the count is the sum of the blocks' point
counts mod p.  A block's points are its carrier's less the union of its
holes', so by inclusion-exclusion its count is the alternating sum, over
the subsets of its holes, of the points of the carrier stacked with the
subset: p^(n - rank) for a consistent system and 0 otherwise.  By (a)
each such term has the rank and consistency it has over Q, so it is the
term of the block's class at p, and the sum of the blocks' classes is the
class of the set.  The conditions are checked in that order and only
while the flag holds.

The proof needs only that the leaf rows are integer rows, so the flag stays
sound when p divides a denominator.  `x1 = 1/5` is the leaf row 5*x1 = 1,
which has no point mod 5; the class predicts 1, and (a) clears the flag,
since the point's row loses its coefficient rank mod 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import and_, mul, or_

from .defsets import DefinableSet, boolean_normalize, expr_leaves, fold, k0_class
from .errors import WorkbenchError
from .linalg import _eliminate, project_rows

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


def _mod_p(rows, p: int) -> list[list[int]]:
    return [[a % p for a in row] for row in rows]


def _ranks(rows, n: int, p: int | None = None):
    """Eliminated rows (over Q, or over F_p for a prime p) and their ranks:
    (pivots in the n coefficient columns, all pivots), that is the rank of
    the coefficient block and of the augmented matrix."""
    m, pivots = _eliminate(rows, p)
    return m, (sum(c < n for c in pivots), len(pivots))


def _lattice_ranks_ok(d: DefinableSet, p: int) -> bool:
    """Condition (a) for every block, by a depth-first walk over the hole
    subsets of size <= n + 1 (see the module docstring).

    A subset grows by one hole of larger index at a time.  A node keeps its
    stack eliminated over Q and over F_p; a child eliminates its parent's
    rows plus one hole's rows, once in each field.  Ranks are pairs
    (coefficient block, augmented matrix), compared entrywise.

    The walk leaves out the subtree of a node whose ranks agree and reach
    (n, n + 1).  For the stack S' of any superset of the node's subset S:
    (n, n + 1) = rank_p(S) <= rank_p(S') <= rank_Q(S') <= (n, n + 1), since
    rank mod p never drops when rows are added, rank mod p <= rank over Q
    for an integer matrix, and no stack in Q^n has larger ranks.  So every
    stack below the node has the ranks (n, n + 1) in both fields."""
    n = d.ambient
    full = (n, n + 1)
    for block in d.blocks:
        holes = [(list(h.basis), _mod_p(h.basis, p)) for h in block.holes]
        q_rows, q_ranks = _ranks(block.carrier.basis, n)
        p_rows, p_ranks = _ranks(_mod_p(block.carrier.basis, p), n, p)
        if p_ranks != q_ranks:
            return False
        # (largest hole index in the subset, subset size, Q rows, F_p rows)
        stack = [(-1, 0, q_rows, p_rows)]
        while stack:
            last, size, q_rows, p_rows = stack.pop()
            for i in range(last + 1, len(holes)):
                q_hole, p_hole = holes[i]
                q_child, q_ranks = _ranks(q_rows + q_hole, n)
                p_child, p_ranks = _ranks(p_rows + p_hole, n, p)
                if p_ranks != q_ranks:
                    return False
                if size < n and p_ranks != full:
                    stack.append((i, size + 1, q_child, p_child))
    return True


def _point_mask(rows, n: int, p: int) -> int:
    """The F_p points of an integer augmented system, one byte per point of
    F_p^n in `itertools.product` order (byte k of the int is 1 exactly when
    point k solves the rows).

    The rows are eliminated mod p once; each pivot row then gives its pivot
    coordinate from the free ones, so the p^dim points are listed directly."""
    m, pivots = _eliminate(_mod_p(rows, p), p)
    if pivots and pivots[-1] == n:  # a row 0 = b with b != 0
        return 0
    size = p ** n
    if not pivots:
        return int.from_bytes(b"\1" * size, "little")
    weight = [p ** (n - 1 - j) for j in range(n)]
    free = [j for j in range(n) if j not in pivots]
    # x_c = b - sum_f a_f x_f over the free coordinates f, for pivot column c
    solved = []
    for row, c in zip(m, pivots):
        inv = pow(row[c], -1, p)
        solved.append((weight[c], row[n] * inv % p,
                       [-row[f] * inv % p for f in free]))
    free_weight = [weight[f] for f in free]
    points = bytearray(size)
    for xs in itertools.product(range(p), repeat=len(free)):
        k = sum(map(mul, xs, free_weight))
        for w, b, coeffs in solved:
            k += w * ((b + sum(map(mul, coeffs, xs))) % p)
        points[k] = 1
    return int.from_bytes(points, "little")


def _blocks_partition(d: DefinableSet, raw: int, p: int) -> bool:
    """Condition (b): the blocks' point sets mod p are pairwise disjoint
    and their union is the raw point set (both as `_point_mask` ints).
    Only a carrier, the union so far and one hole are held at a time."""
    union = 0
    for block in d.blocks:
        points = _point_mask(block.carrier.basis, d.ambient, p)
        for hole in block.holes:
            points &= ~_point_mask(hole.basis, d.ambient, p)
        if points & union:
            return False
        union |= points
    return union == raw


def _tree_mask(expr, n: int, p: int, full: int) -> int:
    """The raw set of the boolean tree as a `_point_mask` int; `full` is the
    mask of all of F_p^n."""
    def leaf(system):
        return _point_mask(project_rows(_mod_p(system.rows, p), n, p), n, p)

    return fold(expr, leaf, full.__xor__, and_, or_)


def count_points_mod_p(expr, p: int) -> CountReport:
    """Count F_p points of the combination; flag when the count is certified
    to equal the class polynomial at p."""
    systems = expr_leaves(expr)  # a tree has at least one leaf
    ambient = systems[0].ambient
    if any(s.ambient != ambient for s in systems):
        raise WorkbenchError("leaf ambient mismatch")
    if p >= 2 and p ** ambient > _POINT_LIMIT:
        raise WorkbenchError(
            f"{p}^{ambient} points is more than _POINT_LIMIT = 10^6 points "
            "to enumerate; no flag raises it")
    from .rings import _factor_prime_power  # the sets layers import no ring
    if _factor_prime_power(p) != (p, 1):
        raise WorkbenchError(f"the modulus p = {p} is not a prime")

    normal = boolean_normalize(expr, ambient)
    raw = _tree_mask(expr, ambient, p,
                     int.from_bytes(b"\1" * p ** ambient, "little"))
    good = _lattice_ranks_ok(normal, p) and _blocks_partition(normal, raw, p)
    return CountReport(p, ambient, raw.bit_count(), good,
                       k0_class(normal).evaluate(p))
