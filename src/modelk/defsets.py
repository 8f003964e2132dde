"""Definable subsets of Q^n as disjoint unions of blocks.

A block is a coset minus a finite antichain of proper subcosets.  Over the
rationals (an infinite field) a coset is never covered by finitely many
proper subcosets, so a block with nonempty carrier is nonempty; this fact
underpins both the normal form and the witness-point construction.

The Grothendieck class of a definable set is an integer polynomial: a coset
of dimension d contributes X^d and holes are handled by inclusion-exclusion,
walked so that terms that cancel in pairs are never visited (`block_class`).
Each node of that walk meets only the holes that meet its parent, and a
node that is a point meets none: it compares itself with its parent's
meets.
Two definable sets are definably isomorphic exactly when their classes agree.

A boolean tree is built from `Not`, binary `And` and `Or`, and leaves that
are `LinearSystem`s; `boolean_normalize` turns one into the normal form.
Every walk over a tree is a `fold`, which keeps its own stack, so a tree
built in Python may be of any height.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .cosets import NEG_INF, AffineCoset, LinearSystem
from .errors import WorkbenchError
from .linalg import rank


@dataclass(frozen=True)
class Block:
    """carrier minus the union of holes; always nonempty (see make_block)."""

    carrier: AffineCoset
    holes: tuple[AffineCoset, ...] = ()

    @property
    def ambient(self) -> int:
        return self.carrier.ambient

    @property
    def dim(self):
        # proper subcosets have strictly smaller dimension, so holes never
        # affect the dimension of the difference
        return self.carrier.dim

    def contains(self, point) -> bool:
        return self.carrier.contains(point) and not any(
            h.contains(point) for h in self.holes)

    def sort_key(self):
        return (self.carrier.sort_key, tuple(h.sort_key for h in self.holes))

    def pretty(self) -> str:
        if not self.holes:
            return self.carrier.pretty()
        return (self.carrier.pretty() + " minus "
                + " u ".join(h.pretty() for h in self.holes))


def make_block(carrier: AffineCoset, holes=()) -> Block | None:
    """Canonical block, or None when the difference is empty.

    Holes are clipped to the carrier, reduced to the maximal antichain, and
    sorted.  Emptiness happens only when the carrier is empty or some hole
    swallows it whole.
    """
    if carrier.empty:
        return None
    clipped = []
    for h in holes:
        h = h.intersect(carrier)
        if h.empty:
            continue
        if h == carrier:
            return None
        clipped.append(h)
    maximal = []
    for h in clipped:
        # a nonempty coset lies strictly inside another only when it has
        # more equations, that is a smaller dimension
        n = len(h.basis)
        if h in maximal or any(len(g.basis) < n and h.is_subset(g)
                               for g in clipped):
            continue
        maximal.append(h)
    maximal.sort(key=lambda c: c.sort_key)
    return Block(carrier, tuple(maximal))


def block_intersect(a: Block, b: Block) -> Block | None:
    carrier = a.carrier.intersect(b.carrier)
    return make_block(carrier, a.holes + b.holes)


def block_subtract(a: Block, b: Block) -> list[Block]:
    """a minus b as disjoint blocks: the part off b's carrier, then one part
    inside each hole of b (made disjoint by chaining earlier holes)."""
    pieces = []
    overlap = a.carrier.intersect(b.carrier)
    if overlap.empty:
        return [a]
    off_carrier = make_block(a.carrier, a.holes + (overlap,))
    if off_carrier is not None:
        pieces.append(off_carrier)
    for i, gamma in enumerate(b.holes):
        inside = make_block(a.carrier.intersect(gamma),
                            a.holes + b.holes[:i])
        if inside is not None:
            pieces.append(inside)
    return pieces


def witness_point(block: Block):
    """A concrete rational point of the block, chosen deterministically.

    Walks the integer grid on the carrier's direction parameters; a union of
    h proper subcosets cannot cover a (h+1)-wide grid, so the search always
    terminates within it.
    """
    base = block.carrier.particular_point()
    dirs = block.carrier.direction_basis()
    h = len(block.holes)
    if not dirs or h == 0:
        if block.contains(base):
            return base
    k = len(dirs)
    grid = sorted(itertools.product(range(h + 1), repeat=k),
                  key=lambda t: (sum(t), t))
    for steps in grid:
        point = list(base)
        for t, d in zip(steps, dirs):
            if t:
                point = [x + t * dx for x, dx in zip(point, d)]
        if block.contains(point):
            return tuple(point)
    raise WorkbenchError("no witness point found; block invariant violated")


@dataclass(frozen=True)
class DefinableSet:
    ambient: int
    blocks: tuple[Block, ...] = ()

    @staticmethod
    def from_blocks(ambient: int, blocks) -> "DefinableSet":
        blocks = [b for b in blocks if b is not None]
        for b in blocks:
            if b.ambient != ambient:
                raise WorkbenchError("block ambient mismatch")
        return DefinableSet(ambient, tuple(sorted(blocks, key=Block.sort_key)))

    @staticmethod
    def empty(ambient: int) -> "DefinableSet":
        return DefinableSet(ambient, ())

    @staticmethod
    def full_space(ambient: int) -> "DefinableSet":
        return DefinableSet.from_coset(AffineCoset.full(ambient))

    @staticmethod
    def from_coset(coset: AffineCoset) -> "DefinableSet":
        return DefinableSet.from_blocks(coset.ambient, [make_block(coset)])

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    @property
    def dim(self):
        return max((b.dim for b in self.blocks), default=NEG_INF)

    def contains(self, point) -> bool:
        return any(b.contains(point) for b in self.blocks)

    def _check_ambient(self, other: "DefinableSet"):
        if self.ambient != other.ambient:
            raise WorkbenchError("ambient mismatch")

    def intersect(self, other: "DefinableSet") -> "DefinableSet":
        self._check_ambient(other)
        pieces = [block_intersect(a, b)
                  for a in self.blocks for b in other.blocks]
        return DefinableSet.from_blocks(self.ambient, pieces)

    def difference(self, other: "DefinableSet") -> "DefinableSet":
        self._check_ambient(other)
        pieces = list(self.blocks)
        for b in other.blocks:
            pieces = [q for p in pieces for q in block_subtract(p, b)]
        return DefinableSet.from_blocks(self.ambient, pieces)

    def union(self, other: "DefinableSet") -> "DefinableSet":
        self._check_ambient(other)
        extra = other.difference(self)
        return DefinableSet.from_blocks(self.ambient,
                                        self.blocks + extra.blocks)

    def complement(self) -> "DefinableSet":
        return DefinableSet.full_space(self.ambient).difference(self)

    def same_set(self, other: "DefinableSet") -> bool:
        """Extensional equality via symmetric difference."""
        return (self.difference(other).is_empty
                and other.difference(self).is_empty)

    def product(self, other: "DefinableSet") -> "DefinableSet":
        # (P \ U b) x (Q \ U c) = (P x Q) \ ((U b x Q) u (P x U c))
        pieces = []
        for a in self.blocks:
            for b in other.blocks:
                holes = [h.product(b.carrier) for h in a.holes]
                holes += [a.carrier.product(h) for h in b.holes]
                pieces.append(make_block(a.carrier.product(b.carrier), holes))
        return DefinableSet.from_blocks(self.ambient + other.ambient, pieces)

    def embed(self, ambient: int) -> "DefinableSet":
        """Zero-pad into a larger space; preserves the class."""
        pieces = [make_block(b.carrier.embed(ambient),
                             [h.embed(ambient) for h in b.holes])
                  for b in self.blocks]
        return DefinableSet.from_blocks(ambient, pieces)

    def witness(self):
        if self.is_empty:
            raise WorkbenchError("empty set has no points")
        return witness_point(self.blocks[0])

    def pretty(self) -> str:
        if self.is_empty:
            return "(empty)"
        return " | ".join(b.pretty() for b in self.blocks)


@dataclass(frozen=True)
class K0Class:
    """Integer polynomial in one variable; coefficients low to high."""

    coeffs: tuple[int, ...] = ()

    @staticmethod
    def make(coeffs) -> "K0Class":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return K0Class(tuple(int(c) for c in coeffs))

    @staticmethod
    def zero() -> "K0Class":
        return K0Class(())

    @staticmethod
    def monomial(degree: int, coeff: int = 1) -> "K0Class":
        return K0Class.make([0] * degree + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __add__(self, other: "K0Class") -> "K0Class":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return K0Class.make(x + y for x, y in zip(a, b))

    def __sub__(self, other: "K0Class") -> "K0Class":
        return self + K0Class.make(-c for c in other.coeffs)

    def __mul__(self, other: "K0Class") -> "K0Class":
        if self.is_zero or other.is_zero:
            return K0Class.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return K0Class.make(out)

    def evaluate(self, t: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * t + c
        return total

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                x = "X" if d == 1 else f"X^{d}"
                body = x if mag == 1 else f"{mag}{x}"
            if not terms:
                terms.append(body if c > 0 else "-" + body)
            else:
                terms.append(("+ " if c > 0 else "- ") + body)
        return " ".join(terms)


def block_class(block: Block) -> K0Class:
    """Inclusion-exclusion over the intersections of the carrier with
    subsets of holes: a subset of size k adds (-1)^k X^dim.

    Subsets are grown depth first by one larger index at a time, and only
    from nonempty intersections, since every superset of an empty one is
    empty.  A subset S with intersection F and largest index `last` is
    dropped with its whole subtree when some later hole H_j (j > last)
    contains F, that is when F meet H_j keeps the dimension of F: the
    subsets S u T and S u (T symmetric-difference {j}), for T over the
    indices after `last`, meet in the same coset with opposite signs, so
    the subtree sums to zero.  The walk computes F meet H_j for the later
    holes anyway, so the test costs nothing.  Along every path that
    survives the dimension drops at each step, so a carrier of dimension d
    with h holes has at most sum over k <= d of C(h, k) nodes, whatever the
    arrangement.  Without the test a pencil of h planes through one line
    would reach all 2^h subsets.

    A node P keeps the later holes that meet it as (H_j, P meet H_j)
    pairs, and its child F = P meet H_i intersects only the pairs after
    H_i's: a hole that misses P misses F, and a hole that contains F meets
    P.  A child whose F is a point p intersects nothing: p lies in H_j
    exactly when it lies in P meet H_j, so it is cancelled when one of
    those meets contains p, and otherwise it has no children.  In a block
    from `make_block` (an antichain sorted by falling dimension) those
    meets are points, so equality decides."""
    coeffs = [0] * (block.ambient + 1)
    # (intersection, (-1)^size, pairs of the parent, index of the first
    # pair after the subset's largest hole); the carrier's parent is Q^n
    stack = [] if block.carrier.empty else [
        (block.carrier, 1, [(h, h) for h in block.holes], 0)]
    while stack:
        coset, sign, pairs, start = stack.pop()
        dim, later = coset.dim, pairs[start:]
        if dim == 0:
            if not any(coset == m if m.dim == 0 else coset.is_subset(m)
                       for _, m in later):
                coeffs[0] += sign
            continue
        meets = []
        for hole, _ in later:
            meet = coset.intersect(hole)
            if meet.dim == dim:  # the hole contains the intersection
                break
            if not meet.empty:
                meets.append((hole, meet))
        else:
            coeffs[dim] += sign
            stack += [(meet, -sign, meets, k + 1)
                      for k, (_, meet) in enumerate(meets)]
    return K0Class.make(coeffs)


def k0_class(d: DefinableSet) -> K0Class:
    total = K0Class.zero()
    for b in d.blocks:
        total = total + block_class(b)
    return total


def definable_dim(d: DefinableSet):
    """The degree of d's class, read off its blocks: a block from
    `make_block` has class X^dim(carrier) plus terms of lower degree, as its
    holes are proper subcosets, so the disjoint blocks' leading terms add
    up without cancelling, and the degree is the largest block dimension
    (NEG_INF for the empty set).  No class is computed."""
    return d.dim


def definably_isomorphic(d1: DefinableSet, d2: DefinableSet) -> bool:
    return k0_class(d1) == k0_class(d2)


# ---------------------------------------------------------------------------
# boolean combinations


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


def fold(expr, leaf, not_, and_, or_):
    """The value of a boolean tree, bottom up: leaf(system) at a leaf,
    not_(v) at a `Not` and and_(l, r) or or_(l, r) at an `And` or an `Or`,
    given the values of its children.  Leaves are taken left to right.  The
    walk keeps its own stack rather than recursing; WorkbenchError names the
    first node that is not a tree node."""
    values, stack = [], [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            if isinstance(node, Not):
                values.append(not_(values.pop()))
            else:
                right = values.pop()
                values.append((and_ if isinstance(node, And) else or_)(values.pop(), right))
        elif isinstance(node, LinearSystem):
            values.append(leaf(node))
        elif isinstance(node, Not):
            stack += [(node, True), (node.child, False)]
        elif isinstance(node, (And, Or)):
            stack += [(node, True), (node.right, False), (node.left, False)]
        else:
            raise WorkbenchError(f"not a boolean expression node: {node!r}")
    return values[0]


def boolean_normalize(expr, ambient: int) -> DefinableSet:
    """Disjoint-block normal form of a boolean tree."""
    def leaf(system):
        coset = system.coset()
        if coset.ambient != ambient:
            raise WorkbenchError("leaf ambient mismatch")
        return DefinableSet.from_coset(coset)

    return fold(expr, leaf, DefinableSet.complement, DefinableSet.intersect,
                DefinableSet.union)


def expr_leaves(expr) -> list[LinearSystem]:
    return fold(expr, lambda system: [system], lambda leaves: leaves, add, add)


# ---------------------------------------------------------------------------
# shift witnesses: realign one definable set with another


def _complete_basis(vectors: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    basis = [list(v) for v in vectors]
    for i in range(n):
        unit = [Fraction(int(j == i)) for j in range(n)]
        if rank(basis + [unit]) > rank(basis):
            basis.append(unit)
        if len(basis) == n:
            break
    return basis


def shift_witness(d1: DefinableSet, d2: DefinableSet, m: int):
    """A copy of d2 (same class) meeting d1 in dimension > m.

    A single invertible affine map of the ambient space carries a top block
    of d2 onto a position aligned with a top block of d1: witness points are
    matched and the first min(dim) carrier directions are identified.  One
    global affine bijection preserves the class and keeps the blocks of the
    result disjoint.  When ambients differ, both sets are first zero-padded
    into the larger space.
    """
    from .automorphisms import AffineMap  # which imports this module

    if not (d1.dim > m and d2.dim > m):
        raise WorkbenchError(f"both sets must have dimension > {m}")
    n = max(d1.ambient, d2.ambient)
    d1e = d1.embed(n)
    d2e = d2.embed(n)
    top1 = max(d1e.blocks, key=lambda b: b.dim)
    top2 = max(d2e.blocks, key=lambda b: b.dim)
    t1, t2 = witness_point(top1), witness_point(top2)
    u1 = top1.carrier.direction_basis()
    u2 = top2.carrier.direction_basis()
    k = min(len(u1), len(u2))

    # source and target send e_i to the witness point plus the i-th basis
    # vector, so target o source^-1 sends t2 to t1 and the i-th direction of
    # d2's top block to the i-th direction of d1's
    source = AffineMap.make(zip(*_complete_basis(u2[:k], n)), t2)
    target = AffineMap.make(zip(*_complete_basis(u1[:k], n)), t1)
    align = target.compose(source.inverse())
    moved = [align.image_block(b) for b in d2e.blocks]
    result = DefinableSet.from_blocks(n, moved)
    overlap_dim = definable_dim(d1e.intersect(result))
    note = (f"aligned a {top2.dim}-dim block of the second set with a "
            f"{top1.dim}-dim block of the first by one affine bijection; "
            f"intersection dimension {overlap_dim} > {m}")
    if not overlap_dim > m:
        raise WorkbenchError("alignment failed to reach the required dimension")
    return result, note
