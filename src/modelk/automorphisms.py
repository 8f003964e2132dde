"""Piecewise-affine self-bijections of definable subsets of Q^n.

A PAMap is a finite list of (block, affine map) pieces.  It is a member of
the automorphism group of its domain when the piece blocks partition the
domain and the image blocks partition it again.  `validate` tests a tiling:
no two pieces meet, no two images meet, and the images lie inside the
domain, which they then fill, since their classes in K_0 add up to the
domain's.  All checks are exact coset algebra; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .cosets import AffineCoset
from .defsets import Block, DefinableSet, block_intersect, block_subtract, make_block
from .errors import WorkbenchError
from .linalg import _eliminate, integer_row, rank
from .report import VerificationReport


@dataclass(frozen=True)
class AffineMap:
    """The invertible map x -> (P x + q) / d, stored as integers: `linear`
    is P, `shift` is q and `denominator` is d > 0, with gcd(P, q, d) = 1.
    The form is unique, so equal maps have equal fields.

    Build maps with `make`; `compose` and `inverse` keep the form.  The
    rational matrix P / d and offset q / d are views, built on first use and
    kept, for printing and JSON.
    """

    linear: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]
    denominator: int

    @staticmethod
    def make(matrix, offset) -> "AffineMap":
        rows = [list(row) for row in matrix]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise WorkbenchError("matrix must be square")
        offset = list(offset)
        if len(offset) != n:
            raise WorkbenchError("offset length mismatch")
        # the primitive integer row [P | q | d] of the whole map
        *flat, d = integer_row([x for row in rows for x in row] + offset + [1])
        linear = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        if rank(linear) != n:
            raise WorkbenchError("matrix is singular over Q")
        return AffineMap(linear, tuple(flat[n * n:]), d)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap.translation([0] * n)

    @staticmethod
    def translation(vector) -> "AffineMap":
        vector = list(vector)
        n = len(vector)
        return AffineMap.make(
            [[int(i == j) for j in range(n)] for i in range(n)], vector)

    @property
    def ambient(self) -> int:
        return len(self.shift)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        d = self.denominator
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.linear)

    @cached_property
    def offset(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.shift)

    def apply(self, point):
        if len(point) != self.ambient:
            raise WorkbenchError(f"point of length {len(point)} is not in "
                                 f"Q^{self.ambient}")
        return tuple(Fraction(sum(map(mul, row, point)) + q, self.denominator)
                     for row, q in zip(self.linear, self.shift))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: x -> self(inner(x)), that is
        (P P' x + P q' + d' q) / (d d')."""
        if self.ambient != inner.ambient:
            raise WorkbenchError("ambient mismatch")
        cols = list(zip(*inner.linear))
        linear = [[sum(map(mul, row, col)) for col in cols]
                  for row in self.linear]
        shift = [sum(map(mul, row, inner.shift)) + inner.denominator * q
                 for row, q in zip(self.linear, self.shift)]
        return _reduced(linear, shift, self.denominator * inner.denominator)

    def inverse(self) -> "AffineMap":
        """Computed once per map; the inverse's inverse is this map.

        P x = d y - q is solved for x by one integer elimination of the
        rows [P | d I | -q]: row i ends as c_i x_i = (its tail) . (y, 1)."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            n, d = self.ambient, self.denominator
            m, _ = _eliminate([[*row, *(d * (i == j) for j in range(n)), -q]
                               for i, (row, q) in enumerate(zip(self.linear,
                                                                self.shift))])
            den = lcm(*(abs(row[i]) for i, row in enumerate(m)))
            tails = [[x * (den // row[i]) for x in row[n:]]
                     for i, row in enumerate(m)]
            inv = _reduced([t[:-1] for t in tails], [t[-1] for t in tails], den)
            self.__dict__["_inverse"], inv.__dict__["_inverse"] = inv, self
        return inv

    @property
    def is_identity(self) -> bool:
        return self == AffineMap.identity(self.ambient)

    def fixed_coset(self) -> AffineCoset:
        """Solutions of (P - d I) x = -q."""
        d = self.denominator
        return AffineCoset.from_rows(self.ambient, [
            [x - d * (i == j) for j, x in enumerate(row)] + [-q]
            for i, (row, q) in enumerate(zip(self.linear, self.shift))])

    def agreement_coset(self, other: "AffineMap") -> AffineCoset:
        """Points where the two maps coincide:
        (d' P - d P') x = d q' - d' q."""
        d, e = self.denominator, other.denominator
        return AffineCoset.from_rows(self.ambient, [
            [e * a - d * b for a, b in zip(r, s)] + [d * t - e * q]
            for r, s, q, t in zip(self.linear, other.linear,
                                  self.shift, other.shift)])

    def image_coset(self, coset: AffineCoset) -> AffineCoset:
        return coset.pullback(self.inverse())

    def image_block(self, block: Block) -> Block:
        return self.inverse().preimage_block(block)

    def preimage_block(self, block: Block) -> Block:
        moved = make_block(block.carrier.pullback(self),
                           [h.pullback(self) for h in block.holes])
        assert moved is not None  # affine bijections preserve nonemptiness
        return moved


def _overlap(blocks) -> bool:
    """Whether two of the blocks meet; stops at the first pair that does."""
    return any(block_intersect(a, b) is not None
               for a, b in combinations(blocks, 2))


def _reduced(linear, shift, d: int) -> AffineMap:
    """The map x -> (P x + q) / d with its integers divided by their gcd."""
    g = gcd(d, *shift, *(x for row in linear for x in row))
    return AffineMap(tuple(tuple(x // g for x in row) for row in linear),
                     tuple(x // g for x in shift), d // g)


class PAMap:
    """Piecewise-affine map; pieces sorted canonically, validity report memoized."""

    def __init__(self, ambient: int, pieces):
        self.ambient = ambient
        items = []
        for block, mapping in pieces:
            if block is None:
                continue
            if block.ambient != ambient or mapping.ambient != ambient:
                raise WorkbenchError("piece ambient mismatch")
            items.append((block, mapping))
        items.sort(key=lambda bm: bm[0].sort_key())
        self.pieces = tuple(items)
        self._report: VerificationReport | None = None

    @staticmethod
    def from_affine(mapping: AffineMap, ambient: int | None = None) -> "PAMap":
        n = mapping.ambient if ambient is None else ambient
        return PAMap(n, [(make_block(AffineCoset.full(n)), mapping)])

    @staticmethod
    def identity(ambient: int) -> "PAMap":
        return PAMap.from_affine(AffineMap.identity(ambient), ambient)

    def domain(self) -> DefinableSet:
        return DefinableSet.from_blocks(self.ambient, [b for b, _ in self.pieces])

    def apply(self, point):
        for block, mapping in self.pieces:
            if block.contains(point):
                return mapping.apply(point)
        raise WorkbenchError("point outside the domain")

    def validate(self) -> VerificationReport:
        """Whether the pieces tile the domain and their images tile it again.

        With both lists disjoint, the images need only lie inside the domain:
        an affine bijection keeps the dimension of every intersection, so
        each image has its piece's class, and the disjoint images have class
        sum [piece] = [domain].  The rest of the domain then has class 0, and
        a nonempty set has a nonzero class (its degree is its dimension), so
        the rest is empty.  No class is computed."""
        report = VerificationReport(f"piecewise-affine map on Q^{self.ambient}")
        report.add("has-pieces", bool(self.pieces))
        disjoint = not _overlap([b for b, _ in self.pieces])
        report.add("domain-pieces-disjoint", disjoint)
        images = [m.image_block(b) for b, m in self.pieces]
        img_disjoint = not _overlap(images)
        report.add("image-pieces-disjoint", img_disjoint)
        if disjoint and img_disjoint:
            image = DefinableSet.from_blocks(self.ambient, images)
            report.add("image-equals-domain",
                       image.difference(self.domain()).is_empty)
        else:
            report.add("image-equals-domain", False,
                       "skipped: pieces overlap")
        self._report = report
        return report

    def require_valid(self):
        report = self._report or self.validate()
        if not report.passed:
            raise WorkbenchError("map is not a bijection of its domain: "
                                 + "; ".join(report.failures))

    def support(self) -> DefinableSet:
        """Points moved by the map, as a normalized definable set."""
        self.require_valid()
        moved = []
        for block, mapping in self.pieces:
            fixed = mapping.fixed_coset()
            fixed_block = make_block(fixed)
            if fixed_block is None:
                moved.append(block)
            else:
                moved.extend(block_subtract(block, fixed_block))
        return DefinableSet.from_blocks(self.ambient, moved)

    def support_dim(self):
        """The degree of the support's class, which is its largest block
        dimension (see `defsets.definable_dim`)."""
        return self.support().dim

    def in_omega(self, m: int) -> bool:
        return self.support_dim() <= m

    def compose(self, inner: "PAMap") -> "PAMap":
        """self after inner, defined piece by piece on refinements."""
        if self.ambient != inner.ambient:
            raise WorkbenchError("ambient mismatch")
        self.require_valid()
        inner.require_valid()
        if not self.domain().same_set(inner.domain()):
            raise WorkbenchError("composition needs equal domains")
        pieces = []
        for gb, gm in inner.pieces:
            for fb, fm in self.pieces:
                part = block_intersect(gb, gm.preimage_block(fb))
                if part is not None:
                    pieces.append((part, fm.compose(gm)))
        return PAMap(self.ambient, pieces)

    def invert(self) -> "PAMap":
        self.require_valid()
        return PAMap(self.ambient,
                     [(m.image_block(b), m.inverse()) for b, m in self.pieces])

    def same_map(self, other: "PAMap") -> bool:
        """Equal as functions: same domain, same value everywhere."""
        if self.ambient != other.ambient:
            return False
        self.require_valid()
        other.require_valid()
        if not self.domain().same_set(other.domain()):
            return False
        for b1, m1 in self.pieces:
            for b2, m2 in other.pieces:
                common = block_intersect(b1, b2)
                if common is None:
                    continue
                # maps agreeing on a block agree on its whole carrier: the
                # carrier is never covered by the agreement locus and holes
                if not common.carrier.is_subset(m1.agreement_coset(m2)):
                    return False
        return True


def decompose_affine(f: PAMap) -> tuple[AffineMap, PAMap]:
    """Split f on all of Q^n into (affine g, lower-dimensional h) with
    f = g o h.

    Over the rationals exactly one piece has a full carrier (two full
    carriers cannot hold disjoint blocks), so g is read off that piece, and
    h = g^-1 o f fixes the full piece pointwise.
    """
    f.require_valid()
    if not f.domain().complement().is_empty:
        raise WorkbenchError("decomposition needs the whole space as domain")
    tops = [(b, m) for b, m in f.pieces if b.carrier.is_full]
    assert len(tops) == 1, "exactly one full-carrier piece must exist"
    g = tops[0][1]
    h = PAMap.from_affine(g.inverse(), f.ambient).compose(f)
    if not h.support_dim() < f.ambient:
        raise WorkbenchError("residual map is not lower-dimensional")
    return g, h


def conjugate(g, h: PAMap) -> PAMap:
    """g . h . g^-1; g may be an affine map of the ambient space."""
    if isinstance(g, AffineMap):
        g = PAMap(h.ambient, [(b, g) for b, _ in h.pieces])
    result = g.compose(h).compose(g.invert())
    result.require_valid()
    return result
