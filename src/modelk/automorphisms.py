"""Piecewise-affine self-bijections of definable subsets of Q^n.

A PAMap is a finite list of (block, affine map) pieces.  It is a member of
the automorphism group of its domain when the piece blocks partition the
domain and the image blocks partition it again.  All checks are exact coset
algebra; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cosets import NEG_INF, AffineCoset
from .defsets import (Block, DefinableSet, block_intersect, block_subtract,
                      k0_class, make_block)
from .errors import WorkbenchError
from .linalg import frac_rows, integer_affine, mat_inv, mat_mul, mat_vec
from .report import VerificationReport


@dataclass(frozen=True)
class AffineMap:
    matrix: tuple[tuple[Fraction, ...], ...]
    offset: tuple[Fraction, ...]

    @staticmethod
    def make(matrix, offset) -> "AffineMap":
        rows = frac_rows(matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise WorkbenchError("matrix must be square")
        offset = tuple(Fraction(x) for x in offset)
        if len(offset) != n:
            raise WorkbenchError("offset length mismatch")
        mat_inv(rows)  # raises when singular
        return AffineMap(tuple(tuple(r) for r in rows), offset)

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap.make(
            [[int(i == j) for j in range(n)] for i in range(n)], [0] * n)

    @staticmethod
    def translation(vector) -> "AffineMap":
        n = len(list(vector))
        return AffineMap.make(
            [[int(i == j) for j in range(n)] for i in range(n)], vector)

    @property
    def ambient(self) -> int:
        return len(self.offset)

    def apply(self, point):
        moved = mat_vec([list(r) for r in self.matrix], list(point))
        return tuple(a + b for a, b in zip(moved, self.offset))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: x -> self(inner(x))."""
        a = mat_mul([list(r) for r in self.matrix], [list(r) for r in inner.matrix])
        b = [x + y for x, y in zip(
            mat_vec([list(r) for r in self.matrix], list(inner.offset)),
            self.offset)]
        return AffineMap.make(a, b)

    def inverse(self) -> "AffineMap":
        inv = mat_inv([list(r) for r in self.matrix])
        b = [-x for x in mat_vec(inv, list(self.offset))]
        return AffineMap.make(inv, b)

    @property
    def is_identity(self) -> bool:
        n = self.ambient
        return (all(self.matrix[i][j] == (1 if i == j else 0)
                    for i in range(n) for j in range(n))
                and all(x == 0 for x in self.offset))

    def fixed_coset(self) -> AffineCoset:
        """Solutions of (A - I)x = -b."""
        n = self.ambient
        rows = []
        for i in range(n):
            row = [self.matrix[i][j] - (1 if i == j else 0) for j in range(n)]
            rows.append(row + [-self.offset[i]])
        return AffineCoset.from_rows(n, rows)

    def agreement_coset(self, other: "AffineMap") -> AffineCoset:
        """Points where the two maps coincide."""
        n = self.ambient
        rows = []
        for i in range(n):
            row = [self.matrix[i][j] - other.matrix[i][j] for j in range(n)]
            rows.append(row + [other.offset[i] - self.offset[i]])
        return AffineCoset.from_rows(n, rows)

    @cached_property
    def _forward(self):
        """This map as integers over a common denominator."""
        return integer_affine(self.matrix, self.offset)

    @cached_property
    def _backward(self):
        """The inverse map as integers over a common denominator."""
        inv = mat_inv([list(r) for r in self.matrix])
        return integer_affine(inv, [-x for x in mat_vec(inv, self.offset)])

    def image_coset(self, coset: AffineCoset) -> AffineCoset:
        return coset.pullback(self._backward)

    def image_block(self, block: Block) -> Block:
        return _pull_block(block, self._backward)

    def preimage_block(self, block: Block) -> Block:
        return _pull_block(block, self._forward)

    def sort_key(self):
        return (self.matrix, self.offset)


def _pull_block(block: Block, form) -> Block:
    moved = make_block(block.carrier.pullback(form),
                       [h.pullback(form) for h in block.holes])
    assert moved is not None  # affine bijections preserve nonemptiness
    return moved


class PAMap:
    """Piecewise-affine map; pieces sorted canonically, validity memoized."""

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
        self._valid: bool | None = None

    @staticmethod
    def from_affine(mapping: AffineMap, ambient: int | None = None) -> "PAMap":
        n = mapping.ambient if ambient is None else ambient
        return PAMap(n, [(make_block(AffineCoset.full(n)), mapping)])

    @staticmethod
    def identity(ambient: int) -> "PAMap":
        return PAMap.from_affine(AffineMap.identity(ambient), ambient)

    def domain(self) -> DefinableSet:
        return DefinableSet.from_blocks(self.ambient, [b for b, _ in self.pieces])

    def image_blocks(self) -> list[Block]:
        return [m.image_block(b) for b, m in self.pieces]

    def apply(self, point):
        for block, mapping in self.pieces:
            if block.contains(point):
                return mapping.apply(point)
        raise WorkbenchError("point outside the domain")

    def validate(self) -> VerificationReport:
        report = VerificationReport(f"piecewise-affine map on Q^{self.ambient}")
        report.add("has-pieces", bool(self.pieces))
        disjoint = True
        blocks = [b for b, _ in self.pieces]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if block_intersect(blocks[i], blocks[j]) is not None:
                    disjoint = False
        report.add("domain-pieces-disjoint", disjoint)
        images = self.image_blocks()
        img_disjoint = True
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if block_intersect(images[i], images[j]) is not None:
                    img_disjoint = False
        report.add("image-pieces-disjoint", img_disjoint)
        if disjoint and img_disjoint:
            domain = DefinableSet.from_blocks(self.ambient, blocks)
            image = DefinableSet.from_blocks(self.ambient, images)
            report.add("image-equals-domain", image.same_set(domain))
        else:
            report.add("image-equals-domain", False,
                       "skipped: pieces overlap")
        self._valid = report.passed
        return report

    def require_valid(self):
        if self._valid is None:
            self.validate()
        if not self._valid:
            raise WorkbenchError("map is not a bijection of its domain: "
                                 + "; ".join(self.validate().failures))

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
        return k0_class(self.support()).degree

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
    full = DefinableSet.full_space(f.ambient)
    if not f.domain().same_set(full):
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
