"""Affine cosets of Q^n: solution sets of rational linear systems.

A coset stores one canonical form of its augmented system [A | b]: the rows
of the reduced row echelon form, each scaled to the primitive integer row
whose pivot entry is positive, kept with their pivot columns.  The form is
as canonical as the rational RREF, so two cosets are equal as sets exactly
when their stored rows coincide, and equality and hashing compare
integers.  Every constructor ends in one canonicalizing step, mostly one
elimination (`linalg._eliminate`) whose rows get their signs fixed.

Intersection and the subset test reduce one coset's rows against the
other's stored basis (`linalg.reduce_row`), and `pullback` takes the
preimage under an affine map on integer rows, so none of them builds a
Fraction.  An image is the pullback under the inverse map, and a
projection keeps the rows that `linalg.project_rows` leaves once the
dropped coordinates are eliminated.
The rational RREF rows (`rows`) are derived when asked for, for printing
and JSON, and are not stored.  Sorting uses `sort_key`, which holds them:
it is built on a coset's first sort and kept in a slot that equality,
hashing and `repr` ignore, so each coset builds its rows for sorting at
most once.  The empty set is a distinguished value per ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import WorkbenchError
from .linalg import (_eliminate, cleared_row, integer_row, null_space,
                     primitive, project_rows, rational_row, reduce_row)

NEG_INF = float("-inf")

Point = tuple  # of Fractions


def _as_fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _canonical(ambient: int, rows) -> "AffineCoset":
    """The coset of primitive integer augmented rows: one elimination, then
    each row negated if its pivot entry is negative."""
    m, pivots = _eliminate(rows)
    if pivots and pivots[-1] == ambient:  # a row 0 = b with b != 0
        return AffineCoset(ambient, (), True)
    basis = tuple(tuple(row) if row[c] > 0 else tuple(-x for x in row)
                  for row, c in zip(m, pivots))
    return AffineCoset(ambient, basis, False, tuple(pivots))


@dataclass(frozen=True, slots=True)
class AffineCoset:
    """Build cosets with the static constructors; the fields hold the
    canonical form described in the module docstring."""

    ambient: int
    basis: tuple[tuple[int, ...], ...] = ()
    empty: bool = False
    pivots: tuple[int, ...] = field(default=(), compare=False)
    # `sort_key`, built on first use; init=False keeps `replace` from
    # copying it onto another coset
    _sort_key: tuple | None = field(default=None, init=False, compare=False,
                                    repr=False)

    @staticmethod
    def from_rows(ambient: int, rows) -> "AffineCoset":
        """Canonicalize an augmented system; each row is n coefficients + rhs."""
        for row in rows:
            if len(row) != ambient + 1:
                raise WorkbenchError(f"row length {len(row)} != ambient {ambient} + 1")
        return _canonical(ambient, [integer_row(row) for row in rows])

    @staticmethod
    def full(ambient: int) -> "AffineCoset":
        return AffineCoset(ambient, ())

    @staticmethod
    def empty_set(ambient: int) -> "AffineCoset":
        return AffineCoset(ambient, (), True)

    @staticmethod
    def single_point(point) -> "AffineCoset":
        point = _as_fraction_tuple(point)
        n = len(point)
        basis = []
        for i, v in enumerate(point):
            row = [0] * (n + 1)
            row[i], row[n] = v.denominator, v.numerator  # coprime: primitive
            basis.append(tuple(row))
        return AffineCoset(n, tuple(basis), False, tuple(range(n)))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational RREF rows, built on each use and not stored."""
        return tuple(tuple(rational_row(row, row[c]))
                     for row, c in zip(self.basis, self.pivots))

    @property
    def dim(self):
        """Affine dimension; -inf for the empty set."""
        if self.empty:
            return NEG_INF
        return self.ambient - len(self.basis)

    @property
    def is_full(self) -> bool:
        return not self.empty and not self.basis

    def contains(self, point) -> bool:
        if self.empty:
            return False
        point = _as_fraction_tuple(point)
        if len(point) != self.ambient:
            raise WorkbenchError("point has wrong ambient dimension")
        # map stops at the shorter point, so each sum leaves out the rhs
        return all(sum(map(mul, row, point)) == row[-1] for row in self.basis)

    def intersect(self, other: "AffineCoset") -> "AffineCoset":
        """The rows of the coset with fewer rows are reduced against the
        other's basis.  Without a residue the other coset is the answer; a
        residue 0 = c with c != 0 makes it empty; otherwise only the basis
        and the residues are eliminated."""
        if self.ambient != other.ambient:
            raise WorkbenchError("ambient mismatch")
        if self.empty or other.empty:
            return AffineCoset.empty_set(self.ambient)
        big, small = ((self, other) if len(self.basis) >= len(other.basis)
                      else (other, self))
        residues = []
        for row in small.basis:
            residue = reduce_row(row, big.basis, big.pivots)
            if residue is not None:
                if not any(residue[:-1]):
                    return AffineCoset.empty_set(self.ambient)
                residues.append(residue)
        if not residues:
            return big
        return _canonical(self.ambient, [*big.basis, *residues])

    def is_subset(self, other: "AffineCoset") -> bool:
        """A nonempty coset lies in another exactly when every equation of
        the other is a combination of its own augmented rows."""
        if self.ambient != other.ambient:
            raise WorkbenchError("ambient mismatch")
        if self.empty:
            return True
        if other.empty or len(other.basis) > len(self.basis):
            return False
        return all(reduce_row(row, self.basis, self.pivots) is None
                   for row in other.basis)

    def particular_point(self) -> Point:
        """The canonical point with all free coordinates set to zero."""
        if self.empty:
            raise WorkbenchError("empty coset has no points")
        point = [Fraction(0)] * self.ambient
        for row, p in zip(self.basis, self.pivots):
            point[p] = Fraction(row[-1], row[p])
        return tuple(point)

    def direction_basis(self) -> list[list[Fraction]]:
        """Basis of the parallel linear subspace {x : Ax = 0}."""
        if self.empty:
            raise WorkbenchError("empty coset has no directions")
        return null_space([row[:-1] for row in self.basis], self.ambient)

    def translate(self, vector) -> "AffineCoset":
        """The coset moved by a vector: each row keeps its coefficients up
        to a positive factor, so no elimination is needed."""
        if self.empty:
            return self
        vector = _as_fraction_tuple(vector)
        moved = []
        for row in self.basis:
            rhs = row[-1] + sum(map(mul, row, vector), Fraction(0))
            moved.append(tuple(primitive(
                [a * rhs.denominator for a in row[:-1]] + [rhs.numerator])))
        return AffineCoset(self.ambient, tuple(moved), False, self.pivots)

    def pullback(self, mapping) -> "AffineCoset":
        """Preimage under an `AffineMap` x -> (P x + q) / d: each row
        a . (P x + q) / d = b becomes the integer row (a P) x = d b - a . q."""
        if self.empty:
            return self
        cols = list(zip(*mapping.linear))
        d, shift = mapping.denominator, mapping.shift
        rows = [primitive([sum(map(mul, row, col)) for col in cols]
                          + [d * row[-1] - sum(map(mul, row, shift))])
                for row in self.basis]
        return _canonical(self.ambient, rows)

    def project(self, keep: int) -> "AffineCoset":
        """Image under projection to the first `keep` coordinates."""
        if not 0 <= keep <= self.ambient:
            raise WorkbenchError(f"cannot keep {keep} of {self.ambient} coordinates")
        if self.empty:
            return AffineCoset.empty_set(keep)
        return _canonical(keep, project_rows(self.basis, keep))

    def product(self, other: "AffineCoset") -> "AffineCoset":
        """The rows of both factors, padded, are already canonical."""
        n, m = self.ambient, other.ambient
        if self.empty or other.empty:
            return AffineCoset.empty_set(n + m)
        basis = [row[:-1] + (0,) * m + row[-1:] for row in self.basis]
        basis += [(0,) * n + row for row in other.basis]
        return AffineCoset(n + m, tuple(basis), False,
                           self.pivots + tuple(n + c for c in other.pivots))

    def embed(self, ambient: int) -> "AffineCoset":
        """Include into a larger space by the standard inclusion
        a -> (a, 0), pinning the new coordinates to zero.  The pinning rows
        have their pivots in the new columns, so the result is already
        canonical.
        """
        extra = ambient - self.ambient
        if extra < 0:
            raise WorkbenchError("cannot embed into a smaller space")
        if extra == 0:
            return self
        if self.empty:
            return AffineCoset.empty_set(ambient)
        basis = [row[:-1] + (0,) * extra + row[-1:] for row in self.basis]
        for i in range(self.ambient, ambient):
            row = [0] * (ambient + 1)
            row[i] = 1
            basis.append(tuple(row))
        return AffineCoset(ambient, tuple(basis), False,
                           self.pivots + tuple(range(self.ambient, ambient)))

    @property
    def sort_key(self):
        """(ambient, empty, number of equations, rational RREF rows): a
        total order on the cosets of one ambient, in which fewer equations
        (larger dimension) come first.  Built on first use and kept, since
        a coset is frozen."""
        key = self._sort_key
        if key is None:
            key = (self.ambient, 1 if self.empty else 0, len(self.basis),
                   self.rows)
            object.__setattr__(self, "_sort_key", key)
        return key

    def pretty(self) -> str:
        if self.empty:
            return "(empty)"
        if not self.basis:
            return f"Q^{self.ambient}"
        terms = []
        for row in self.rows:
            lhs = " + ".join(f"{a}*x{i + 1}" for i, a in enumerate(row[:-1]) if a != 0)
            terms.append(f"{lhs or '0'} = {row[-1]}")
        return "{ " + ", ".join(terms) + " }"


@dataclass(frozen=True)
class LinearSystem:
    """A raw (not canonicalized) system over x- and existential y-variables.

    Rows hold ambient x-coefficients, then `bound` y-coefficients, then the
    right-hand side, as Python ints: a rational row is stored times the lcm
    of its denominators (`linalg.cleared_row`), and an integer row as it
    is, since its content matters mod p.  The constructor clears any
    rational rows it is given and checks their width.  The denoted subset of
    Q^ambient is the projection of the joint solution set.
    """

    ambient: int
    bound: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.rows
        # the parser's rows are already tuples of ints, and are kept as given
        if type(rows) is not tuple or not all(
                type(row) is tuple and all(type(x) is int for x in row)
                for row in rows):
            rows = tuple(tuple(cleared_row(row)) for row in rows)
            object.__setattr__(self, "rows", rows)
        width = self.ambient + self.bound + 1
        if any(len(row) != width for row in rows):
            raise WorkbenchError("system row has wrong width")

    def joint_coset(self) -> AffineCoset:
        return AffineCoset.from_rows(self.ambient + self.bound, self.rows)

    def coset(self) -> AffineCoset:
        """The denoted subset of Q^ambient (projecting out the y block)."""
        joint = self.joint_coset()
        if self.bound == 0:
            return joint
        # move the y block to the tail, which it already occupies, and project
        return joint.project(self.ambient)
