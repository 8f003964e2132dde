"""Affine cosets of Q^n: solution sets of rational linear systems.

A coset is stored as the reduced row echelon form of its augmented system
[A | b], which is a canonical representative: two cosets are equal as sets
exactly when their stored rows coincide.  The empty set is a distinguished
value per ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import WorkbenchError
from .linalg import frac_rows, integer_row, mat_inv, mat_vec, null_space, rref

NEG_INF = float("-inf")

Point = tuple  # of Fractions


def _as_fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class AffineCoset:
    ambient: int
    rows: tuple[tuple[Fraction, ...], ...] = ()
    empty: bool = False

    @staticmethod
    def from_rows(ambient: int, rows) -> "AffineCoset":
        """Canonicalize an augmented system; each row is n coefficients + rhs."""
        for row in rows:
            if len(row) != ambient + 1:
                raise WorkbenchError(f"row length {len(row)} != ambient {ambient} + 1")
        reduced, pivots = rref(rows)
        if ambient in pivots:
            return AffineCoset(ambient, (), True)
        return AffineCoset(ambient, tuple(map(tuple, reduced)))

    @staticmethod
    def from_equations(ambient: int, equations) -> "AffineCoset":
        """equations: iterable of (coefficients, rhs)."""
        return AffineCoset.from_rows(
            ambient, [list(coeffs) + [rhs] for coeffs, rhs in equations])

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
        rows = []
        for i, v in enumerate(point):
            row = [Fraction(0)] * (n + 1)
            row[i] = Fraction(1)
            row[n] = v
            rows.append(row)
        return AffineCoset.from_rows(n, rows)

    @property
    def dim(self):
        """Affine dimension; -inf for the empty set."""
        if self.empty:
            return NEG_INF
        return self.ambient - len(self.rows)

    @property
    def is_full(self) -> bool:
        return not self.empty and not self.rows

    def coefficient_rows(self) -> list[list[Fraction]]:
        return [list(r[:-1]) for r in self.rows]

    def rhs(self) -> list[Fraction]:
        return [r[-1] for r in self.rows]

    def contains(self, point) -> bool:
        if self.empty:
            return False
        point = _as_fraction_tuple(point)
        if len(point) != self.ambient:
            raise WorkbenchError("point has wrong ambient dimension")
        return all(sum((a * x for a, x in zip(row, point)), Fraction(0)) == row[-1]
                   for row in self.rows)

    def intersect(self, other: "AffineCoset") -> "AffineCoset":
        if self.ambient != other.ambient:
            raise WorkbenchError("ambient mismatch")
        if self.empty or other.empty:
            return AffineCoset.empty_set(self.ambient)
        return AffineCoset.from_rows(self.ambient, self.rows + other.rows)

    def is_subset(self, other: "AffineCoset") -> bool:
        if self.empty:
            return True
        return self.intersect(other) == self

    def is_proper_subset(self, other: "AffineCoset") -> bool:
        return self != other and self.is_subset(other)

    def particular_point(self) -> Point:
        """The canonical point with all free coordinates set to zero."""
        if self.empty:
            raise WorkbenchError("empty coset has no points")
        point = [Fraction(0)] * self.ambient
        pivots = [next(i for i, x in enumerate(row[:-1]) if x != 0) for row in self.rows]
        for row, p in zip(self.rows, pivots):
            point[p] = row[-1]
        return tuple(point)

    def direction_basis(self) -> list[list[Fraction]]:
        """Basis of the parallel linear subspace {x : Ax = 0}."""
        if self.empty:
            raise WorkbenchError("empty coset has no directions")
        return null_space(self.coefficient_rows(), self.ambient)

    def translate(self, vector) -> "AffineCoset":
        if self.empty:
            return self
        vector = _as_fraction_tuple(vector)
        moved = []
        for row in self.rows:
            shift = sum((a * v for a, v in zip(row, vector)), Fraction(0))
            moved.append(tuple(row[:-1]) + (row[-1] + shift,))
        return AffineCoset(self.ambient, tuple(moved))

    def affine_image(self, matrix, offset) -> "AffineCoset":
        """Image under x -> Mx + c with M invertible."""
        if self.empty:
            return self
        minv = mat_inv(matrix)
        offset = _as_fraction_tuple(offset)
        a = self.coefficient_rows()
        new_coeff = [mat_vec(list(zip(*minv)), row) for row in a]  # row * M^-1
        rows = []
        for row, old in zip(new_coeff, self.rows):
            shift = sum((x * c for x, c in zip(row, offset)), Fraction(0))
            rows.append(list(row) + [old[-1] + shift])
        return AffineCoset.from_rows(self.ambient, rows)

    def affine_preimage(self, matrix, offset) -> "AffineCoset":
        """Preimage under x -> Mx + c (M invertible)."""
        if self.empty:
            return self
        matrix = frac_rows(matrix)
        offset = _as_fraction_tuple(offset)
        rows = []
        for row in self.rows:
            coeff = mat_vec(list(zip(*matrix)), list(row[:-1]))  # row * M
            shift = sum((a * c for a, c in zip(row, offset)), Fraction(0))
            rows.append(list(coeff) + [row[-1] - shift])
        return AffineCoset.from_rows(self.ambient, rows)

    def project(self, keep: int) -> "AffineCoset":
        """Image under projection to the first `keep` coordinates."""
        if not 0 <= keep <= self.ambient:
            raise WorkbenchError(f"cannot keep {keep} of {self.ambient} coordinates")
        if self.empty:
            return AffineCoset.empty_set(keep)
        rows = [list(r) for r in self.rows]
        for col in range(self.ambient - 1, keep - 1, -1):
            pivot = next((i for i in range(len(rows)) if rows[i][col] != 0), None)
            if pivot is None:
                continue
            prow = rows.pop(pivot)
            for row in rows:
                if row[col] != 0:
                    f = row[col] / prow[col]
                    for j in range(len(row)):
                        row[j] -= f * prow[j]
        trimmed = [row[:keep] + [row[-1]] for row in rows]
        return AffineCoset.from_rows(keep, trimmed)

    def product(self, other: "AffineCoset") -> "AffineCoset":
        n, m = self.ambient, other.ambient
        if self.empty or other.empty:
            return AffineCoset.empty_set(n + m)
        rows = [list(r[:-1]) + [Fraction(0)] * m + [r[-1]] for r in self.rows]
        rows += [[Fraction(0)] * n + list(r[:-1]) + [r[-1]] for r in other.rows]
        return AffineCoset.from_rows(n + m, rows)

    def embed(self, ambient: int, tail=None) -> "AffineCoset":
        """Include into a larger space by pinning the new coordinates.

        With tail omitted the new coordinates are pinned to zero, matching
        the standard inclusion a -> (a, 0).
        """
        extra = ambient - self.ambient
        if extra < 0:
            raise WorkbenchError("cannot embed into a smaller space")
        if extra == 0:
            return self
        if self.empty:
            return AffineCoset.empty_set(ambient)
        tail = _as_fraction_tuple(tail if tail is not None else [0] * extra)
        if len(tail) != extra:
            raise WorkbenchError("tail length mismatch")
        rows = [list(r[:-1]) + [Fraction(0)] * extra + [r[-1]] for r in self.rows]
        for i, v in enumerate(tail):
            row = [Fraction(0)] * (ambient + 1)
            row[self.ambient + i] = Fraction(1)
            row[-1] = v
            rows.append(row)
        return AffineCoset.from_rows(ambient, rows)

    def integer_rows(self) -> list[list[int]]:
        """Denominator-cleared augmented rows, primitive per row."""
        return [integer_row(r) for r in self.rows]

    @property
    def sort_key(self):
        return (self.ambient, 1 if self.empty else 0, len(self.rows), self.rows)

    def pretty(self) -> str:
        if self.empty:
            return "(empty)"
        if not self.rows:
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
    right-hand side.  The denoted subset of Q^ambient is the projection of
    the joint solution set.
    """

    ambient: int
    bound: int
    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def make(ambient: int, bound: int, rows) -> "LinearSystem":
        rows = frac_rows(rows)
        for row in rows:
            if len(row) != ambient + bound + 1:
                raise WorkbenchError("system row has wrong width")
        return LinearSystem(ambient, bound, tuple(tuple(r) for r in rows))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def joint_coset(self) -> AffineCoset:
        return AffineCoset.from_rows(self.ambient + self.bound, [list(r) for r in self.rows])

    def coset(self) -> AffineCoset:
        """The denoted subset of Q^ambient (projecting out the y block)."""
        joint = self.joint_coset()
        if self.bound == 0:
            return joint
        # move the y block to the tail, which it already occupies, and project
        return joint.project(self.ambient)
