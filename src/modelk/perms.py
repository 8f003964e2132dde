"""Permutations of {0, ..., k-1} with composition and parity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

_new = object.__new__


def _trusted(images: tuple[int, ...]) -> "Perm":
    """A Perm whose images are known to be a bijection of 0..k-1."""
    p = _new(Perm)
    p.__dict__["images"] = images
    return p


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation stored by its tuple of images.

    Composition acts on the left: (p * q)(x) = p(q(x)).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

    @staticmethod
    def identity(degree: int) -> "Perm":
        return _trusted(tuple(range(degree)))

    @staticmethod
    def transposition(degree: int, i: int, j: int) -> "Perm":
        images = list(range(degree))
        images[i], images[j] = j, i
        return Perm(tuple(images))

    @staticmethod
    def cycle(degree: int, points: tuple[int, ...]) -> "Perm":
        images = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        return Perm(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        images = self.images
        if len(images) != len(other.images):
            raise ValueError("degree mismatch")
        return _trusted(tuple([images[y] for y in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return _trusted(tuple(inv))

    def identity_like(self) -> "Perm":
        return Perm.identity(self.degree)

    def cycle_count(self) -> int:
        seen = [False] * self.degree
        count = 0
        for start in range(self.degree):
            if seen[start]:
                continue
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.images[x]
        return count

    def is_even(self) -> bool:
        # parity of a permutation is (-1)^(degree - #cycles)
        return (self.degree - self.cycle_count()) % 2 == 0

    def sign(self) -> int:
        return 1 if self.is_even() else -1

    @property
    def sort_key(self):
        return self.images

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def permute_tuple(p: Perm, values: tuple) -> tuple:
    """Left action of p on an indexed tuple: result[p(x)] = values[x]."""
    return tuple([values[x] for x in p.inverse().images])


def perm_product(perms) -> Perm:
    return reduce(mul, perms)
