"""Permutations of {0, ..., k-1} with composition and parity.

A `Perm` is the tuple of its images, so it hashes, compares and sorts as
that tuple does; `Perm(images)` checks that the images are ints forming a
bijection of 0..k-1, and products and inverses, bijections by
construction, are built without the check.  A Perm multiplies only by a
Perm of its degree, and it neither concatenates nor repeats as a tuple
does.
"""

from __future__ import annotations

_new = tuple.__new__


class Perm(tuple):
    """A permutation, the tuple of its images: p(x) = p[x].

    Composition acts on the left: (p * q)(x) = p(q(x)).
    """

    __slots__ = ()

    def __new__(cls, images):
        images = _new(cls, images)
        if not all(type(x) is int for x in images):
            raise ValueError(f"images must be ints: {tuple(images)}")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {tuple(images)}")
        return images

    @staticmethod
    def identity(degree: int) -> "Perm":
        return _new(Perm, range(degree))

    @staticmethod
    def transposition(degree: int, i: int, j: int) -> "Perm":
        images = list(range(degree))
        images[i], images[j] = j, i
        return Perm(images)

    @staticmethod
    def cycle(degree: int, points: tuple[int, ...]) -> "Perm":
        if len(set(points)) != len(points) or not set(points) <= set(range(degree)):
            raise ValueError(f"a cycle needs distinct points of 0..{degree - 1}: {points}")
        images = list(range(degree))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self)

    __call__ = tuple.__getitem__

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            raise _operand_error("*", self, other)
        if len(self) != len(other):
            raise ValueError("degree mismatch")
        return _new(Perm, [self[y] for y in other])

    # a tuple's concatenation and repetition would return a plain tuple
    def __rmul__(self, other):
        raise _operand_error("*", other, self)

    def __add__(self, other):
        raise _operand_error("+", self, other)

    def __radd__(self, other):
        raise _operand_error("+", other, self)

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for x, y in enumerate(self):
            inv[y] = x
        return _new(Perm, inv)

    def identity_like(self) -> "Perm":
        return Perm.identity(len(self))

    def cycle_count(self) -> int:
        seen = [False] * len(self)
        count = 0
        for start in range(len(self)):
            if seen[start]:
                continue
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = self[x]
        return count

    def is_even(self) -> bool:
        # parity of a permutation is (-1)^(degree - #cycles)
        return (len(self) - self.cycle_count()) % 2 == 0

    def sign(self) -> int:
        return 1 if self.is_even() else -1

    def __repr__(self) -> str:
        return f"Perm{tuple.__repr__(self)}"


def _operand_error(op: str, left, right) -> TypeError:
    return TypeError(f"unsupported operand types for {op}: "
                     f"{type(left).__name__!r} and {type(right).__name__!r}")


def permute_tuple(p: Perm, values: tuple) -> tuple:
    """Left action of p on an indexed tuple: result[p(x)] = values[x]."""
    result = list(values)
    for x, y in enumerate(p):
        result[y] = values[x]
    return tuple(result)
