"""A small catalogue of concrete groups for tests and randomized suites."""

from __future__ import annotations

from functools import lru_cache

from .constructions import direct_product, symmetric_group
from .errors import WorkbenchError, int_token
from .groups import FiniteGroup, enumerate_group
from .matrices import Mat
from .matrix_groups import special_linear
from .perms import Perm
from .rings import GF


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise WorkbenchError("order must be positive")
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, 0,
                       inv=lambda a: (-a) % n,
                       generators=[1] if n > 1 else [0], name=f"Z_{n}")


@lru_cache(maxsize=None)
def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even, >= 4) order, as polygon symmetries."""
    if order < 4 or order % 2:
        raise WorkbenchError(f"dihedral groups here have even order >= 4, got {order}")
    n = order // 2
    rotation = Perm(tuple((i + 1) % n for i in range(n)))
    reflection = Perm(tuple((-i) % n for i in range(n)))
    G = enumerate_group([rotation, reflection], name=f"D_{n}")
    assert G.order == order
    return G


@lru_cache(maxsize=None)
def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), name="Z_2xZ_2")


@lru_cache(maxsize=None)
def quaternion8() -> FiniteGroup:
    """The quaternion group, realized inside SL_2(F_3)."""
    F3 = GF(3)
    i = Mat(F3, ((0, 2), (1, 0)))
    j = Mat(F3, ((1, 1), (1, 2)))
    G = enumerate_group([i, j], name="Q_8")
    assert G.order == 8
    return G


@lru_cache(maxsize=None)
def sl2(q: int) -> FiniteGroup:
    """SL_2(F_q), as `special_linear` lists it."""
    return special_linear(2, GF(q))


def by_name(spec: str) -> FiniteGroup:
    """Resolve specs like sym:4, cyclic:6, dihedral:8, sl2:3, klein, q8."""
    head, _, arg = spec.partition(":")
    head = head.strip().lower()
    sized = {"sym": symmetric_group, "cyclic": cyclic, "dihedral": dihedral,
             "sl2": sl2}
    if head in sized:
        return sized[head](int_token(arg, spec))
    if head == "klein":
        return klein_four()
    if head in ("q8", "quaternion"):
        return quaternion8()
    raise WorkbenchError(f"unknown group spec: {spec!r}")
