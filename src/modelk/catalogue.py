"""The concrete groups that tests, suites and `--group` specs name.

`by_name` is the one grammar for group specs; Q_8's spec is `q8`, and it
has no alias.  It passes `cap` to every constructor, and each refuses a
group of more elements before it lists an element: from its known order
(see `groups.check_order`), or, for the dihedral groups and Q_8, as their
closure grows.  A gl, sl or aff spec calls its constructor over GF(q),
which refuses before the field fills a table (see `rings`).
"""

from __future__ import annotations

from functools import lru_cache

from .constructions import direct_power, symmetric_group, wreath
from .errors import DEFAULT_CAP, WorkbenchError, int_token
from .groups import FiniteGroup, check_order, enumerate_group
from .matrices import Mat
from .matrix_groups import affine_group, gl_group, special_linear
from .perms import Perm
from .rings import GF


@lru_cache(maxsize=None)
def cyclic(n: int, cap=DEFAULT_CAP) -> FiniteGroup:
    if n < 1:
        raise WorkbenchError("order must be positive")
    check_order(n, cap, f"Z_{n}")
    return FiniteGroup(range(n), lambda a, b: (a + b) % n, 0,
                       generators=[1] if n > 1 else [0], name=f"Z_{n}")


@lru_cache(maxsize=None)
def dihedral(order: int, cap=DEFAULT_CAP) -> FiniteGroup:
    """Dihedral group of the given even order >= 6, as the symmetries of a
    polygon.  The 2-gon's reflection i -> -i fixes both of its vertices, so
    order 4 is refused; that group is `klein_four`."""
    if order < 6 or order % 2:
        klein = "; for order 4 use klein, the same group" if order == 4 else ""
        raise WorkbenchError(f"dihedral groups here have even order >= 6, got "
                             f"{order}{klein}")
    n = order // 2
    rotation = Perm(tuple((i + 1) % n for i in range(n)))
    reflection = Perm(tuple((-i) % n for i in range(n)))
    return enumerate_group([rotation, reflection], cap=cap, name=f"D_{n}")


@lru_cache(maxsize=None)
def klein_four(cap=DEFAULT_CAP) -> FiniteGroup:
    return direct_power(cyclic(2), 2, name="Z_2xZ_2", cap=cap)


@lru_cache(maxsize=None)
def quaternion8(cap=DEFAULT_CAP) -> FiniteGroup:
    """The quaternion group, realized inside SL_2(F_3)."""
    F3 = GF(3)
    i = Mat(F3, ((0, 2), (1, 0)))
    j = Mat(F3, ((1, 1), (1, 2)))
    G = enumerate_group([i, j], cap=cap, name="Q_8")
    assert G.order == 8
    return G


_SIZED = {"sym": symmetric_group, "cyclic": cyclic, "dihedral": dihedral}
_LINEAR = {"gl": gl_group, "sl": special_linear, "aff": affine_group}
_NAMED = {"klein": klein_four, "q8": quaternion8}


def by_name(spec: str, cap=DEFAULT_CAP) -> FiniteGroup:
    """The group of a spec: sym:k, cyclic:n, dihedral:m, klein, q8,
    gl:n:q, sl:n:q (sl2:q is sl:2:q), aff:n:q, or wreath:<spec>:k for
    <spec> wr Sym(k), built under `cap`."""
    head, *args = spec.split(":")
    head = head.strip().lower()
    if head == "sl2":
        head, args = "sl", ["2", *args]
    if head == "wreath" and len(args) >= 2:
        return wreath(by_name(":".join(args[:-1]), cap), int_token(args[-1], spec),
                      cap=cap)
    if head in _SIZED and len(args) == 1:
        return _SIZED[head](int_token(args[0], spec), cap=cap)
    if head in _LINEAR and len(args) == 2:
        n, q = (int_token(arg, spec) for arg in args)
        return _LINEAR[head](n, GF(q), cap=cap)
    if head in _NAMED and not args:
        return _NAMED[head](cap)
    raise WorkbenchError(f"unknown group spec: {spec!r}")
