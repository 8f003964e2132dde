"""Finite coefficient rings: Z/m and small Galois fields with exact tables.

Elements are encoded as integers in [0, size).  For GF(p^e) with e > 1 the
encoding is base-p digits, little-endian, of the representative polynomial;
the modulus polynomials are fixed once and for all so that element encodings
are stable across runs.

`Zmod(m)` and `GF(q)` check only their argument: m >= 2, or q a prime power
with a modulus on file.  A ring fills its q x q add and mul tables on the
first read of any table, so a caller that needs only a ring's size, such as
a group constructor refusing an order over its cap, builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import WorkbenchError

# fixed irreducible moduli, ascending coefficient order (constant first);
# tests/test_matrices.py checks the field axioms of each GF(q) they give
_MODULUS = {
    4: (1, 1, 1),          # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),       # x^3 + x + 1 over F_2
    9: (1, 0, 1),          # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1 over F_2
    25: (1, 1, 1),         # x^2 + x + 1 over F_5
    27: (1, 2, 0, 1),      # x^3 + 2x + 1 over F_3
}


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, k) for each p^k exactly dividing m, p ascending; trial division
    to sqrt(m)."""
    out, p = [], 2
    while p * p <= m:
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        if k:
            out.append((p, k))
        p += 1
    return out + [(m, 1)] * (m > 1)


def _factor_prime_power(q: int):
    """(p, e) with q = p^e for a prime p, or None."""
    pe = _prime_powers(q)
    return pe[0] if len(pe) == 1 else None


@dataclass(frozen=True)
class MatRing:
    """Z/m ("zmod") or GF(q) ("gf"); arithmetic via exact tables, built on
    first use (see `__getattr__`).  `modulus` is the fixed modulus of GF(p^e)
    for e > 1, and empty otherwise."""

    kind: str
    size: int
    char: int = field(compare=False, default=0)
    modulus: tuple = field(compare=False, repr=False, default=())

    zero = 0
    one = 1

    def __getattr__(self, name):
        """Runs only for an attribute the instance lacks: on the first read of
        a table, build all four and store them on the instance, where later
        reads find them as plain attributes."""
        if name not in ("_add", "_mul", "_neg", "_inv"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        add, mul, neg, inv = _build_tables(self)
        self.__dict__.update(_add=add, _mul=mul, _neg=neg, _inv=inv)
        return self.__dict__[name]

    @property
    def elements(self) -> range:
        return range(self.size)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def is_unit(self, a: int) -> bool:
        return a in self._inv

    def inv(self, a: int) -> int:
        if a not in self._inv:
            raise WorkbenchError(f"{a} is not a unit in {self}")
        return self._inv[a]

    def units(self) -> list[int]:
        return [a for a in self.elements if a in self._inv]

    def pretty(self) -> str:
        return f"F_{self.size}" if self.kind == "gf" else f"Z_{self.size}"

    def __str__(self) -> str:
        return self.pretty()


def _build_tables(ring: MatRing):
    """The add, mul and neg tables and the inverse dict: arithmetic mod the
    size over Z_m and F_p, and over F_(p^e) on polynomials in x, encoded by
    their base-p digits, reduced by the fixed monic modulus."""
    size, p, modulus = ring.size, ring.char, ring.modulus
    if not modulus:
        add_fn, mul_fn = (lambda a, b: (a + b) % size), (lambda a, b: (a * b) % size)
    else:
        e = len(modulus) - 1

        def digits(a):
            out = []
            for _ in range(e):
                out.append(a % p)
                a //= p
            return out

        def encode(ds):
            a = 0
            for d in reversed(ds):
                a = a * p + d
            return a

        def add_fn(a, b):
            da, db = digits(a), digits(b)
            return encode([(x + y) % p for x, y in zip(da, db)])

        def mul_fn(a, b):
            da, db = digits(a), digits(b)
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(len(prod) - 1, e - 1, -1):
                c = prod[top]
                if c:
                    prod[top] = 0
                    for k in range(e):
                        prod[top - e + k] = (prod[top - e + k] - c * modulus[k]) % p
            return encode(prod[:e])

    add = tuple(tuple(add_fn(a, b) for b in range(size)) for a in range(size))
    mul = tuple(tuple(mul_fn(a, b) for b in range(size)) for a in range(size))
    neg = tuple(row.index(0) for row in add)
    inv = {a: row.index(1) for a, row in enumerate(mul) if 1 in row}
    return add, mul, neg, inv


@lru_cache(maxsize=None)
def Zmod(m: int) -> MatRing:
    if m < 2:
        raise WorkbenchError(f"modulus must be at least 2, got {m}")
    return MatRing("zmod", m, m)


@lru_cache(maxsize=None)
def GF(q: int) -> MatRing:
    pe = _factor_prime_power(q)
    if pe is None:
        raise WorkbenchError(f"{q} is not a prime power")
    p, e = pe
    if e > 1 and q not in _MODULUS:
        raise WorkbenchError(f"no fixed modulus polynomial on file for GF({q})")
    return MatRing("gf", q, p, _MODULUS.get(q, ()))


@dataclass(frozen=True)
class UnitSumWitness:
    """Units u, v with u + v = 1, when the ring admits such a pair."""

    exists: bool
    u: int | None = None
    v: int | None = None


def unit_sum_witness(ring: MatRing) -> UnitSumWitness:
    for u in ring.elements:
        if not ring.is_unit(u):
            continue
        v = ring.sub(ring.one, u)
        if ring.is_unit(v):
            return UnitSumWitness(True, u, v)
    return UnitSumWitness(False)

