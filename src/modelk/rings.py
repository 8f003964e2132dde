"""Finite coefficient rings: Z/m and small Galois fields with exact tables.

Elements are encoded as integers in [0, size).  For GF(p^e) with e > 1 the
encoding is base-p digits, little-endian, of the representative polynomial;
the modulus polynomials are fixed once and for all so that element encodings
are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import WorkbenchError

# fixed irreducible moduli, ascending coefficient order (constant first)
_MODULUS = {
    4: (1, 1, 1),          # x^2 + x + 1 over F_2
    8: (1, 1, 0, 1),       # x^3 + x + 1 over F_2
    9: (1, 0, 1),          # x^2 + 1 over F_3
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1 over F_2
    25: (1, 1, 1),         # x^2 + x + 1 over F_5
    27: (1, 2, 0, 1),      # x^3 + 2x + 1 over F_3
}

_AXIOM_CHECK_LIMIT = 16


def _factor_prime_power(q: int):
    """(p, e) with q = p^e for a prime p, or None; trial division to sqrt(q)."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            rest = q
            while rest % p == 0:
                rest //= p
                e += 1
            return (p, e) if rest == 1 else None
        p += 1
    return q, 1


@dataclass(frozen=True)
class MatRing:
    """Z/m ("zmod") or GF(q) ("gf"); arithmetic via precomputed exact tables."""

    kind: str
    size: int
    char: int = field(compare=False, default=0)
    _add: tuple = field(compare=False, repr=False, default=())
    _mul: tuple = field(compare=False, repr=False, default=())
    _neg: tuple = field(compare=False, repr=False, default=())
    _inv: dict = field(compare=False, repr=False, default_factory=dict)

    zero = 0
    one = 1

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


def _build_tables(size, add_fn, mul_fn):
    add = tuple(tuple(add_fn(a, b) for b in range(size)) for a in range(size))
    mul = tuple(tuple(mul_fn(a, b) for b in range(size)) for a in range(size))
    neg = [0] * size
    for a in range(size):
        for b in range(size):
            if add[a][b] == 0:
                neg[a] = b
                break
    inv = {}
    for a in range(size):
        for b in range(size):
            if mul[a][b] == 1:
                inv[a] = b
                break
    return add, mul, tuple(neg), inv


def _check_field_axioms(ring: MatRing) -> None:
    els = list(ring.elements)
    for a in els:
        if ring.add(a, 0) != a or ring.mul(a, 1) != a:
            raise WorkbenchError("identity axiom fails")
        if a != 0 and not ring.is_unit(a):
            raise WorkbenchError(f"nonzero element {a} has no inverse")
        for b in els:
            if ring.add(a, b) != ring.add(b, a) or ring.mul(a, b) != ring.mul(b, a):
                raise WorkbenchError("commutativity fails")
            for c in els:
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    raise WorkbenchError("additive associativity fails")
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    raise WorkbenchError("multiplicative associativity fails")
                if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
                    raise WorkbenchError("distributivity fails")


@lru_cache(maxsize=None)
def Zmod(m: int) -> MatRing:
    if m < 2:
        raise WorkbenchError(f"modulus must be at least 2, got {m}")
    add, mul, neg, inv = _build_tables(m, lambda a, b: (a + b) % m, lambda a, b: (a * b) % m)
    return MatRing("zmod", m, char=m, _add=add, _mul=mul, _neg=neg, _inv=inv)


@lru_cache(maxsize=None)
def GF(q: int) -> MatRing:
    pe = _factor_prime_power(q)
    if pe is None:
        raise WorkbenchError(f"{q} is not a prime power")
    p, e = pe
    if e == 1:
        add, mul, neg, inv = _build_tables(q, lambda a, b: (a + b) % p, lambda a, b: (a * b) % p)
    else:
        if q not in _MODULUS:
            raise WorkbenchError(f"no fixed modulus polynomial on file for GF({q})")
        modulus = _MODULUS[q]

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
            # reduce by the fixed monic modulus
            for top in range(len(prod) - 1, e - 1, -1):
                c = prod[top]
                if c:
                    prod[top] = 0
                    for k in range(e):
                        prod[top - e + k] = (prod[top - e + k] - c * modulus[k]) % p
            return encode(prod[:e])

        add, mul, neg, inv = _build_tables(q, add_fn, mul_fn)
    ring = MatRing("gf", q, char=p, _add=add, _mul=mul, _neg=neg, _inv=inv)
    if q <= _AXIOM_CHECK_LIMIT:
        _check_field_axioms(ring)
    return ring


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

