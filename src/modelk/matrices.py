"""Square matrices over a MatRing, with exact inverse via the adjugate.

The public constructor `Mat(ring, rows)` validates its entries.  Products,
inverses and identities are valid by construction and skip that check.  The
arithmetic runs in straight-line functions generated once per (ring, n), the
way `dataclasses` generates `__init__`, that index the ring's add, mul and
neg tables directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product

from .errors import WorkbenchError
from .rings import MatRing


def _sum(terms) -> str:
    """Source text of the ring sum of terms, each a source text."""
    acc, *rest = terms
    for t in rest:
        acc = f"A[{acc}][{t}]"
    return acc


def _dot(xs, ys) -> str:
    return _sum(f"M[{x}][{y}]" for x, y in zip(xs, ys))


def _tuple(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _compile(name: str, args: str, body: list[str], ring: MatRing):
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"A": ring._add, "M": ring._mul, "N": ring._neg}
    exec(source, namespace)
    return namespace[name]


class _Kernels:
    """Straight-line product, apply and det for n x n matrices over a ring."""

    def __init__(self, ring: MatRing, n: int):
        self.ring, self.n = ring, n
        self.a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
        self.unpack_a = f"{_tuple(map(_tuple, self.a))} = a"
        b = [[f"b{i}_{j}" for j in range(n)] for i in range(n)]
        rows = _tuple(_tuple(_dot(row, col) for col in zip(*b)) for row in self.a)
        self.mul = _compile("mul", "a, b", [self.unpack_a,
                                            f"{_tuple(map(_tuple, b))} = b",
                                            f"return {rows}"], ring)
        v = [f"v{j}" for j in range(n)]
        entries = _tuple(_dot(row, v) for row in self.a)
        self.apply = _compile("apply", "a, v", [self.unpack_a, f"{_tuple(v)} = v",
                                                f"return {entries}"], ring)

    @cached_property
    def det(self):
        """Laplace expansion along the rows from the bottom up, sharing every
        minor: d_S is the minor on the last |S| rows and the columns in S.
        Its size, n * 2^(n-1) terms, is why it is built on first use."""
        n = self.n
        body = [self.unpack_a]
        minor = {(): "1"} if n == 0 else {(j,): x for j, x in enumerate(self.a[-1])}
        for size in range(2, n + 1):
            row = self.a[n - size]
            for cols in combinations(range(n), size):
                terms = [f"M[{row[j]}][{minor[cols[:pos] + cols[pos + 1:]]}]"
                         for pos, j in enumerate(cols)]
                minor[cols] = "d" + "_".join(map(str, cols))
                body.append(f"{minor[cols]} = " + _sum(
                    f"N[{t}]" if pos % 2 else t for pos, t in enumerate(terms)))
        body.append(f"return {minor[tuple(range(n))]}")
        return _compile("det", "a", body, self.ring)


MAX_N = 10  # the det kernel of a 10 x 10 matrix has 5,120 product terms


@lru_cache(maxsize=None)
def _kernels(ring: MatRing, n: int) -> _Kernels:
    if n > MAX_N:
        raise WorkbenchError(f"{n}x{n} matrices are over budget: the kernels "
                             f"support n <= {MAX_N}")
    return _Kernels(ring, n)


_new = object.__new__


def _trusted(ring: MatRing, rows: tuple, kernels: _Kernels) -> "Mat":
    """A Mat whose rows are known to be square with entries in the ring."""
    m = _new(Mat)
    d = m.__dict__
    d["ring"], d["rows"], d["_k"] = ring, rows, kernels
    return m


@dataclass(frozen=True, eq=False)
class Mat:
    """An n x n matrix over a ring, n <= MAX_N; larger sizes raise
    WorkbenchError, since the det kernel grows as n * 2^(n-1)."""

    ring: MatRing
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")
        for r in self.rows:
            for x in r:
                # the kernels index the ring's tables with the entries
                if not (isinstance(x, int) and 0 <= x < self.ring.size):
                    raise ValueError(f"entry {x} outside {self.ring}")
        object.__setattr__(self, "_k", _kernels(self.ring, n))

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return self.rows == other.rows and (self.ring is other.ring
                                            or self.ring == other.ring)

    def __hash__(self):
        return hash(self.rows)

    @staticmethod
    def identity(ring: MatRing, n: int) -> "Mat":
        return _trusted(ring, tuple(tuple(ring.one if i == j else ring.zero
                                          for j in range(n)) for i in range(n)),
                        _kernels(ring, n))

    @staticmethod
    def transvection(ring: MatRing, n: int, i: int, j: int, c: int) -> "Mat":
        """I + c*e_ij with i != j; always invertible (det 1)."""
        if i == j:
            raise ValueError("transvection needs i != j")
        rows = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
        rows[i][j] = c
        return Mat(ring, tuple(tuple(r) for r in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "Mat") -> "Mat":
        k = self._k
        if other._k is not k:
            if self.ring is not other.ring and self.ring != other.ring:
                raise ValueError("ring mismatch")
            if self.n != other.n:
                raise ValueError(f"size mismatch: {self.n}x{self.n} times "
                                 f"{other.n}x{other.n}")
        return _trusted(self.ring, k.mul(self.rows, other.rows), k)

    def det(self) -> int:
        return self._k.det(self.rows)

    def adjugate(self) -> "Mat":
        R, n, rows = self.ring, self.n, self.rows
        if n == 1:
            return _trusted(R, ((R.one,),), self._k)
        det = _kernels(R, n - 1).det
        # entry (i, j) of the adjugate is the (j, i) cofactor
        cof = [[det(tuple(r[:j] + r[j + 1:] for r in rows[:i] + rows[i + 1:]))
                for j in range(n)] for i in range(n)]
        return _trusted(R, tuple(tuple(cof[j][i] if (i + j) % 2 == 0 else R.neg(cof[j][i])
                                       for j in range(n)) for i in range(n)), self._k)

    def inverse(self) -> "Mat":
        R = self.ring
        d = self.det()
        if not R.is_unit(d):
            raise WorkbenchError(f"matrix is singular over {R}: det = {d}")
        dinv = R.inv(d)
        adj = self.adjugate()
        return _trusted(R, tuple(tuple(R.mul(dinv, x) for x in row) for row in adj.rows),
                        self._k)

    def is_invertible(self) -> bool:
        return self.ring.is_unit(self.det())

    def identity_like(self) -> "Mat":
        return Mat.identity(self.ring, self.n)

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != len(self.rows):
            raise ValueError(f"cannot apply a {self.n}x{self.n} matrix to a "
                             f"vector of length {len(vec)}")
        return self._k.apply(self.rows, vec)

    @property
    def sort_key(self):
        return self.rows

    def __repr__(self) -> str:
        return f"Mat({self.ring}, {self.rows})"


def _invertible_matrices(ring: MatRing, n: int):
    """Every invertible n x n matrix over the ring, in lexicographic order of
    the row-major entry tuple."""
    k = _kernels(ring, n)
    det, units = k.det, set(ring.units())
    for rows in product(tuple(product(ring.elements, repeat=n)), repeat=n):
        if det(rows) in units:
            yield _trusted(ring, rows, k)
