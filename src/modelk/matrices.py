"""Square matrices over a MatRing, with det and exact inverse from the
characteristic polynomial.

The public constructor `Mat(ring, rows)` validates its entries.  Products,
inverses and identities are valid by construction and skip that check.
Products and images of vectors run in straight-line functions generated once
per (ring, n), the way `dataclasses` generates `__init__`, that index the
ring's add and mul tables directly.  Det and inverse run one plain loop,
`_charpoly`, over the same tables.

Groups of matrices hold their elements (see `groups._keying`) as a private
integer form of a matrix, its code: the row-major entry tuple read as a
base-q numeral, q the ring's size, so that numeric order of codes is
lexicographic order of rows.  They close and build their tables on codes,
and decode Mats only when asked for their elements.  A row is a digit of the code in base Q = q^n.  Right
multiplication by a generator g maps each row on its own, so for g there is
a row-image table per row position i, taking a row code r to
code(r * g) * Q^(n-1-i), and code(x * g) is the sum of n lookups.  Where
q^n is small the tables are lists over every row; where it is large they
fill on first lookup, so a small group of large matrices computes only the
rows that occur, not all q^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import WorkbenchError
from .rings import MatRing


def _sum(terms) -> str:
    """Source text of the ring sum of terms, each a source text: n - 1
    lookups in the add table, paired off level by level so that they nest
    only ceil(log2 n) deep, which the compiler accepts for any n."""
    terms = list(terms)
    while len(terms) > 1:
        pairs = [f"A[{x}][{y}]" for x, y in zip(terms[::2], terms[1::2])]
        terms = pairs + terms[2 * len(pairs):]
    return terms[0]


def _dot(xs, ys) -> str:
    return _sum(f"M[{x}][{y}]" for x, y in zip(xs, ys))


def _tuple(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _compile(name: str, args: str, body: list[str], ring: MatRing, **names):
    source = f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
    namespace = {"A": ring._add, "M": ring._mul, **names}
    exec(source, namespace)
    return namespace[name]


# row spaces up to this size get their row-image tables in full, up front
_LISTED_ROWS = 1024


class _OnDemand(dict):
    """A dict that fills a missing key k with fill(k) on first lookup."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _charpoly(ring: MatRing, a) -> list[int]:
    """[1, c_1, ..., c_n] of det(tI - a), by Berkowitz's division-free
    recursion (Inf. Process. Lett. 18 (1984) 147-150), so it holds over Z_m
    as over F_q, in O(n^4) table lookups.  If p holds the coefficients for
    the leading k x k block B, and r, u and x are the rest of row k, column
    k and their corner, then the leading (k + 1) x (k + 1) block has
    p'_i = p_i - sum_(j<i) s_(i-1-j) p_j, with s = (x, r u, r B u, ...,
    r B^(k-1) u) and p_(k+1) = 0."""
    A, M, N = ring._add, ring._mul, ring._neg

    def dot(xs, ys):
        total = 0
        for x, y in zip(xs, ys):
            total = A[total][M[x][y]]
        return total
    p = [1]
    for k, row in enumerate(a):
        block = a[:k]  # zip cuts its rows, and row, to their first k entries
        u, s = [b[k] for b in block], [row[k]]
        for j in range(k):
            if j:  # u becomes B^j u
                u = [dot(b, u) for b in block]
            s.append(dot(row, u))
        p = [1] + [A[x][N[dot(s[i::-1], p)]] for i, x in enumerate(p[1:] + [0])]
    return p


class _Kernels:
    """Straight-line product and apply for n x n matrices over a ring, and
    the kernels on codes, each compiled on first use."""

    def __init__(self, ring: MatRing, n: int):
        self.ring, self.n = ring, n
        self.a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
        self.unpack_a = f"{_tuple(map(_tuple, self.a))} = a"

    @cached_property
    def mul(self):
        b = [[f"b{i}_{j}" for j in range(self.n)] for i in range(self.n)]
        rows = _tuple(_tuple(_dot(row, col) for col in zip(*b)) for row in self.a)
        return _compile("mul", "a, b", [self.unpack_a, f"{_tuple(map(_tuple, b))} = b",
                                        f"return {rows}"], self.ring)

    @cached_property
    def apply(self):
        v = [f"v{j}" for j in range(self.n)]
        entries = _tuple(_dot(row, v) for row in self.a)
        return _compile("apply", "a, v", [self.unpack_a, f"{_tuple(v)} = v",
                                          f"return {entries}"], self.ring)

    @cached_property
    def row_of(self) -> _OnDemand:
        """Row code -> row tuple."""
        q, n = self.ring.size, self.n

        def digits(r):
            row = [0] * n
            for j in range(n - 1, -1, -1):
                r, row[j] = divmod(r, q)
            return tuple(row)
        return _OnDemand(digits)

    @cached_property
    def row_code(self) -> _OnDemand:
        """Row tuple -> row code."""
        q = self.ring.size

        def code(row):
            r = 0
            for x in row:
                r = r * q + x
            return r
        return _OnDemand(code)

    def _digits(self) -> list[str]:
        """Source text of each row code of a matrix code c, top row first."""
        n, Q = self.n, self.ring.size ** self.n
        digits = []
        for i in range(n):
            d = "c" if i == n - 1 else f"c // {Q ** (n - 1 - i)}"
            digits.append(d if i == 0 else f"{d} % {Q}")
        return digits

    @cached_property
    def encode(self):
        """Rows of each matrix -> list of matrix codes."""
        n, Q = self.n, self.ring.size ** self.n
        r = [f"r{i}" for i in range(n)]
        code = " + ".join(f"E[{x}]" if i == n - 1 else f"E[{x}] * {Q ** (n - 1 - i)}"
                          for i, x in enumerate(r))
        return _compile("encode", "rows", [f"return [{code} for {_tuple(r)} in rows]"],
                        self.ring, E=self.row_code)

    @cached_property
    def decode(self):
        """Matrix codes -> list of the matrices' rows."""
        rows = _tuple(f"D[{d}]" for d in self._digits())
        return _compile("decode", "codes", [f"return [{rows} for c in codes]"],
                        self.ring, D=self.row_of)

    @cached_property
    def image(self):
        """(matrix codes, the row-image tables of g) -> codes of the
        products with g on the right."""
        tables = [f"T{i}" for i in range(self.n)]
        code = " + ".join(f"{t}[{d}]" for t, d in zip(tables, self._digits()))
        return _compile("image", "codes, " + ", ".join(tables),
                        [f"return [{code} for c in codes]"], self.ring)

    def row_images(self, g: "Mat") -> list:
        """Per row position i, the table r -> code(r * g) * Q^(n-1-i): a list
        over every row when Q <= _LISTED_ROWS, which CPython indexes faster
        than a dict subclass, and otherwise a dict that fills on first
        lookup."""
        n, Q = self.n, self.ring.size ** self.n
        columns = tuple(zip(*g.rows))
        apply, row_of, row_code = self.apply, self.row_of, self.row_code

        def image(r):
            return row_code[apply(columns, row_of[r])]
        if Q <= _LISTED_ROWS:
            last = [image(r) for r in range(Q)]
            return [[x * Q ** (n - 1 - i) for x in last]
                    for i in range(n - 1)] + [last]
        last = _OnDemand(image)
        return [_OnDemand(lambda r, scale=Q ** (n - 1 - i): last[r] * scale)
                for i in range(n - 1)] + [last]

    def code_keys(self):
        """Codes as the keys of `groups._keying`: (encode, step, decode),
        with encode taking Mats to codes and decode taking codes back to
        Mats, and step(g) imaging codes under right multiplication by g.  A
        g over another ring or of another size raises ValueError, as its
        product would."""
        ring, encode, decode, image = self.ring, self.encode, self.decode, self.image

        def step(g):
            if getattr(g, "_k", None) is not self:
                raise ValueError(f"cannot multiply {self.n}x{self.n} matrices "
                                 f"over {ring} by {g!r}")
            tables = self.row_images(g)
            return lambda codes: image(codes, *tables)
        return (lambda mats: encode([m.rows for m in mats]), step,
                lambda codes: [_trusted(ring, rows, self) for rows in decode(codes)])


_kernels = lru_cache(maxsize=None)(_Kernels)


_new = object.__new__


def _trusted(ring: MatRing, rows: tuple, kernels: _Kernels) -> "Mat":
    """A Mat whose rows are known to be square with entries in the ring."""
    m = _new(Mat)
    d = m.__dict__
    d["ring"], d["rows"], d["_k"] = ring, rows, kernels
    return m


@dataclass(frozen=True, eq=False)
class Mat:
    """An n x n matrix over a ring, of any size n; det and inverse come from
    its characteristic polynomial (see `_charpoly`)."""

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
        c = _charpoly(self.ring, self.rows)[-1]
        return self.ring._neg[c] if self.n % 2 else c

    def inverse(self) -> "Mat":
        """-c_n^-1 (a^(n-1) + c_1 a^(n-2) + ... + c_(n-1) I), by Cayley-Hamilton
        for [1, c_1, ..., c_n] = `_charpoly`, a column at a time by Horner's
        rule: column j is v_n, with v_1 = e_j and v_(i+1) = a v_i + c_i e_j,
        so it runs the `apply` kernel and never compiles the n^3 lookups of
        `mul`; WorkbenchError when the det, (-1)^n c_n, is not a unit."""
        R, n = self.ring, self.n
        p = _charpoly(R, self.rows)
        c, last = p[1:-1], p[-1]
        d = R._neg[last] if n % 2 else last
        if not R.is_unit(d):
            raise WorkbenchError(f"matrix is singular over {R}: det = {d}")
        A, apply, a = R._add, self._k.apply, self.rows
        scale = R._mul[R._neg[R.inv(last)]]
        columns = []
        for j, v in enumerate(Mat.identity(R, n).rows):
            for ci in c:
                v = list(apply(a, v))
                v[j] = A[v[j]][ci]
            columns.append([scale[x] for x in v])
        return _trusted(R, tuple(zip(*columns)), self._k)

    def is_invertible(self) -> bool:
        return self.ring.is_unit(self.det())

    def identity_like(self) -> "Mat":
        return Mat.identity(self.ring, self.n)

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != len(self.rows):
            raise ValueError(f"cannot apply a {self.n}x{self.n} matrix to a "
                             f"vector of length {len(vec)}")
        return self._k.apply(self.rows, vec)

    def __repr__(self) -> str:
        return f"Mat({self.ring}, {self.rows})"
