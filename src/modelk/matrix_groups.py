"""Linear and affine groups over small rings, all held on matrix codes (see
`matrices`), and their abelianization checks.

`gl_group` and `special_linear` enumerate their elements by determinant, and
declare short generating sets: e_12 over an additive basis of the ring, one
signed n-cycle, and for GL one diagonal per generator of the unit group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from operator import mul

from .errors import CapExceededError, WorkbenchError
from .groups import (DEFAULT_CAP, AbInvariants, FiniteGroup, _keying, abelianization,
                     enumerate_group, invariants_from_factors)
from .matrices import MAX_N, Mat, _kernels
from .rings import MatRing, UnitSumWitness, _prime_powers, unit_sum_witness

# gl_group and special_linear search all n x n matrices over the ring for
# their dets; this limits that search, apart from the cap on the group's order
_CANDIDATE_LIMIT = 2 ** 21


def gl_order_field(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i); the counting oracle for fields."""
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def _signed_cycle(n: int, ring: MatRing) -> Mat:
    """C = w_12 w_23 ... w_(n-1)n, with w_ij = e_ij(1) e_ji(-1) e_ij(1): the
    signed permutation matrix with 1 at (1, n) and -1 at (i, i - 1) for
    1 < i <= n.  It has det 1, and lies in E_n as a product of
    transvections."""
    one, zero, minus_one = ring.one, ring.zero, ring.neg(ring.one)
    return Mat(ring, tuple(tuple(one if (i, j) == (0, n - 1) else
                                 minus_one if j == i - 1 else zero
                                 for j in range(n)) for i in range(n)))


def _elementary_generators(n: int, ring: MatRing, coefficients) -> list[Mat]:
    """e_12(c) for each c in `coefficients`, and the signed n-cycle C; none
    for n = 1.

    With coefficients that span the ring additively they generate E_n:
    e_12(a) e_12(b) = e_12(a + b) gives every e_12(c); conjugating e_12(c)
    by the powers of C reaches every e_(i,i+1)(c) and e_(n,1)(c), up to
    sign (for n = 2, conjugating by C = w_12 gives e_21(-c)); and for n >= 3
    the commutator [e_ik(a), e_kj(b)] = e_ij(ab) of distinct i, k, j walks
    these around the cycle 1 -> 2 -> ... -> n -> 1 to every e_ij(c).
    """
    if n < 2:
        return []
    return ([Mat.transvection(ring, n, 0, 1, c) for c in coefficients]
            + [_signed_cycle(n, ring)])


def _additive_basis(ring: MatRing) -> list[int]:
    """A basis of the ring's additive group: {1} over Z_m and F_p, and the
    digits 1, p, ..., p^(e-1), the powers of x, over F_(p^e)."""
    basis = [ring.one]
    while basis[-1] * ring.char < ring.size:
        basis.append(basis[-1] * ring.char)
    return basis


def _primitive(order: int, units, power) -> int:
    """The first of `units`, elements of a group of this order, that has
    exact order `order`, with power(u, e) = u^e."""
    primes = [p for p, _ in _prime_powers(order)]
    return next(u for u in units if all(power(u, order // p) != 1 for p in primes))


def _unit_generators(ring: MatRing) -> list[tuple[int, int]]:
    """Units u, each with its order, such that R^x is the direct product of
    the cyclic groups <u>, so that the orders give R^x's invariants.

    Over F_q it is one primitive element, of order q - 1.  Over Z_m, by the
    Chinese remainder theorem, R^x is the product over p^k || m of
    (Z/p^k)^x, each lifted to the unit that is 1 modulo m / p^k.  For odd p
    that factor is cyclic of order p^(k-1) (p-1), generated by a primitive
    root; for p = 2 it is generated by -1 (order 2, when k >= 2) and 5
    (order 2^(k-2), when k >= 3).
    """
    q = ring.size
    if ring.kind == "gf":
        if q == 2:
            return []

        def power(u, e):
            x = ring.one
            for _ in range(e):
                x = ring.mul(x, u)
            return x
        return [(_primitive(q - 1, range(2, q), power), q - 1)]
    gens = []
    for p, k in _prime_powers(q):
        pk = p ** k
        rest = q // pk
        if p == 2:
            local = [(pk - 1, 2)] * (k >= 2) + [(5, 2 ** (k - 2))] * (k >= 3)
        else:
            order = pk // p * (p - 1)
            local = [(_primitive(order, (u for u in range(2, pk) if u % p),
                                 lambda u, e: pow(u, e, pk)), order)]
        # the CRT lift: u mod p^k, 1 mod rest
        gens += [(u + pk * ((1 - u) * pow(pk, -1, rest) % rest), order)
                 for u, order in local]
    return gens


def _gl_generators(n: int, ring: MatRing) -> list[Mat]:
    """e_12(1), the signed n-cycle C and diag(u, 1, ..., 1) for each u in
    `_unit_generators`.

    Over a field or Z_m they generate GL_n.  Over Z_m and F_p, c = 1 spans
    the ring, so e_12(1) and C generate E_n (see `_elementary_generators`).
    Over F_(p^e), conjugating e_12(1) by the powers of diag(u, 1, ..., 1)
    gives e_12(u^k), and these span F_q, so the generators reach E_n there
    too.  E_n = SL_n over a field, and over Z_m, since Z_m is semilocal.
    The diagonals then reach every det.
    """
    one = Mat.identity(ring, n).rows
    return (_elementary_generators(n, ring, [ring.one])
            + [Mat(ring, ((u,) + one[0][1:],) + one[1:])
               for u, _ in _unit_generators(ring)])


def _codes_with_det(ring: MatRing, n: int, dets, *, name: str, cap) -> list[int]:
    """The code (see `matrices`) of every n x n matrix over the ring with its
    det in `dets`, a set of units, in increasing order, which is
    lexicographic order of the row-major entry tuple.

    Expanding along the last row, det(a) = sum_j c_j a_(n-1)j, where the
    signed cofactors c_j come from the (n-1) x (n-1) det kernel on the
    first n - 1 rows.  So for each (n-1)-row prefix, in row order, the last
    rows are those whose dot product with c lies in `dets`, read off a table
    of that linear form over all q^n rows, built once per distinct c.  No
    n x n det and no Mat is built per candidate.

    Over a field each unit is the det of |GL_n| / (q - 1) matrices, so an
    over-cap request fails before the scan.  CapExceededError names `name`.
    """
    if n < 1:
        raise WorkbenchError("need n >= 1")
    if ring.kind == "gf":
        expected = gl_order_field(n, ring.size) // (ring.size - 1) * len(dets)
        if cap is not None and expected > cap:
            raise CapExceededError(f"{name} has order {expected}, cap is {cap}")
    if ring.size ** (n * n) > _CANDIDATE_LIMIT:
        raise CapExceededError(
            f"{name} is searched for among {ring.size ** (n * n)} "
            f"candidate matrices, over the limit of 2^21 candidate matrices; "
            f"--cap does not raise this limit")
    add, times, neg = ring._add, ring._mul, ring._neg
    wanted = [x in dets for x in ring.elements]
    Q = ring.size ** n
    rows = list(range(Q))  # shared, so that the memo holds no copies

    def last_rows(c):
        values = times[c[0]]
        for x in c[1:]:
            products = times[x]
            values = [add[v][y] for v in values for y in products]
        return list(compress(rows, map(wanted.__getitem__, values)))

    if n == 1:
        def cofactors(prefix):
            return (ring.one,)
    else:
        # a det is unchanged by transposing, so the minor without column j
        # is the det of the other columns, read as rows
        minor, odd = _kernels(ring, n - 1).det, [(n - 1 + j) % 2 for j in range(n)]

        def cofactors(prefix):
            columns = tuple(zip(*prefix))
            minors = [minor(columns[:j] + columns[j + 1:]) for j in range(n)]
            return tuple([neg[d] if s else d for d, s in zip(minors, odd)])
    memo, codes = {}, []
    prefixes = product(tuple(product(ring.elements, repeat=n)), repeat=n - 1)
    for p, prefix in enumerate(prefixes):
        c = cofactors(prefix)
        last = memo.get(c)
        if last is None:
            last = memo[c] = last_rows(c)
        base = p * Q
        codes += [base + r for r in last]
    if cap is not None and len(codes) > cap:
        raise CapExceededError(f"{name} has order {len(codes)}, cap is {cap}")
    if ring.kind == "gf":
        assert len(codes) == expected
    return codes


def _sl_generators(n: int, ring: MatRing) -> list[Mat]:
    """e_12(c) with c over an additive basis of the ring, and the signed
    n-cycle: generators of E_n (see `_elementary_generators`)."""
    return _elementary_generators(n, ring, _additive_basis(ring))


def _linear_group(n: int, ring: MatRing, dets, generators, *, name: str,
                  cap) -> FiniteGroup:
    """The matrices with det in `dets`, held as codes in increasing order,
    with generators(n, ring) as generators."""
    codes = _codes_with_det(ring, n, dets, name=name, cap=cap)
    identity = Mat.identity(ring, n)
    return FiniteGroup._from_keys(codes, _keying(mul, identity, [identity]), mul,
                                  identity, inv=lambda a: a.inverse(),
                                  generators=generators(n, ring), name=name, cap=cap)


def gl_group(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """GL_n over the ring: every matrix with a unit determinant, in
    lexicographic order of the row-major entry tuple.  Its generators are
    e_12(1), the signed n-cycle and one diagonal per generator of R^x (see
    `_gl_generators`)."""
    return _linear_group(n, ring, set(ring.units()), _gl_generators,
                         name=f"GL_{n}({ring})", cap=cap)


def special_linear(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """The matrices of det 1, in gl_group's order; the comparison oracle for
    closures.  Its generators are elementary_closure's (`_sl_generators`)."""
    return _linear_group(n, ring, {ring.one}, _sl_generators,
                         name=f"SL_{n}({ring})", cap=cap)


def elementary_closure(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """The group generated by the transvections I + c*e_ij (i != j), closed
    from `_sl_generators`, which generate the same group."""
    return enumerate_group(_sl_generators(n, ring) or [Mat.identity(ring, n)],
                           cap=cap, name=f"E_{n}({ring})")


def _unit_group_invariants(ring: MatRing) -> AbInvariants:
    """R^x from the orders of `_unit_generators`: Z_(q-1) over F_q, and over
    Z_m the product over p^k || m of Z_(p^(k-1) (p-1)) for odd p and for
    p^k in {2, 4}, and Z_2 + Z_(2^(k-2)) for 2^k with k >= 3."""
    return invariants_from_factors(order for _, order in _unit_generators(ring))


# measured abelianizations that deliberately disagree with the unit-group
# pattern; GL_2(F_2) is symmetric on three points and abelianizes to Z_2
KNOWN_GL_AB_EXCEPTIONS = {
    (2, 2): (2,),
}


@dataclass
class GLAbReport:
    n: int
    ring: MatRing
    ab: AbInvariants
    units_invariants: AbInvariants
    matches_units: bool
    commutator_is_sl: bool
    hypotheses_hold: bool
    witness: UnitSumWitness
    known_exception: bool
    passed: bool


def check_gl_ab(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> GLAbReport:
    """Measure GL_n^ab against the determinant/unit-group prediction.

    The prediction applies for n >= 3, for n = 1 trivially, and for n = 2
    exactly when 1 is a sum of two units.  Cases outside those hypotheses are
    only compared against the recorded exception table, never asserted.
    """
    ab = abelianization(gl_group(n, ring, cap=cap))
    units_invariants = _unit_group_invariants(ring)
    # [G, G] lies in SL_n and det maps G onto R^x, so [G, G] = SL_n exactly
    # when |G| / |G^ab| = |SL_n| = |G| / |R^x|
    commutator_is_sl = ab.order == units_invariants.order
    witness = unit_sum_witness(ring)
    hypotheses_hold = n != 2 or witness.exists
    matches_units = ab.factors == units_invariants.factors
    key = (n, ring.size) if ring.kind == "gf" else None
    known_exception = key in KNOWN_GL_AB_EXCEPTIONS
    if hypotheses_hold:
        passed = matches_units and commutator_is_sl
    elif known_exception:
        passed = ab.factors == KNOWN_GL_AB_EXCEPTIONS[key]
    else:
        passed = True  # outside the hypotheses nothing is claimed
    return GLAbReport(n, ring, ab, units_invariants, matches_units,
                      commutator_is_sl, hypotheses_hold, witness,
                      known_exception, passed)


def affine_group(n: int, ring: MatRing, copies: int = 1, *,
                 cap=DEFAULT_CAP) -> FiniteGroup:
    """GL_n acting diagonally on `copies` column blocks of R^n, as the
    (n + copies)-square block matrices [[A, V], [0, I]], A in GL_n.

    It is closed from gl_group's generators, embedded as diag(A, I), and the
    translations e_(1, n+j)(1), j = 1..copies.  Conjugating by diag(A, I)
    takes column v of block j to A v; GL_n is transitive on the unimodular
    vectors, which span R^n, so the closure holds every translation, hence
    is all of Aff.  It lies in Aff, so its order, checked to be
    |R|^(n copies) |GL_n|, confirms this; WorkbenchError otherwise, and when
    n + copies > MAX_N, before anything is built.
    """
    if copies < 1:
        raise WorkbenchError("need at least one copy")
    name, size = f"Aff_{n}({ring})^{copies}", n + copies
    if size > MAX_N:
        raise WorkbenchError(f"{name} needs {size}x{size} matrices: n + copies = "
                             f"{n} + {copies} is over the limit of {MAX_N}")
    G = gl_group(n, ring, cap=cap)
    tail = (ring.zero,) * copies
    corner = Mat.identity(ring, size).rows[n:]
    gens = ([Mat(ring, tuple(row + tail for row in g.rows) + corner)
             for g in G.generators]
            + [Mat.transvection(ring, size, 0, n + j, ring.one) for j in range(copies)])
    A = enumerate_group(gens, cap=cap, name=name)
    order = ring.size ** (n * copies) * G.order
    if A.order != order:
        raise WorkbenchError(f"{name}'s generators reach {A.order} of {order} elements")
    return A


def det_class(m: Mat) -> int:
    """Determinant as a unit of the coefficient ring; errors when singular."""
    d = m.det()
    if not m.ring.is_unit(d):
        raise WorkbenchError(f"matrix is singular over {m.ring}: det = {d}")
    return d
