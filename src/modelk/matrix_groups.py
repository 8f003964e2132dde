"""Linear and affine groups over small rings, all held on matrix codes (see
`matrices`), and their abelianization checks.

Every group here is generated by a short set: e_12 over an additive basis
of the ring, one signed n-cycle, and for GL one diagonal per generator of
the unit group.  E_n is listed as their closure (`groups.enumerate_group`)
when it is made.  GL_n, SL_n and Aff_n refuse an order over the cap from a
closed form in n and the ring's size before they build any generator, so
before the ring fills a table (see `rings`), and so do they and E_n when
those tables would hold more than cap entries: these checks guard every
caller, `catalogue.by_name` included.  They then build a stabilizer
chain of the generators for their action on column vectors
(`_column_action`, read by `groups.stabilizer_chain`, the routine that
permutation groups share) instead of listing them.  The product of its
orbit lengths, checked against the closed form when the group is made,
proves that the generators generate the whole group, and its Schreier
generators give the relators that `groups.abelianization` reduces.  Such
a group lists its elements, in the closure's order, only when a caller
first asks for them (see `groups._UnlistedGroup`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import attrgetter

from .errors import DEFAULT_CAP, CapExceededError, WorkbenchError
from .groups import (AbInvariants, FiniteGroup, PointAction, _UnlistedGroup,
                     abelianization, check_order, enumerate_group,
                     invariants_from_factors)
from .matrices import Mat, _trusted
from .rings import MatRing, UnitSumWitness, _prime_powers, unit_sum_witness


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


def _sl_generators(n: int, ring: MatRing) -> list[Mat]:
    """e_12(c) with c over an additive basis of the ring, and the signed
    n-cycle: generators of E_n (see `_elementary_generators`)."""
    return _elementary_generators(n, ring, _additive_basis(ring))


def gl_order(n: int, ring: MatRing) -> int:
    """|GL_n(R)|: gl_order_field over F_q, and over Z_m, by the Chinese
    remainder theorem, the product over p^k || m of |GL_n(Z/p^k)| =
    p^((k-1) n^2) |GL_n(F_p)|, since reduction mod p maps GL_n(Z/p^k) onto
    GL_n(F_p) with kernel I + p M_n(Z/p^k).  WorkbenchError for n < 1."""
    if n < 1:
        raise WorkbenchError("need n >= 1")
    if ring.kind == "gf":
        return gl_order_field(n, ring.size)
    return prod(p ** ((k - 1) * n * n) * gl_order_field(n, p)
                for p, k in _prime_powers(ring.size))


def _column_action(first: Mat) -> PointAction:
    """How n x n matrices like `first` act on column vectors, as
    `groups.stabilizer_chain` reads it: a matrix is held as its rows,
    images come from the `apply` kernel and products from `mul`, and the
    base is e_1, ..., e_n, whose images are a matrix's columns."""
    ring, kernels = first.ring, first._k

    def element(columns):
        rows = tuple(zip(*columns))
        return rows, _trusted(ring, rows, kernels).inverse().rows
    basis = Mat.identity(ring, first.n).rows  # row c is e_c
    return PointAction(attrgetter("rows"), basis, kernels.apply, kernels.mul, element)


def _check_tables(ring: MatRing, cap, name: str) -> None:
    """CapExceededError when the ring's q x q add and mul tables would hold
    more entries than the cap (None for no cap), before any is filled."""
    entries = ring.size ** 2
    if cap is not None and entries > cap:
        raise CapExceededError(
            f"{name} needs the {entries} entries of {ring}'s q^2 tables, cap is "
            f"{cap}; pass a larger cap= (--cap on the command line) to raise it")


def _closed_form_group(n: int, ring: MatRing, generators, dets, order: int, *,
                       name: str, cap) -> FiniteGroup:
    """The group that generators(), n x n matrices checked to have dets in
    dets(), generate inside a group of `order` matrices that holds them;
    its stabilizer chain's order, checked equal when the group is made,
    proves that it is that group.  CapExceededError before any generator is
    built or any table of the ring is read when `order`, or the q^2 entries
    of the ring's tables, are over the cap; WorkbenchError when a check
    fails.  The group lists its elements on first use (see
    `groups._UnlistedGroup`)."""
    check_order(order, cap, name)
    _check_tables(ring, cap, name)
    gens = generators() or [Mat.identity(ring, n)]
    dets = set(dets())
    if any(g.det() not in dets for g in gens):
        raise WorkbenchError(f"a generator of {name} has its det outside {sorted(dets)}")
    return _UnlistedGroup(gens, order, _column_action(gens[0]), name)


def gl_group(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """GL_n over the ring: the group generated by e_12(1), the signed
    n-cycle and one diagonal per generator of R^x (see `_gl_generators`),
    its chain checked to have `gl_order` elements."""
    return _closed_form_group(n, ring, lambda: _gl_generators(n, ring), ring.units,
                              gl_order(n, ring),
                              name=f"GL_{n}({ring})", cap=cap)


def special_linear(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """SL_n over the ring: the group generated by `_sl_generators`, checked
    to have det 1 and |GL_n| / |GL_1| = |GL_n| / |R^x| elements, which
    proves E_n = SL_n."""
    return _closed_form_group(n, ring, lambda: _sl_generators(n, ring),
                              lambda: [ring.one], gl_order(n, ring) // gl_order(1, ring),
                              name=f"SL_{n}({ring})", cap=cap)


def elementary_closure(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """The group generated by the transvections I + c*e_ij (i != j), closed
    from `_sl_generators`, which generate the same group.  CapExceededError
    before any generator is built when the ring's q^2 table entries are
    over the cap."""
    name = f"E_{n}({ring})"
    _check_tables(ring, cap, name)
    return enumerate_group(_sl_generators(n, ring) or [Mat.identity(ring, n)],
                           cap=cap, name=name)


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

    It is generated by `_gl_generators`, embedded as diag(A, I), and the
    translations e_(1, n+j)(1), j = 1..copies.  Conjugating by diag(A, I)
    takes column v of block j to A v; GL_n is transitive on the unimodular
    vectors, which span R^n, so the group holds every translation, hence
    is all of Aff.  Products keep the block form, so the group lies in
    Aff, and `_closed_form_group` confirms this by its order,
    |R|^(n copies) |GL_n| (see `gl_order`), refusing one over the cap before
    any generator is built.  No element of GL_n is listed.
    """
    if copies < 1:
        raise WorkbenchError("need at least one copy")

    def generators():
        size, tail = n + copies, (ring.zero,) * copies
        corner = Mat.identity(ring, size).rows[n:]
        return ([Mat(ring, tuple(row + tail for row in g.rows) + corner)
                 for g in _gl_generators(n, ring)]
                + [Mat.transvection(ring, size, 0, n + j, ring.one)
                   for j in range(copies)])
    return _closed_form_group(n + copies, ring, generators, ring.units,
                              ring.size ** (n * copies) * gl_order(n, ring),
                              name=f"Aff_{n}({ring})^{copies}", cap=cap)
