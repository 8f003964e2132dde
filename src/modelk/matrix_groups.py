"""General linear groups over small rings, and their abelianization checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .constructions import semidirect
from .errors import CapExceededError, WorkbenchError
from .groups import (DEFAULT_CAP, AbInvariants, FiniteGroup, GroupAction,
                     abelianization, enumerate_group, invariants_from_factors)
from .matrices import Mat, _kernels, _trusted
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


def _adjacent_transvections(n: int, ring: MatRing, coefficients) -> list[Mat]:
    """e_(i,i+1)(c) and e_(i+1,i)(c) for each c in `coefficients`.

    They reach every e_ij(c): e_ij(a) e_ij(b) = e_ij(a + b), and the
    commutator [e_ik(a), e_kj(b)] = e_ij(ab) for distinct i, k, j walks a
    transvection one position along a row or a column.
    """
    return [Mat.transvection(ring, n, i, j, c)
            for k in range(n - 1) for i, j in ((k, k + 1), (k + 1, k))
            for c in coefficients]


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
    """The adjacent transvections with c = 1 and diag(u, 1, ..., 1) for each
    u in `_unit_generators`.

    Over a field or Z_m they generate GL_n.  Over Z_m the transvections with
    c = 1 reach every e_ij(c), and these generate SL_n, since Z_m is
    semilocal.  Over F_(p^e) conjugating e_12(1) and e_21(1) by the powers of
    diag(u, 1, ..., 1) gives e_12(c) and e_21(c) for every c != 0, and so all
    of SL_n.  The diagonals then reach every det.
    """
    one = Mat.identity(ring, n).rows
    return (_adjacent_transvections(n, ring, [ring.one])
            + [Mat(ring, ((u,) + one[0][1:],) + one[1:])
               for u, _ in _unit_generators(ring)])


def _matrices_with_det(ring: MatRing, n: int, dets, *, name: str, cap) -> list[Mat]:
    """Every n x n matrix over the ring with its det in `dets`, a set of
    units, in lexicographic order of the row-major entry tuple.

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
    k = _kernels(ring, n)
    det = k.det
    elements = [_trusted(ring, rows, k)
                for rows in product(tuple(product(ring.elements, repeat=n)), repeat=n)
                if det(rows) in dets]
    if cap is not None and len(elements) > cap:
        raise CapExceededError(f"{name} has order {len(elements)}, cap is {cap}")
    if ring.kind == "gf":
        assert len(elements) == expected
    return elements


def gl_group(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """GL_n over the ring: every matrix with a unit determinant, in
    lexicographic order of the row-major entry tuple.  Its generators are
    the 2(n-1) adjacent transvections with c = 1 and one diagonal per
    generator of R^x (see `_gl_generators`)."""
    name = f"GL_{n}({ring})"
    return FiniteGroup(_matrices_with_det(ring, n, set(ring.units()), name=name, cap=cap),
                       mul, Mat.identity(ring, n), inv=lambda a: a.inverse(),
                       generators=_gl_generators(n, ring), name=name, cap=cap)


def special_linear(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """The matrices of det 1, in gl_group's order; the comparison oracle for
    closures.  Its generators are elementary_closure's: the adjacent
    transvections with c over an additive basis of the ring."""
    name = f"SL_{n}({ring})"
    gens = _adjacent_transvections(n, ring, _additive_basis(ring))
    return FiniteGroup(_matrices_with_det(ring, n, {ring.one}, name=name, cap=cap),
                       mul, Mat.identity(ring, n), inv=lambda a: a.inverse(),
                       generators=gens, name=name, cap=cap)


def elementary_closure(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """The group generated by the transvections I + c*e_ij (i != j), closed
    from the adjacent ones with c over an additive basis of the ring, which
    generate the same group (see `_adjacent_transvections`)."""
    if n == 1:
        return FiniteGroup([Mat.identity(ring, 1)], mul,
                           Mat.identity(ring, 1), inv=lambda a: a.inverse(),
                           name=f"E_1({ring})", cap=cap)
    return enumerate_group(_adjacent_transvections(n, ring, _additive_basis(ring)),
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

    def to_json(self) -> dict:
        return {
            "group": f"GL_{self.n}({self.ring})",
            "abelianization": list(self.ab.factors),
            "units": list(self.units_invariants.factors),
            "matches_units": self.matches_units,
            "commutator_is_sl": self.commutator_is_sl,
            "hypotheses_hold": self.hypotheses_hold,
            "known_exception": self.known_exception,
            "passed": self.passed,
        }


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


def module_group(ring: MatRing, length: int) -> FiniteGroup:
    """The additive group of ring^length on coordinate tuples.

    FiniteGroup picks its generators: over F_(p^e) with e > 1 the unit
    vectors alone do not generate it.
    """
    zero = (ring.zero,) * length

    def op(a, b):
        return tuple(ring.add(x, y) for x, y in zip(a, b))

    def inv(a):
        return tuple(ring.neg(x) for x in a)

    elements = list(product(ring.elements, repeat=length))
    return FiniteGroup(elements, op, zero, inv=inv,
                       name=f"({ring})^{length}", cap=max(DEFAULT_CAP, len(elements)))


def affine_group(n: int, ring: MatRing, copies: int = 1, *,
                 cap=DEFAULT_CAP) -> FiniteGroup:
    """GL_n acting diagonally on `copies` column blocks of ring^n."""
    if copies < 1:
        raise WorkbenchError("need at least one copy")
    G = gl_group(n, ring, cap=cap)
    V = module_group(ring, n * copies)

    def act(m: Mat, vec):
        out = []
        for c in range(copies):
            out.extend(m.apply(vec[c * n:(c + 1) * n]))
        return tuple(out)

    action = GroupAction(G, V, act, name=f"matrix action on {V.name}")
    return semidirect(action, name=f"Aff_{n}({ring})^{copies}", cap=cap)


def det_class(m: Mat) -> int:
    """Determinant as a unit of the coefficient ring; errors when singular."""
    d = m.det()
    if not m.ring.is_unit(d):
        raise WorkbenchError(f"matrix is singular over {m.ring}: det = {d}")
    return d
