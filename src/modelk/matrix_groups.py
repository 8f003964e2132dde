"""General linear groups over small rings, and their abelianization checks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .constructions import semidirect
from .errors import CapExceededError, WorkbenchError
from .groups import (DEFAULT_CAP, AbInvariants, FiniteGroup, GroupAction,
                     abelianization, enumerate_group, invariants_from_factors)
from .matrices import Mat, _invertible_matrices
from .rings import MatRing, UnitSumWitness, unit_sum_witness

_CANDIDATE_LIMIT = 2 ** 21


def gl_order_field(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i); the counting oracle for fields."""
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def _designated_generators(n: int, ring: MatRing) -> list[Mat]:
    """Transvections with c = 1 and diag(u, 1, ..., 1) for each unit u != 1.

    Over a field or Z_m they generate GL_n: conjugating the transvections by
    the diagonals gives all of SL_n, and the diagonals reach every det.
    """
    one = Mat.identity(ring, n).rows
    return ([Mat.transvection(ring, n, i, j, ring.one)
             for i in range(n) for j in range(n) if i != j]
            + [Mat(ring, ((u,) + one[0][1:],) + one[1:])
               for u in ring.units() if u != ring.one])


def gl_group(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """GL_n over the ring: every matrix with a unit determinant.

    Element order is lexicographic in the row-major entry tuple.  For fields
    the order formula is checked before enumeration so that an over-cap
    request fails fast.
    """
    if n < 1:
        raise WorkbenchError("need n >= 1")
    if ring.kind == "gf":
        expected = gl_order_field(n, ring.size)
        if cap is not None and expected > cap:
            raise CapExceededError(
                f"GL_{n}({ring}) has order {expected}, cap is {cap}")
    if ring.size ** (n * n) > _CANDIDATE_LIMIT:
        raise CapExceededError(
            f"enumerating {ring.size ** (n * n)} candidate matrices is over budget")
    elements = list(_invertible_matrices(ring, n))
    if cap is not None and len(elements) > cap:
        raise CapExceededError(f"GL_{n}({ring}) has order {len(elements)}, cap is {cap}")
    if ring.kind == "gf":
        assert len(elements) == expected
    return FiniteGroup(elements, mul, Mat.identity(ring, n),
                       inv=lambda a: a.inverse(),
                       generators=_designated_generators(n, ring),
                       name=f"GL_{n}({ring})", cap=cap)


def special_linear(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """Kernel of det inside gl_group; the comparison oracle for closures."""
    G = gl_group(n, ring, cap=cap)
    kernel = [m for m in G.elements if m.det() == ring.one]
    gens = [Mat.transvection(ring, n, i, j, c)
            for i in range(n) for j in range(n) if i != j
            for c in range(1, ring.size)]
    return FiniteGroup(kernel, G.op, G.identity, inv=G.inv, generators=gens,
                       name=f"SL_{n}({ring})", cap=cap)


def elementary_closure(n: int, ring: MatRing, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """Closure of the transvections I + c*e_ij (i != j, c nonzero)."""
    if n == 1:
        return FiniteGroup([Mat.identity(ring, 1)], mul,
                           Mat.identity(ring, 1), inv=lambda a: a.inverse(),
                           name=f"E_1({ring})", cap=cap)
    gens = [Mat.transvection(ring, n, i, j, c)
            for i in range(n) for j in range(n) if i != j
            for c in range(1, ring.size)]
    return enumerate_group(gens, cap=cap, name=f"E_{n}({ring})")


def _unit_group_invariants(ring: MatRing) -> AbInvariants:
    """R^x from its closed form: Z_(q-1) over F_q.  Over Z_m it is, by the
    Chinese remainder theorem, the product over p^k || m of (Z/p^k)^x, which
    is Z_(p^(k-1) (p-1)) for odd p and for p^k in {2, 4}, and
    Z_2 + Z_(2^(k-2)) for 2^k with k >= 3."""
    if ring.kind == "gf":
        return invariants_from_factors([ring.size - 1])
    orders, rest = [], ring.size
    for p in range(2, ring.size + 1):
        k = 0
        while rest % p == 0:
            rest, k = rest // p, k + 1
        if k:
            orders += [2, 2 ** (k - 2)] if p == 2 and k >= 3 else [p ** (k - 1) * (p - 1)]
    return invariants_from_factors(orders)


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
