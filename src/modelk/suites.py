"""Seeded case generators and the named verification suites.

Every generator takes an explicit random.Random so runs are reproducible
from a seed.  The named suites bundle the standing invariants into
VerificationReports for the command line and the test suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import mul

from .automorphisms import AffineMap, PAMap
from .catalogue import by_name, cyclic
from .constructions import (check_semidirect_ab, check_wreath_ab,
                            index_permutation_action, lift_permutation,
                            lifts_are_even, symmetric_group)
from .cosets import AffineCoset, LinearSystem
from .defsets import And, Not, Or, make_block
from .errors import DEFAULT_CAP, WorkbenchError
from .groups import FiniteGroup, GroupAction, abelianization
from .matrix_groups import (affine_group, check_gl_ab, elementary_closure,
                            gl_group, gl_order)
from .perms import Perm
from .report import VerificationReport
from .rings import GF
from .symbolic import RingDescriptor, truncation_consistency

_MAX_SEMIDIRECT = 2000


# ---------------------------------------------------------------------------
# random semidirect actions

def _inversion_action(rng: random.Random) -> GroupAction:
    n = rng.choice([3, 4, 5, 6, 7, 8, 9, 10, 12])
    H, K = cyclic(n), cyclic(2)
    act = lambda k, h: h if k == 0 else (-h) % n
    return GroupAction(K, H, act, name=f"negation of Z_{n}")


def _unit_mult_action(rng: random.Random) -> GroupAction:
    while True:
        n = rng.choice([5, 7, 8, 9, 11, 13, 15, 16])
        units = [u for u in range(2, n) if gcd(u, n) == 1]
        if units:
            break
    u = rng.choice(units)
    o = len({pow(u, k, n) for k in range(n)})  # the order of u mod n
    H, K = cyclic(n), cyclic(o)
    act = lambda k, h: h * pow(u, k, n) % n
    return GroupAction(K, H, act, name=f"multiplication by {u} on Z_{n}")


def _coordinate_perm_action(rng: random.Random) -> GroupAction:
    k = rng.choice([2, 3])
    base_order = rng.choice([2, 3, 4, 5, 6] if k == 2 else [2, 3, 4])
    K = cyclic(base_order)
    action = index_permutation_action(K, k, symmetric_group(k))
    return action


def _factor_swap_action(rng: random.Random) -> GroupAction:
    base = by_name(rng.choice(["sym:3", "dihedral:8", "q8", "dihedral:10"]))
    swap = FiniteGroup([Perm.identity(2), Perm.transposition(2, 0, 1)],
                       mul, Perm.identity(2),
                       generators=[Perm.transposition(2, 0, 1)], name="swap")
    return index_permutation_action(base, 2, swap)


def _trivial_action(rng: random.Random) -> GroupAction:
    H = by_name(rng.choice(["cyclic:6", "sym:3", "dihedral:8", "klein"]))
    K = by_name(rng.choice(["cyclic:2", "cyclic:3", "sym:3"]))
    return GroupAction(K, H, lambda k, h: h,
                       name=f"trivial action on {H.name}")


def _conjugation_action(rng: random.Random) -> GroupAction:
    H = by_name(rng.choice(["sym:3", "dihedral:8", "q8", "sym:4",
                            "dihedral:12", "sl2:3"]))
    g = rng.choice(H.elements)
    o = H.element_order(g)
    K = cyclic(o)
    powers = [H.identity]
    for _ in range(o - 1):
        powers.append(H.op(powers[-1], g))
    act = lambda k, h: H.op(H.op(powers[k], h), H.inv(powers[k]))
    return GroupAction(K, H, act, name=f"conjugation on {H.name}")


_ACTION_FAMILIES = (
    _inversion_action,
    _unit_mult_action,
    _coordinate_perm_action,
    _factor_swap_action,
    _trivial_action,
    _conjugation_action,
)


def random_semidirect_action(rng: random.Random) -> GroupAction:
    """A random member of the action catalogue with |H| * |K| <= 2000."""
    while True:
        family = rng.choice(_ACTION_FAMILIES)
        action = family(rng)
        if action.target.order * action.acting.order <= _MAX_SEMIDIRECT:
            return action


# ---------------------------------------------------------------------------
# random linear-system expressions (integer data, for counting bridges)

def _random_system(rng: random.Random, ambient: int) -> LinearSystem:
    bound = rng.choice([0, 0, 0, 1])
    width = ambient + bound
    rows = []
    for _ in range(rng.randint(1, 2)):
        row = [rng.randint(-3, 3) for _ in range(width)]
        row.append(rng.randint(-3, 3))
        rows.append(row)
    return LinearSystem(ambient, bound, rows)


def random_expression(rng: random.Random, ambient: int, depth: int = 2):
    """A random boolean tree over integer linear systems."""
    if depth <= 0 or rng.random() < 0.4:
        return _random_system(rng, ambient)
    shape = rng.choice(["not", "and", "or"])
    if shape == "not":
        return Not(random_expression(rng, ambient, depth - 1))
    left = random_expression(rng, ambient, depth - 1)
    right = random_expression(rng, ambient, depth - 1)
    return And(left, right) if shape == "and" else Or(left, right)


# ---------------------------------------------------------------------------
# random points, cosets, and piecewise-affine maps

def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2]))


def random_point(rng: random.Random, ambient: int) -> tuple:
    return tuple(_random_fraction(rng) for _ in range(ambient))


def random_coset(rng: random.Random, ambient: int) -> AffineCoset:
    """A random nonempty coset: full space, point, or k-equation solution set."""
    kind = rng.randint(0, ambient)
    if kind == 0:
        return AffineCoset.full(ambient)
    if kind == ambient:
        return AffineCoset.single_point(random_point(rng, ambient))
    point = random_point(rng, ambient)
    rows = []
    for _ in range(kind):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(ambient)]
        rhs = sum(c * x for c, x in zip(coeffs, point))
        rows.append(coeffs + [rhs])
    return AffineCoset.from_rows(ambient, rows)


def _random_invertible(rng: random.Random, ambient: int) -> list[list[Fraction]]:
    from .linalg import rank

    while True:
        rows = [[_random_fraction(rng) for _ in range(ambient)]
                for _ in range(ambient)]
        if rank(rows) == ambient:
            return rows


def random_affine_map(rng: random.Random, ambient: int) -> AffineMap:
    return AffineMap.make(_random_invertible(rng, ambient),
                          list(random_point(rng, ambient)))


def _swap_points(ambient: int, a: tuple, b: tuple) -> PAMap:
    full = AffineCoset.full(ambient)
    pa, pb = AffineCoset.single_point(a), AffineCoset.single_point(b)
    shift = AffineMap.translation([y - x for x, y in zip(a, b)])
    return PAMap(ambient, [
        (make_block(full, [pa, pb]), AffineMap.identity(ambient)),
        (make_block(pa), shift),
        (make_block(pb), shift.inverse()),
    ])


def random_pamap(rng: random.Random, ambient: int, depth: int = 1) -> PAMap:
    """Families: global affine maps, translations, finite swaps, an affine
    map patched by a swap, hyperplane-supported maps, and compositions."""
    kinds = ["affine", "translation", "swap", "patched"]
    if ambient >= 2:
        kinds.append("hyperplane")
    if depth > 0:
        kinds.append("compose")
    kind = rng.choice(kinds)
    if kind == "affine":
        return PAMap.from_affine(random_affine_map(rng, ambient))
    if kind == "translation":
        return PAMap.from_affine(
            AffineMap.translation(list(random_point(rng, ambient))))
    if kind == "swap":
        a = random_point(rng, ambient)
        b = random_point(rng, ambient)
        if a == b:
            b = tuple(x + 1 for x in b)
        return _swap_points(ambient, a, b)
    if kind == "patched":
        g = random_affine_map(rng, ambient)
        p = random_point(rng, ambient)
        q = random_point(rng, ambient)
        if p == q:
            q = tuple(x + 2 for x in q)
        swap = _swap_points(ambient, p, q)
        return swap.compose(PAMap.from_affine(g))
    if kind == "hyperplane":
        coeffs = [Fraction(0)] * ambient
        axis = rng.randrange(ambient)
        coeffs[axis] = Fraction(1)
        level = _random_fraction(rng)
        plane = AffineCoset.from_rows(ambient, [coeffs + [level]])
        shift = [Fraction(0)] * ambient
        shift[(axis + 1) % ambient] = Fraction(rng.randint(1, 3))
        full = AffineCoset.full(ambient)
        return PAMap(ambient, [
            (make_block(full, [plane]), AffineMap.identity(ambient)),
            (make_block(plane), AffineMap.translation(shift)),
        ])
    outer = random_pamap(rng, ambient, depth - 1)
    inner = random_pamap(rng, ambient, depth - 1)
    return outer.compose(inner)


# ---------------------------------------------------------------------------
# named suites

def _suite_semiab(seed: int, cases: int, cap: int) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport(f"semidirect abelianization suite (seed {seed})")
    for i in range(cases):
        action = random_semidirect_action(rng)
        size = action.target.order * action.acting.order
        report.add_report(f"case {i + 1}: {action.name} (order {size})",
                          check_semidirect_ab(action, cap=cap))
    return report


def _suite_wreath(seed: int, cases: int, cap: int) -> VerificationReport:
    report = VerificationReport("wreath abelianization suite")
    bases = [("cyclic:2", "Z_2"), ("cyclic:3", "Z_3"),
             ("cyclic:4", "Z_4"), ("sym:3", "Sym(3)")]
    for spec, label in bases:
        for k in (2, 3):
            report.add_report(f"{label} wr Sym({k})",
                              check_wreath_ab(by_name(spec, cap), k, cap=cap))
    return report


def _suite_perm(seed: int, cases: int, cap: int) -> VerificationReport:
    from math import factorial

    from .constructions import alternating_elements

    report = VerificationReport("symmetric group suite")
    for k in range(2, 7):
        G = symmetric_group(k, cap=cap)
        report.add(f"order of Sym({k})", G.order == factorial(k),
                   f"got {G.order}")
        ab = abelianization(G).factors
        report.add(f"abelianization of Sym({k})", ab == (2,), f"got {ab}")
        even = alternating_elements(k)
        report.add(f"even half of Sym({k})", len(even) * 2 == G.order,
                   f"{len(even)} even of {G.order}")
    return report


def _suite_gl(seed: int, cases: int, cap: int) -> VerificationReport:
    report = VerificationReport("general linear abelianization suite")
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        sub = check_gl_ab(n, GF(q), cap=cap)
        label = f"GL_{n}(F_{q})"
        if sub.known_exception and not sub.hypotheses_hold:
            label += " (recorded exception)"
        report.add(label, sub.passed,
                   f"ab {sub.ab.factors}, units {sub.units_invariants.factors}")
    for n, q in ((1, 5), (2, 2), (2, 3)):
        aff = abelianization(affine_group(n, GF(q), cap=cap)).factors
        gl = abelianization(gl_group(n, GF(q), cap=cap)).factors
        report.add(f"Aff_{n}(F_{q}) abelianizes like GL_{n}(F_{q})",
                   aff == gl, f"affine {aff}, linear {gl}")
    return report


def _suite_ed(seed: int, cases: int, cap: int) -> VerificationReport:
    """E_n lies in SL_n when its generators have det 1, and then equals it
    when |E_n| is the closed form |SL_n| = |GL_n| / |R^x|."""
    report = VerificationReport("elementary generation suite")
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        ring = GF(q)
        elem = elementary_closure(n, ring, cap=cap)
        sl = gl_order(n, ring) // (q - 1)
        ok = elem.order == sl and all(g.det() == ring.one for g in elem.generators)
        report.add(f"elementary matrices generate SL_{n}(F_{q})", ok,
                   f"|E| = {elem.order}, |SL| = {sl}")
    return report


def _suite_lift(seed: int, cases: int, cap: int) -> VerificationReport:
    report = VerificationReport("index-lifting suite")
    # the fixed n=2, m=4 table
    expected = {
        Perm((0, 1)): Perm((0, 1, 2, 3)),
        Perm((1, 0)): Perm((1, 0, 3, 2)),
    }
    for sigma, want in expected.items():
        got = lift_permutation(2, 4, sigma)
        report.add(f"lift of {sigma} from 2 to 4", got == want,
                   f"got {got}, want {want}")
    for n in (1, 2, 3, 4):
        for m in range(n, 13, n):
            sigmas = symmetric_group(n, cap=cap).elements
            hom = all(
                lift_permutation(n, m, a) * lift_permutation(n, m, b)
                == lift_permutation(n, m, a * b)
                for a in sigmas for b in sigmas)
            report.add(f"lifting Sym({n}) into Sym({m}) is a homomorphism",
                       hom, "")
            if lifts_are_even(n, m):
                parity = all(lift_permutation(n, m, s).is_even()
                             for s in sigmas)
                detail = "all lifts even"
            else:
                parity = all(lift_permutation(n, m, s).is_even() == s.is_even()
                             for s in sigmas)
                detail = "lift parity follows the base parity"
            report.add(f"lift parity for n={n}, m={m}", parity, detail)
    return report


def _suite_truncation(seed: int, cases: int, cap: int) -> VerificationReport:
    report = VerificationReport("truncation consistency suite")
    for q, n in ((3, 1), (3, 2), (4, 2), (5, 2)):
        report.add_report(f"F_{q} levels up to {n}", truncation_consistency(
            RingDescriptor.finite_field(q), n, cap=cap))
    flagged = truncation_consistency(RingDescriptor.finite_field(2), 1,
                                     cap=cap)
    report.add("F_2 inconsistency is flagged", not flagged.passed,
               "the level-1 affine group keeps its translation part")
    return report


_SUITES = {
    "semiab": (_suite_semiab, 30),
    "wreath": (_suite_wreath, 0),
    "perm": (_suite_perm, 0),
    "gl": (_suite_gl, 0),
    "ed": (_suite_ed, 0),
    "lift": (_suite_lift, 0),
    "truncation": (_suite_truncation, 0),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(name: str, *, seed: int = 0, cases: int | None = None,
              cap: int = DEFAULT_CAP) -> VerificationReport:
    if name not in _SUITES:
        raise WorkbenchError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if cases is not None and cases < 1:
        raise WorkbenchError(f"need at least one case, not {cases}")
    fn, default_cases = _SUITES[name]
    return fn(seed, cases if cases is not None else default_cases, cap)
