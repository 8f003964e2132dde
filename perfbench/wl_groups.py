"""`groups`: abelianization across the finite-group layers.

Almost all the time goes to enumeration, the derived subgroup and invariant
factors.  The catalogue part is fixed: GL_n(F_q) (abelianized and checked),
affine groups, GL_2(Z_4), elementary closures against SL_n, symmetric groups,
wreath products and truncation consistency.  Semidirect products come from
six action families, every family member once per round, all with
|H|*|K| <= 2000; the seed picks their parameters.  Orders fall on both sides
of the 200-element all-pairs commutator path, from many small groups up to
GL_3(F_3) at 11232.  No geometry runs here.

References are closed forms and hand-written tables, never modelk output.
"""

from __future__ import annotations

import random
from math import gcd, prod

from harness import Op

PAIRWISE_ORDER = 200  # the all-pairs commutator side of abelianization

GL_FIELDS = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3))
AFFINE = {(1, 5): (4,), (2, 2): (2,), (2, 3): (2,)}
# checked with every element as a generator
GL2_ZMOD = {4: (2, 2), 6: (2, 2), 8: (2, 2, 2), 9: (6,)}
GL2_ZMOD_ORDER = {4: 96, 6: 288, 8: 1536, 9: 3888}
# GL_2(Z_6), GL_2(Z_8) and GL_2(Z_9) are abelianized wrongly: gl_group gives
# only transvections as generators, which span SL_2, and the normal-closure
# path trusts them.  They run in the untimed known-defect probe instead.
GL2_ZMOD_PASSING = (4,)
GL2_ZMOD_DEFECTS = (6, 8, 9)
WREATH_BASES = ("Z_2", "Z_3", "Z_4", "Sym(3)")
TRUNCATION = ((3, 1), (3, 2), (4, 2), (5, 2))

# name -> (order, abelianization) of the small groups the families use
SMALL = {
    "Z_2": (2, (2,)), "Z_3": (3, (3,)), "Z_4": (4, (4,)), "Z_5": (5, (5,)),
    "Z_6": (6, (6,)), "Z_12": (12, (12,)), "Klein": (4, (2, 2)),
    "Sym(3)": (6, (2,)), "Sym(4)": (24, (2,)), "Sym(5)": (120, (2,)),
    "D_8": (8, (2, 2)), "D_10": (10, (2,)), "D_12": (12, (2, 2)),
    "Q_8": (8, (2, 2)), "SL_2(F_3)": (24, (3,)),
}
# element orders available for conjugation, by group
CONJ_ORDERS = {"Sym(3)": (2, 3), "D_8": (2, 4), "Q_8": (4,),
               "Sym(4)": (2, 3, 4), "D_12": (2, 6), "SL_2(F_3)": (3, 4, 6),
               "Sym(5)": (2, 3, 4, 5, 6)}


def invariants(orders):
    """Invariant factors of a direct sum of cyclic groups of these orders."""
    primary = {}
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                primary.setdefault(p, []).append(q)
            p += 1
    depth = max((len(v) for v in primary.values()), default=0)
    chain = []
    for i in range(depth):
        chain.append(prod(sorted(v, reverse=True)[i]
                          for v in primary.values() if i < len(v)))
    return tuple(reversed(chain))


def gl_order(n, q):
    return prod(q ** n - q ** i for i in range(n))


def gl_ab(n, q):
    if (n, q) == (2, 2):
        return (2,)  # GL_2(F_2) is Sym(3)
    return invariants([q - 1])


# ---------------------------------------------------------------------------
# layers


def _ab_counter(counts, args, result):
    order = args[0].order
    counts["groups.abelianization_calls"] += 1
    counts["groups.elements"] += order
    counts["groups.pairwise"] += order <= PAIRWISE_ORDER


def _build_counter(counts, args, result):
    if result is not None:
        counts["matrix_groups.elements"] += result.order


def layer_table():
    from modelk import constructions, groups, matrix_groups, symbolic

    build = "matrix_groups.build"
    return {
        "gl_group": (build, matrix_groups.gl_group, _build_counter),
        "special_linear": (build, matrix_groups.special_linear, _build_counter),
        "affine_group": (build, matrix_groups.affine_group, _build_counter),
        "elementary_closure": (build, matrix_groups.elementary_closure,
                               _build_counter),
        "check_gl_ab": ("matrix_groups.check_gl_ab", matrix_groups.check_gl_ab,
                        None),
        "abelianization": ("groups.abelianization", groups.abelianization,
                           _ab_counter),
        "symmetric_group": ("constructions.build", constructions.symmetric_group,
                            None),
        "index_permutation_action": ("constructions.build",
                                     constructions.index_permutation_action,
                                     None),
        "semidirect": ("constructions.build", constructions.semidirect, None),
        "wreath": ("constructions.build", constructions.wreath, None),
        "check_semidirect_ab": ("constructions.check_semidirect_ab",
                                constructions.check_semidirect_ab, None),
        "check_wreath_ab": ("constructions.check_wreath_ab",
                            constructions.check_wreath_ab, None),
        "truncation_consistency": ("symbolic.truncation_consistency",
                                   symbolic.truncation_consistency, None),
    }


# ---------------------------------------------------------------------------
# inputs


def _small_group(L, name):
    from modelk import catalogue
    from modelk.rings import GF

    head, _, arg = name.partition("_")
    if name == "Klein":
        return catalogue.klein_four()
    if name == "Q_8":
        return catalogue.quaternion8()
    if name == "SL_2(F_3)":
        return L.elementary_closure(2, GF(3))
    if name.startswith("Sym("):
        return L.symmetric_group(int(name[4:-1]))
    if head == "Z":
        return catalogue.cyclic(int(arg))
    return catalogue.dihedral(int(arg))


def _element_of_order(H, o, pick):
    """The pick-th element of order o in H's enumeration order, cyclically."""
    candidates = [g for g in H.elements if H.element_order(g) == o]
    return candidates[pick % len(candidates)]


def _action(L, spec):
    """Build the GroupAction for a semidirect spec through the public API."""
    from modelk import catalogue
    from modelk.groups import GroupAction

    kind = spec[0]
    if kind == "inversion":
        n = spec[1]
        return GroupAction(catalogue.cyclic(2), catalogue.cyclic(n),
                           lambda k, h: h if k == 0 else (-h) % n)
    if kind == "unit":
        n, u, o = spec[1:]
        return GroupAction(catalogue.cyclic(o), catalogue.cyclic(n),
                           lambda k, h: h * pow(u, k, n) % n)
    if kind == "coords":
        b, k = spec[1:]
        return L.index_permutation_action(catalogue.cyclic(b), k,
                                          L.symmetric_group(k))
    if kind == "swap":
        return L.index_permutation_action(_small_group(L, spec[1]), 2,
                                          L.symmetric_group(2))
    if kind == "trivial":
        H, K = _small_group(L, spec[1]), _small_group(L, spec[2])
        return GroupAction(K, H, lambda k, h: h)
    H, o, pick = _small_group(L, spec[1]), spec[2], spec[3]
    g = _element_of_order(H, o, pick)
    powers = [H.identity]
    for _ in range(o - 1):
        powers.append(H.op(powers[-1], g))
    return GroupAction(catalogue.cyclic(o), H,
                       lambda k, h: H.op(H.op(powers[k], h), H.inv(powers[k])))


def _semidirect_order_and_ab(spec):
    kind = spec[0]
    if kind == "inversion":
        n = spec[1]
        return 2 * n, invariants([2, gcd(2, n)])
    if kind == "unit":
        n, u, o = spec[1:]
        return n * o, invariants([o, gcd(n, u - 1)])
    if kind == "coords":
        b, k = spec[1:]
        return b ** k * prod(range(1, k + 1)), invariants([b, 2])
    if kind == "swap":
        order, ab = SMALL[spec[1]]
        return 2 * order * order, invariants(ab + (2,))
    if kind == "trivial":
        (oh, ah), (ok, ak) = SMALL[spec[1]], SMALL[spec[2]]
        return oh * ok, invariants(ah + ak)
    order, ab = SMALL[spec[1]]
    return order * spec[2], invariants(ab + (spec[2],))  # H x Z_o


def _unit_order(u, n):
    o, x = 1, u % n
    while x != 1:
        x, o = x * u % n, o + 1
    return o


def _unit_family(rng):
    """One product Z_n x| Z_o per (n, o); the seed picks a unit u of order o,
    which sets the action but not the group's size."""
    by_class = {}
    for n in (5, 7, 8, 9, 11, 13, 15, 16):
        for u in range(2, n):
            if gcd(u, n) == 1:
                by_class.setdefault((n, _unit_order(u, n)), []).append(u)
    return [("unit", n, rng.choice(us), o) for (n, o), us in by_class.items()]


def _families(rng):
    """The semidirect specs of one round.  Every family member appears once,
    so a round costs about the same for every seed; the seed picks the
    inversion moduli, the units and the conjugating elements."""
    return [
        [("inversion", rng.randrange(3, 17)) for _ in range(4)],
        _unit_family(rng),
        [("coords", b, 2) for b in (2, 3, 4, 5, 6)]
        + [("coords", b, 3) for b in (2, 3, 4, 5)],
        [("swap", b) for b in ("Z_3", "Z_4", "Klein", "Sym(3)", "D_8")],
        [("trivial", h, k)
         for h in ("Z_6", "Sym(3)", "D_8", "Klein", "Sym(4)", "D_12")
         for k in ("Z_2", "Z_3", "Sym(3)", "Z_12")],
        [("conj", h, o, rng.randrange(1000))
         for h, orders in CONJ_ORDERS.items() for o in orders],
    ]


def _semidirect_ops(rng):
    """Alternate members are abelianized against the closed form and run
    through check_semidirect_ab."""
    ops = []
    for family in _families(rng):
        for i, spec in enumerate(family):
            order, ab = _semidirect_order_and_ab(spec)
            label = " ".join(str(x) for x in spec)
            if i % 2 == 0:
                ops.append(Op(f"abelianization semidirect {label}", "groups",
                              lambda L, s=spec: L.abelianization(
                                  L.semidirect(_action(L, s))).factors,
                              lambda ab=ab: ab, {"ab_order": order}))
            else:
                ops.append(Op(f"check_semidirect_ab {label}", "constructions",
                              lambda L, s=spec: L.check_semidirect_ab(
                                  _action(L, s)).passed,
                              lambda: True))
    return ops


def _gl2_zmod_ops(moduli):
    from modelk.rings import Zmod

    return [Op(f"abelianization GL_2(Z_{m})", "groups",
               lambda L, m=m: L.abelianization(L.gl_group(2, Zmod(m))).factors,
               lambda m=m: GL2_ZMOD[m], {"ab_order": GL2_ZMOD_ORDER[m]})
            for m in moduli]


def _catalogue_ops():
    from modelk.rings import GF
    from modelk.symbolic import RingDescriptor

    ops = _gl2_zmod_ops(GL2_ZMOD_PASSING)
    for n, q in GL_FIELDS:
        order = gl_order(n, q)
        ops.append(Op(f"abelianization GL_{n}(F_{q})", "groups",
                      lambda L, n=n, q=q: L.abelianization(
                          L.gl_group(n, GF(q))).factors,
                      lambda n=n, q=q: gl_ab(n, q), {"ab_order": order}))

        def check_gl(L, n=n, q=q):
            report = L.check_gl_ab(n, GF(q))
            return report.passed, report.ab.factors
        ops.append(Op(f"check_gl_ab GL_{n}(F_{q})", "matrix_groups", check_gl,
                      lambda n=n, q=q: (True, gl_ab(n, q))))

        def elementary(L, n=n, q=q):
            E = L.elementary_closure(n, GF(q))
            S = L.special_linear(n, GF(q))
            return E.order, S.order, set(E.elements) == set(S.elements)
        sl = order // (q - 1)
        ops.append(Op(f"elementary closure E_{n}(F_{q})", "matrix_groups",
                      elementary, lambda sl=sl: (sl, sl, True)))
    for (n, q), ab in AFFINE.items():
        order = q ** n * gl_order(n, q)
        ops.append(Op(f"abelianization Aff_{n}(F_{q})", "groups",
                      lambda L, n=n, q=q: L.abelianization(
                          L.affine_group(n, GF(q))).factors,
                      lambda ab=ab: ab, {"ab_order": order}))
    for k in range(2, 7):
        ops.append(Op(f"abelianization Sym({k})", "groups",
                      lambda L, k=k: L.abelianization(
                          L.symmetric_group(k)).factors,
                      lambda: (2,), {"ab_order": prod(range(1, k + 1))}))
    for base in WREATH_BASES:
        order, ab = SMALL[base]
        ops.append(Op(f"abelianization {base} wr Sym(2)", "groups",
                      lambda L, b=base: L.abelianization(
                          L.wreath(_small_group(L, b), 2)).factors,
                      lambda ab=ab: invariants(ab + (2,)),
                      {"ab_order": 2 * order ** 2}))
        ops.append(Op(f"check_wreath_ab {base} wr Sym(3)", "constructions",
                      lambda L, b=base: L.check_wreath_ab(
                          _small_group(L, b), 3).passed,
                      lambda: True))
    for q, n in TRUNCATION:
        ops.append(Op(f"truncation_consistency F_{q} n={n}", "symbolic",
                      lambda L, q=q, n=n: L.truncation_consistency(
                          RingDescriptor.finite_field(q), n).passed,
                      lambda: True))
    return ops


def make_ops(seed):
    """(timed ops in a seeded order, known-defect probe ops)."""
    rng = random.Random(seed)
    ops = _catalogue_ops() + _semidirect_ops(rng)
    rng.shuffle(ops)
    return ops, _gl2_zmod_ops(GL2_ZMOD_DEFECTS)


def describe_inputs(ops, probe):
    orders = [op.info["ab_order"] for op in ops + probe if "ab_order" in op.info]
    small = sum(o <= PAIRWISE_ORDER for o in orders)
    return (f"inputs: groups.pairwise_share {small / len(orders):.4f} "
            f"({small} of {len(orders)} abelianized groups have order <= "
            f"{PAIRWISE_ORDER}); largest order {max(orders)}")


def layer_metrics(counts, rounds, all_counts):
    """Per-round counts of the timed ops; the share also covers the probe."""
    calls = all_counts["groups.abelianization_calls"]
    return {
        "matrix_groups.elements": (counts["matrix_groups.elements"] / rounds,
                                   "count"),
        "groups.elements": (counts["groups.elements"] / rounds, "count"),
        "groups.abelianization_calls": (
            counts["groups.abelianization_calls"] / rounds, "count"),
        "groups.pairwise_share": (all_counts["groups.pairwise"] / calls
                                  if calls else 0.0, "share"),
    }
