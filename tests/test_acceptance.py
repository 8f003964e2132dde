"""Acceptance suite: ten end-to-end checks, one per headline guarantee.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Each test also prints an explicit PASS line with the measured
numbers (visible with -s or in the captured output).
"""

import random

import pytest

from modelk.automorphisms import PAMap, conjugate, decompose_affine
from modelk.constructions import (alternating_elements, check_semidirect_ab,
                                  check_wreath_ab, lift_permutation,
                                  symmetric_group, wreath)
from modelk.counting import count_points_mod_p
from modelk.errors import UnsupportedRingError
from modelk.groups import abelianization
from modelk.matrix_groups import (affine_group, check_gl_ab,
                                  elementary_closure, gl_group)
from modelk.perms import Perm
from modelk.rings import GF
from modelk.suites import (random_affine_map, random_expression,
                           random_pamap, random_semidirect_action)
from modelk.symbolic import (COUNTABLE, FormalAbGroup, RingDescriptor,
                             TheoryFlags, k1_free_module, k1_truncation,
                             truncation_consistency, units_of, zmod)
from modelk.catalogue import by_name
from rational_oracles import commutator_subgroup, det_filter


def test_criterion_01_semidirect_abelianization_formula():
    """Abelianization of 30 seeded semidirect products equals the
    two-factor formula (acting group plus coinvariants), exactly."""
    rng = random.Random(20250817)
    passed = 0
    for _ in range(30):
        action = random_semidirect_action(rng)
        assert action.target.order * action.acting.order <= 2000
        report = check_semidirect_ab(action)
        assert report.passed, (action.name, report.failures)
        passed += 1
    assert passed == 30
    print(f"PASS criterion 1: {passed}/30 semidirect products match the "
          "two-factor abelianization formula")


def test_criterion_02_wreath_abelianization_formula():
    """K wr Sym(k) abelianizes to K^ab plus one parity factor for
    K in {Z2, Z3, Z4, Sym(3)} and k in {2, 3}."""
    expected = {
        "cyclic:2": (2, 2),
        "cyclic:3": (6,),
        "cyclic:4": (2, 4),
        "sym:3": (2, 2),
    }
    checked = 0
    for spec, factors in expected.items():
        K = by_name(spec)
        for k in (2, 3):
            report = check_wreath_ab(K, k)
            assert report.passed, (spec, k, report.failures)
            W = wreath(K, k)
            assert abelianization(W).factors == factors, (spec, k)
            assert W.order == K.order ** k * (2 if k == 2 else 6)
            checked += 1
    assert checked == 8
    print(f"PASS criterion 2: {checked}/8 wreath products match "
          "K^ab + parity, with the expected invariant factors")


def test_criterion_03_symmetric_group_commutators():
    """[Sym(k), Sym(k)] = Alt(k) and Sym(k)^ab = Z_2 for k = 2..6."""
    for k in range(2, 7):
        S = symmetric_group(k)
        derived = set(commutator_subgroup(S).elements)
        assert derived == alternating_elements(k), k
        assert abelianization(S).factors == (2,), k
    print("PASS criterion 3: Sym(k) for k = 2..6 has commutator Alt(k) "
          "and abelianization Z_2")


def test_criterion_04_elementary_closure_is_determinant_kernel():
    """The group generated by transvections equals ker(det) for six
    (n, q) pairs."""
    pairs = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]
    for n, q in pairs:
        ring = GF(q)
        E = set(elementary_closure(n, ring).elements)
        SL = set(det_filter(n, ring, {ring.one}))
        assert E == SL, (n, q)
    print(f"PASS criterion 4: elementary closure equals the determinant "
          f"kernel for all of {pairs}")


def test_criterion_05_gl_abelianization_and_affine_comparison():
    """GL_n^ab is cyclic of order q-1 where the unit-sum hypothesis holds,
    GL_2(F_2) is the recorded exception, and the affine group has the same
    abelianization as its linear part at the three probe levels."""
    for n, q in [(2, 4), (2, 5), (3, 2), (3, 3)]:
        report = check_gl_ab(n, GF(q))
        assert report.passed and report.hypotheses_hold, (n, q)
        assert report.matches_units and report.commutator_is_sl, (n, q)
    exc = check_gl_ab(2, GF(2))
    assert exc.passed and exc.known_exception and not exc.hypotheses_hold
    assert not exc.matches_units  # Z_2 against a trivial unit group
    for n, q in [(1, 5), (2, 2), (2, 3)]:
        aff = abelianization(affine_group(n, GF(q))).factors
        lin = abelianization(gl_group(n, GF(q))).factors
        assert aff == lin, (n, q)
    print("PASS criterion 5: GL abelianizations match the unit group on "
          "4 hypothesis cases, GL_2(F_2) is flagged as the known "
          "exception, and 3 affine/linear comparisons agree")


def test_criterion_06_k0_class_bridges_to_point_counts():
    """For 60 seeded boolean combinations with integer data (ambient <= 3),
    the class polynomial evaluated at each certified-good prime in
    {5, 7, 11} equals the brute-force point count, exactly."""
    rng = random.Random(4242)
    runs = good = 0
    for _ in range(60):
        ambient = rng.randint(1, 3)
        expr = random_expression(rng, ambient)
        for p in (5, 7, 11):
            rep = count_points_mod_p(expr, p)
            runs += 1
            if rep.good_prime:
                good += 1
                assert rep.count == rep.predicted, (expr, p)
    assert runs == 180 and good >= 100
    print(f"PASS criterion 6: {good}/{runs} prime evaluations certified "
          "good, every one matching the class polynomial exactly")


def test_criterion_07_automorphism_round_trips():
    """32 seeded piecewise-affine maps over Q^1 and Q^2: all validate,
    f o f^-1 has empty support, the affine/low-dimensional decomposition
    recomposes exactly, and conjugation preserves support dimension."""
    rng = random.Random(1107)
    checked = 0
    for ambient in (1, 2):
        for _ in range(16):
            f = random_pamap(rng, ambient)
            assert f.validate().passed
            assert f.compose(f.invert()).support().is_empty
            g, h = decompose_affine(f)
            assert h.support_dim() < ambient
            assert PAMap.from_affine(g, ambient).compose(h).same_map(f)
            c = conjugate(random_affine_map(rng, ambient), f)
            assert c.support_dim() == f.support_dim()
            checked += 1
    assert checked == 32
    print(f"PASS criterion 7: {checked}/32 seeded maps satisfy the "
          "validate/invert/decompose/conjugate laws")


def test_criterion_08_coset_lift_embeddings():
    """Residue-class lifts: the 2-to-4 table, the homomorphism law
    exhaustively for n <= 4 and m <= 12, and the parity law
    sign(lift) = sign(sigma)^(m/n) on the same range."""
    swap = Perm.transposition(2, 0, 1)
    assert lift_permutation(2, 4, swap) == Perm((1, 0, 3, 2))
    assert lift_permutation(2, 4, Perm.identity(2)) == Perm.identity(4)
    pairs = homs = parities = 0
    for n in range(1, 5):
        group = list(symmetric_group(n).elements) if n >= 2 else [Perm((0,))]
        for m in range(n, 13, n):
            lifted = {s: lift_permutation(n, m, s) for s in group}
            for s in group:
                expected_even = (s.sign() ** (m // n)) == 1
                assert lifted[s].is_even() == expected_even, (n, m, s)
                parities += 1
            for s in group:
                for t in group:
                    assert lift_permutation(n, m, s * t) == lifted[s] * lifted[t]
                    homs += 1
            pairs += 1
    assert pairs == 25  # 12 + 6 + 4 + 3 divisor-multiple pairs
    print(f"PASS criterion 8: lift table reproduced; homomorphism law on "
          f"{homs} products and parity law on {parities} lifts, "
          f"across {pairs} (n, m) pairs")


def test_criterion_09_symbolic_closed_forms():
    """The closed forms match their expected normal forms symbol for
    symbol; the truncation tower agrees with brute-force group theory
    over F_4 and F_5 up to level 2; the documented rejections fire."""
    field = RingDescriptor.infinite_field("F")
    poly = RingDescriptor.polynomial_ring("F")
    zz = RingDescriptor.integers()
    cases = [
        (field, FormalAbGroup.make(
            [(zmod(2), COUNTABLE), (units_of(field), COUNTABLE)])),
        (poly, FormalAbGroup.make(
            [(zmod(2), COUNTABLE), (units_of("field:F"), COUNTABLE)])),
        (zz, FormalAbGroup.make([(zmod(2), COUNTABLE)])),
    ]
    for q in (4, 8, 3, 5, 7, 9):
        expected = [(zmod(2), COUNTABLE)]
        if q > 3:
            expected.append((zmod(q - 1), COUNTABLE))
        cases.append((RingDescriptor.finite_field(q),
                      FormalAbGroup.make(expected)))
    for ring, expected in cases:
        assert k1_free_module(ring) == expected, ring.key
    for q in (4, 5):
        for n in (1, 2):
            report = truncation_consistency(RingDescriptor.finite_field(q), n)
            assert report.passed, (q, n, report.failures)
    with pytest.raises(UnsupportedRingError) as info:
        k1_free_module(RingDescriptor.finite_field(2))
    assert "1 = u + v has no solution" in str(info.value)
    with pytest.raises(UnsupportedRingError) as info:
        k1_free_module(zz, free_rank=2)
    assert "module quotient" in str(info.value)
    print(f"PASS criterion 9: {len(cases)} closed forms match exactly, "
          "brute-force truncation checks pass for F_4 and F_5 at levels "
          "1-2, and both documented rejections fire")


def test_criterion_10_truncation_monotonicity():
    """Each truncation level embeds in the next, up to level 6, for every
    supported ring (and for an abstract domain under both theory flags)."""
    rings = [
        (RingDescriptor.finite_field(3), None),
        (RingDescriptor.finite_field(4), None),
        (RingDescriptor.finite_field(5), None),
        (RingDescriptor.finite_field(9), None),
        (RingDescriptor.polynomial_ring("F"), None),
        (RingDescriptor.infinite_field("F"), None),
        (RingDescriptor.integers(), None),
        (RingDescriptor.abstract_ed("R", has_unit_sum=True), TheoryFlags(True)),
        (RingDescriptor.abstract_ed("R", has_unit_sum=True),
         TheoryFlags(False, False)),
    ]
    comparisons = 0
    for ring, flags in rings:
        previous = None
        for n in range(1, 8):
            level = k1_truncation(ring, n, flags)
            if previous is not None:
                assert level.contains(previous), (ring.key, n)
                comparisons += 1
            previous = level
    assert comparisons == 6 * len(rings)
    print(f"PASS criterion 10: {comparisons} successive-level containments "
          f"hold across {len(rings)} ring/flag combinations")
