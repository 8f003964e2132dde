import pytest

from modelk.errors import UnsupportedRingError, WorkbenchError
from modelk.matrices import Mat
from modelk.rings import GF
from modelk.symbolic import (COUNTABLE, UNDETERMINED, FormalAbGroup,
                             RingDescriptor, TheoryFlags, derive_flags,
                             embedding_target, glab,
                             k1_algebraic, k1_free_module, k1_truncation,
                             normalize_atom, ring_from_key,
                             truncation_consistency, truncation_levels,
                             units_of, zmod)

F3 = RingDescriptor.finite_field(3)
F4 = RingDescriptor.finite_field(4)
F5 = RingDescriptor.finite_field(5)
F7 = RingDescriptor.finite_field(7)
POLY = RingDescriptor.polynomial_ring("K")
FIELD = RingDescriptor.infinite_field("Q")
ZZ = RingDescriptor.integers()


def strip_marker(g: FormalAbGroup) -> FormalAbGroup:
    return FormalAbGroup.make(
        [(a, m) for a, m in g.summands if a.kind != "und"])


# --- ring descriptors and theory flags ---------------------------------------

def test_finite_field_needs_prime_power():
    assert RingDescriptor.finite_field(9).q == 9
    assert RingDescriptor.finite_field(17).key == "fq:17"
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(WorkbenchError):
            RingDescriptor.finite_field(q)


def test_ring_keys_and_pretty():
    assert F5.key == "fq:5" and F5.pretty() == "F_5"
    assert POLY.key == "poly:K" and POLY.pretty() == "K[X]"
    assert ZZ.key == "z" and ZZ.pretty() == "Z"
    assert FIELD.key == "field:Q"
    ed = RingDescriptor.abstract_ed("R0", has_unit_sum=True)
    assert ed.key == "ed:R0"
    for ring in (F5, POLY, ZZ, FIELD):
        assert ring_from_key(ring.key) == ring
    # the key does not carry the unit-sum declaration
    assert ring_from_key(ed.key) == RingDescriptor.abstract_ed("R0")
    with pytest.raises(WorkbenchError):
        ring_from_key("mystery:thing")


def test_ring_token_grammar():
    assert ring_from_key("poly-char0") == RingDescriptor.polynomial_ring("F")
    for token in ("poly:", "poly"):
        assert ring_from_key(token) == RingDescriptor.polynomial_ring("F")
    assert ring_from_key("field:") == RingDescriptor.infinite_field("F")
    assert ring_from_key("ed:") == RingDescriptor.abstract_ed("R")
    assert ring_from_key("fq:9") == RingDescriptor.finite_field(9)
    # an empty tag is the default tag in the factories too, so keys round-trip
    for ring in (RingDescriptor.polynomial_ring(""),
                 RingDescriptor.infinite_field(""),
                 RingDescriptor.abstract_ed("")):
        assert ring.tag in ("F", "R") and ring_from_key(ring.key) == ring
    for bad in ("fq:abc", "fq:", "fq:6", "Z", "nonsense:9"):
        with pytest.raises(WorkbenchError):
            ring_from_key(bad)


def test_unit_sum_facts():
    assert RingDescriptor.finite_field(2).has_unit_sum is False
    assert F3.has_unit_sum and F4.has_unit_sum
    assert POLY.has_unit_sum and FIELD.has_unit_sum
    assert ZZ.has_unit_sum is False
    assert RingDescriptor.abstract_ed("R1").has_unit_sum is None


def test_theory_flags_validation():
    assert TheoryFlags(True).first_branch
    assert TheoryFlags(False, True).first_branch
    assert not TheoryFlags(False, False).first_branch
    with pytest.raises(WorkbenchError):
        TheoryFlags(True, True)
    with pytest.raises(WorkbenchError):
        TheoryFlags(False)


def test_derived_flags():
    assert derive_flags(F4) == TheoryFlags(False, True)
    assert derive_flags(F3) == TheoryFlags(False, False)
    assert derive_flags(POLY) == TheoryFlags(True)
    assert derive_flags(FIELD) == TheoryFlags(True)
    assert derive_flags(ZZ) == TheoryFlags(False, True)
    with pytest.raises(UnsupportedRingError):
        derive_flags(RingDescriptor.abstract_ed("R2"))


# --- atom normalization -------------------------------------------------------

def test_normalize_cyclic_and_units():
    assert normalize_atom(zmod(1)) == []
    assert normalize_atom(zmod(6)) == [zmod(6)]
    assert normalize_atom(units_of(ZZ)) == [zmod(2)]
    assert normalize_atom(units_of(F5)) == [zmod(4)]
    assert normalize_atom(units_of(RingDescriptor.finite_field(2))) == []
    assert normalize_atom(units_of(POLY)) == [units_of("field:K")]
    assert normalize_atom(units_of(FIELD)) == [units_of(FIELD)]


def test_normalize_glab():
    assert normalize_atom(glab(0, F5)) == []
    assert normalize_atom(glab(1, F5)) == [zmod(4)]
    assert normalize_atom(glab(2, F5)) == [zmod(4)]
    assert normalize_atom(glab(3, F5)) == [zmod(4)]
    # no unit decomposition of 1 over F_2, so level 2 stays symbolic
    f2 = RingDescriptor.finite_field(2)
    assert normalize_atom(glab(2, f2)) == [glab(2, f2)]
    assert normalize_atom(glab(3, f2)) == []
    # the integers are the other special case
    assert normalize_atom(glab(1, ZZ)) == [zmod(2)]
    assert normalize_atom(glab(2, ZZ)) == [zmod(2), zmod(2)]
    assert normalize_atom(glab(5, ZZ)) == [zmod(2)]


def test_normalize_glab_over_abstract_rings():
    with_sum = RingDescriptor.abstract_ed("R3", has_unit_sum=True)
    assert normalize_atom(glab(2, with_sum)) == [units_of(with_sum)]
    unknown = RingDescriptor.abstract_ed("R4")
    assert normalize_atom(glab(2, unknown)) == [glab(2, unknown)]
    assert normalize_atom(glab(3, unknown)) == [units_of(unknown)]


def test_unit_sum_declaration_belongs_to_the_ring():
    def level_two(ring):
        return FormalAbGroup.from_atoms([glab(2, ring)]).pretty()

    # each declaration is built both before and after the other one
    for _ in range(2):
        flagged = RingDescriptor.abstract_ed("R", has_unit_sum=True)
        assert level_two(flagged) == "R^x"
        plain = RingDescriptor.abstract_ed("R")
        assert level_two(plain) == "GL_2(R)^ab"
        assert level_two(flagged) == "R^x"
        assert level_two(ring_from_key("ed:R")) == "GL_2(R)^ab"
        assert level_two(flagged) == "R^x"


# --- formal sums --------------------------------------------------------------

def test_formal_group_merging_and_saturation():
    g = FormalAbGroup.make([(zmod(2), 2), (zmod(4), 1), (zmod(2), 3)])
    assert g.multiplicity(zmod(2)) == 5
    assert g.multiplicity(zmod(4)) == 1
    assert g.multiplicity(zmod(8)) == 0
    inf = g.countable_copies()
    assert inf.multiplicity(zmod(2)) == COUNTABLE
    assert inf.direct_sum(g).multiplicity(zmod(2)) == COUNTABLE
    assert FormalAbGroup.trivial().is_trivial
    assert FormalAbGroup.make([(zmod(1), 7)]).is_trivial
    with pytest.raises(WorkbenchError):
        FormalAbGroup.make([(zmod(2), 0)])
    with pytest.raises(WorkbenchError):
        FormalAbGroup.make([(zmod(2), -1)])


def test_formal_equality_ignores_display():
    a = FormalAbGroup.from_atoms([zmod(2), zmod(4)], display="first")
    b = FormalAbGroup.from_atoms([zmod(4), zmod(2)], display="second")
    assert a == b
    assert a.pretty() == "first" and b.pretty() == "second"
    assert FormalAbGroup.from_atoms([zmod(2)]).pretty() == "Z_2"


@pytest.mark.parametrize("group, text", [
    (FormalAbGroup.make([(zmod(2), 3)]), "Z_2^3"),
    (FormalAbGroup.make([(zmod(2), COUNTABLE)]), "Z_2^(oo)"),
    (FormalAbGroup.trivial(), "0"),
])
def test_formal_pretty_writes_multiplicities(group, text):
    assert group.pretty() == text


def test_containment_with_countable_absorption():
    fin = FormalAbGroup.make([(zmod(2), 3)])
    inf = FormalAbGroup.make([(zmod(2), COUNTABLE)])
    assert inf.contains(fin) and inf.contains(inf)
    assert not fin.contains(inf)
    assert fin.contains(FormalAbGroup.make([(zmod(2), 3)]))
    assert not fin.contains(FormalAbGroup.make([(zmod(2), 4)]))
    assert not fin.contains(FormalAbGroup.from_atoms([zmod(4)]))


# --- the closed forms ----------------------------------------------------------

def test_k1_over_even_characteristic_fields():
    for q in (4, 8):
        ring = RingDescriptor.finite_field(q)
        k1 = k1_free_module(ring)
        assert k1.summands == FormalAbGroup.make(
            [(zmod(2), COUNTABLE), (zmod(q - 1), COUNTABLE)]).summands


def test_k1_over_odd_characteristic_fields():
    seen = {}
    for q in (3, 5, 7, 9):
        ring = RingDescriptor.finite_field(q)
        seen[q] = k1_free_module(ring)
        assert seen[q].multiplicity(zmod(2)) == COUNTABLE
        if q > 3:
            assert seen[q].multiplicity(zmod(q - 1)) == COUNTABLE
    # F_3: the unit group is itself Z_2, everything collapses to one pile
    assert seen[3] == FormalAbGroup.make([(zmod(2), COUNTABLE)])


def test_k1_branch_shapes_differ_per_level_not_in_total():
    ed = RingDescriptor.abstract_ed("R6", has_unit_sum=True)
    a = k1_free_module(ed, TheoryFlags(True))
    b = k1_free_module(ed, TheoryFlags(False, False))
    # countable multiplicities absorb the extra parity summand
    assert a == b
    assert a.multiplicity(units_of(ed)) == COUNTABLE
    # but the truncations see the difference at every level
    # one extra parity summand at each of the n upper levels
    ta = k1_truncation(ed, 2, TheoryFlags(True))
    tb = k1_truncation(ed, 2, TheoryFlags(False, False))
    assert tb.multiplicity(zmod(2)) == ta.multiplicity(zmod(2)) + 2


def test_k1_over_polynomial_and_infinite_fields():
    k1 = k1_free_module(POLY)
    assert k1.multiplicity(units_of("field:K")) == COUNTABLE
    assert k1.multiplicity(zmod(2)) == COUNTABLE
    k1f = k1_free_module(FIELD)
    assert k1f.multiplicity(units_of(FIELD)) == COUNTABLE


def test_k1_over_the_integers():
    k1 = k1_free_module(ZZ)
    assert k1 == FormalAbGroup.make([(zmod(2), COUNTABLE)])
    assert k1_free_module(ZZ, free_rank=1) == k1
    with pytest.raises(UnsupportedRingError) as info:
        k1_free_module(ZZ, free_rank=2)
    assert "module quotient" in str(info.value)


def test_k1_rejections():
    with pytest.raises(UnsupportedRingError) as info:
        k1_free_module(RingDescriptor.finite_field(2))
    assert "unit" in str(info.value)
    with pytest.raises(UnsupportedRingError):
        k1_free_module(RingDescriptor.abstract_ed("R7"))
    with pytest.raises(UnsupportedRingError):
        k1_free_module(RingDescriptor.abstract_ed("R8", has_unit_sum=False))
    with pytest.raises(UnsupportedRingError):
        k1_free_module(F5, free_rank=3)
    assert k1_free_module(F5, free_rank=COUNTABLE) == k1_free_module(F5)


# --- truncations ----------------------------------------------------------------

def test_truncation_levels_first_branch():
    levels = truncation_levels(F4, 3)
    assert levels == [
        [glab(3, F4)],
        [glab(2, F4), zmod(2)],
        [glab(1, F4), zmod(2)],
        [zmod(2)],
    ]


def test_truncation_levels_second_branch():
    levels = truncation_levels(F3, 2)
    assert levels == [
        [glab(2, F3), zmod(2)],
        [glab(1, F3), zmod(2), zmod(2)],
        [zmod(2)],
    ]


def test_truncation_levels_over_integers():
    assert truncation_levels(ZZ, 1) == [
        [glab(1, ZZ), zmod(2)], [zmod(2)]]
    assert truncation_levels(ZZ, 2) == [
        [glab(2, ZZ)],
        [glab(1, ZZ), zmod(2), zmod(2)],
        [UNDETERMINED],
    ]
    with pytest.raises(WorkbenchError):
        truncation_levels(ZZ, 0)


def test_truncation_totals_over_integers():
    totals = {1: 3, 2: 5, 3: 7}
    for n, parity_count in totals.items():
        t = k1_truncation(ZZ, n)
        assert t.multiplicity(zmod(2)) == parity_count
        assert t.multiplicity(UNDETERMINED) == (1 if n >= 2 else 0)


def test_truncation_values_over_fields():
    t2 = k1_truncation(F5, 2)
    # levels: GL_2^ab + Z_2, then GL_1^ab + 2 Z_2, then Z_2
    assert t2.multiplicity(zmod(4)) == 2
    assert t2.multiplicity(zmod(2)) == 4
    t1 = k1_truncation(F4, 1)
    assert t1.multiplicity(zmod(3)) == 1 and t1.multiplicity(zmod(2)) == 1


def test_truncations_grow_into_the_full_k1():
    rings = [F3, F4, F5, POLY, FIELD, ZZ]
    for ring in rings:
        full = k1_free_module(ring)
        previous = None
        for n in range(1, 6):
            t = k1_truncation(ring, n)
            assert full.contains(strip_marker(t)), (ring.key, n)
            if previous is not None:
                assert t.contains(previous), (ring.key, n)
            previous = strip_marker(t)


# --- algebraic K1 and the embedding ---------------------------------------------

def test_algebraic_k1_is_the_unit_group():
    assert k1_algebraic(F5) == FormalAbGroup.from_atoms([zmod(4)])
    assert k1_algebraic(ZZ) == FormalAbGroup.from_atoms([zmod(2)])
    assert k1_algebraic(POLY) == FormalAbGroup.from_atoms(
        [units_of("field:K")])


def test_embedding_target_levels():
    fq = GF(5)
    level, atom, det = embedding_target(F5, Mat(fq, [[2]]))
    assert (level, atom, det) == (1, units_of(F5), 2)
    level, atom, det = embedding_target(F5, Mat(fq, [[1, 0], [0, 2]]))
    assert level == 2 and det == 2
    level, _, det = embedding_target(F5, Mat(fq, [[0, 1], [1, 0]]))
    assert level == 2 and det == 4  # -1 mod 5


def test_embedding_target_rejections():
    fq = GF(5)
    with pytest.raises(WorkbenchError):
        embedding_target(F5, Mat(fq, [[0]]))
    with pytest.raises(WorkbenchError):
        embedding_target(F5, Mat(fq, [[3, 0], [0, 1]]))
    with pytest.raises(WorkbenchError):
        embedding_target(F5, Mat(fq, [[2, 1, 0], [4, 3, 0], [0, 0, 1]]))
    # last column touched: genuinely a level-2 element
    level, _, _ = embedding_target(F5, Mat(fq, [[1, 1], [0, 1]]))
    assert level == 2


# --- brute-force cross-check -----------------------------------------------------

def test_truncation_consistency_small_fields():
    rep = truncation_consistency(F3, 1)
    assert rep.passed, rep.failures
    rep4 = truncation_consistency(F4, 1)
    assert rep4.passed, rep4.failures


def test_truncation_consistency_flags_the_two_element_field():
    f2 = RingDescriptor.finite_field(2)
    rep = truncation_consistency(f2, 1)
    assert not rep.passed
    by_name = {name: ok for name, ok, _ in rep.checks}
    # GL_1(F_2) itself is trivially fine; the affine comparison is what breaks
    assert by_name["gl-ab-level-1"]
    assert not by_name["affine-ab-matches-gl-level-1"]
    assert not by_name["levels-match-k1-form"]


def test_truncation_consistency_uses_exception_table():
    f2 = RingDescriptor.finite_field(2)
    rep = truncation_consistency(f2, 2)
    by_name = {name: ok for name, ok, _ in rep.checks}
    assert by_name["gl-ab-level-2-known-exception"]
    assert by_name["affine-ab-matches-gl-level-2"]
    assert not by_name["affine-ab-matches-gl-level-1"]


def test_truncation_consistency_needs_finite_field():
    with pytest.raises(UnsupportedRingError):
        truncation_consistency(ZZ, 1)
