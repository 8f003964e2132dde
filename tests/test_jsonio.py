import json
import random
from fractions import Fraction

import pytest

from modelk.automorphisms import AffineMap, PAMap
from modelk.cosets import AffineCoset
from modelk.defsets import DefinableSet, K0Class, make_block
from modelk.errors import WorkbenchError
from modelk.jsonio import (abgroup_from_json, block_from_json, block_to_json, coset_from_json,
                           coset_to_json, defset_from_json, defset_to_json,
                           dumps, k0_from_json, k0_to_json, pamap_from_json,
                           pamap_to_json, rat_from_json, rat_to_json)
from modelk.suites import random_coset, random_pamap
from modelk.symbolic import (COUNTABLE, RingDescriptor, TheoryFlags,
                             k1_free_module, k1_truncation, units_of, zmod)


def test_rational_codec():
    assert rat_to_json(Fraction(3)) == 3
    assert rat_to_json(Fraction(-7, 2)) == "-7/2"
    assert rat_from_json(3) == Fraction(3)
    assert rat_from_json("-7/2") == Fraction(-7, 2)
    for bad in (True, 0.5, None, [1]):
        with pytest.raises(WorkbenchError):
            rat_from_json(bad)


def test_coset_round_trip():
    c = AffineCoset.from_rows(2, [[1, Fraction(1, 2), 3]])
    assert coset_from_json(coset_to_json(c)) == c
    assert coset_from_json(coset_to_json(AffineCoset.full(3))) == AffineCoset.full(3)
    e = AffineCoset.empty_set(2)
    assert coset_from_json(coset_to_json(e)) == e


def test_seeded_coset_round_trips():
    rng = random.Random(52)
    for _ in range(40):
        c = random_coset(rng, rng.randint(1, 3))
        assert coset_from_json(coset_to_json(c)) == c


def test_block_round_trip():
    full = AffineCoset.full(2)
    hole = AffineCoset.single_point((Fraction(0), Fraction(0)))
    b = make_block(full, [hole])
    assert block_from_json(block_to_json(b)) == b
    with pytest.raises(WorkbenchError):
        block_from_json({"carrier": coset_to_json(hole),
                         "holes": [coset_to_json(hole)]})


def test_defset_round_trip():
    line = AffineCoset.from_rows(2, [[1, -1, 0]])
    point = AffineCoset.single_point((Fraction(2), Fraction(2)))
    s = DefinableSet.from_blocks(2, [make_block(line, [point])])
    again = defset_from_json(defset_to_json(s))
    assert again.same_set(s) and again == s


def test_pamap_round_trip():
    f = PAMap.from_affine(AffineMap.make([[2, 1], [1, 1]], [0, Fraction(1, 3)]))
    g = pamap_from_json(pamap_to_json(f))
    assert g.same_map(f)
    rng = random.Random(8821)
    for _ in range(15):
        f = random_pamap(rng, rng.choice([1, 2]))
        g = pamap_from_json(pamap_to_json(f))
        assert g.same_map(f)
        assert pamap_to_json(g) == pamap_to_json(f)


def test_k0_round_trip():
    c = K0Class.make([3, -1, 2])
    assert k0_from_json(k0_to_json(c)) == c
    assert k0_from_json({"coeffs": []}) == K0Class.zero()


def test_abgroup_round_trip():
    f5 = RingDescriptor.finite_field(5)
    for g in (k1_free_module(f5),
              k1_truncation(RingDescriptor.integers(), 2),
              k1_truncation(RingDescriptor.polynomial_ring("K"), 3)):
        again = abgroup_from_json(g.to_json())
        assert again == g
    mixed = abgroup_from_json({"summands": [
        {"atom": "Zmod", "k": 4, "mult": 2},
        {"atom": "UnitsOf", "ring": "field:K", "mult": COUNTABLE},
        {"atom": "GLab", "ring": "fq:2", "n": 2},
        {"atom": "UndeterminedZ2", "mult": 1},
    ]})
    assert mixed.multiplicity(zmod(4)) == 2
    assert mixed.multiplicity(units_of("field:K")) == COUNTABLE
    with pytest.raises(WorkbenchError):
        abgroup_from_json({"summands": [{"atom": "Mystery"}]})


def test_abgroup_ring_keys_are_read_when_decoded():
    for ring in ("mystery:x", "fq:abc", "fq:6"):
        for atom in ({"atom": "UnitsOf", "ring": ring},
                     {"atom": "GLab", "ring": ring, "n": 2}):
            with pytest.raises(WorkbenchError):
                abgroup_from_json({"summands": [atom]})
    # the key does not carry the unit-sum declaration: the same bytes come
    # back, over a domain that is no longer declared
    flagged = RingDescriptor.abstract_ed("R", has_unit_sum=True)
    g = k1_truncation(flagged, 2, TheoryFlags(True))
    again = abgroup_from_json(g.to_json())
    assert again.to_json() == g.to_json()
    assert again.multiplicity(units_of(RingDescriptor.abstract_ed("R"))) == 2
    level_two = abgroup_from_json(
        {"summands": [{"atom": "GLab", "ring": "ed:R", "n": 2}]})
    assert level_two.pretty() == "GL_2(R)^ab"


def test_dumps_is_byte_stable():
    f5 = RingDescriptor.finite_field(5)
    payload = {
        "zeta": k1_free_module(f5).to_json(),
        "alpha": coset_to_json(AffineCoset.from_rows(1, [[2, 1]])),
    }
    one = dumps(payload)
    two = dumps(json.loads(one))
    assert one == two
    assert one.endswith("\n") and not one.endswith("\n\n")
    # keys come out sorted regardless of insertion order
    assert one.index('"alpha"') < one.index('"zeta"')


def test_dumps_survives_a_full_cycle():
    rng = random.Random(3)
    f = random_pamap(rng, 2)
    text = dumps(pamap_to_json(f))
    rebuilt = pamap_from_json(json.loads(text))
    assert dumps(pamap_to_json(rebuilt)) == text
