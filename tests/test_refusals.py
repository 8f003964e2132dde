"""Refusals and edge outputs across the layers, each pinned to its message.

Each case here is an input that the rest of the suite never sends: a
mismatched ambient dimension, an empty object printed, an index out of
range, a size of zero, a non-unit.  Every refusal is a `WorkbenchError`
(or the `ValueError` of the matrix and permutation constructors) with the
message shown, never a bare Python error.
"""

import re
from fractions import Fraction

import pytest

from modelk.automorphisms import AffineMap, PAMap
from modelk.catalogue import cyclic
from modelk.cli import main
from modelk.constructions import direct_power, lift_permutation, wreath
from modelk.cosets import AffineCoset, LinearSystem
from modelk.counting import count_points_mod_p
from modelk.defsets import And, DefinableSet, K0Class, make_block
from modelk.errors import FormulaError, WorkbenchError
from modelk.formulas import parse_formula
from modelk.groups import FiniteGroup, enumerate_group, invariants_from_factors
from modelk.matrices import Mat
from modelk.matrix_groups import affine_group, gl_order
from modelk.perms import Perm
from modelk.rings import GF, Zmod
from modelk.suites import run_suite
from modelk.symbolic import RingDescriptor, units_of

F = Fraction
POINT = AffineCoset.single_point((F(0),))
PLANE_POINT = AffineCoset.single_point((F(0), F(0)))


def _raises(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


# --- ambient mismatches -------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: AffineMap.identity(1).compose(AffineMap.identity(2)), "ambient mismatch"),
    (lambda: PAMap(2, [(make_block(POINT), AffineMap.identity(1))]),
     "piece ambient mismatch"),
    (lambda: PAMap(1, [(make_block(POINT), AffineMap.identity(2))]),
     "piece ambient mismatch"),
    (lambda: PAMap.identity(1).compose(PAMap.identity(2)), "ambient mismatch"),
    (lambda: POINT.intersect(PLANE_POINT), "ambient mismatch"),
    (lambda: POINT.is_subset(PLANE_POINT), "ambient mismatch"),
    (lambda: POINT.contains((F(0), F(0))), "point has wrong ambient dimension"),
    (lambda: DefinableSet.from_blocks(2, [make_block(POINT)]), "block ambient mismatch"),
    (lambda: DefinableSet.full_space(1).union(DefinableSet.full_space(2)),
     "ambient mismatch"),
    (lambda: count_points_mod_p(And(LinearSystem(1, 0, [[1, 0]]),
                                    LinearSystem(2, 0, [[1, 0, 0]])), 5),
     "leaf ambient mismatch"),
], ids=["AffineMap.compose", "PAMap-block", "PAMap-map", "PAMap.compose",
        "AffineCoset.intersect", "AffineCoset.is_subset", "AffineCoset.contains",
        "DefinableSet.from_blocks", "DefinableSet.union", "count_points_mod_p"])
def test_ambient_mismatches_are_refused(call, message):
    _raises(call, WorkbenchError, message)


def test_maps_on_different_ambients_are_not_the_same_map():
    assert not PAMap.identity(1).same_map(PAMap.identity(2))


def test_a_map_skips_a_piece_whose_block_is_empty():
    # make_block gives None for a carrier that its holes cover
    f = PAMap(1, [(make_block(POINT, [POINT]), AffineMap.translation([1])),
                  (make_block(AffineCoset.full(1)), AffineMap.identity(1))])
    assert f.same_map(PAMap.identity(1)) and len(f.pieces) == 1


def test_a_map_refuses_a_point_off_its_domain():
    on_point = PAMap(1, [(make_block(POINT), AffineMap.identity(1))])
    assert on_point.apply((F(0),)) == (F(0),)
    _raises(lambda: on_point.apply((F(1),)), WorkbenchError, "point outside the domain")


# --- empty objects ------------------------------------------------------------

def test_empty_objects_print_and_refuse_points():
    empty = AffineCoset.empty_set(2)
    assert empty.pretty() == "(empty)"
    assert DefinableSet.empty(2).pretty() == "(empty)"
    assert K0Class.zero().pretty() == "0"
    _raises(empty.particular_point, WorkbenchError, "empty coset has no points")
    _raises(empty.direction_basis, WorkbenchError, "empty coset has no directions")


# --- indices out of range -----------------------------------------------------

def test_out_of_range_projections_embeddings_and_lifts_are_refused():
    line = AffineCoset.from_rows(2, [[1, 1, 0]])
    assert line.project(0).ambient == 0 and line.project(2) == line
    for keep in (-1, 3):
        _raises(lambda: line.project(keep), WorkbenchError,
                f"cannot keep {keep} of 2 coordinates")
    _raises(lambda: line.embed(1), WorkbenchError, "cannot embed into a smaller space")
    _raises(lambda: lift_permutation(2, 4, Perm.identity(3)), WorkbenchError,
            "expected a permutation of Z_2")
    _raises(lambda: lift_permutation(2, 3, Perm.identity(2)), WorkbenchError,
            "need n | m, got n=2, m=3")


# --- sizes of zero ------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: cyclic(0), "order must be positive"),
    (lambda: direct_power(cyclic(2), 0), "need at least one factor"),
    (lambda: wreath(cyclic(2), 0), "need a degree of at least 1, not 0"),
    (lambda: gl_order(0, GF(2)), "need n >= 1"),
    (lambda: affine_group(1, GF(2), 0), "need at least one copy"),
], ids=["cyclic", "direct_power", "wreath", "gl_order", "affine_group"])
def test_sizes_of_zero_are_refused(call, message):
    _raises(call, WorkbenchError, message)


# --- groups -------------------------------------------------------------------

def test_group_constructors_refuse_what_is_not_a_group():
    _raises(lambda: enumerate_group([]), WorkbenchError, "need at least one generator")
    _raises(lambda: FiniteGroup([1], lambda a, b: a, 0), WorkbenchError,
            "identity missing from enumeration")
    _raises(lambda: invariants_from_factors([0]), ValueError,
            "cyclic orders must be positive")
    _raises(lambda: Mat.transvection(GF(2), 2, 1, 1, 1), ValueError,
            "transvection needs i != j")


def test_a_matrix_is_equal_only_to_a_matrix():
    one = Mat.identity(GF(2), 2)
    assert one != ((1, 0), (0, 1)) and one != "I"
    assert one == Mat(GF(2), ((1, 0), (0, 1)))


def test_a_group_has_its_order_as_length_and_iterates_its_elements():
    Z = cyclic(4)
    assert len(Z) == Z.order == 4
    assert list(Z) == [0, 1, 2, 3] == list(Z.elements)


# --- rings --------------------------------------------------------------------

def test_rings_refuse_bad_sizes_and_non_units():
    _raises(lambda: Zmod(1), WorkbenchError, "modulus must be at least 2, got 1")
    _raises(lambda: GF(32), WorkbenchError, "no fixed modulus polynomial on file for GF(32)")
    R = Zmod(4)
    assert R.inv(3) == 3
    _raises(lambda: R.inv(2), WorkbenchError, f"2 is not a unit in {R}")


def test_the_units_of_a_polynomial_ring_print_as_the_units_of_its_field():
    # F[X]^x = F^x; k1 names the field's units, so only a caller that asks
    # for the ring's units sees this
    assert units_of(RingDescriptor.polynomial_ring("K")).pretty() == "K^x"
    assert units_of(RingDescriptor.infinite_field("K")).pretty() == "K^x"


# --- formulas and the command line ---------------------------------------------

@pytest.mark.parametrize("text, message", [
    ("ambient 1; ", "line 1, col 12: expected a pp atom or '(', found 'end of input'"),
    ("ambient 1; pp(x1 = 0) | )", "line 1, col 25: expected a pp atom or '(', found ')'"),
    ("ambient 1; pp(E x1 : x1 = 0)",
     "line 1, col 17: existential block binds y-variables only"),
])
def test_formula_errors_name_their_position(text, message):
    _raises(lambda: parse_formula(text), FormulaError, message)


def test_an_unknown_suite_is_refused():
    _raises(lambda: run_suite("maps"), WorkbenchError,
            "unknown suite 'maps'; choose from ed, gl, lift, perm, semiab, truncation, wreath")


def test_cofinal_even_picks_the_first_branch(capsys):
    outputs = {}
    for flag in ("--cofinal-even", "--cofinal-odd", "--t-closed"):
        assert main(["k1", "--ring", "ed:R", "--unit-sum", flag]) == 0
        outputs[flag] = capsys.readouterr().out
    # an even index cofinal puts the theory on the branch of a closed one
    assert outputs["--cofinal-even"] == outputs["--t-closed"] == \
        "Z_2 (+) (+)_{n>=1} (R^x (+) Z_2)\n"
    assert outputs["--cofinal-odd"] == "Z_2 (+) (+)_{n>=1} (R^x (+) Z_2 (+) Z_2)\n"
