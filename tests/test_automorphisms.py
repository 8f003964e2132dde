import random
from fractions import Fraction

import pytest

from modelk.automorphisms import AffineMap, PAMap, conjugate, decompose_affine
from modelk.cosets import NEG_INF, AffineCoset
from modelk.defsets import (DefinableSet, block_intersect, boolean_normalize, definable_dim,
                            k0_class, make_block, witness_point)
from modelk.errors import WorkbenchError
from modelk.suites import random_affine_map, random_expression, random_pamap, random_point
from rational_oracles import mat_inv, validate_two_way


def swap_map(ambient, a, b):
    full = AffineCoset.full(ambient)
    pa, pb = AffineCoset.single_point(a), AffineCoset.single_point(b)
    shift = AffineMap.translation([y - x for x, y in zip(a, b)])
    return PAMap(ambient, [
        (make_block(full, [pa, pb]), AffineMap.identity(ambient)),
        (make_block(pa), shift),
        (make_block(pb), shift.inverse()),
    ])


def doubling_with_patch():
    # 2x everywhere except that 1 -> 4 and 2 -> 2
    full = AffineCoset.full(1)
    p1 = AffineCoset.single_point((Fraction(1),))
    p2 = AffineCoset.single_point((Fraction(2),))
    return PAMap(1, [
        (make_block(full, [p1, p2]), AffineMap.make([[2]], [0])),
        (make_block(p1), AffineMap.make([[1]], [3])),
        (make_block(p2), AffineMap.make([[1]], [0])),
    ])


# --- plain affine maps ------------------------------------------------------

def test_affine_make_rejects_bad_input():
    with pytest.raises(WorkbenchError):
        AffineMap.make([[1, 0]], [0])
    with pytest.raises(WorkbenchError):
        AffineMap.make([[1, 2], [2, 4]], [0, 0])
    with pytest.raises(WorkbenchError):
        AffineMap.make([[1]], [0, 0])


def test_affine_map_on_q0_is_the_identity():
    assert AffineMap.make([], []) == AffineMap.identity(0)


def test_affine_apply_compose_inverse():
    f = AffineMap.make([[2, 1], [0, 1]], [1, 0])
    g = AffineMap.make([[1, 0], [1, 1]], [0, 3])
    x = (Fraction(1, 2), Fraction(-3))
    assert f.compose(g).apply(x) == f.apply(g.apply(x))
    assert f.compose(f.inverse()) == AffineMap.identity(2)
    assert f.inverse().apply(f.apply(x)) == x


def test_affine_apply_needs_a_point_of_the_ambient_dimension():
    f = AffineMap.make([[1, 0], [0, 1]], [0, 0])
    for point in ((1,), (1, 2, 3)):
        with pytest.raises(WorkbenchError):
            f.apply(point)


def test_affine_maps_hold_one_integer_form():
    # x -> x/2 + 3/4 is (2x + 3) / 4 however it is built
    half = AffineMap.make([[Fraction(1, 2)]], ["3/4"])
    assert (half.linear, half.shift, half.denominator) == (((2,),), (3,), 4)
    assert half == AffineMap.make([["1/4"]], ["3/4"]).compose(
        AffineMap.make([[2]], [0]))
    assert half.inverse() == AffineMap.make([[2]], ["-3/2"])
    assert half.inverse().inverse() is half
    assert half.matrix == ((Fraction(1, 2),),)
    assert half.offset == (Fraction(3, 4),)


def test_seeded_inverses_and_products_match_the_rational_formulas():
    rng = random.Random(4410)
    for _ in range(40):
        n = rng.randint(1, 3)
        f, g = random_affine_map(rng, n), random_affine_map(rng, n)
        minv = mat_inv(f.matrix)
        assert f.inverse().matrix == tuple(map(tuple, minv))
        assert f.inverse().offset == tuple(-_dot(row, f.offset) for row in minv)
        fg = f.compose(g)
        assert fg.matrix == tuple(tuple(_dot(row, col) for col in zip(*g.matrix))
                                  for row in f.matrix)
        assert fg.offset == tuple(_dot(row, g.offset) + c
                                  for row, c in zip(f.matrix, f.offset))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def test_fixed_and_agreement_cosets():
    # a map's fixed points are where it agrees with the identity
    one = AffineMap.identity(1)
    f = AffineMap.make([[2]], [0])
    assert f.agreement_coset(one) == AffineCoset.single_point((Fraction(0),))
    g = AffineMap.make([[1]], [1])
    assert g.agreement_coset(one).empty
    # 2x and x + 1 agree exactly at x = 1
    assert f.agreement_coset(g) == AffineCoset.single_point((Fraction(1),))
    two = AffineMap.identity(2)
    assert two.agreement_coset(two).is_full


# --- piecewise maps: validity ----------------------------------------------

def test_full_affine_piece_is_valid():
    f = PAMap.from_affine(AffineMap.make([[0, 1], [1, 0]], [0, 0]))
    assert f.validate().passed


def test_doubling_with_patch_is_valid():
    f = doubling_with_patch()
    rep = f.validate()
    assert rep.passed
    assert f.apply((Fraction(1),)) == (Fraction(4),)
    assert f.apply((Fraction(2),)) == (Fraction(2),)
    assert f.apply((Fraction(3),)) == (Fraction(6),)


def test_overlapping_pieces_rejected():
    full = AffineCoset.full(1)
    f = PAMap(1, [
        (make_block(full), AffineMap.identity(1)),
        (make_block(AffineCoset.single_point((Fraction(0),))),
         AffineMap.make([[1]], [1])),
    ])
    rep = f.validate()
    assert not rep.passed
    assert "domain-pieces-disjoint" in rep.failures
    with pytest.raises(WorkbenchError):
        f.compose(f)


def test_image_collision_rejected():
    # both halves land on the same line: not injective
    p0 = AffineCoset.single_point((Fraction(0),))
    p1 = AffineCoset.single_point((Fraction(1),))
    f = PAMap(1, [
        (make_block(p0), AffineMap.identity(1)),
        (make_block(p1), AffineMap.make([[1]], [-1])),
    ])
    rep = f.validate()
    assert "image-pieces-disjoint" in rep.failures


def test_image_must_equal_domain():
    f = PAMap.from_affine(AffineMap.identity(1),
                          ambient=1)
    shrunk = PAMap(1, [(make_block(AffineCoset.single_point((Fraction(0),))),
                        AffineMap.make([[1]], [5]))])
    rep = shrunk.validate()
    assert not rep.passed and "image-equals-domain" in rep.failures
    assert f.validate().passed


def test_require_valid_names_the_failures_of_one_validate_run(monkeypatch):
    runs = []
    validate = PAMap.validate
    monkeypatch.setattr(PAMap, "validate", lambda f: runs.append(f) or validate(f))
    shrunk = PAMap(1, [(make_block(AffineCoset.single_point((Fraction(0),))),
                        AffineMap.make([[1]], [5]))])
    for _ in range(2):
        with pytest.raises(WorkbenchError, match="not a bijection of its "
                           "domain: image-equals-domain$"):
            shrunk.compose(shrunk)
    assert runs == [shrunk]


def _restricted(f: PAMap, s: DefinableSet) -> PAMap:
    """f on the pieces of its domain inside s."""
    return PAMap(f.ambient, [(part, m) for b, m in f.pieces for c in s.blocks
                             if (part := block_intersect(b, c)) is not None])


def _perturbed(rng, f: PAMap) -> dict:
    """Copies of f that break it: one piece translated so that its image
    leaves the domain (or moves at random when the domain is everything),
    one piece dropped, one piece duplicated, and a second piece sent onto
    a point of the first one's image."""
    pieces = list(f.pieces)
    i = rng.randrange(len(pieces))
    b, m = pieces[i]
    outside = f.domain().complement()
    target = (outside.witness() if not outside.is_empty
              else random_point(rng, f.ambient))
    shift = AffineMap.translation(
        [y - x for x, y in zip(m.apply(witness_point(b)), target)])
    maps = {"translated": pieces[:i] + [(b, shift.compose(m))] + pieces[i + 1:],
            "dropped": pieces[:i] + pieces[i + 1:],
            "duplicated": pieces + [pieces[i]]}
    if len(pieces) > 1:
        j = rng.choice([j for j in range(len(pieces)) if j != i])
        c = pieces[j][0]
        onto = m.compose(AffineMap.translation(
            [x - y for x, y in zip(witness_point(b), witness_point(c))]))
        maps["collided"] = [(c, onto) if k == j else p
                            for k, p in enumerate(pieces)]
    return {name: PAMap(f.ambient, p) for name, p in maps.items()}


def test_one_way_validate_matches_the_two_way_oracle():
    rng = random.Random(2808)
    failed = {"domain-pieces-disjoint": 0, "image-pieces-disjoint": 0,
              "image-equals-domain": 0}
    for _ in range(12):
        f = random_pamap(rng, rng.randint(1, 3))
        # a map sends its support onto itself, so it restricts to it
        moved = _restricted(f, f.support())
        maps = [f] + [moved] * bool(moved.pieces)
        for g in list(maps):
            maps += _perturbed(rng, g).values()
        for g in maps:
            checks = g.validate().checks
            assert checks == validate_two_way(g).checks
            for name, ok, detail in checks:
                if not ok and not detail and name in failed:
                    failed[name] += 1
        assert f.validate().passed and moved.validate().passed
    assert all(failed.values()), failed


# --- support and the dimension filtration -----------------------------------

def test_identity_has_empty_support():
    f = PAMap.identity(2)
    assert f.support().is_empty
    assert f.support_dim() == NEG_INF


def test_translation_support_is_everything():
    f = PAMap.from_affine(AffineMap.translation([1, 0]))
    assert f.support().same_set(DefinableSet.full_space(2))
    assert f.support_dim() == 2


def test_translation_reads_its_vector_once():
    # an iterator is used up by its first read
    assert AffineMap.translation(iter([1, 2])) == AffineMap.translation([1, 2])
    assert AffineMap.translation(iter([1, 2])).shift == (1, 2)


def test_swap_support_is_the_two_points():
    f = swap_map(1, (Fraction(0),), (Fraction(3),))
    assert f.support_dim() == 0
    s = f.support()
    assert s.contains((Fraction(0),)) and s.contains((Fraction(3),))
    assert not s.contains((Fraction(1),))


def test_linear_map_support_excludes_fixed_line():
    # fixes the axis x2 = 0 pointwise, moves everything else
    f = PAMap.from_affine(AffineMap.make([[1, 1], [0, 1]], [0, 0]))
    s = f.support()
    assert f.support_dim() == 2
    assert not s.contains((Fraction(5), Fraction(0)))
    assert s.contains((Fraction(0), Fraction(1)))


def test_dimensions_read_off_the_blocks_are_the_class_degrees():
    # the class route stays as the oracle: a normalized set and a support
    # in each of Q^1..Q^3 per seed, 900 sets in all, 79 of them empty (both
    # routes give NEG_INF there)
    for seed in range(150):
        rng = random.Random(seed)
        for ambient in (1, 2, 3):
            d = boolean_normalize(random_expression(rng, ambient), ambient)
            assert definable_dim(d) == k0_class(d).degree, (seed, ambient)
            f = random_pamap(rng, ambient)
            assert f.support_dim() == k0_class(f.support()).degree, (seed, ambient)


# --- group laws -------------------------------------------------------------

def test_compose_invert_same_map():
    f = doubling_with_patch()
    g = swap_map(1, (Fraction(0),), (Fraction(1),))
    fg = f.compose(g)
    assert fg.apply((Fraction(0),)) == f.apply(g.apply((Fraction(0),)))
    ident = PAMap.identity(1)
    assert f.compose(f.invert()).same_map(ident)
    assert f.invert().compose(f).same_map(ident)
    assert fg.invert().same_map(g.invert().compose(f.invert()))
    assert not f.same_map(g)


def test_same_map_is_false_on_other_domains_and_other_values():
    point = AffineCoset.single_point((Fraction(0),))
    on_point = PAMap(1, [(make_block(point), AffineMap.identity(1))])
    assert not PAMap.identity(1).same_map(on_point)
    shift = PAMap.from_affine(AffineMap.translation([1]))
    assert not PAMap.identity(1).same_map(shift)
    assert shift.same_map(PAMap.from_affine(AffineMap.translation([1])))


def test_compose_needs_equal_domains():
    point = AffineCoset.single_point((Fraction(0),))
    on_point = PAMap(1, [(make_block(point), AffineMap.identity(1))])
    with pytest.raises(WorkbenchError, match="^composition needs equal domains$"):
        PAMap.identity(1).compose(on_point)


def test_same_map_ignores_piece_shape():
    # identity cut into two half-ish pieces is still the identity
    line = AffineCoset.from_rows(2, [[1, 0, 0]])
    rest = make_block(AffineCoset.full(2), [line])
    f = PAMap(2, [(make_block(line), AffineMap.identity(2)),
                  (rest, AffineMap.identity(2))])
    assert f.same_map(PAMap.identity(2))


def test_decompose_doubling_with_patch():
    f = doubling_with_patch()
    g, h = decompose_affine(f)
    assert g.matrix == ((Fraction(2),),) and g.offset == (Fraction(0),)
    # the residue swaps the two patched points
    assert h.support_dim() == 0
    assert h.apply((Fraction(1),)) == (Fraction(2),)
    assert h.apply((Fraction(2),)) == (Fraction(1),)
    assert PAMap.from_affine(g).compose(h).same_map(f)


def test_decompose_needs_full_domain():
    shrunk = PAMap(1, [(make_block(AffineCoset.single_point((Fraction(0),))),
                        AffineMap.identity(1))])
    with pytest.raises(WorkbenchError):
        decompose_affine(shrunk)


def test_seeded_decompositions_leave_a_lower_dimensional_rest():
    # `decompose_affine` proves this rather than checking it
    rng = random.Random(3307)
    for ambient in (1, 2, 3):
        for _ in range(6):
            f = random_pamap(rng, ambient)
            g, h = decompose_affine(f)
            assert h.support_dim() < ambient
            assert PAMap.from_affine(g).compose(h).same_map(f)


def test_seeded_conjugates_are_valid():
    # `conjugate` does not check its result, since each compose checks
    # its factors
    rng = random.Random(3308)
    for ambient in (1, 2, 3):
        for _ in range(4):
            h = random_pamap(rng, ambient)
            for g in (random_pamap(rng, ambient), random_affine_map(rng, ambient)):
                k = conjugate(g, h)
                assert k.validate().passed
                assert k.support_dim() == h.support_dim()


def test_conjugation_preserves_support_dim():
    h = swap_map(2, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    g = AffineMap.make([[2, 1], [1, 1]], [3, -1])
    k = conjugate(g, h)
    assert k.support_dim() == h.support_dim() == 0
    moved = g.apply((Fraction(0), Fraction(0)))
    assert k.apply(moved) == g.apply((Fraction(1), Fraction(1)))


def test_conjugation_by_pamap():
    h = swap_map(1, (Fraction(0),), (Fraction(1),))
    g = PAMap.from_affine(AffineMap.make([[3]], [0]))
    k = conjugate(g, h)
    assert k.apply((Fraction(0),)) == (Fraction(3),)
    assert k.support_dim() == 0


# --- seeded random laws ------------------------------------------------------

def test_random_maps_satisfy_group_laws():
    rng = random.Random(1130)
    # the third maps come from their own stream, so f and g stay as they were
    third = random.Random(1131)
    for _ in range(25):
        ambient = rng.choice([1, 2])
        f = random_pamap(rng, ambient)
        g = random_pamap(rng, ambient)
        assert f.validate().passed
        ident = PAMap.identity(ambient)
        assert f.compose(f.invert()).same_map(ident)
        assert f.invert().compose(f).same_map(ident)
        fg = f.compose(g)
        assert fg.validate().passed
        assert fg.invert().same_map(g.invert().compose(f.invert()))
        h = random_pamap(third, ambient)
        assert fg.compose(h).same_map(f.compose(g.compose(h)))
        outside = fg.support().difference(f.support().union(g.support()))
        assert outside.is_empty
        pt = tuple(Fraction(rng.randint(-3, 3)) for _ in range(ambient))
        assert fg.apply(pt) == f.apply(g.apply(pt))
