import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.cosets import NEG_INF, AffineCoset, LinearSystem
from modelk.defsets import (And, Block, DefinableSet, K0Class, Not, Or,
                            block_class, boolean_normalize, definable_dim,
                            definably_isomorphic, k0_class, make_block,
                            shift_witness, witness_point)
from modelk.errors import WorkbenchError
from modelk.suites import random_coset, random_expression, random_point
from rational_oracles import fresh_sort_key, make_block_all_pairs

F = Fraction


def line(ambient, coeffs, rhs):
    return AffineCoset.from_rows(ambient, [list(coeffs) + [rhs]])


def line_system(ambient, coeffs, rhs):
    return LinearSystem(ambient, 0, [list(coeffs) + [rhs]])


def pt(*xs):
    return AffineCoset.single_point(tuple(F(x) for x in xs))


def test_make_block_clips_and_prunes_holes():
    carrier = line(2, (0, 1), 0)  # the x1 axis
    off = line(2, (0, 1), 5)      # parallel line: irrelevant hole
    b = make_block(carrier, [off, pt(1, 0)])
    assert b is not None
    assert len(b.holes) == 1
    assert b.holes[0] == pt(1, 0)


def test_make_block_none_when_covered():
    p = pt(3, 4)
    assert make_block(p, [p]) is None
    assert make_block(AffineCoset.empty_set(2)) is None


def test_make_block_antichain():
    carrier = AffineCoset.full(2)
    l = line(2, (1, 0), 0)
    p = pt(0, 0)  # inside l: swallowed
    b = make_block(carrier, [l, p])
    assert b.holes == (l,)


def test_block_dim_and_contains():
    b = make_block(AffineCoset.full(1), [pt(5)])
    assert b.dim == 1
    assert b.contains((F(4),))
    assert not b.contains((F(5),))


def test_witness_point_avoids_holes():
    b = make_block(line(2, (1, -1), 0), [pt(0, 0), pt(1, 1)])
    w = witness_point(b)
    assert b.contains(w)


def test_definable_set_difference_union_intersection():
    plane = DefinableSet.full_space(2)
    l = DefinableSet.from_coset(line(2, (1, 0), 0))
    diff = plane.difference(l)
    assert not diff.contains((F(0), F(3)))
    assert diff.contains((F(1), F(3)))
    assert diff.union(l).same_set(plane)
    assert diff.intersect(l).is_empty
    assert l.intersect(plane).same_set(l)


def test_same_set_on_different_presentations():
    # {x1 = 0} u {x1 = 1} built two ways
    a = DefinableSet.from_coset(line(1, (1,), 0)).union(
        DefinableSet.from_coset(line(1, (1,), 1)))
    full_minus = DefinableSet.full_space(1).difference(a)
    rebuilt = DefinableSet.full_space(1).difference(full_minus)
    assert rebuilt.same_set(a)


def test_complement_and_demorgan():
    rng = random.Random(7)
    for _ in range(15):
        ambient = rng.randint(1, 2)
        a = _random_set(rng, ambient)
        b = _random_set(rng, ambient)
        lhs = a.union(b).complement()
        rhs = a.complement().intersect(b.complement())
        assert lhs.same_set(rhs)


def _random_set(rng, ambient):
    blocks = []
    for _ in range(rng.randint(1, 2)):
        carrier = random_coset(rng, ambient)
        holes = [random_coset(rng, ambient) for _ in range(rng.randint(0, 2))]
        b = make_block(carrier, holes)
        if b is not None:
            blocks.append(b)
    return DefinableSet.from_blocks(ambient, blocks)


def test_product_dimension_adds():
    a = DefinableSet.from_coset(line(2, (1, 0), 0))   # dim 1
    b = DefinableSet.from_coset(pt(3))                # dim 0
    prod = a.product(b)
    assert prod.ambient == 3
    assert definable_dim(prod) == 1
    assert k0_class(prod) == k0_class(a) * k0_class(b)


def test_k0_class_ring_ops():
    x = K0Class.make([0, 1])
    one = K0Class.make([1])
    assert (x + one).pretty() == "X + 1"
    assert (x - x).is_zero
    assert (x * x).degree == 2
    assert (2 * x - one).evaluate(5) == 9 if hasattr(K0Class, "__rmul__") \
        else (x + x - one).evaluate(5) == 9
    assert K0Class.zero().degree == NEG_INF


def test_crossing_lines_class():
    expr = Or(line_system(2, (1, 0), 0), line_system(2, (0, 1), 0))
    d = boolean_normalize(expr, 2)
    cls = k0_class(d)
    assert cls == K0Class.make([-1, 2])
    assert cls.pretty() == "2X - 1"
    assert definable_dim(d) == 1


def test_plane_minus_line_class():
    expr = And(LinearSystem(2, 0, []), Not(line_system(2, (1, 0), 0)))
    d = boolean_normalize(expr, 2)
    assert k0_class(d) == K0Class.make([0, -1, 1])


def _deep_trees(leaf):
    """1,200 nested Nots, and a left-deep Or chain of 1,100 copies, of a
    leaf: each denotes the leaf's set and is past the interpreter's
    recursion limit."""
    nots = chain = leaf
    for _ in range(1200):
        nots = Not(nots)
    for _ in range(1099):
        chain = Or(chain, leaf)
    return nots, chain


def test_deep_trees_built_in_python_normalize_to_their_leaf():
    leaf = line_system(2, (1, -2), 1)
    expected = boolean_normalize(leaf, 2)
    for tree in _deep_trees(leaf):
        assert boolean_normalize(tree, 2) == expected
    assert boolean_normalize(Not(_deep_trees(leaf)[0]), 2) == expected.complement()


def test_block_class_inclusion_exclusion():
    carrier = AffineCoset.full(2)
    l1 = line(2, (1, 0), 0)
    l2 = line(2, (0, 1), 0)
    b = make_block(carrier, [l1, l2])
    # X^2 - 2X + 1: plane minus two lines meeting at a point
    assert block_class(b) == K0Class.make([1, -2, 1])


def _class_over_all_subsets(block):
    """Inclusion-exclusion over every subset of holes, each intersection
    stacked from the rational rows (an empty coset has none, and meets
    nothing)."""
    coeffs = [0] * (block.ambient + 1)
    for size in range(len(block.holes) + 1):
        for subset in itertools.combinations(block.holes, size):
            if any(c.empty for c in (block.carrier, *subset)):
                continue
            rows = [r for c in (block.carrier, *subset) for r in c.rows]
            meet = AffineCoset.from_rows(block.ambient, rows)
            if not meet.empty:
                coeffs[meet.dim] += (-1) ** size
    return K0Class.make(coeffs)


def test_block_class_matches_every_subset():
    rng = random.Random(4444)
    # a pencil of planes through one line, where every subset meets
    pencil = [AffineCoset.from_rows(3, [[1, t, 0, 0]]) for t in range(7)]
    blocks = [make_block(AffineCoset.full(3), pencil)]
    for _ in range(30):
        ambient = rng.randint(1, 3)
        holes = [random_coset(rng, ambient) for _ in range(rng.randint(0, 6))]
        blocks.append(make_block(random_coset(rng, ambient), holes))
    for b in blocks:
        if b is not None:
            assert block_class(b) == _class_over_all_subsets(b)
    assert block_class(blocks[0]) == K0Class.make([0, 6, -7, 1])


def _hyperplanes(ambient, ts):
    """x1 + t x2 + ... + t^(n-1) xn = t^n, one per t: distinct t put them
    in general position (a Vandermonde system)."""
    return [AffineCoset.from_rows(
        ambient, [[t ** i for i in range(ambient + 1)]]) for t in ts]


def test_block_class_of_general_position_past_sixteen_holes():
    # each k <= n of the h hyperplanes meet in their own (n - k)-coset, so
    # the class is sum over k <= n of (-1)^k C(h, k) X^(n - k)
    for ambient in (2, 3):
        for h in range(16, 25):
            b = make_block(AffineCoset.full(ambient),
                           _hyperplanes(ambient, range(h)))
            assert len(b.holes) == h
            assert block_class(b) == K0Class.make(
                [(-1) ** (ambient - d) * math.comb(h, ambient - d)
                 for d in range(ambient + 1)])


def test_block_class_of_pencils():
    # h planes through one line: X^3 - h X^2 + (h - 1) X, however large h
    for h in (1, 2, 7, 16, 17, 20, 40, 60):
        pencil = [AffineCoset.from_rows(3, [[1, t, 0, 0]]) for t in range(h)]
        b = make_block(AffineCoset.full(3), pencil)
        assert block_class(b) == K0Class.make([0, h - 1, -h, 1])


def test_block_class_matches_every_subset_up_to_twelve_holes():
    rng = random.Random(4545)
    pencil = [AffineCoset.from_rows(3, [[1, t, 0, 0]]) for t in range(6)]
    through_origin = [AffineCoset.from_rows(2, [[1, t, 0]]) for t in range(8)]
    blocks = [make_block(AffineCoset.full(3),
                         pencil + _hyperplanes(3, range(1, 7))),
              make_block(AffineCoset.full(2),
                         through_origin + _hyperplanes(2, range(1, 5))),
              make_block(_hyperplanes(3, [9])[0],
                         pencil + _hyperplanes(3, range(6)))]
    for _ in range(6):
        ambient = rng.randint(2, 3)
        holes = [random_coset(rng, ambient) for _ in range(rng.randint(9, 12))]
        blocks.append(make_block(AffineCoset.full(ambient),
                                 [h for h in holes if not h.is_full]))
    for b in blocks:
        assert len(b.holes) <= 12
        assert block_class(b) == _class_over_all_subsets(b)
    assert max(len(b.holes) for b in blocks) == 12


@st.composite
def _arrangement(draw):
    """A carrier in Q^1..Q^3 and up to 8 holes of mixed dimension, in the
    order drawn: cosets through one centre, so that several pairs meet in
    one point; translates of earlier holes, which miss them; points, half
    of them the centre; and free cosets.  The carrier is any coset, through
    the centre or not."""
    n = draw(st.integers(1, 3))
    centre = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    normal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)

    def rows(codim, through=None):
        out = []
        for _ in range(codim):
            a = draw(normal)
            out.append(a + [draw(st.integers(-2, 2)) if through is None
                            else sum(x * c for x, c in zip(a, through))])
        return out

    carrier = rows(draw(st.integers(0, n)),
                   centre if draw(st.booleans()) else None)
    holes = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("through", "parallel", "point", "free")))
        if kind == "parallel" and holes:
            shift = draw(st.integers(1, 2))
            holes.append([r[:-1] + [r[-1] + shift]
                          for r in draw(st.sampled_from(holes))])
        elif kind == "point":
            at = centre if draw(st.booleans()) else draw(
                st.lists(st.integers(-1, 1), min_size=n, max_size=n))
            holes.append([[int(i == j) for j in range(n)] + [at[i]]
                          for i in range(n)])
        else:
            holes.append(rows(draw(st.integers(1, n)),
                              centre if kind == "through" else None))
    return (AffineCoset.from_rows(n, carrier),
            tuple(AffineCoset.from_rows(n, r) for r in holes))


def _arrangement_features(b):
    """What a block shows of the cases the walk must get right."""
    seen = {("carrier", b.carrier.dim)} | {("hole", h.dim) for h in b.holes}
    clipped = [b.carrier.intersect(h) for h in b.holes]
    meets = [clipped[i].intersect(clipped[j])
             for i, j in itertools.combinations(range(len(b.holes)), 2)
             if clipped[i].dim >= 1 and clipped[j].dim >= 1]
    points = [m for m in meets if m.dim == 0]
    if len(points) > len(set(points)):
        seen.add("pairs meeting in one point")
    if any(m.empty for m in meets):
        seen.add("parallel")
    # the carrier, or a hole's point in it, inside a later hole that is a
    # line or a plane
    if any(p.dim == 0 and any(h.dim >= 1 and p.is_subset(h)
                              for h in b.holes[i + 1:])
           for i, p in enumerate([b.carrier] + clipped, -1)):
        seen.add("point on a later hole")
    return seen


def test_block_class_matches_every_subset_on_drawn_arrangements():
    """Both the canonical block and the block of the holes as drawn: only
    the second has points inside later holes, since `make_block` keeps an
    antichain sorted by falling dimension."""
    seen = set()

    @settings(max_examples=300)
    @given(_arrangement())
    def check(case):
        carrier, holes = case
        for b in (make_block(carrier, holes), Block(carrier, holes)):
            if b is not None:
                assert block_class(b) == _class_over_all_subsets(b)
                seen.update(_arrangement_features(b))

    check()
    assert seen >= {("carrier", 0), ("carrier", 1), ("hole", 0), ("hole", 1),
                    ("hole", 2), "pairs meeting in one point", "parallel",
                    "point on a later hole"}


@st.composite
def _carrier_and_holes(draw):
    """A carrier in Q^1..Q^4 and up to 8 holes: fresh cosets, cosets nested
    in earlier holes, earlier holes written with other rows, and, in about
    half the draws, one hole that contains the carrier."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1)
    carrier = draw(st.lists(row, max_size=n - 1))
    holes = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("fresh", "nested", "same")))
        if kind == "fresh" or not holes:
            holes.append(draw(st.lists(row, min_size=1, max_size=n)))
        elif kind == "nested":
            holes.append(draw(st.sampled_from(holes))
                         + draw(st.lists(row, min_size=1, max_size=2)))
        else:
            holes.append([[2 * x for x in r]
                          for r in reversed(draw(st.sampled_from(holes)))])
    if draw(st.booleans()):
        swallow = draw(st.lists(st.sampled_from(carrier), max_size=n)
                       if carrier else st.just([]))
        holes.insert(draw(st.integers(0, len(holes))), swallow)
    return (AffineCoset.from_rows(n, carrier),
            [AffineCoset.from_rows(n, rows) for rows in holes])


@settings(max_examples=300)
@given(_carrier_and_holes())
def test_make_block_matches_the_all_pairs_antichain(case):
    carrier, holes = case
    b = make_block(carrier, holes)
    assert b == make_block_all_pairs(carrier, holes)
    if b is not None:
        assert [fresh_sort_key(h) for h in b.holes] == sorted(
            fresh_sort_key(h) for h in b.holes)


def test_block_and_set_order_follow_fresh_keys():
    rng = random.Random(4646)
    for _ in range(20):
        ambient = rng.randint(1, 3)
        d = _random_set(rng, ambient).union(_random_set(rng, ambient))
        keys = [(fresh_sort_key(b.carrier),
                 tuple(fresh_sort_key(h) for h in b.holes)) for b in d.blocks]
        assert keys == sorted(keys)
        assert [b.sort_key() for b in d.blocks] == keys


def test_class_is_presentation_invariant():
    rng = random.Random(21)
    for _ in range(25):
        ambient = rng.randint(1, 3)
        expr = random_expression(rng, ambient)
        d = boolean_normalize(expr, ambient)
        again = boolean_normalize(Not(Not(expr)), ambient)
        assert d.same_set(again)
        assert k0_class(d) == k0_class(again)


def test_class_additivity_on_disjoint_pieces():
    rng = random.Random(22)
    for _ in range(20):
        ambient = rng.randint(1, 2)
        a = _random_set(rng, ambient)
        b = _random_set(rng, ambient)
        a_only = a.difference(b)
        b_only = b.difference(a)
        both = a.intersect(b)
        total = a.union(b)
        assert k0_class(a_only) + k0_class(b_only) + k0_class(both) \
            == k0_class(total)


def test_membership_matches_expression_semantics():
    rng = random.Random(23)
    for _ in range(20):
        ambient = rng.randint(1, 2)
        expr = random_expression(rng, ambient)
        d = boolean_normalize(expr, ambient)
        for _ in range(8):
            p = random_point(rng, ambient)
            assert d.contains(p) == _eval_expr(expr, p)


def _eval_expr(expr, point):
    if isinstance(expr, LinearSystem):
        return expr.coset().contains(point)
    if isinstance(expr, Not):
        return not _eval_expr(expr.child, point)
    if isinstance(expr, And):
        return _eval_expr(expr.left, point) and _eval_expr(expr.right, point)
    return _eval_expr(expr.left, point) or _eval_expr(expr.right, point)


def test_definably_isomorphic_is_class_equality():
    l1 = DefinableSet.from_coset(line(2, (1, 0), 0))
    l2 = DefinableSet.from_coset(line(2, (1, -1), 7))
    assert definably_isomorphic(l1, l2)
    p = DefinableSet.from_coset(pt(0, 0))
    assert not definably_isomorphic(l1, p)
    assert not definably_isomorphic(l1, l1.difference(p))


def test_witness_returns_member():
    d = DefinableSet.full_space(2).difference(
        DefinableSet.from_coset(line(2, (1, 0), 0)))
    w = d.witness()
    assert d.contains(w)
    with pytest.raises(WorkbenchError):
        DefinableSet.empty(2).witness()


def test_shift_witness_spec_shape():
    # two lines in Q^2 with m = 0: the shifted copy overlaps in dim 1
    d1 = DefinableSet.from_coset(line(2, (0, 1), 0))
    d2 = DefinableSet.from_coset(line(2, (1, 0), 0))
    shifted, note = shift_witness(d1, d2, 0)
    overlap = shifted.intersect(d1)
    assert definable_dim(overlap) >= 1
    assert k0_class(shifted) == k0_class(d2)
    assert isinstance(note, str) and note


def test_shift_witness_random_property():
    rng = random.Random(77)
    done = 0
    while done < 12:
        ambient = rng.randint(1, 2)
        a = _random_set(rng, ambient)
        b = _random_set(rng, ambient)
        m = min(definable_dim(a), definable_dim(b))
        if m == NEG_INF:
            continue
        target = int(m) - 1
        shifted, _ = shift_witness(a, b, target)
        assert k0_class(shifted) == k0_class(b)
        overlap = shifted.intersect(a)
        assert definable_dim(overlap) > target
        done += 1


def test_shift_witness_rejects_empty():
    with pytest.raises(WorkbenchError):
        shift_witness(DefinableSet.empty(1), DefinableSet.full_space(1), 0)


def test_boolean_normalize_needs_matching_ambient():
    with pytest.raises(WorkbenchError):
        boolean_normalize(LinearSystem(2, 0, []), 1)
