import random
from dataclasses import replace
from fractions import Fraction

import pytest

from modelk.automorphisms import AffineMap
from modelk.cosets import NEG_INF, AffineCoset, LinearSystem
from modelk.errors import WorkbenchError
from modelk.suites import random_coset
from rational_oracles import fresh_sort_key

F = Fraction


def line(ambient, coeffs, rhs):
    return AffineCoset.from_rows(ambient, [list(coeffs) + [rhs]])


def test_canonical_form_is_representation_independent():
    a = AffineCoset.from_rows(2, [[1, 1, 3], [1, -1, 1]])
    b = AffineCoset.from_rows(2, [[2, 0, 4], [0, 2, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 0
    assert a.particular_point() == (F(2), F(1))


def test_inconsistent_system_is_empty():
    c = AffineCoset.from_rows(2, [[1, 0, 0], [1, 0, 1]])
    assert c.empty
    assert c.dim == NEG_INF
    assert c == AffineCoset.empty_set(2)


def test_full_space():
    c = AffineCoset.full(3)
    assert c.dim == 3
    assert c.is_full
    assert c.contains((F(1), F(2), F(3)))


def test_zero_rows_are_dropped():
    c = AffineCoset.from_rows(2, [[0, 0, 0]])
    assert c.is_full


def test_contains_and_membership():
    c = line(2, (1, -1), 0)  # x1 = x2
    assert c.contains((F(2), F(2)))
    assert not c.contains((F(2), F(3)))


def test_intersection_and_subset():
    h = line(2, (1, 0), 1)
    v = line(2, (0, 1), 2)
    p = h.intersect(v)
    assert p.dim == 0
    assert p.particular_point() == (F(1), F(2))
    assert p.is_subset(h) and p.is_subset(v)
    assert p != h
    assert not h.is_subset(v)
    assert h.intersect(line(2, (1, 0), 2)).empty


def test_single_point_roundtrip():
    pt = (F(3, 2), F(-1))
    c = AffineCoset.single_point(pt)
    assert c.dim == 0
    assert c.particular_point() == pt
    assert c.contains(pt)


def test_direction_basis_spans_difference_of_points():
    c = line(3, (1, 1, 1), 0)
    basis = c.direction_basis()
    assert len(basis) == 2
    p = c.particular_point()
    for b in basis:
        q = tuple(x + d for x, d in zip(p, b))
        assert c.contains(q)


def test_translate():
    c = line(2, (1, 0), 0)
    t = c.translate((F(2), F(5)))
    assert t == line(2, (1, 0), 2)


def test_affine_image_and_preimage():
    c = line(2, (1, 0), 1)  # x1 = 1
    double = AffineMap.make([[2, 0], [0, 2]], [0, 0])
    img = c.pullback(double.inverse())
    assert img == line(2, (1, 0), 2)
    back = img.pullback(double)
    assert back == c


def test_affine_image_of_empty_stays_empty():
    e = AffineCoset.empty_set(2)
    img = e.pullback(AffineMap.translation([1, 1]).inverse())
    assert img.empty


def test_projection():
    # the plane x1 = y in Q^2 (coords x1, y) projects onto all of Q^1
    joint = AffineCoset.from_rows(2, [[1, -1, 0]])
    proj = joint.project(1)
    assert proj.is_full and proj.ambient == 1
    # a point projects to a point
    pt = AffineCoset.single_point((F(1), F(2)))
    assert pt.project(1) == AffineCoset.single_point((F(1),))


def test_product_and_embed():
    a = line(1, (1,), 2)           # the point 2
    b = AffineCoset.full(1)
    prod = a.product(b)            # the line x1 = 2 in Q^2
    assert prod == line(2, (1, 0), 2)
    emb = a.embed(3)
    assert emb.ambient == 3
    assert emb.contains((F(2), F(0), F(0)))
    assert a.embed(2) == line(2, (1, 0), 2).intersect(line(2, (0, 1), 0))


def test_integer_rows_clear_denominators():
    c = line(2, (F(1, 2), F(1, 3)), F(1, 6))
    rows = c.basis
    for row in rows:
        assert all(isinstance(x, int) for x in row)
    assert rows[0][0] > 0


def test_sort_key_total_order():
    cs = [line(2, (1, 0), k) for k in range(3)] + [AffineCoset.empty_set(2)]
    keys = [c.sort_key for c in cs]
    assert len(set(keys)) == len(keys)
    sorted(cs, key=lambda c: c.sort_key)


def test_sort_key_is_built_once_and_ignored_by_equality():
    rng = random.Random(33)
    rows = [[[rng.randint(-3, 3) for _ in range(4)]
             for _ in range(rng.randint(0, 3))] for _ in range(30)]
    filled = [AffineCoset.from_rows(3, r) for r in rows]
    keys = [c.sort_key for c in filled]
    fresh = [AffineCoset.from_rows(3, r) for r in rows]
    for c, key, other in zip(filled, keys, fresh):
        assert key == fresh_sort_key(c)
        assert c.sort_key is key
        assert c == other and hash(c) == hash(other)
        assert repr(c) == repr(other)
    order = sorted(range(30), key=lambda i: fresh[i].sort_key)
    assert order == sorted(range(30), key=lambda i: keys[i])
    assert order == sorted(range(30), key=lambda i: fresh_sort_key(filled[i]))
    # `replace` builds the key of the coset it returns, not of its source
    moved = replace(filled[0], basis=fresh[1].basis, empty=fresh[1].empty,
                    pivots=fresh[1].pivots)
    assert moved.sort_key == fresh_sort_key(fresh[1])


def test_row_width_validation():
    with pytest.raises(WorkbenchError):
        AffineCoset.from_rows(2, [[1, 0]])


def test_linear_system_projection_dim():
    # x1 = 2 y: projection is everything
    s = LinearSystem(1, 1, [[1, -2, 0]])
    assert s.coset().is_full
    # x1 = 2 y and x1 = y forces x1 = 0
    s2 = LinearSystem(1, 1, [[1, -2, 0], [1, -1, 0]])
    assert s2.coset() == AffineCoset.single_point((F(0),))
    assert all(type(x) is int for row in s.rows for x in row)
    # a fractional row is stored times the lcm of its denominators
    half = LinearSystem(1, 0, [[F(1, 2), 1]])
    assert half.rows == ((1, 2),)
    assert all(type(x) is int for row in half.rows for x in row)


def test_linear_system_width_check():
    with pytest.raises(WorkbenchError):
        LinearSystem(2, 1, [[1, 0, 0]])


def test_random_cosets_contain_their_particular_point():
    rng = random.Random(31)
    for _ in range(40):
        ambient = rng.randint(1, 3)
        c = random_coset(rng, ambient)
        if not c.empty:
            assert c.contains(c.particular_point())
            # directions keep you inside the coset
            for d in c.direction_basis():
                q = tuple(x + 3 * v for x, v in
                          zip(c.particular_point(), d))
                assert c.contains(q)


def test_intersect_is_commutative_and_monotone():
    rng = random.Random(32)
    for _ in range(30):
        ambient = rng.randint(1, 3)
        a = random_coset(rng, ambient)
        b = random_coset(rng, ambient)
        ab = a.intersect(b)
        assert ab == b.intersect(a)
        assert ab.is_subset(a) and ab.is_subset(b)
        if not ab.empty:
            assert ab.dim <= min(a.dim, b.dim)
