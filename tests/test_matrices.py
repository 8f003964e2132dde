"""Matrices and permutations: validation at the public constructors, and the
generated arithmetic kernels against an entrywise reference and, past the
reference's reach, against the laws of det and inverse."""

import random
import re
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.errors import WorkbenchError
from modelk.matrices import Mat, _compile, _sum, _tuple
from modelk.perms import Perm
from modelk.rings import _MODULUS, GF, Zmod

RINGS = [Zmod(4), Zmod(6), Zmod(8), Zmod(9),
         GF(2), GF(3), GF(5), GF(4), GF(8), GF(9)]


def _ref_dot(R, xs, ys):
    acc = R.zero
    for x, y in zip(xs, ys):
        acc = R.add(acc, R.mul(x, y))
    return acc


def _ref_mul(R, a, b):
    cols = list(zip(*b))
    return tuple(tuple(_ref_dot(R, row, col) for col in cols) for row in a)


def _ref_det(R, a):
    """Laplace expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    total = R.zero
    for j, c in enumerate(a[0]):
        term = R.mul(c, _ref_det(R, [r[:j] + r[j + 1:] for r in a[1:]]))
        total = R.add(total, term if j % 2 == 0 else R.neg(term))
    return total


def _identity(R, n):
    return tuple(tuple(R.one if i == j else R.zero for j in range(n)) for i in range(n))


@st.composite
def _matrices(draw):
    """A ring, a size n <= 4, two n x n matrices and an n-vector over it."""
    R = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 4))
    entry = st.integers(0, R.size - 1)
    row = st.tuples(*[entry] * n)
    square = st.tuples(*[row] * n)
    return R, draw(square), draw(square), draw(row)


@settings(max_examples=400)
@given(_matrices())
def test_kernels_match_entrywise_reference(case):
    R, a, b, v = case
    A, B = Mat(R, a), Mat(R, b)
    assert (A * B).rows == _ref_mul(R, a, b)
    assert A.apply(v) == tuple(_ref_dot(R, row, v) for row in a)
    d = _ref_det(R, a)
    assert A.det() == d
    if R.is_unit(d):
        inv = A.inverse().rows
        assert _ref_mul(R, a, inv) == _ref_mul(R, inv, a) == _identity(R, len(a))
    else:
        with pytest.raises(WorkbenchError):
            A.inverse()


def test_products_are_hashable_and_equal_to_validated_matrices():
    R = GF(3)
    m = Mat(R, ((1, 2), (0, 1)))
    p = m * m
    q = Mat(R, ((1, 1), (0, 1)))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p * m.inverse() == m
    assert m.identity_like() == Mat(R, ((1, 0), (0, 1)))
    assert m != Mat(Zmod(3), m.rows)


def test_apply_rejects_a_vector_of_the_wrong_length():
    m = Mat(GF(3), ((1, 2), (0, 1)))
    for vec in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="length"):
            m.apply(vec)


def test_product_of_different_sizes_names_both():
    with pytest.raises(ValueError, match="2x2 times 3x3"):
        Mat.identity(GF(3), 2) * Mat.identity(GF(3), 3)


def test_product_over_different_rings_is_rejected():
    with pytest.raises(ValueError, match="ring mismatch"):
        Mat.identity(GF(3), 2) * Mat.identity(Zmod(3), 2)


def test_mat_rejects_entries_outside_the_ring():
    with pytest.raises(ValueError, match="outside"):
        Mat(GF(3), ((1, 3), (0, 1)))
    with pytest.raises(ValueError, match="outside"):
        Mat(Zmod(4), ((1, 0), (-1, 1)))
    with pytest.raises(ValueError, match="outside"):
        Mat(Zmod(4), ((1.0, 0), (0, 1)))


def test_mat_rejects_ragged_and_non_square_rows():
    with pytest.raises(ValueError, match="square"):
        Mat(GF(3), ((1, 0), (0,)))
    with pytest.raises(ValueError, match="square"):
        Mat(GF(3), ((1, 0, 0), (0, 1, 0)))


# seeded cases of n = 5..16 over fields and over Z_m with zero divisors
LARGE_CASES = [(R, n) for R in (GF(2), GF(3), GF(4), Zmod(6), Zmod(8))
               for n in (5, 8, 12, 16)]


def _mat(R, n, entry):
    return Mat(R, tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))


def _random_mat(R, n, rng):
    return _mat(R, n, lambda i, j: rng.randrange(R.size))


@pytest.mark.parametrize("R, n", LARGE_CASES, ids=str)
def test_det_is_multiplicative_and_inverses_round_trip(R, n):
    rng = random.Random(f"{R}-{n}")
    for _ in range(3):
        A, B = _random_mat(R, n, rng), _random_mat(R, n, rng)
        assert (A * B).det() == R.mul(A.det(), B.det())
    while not R.is_unit(A.det()):
        A = _random_mat(R, n, rng)
    inv = A.inverse()
    assert A * inv == inv * A == Mat.identity(R, n)
    assert inv.inverse() == A


@pytest.mark.parametrize("R, n", LARGE_CASES, ids=str)
def test_det_of_a_plu_product_is_the_sign_times_the_diagonal(R, n):
    rng = random.Random(f"plu-{R}-{n}")
    images = list(range(n))
    rng.shuffle(images)
    # the sign of a permutation is the parity of n minus its cycle count
    seen, cycles = set(), 0
    for start in range(n):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = images[start]
    diagonal = [rng.randrange(R.size) for _ in range(n)]
    P = _mat(R, n, lambda i, j: int(images[i] == j))
    L = _mat(R, n, lambda i, j: rng.randrange(R.size) if i > j else int(i == j))
    D = _mat(R, n, lambda i, j: diagonal[i] if i == j else 0)
    U = _mat(R, n, lambda i, j: rng.randrange(R.size) if i < j else int(i == j))
    det = R.one if (n - cycles) % 2 == 0 else R.neg(R.one)
    for d in diagonal:
        det = R.mul(det, d)
    assert (P * L * D * U).det() == det


@pytest.mark.parametrize("m", [6, 8])
def test_non_unit_det_over_zmod_is_named(m):
    R = Zmod(m)
    for n in (5, 12):
        # an upper triangle with diagonal (2, 1, ..., 1) has det 2
        A = _mat(R, n, lambda i, j: (i + j) % m if i < j else 2 if i == j == 0
                 else int(i == j))
        assert A.det() == 2
        with pytest.raises(WorkbenchError, match=f"singular over Z_{m}: det = 2$"):
            A.inverse()


def test_kernels_are_compiled_on_first_use():
    # sizes no other test uses, so that these kernel objects are new here
    start = time.process_time()
    big = Mat.identity(GF(2), 48)
    assert time.process_time() - start < 0.05
    assert not {"mul", "apply"} & set(big._k.__dict__)
    m = Mat.identity(Zmod(10), 9)
    fresh = set(m._k.__dict__)
    assert m.det() == 1
    assert set(m._k.__dict__) == fresh  # a det compiles no kernel


def test_a_40_square_identity_has_det_1_and_is_its_own_inverse():
    start = time.process_time()
    one = Mat.identity(GF(2), 40)
    assert one.det() == 1
    assert one.inverse() == one
    assert time.process_time() - start < 1


def test_the_0_square_matrix_is_its_own_inverse():
    empty = Mat(GF(2), ())
    assert empty.det() == 1
    assert empty.inverse() == empty


def test_a_24_square_product_of_transvections_times_its_inverse_is_one():
    start = time.process_time()
    R, n, rng = Zmod(6), 24, random.Random(24)
    a = Mat.identity(R, n)
    for _ in range(60):
        i, j = rng.sample(range(n), 2)
        a = a * Mat.transvection(R, n, i, j, rng.randrange(1, R.size))
    assert a != Mat.identity(R, n)
    assert a * a.inverse() == Mat.identity(R, n)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("ring", [GF(4), Zmod(6)], ids=str)
def test_a_long_generated_sum_compiles_and_adds_in_the_ring(ring):
    rng = random.Random(300)
    xs = [rng.randrange(ring.size) for _ in range(300)]
    names = [f"x{i}" for i in range(300)]
    total = _compile("total", "xs", [f"{_tuple(names)} = xs", f"return {_sum(names)}"],
                     ring)
    assert total(xs) == reduce(ring.add, xs)


@pytest.mark.parametrize("q", sorted(_MODULUS))
def test_each_fixed_modulus_gives_a_field(q):
    # the rings build GF(p^e) from these moduli and check no axiom at run time
    F = GF(q)
    els = F.elements
    assert len(els) == q
    for a in els:
        assert F.add(a, F.zero) == a and F.mul(a, F.one) == a
        assert a == F.zero or F.mul(a, F.inv(a)) == F.one
        for b in els:
            assert F.add(a, b) == F.add(b, a) and F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_perm_rejects_a_non_bijection():
    for images in ((0, 0, 1), (1, 2, 3), (0, 2)):
        with pytest.raises(ValueError, match="bijection"):
            Perm(images)


def test_perm_refuses_images_that_are_not_ints():
    # 1.0 == 1, so a float image passed the bijection check and then broke
    # every product that indexed with it
    for images in ((1.0, 0), (0, 1, 2.0), (True, False)):
        with pytest.raises(ValueError, match="ints"):
            Perm(images)


def test_a_cycle_that_repeats_a_point_is_refused():
    # (0, 1, 1) wrote images 0 -> 1, 1 -> 1, 1 -> 0 and returned Perm(1, 0, 2);
    # -1 indexed point 2, so (2, -1) returned the identity
    for points in ((0, 1, 1), (2, -1), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"a cycle needs distinct points of 0..2: {points}")):
            Perm.cycle(3, points)
    assert Perm.cycle(3, (0, 1)) == (1, 0, 2)


def test_perm_holds_a_list_as_its_image_tuple():
    p = Perm([1, 0])
    assert type(p) is Perm and p == (1, 0)
    assert repr(p) == "Perm(1, 0)"
    assert hash(p) == hash(Perm((1, 0)))
    assert len({p, Perm((1, 0)), Perm.transposition(2, 0, 1)}) == 1
    assert repr(Perm([0])) == "Perm(0,)"


def test_perm_products_and_inverses():
    p = Perm.cycle(4, (0, 1, 2))
    assert p * p.inverse() == Perm.identity(4) == p.identity_like()
    assert p * p == (2, 0, 1, 3)
    assert hash(p * p) == hash(Perm((2, 0, 1, 3)))
    with pytest.raises(ValueError, match="degree"):
        p * Perm.identity(3)


def test_perm_refuses_tuple_concatenation_and_repetition():
    # as a tuple subclass it inherited + and integer repetition, which
    # returned the plain tuple (1, 0, 1, 0)
    p = Perm((1, 0))
    for apply, types in [(lambda: p + p, "+: 'Perm' and 'Perm'"),
                         (lambda: (1, 0) + p, "+: 'tuple' and 'Perm'"),
                         (lambda: 2 * p, "*: 'int' and 'Perm'"),
                         (lambda: p * 2, "*: 'Perm' and 'int'"),
                         (lambda: p * (1, 0), "*: 'Perm' and 'tuple'")]:
        message = f"^unsupported operand types for {re.escape(types)}$"
        with pytest.raises(TypeError, match=message):
            apply()


def _images(degree):
    return st.permutations(range(degree)).map(tuple)


_DEGREES = st.integers(0, 6)


@given(_DEGREES.flatmap(lambda n: st.tuples(_images(n), _images(n))),
       _DEGREES.flatmap(_images))
def test_perms_act_and_compare_as_their_image_tuples(pair, other):
    # a Perm is its image tuple: ==, hash and order are the tuple's, and the
    # product and inverse match a reference on plain tuples
    a, b = pair
    p, q = Perm(a), Perm(b)
    assert (p == q) == (a == b) and (p < q) == (a < b)
    assert hash(p) == hash(a)
    assert sorted([q, p, Perm(other)]) == sorted([b, a, other])
    product = tuple(a[y] for y in b)
    inverse = tuple(sorted(range(len(a)), key=a.__getitem__))
    assert type(p * q) is Perm and p * q == product
    assert type(p.inverse()) is Perm and p.inverse() == inverse
    assert all(p(x) == a[x] for x in range(len(a)))
    if len(other) != len(a):
        with pytest.raises(ValueError, match="degree"):
            p * Perm(other)
