"""Matrices and permutations: validation at the public constructors, and the
generated arithmetic kernels against an entrywise reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.errors import WorkbenchError
from modelk.matrices import MAX_N, Mat
from modelk.perms import Perm
from modelk.rings import GF, Zmod

SEEDED = settings(derandomize=True, database=None, deadline=None)
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


@settings(SEEDED, max_examples=400)
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


def test_sizes_up_to_the_kernel_bound():
    R = GF(3)
    big = Mat.identity(R, MAX_N)
    assert big.det() == R.one and big * big == big
    assert Mat(R, big.rows).inverse() == big
    rows = tuple(tuple(int(i == j) for j in range(MAX_N + 1)) for i in range(MAX_N + 1))
    with pytest.raises(WorkbenchError, match="over budget"):
        Mat(R, rows)
    with pytest.raises(WorkbenchError, match="over budget"):
        Mat.identity(R, MAX_N + 1)


def test_perm_rejects_a_non_bijection():
    for images in ((0, 0, 1), (1, 2, 3), (0, 2)):
        with pytest.raises(ValueError, match="bijection"):
            Perm(images)


def test_perm_products_and_inverses():
    p = Perm.cycle(4, (0, 1, 2))
    assert p * p.inverse() == Perm.identity(4) == p.identity_like()
    assert (p * p).images == (2, 0, 1, 3)
    assert hash(p * p) == hash(Perm((2, 0, 1, 3)))
    with pytest.raises(ValueError, match="degree"):
        p * Perm.identity(3)
