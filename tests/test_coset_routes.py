"""Seeded property tests: the integer coset routes against rational oracles.

A coset stores primitive integer RREF rows, and intersection, the subset
test, images, preimages, projections, products, embeddings and translates
are computed on them.  Each route is held here against the same question
answered from raw rational rows by `AffineCoset.from_rows`, or against the
rational formula the routes replaced, kept here as the oracle.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modelk.automorphisms import AffineMap
from modelk.cosets import AffineCoset
from modelk.defsets import make_block
from modelk.linalg import integer_row, rank
from rational_oracles import mat_inv

_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))


@st.composite
def _raw_coset(draw, n, point):
    """(raw augmented rows, their coset): fewer than n random rows, most of
    them through the given point so that cosets often meet, the full space,
    a point, or the empty set."""
    kind = draw(st.sampled_from(("rows", "rows", "rows", "full", "point", "empty")))
    if kind == "full":
        raw = []
    elif kind == "point":
        point = draw(st.lists(_rationals, min_size=n, max_size=n))
        raw = [[int(i == j) for j in range(n)] + [x] for i, x in enumerate(point)]
    elif kind == "empty":
        raw = [[0] * n + [1]]
    else:
        raw = []
        for _ in range(draw(st.integers(1, max(1, n - 1)))):
            coeffs = draw(st.lists(_rationals, min_size=n, max_size=n))
            through = draw(st.sampled_from((True, True, True, False)))
            rhs = (sum(a * x for a, x in zip(coeffs, point)) if through
                   else draw(_rationals))
            raw.append(coeffs + [rhs])
    return raw, AffineCoset.from_rows(n, raw)


@st.composite
def _pair(draw):
    """Two cosets of one Q^n, n <= 4; the second is often cut out by some
    of the first's raw rows, so that the first lies in it."""
    n = draw(st.integers(1, 4))
    point = draw(st.lists(_rationals, min_size=n, max_size=n))
    raw_a, a = draw(_raw_coset(n, point))
    if raw_a and draw(st.booleans()):
        raw_b = draw(st.lists(st.sampled_from(raw_a), max_size=len(raw_a)))
        b = AffineCoset.from_rows(n, raw_b)
    else:
        raw_b, b = draw(_raw_coset(n, point))
    return n, raw_a, a, raw_b, b


@st.composite
def _invertible(draw, n):
    matrix = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assume(rank(matrix) == n)
    return matrix, draw(st.lists(_rationals, min_size=n, max_size=n))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _image_by_fractions(coset, matrix, offset):
    """The rational image formula: row * M^-1, rhs shifted by the offset."""
    if coset.empty:
        return coset
    minv = mat_inv(matrix)
    rows = []
    for old in coset.rows:
        row = [_dot(old[:-1], col) for col in zip(*minv)]
        rows.append(row + [old[-1] + _dot(row, offset)])
    return AffineCoset.from_rows(coset.ambient, rows)


def _project_by_fractions(coset, keep):
    """The rational projection: eliminate the dropped columns, last first."""
    if coset.empty:
        return AffineCoset.empty_set(keep)
    rows = [list(r) for r in coset.rows]
    for col in range(coset.ambient - 1, keep - 1, -1):
        pivot = next((i for i in range(len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        prow = rows.pop(pivot)
        for row in rows:
            if row[col] != 0:
                f = row[col] / prow[col]
                for j in range(len(row)):
                    row[j] -= f * prow[j]
    return AffineCoset.from_rows(keep, [row[:keep] + [row[-1]] for row in rows])


@settings(max_examples=400)
@given(_pair())
def test_intersect_and_subset_match_the_stacked_rows(pair):
    n, raw_a, a, raw_b, b = pair
    stacked = AffineCoset.from_rows(n, raw_a + raw_b)
    assert a.intersect(b) == stacked == b.intersect(a)
    assert a.is_subset(b) == (stacked == a)
    assert b.is_subset(a) == (stacked == b)


def _check_stored_form(c):
    assert c.basis == tuple(tuple(integer_row(r)) for r in c.rows)
    for row, p in zip(c.basis, c.pivots):
        assert row[p] > 0
        assert all(x == 0 for x in row[:p])
        assert tuple(integer_row(row)) == row  # primitive


@given(_pair())
def test_stored_rows_are_the_primitive_rational_rref(pair):
    _, _, a, _, b = pair
    _check_stored_form(a)
    _check_stored_form(a.intersect(b))


def test_a_residue_with_a_common_factor_is_divided_out():
    # 2*(x + 2y) - (2x + y) = 3y: the residue 3y = 0 must become y = 0
    a = AffineCoset.from_rows(3, [[2, 1, 0, 0]])
    b = AffineCoset.from_rows(3, [[1, 2, 0, 0]])
    meet = a.intersect(b)
    assert meet == AffineCoset.from_rows(3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    _check_stored_form(meet)


@given(st.data())
def test_images_and_preimages_match_the_rational_formula(data):
    n, raw_a, a, raw_b, b = data.draw(_pair())
    matrix, offset = data.draw(_invertible(n))
    image = _image_by_fractions(a, matrix, offset)
    mapping = AffineMap.make(matrix, offset)
    assert a.pullback(mapping.inverse()) == image
    assert image.pullback(mapping) == a
    block = make_block(a, [b])
    if block is not None:
        assert mapping.preimage_block(block) == mapping.inverse().image_block(block)


@given(_pair(), st.data())
def test_projection_product_embedding_and_translate(pair, data):
    n, raw_a, a, raw_b, b = pair
    keep = data.draw(st.integers(0, n))
    assert a.project(keep) == _project_by_fractions(a, keep)
    padded = [list(r[:-1]) + [0] * n + [r[-1]] for r in raw_a]
    padded += [[0] * n + list(r) for r in raw_b]
    assert a.product(b) == AffineCoset.from_rows(2 * n, padded)
    pinned = [list(r[:-1]) + [0, 0] + [r[-1]] for r in raw_a]
    pinned += [[0] * n + [1, 0, 0], [0] * n + [0, 1, 0]]
    assert a.embed(n + 2) == AffineCoset.from_rows(n + 2, pinned)
    v = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    shifted = [list(r[:-1]) + [r[-1] + sum(x * y for x, y in zip(r, v))]
               for r in raw_a]
    assert a.translate(v) == AffineCoset.from_rows(n, shifted)
