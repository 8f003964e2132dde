"""Seeded property tests: generator tables against products.

Semidirect and wreath products and affine groups build their generator
tables from their factors' tables, and groups of matrices under `mul` from
integer codes of their elements.  Each must equal the table read off the
group's own operation: entry i of table j is the index of
elements[i] * generators[j].  Matrix closures run on codes too; their
element order must equal that of the same closure loop fed steps that
multiply Mat values, kept here as the oracle.
"""

import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.catalogue import by_name, quaternion8, sl2
from modelk.constructions import semidirect, wreath
from modelk.errors import CapExceededError, WorkbenchError
from modelk.groups import FiniteGroup, _closure, element_key, enumerate_group
from modelk.matrices import Mat
from modelk.matrix_groups import (affine_group, elementary_closure, gl_group,
                                  special_linear)
from modelk.rings import GF, Zmod
from modelk.suites import random_semidirect_action

RINGS = [Zmod(m) for m in range(2, 10)] + [GF(q) for q in (2, 3, 4, 5, 7, 8, 9)]
# GL_3 fits the default cap over the rings of size 2 and 3 only
MATRIX_CASES = [(n, R) for R in RINGS for n in (1, 2, 3) if n < 3 or R.size <= 3]


def _check_tables(G):
    by_products = [[G.index_of(G.op(x, g)) for x in G.elements] for g in G.generators]
    assert [list(t) for t in G._generator_tables()] == by_products, G.name


@given(st.integers(0, 2 ** 32))
def test_tables_of_seeded_semidirect_products(seed):
    _check_tables(semidirect(random_semidirect_action(random.Random(seed))))


@settings(max_examples=12)
@given(st.sampled_from(("cyclic:2", "cyclic:3", "cyclic:4", "sym:3")),
       st.integers(1, 3))
def test_tables_of_wreath_products(base, k):
    _check_tables(wreath(by_name(base), k))


@settings(max_examples=12)
@given(st.sampled_from(((1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8),
                        (2, 2), (2, 3))),
       st.integers(1, 2))
def test_tables_of_affine_groups(nq, copies):
    n, q = nq
    _check_tables(affine_group(n, GF(q), copies))


@settings(max_examples=8)
@given(st.integers(2, 9))
def test_tables_of_gl2_over_zmod(m):
    _check_tables(gl_group(2, Zmod(m)))


@settings(max_examples=len(MATRIX_CASES))
@given(st.sampled_from(MATRIX_CASES))
def test_code_tables_of_linear_groups(case):
    n, R = case
    for G in (gl_group(n, R), special_linear(n, R), elementary_closure(n, R)):
        _check_tables(G)


def test_code_tables_of_catalogue_matrix_groups():
    for G in (sl2(3), sl2(4), sl2(5), sl2(7), quaternion8()):
        _check_tables(G)


@st.composite
def _matrix_generators(draw):
    """One to three invertible n x n matrices, n <= 3, over one ring."""
    R = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, R.size - 1)] * n)
    matrix = st.tuples(*[row] * n).map(lambda rows: Mat(R, rows))
    return draw(st.lists(matrix.filter(Mat.is_invertible), min_size=1, max_size=3))


@settings(max_examples=60)
@given(_matrix_generators())
def test_code_closure_order_matches_the_closure_on_matrices(gens):
    cap = 2000
    steps = [lambda xs, g=g: [x * g for x in xs] for g in gens]
    try:
        oracle = _closure(gens[0].identity_like(), steps, cap, element_key)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            enumerate_group(gens, cap=cap)
        return
    G = enumerate_group(gens, cap=cap)
    assert list(G.elements) == oracle
    _check_tables(G)


def test_matrices_not_closed_under_mul_are_named():
    F3 = GF(3)
    t = Mat.transvection(F3, 2, 0, 1, 1)
    G = FiniteGroup([Mat.identity(F3, 2), t], mul, Mat.identity(F3, 2),
                    generators=[t], name="H")
    with pytest.raises(WorkbenchError, match=r"H is not closed under its "
                       r"operation: .* \* .* = .* is not one of its elements"):
        G._generator_tables()


def test_matrices_under_another_operation_take_the_product_route():
    G = elementary_closure(2, GF(3))
    opposite = FiniteGroup(G.elements, lambda a, b: b * a, G.identity,
                           generators=G.generators, name="SL_2(F_3)^op")
    _check_tables(opposite)
    assert opposite._generator_tables() != G._generator_tables()


def test_code_closure_names_the_cap():
    with pytest.raises(CapExceededError, match="closure exceeded the element cap of 100"):
        elementary_closure(3, GF(3), cap=100)


def test_code_closure_rejects_mixed_rings_and_sizes():
    with pytest.raises(ValueError, match="ring mismatch"):
        enumerate_group([Mat.transvection(GF(3), 2, 0, 1, 1),
                         Mat.transvection(Zmod(3), 2, 0, 1, 1)])
    with pytest.raises(ValueError, match="size mismatch: 2x2 times 3x3"):
        enumerate_group([Mat.transvection(GF(3), 2, 0, 1, 1),
                         Mat.transvection(GF(3), 3, 0, 1, 1)])


def test_row_images_fill_only_the_rows_that_occur():
    # the rows of a 10 x 10 permutation matrix are 10 unit vectors, where a
    # table of every row would hold 3^10 rows per row position
    F3 = GF(3)
    P = Mat(F3, tuple(tuple(int(j == (i + 1) % 10) for j in range(10))
                      for i in range(10)))
    G = enumerate_group([P])
    assert G.order == 10
    _check_tables(G)
    k = P._k
    tables = k.row_images(P)
    k.image(k.encode([x.rows for x in G.elements]), *tables)
    assert [len(t) for t in tables] == [10] * 10


def test_row_images_of_a_small_row_space_are_listed_in_full():
    # 3^3 rows: each row position gets a list over all 27 of them
    g = Mat.transvection(GF(3), 3, 0, 1, 1)
    tables = g._k.row_images(g)
    assert [type(t) for t in tables] == [list] * 3
    assert [len(t) for t in tables] == [27] * 3
