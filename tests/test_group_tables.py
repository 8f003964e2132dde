"""Seeded property tests: generator tables against products.

Semidirect and wreath products build their generator tables from their
factors' tables, and groups of matrices under `mul`, affine groups among
them, from integer codes of their elements.  Each must equal the table read
off the group's own operation (`product_tables`): entry i of table j is the
index of elements[i] * generators[j].  Matrix closures run on codes too;
their element order must equal that of the oracle `closure`, which
multiplies Mat values breadth first and sorts each level by `element_key`.
The generators' left multiplication tables and the inverses are read off
the spanning tree; their oracles, `left_tables` and `inverse_indices`,
multiply with the group's operation.  A group is refused when it is made if its operation
leaves its elements or its generators do not generate it.  A group held on
codes must answer membership and indices as a group held on its Mats does.
"""

import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.catalogue import by_name
from modelk.constructions import direct_power, semidirect, wreath
from modelk.errors import CapExceededError, WorkbenchError
from modelk.groups import FiniteGroup, GroupAction, enumerate_group
from modelk.matrices import Mat
from modelk.matrix_groups import (affine_group, elementary_closure, gl_group,
                                  special_linear)
from modelk.perms import Perm
from modelk.rings import GF, Zmod
from modelk.suites import random_semidirect_action
from rational_oracles import (closure, conjugate, inverse_indices, left_tables,
                              product_tables)

RINGS = [Zmod(m) for m in range(2, 10)] + [GF(q) for q in (2, 3, 4, 5, 7, 8, 9)]
# GL_3 fits the default cap over the rings of size 2 and 3 only
MATRIX_CASES = [(n, R) for R in RINGS for n in (1, 2, 3) if n < 3 or R.size <= 3]


def _check_tables(G):
    assert [list(t) for t in G._tables] == product_tables(G, G.generators), G.name


@given(st.integers(0, 2 ** 32))
def test_tables_of_seeded_semidirect_products(seed):
    _check_tables(semidirect(random_semidirect_action(random.Random(seed))))


def test_tables_passed_to_a_semidirect_product_are_its_products():
    # conjugation on a nonabelian target: H's tables conjugated by the action
    S = by_name("sym:3")
    HK = semidirect(GroupAction(S, S, lambda g, x: conjugate(S, g, x),
                                name="conjugation"))
    assert HK.order == 36
    _check_tables(HK)


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
    for spec in ("sl2:3", "sl2:4", "sl2:5", "sl2:7", "q8"):
        _check_tables(by_name(spec))


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
    oracle = closure(gens[0].identity_like(), mul, gens, cap=cap)
    if oracle is None:
        with pytest.raises(CapExceededError):
            enumerate_group(gens, cap=cap)
        return
    G = enumerate_group(gens, cap=cap)
    assert list(G.elements) == oracle
    _check_tables(G)


def test_matrices_not_closed_under_mul_are_named():
    F3 = GF(3)
    t = Mat.transvection(F3, 2, 0, 1, 1)
    with pytest.raises(WorkbenchError, match=r"H is not closed under its "
                       r"operation: .* \* .* = .* is not one of its elements"):
        FiniteGroup([Mat.identity(F3, 2), t], mul, Mat.identity(F3, 2),
                    generators=[t], name="H")


def test_matrices_under_another_operation_take_the_product_route():
    G = elementary_closure(2, GF(3))
    opposite = FiniteGroup(G.elements, lambda a, b: b * a, G.identity,
                           generators=G.generators, name="SL_2(F_3)^op")
    _check_tables(opposite)
    assert opposite._tables != G._tables


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


def test_enumerate_group_rejects_a_singular_generator():
    F3 = GF(3)
    singular = Mat(F3, ((1, 2), (2, 1)))  # det = -3
    with pytest.raises(WorkbenchError, match=r"^matrix is singular over F_3: det = 0$"):
        enumerate_group([Mat.transvection(F3, 2, 0, 1, 1), singular])


def test_groups_on_codes_refuse_a_generator_over_another_ring():
    # Z_4 and F_4 have the same size, so the codes would mix silently
    G = gl_group(2, GF(4))
    with pytest.raises(ValueError, match="cannot multiply 2x2 matrices over F_4"):
        FiniteGroup(G.elements, mul, G.identity,
                    generators=[Mat.transvection(Zmod(4), 2, 0, 1, 1)])
    with pytest.raises(ValueError, match="cannot multiply 2x2 matrices over F_4"):
        FiniteGroup(G.elements, mul, G.identity,
                    generators=[Mat.transvection(GF(4), 3, 0, 1, 1)])


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


def _check_left_tables_and_inverses(G):
    assert G._left_tables == left_tables(G), G.name
    inverses = inverse_indices(G)
    assert G._inverses == inverses, G.name
    assert [G.inv(x) for x in G.elements] == [G.elements[i] for i in inverses]


@st.composite
def _permutations(draw):
    """One to three permutations of a common degree up to 5."""
    k = draw(st.integers(1, 5))
    perm = st.permutations(range(k)).map(lambda images: Perm(tuple(images)))
    return draw(st.lists(perm, min_size=1, max_size=3))


@settings(max_examples=30)
@given(_permutations())
def test_left_tables_and_inverses_of_seeded_permutation_groups(gens):
    _check_left_tables_and_inverses(enumerate_group(gens))


@settings(max_examples=12)
@given(st.sampled_from(("cyclic:3", "cyclic:4", "sym:3", "klein", "q8")),
       st.integers(1, 2))
def test_left_tables_and_inverses_of_direct_powers(base, k):
    _check_left_tables_and_inverses(direct_power(by_name(base), k))


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32))
def test_left_tables_and_inverses_of_seeded_semidirect_products(seed):
    action = random_semidirect_action(random.Random(seed))
    _check_left_tables_and_inverses(semidirect(action))


@settings(max_examples=30)
@given(_matrix_generators())
def test_left_tables_and_inverses_of_seeded_matrix_groups(gens):
    try:
        G = enumerate_group(gens, cap=500)
    except CapExceededError:
        return
    _check_left_tables_and_inverses(G)


@pytest.mark.parametrize("G", [gl_group(2, Zmod(4)), special_linear(2, GF(4)),
                               gl_group(3, GF(2))], ids=repr)
def test_left_tables_and_inverses_of_linear_groups(G):
    _check_left_tables_and_inverses(G)


def test_groups_need_generators_that_generate():
    G = gl_group(2, GF(3))
    with pytest.raises(WorkbenchError, match="reach 3 of its 48 elements"):
        FiniteGroup(G.elements, G.op, G.identity, generators=G.generators[:1],
                    name="GL_2(F_3)")


def _other_ring(R):
    """A ring of R's size other than R, or None where there is none here."""
    if R.kind == "gf":
        return Zmod(R.size)
    try:
        return GF(R.size)
    except WorkbenchError:
        return None


@settings(max_examples=len(MATRIX_CASES))
@given(st.sampled_from(MATRIX_CASES))
def test_groups_on_codes_answer_like_groups_on_mats(case):
    n, R = case
    for G in (gl_group(n, R), elementary_closure(n, R)):
        # a group under another operation holds its Mats as its keys
        eager = FiniteGroup(G.elements, lambda a, b: a * b, G.identity,
                            generators=G.generators)
        assert G.order == eager.order and G.elements == eager.elements
        for x in eager.elements:
            fresh = Mat(R, x.rows)
            assert fresh in G and G.index_of(fresh) == eager.index_of(x)
        public = FiniteGroup(G.elements, mul, G.identity, generators=G.generators)
        assert public._keys == G._keys and public.elements == G.elements
        # a code, and a Mat over another ring or of another size whose code
        # is a member's, are not members
        code = G._keys[-1]
        size = n + 1
        digits = [code // R.size ** e % R.size for e in reversed(range(size * size))]
        bigger = Mat(R, tuple(tuple(digits[i * size:(i + 1) * size])
                              for i in range(size)))
        others = [code, bigger]
        if _other_ring(R) is not None:
            others.append(Mat(_other_ring(R), G.elements[-1].rows))
        for x in others:
            assert x not in G and x not in eager
            with pytest.raises(KeyError):
                G.index_of(x)
