"""The stabilizer chain behind GL_n, SL_n and Aff_n.

`matrix_groups._closed_form_group` proves generation from the product of a
stabilizer chain's orbit lengths and abelianizes from the chain's
relators, listing no element until one is asked for.  The oracles are the
Cayley route (a `FiniteGroup` given every element, so that `abelianization`
reads its Cayley-edge relators), the closed-form orders and
`enumerate_group`, whose element order the lazily listed groups must keep.
"""

import re
import time
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk import matrix_groups
from modelk.catalogue import by_name
from modelk.errors import CapExceededError, WorkbenchError
from modelk.groups import (DEFAULT_CAP, FiniteGroup, _UnlistedGroup, abelianization,
                           enumerate_group)
from modelk.matrices import Mat
from modelk.matrix_groups import (_column_action, affine_group, elementary_closure,
                                  gl_group, gl_order, gl_order_field, special_linear)
from modelk.rings import GF, Zmod
from test_group_tables import MATRIX_CASES, RINGS

CHAIN_CASES = (
    [(gl_group, n, R) for n, R in MATRIX_CASES]
    + [(special_linear, n, R) for n, R in MATRIX_CASES]
    + [(affine_group, n, GF(q)) for n in (1, 2) for q in (2, 3, 4, 5)]
    + [(gl_group, 2, Zmod(m)) for m in range(10, 13)])


def _closed_form(make, n, ring):
    if make is special_linear:
        return gl_order(n, ring) // len(ring.units())
    if make is affine_group:
        return ring.size ** n * gl_order(n, ring)
    return gl_order(n, ring)


def _listed(G):
    return any(attr in vars(G) for attr in ("elements", "_keys"))


def _cayley_ab(G):
    return abelianization(FiniteGroup(G.elements, mul, G.identity,
                                      generators=G.generators)).factors


@pytest.mark.parametrize("make, n, ring", CHAIN_CASES,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_chain_groups_match_the_cayley_route(make, n, ring):
    G = make(n, ring)
    assert isinstance(G, _UnlistedGroup) and not _listed(G)
    ab = abelianization(G).factors
    # the chain reaches G's order, or the group would not be made
    _UnlistedGroup(G.generators, G.order, _column_action(G.generators[0]), "G")
    assert G.order == _closed_form(make, n, ring)
    assert not _listed(G)
    assert G.elements == enumerate_group(G.generators, cap=None).elements
    assert ab == _cayley_ab(G)


@st.composite
def _generating_sets(draw):
    """One to three invertible n x n matrices, n <= 3, over one ring."""
    R = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, R.size - 1)] * n)
    matrix = st.tuples(*[row] * n).map(lambda rows: Mat(R, rows))
    return draw(st.lists(matrix.filter(Mat.is_invertible), min_size=1, max_size=3))


@settings(max_examples=60)
@given(_generating_sets())
def test_chains_of_seeded_generating_sets(gens):
    # any generating set, not only the catalogue's: the chain's order and
    # relators against the closure and its Cayley-edge relators
    try:
        listed = enumerate_group(gens, cap=2000)
    except CapExceededError:
        return
    # the chain, run when the group is made, must reach the closure's order
    G = _UnlistedGroup(gens, listed.order, _column_action(gens[0]), "G")
    assert abelianization(G) == abelianization(listed)
    assert G.elements == listed.elements


def _mats(ring, *rows):
    return [Mat(ring, r) for r in rows]


# groups whose action sits below the first level, so that the deeper
# levels' relators decide the answer: diagonal groups, unitriangular
# groups, and GL_2 x GL_1 as block diagonals
STRUCTURED = [
    _mats(GF(5), ((2, 0), (0, 1)), ((1, 0), (0, 2))),
    _mats(GF(7), ((3, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 3))),
    _mats(GF(3), ((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))),
    _mats(GF(2), *[tuple(tuple(int(r == c or (r, c) == (i, i + 1)) for c in range(4))
                         for r in range(4)) for i in range(3)]),
    _mats(GF(3), ((1, 0, 0), (0, 1, 1), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 2, 0)),
          ((2, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 2, 0), (0, 0, 1))),
]


@pytest.mark.parametrize("gens", STRUCTURED, ids=lambda gens: str(gens[0].ring))
def test_chains_whose_lower_levels_carry_the_relators(gens):
    listed = enumerate_group(gens, cap=None)
    G = _UnlistedGroup(gens, listed.order, _column_action(gens[0]), "G")
    assert abelianization(G) == abelianization(listed)


def test_groups_past_the_default_cap_abelianize_without_listing():
    start = time.process_time()
    groups = [gl_group(3, GF(5), cap=10 ** 7), gl_group(4, GF(3), cap=10 ** 8),
              gl_group(2, GF(25), cap=10 ** 6)]
    assert [abelianization(G).factors for G in groups] == [(4,), (2,), (24,)]
    assert time.process_time() - start < 5
    assert [G.order for G in groups] == [1488000, 24261120, 374400]
    assert not any(_listed(G) for G in groups)


def test_generators_that_miss_the_group_are_refused(monkeypatch):
    # e_12(1) and the signed cycle without the diagonal generate SL_2(F_5)
    full = matrix_groups._gl_generators
    monkeypatch.setattr(matrix_groups, "_gl_generators",
                        lambda n, ring: full(n, ring)[:2])
    with pytest.raises(WorkbenchError,
                       match=r"^GL_2\(F_5\)'s generators reach 120 of 480 elements$"):
        gl_group(2, GF(5))


def test_an_element_query_lists_the_group_once():
    G = gl_group(2, GF(3))
    assert not _listed(G)
    x = G.generators[0]
    assert x in G and G.index_of(x) == G.elements.index(x)
    keys = G._keys
    assert len(G._tree[0]) == len(G._tables[0]) == 48
    assert G._keys is keys
    with pytest.raises(AttributeError):
        G.no_such_attribute


def _tables_built(ring):
    return {"_add", "_mul", "_neg", "_inv"} & set(vars(ring))


def test_linear_specs_are_refused_before_the_field_is_made():
    start = time.process_time()
    with pytest.raises(CapExceededError, match=r"^GL_2\(F_10007\) has order \d+, cap is "
                       f"{DEFAULT_CAP}; pass a larger cap="):
        by_name("gl:2:10007")
    assert time.process_time() - start < 0.1
    assert not _tables_built(GF(10007))


def _linear_names_and_orders(n, q):
    return {"gl": (f"GL_{n}(F_{q})", gl_order_field(n, q)),
            "sl": (f"SL_{n}(F_{q})", gl_order_field(n, q) // (q - 1)),
            "aff": (f"Aff_{n}(F_{q})^1", q ** n * gl_order_field(n, q))}


@pytest.mark.parametrize("head", ["gl", "sl", "aff"])
def test_linear_spec_orders_are_the_constructors(head):
    for n, q in ((1, 2), (1, 5), (2, 3), (2, 4), (3, 2)):
        G = by_name(f"{head}:{n}:{q}")
        assert (G.name, G.order) == _linear_names_and_orders(n, q)[head]
        with pytest.raises(CapExceededError, match=f"has order {G.order}, cap is"):
            by_name(f"{head}:{n}:{q}", cap=G.order - 1)


@pytest.mark.parametrize("head, make", [("gl", gl_group), ("sl", special_linear),
                                        ("aff", affine_group)])
def test_each_linear_constructor_refuses_before_its_field_fills_a_table(head, make):
    q = 10007
    name, order = _linear_names_and_orders(2, q)[head]
    for build in (lambda: make(2, GF(q)), lambda: by_name(f"{head}:2:{q}")):
        start = time.process_time()
        with pytest.raises(CapExceededError,
                           match=f"^{re.escape(name)} has order {order}, cap is {DEFAULT_CAP};"):
            build()
        assert time.process_time() - start < 0.1
    assert not _tables_built(GF(q))


@pytest.mark.parametrize("make, n", [(gl_group, 1), (special_linear, 1),
                                     (elementary_closure, 2)],
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_a_ring_whose_tables_pass_the_cap_is_refused_before_it_fills_them(make, n):
    # GL_1(F_10007) has order 10,006, inside the cap, but its ring's add and
    # mul tables would hold 10007^2 entries each
    start = time.process_time()
    with pytest.raises(CapExceededError, match=r"needs the 100140049 entries of "
                       rf"F_10007's q\^2 tables, cap is {DEFAULT_CAP}; pass a larger cap="):
        make(n, GF(10007))
    assert time.process_time() - start < 0.1
    assert not _tables_built(GF(10007))
