"""Seeded property tests: the short generating sets of GL_n, SL_n and E_n.

`gl_group` declares e_12(1), the signed n-cycle and one diagonal per
generator of R^x; `special_linear` and `elementary_closure` use e_12(c) with
c over an additive basis of R, and the signed n-cycle.  The oracles are the
long sets: every e_ij(1) with diag(u, 1, ..., 1) for every unit u != 1, and
every e_ij(c) with c != 0.
"""

from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modelk.errors import WorkbenchError
from modelk.groups import FiniteGroup, abelianization, enumerate_group
from modelk.matrices import Mat
from modelk.matrix_groups import (_signed_cycle, _unit_generators,
                                  elementary_closure, gl_group, special_linear)
from modelk.rings import GF, Zmod


def _all_transvections(n, ring):
    return [Mat.transvection(ring, n, i, j, c)
            for i in range(n) for j in range(n) if i != j
            for c in range(1, ring.size)]


def _long_gl_generators(n, ring):
    """Every e_ij(1) and diag(u, 1, ..., 1) for each unit u != 1."""
    one = Mat.identity(ring, n).rows
    return ([Mat.transvection(ring, n, i, j, ring.one)
             for i in range(n) for j in range(n) if i != j]
            + [Mat(ring, ((u,) + one[0][1:],) + one[1:])
               for u in ring.units() if u != ring.one])


def _regenerated(G, gens):
    """G's elements with another list of generators, which must generate
    them."""
    return FiniteGroup(G.elements, G.op, G.identity,
                       generators=gens, name=G.name)


def _check_against_long_set(G, long_gens):
    assert abelianization(G) == abelianization(_regenerated(G, long_gens)), G.name


@given(st.integers(2, 200))
def test_unit_generators_give_the_unit_group(m):
    ring = Zmod(m)
    gens = _unit_generators(ring)
    for u, order in gens:
        assert [pow(u, e, m) == 1 for e in range(1, order + 1)] == \
            [False] * (order - 1) + [True], (m, u)
    span = {1}
    for u, order in gens:
        span = {x * pow(u, e, m) % m for x in span for e in range(order)}
    # the span is R^x and has the product of the orders as its size, so
    # R^x is the direct product of the cyclic groups <u>
    assert span == set(ring.units()) and prod(o for _, o in gens) == len(span), m


@given(st.one_of(st.tuples(st.just(2), st.integers(2, 12)),
                 st.tuples(st.just(3), st.integers(2, 3))))
def test_gl_over_zmod_short_generators(nm):
    n, m = nm
    G = gl_group(n, Zmod(m))
    _check_against_long_set(G, _long_gl_generators(n, Zmod(m)))


@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16)))
def test_gl2_over_fields_short_generators(q):
    G = gl_group(2, GF(q), cap=100000)
    # two transvections, and one primitive element above F_2
    assert len(G.generators) == 2 + (q > 2)
    if q < 16:
        _check_against_long_set(G, _long_gl_generators(2, GF(q)))
    else:
        # the long set's 16 generators take seconds here; R^x is the oracle
        assert abelianization(G).factors == (15,)


@given(st.sampled_from([(2, q) for q in (2, 3, 4, 5, 7, 8, 9)]
                       + [(3, 2), (3, 3), (3, 4)]))
def test_special_linear_and_elementary_closure_short_generators(nq):
    n, q = nq
    ring = GF(q)
    S = special_linear(n, ring, cap=100000)
    E = elementary_closure(n, ring, cap=100000)
    full = _all_transvections(n, ring)
    e = {4: 2, 8: 3, 9: 2}.get(q, 1)  # q = p^e
    # e_12(c) over an additive basis, and the signed n-cycle
    assert len(E.generators) == len(S.generators) == e + 1
    assert set(E.elements) == set(enumerate_group(full, cap=100000).elements)
    if S.order <= 20000:
        _check_against_long_set(S, full)


@pytest.mark.parametrize("ring", [GF(2), GF(4), Zmod(6), GF(9)], ids=str)
def test_the_signed_cycle_is_the_product_of_the_w_ij(ring):
    one, minus_one = ring.one, ring.neg(ring.one)
    for n in range(2, 6):
        product = Mat.identity(ring, n)
        for i in range(n - 1):
            e = Mat.transvection(ring, n, i, i + 1, one)
            product = product * e * Mat.transvection(ring, n, i + 1, i, minus_one) * e
        assert _signed_cycle(n, ring) == product, (n, ring)


def test_a_set_that_does_not_generate_raises():
    G = gl_group(2, GF(5))
    # the transvections alone reach only SL_2(F_5)
    with pytest.raises(WorkbenchError, match="reach 120 of its 480 elements"):
        _regenerated(G, G.generators[:2])
