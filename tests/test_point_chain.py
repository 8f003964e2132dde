"""The stabilizer chain on points behind Sym(k) and wreath products.

`constructions.symmetric_group` and `constructions.wreath` make a group
that acts on points, and abelianize it from the chain of that action
(`groups.stabilizer_chain` with `constructions._index_action`), listing no
element until one is asked for.  The oracles are `enumerate_group`, the
Cayley route (a listed group's Cayley-edge relators) and the element by
element constructions in `rational_oracles`, whose element order, generators
and tables the lazily listed groups must keep.
"""

import time
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.catalogue import by_name, cyclic, dihedral
from modelk.constructions import _index_action, _on_points, symmetric_group, wreath
from modelk.errors import CapExceededError, WorkbenchError
from modelk.groups import FiniteGroup, _UnlistedGroup, abelianization, enumerate_group
from modelk.perms import Perm
from rational_oracles import listed_symmetric_group, listed_wreath


def _listed(G):
    return any(attr in vars(G) for attr in ("elements", "_keys"))


def _cayley_ab(G):
    return abelianization(FiniteGroup(G.elements, G.op, G.identity,
                                      generators=G.generators)).factors


def _chain_ab(G, points):
    """The order and abelianization from the chain of G's generators on
    `points`, which the group checks to reach G's order when it is made."""
    H = _UnlistedGroup(G.generators, G.order, points, G.name, op=G.op,
                       identity=G.identity)
    return H.order, abelianization(H).factors


@st.composite
def _permutation_sets(draw):
    """One to three permutations of one degree, at most 7."""
    degree = draw(st.integers(1, 7))
    perm = st.permutations(range(degree)).map(lambda images: Perm(tuple(images)))
    return draw(st.lists(perm, min_size=1, max_size=3))


@settings(max_examples=80)
@given(_permutation_sets())
def test_point_chains_of_seeded_permutations(gens):
    listed = enumerate_group(gens, cap=None)
    points = _index_action(gens[0].degree, Perm)
    assert _chain_ab(listed, points) == (listed.order, _cayley_ab(listed))


def _perms(degree, *cycles):
    return [Perm.cycle(degree, c) if len(c) > 1 else Perm.identity(degree)
            for c in cycles]


# permutation groups with a point stabilizer, so that the deeper levels'
# relators decide the answer
STRUCTURED = {
    "Klein four on two orbits": [Perm.transposition(4, 0, 1), Perm.transposition(4, 2, 3)],
    "Klein four, regular": [Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))],
    "three commuting transpositions": [Perm.transposition(6, 2 * i, 2 * i + 1)
                                       for i in range(3)],
    "Sym(3) x Z_2 on five points": _perms(5, (3, 4), (0, 1, 2), (0, 1)),
    "an identity generator": _perms(3, (0,), (0, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_point_chains_whose_lower_levels_carry_the_relators(name):
    listed = enumerate_group(STRUCTURED[name], cap=None)
    points = _index_action(listed.generators[0].degree, Perm)
    assert _chain_ab(listed, points) == (listed.order, _cayley_ab(listed))


@pytest.mark.parametrize("order", [8, 10, 12, 16])
def test_point_chains_of_dihedral_groups(order):
    D = dihedral(order)
    points = _index_action(order // 2, Perm)
    assert _chain_ab(D, points) == (order, _cayley_ab(D))


@pytest.mark.parametrize("spec, factors", [
    ("wreath:wreath:cyclic:2:2:2", (2, 2, 2)),
    ("wreath:q8:2", (2, 2, 2)),
    ("wreath:gl:2:2:2", (2, 2)),
    ("wreath:cyclic:1:3", (2,)),
    ("wreath:sym:1:3", (2,)),
    ("wreath:dihedral:8:3", (2, 2, 2)),
])
def test_point_chains_of_wreath_products(spec, factors):
    # the chain on each product's own points, whichever route the product
    # takes, against the closed form and the Cayley route
    W = by_name(spec)
    assert _chain_ab(W, W._points) == (W.order, factors)
    assert abelianization(W).factors == factors == _cayley_ab(W)


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetric_groups_list_as_before(k):
    S, oracle = symmetric_group(k), listed_symmetric_group(k)
    assert isinstance(S, _UnlistedGroup) == (k * k < factorial(k))
    # a chain group holds its proved relator rows from the moment it is made
    assert ("_relator_rows" in vars(S)) == isinstance(S, _UnlistedGroup)
    assert abelianization(S).factors == ((2,) if k > 1 else ())
    assert S.generators == oracle.generators and S.order == oracle.order
    assert S.elements == oracle.elements
    assert S._tables == oracle._tables
    assert S.name == oracle.name


@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3", "cyclic:4", "sym:3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_wreath_products_list_as_before(spec, k):
    K = by_name(spec)
    W = wreath(K, k)
    oracle = listed_wreath(listed_symmetric_group(3) if spec == "sym:3" else K, k)
    ab = abelianization(W).factors
    assert (W.name, W.order, W.generators) == (oracle.name, oracle.order, oracle.generators)
    assert W.elements == oracle.elements
    assert W._tables == oracle._tables
    assert ab == _cayley_ab(oracle)
    x, y = W.generators[0], W.generators[-1]
    assert W.op(x, y) == oracle.op(x, y)


def test_large_permutation_groups_abelianize_without_listing():
    for make, order, factors in [
            (lambda: symmetric_group(10, cap=None), factorial(10), (2,)),
            (lambda: wreath(symmetric_group(3), 5, cap=None), 933120, (2, 2))]:
        start = time.process_time()
        G = make()
        assert abelianization(G).factors == factors
        assert time.process_time() - start < 1
        assert G.order == order and not _listed(G)
    with pytest.raises(CapExceededError, match=r"^Sym\(9\) has order 362880, cap is"):
        symmetric_group(9)


def test_a_lazy_chain_checks_its_order():
    # the chain runs when the group is made, so the group is never made
    with pytest.raises(WorkbenchError,
                       match=r"^Sym\(4\)'s generators reach 2 of 24 elements$"):
        _on_points([Perm.transposition(4, 0, 1)], mul, Perm.identity(4), 24, "Sym(4)",
                   _index_action(4, Perm), None)


def test_a_small_permutation_group_is_listed_when_made():
    # Z_20000 wr Sym(1) acts on 20000 points: a chain would hold far more
    # images than the group has elements
    W = wreath(cyclic(20000, cap=None), 1, cap=None)
    assert _listed(W) and len(W._points.base) == 20000
    S = symmetric_group(3)
    assert _listed(S) and S._points.base == (0, 1, 2)


def test_the_top_group_is_checked_on_its_generators():
    message = "^top group must consist of degree-k permutations$"
    with pytest.raises(WorkbenchError, match=message):
        wreath(cyclic(2), 2, symmetric_group(3))
    with pytest.raises(WorkbenchError, match=message):
        wreath(cyclic(2), 2, cyclic(2))
    swap = FiniteGroup([Perm.identity(2), Perm((1, 0))], mul, Perm.identity(2),
                       generators=[Perm((1, 0))], name="swap")
    assert abelianization(wreath(cyclic(3), 2, swap)).factors == (6,)
