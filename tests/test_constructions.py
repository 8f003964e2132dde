import random
import time
from math import factorial

import pytest

from modelk.catalogue import by_name, cyclic, klein_four
from modelk.constructions import (check_semidirect_ab, check_wreath_ab,
                                  direct_power, index_permutation_action,
                                  semidirect, symmetric_group, wreath)
from modelk.errors import CapExceededError, WorkbenchError
from modelk.groups import GroupAction, abelianization
from modelk.suites import random_semidirect_action
from rational_oracles import direct_product


def test_direct_product_order_and_ab():
    G = direct_product(cyclic(4), cyclic(6))
    assert G.order == 24
    assert abelianization(G).factors == (2, 12)


def test_direct_power():
    G = direct_power(cyclic(3), 3)
    assert G.order == 27
    assert abelianization(G).factors == (3, 3, 3)


def test_semidirect_is_dihedral_for_inversion():
    H, K = cyclic(5), cyclic(2)
    action = GroupAction(K, H, lambda k, h: h if k == 0 else (-h) % 5)
    G = semidirect(action)
    assert G.order == 10
    # D_5 abelianizes to Z_2
    assert abelianization(G).factors == (2,)


def test_semidirect_group_laws():
    rng = random.Random(2)
    action = random_semidirect_action(rng)
    G = semidirect(action)
    els = G.elements if G.order <= 24 else G.elements[:24]
    for a in els[:6]:
        assert G.op(a, G.inv(a)) == G.identity
        for b in els[:6]:
            ab = G.op(a, b)
            assert ab in G
            for c in els[:4]:
                assert G.op(ab, c) == G.op(a, G.op(b, c))


def test_trivial_action_gives_direct_product_abelianization():
    H, K = by_name("sym:3"), cyclic(4)
    action = GroupAction(K, H, lambda k, h: h)
    G = semidirect(action)
    assert abelianization(G).factors == \
        abelianization(direct_product(H, K)).factors


def test_symmetric_group_bounds():
    assert symmetric_group(1).order == 1
    with pytest.raises(WorkbenchError):
        symmetric_group(0)
    with pytest.raises(CapExceededError, match=r"^Sym\(9\) has order 362880, cap is 20000"):
        symmetric_group(9)
    assert symmetric_group(4).order == 24


def test_klein_four_is_the_direct_product_of_two_z2():
    V, P = klein_four(), direct_product(cyclic(2), cyclic(2))
    assert V.elements == P.elements and V.generators == P.generators
    assert V._tables == P._tables and V.name == P.name == "Z_2xZ_2"


@pytest.mark.parametrize("build, order", [
    (lambda: symmetric_group(12), factorial(12)),
    (lambda: direct_power(cyclic(10), 9), 10 ** 9),
    (lambda: wreath(cyclic(2), 30), 2 ** 30 * factorial(30)),
], ids=["Sym(12)", "Z_10^9", "Z_2 wr Sym(30)"])
def test_over_cap_constructions_are_refused_before_listing(build, order):
    start = time.process_time()
    with pytest.raises(CapExceededError, match=f"has order {order}, cap is 20000; "):
        build()
    assert time.process_time() - start < 0.1


def test_an_over_cap_semidirect_product_never_calls_its_action():
    calls = []
    action = GroupAction(cyclic(2), cyclic(30),
                         lambda k, h: calls.append(1) or (-h if k else h) % 30)
    with pytest.raises(CapExceededError, match="has order 60, cap is 59"):
        semidirect(action, cap=59)
    assert calls == []
    assert semidirect(action, cap=60).order == 60 and calls


def test_a_semidirect_product_over_a_long_cyclic_group_builds_in_linear_time():
    # negation on Z_20000: the action check and the product's tables must
    # cost O(|G|); an O(|G|^2) route takes minutes at this order
    n = 20000
    start = time.process_time()
    G = semidirect(GroupAction(cyclic(2), cyclic(n, cap=n),
                               lambda k, h: (-h) % n if k else h), cap=2 * n)
    assert time.process_time() - start < 1.0
    assert G.order == 2 * n
    assert abelianization(G).factors == (2, 2)


def test_wreath_orders():
    W = wreath(cyclic(2), 2)
    assert W.order == 8  # Z_2^2 x| Sym(2), the dihedral group of the square
    assert abelianization(W).factors == (2, 2)
    W3 = wreath(cyclic(3), 3)
    assert W3.order == 27 * 6


def test_wreath_formula_holds_on_catalogue():
    for spec in ("cyclic:2", "cyclic:3", "cyclic:4", "sym:3"):
        for k in (2, 3):
            rep = check_wreath_ab(by_name(spec), k)
            assert rep.passed, rep.failures


def test_semidirect_formula_on_seeded_catalogue():
    rng = random.Random(11)
    for _ in range(8):
        action = random_semidirect_action(rng)
        rep = check_semidirect_ab(action)
        assert rep.passed, (action.name, rep.failures)


def test_index_permutation_action_is_checked():
    action = index_permutation_action(cyclic(3), 2, symmetric_group(2))
    action.check()
    base = action.target
    assert base.order == 9
