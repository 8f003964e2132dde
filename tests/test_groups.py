import random

import pytest

from modelk.catalogue import by_name, cyclic, dihedral, quaternion8
from modelk.errors import CapExceededError, WorkbenchError
from modelk.groups import (FiniteGroup, abelianization, AbInvariants,
                           enumerate_group, GroupAction,
                           invariants_from_factors)
from modelk.matrix_groups import gl_group
from modelk.perms import Perm
from modelk.rings import GF, Zmod
from rational_oracles import (commutator, commutator_subgroup, conjugate,
                              element_key, generated_subgroup, is_normal,
                              quotient_group)


def test_enumeration_starts_at_identity_and_is_deterministic():
    r = Perm((1, 2, 0))
    s = Perm((1, 0, 2))
    G = enumerate_group([r, s])
    assert G.order == 6
    assert G.elements[0] == Perm.identity(3)
    again = enumerate_group([r, s])
    assert G.elements == again.elements


def test_generator_order_changes_nothing_but_bfs_levels_are_sorted():
    r = Perm((1, 2, 0))
    s = Perm((1, 0, 2))
    G = enumerate_group([s, r])
    assert set(G.elements) == set(enumerate_group([r, s]).elements)
    # within each BFS level the new elements appear in key order
    keys = [element_key(x) for x in G.elements[1:3]]
    assert keys == sorted(keys)


def test_cap_is_enforced():
    r = Perm((1, 2, 3, 4, 0))
    with pytest.raises(CapExceededError):
        enumerate_group([r], cap=3)
    # a group of known order says how to raise the cap too
    with pytest.raises(CapExceededError, match=r"^Z_5 has order 5, cap is 3; "
                       r"pass a larger cap= \(--cap on the command line\)"):
        cyclic(5, cap=3)


def test_groups_of_two_or_more_elements_declare_generators():
    with pytest.raises(WorkbenchError, match=r"Z_2 of 2 elements was given no "
                       r"generators; pass `generators`"):
        FiniteGroup(range(2), lambda a, b: (a + b) % 2, 0, name="Z_2")
    trivial = FiniteGroup([0], lambda a, b: 0, 0)
    assert trivial.generators == (0,)
    assert abelianization(trivial).is_trivial


def test_quotient_generators_are_the_cosets_of_the_generators():
    G = by_name("sym:4")
    Q = quotient_group(G, commutator_subgroup(G))
    coset_of = {g: c for c in Q.elements for g in c}
    assert Q.generators == tuple(dict.fromkeys(coset_of[g] for g in G.generators))
    assert Q.order == 2 and abelianization(Q).factors == (2,)
    Z = FiniteGroup(range(12), lambda a, b: (a + b) % 12, 0, generators=[5], name="Z_12")
    sixes = generated_subgroup(Z, [6])
    assert quotient_group(Z, sixes).generators == (frozenset({5, 11}),)


def test_duplicate_elements_rejected():
    with pytest.raises(WorkbenchError):
        FiniteGroup([0, 0], lambda a, b: 0, 0)


def test_inverse_via_cycling_and_cache():
    G = cyclic(12)
    assert G.inv(5) == 7
    assert G.inv(5) == 7
    assert G.inv(0) == 0


def test_element_orders():
    G = dihedral(8)
    orders = sorted(G.element_order(x) for x in G.elements)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def _all_pairs_commutator_subgroup(G):
    comms = {commutator(G, a, b) for a in G.elements for b in G.elements}
    return set(generated_subgroup(G, sorted(comms, key=G.index_of)).elements)


def test_commutator_subgroup_matches_all_pairs_closure():
    # GL_2(Z_6) is past the order where the all-pairs route used to stop
    for G in (dihedral(12), by_name("sym:4"), quaternion8(), by_name("sl2:3"),
              gl_group(2, GF(3)), gl_group(2, Zmod(6))):
        assert set(commutator_subgroup(G).elements) == \
            _all_pairs_commutator_subgroup(G), G.name


def test_generators_that_span_a_proper_subgroup_are_rejected():
    # abelianization, commutator subgroups, normality and the coinvariants'
    # acting group all rely on the generators, so such a group is refused
    # when it is made
    with pytest.raises(WorkbenchError, match="reach 3 of its 6 elements"):
        FiniteGroup(range(6), lambda a, b: (a + b) % 6, 0,
                    generators=[2], name="Z_6")
    with pytest.raises(WorkbenchError, match="reach 1 of its 2 elements"):
        FiniteGroup(range(2), lambda a, b: (a + b) % 2, 0, generators=[0])


def test_operation_that_leaves_the_enumeration_is_rejected():
    # 3 + 1 = 4 mod 5 is not among the elements 0..3
    with pytest.raises(WorkbenchError,
                       match=r"Z_4\? is not closed .*: 3 \* 1 = 4 is not one"):
        FiniteGroup(range(4), lambda a, b: (a + b) % 5, 0, generators=(1,),
                    name="Z_4?")


def test_commutator_subgroup_of_sym3_is_alt3():
    G = by_name("sym:3")
    D = commutator_subgroup(G)
    assert D.order == 3
    assert all(p.is_even() for p in D.elements)


def test_quotient_and_abelianization():
    G = dihedral(8)
    assert abelianization(G).factors == (2, 2)
    assert abelianization(quaternion8()).factors == (2, 2)
    assert abelianization(by_name("sym:4")).factors == (2,)
    assert abelianization(cyclic(12)).factors == (12,)
    assert abelianization(by_name("sl2:3")).factors == (3,)


def test_normality_on_generators_agrees_with_every_element():
    rng = random.Random(13)
    for spec in ("sym:4", "dihedral:8", "q8", "dihedral:12", "sl2:3"):
        G = by_name(spec)
        for _ in range(12):
            H = generated_subgroup(G, rng.sample(G.elements, rng.randint(1, 2)))
            every = all(conjugate(G, g, h) in H for g in G.elements for h in H.elements)
            assert is_normal(G, H) == every, (spec, H.order)
    S = by_name("sym:3")
    with pytest.raises(WorkbenchError, match="reach 3 of its 6 elements"):
        FiniteGroup(S.elements, S.op, S.identity, generators=[Perm((1, 2, 0))])


def test_quotient_rejects_non_normal_subgroup():
    G = by_name("sym:3")
    flip = generated_subgroup(G, [Perm((1, 0, 2))])
    assert not is_normal(G, flip)
    with pytest.raises(WorkbenchError):
        quotient_group(G, flip)


def test_invariant_factor_normalization():
    assert invariants_from_factors([2, 3]).factors == (6,)
    assert invariants_from_factors([2, 2, 3]).factors == (2, 6)
    assert invariants_from_factors([4, 6]).factors == (2, 12)
    assert invariants_from_factors([1, 1]).factors == ()
    assert invariants_from_factors([]).factors == ()


def test_abelian_iso_ignores_presentation():
    assert invariants_from_factors([2, 3]) == invariants_from_factors([6])
    assert invariants_from_factors([4]) != invariants_from_factors([2, 2])


def test_ab_invariants_validation():
    with pytest.raises(ValueError):
        AbInvariants((1,))
    with pytest.raises(ValueError):
        AbInvariants((4, 6))


def test_coinvariants_of_inversion_on_z5():
    H = cyclic(5)
    K = cyclic(2)
    action = GroupAction(K, H, lambda k, h: h if k == 0 else (-h) % 5)
    # relators h - (-h) = 2h generate all of Z_5
    assert abelianization(H, action).factors == ()


def test_coinvariants_of_trivial_action():
    H = cyclic(6)
    K = cyclic(3)
    action = GroupAction(K, H, lambda k, h: h)
    assert abelianization(H, action).factors == (6,)
    assert repr(action) == "<action: <Z_3 of order 3> on <Z_6 of order 6>>"
    named = GroupAction(K, H, lambda k, h: h, name="trivial")
    assert repr(named) == "<trivial: <Z_3 of order 3> on <Z_6 of order 6>>"


def test_abelianization_under_an_action_checks_its_target():
    H = cyclic(6)
    action = GroupAction(cyclic(3), H, lambda k, h: h)
    assert abelianization(H, action).factors == (6,)
    with pytest.raises(WorkbenchError, match="does not target"):
        abelianization(cyclic(5), action)


def test_action_check_catches_non_automorphism():
    from modelk.errors import InvalidActionError

    H = cyclic(4)
    K = cyclic(2)
    bad = GroupAction(K, H, lambda k, h: (h + k) % 4)  # translation, not hom
    with pytest.raises(InvalidActionError,
                       match="generator does not act by a homomorphism"):
        bad.check()


@pytest.mark.parametrize("acting, target, mapping, message", [
    # k = 1 sends h to h + 4, outside 0..3
    (2, 4, lambda k, h: h + 4 * k, "action leaves the target group: 4"),
    # k = 1 sends everything to 0
    (2, 4, lambda k, h: 0 if k else h, "generator does not act bijectively"),
    # each power of 2 is an automorphism of Z_5, but 2^3 = 3 is not 2^0 = 1
    (3, 5, lambda k, h: h * 2 ** k % 5,
     r"action map is not a homomorphism into Aut\(H\)"),
    # inversion fixes e but reverses products on a nonabelian target
    (2, "sym:3", lambda k, h: h.inverse() if k else h,
     "generator does not act by a homomorphism"),
    (2, "q8", lambda k, h: h.inverse() if k else h,
     "generator does not act by a homomorphism"),
    # right translation by a transposition conjugates each right
    # multiplication to another, but moves e
    (2, "sym:3", lambda k, h: h * Perm.transposition(3, 0, 1) if k else h,
     "generator does not act by a homomorphism"),
])
def test_action_check_rejects_each_broken_law(acting, target, mapping, message):
    from modelk.errors import InvalidActionError

    # an int is the order of a cyclic group, a string a group spec
    acting, target = (cyclic(x) if isinstance(x, int) else by_name(x)
                      for x in (acting, target))
    bad = GroupAction(acting, target, mapping)
    with pytest.raises(InvalidActionError, match=message):
        bad.check()


def test_generated_subgroup_order_divides_group_order():
    rng = random.Random(5)
    G = by_name("sym:4")
    for _ in range(10):
        gens = rng.sample(G.elements, rng.randint(1, 3))
        H = generated_subgroup(G, gens)
        assert G.order % H.order == 0
        assert all(x in G for x in H.elements)
