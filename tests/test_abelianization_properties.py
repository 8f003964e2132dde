"""Seeded property tests: the Smith-form abelianization against quotients.

The oracle is the quotient of G by its commutator subgroup (or, for the
coinvariants of H^ab under an action, by the subgroup that [H, H] and the
relators act(g, h) * h^-1 generate), built from cosets.  A finite abelian
group is determined up to isomorphism by how many x solve x^d = 1 for each
d dividing its exponent; for invariant factors d_1 | ... | d_r that count
is the product of gcd(d, d_i).
"""

import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.catalogue import by_name, cyclic, klein_four
from modelk.constructions import semidirect
from modelk.groups import GroupAction, abelianization, enumerate_group
from modelk.matrix_groups import elementary_closure, gl_group
from modelk.perms import Perm
from modelk.rings import GF, Zmod
from modelk.suites import random_semidirect_action
from rational_oracles import (commutator_subgroup, generated_subgroup,
                              quotient_group)


def _power_counts(Q):
    orders = [Q.element_order(x) for x in Q.elements]
    exponent = lcm(*orders)
    return {d: sum(d % o == 0 for o in orders)
            for d in range(1, exponent + 1) if exponent % d == 0}


def _agrees(factors, Q):
    counts = _power_counts(Q)
    return prod(factors) == Q.order and all(
        n == prod(gcd(d, f) for f in factors) for d, n in counts.items())


def _check_abelianization(G):
    Q = quotient_group(G, commutator_subgroup(G))
    assert _agrees(abelianization(G).factors, Q), G.name


@given(st.lists(st.permutations(range(5)), min_size=1, max_size=3))
def test_abelianization_of_subgroups_of_sym5(images):
    _check_abelianization(enumerate_group([Perm(tuple(p)) for p in images]))


@given(st.integers(0, 2 ** 32))
def test_abelianization_of_seeded_semidirect_products(seed):
    _check_abelianization(semidirect(random_semidirect_action(random.Random(seed))))


@settings(max_examples=8)
@given(st.integers(2, 9))
def test_abelianization_of_gl2_over_zmod(m):
    _check_abelianization(gl_group(2, Zmod(m)))


# The Smith route's modulus shrinks from |G|: to 1 for the perfect groups
# E_3(F_2), SL_2(F_4) and SL_2(F_5), and for GL_2(Z_8) from 1536 to 8, the
# index of its non-cyclic answer.
@pytest.mark.parametrize("build, factors", [
    (lambda: elementary_closure(3, GF(2)), ()),
    (lambda: by_name("sl2:4"), ()),
    (lambda: by_name("sl2:5"), ()),
    (lambda: gl_group(2, Zmod(8)), (2, 2, 2)),
], ids=["E_3(F_2)", "SL_2(F_4)", "SL_2(F_5)", "GL_2(Z_8)"])
def test_abelianization_where_the_modulus_shrinks(build, factors):
    G = build()
    assert abelianization(G).factors == factors
    _check_abelianization(G)


def _check_coinvariants(action):
    H, act = action.target, action.act
    relators = {H.op(act(g, h), H.inv(h))
                for g in action.acting.elements for h in H.elements}
    relators.update(commutator_subgroup(H).generators)
    N = generated_subgroup(H, sorted(relators, key=H.index_of))
    assert _agrees(abelianization(H, action).factors, quotient_group(H, N))


def test_coinvariants_whose_action_rows_shrink_the_modulus():
    # -1 and 3 generate the units of Z_8; the relator of -1 alone brings the
    # modulus from 8 to 2, and that of 3 is then 0 mod 2
    units = GroupAction(klein_four(), cyclic(8),
                        lambda k, h: h * (-1) ** k[0] * 3 ** k[1] % 8)
    assert abelianization(cyclic(8), units).factors == (2,)
    _check_coinvariants(units)


# In about a quarter of the actions on abelian targets the modulus shrinks
# before some of the action rows are reduced.  The targets include the
# nonabelian Sym(3), D_8, Q_8, Sym(4), D_12 and SL_2(F_3), whose
# coinvariants are those of their abelianization.
@given(st.integers(0, 2 ** 32))
def test_coinvariants_of_seeded_actions(seed):
    _check_coinvariants(random_semidirect_action(random.Random(seed)))
