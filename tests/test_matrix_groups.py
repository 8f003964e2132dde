import time
from itertools import product
from operator import attrgetter

import pytest

from modelk.constructions import semidirect
from modelk.errors import CapExceededError
from modelk.groups import DEFAULT_CAP, FiniteGroup, GroupAction, abelianization
from modelk.matrices import Mat
from modelk.matrix_groups import (KNOWN_GL_AB_EXCEPTIONS, affine_group,
                                  check_gl_ab, elementary_closure,
                                  gl_group, gl_order_field, special_linear)
from modelk.rings import GF, Zmod
from rational_oracles import det_filter


def test_gl_orders_match_formula():
    for n, q in ((1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        G = gl_group(n, GF(q))
        assert G.order == gl_order_field(n, q), (n, q)


def test_gl2_f2_is_sym3():
    G = gl_group(2, GF(2))
    assert G.order == 6
    assert abelianization(G).factors == (2,)
    assert KNOWN_GL_AB_EXCEPTIONS[(2, 2)] == (2,)


def test_special_linear_is_det_kernel():
    for n, q in ((2, 3), (2, 4), (3, 2)):
        ring = GF(q)
        sl = special_linear(n, ring)
        G = gl_group(n, ring)
        kernel = {m for m in G.elements if m.det() == ring.one}
        assert set(sl.elements) == kernel


@pytest.mark.parametrize("n, ring", [(2, GF(q)) for q in (2, 3, 4, 5, 7, 8, 9)]
                         + [(3, GF(2)), (3, GF(3))]
                         + [(2, Zmod(m)) for m in range(2, 13)])
def test_gl_and_sl_element_lists_are_the_det_filter(n, ring):
    rows = attrgetter("rows")
    assert sorted(gl_group(n, ring).elements, key=rows) == \
        det_filter(n, ring, set(ring.units()))
    assert sorted(special_linear(n, ring).elements, key=rows) == \
        det_filter(n, ring, {ring.one})


def test_special_linear_is_held_to_its_own_cap():
    # |SL_2(F_5)| = 120 fits a cap that |GL_2(F_5)| = 480 does not
    assert special_linear(2, GF(5), cap=200).order == 120
    with pytest.raises(CapExceededError, match=r"SL_2\(F_5\) has order 120, cap is 100"):
        special_linear(2, GF(5), cap=100)


def test_elementary_closure_equals_special_linear():
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        ring = GF(q)
        assert set(elementary_closure(n, ring).elements) == \
            set(det_filter(n, ring, {ring.one})), (n, q)


def test_check_gl_ab_within_hypotheses():
    for n, q in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
        rep = check_gl_ab(n, GF(q))
        assert rep.hypotheses_hold
        assert rep.matches_units and rep.commutator_is_sl
        assert rep.passed


def test_check_gl_ab_exception_case():
    rep = check_gl_ab(2, GF(2))
    assert not rep.hypotheses_hold  # no unit sum in F_2
    assert rep.known_exception
    assert rep.ab.factors == (2,)
    assert rep.passed


def test_check_gl_ab_outside_the_hypotheses_claims_nothing():
    # no two units of Z_4 sum to 1, and (2, 4) is no recorded exception: the
    # report measures GL_2(Z_4)^ab = Z_2 + Z_2 against R^x = Z_2 and passes
    rep = check_gl_ab(2, Zmod(4))
    assert not rep.hypotheses_hold and not rep.known_exception
    assert rep.ab.factors == (2, 2) and not rep.matches_units
    assert rep.passed


def test_gl_over_zmod_composite():
    # Z_4 is not a field; the unit group has order 2 and GL_1 = units
    G = gl_group(1, Zmod(4))
    assert G.order == 2
    assert abelianization(G).factors == (2,)


def test_gl2_over_zmod_abelianization():
    # GL_2(Z_6) = Sym(3) x GL_2(F_3); the others by the all-pairs route
    for m, ab in ((4, (2, 2)), (6, (2, 2)), (8, (2, 2, 2)), (9, (6,))):
        assert abelianization(gl_group(2, Zmod(m))).factors == ab, m


def test_check_gl_ab_over_zmod_with_noncyclic_units():
    for m, units in ((8, (2, 2)), (12, (2, 2)), (15, (2, 4))):
        rep = check_gl_ab(1, Zmod(m))
        assert rep.units_invariants.factors == units, m
        assert rep.ab.factors == units, m
        assert rep.matches_units and rep.commutator_is_sl and rep.passed, m


def test_affine_group_structure():
    A = affine_group(1, GF(5))
    assert A.order == 20
    assert abelianization(A).factors == (4,)
    A2 = affine_group(2, GF(2))
    assert A2.order == 6 * 4
    assert abelianization(A2).factors == (2,)


def test_affine_multiple_copies():
    A = affine_group(1, GF(3), copies=2)
    assert A.order == 2 * 9


def _additive_generators(ring):
    """Each element, in order, outside the additive span of the earlier picks."""
    picks, span = [], {ring.zero}
    for x in ring.elements:
        if x not in span:
            picks.append(x)
            while True:
                more = {ring.add(y, x) for y in span} - span
                if not more:
                    break
                span |= more
    return picks


def _semidirect_affine(n, ring, copies):
    """Aff_n(R)^copies as the pairs (v, A) of a semidirect product, v a
    tuple in R^(n copies) on which A acts block by block through Mat.apply:
    the route before affine groups were block matrices."""
    length = n * copies
    zero = (ring.zero,) * length
    gens = [zero[:i] + (c,) + zero[i + 1:]
            for i in range(length) for c in _additive_generators(ring)]
    V = FiniteGroup(product(ring.elements, repeat=length),
                    lambda a, b: tuple(map(ring.add, a, b)), zero,
                    generators=gens,
                    name=f"({ring})^{length}")

    def act(m, vec):
        return sum((m.apply(vec[c * n:(c + 1) * n]) for c in range(copies)), ())

    return V, semidirect(GroupAction(gl_group(n, ring), V, act), cap=None)


def _block(ring, vec, m, copies):
    """The block matrix [[m, V], [0, I]] whose column n + c is block c of vec."""
    n = m.n
    rows = tuple(row + tuple(vec[c * n + i] for c in range(copies))
                 for i, row in enumerate(m.rows))
    return Mat(ring, rows + Mat.identity(ring, n + copies).rows[n:])


# Aff_n(R)^copies, n <= 2 and copies <= 2, over F_2..F_9, Z_4, Z_6, Z_8 and
# Z_9, where its order fits the default cap
AFFINE_ORACLE_CASES = [
    (n, R, copies) for R in [GF(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [Zmod(m) for m in (4, 6, 8, 9)] for n in (1, 2) for copies in (1, 2)
    if R.size ** (n * copies) * gl_group(n, R, cap=None).order <= DEFAULT_CAP]


@pytest.mark.parametrize("n, ring, copies", AFFINE_ORACLE_CASES, ids=str)
def test_affine_groups_match_the_semidirect_route(n, ring, copies):
    V, old = _semidirect_affine(n, ring, copies)
    # over F_4, F_8 and F_9 the unit vectors alone span only a prime field's
    # vectors; the additive generators reach the elementary abelian group
    rank = len(_additive_generators(ring)) * n * copies
    assert abelianization(V).factors == (ring.char,) * rank
    A = affine_group(n, ring, copies)
    assert A.order == old.order
    assert abelianization(A).factors == abelianization(old).factors
    assert set(A.elements) == {_block(ring, v, m, copies) for v, m in old.elements}


def test_affine_groups_past_ten_by_ten_matrices():
    A = affine_group(1, GF(2), copies=10)
    assert A.order == 1024
    assert abelianization(A).factors == (2,) * 10


def test_over_cap_groups_of_large_matrices_are_refused_from_the_closed_form():
    start = time.process_time()
    with pytest.raises(CapExceededError, match=r"Aff_1\(F_2\)\^30 has order 1073741824, "
                       r"cap is 20000; pass a larger cap="):
        affine_group(1, GF(2), copies=30)
    with pytest.raises(CapExceededError, match=r"GL_40\(F_2\) has order \d+, cap is 20000"):
        gl_group(40, GF(2))
    assert time.process_time() - start < 0.1


def test_gl_cap():
    from modelk.errors import CapExceededError

    with pytest.raises(CapExceededError):
        gl_group(3, GF(5), cap=1000)
    # |GL_3(Z_6)| = |GL_3(F_2)| |GL_3(F_3)| = 168 * 11232 is refused from the
    # closed form, before any element is listed
    start = time.process_time()
    with pytest.raises(CapExceededError, match=r"GL_3\(Z_6\) has order 1886976, "
                       r"cap is 20000; pass a larger cap= \(--cap on the command line\)"):
        gl_group(3, Zmod(6))
    assert time.process_time() - start < 0.1
