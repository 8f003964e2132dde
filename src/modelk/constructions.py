"""Group constructions: powers, semidirect and wreath products, lifts.

Each constructor takes `cap` (default `DEFAULT_CAP`) and refuses a group
of more elements, naming its order, before it lists an element (see
`groups.check_order`); `wreath` and `index_permutation_action` pass it to
the constructors they call.

Pair conventions follow the usual semidirect multiplication
(h, k)(h', k') = (h * act(k, h'), k k'), and the wreath product K wr Sym(k)
is realized concretely as the index-permutation semidirect product, so both
constructions share one source of truth.  A semidirect product's generator
tables come from its factors' tables and the action's index table, not from
products of pairs, and `semidirect` builds them with the group.

Sym(k) and wreath products act faithfully on points (`_on_points`), and
past a small order they take their relators from the stabilizer chain of
that action (`groups.stabilizer_chain`), run and checked against their
order when they are made, and list their elements, in the same order as a
listing made at once, only on first use.
"""

from __future__ import annotations

from array import array
from itertools import permutations, product
from math import factorial
from operator import getitem, mul
from typing import Callable

from .errors import DEFAULT_CAP, WorkbenchError
from .groups import (AbInvariants, FiniteGroup, GroupAction, PointAction, _keying,
                     _UnlistedGroup, abelianization, check_order)
from .perms import Perm, permute_tuple
from .report import VerificationReport


def direct_power(K: FiniteGroup, k: int, *, name="", cap=DEFAULT_CAP) -> FiniteGroup:
    """K^k on index tuples, componentwise."""
    if k < 1:
        raise WorkbenchError("need at least one factor")
    name = name or f"{K.name or 'K'}^{k}"
    check_order(K.order ** k, cap, name)

    elements = list(product(K.elements, repeat=k))
    return FiniteGroup(elements, _power_op(K.op), (K.identity,) * k,
                       generators=_power_generators(K, k), name=name)


def _power_op(op):
    """The componentwise product on tuples of a group's elements."""
    def power_op(a, b):
        return tuple(op(x, y) for x, y in zip(a, b))
    return power_op


def _power_generators(K: FiniteGroup, k: int) -> list[tuple]:
    """The generators of K^k: each generator of K in each slot, the other
    slots the identity."""
    gens = []
    for i in range(k):
        for g in K.generators:
            t = [K.identity] * k
            t[i] = g
            gens.append(tuple(t))
    return gens


def _pair_op(h_op, act, k_op):
    """(h, k)(h', k') = (h * act(k, h'), k k')."""
    def pair_op(a, b):
        return (h_op(a[0], act(a[1], b[0])), k_op(a[1], b[1]))
    return pair_op


def _semidirect_tables(action: GroupAction) -> list[array]:
    """Generator tables of the semidirect product from its factors' tables
    and the checked action's index table, on pair indices i * |K| + j for
    (H.elements[i], K.elements[j]).  Right multiplication by (h', 1) takes
    (h, k) to (h * act(k, h'), k).  Each act(k, -) is an automorphism, so
    with h = act(k, x) that is (act(k, x * h'), k): the column of pairs
    with second entry k is H's table for h' conjugated by the action's row
    for k.  Right multiplication by (1, k') takes (h, k) to (h, k k').  No
    element of H or K is multiplied."""
    H, K, rows = action.target, action.acting, action._table
    size, n = K.order, H.order * K.order
    tables = [array("l", [0]) * n for _ in H._tables]
    for k, row in enumerate(rows):
        pairs = [i * size + k for i in row]
        for table, right in zip(tables, H._tables):
            column = [0] * H.order
            for x, y in zip(row, right):
                column[x] = pairs[y]
            table[k::size] = array("l", column)
    for right in K._tables:
        tables.append(array("l", [i * size + r for i in range(H.order) for r in right]))
    return tables


def semidirect(action: GroupAction, *, name="", cap=DEFAULT_CAP) -> FiniteGroup:
    """Pairs (h, k) with (h, k)(h', k') = (h * act(k, h'), k k').  The order
    is checked against `cap` before the action is."""
    H, K, act = action.target, action.acting, action.act
    name = name or f"{H.name or 'H'})x({K.name or 'K'}"
    check_order(H.order * K.order, cap, name)
    action.check()

    op = _pair_op(H.op, act, K.op)
    elements = [(h, k) for h in H.elements for k in K.elements]
    identity = (H.identity, K.identity)
    gens = [(h, K.identity) for h in H.generators] + [(H.identity, k) for k in K.generators]
    return FiniteGroup._from_keys(elements, _keying(op, identity, elements), op,
                                  identity, generators=gens, name=name,
                                  tables=_semidirect_tables(action))


def _on_points(gens, op, identity, order: int, name: str, points: PointAction,
               listing) -> FiniteGroup:
    """The group of `order` elements that `gens` generate, acting faithfully
    through `points` (an `_index_action` on d points), which it keeps as
    `_points`.  `listing` lists it.

    When d^2 < order it is an `_UnlistedGroup` whose relators come from its
    stabilizer chain on the points, run and checked to reach `order` now.
    Otherwise it is listed now: a chain's first level alone can hold d
    transversal elements of d images each, more than the group has
    elements, and the listed group's Cayley-edge relators are the one-level
    chain of its regular action."""
    degree = len(points.base)
    if degree * degree < order:
        G = _UnlistedGroup(gens, order, points, name, op=op, identity=identity,
                           listing=listing)
    else:
        G = listing()
    G._points = points
    return G


def _perm_and_inverse(images) -> tuple[Perm, Perm]:
    p = Perm(images)
    return p, p.inverse()


def _index_action(degree: int, form: Callable) -> PointAction:
    """An action on the points 0, ..., degree - 1, each element held as the
    Perm of its images, which `form` gives; every point is a base point."""
    return PointAction(form, tuple(range(degree)), getitem, mul, _perm_and_inverse)


def symmetric_group(k: int, *, cap=DEFAULT_CAP) -> FiniteGroup:
    """Sym(k) on image tuples, adjacent transpositions as generators; Sym(1)
    is the trivial group.  It acts on its k points (see `_on_points`).  The
    element list is lexicographic in the images, which is deterministic."""
    if k < 1:
        raise WorkbenchError(f"need a degree of at least 1, not {k}")
    name = f"Sym({k})"
    order = factorial(k)
    check_order(order, cap, name)
    identity = Perm.identity(k)
    gens = [Perm.transposition(k, i, i + 1) for i in range(k - 1)]
    return _on_points(gens, mul, identity, order, name,
                      _index_action(k, Perm),
                      lambda: FiniteGroup(map(Perm, permutations(range(k))), mul,
                                          identity, generators=gens, name=name))


def alternating_elements(k: int) -> set[Perm]:
    return {Perm(p) for p in permutations(range(k)) if Perm(p).is_even()}


def index_permutation_action(K: FiniteGroup, k: int, L: FiniteGroup, *,
                             cap=DEFAULT_CAP) -> GroupAction:
    """L <= Sym(k) permuting the coordinates of K^k: l moves slot x to slot l(x)."""
    base = direct_power(K, k, cap=cap)
    return GroupAction(L, base, permute_tuple, name=f"index permutation on {base.name}")


def _regular_points(K: FiniteGroup) -> PointAction:
    """K acting on its element indices by left multiplication, read off its
    spanning tree (see `FiniteGroup._left_multiplications`)."""
    return _index_action(K.order, lambda x: Perm(
        K._left_multiplications([K.index_of(x)])[0]))


def wreath(K: FiniteGroup, k: int, L: FiniteGroup | None = None, *,
           name="", cap=DEFAULT_CAP) -> FiniteGroup:
    """Restricted wreath product K wr L with L <= Sym(k) (default Sym(k)),
    listed as the index-permutation semidirect product.

    It acts on d k points, block i of the d points of slot i, where K acts
    on d points: through its own `_points` when it has them (Sym(k) and
    wreath products) and by its regular action otherwise.  (h, l) takes
    point x of block i to point h_(l(i)) x of block l(i); see `_on_points`.
    L's generators must be permutations of degree k, and they generate it.
    """
    if k < 1:
        raise WorkbenchError(f"need a degree of at least 1, not {k}")
    top = f"Sym({k})" if L is None else L.name
    name = name or f"{K.name or 'K'} wr {top}"
    order = K.order ** k * (factorial(k) if L is None else L.order)
    check_order(order, cap, name)
    if L is None:
        L = symmetric_group(k, cap=cap)
    for l in L.generators:
        if not isinstance(l, Perm) or l.degree != k:
            raise WorkbenchError("top group must consist of degree-k permutations")
    points = K._points or _regular_points(K)
    d, slot = len(points.base), points.form

    def form(pair):
        t, l = pair
        return Perm([j * d + y for j in l for y in slot(t[j])])

    base_identity = (K.identity,) * k
    gens = ([(t, L.identity) for t in _power_generators(K, k)]
            + [(base_identity, l) for l in L.generators])
    return _on_points(
        gens, _pair_op(_power_op(K.op), permute_tuple, L.op), (base_identity, L.identity),
        order, name, _index_action(d * k, form),
        lambda: semidirect(index_permutation_action(K, k, L, cap=None), name=name,
                           cap=None))


def check_semidirect_ab(action: GroupAction, *, cap=DEFAULT_CAP) -> VerificationReport:
    """Abelianization of a semidirect product against its two-factor formula.

    The product's abelianization must equal the acting group's abelianization
    plus the target's abelianization modulo every act(k, h) * h^-1, which
    `abelianization` gives with the action.
    """
    report = VerificationReport(
        f"semidirect abelianization: {action.name or action.target.name}")
    lhs = abelianization(semidirect(action, cap=cap))
    rhs = abelianization(action.acting).direct_sum(
        abelianization(action.target, action))
    report.add("factor formula", lhs.factors == rhs.factors,
               f"product gives {lhs}, factors give {rhs}")
    return report


def check_wreath_ab(K: FiniteGroup, k: int, *, cap=DEFAULT_CAP) -> VerificationReport:
    """Abelianization of K wr Sym(k) against abelianization(K) + Z_2."""
    report = VerificationReport(f"wreath abelianization: {K.name or 'K'} wr Sym({k})")
    W = wreath(K, k, cap=cap)
    lhs = abelianization(W)
    rhs = abelianization(K).direct_sum(AbInvariants((2,)))
    report.add("wreath formula", lhs.factors == rhs.factors,
               f"product gives {lhs}, formula gives {rhs}")
    return report


def _check_divides(n: int, m: int) -> None:
    if n < 1 or m < 1 or m % n != 0:
        raise WorkbenchError(f"need n | m, got n={n}, m={m}")


def lift_permutation(n: int, m: int, sigma: Perm) -> Perm:
    """Lift a permutation of Z_n to Z_m (n | m) residue-class-wise.

    The image of t is t + sigma(t mod n) - (t mod n), taken mod m, so each
    residue class mod n is shifted as a whole.
    """
    _check_divides(n, m)
    if sigma.degree != n:
        raise WorkbenchError(f"expected a permutation of Z_{n}")
    images = []
    for t in range(m):
        r = t % n
        images.append((t + sigma(r) - r) % m)
    return Perm(tuple(images))


def lift_components(n: int, m: int, entries) -> tuple:
    """Pull residue-indexed (sign, shift) data back along Z_m -> Z_n.

    Entry l' of the result is entry (l' mod n) of the input.  Signs must be
    +-1 and shifts must be multiples of n.
    """
    _check_divides(n, m)
    entries = tuple(entries)
    if len(entries) != n:
        raise WorkbenchError(f"expected {n} entries, got {len(entries)}")
    for sign, shift in entries:
        if sign not in (1, -1):
            raise WorkbenchError(f"sign must be +-1, got {sign}")
        if shift % n != 0:
            raise WorkbenchError(f"shift {shift} is not a multiple of {n}")
    return tuple(entries[t % n] for t in range(m))


def lifts_are_even(n: int, m: int) -> bool:
    """Whether every transposition of Z_n lifts to an even permutation of Z_m.

    Equivalent to m/n being even; the check here is the exhaustive one.
    """
    _check_divides(n, m)
    for i in range(n):
        for j in range(i + 1, n):
            if not lift_permutation(n, m, Perm.transposition(n, i, j)).is_even():
                return False
    return True
