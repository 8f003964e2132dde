"""Group constructions: products, semidirect and wreath products, lifts.

Pair conventions follow the usual semidirect multiplication
(h, k)(h', k') = (h * act(k, h'), k k'), and the wreath product K wr Sym(k)
is realized concretely as the index-permutation semidirect product, so both
constructions share one source of truth.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from operator import mul

from .errors import WorkbenchError
from .groups import (DEFAULT_CAP, AbInvariants, FiniteGroup, GroupAction,
                     _abelian_quotient, abelianization)
from .perms import Perm, permute_tuple
from .report import VerificationReport


def direct_product(G: FiniteGroup, H: FiniteGroup, *, name="") -> FiniteGroup:
    def op(a, b):
        return (G.op(a[0], b[0]), H.op(a[1], b[1]))

    def inv(a):
        return (G.inv(a[0]), H.inv(a[1]))

    elements = [(g, h) for g in G.elements for h in H.elements]
    gens = [(g, H.identity) for g in G.generators] + [(G.identity, h) for h in H.generators]
    return FiniteGroup(elements, op, (G.identity, H.identity), inv=inv,
                       generators=gens, name=name or f"{G.name}x{H.name}",
                       cap=max(G.cap or 0, len(elements)) or None)


def direct_power(K: FiniteGroup, k: int, *, name="") -> FiniteGroup:
    """K^k on index tuples, componentwise."""
    if k < 1:
        raise WorkbenchError("need at least one factor")

    def op(a, b):
        return tuple(K.op(x, y) for x, y in zip(a, b))

    def inv(a):
        return tuple(K.inv(x) for x in a)

    identity = (K.identity,) * k
    elements = list(product(K.elements, repeat=k))
    gens = []
    for i in range(k):
        for g in K.generators:
            t = [K.identity] * k
            t[i] = g
            gens.append(tuple(t))
    return FiniteGroup(elements, op, identity, inv=inv, generators=gens,
                       name=name or f"{K.name or 'K'}^{k}",
                       cap=max(K.cap or 0, len(elements)) or None)


def semidirect(action: GroupAction, *, name="", cap=None) -> FiniteGroup:
    """Pairs (h, k) with (h, k)(h', k') = (h * act(k, h'), k k')."""
    action.check()
    H, K, act = action.target, action.acting, action.act

    def op(a, b):
        return (H.op(a[0], act(a[1], b[0])), K.op(a[1], b[1]))

    def inv(a):
        kinv = K.inv(a[1])
        return (act(kinv, H.inv(a[0])), kinv)

    elements = [(h, k) for h in H.elements for k in K.elements]
    if cap is None:
        cap = max(H.cap or 0, K.cap or 0, len(elements)) or None
    gens = [(h, K.identity) for h in H.generators] + [(H.identity, k) for k in K.generators]
    return FiniteGroup(elements, op, (H.identity, K.identity), inv=inv,
                       generators=gens,
                       name=name or f"{H.name or 'H'})x({K.name or 'K'}",
                       cap=cap)


def _perm_group(k: int, cap) -> FiniteGroup:
    elements = [Perm(p) for p in permutations(range(k))]
    gens = [Perm.transposition(k, i, i + 1) for i in range(k - 1)]
    if not gens:
        gens = [Perm.identity(k)]
    return FiniteGroup(elements, mul, Perm.identity(k),
                       inv=lambda a: a.inverse(), generators=gens,
                       name=f"Sym({k})",
                       cap=cap if cap is not None else max(DEFAULT_CAP, factorial(k)))


def symmetric_group(k: int, *, cap=None) -> FiniteGroup:
    """Sym(k) on image tuples, adjacent transpositions as generators.

    The element list is lexicographic in the images, which is deterministic;
    the cap defaults to k! because the order is known up front.
    """
    if not 2 <= k <= 8:
        raise WorkbenchError(f"symmetric group degree out of range: {k}")
    return _perm_group(k, cap)


def alternating_elements(k: int) -> set[Perm]:
    return {Perm(p) for p in permutations(range(k)) if Perm(p).is_even()}


def index_permutation_action(K: FiniteGroup, k: int, L: FiniteGroup) -> GroupAction:
    """L <= Sym(k) permuting the coordinates of K^k: l moves slot x to slot l(x)."""
    base = direct_power(K, k)

    def act(l: Perm, t):
        return permute_tuple(l, t)

    return GroupAction(L, base, act, name=f"index permutation on {base.name}")


def wreath(K: FiniteGroup, k: int, L: FiniteGroup | None = None, *,
           name="", cap=None) -> FiniteGroup:
    """Restricted wreath product K wr L with L <= Sym(k) (default Sym(k))."""
    if not 1 <= k <= 4:
        raise WorkbenchError(f"wreath degree out of range: {k}")
    if L is None:
        L = _perm_group(k, None)
    for l in L.elements:
        if not isinstance(l, Perm) or l.degree != k:
            raise WorkbenchError("top group must consist of degree-k permutations")
    action = index_permutation_action(K, k, L)
    return semidirect(action, name=name or f"{K.name or 'K'} wr {L.name}", cap=cap)


def check_semidirect_ab(action: GroupAction) -> VerificationReport:
    """Abelianization of a semidirect product against its two-factor formula.

    The product's abelianization must equal the acting group's abelianization
    plus the coinvariants of the target's abelianization under the induced
    action.
    """
    report = VerificationReport(
        f"semidirect abelianization: {action.name or action.target.name}")
    lhs = abelianization(semidirect(action))
    rhs = abelianization(action.acting).direct_sum(
        _abelian_quotient(action.target, action))
    report.add("factor formula", lhs.factors == rhs.factors,
               f"product gives {lhs}, factors give {rhs}")
    return report


def check_wreath_ab(K: FiniteGroup, k: int) -> VerificationReport:
    """Abelianization of K wr Sym(k) against abelianization(K) + Z_2."""
    report = VerificationReport(f"wreath abelianization: {K.name or 'K'} wr Sym({k})")
    W = wreath(K, k)
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
