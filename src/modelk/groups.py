"""Finite groups as explicit element enumerations.

Elements are opaque hashable values (permutations, matrices, pairs, cosets);
each group carries its own operation.  Enumerations are deterministic: BFS
from the identity with generators applied in the given order and new elements
of each level sorted by a structural key, so every downstream tie-break is
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul, sub

from .errors import CapExceededError, InvalidActionError, WorkbenchError

DEFAULT_CAP = 20000


def element_key(x):
    """Total, deterministic sort key over the element kinds we enumerate."""
    sk = getattr(x, "sort_key", None)
    if sk is not None:
        return ("o", element_key(sk))
    if isinstance(x, tuple):
        return ("t", tuple(element_key(y) for y in x))
    if isinstance(x, frozenset):
        return ("f", tuple(sorted(element_key(y) for y in x)))
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, int):
        return ("i", x)
    if isinstance(x, str):
        return ("s", x)
    raise TypeError(f"no sort key for {type(x)!r}")


class FiniteGroup:
    """A finite group on an explicit, ordered element tuple."""

    def __init__(self, elements, op, identity, inv=None, generators=(),
                 name="", cap=DEFAULT_CAP):
        elements = tuple(elements)
        if cap is not None and len(elements) > cap:
            raise CapExceededError(
                f"group {name or '<anonymous>'} has {len(elements)} elements, cap is {cap}")
        self.elements = elements
        self.op = op
        self.identity = identity
        self._inv = inv
        self.name = name
        self.cap = cap
        self._index = {e: i for i, e in enumerate(elements)}
        if len(self._index) != len(elements):
            raise WorkbenchError("duplicate elements in enumeration")
        if identity not in self._index:
            raise WorkbenchError("identity missing from enumeration")
        self._inv_cache = {}
        self._abelian = None
        # a group always carries a generating set, and a short one keeps the
        # relator rows of abelianization short
        self.generators = tuple(generators) or self._pick_generators()

    def _pick_generators(self) -> tuple:
        """Each element, in order, that the earlier picks do not generate."""
        picks, span = (), {self.identity}
        for x in self.elements:
            if x not in span:
                picks += (x,)
                span = set(generated_subgroup(self, picks).elements)
        return picks or (self.identity,)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def index_of(self, x) -> int:
        return self._index[x]

    def inv(self, a):
        cached = self._inv_cache.get(a)
        if cached is None:
            if self._inv is not None:
                cached = self._inv(a)
            else:
                # cycle a until the identity reappears; its predecessor
                # is the inverse
                prev, x = a, self.op(a, a)
                while x != self.identity:
                    prev, x = x, self.op(x, a)
                cached = prev
            self._inv_cache[a] = cached
        return cached

    def element_order(self, a) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.op(x, a)
            n += 1
        return n

    def is_abelian(self) -> bool:
        if self._abelian is None:
            els = self.elements
            self._abelian = all(self.op(a, b) == self.op(b, a)
                                for i, a in enumerate(els) for b in els[i + 1:])
        return self._abelian

    def conjugate(self, g, x):
        return self.op(self.op(g, x), self.inv(g))

    def commutator(self, a, b):
        return self.op(self.op(self.inv(a), self.inv(b)), self.op(a, b))

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label} of order {self.order}>"


def _bfs_closure(generators, op, identity, *, cap, key):
    """Deterministic closure of {identity} under right multiplication."""
    seen = {identity}
    ordered = [identity]
    level = [identity]
    while level:
        fresh = []
        for x in level:
            for g in generators:
                y = op(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
                    if cap is not None and len(seen) > cap:
                        raise CapExceededError(
                            f"closure exceeded the element cap of {cap}")
        fresh.sort(key=key)
        ordered.extend(fresh)
        level = fresh
    return ordered


def enumerate_group(generators, *, cap=DEFAULT_CAP, name="") -> FiniteGroup:
    """Close a generator list under its own multiplication.

    Generators must share a representation and expose __mul__, inverse()
    and identity_like(); permutations and matrices both qualify.
    """
    gens = list(generators)
    if not gens:
        raise WorkbenchError("need at least one generator")
    for g in gens:
        g.inverse()  # raises for a non-invertible generator
    identity = gens[0].identity_like()
    ordered = _bfs_closure(gens, mul, identity, cap=cap, key=element_key)
    return FiniteGroup(ordered, mul, identity, inv=lambda a: a.inverse(),
                       generators=gens, name=name, cap=cap)


def generated_subgroup(G: FiniteGroup, gens, *, name="") -> FiniteGroup:
    """Subgroup of G generated by `gens`, ordered by BFS with parent-index ties."""
    gens = [g for g in gens if g != G.identity]
    ordered = _bfs_closure(gens, G.op, G.identity, cap=G.cap, key=G.index_of)
    return FiniteGroup(ordered, G.op, G.identity, inv=G.inv,
                       generators=gens, name=name, cap=G.cap)


def _check_generation(G: FiniteGroup, reached: int) -> None:
    if reached < G.order:
        raise WorkbenchError(f"the generators of {G.name or 'the group'} "
                             f"reach {reached} of its {G.order} elements")


def commutator_subgroup(G: FiniteGroup) -> FiniteGroup:
    """The subgroup generated by all commutators [a, b] = a^-1 b^-1 a b.

    It is the normal closure of the commutators of G's generators, which must
    generate G (WorkbenchError otherwise).
    """
    _check_generation(G, generated_subgroup(G, G.generators).order)
    name = f"[{G.name or 'G'},{G.name or 'G'}]"
    seeds = {G.commutator(a, b) for a in G.generators for b in G.generators}
    seeds.discard(G.identity)
    while True:
        H = generated_subgroup(G, sorted(seeds, key=G.index_of), name=name)
        new = set()
        for x in H.elements:
            for g in G.generators:
                y = G.conjugate(g, x)
                if y not in H:
                    new.add(y)
        if not new:
            return H
        seeds.update(new)


def is_normal(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Whether the subgroup H (sharing G's operation) is normal in G."""
    _check_generation(G, generated_subgroup(G, G.generators).order)
    return all(G.conjugate(g, h) in H for g in G.generators for h in H.elements)


def quotient_group(G: FiniteGroup, N: FiniteGroup) -> FiniteGroup:
    """G/N with cosets as frozensets, ordered by first representative in G."""
    if not is_normal(G, N):
        raise WorkbenchError("subgroup is not normal; quotient undefined")
    coset_of = {}
    cosets = []
    reps = {}
    for g in G.elements:
        if g in coset_of:
            continue
        coset = frozenset(G.op(g, n) for n in N.elements)
        cosets.append(coset)
        reps[coset] = g
        for x in coset:
            coset_of[x] = coset

    def op(c1, c2):
        return coset_of[G.op(reps[c1], reps[c2])]

    def inv(c):
        return coset_of[G.inv(reps[c])]

    return FiniteGroup(cosets, op, coset_of[G.identity], inv=inv,
                       name=f"{G.name or 'G'}/{N.name or 'N'}", cap=G.cap)


@dataclass(frozen=True)
class AbInvariants:
    """Invariant factors d_1 | d_2 | ... | d_r of a finite abelian group."""

    factors: tuple[int, ...]

    def __post_init__(self):
        for d in self.factors:
            if d < 2:
                raise ValueError("factors must be at least 2")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"not a divisibility chain: {self.factors}")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def direct_sum(self, other: "AbInvariants") -> "AbInvariants":
        return invariants_from_factors(self.factors + other.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        return " + ".join(f"Z_{d}" for d in self.factors)


def invariants_from_factors(factors) -> AbInvariants:
    """Renormalize an arbitrary list of cyclic orders to a divisibility chain:
    the Smith form of their diagonal matrix, via Z_a + Z_b = Z_gcd + Z_lcm."""
    chain = list(factors)
    if any(d < 1 for d in chain):
        raise ValueError("cyclic orders must be positive")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] * chain[j] // g
    return AbInvariants(tuple(d for d in chain if d > 1))


def _add_relator(basis, row, n) -> None:
    """Enlarge the lattice span(basis) + n * Z^k by one row: Euclid's algorithm
    against each pivot of the upper-triangular basis.  Entries are kept mod n,
    which changes nothing because n * Z^k lies in the lattice."""
    row = [x % n for x in row]
    for j in range(len(row)):
        while row[j]:
            pivot = basis[j]
            q = row[j] // pivot[j]
            row = [(x - q * y) % n for x, y in zip(row, pivot)]
            if row[j]:
                basis[j], row = row, pivot


def _abelian_quotient(G: FiniteGroup, action: GroupAction | None = None) -> AbInvariants:
    """Invariant factors of G^ab, or of its coinvariants under `action` on G.

    A breadth-first search from the identity over G's k generators reaches
    each element x along a word whose exponent sums form v(x) in Z^k.  Each
    Cayley edge x * g_i = y gives the relator v(x) + e_i - v(y), and G^ab is
    Z^k modulo these relators (Reidemeister-Schreier).  They are kept as a
    Hermite basis mod |G|, which is sound because the g_i-cycle through x
    puts ord(g_i) * e_i, hence |G| * e_i, in their span.  An action adds the
    rows v(act(g, h_i)) - e_i over acting generators g and G's generators
    h_i.  The Smith form of the basis gives the invariant factors.
    Raises WorkbenchError when the generators do not generate G.
    """
    gens = G.generators
    k, n = len(gens), G.order
    basis = [[n if i == j else 0 for i in range(k)] for j in range(k)]
    vectors = {G.identity: (0,) * k}
    queue = [G.identity]
    seen = set()  # a repeated relator adds nothing to the lattice
    for x in queue:
        vx = vectors[x]
        for i, g in enumerate(gens):
            y = G.op(x, g)
            vy = vectors.get(y)
            if vy is None:
                vectors[y] = vx[:i] + (vx[i] + 1,) + vx[i + 1:]
                queue.append(y)
            else:
                row = list(map(sub, vx, vy))
                row[i] += 1
                row = tuple(row)
                if row not in seen:
                    seen.add(row)
                    _add_relator(basis, row, n)
    _check_generation(G, len(vectors))
    if action is not None:
        for g in action.acting.generators:
            for i, h in enumerate(gens):
                row = list(vectors[action.act(g, h)])
                row[i] -= 1
                _add_relator(basis, row, n)
    # Z^k / (span(B) + n * Z^k) depends only on B's Smith form, shared by its
    # transpose: alternating row and column Hermite bases reach a diagonal
    while any(basis[i][j] for i in range(k) for j in range(i + 1, k)):
        columns = zip(*basis)
        basis = [[n if i == j else 0 for i in range(k)] for j in range(k)]
        for column in columns:
            _add_relator(basis, list(column), n)
    return invariants_from_factors(basis[j][j] for j in range(k))


def abelianization(G: FiniteGroup) -> AbInvariants:
    """Invariant factors of G / [G, G], as the Smith form of the Cayley-graph
    relators over G's generators, which must generate G (WorkbenchError)."""
    return _abelian_quotient(G)


def abelian_iso(a: AbInvariants, b: AbInvariants) -> bool:
    return a.factors == b.factors


class GroupAction:
    """A group G acting on a group H by automorphisms.

    `mapping(g, h)` evaluates the action.  `check()` validates the action on
    generators, which suffices: automorphy of the generator maps propagates
    to products, as does the homomorphism law for the map into Aut(H).
    """

    def __init__(self, acting: FiniteGroup, target: FiniteGroup, mapping, name=""):
        self.acting = acting
        self.target = target
        self.mapping = mapping
        self.name = name
        self._checked = False

    def act(self, g, h):
        return self.mapping(g, h)

    def check(self) -> None:
        if self._checked:
            return
        G, H, act = self.acting, self.target, self.mapping
        for group in (G, H):
            _check_generation(group, generated_subgroup(group, group.generators).order)
        for g in G.generators:
            image = set()
            for h in H.elements:
                y = act(g, h)
                if y not in H:
                    raise InvalidActionError(f"action leaves the target group: {y!r}")
                image.add(y)
            if len(image) != H.order:
                raise InvalidActionError("generator does not act bijectively")
            for h1 in H.generators:
                for h2 in H.elements:
                    if act(g, H.op(h1, h2)) != H.op(act(g, h1), act(g, h2)):
                        raise InvalidActionError(
                            "generator does not act by a homomorphism")
        for g1 in G.generators:
            for g2 in G.elements:
                g12 = G.op(g1, g2)
                for h in H.elements:
                    if act(g12, h) != act(g1, act(g2, h)):
                        raise InvalidActionError(
                            "action map is not a homomorphism into Aut(H)")
        self._checked = True

    def __repr__(self) -> str:
        label = self.name or "action"
        return f"<{label}: {self.acting!r} on {self.target!r}>"


def coinvariants(H: FiniteGroup, action: GroupAction) -> AbInvariants:
    """Invariant factors of H / <act(g, h) * h^-1>, for abelian H.

    The relators for generators g of the acting group and h_i of H join H's
    own in the Smith-form route.  Generators suffice: the relator for a
    product of acting elements is a product of conjugated relators, and
    h -> act(g, h) * h^-1 is a homomorphism on abelian H.
    """
    if action.target is not H and action.target != H:
        raise WorkbenchError("action does not target the given group")
    if not H.is_abelian():
        raise WorkbenchError("coinvariants need an abelian target")
    action.check()
    return _abelian_quotient(H, action)
