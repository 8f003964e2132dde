"""Finite groups as explicit element enumerations.

Elements are opaque hashable values (permutations, matrices, pairs, cosets);
each group carries its own operation.  Enumerations are deterministic: BFS
from the identity, the new elements of each level sorted by a structural
key, so every downstream tie-break is reproducible.

A group holds its elements as keys, which `_keying` picks once, when the
group is made: integer codes for matrices under `mul` that share a ring and
size (see `matrices`), and the elements themselves otherwise.  One loop
closes generators into a group (`_closure`), on keys.  It images every
element under every generator, and a group it makes reads its generator
tables off those images; a group given its elements steps every key with
each generator.  A group is made valid in one place, `FiniteGroup._setup`:
it builds the generator tables and a breadth-first spanning tree over them,
and refuses generators that do not generate it, so every abelianization,
normality test and action check may rely on them.  The generators' left
multiplication tables and all inverses are read off that tree, each in one
pass over the elements.

`abelianization` reduces the exponent sums of a complete set of relators
on a group's generators, which the group gives (`_relators`) from one of
two sources.  A listed group gives its Cayley-edge relators, read off the
tree: the Schreier relators of the one-level chain for its regular
action.  GL_n, SL_n and Aff_n give those of a stabilizer chain for their
action on column vectors (see `matrix_groups`): such a group is an
`_UnlistedGroup`, made from its order and those relators, and it runs the
closure and `_setup` only when something first needs its elements.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Callable, NamedTuple

from .errors import (DEFAULT_CAP, CapExceededError, InvalidActionError,
                     WorkbenchError)


def check_order(order: int, cap, name: str) -> None:
    """CapExceededError when a group of this order is over the cap (None
    for no cap).  Every constructor that knows its order calls this before
    it lists an element; `_closure` checks as it grows instead."""
    if cap is not None and order > cap:
        raise CapExceededError(
            f"{name or 'the group'} has order {order}, cap is {cap}; pass a "
            f"larger cap= (--cap on the command line) to raise it")


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
    """A finite group on an explicit, ordered element tuple.

    The group holds its elements as the keys that `_keying` picks for them,
    with one key -> index dict.  `elements` and the element -> index map are
    built from the keys on first use, so a group of matrices decodes its
    Mats only when a caller asks for them.  The constructor encodes the
    elements it is given; `_from_keys` takes keys directly.

    Every group of more than one element declares its generators (a short
    list keeps abelianization's relator rows short); the trivial group's
    default to (identity,).

    `_tables` holds for each generator g the array whose entry i is the
    index of elements[i] * g: the Cayley graph that abelianization walks.
    `_tree` is a breadth-first spanning tree of that graph from the
    identity: the indices in the order reached, and two lists with
    parent[y] = x and via[y] = i where elements[x] * g_i = elements[y] (the
    identity is its own parent).  Both are built when the group is made
    (an `_UnlistedGroup` builds them on first use), which raises
    WorkbenchError when an operation leaves the elements or the generators
    reach only some of them.  The constructor refuses more
    elements than `cap` (see `check_order`); a group is not capped after it
    is made.  `_left_tables` (per generator g, entry i is the index of
    g * elements[i]) and `_inverses` (the index of each element's inverse,
    which `inv` looks up) are read off the tree on first use.
    """

    def __init__(self, elements, op, identity, generators=(), name="",
                 cap=DEFAULT_CAP):
        elements = tuple(elements)
        check_order(len(elements), cap, name)
        keying = _keying(op, identity, elements)
        self._setup(keying.encode(elements), keying, op, identity, generators, name)

    @classmethod
    def _from_keys(cls, keys, keying, op, identity, *, generators=(), name="",
                   images=None, tables=None) -> "FiniteGroup":
        """The group whose elements have these `_keying` keys, in order; the
        caller has checked their number against its cap.  `images`, if
        given, holds per generator the keys of keys[i] * g; `tables`, if
        given, the generator tables themselves."""
        G = cls.__new__(cls)
        G._setup(keys, keying, op, identity, generators, name, images, tables)
        return G

    def _setup(self, keys, keying, op, identity, generators, name, images=None,
               tables=None):
        keys = tuple(keys)
        n = len(keys)
        self._keys = keys
        self._keying = keying
        self._key_index = index = dict(zip(keys, range(n)))
        if len(index) != n:
            raise WorkbenchError("duplicate elements in enumeration")
        start = index.get(keying.encode([identity])[0])
        if start is None:
            raise WorkbenchError("identity missing from enumeration")
        self._start = start
        self.op = op
        self.identity = identity
        self.name = name
        self._abelian = None
        generators = tuple(generators)
        if not generators and n > 1:
            raise WorkbenchError(f"{name or 'a group'} of {n} elements was "
                                 f"given no generators; pass `generators`")
        self.generators = generators or (identity,)
        label = name or "the group"
        if tables is None:
            if not images:
                images = (keying.step(g)(keys) for g in self.generators)
            tables = []
            for g, image in zip(self.generators, images):
                try:
                    tables.append(array("l", map(index.__getitem__, image)))
                except KeyError:
                    x = next(x for x, y in zip(self.elements, image) if y not in index)
                    raise WorkbenchError(
                        f"{label} is not closed under its operation: {x!r} * "
                        f"{g!r} = {op(x, g)!r} is not one of its elements") from None
        self._tables = tables
        steps = list(enumerate(tables))
        parent, via = [-1] * n, [0] * n
        parent[start] = start
        reached = [start]
        for x in reached:
            for i, table in steps:
                y = table[x]
                if parent[y] < 0:
                    parent[y] = x
                    via[y] = i
                    reached.append(y)
        if len(reached) < n:
            raise WorkbenchError(f"the generators of {label} reach "
                                 f"{len(reached)} of its {n} elements")
        self._tree = reached, parent, via

    @cached_property
    def elements(self) -> tuple:
        return tuple(self._keying.decode(self._keys))

    @cached_property
    def _index(self) -> dict:
        """Element -> index: the key index where the elements are their own
        keys."""
        elements = self.elements
        if elements is self._keys:
            return self._key_index
        return dict(zip(elements, range(len(elements))))

    @property
    def order(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def index_of(self, x) -> int:
        return self._index[x]

    def _left_multiplications(self, firsts) -> list[list[int]]:
        """For each index c in `firsts` the list whose entry i is the index
        of elements[c] * elements[i].  Left and right multiplications
        commute, so along the tree c * e = c and c * (p * g_j) =
        (c * p) * g_j: each entry is one lookup in a generator table."""
        reached, parent, via = self._tree
        steps = [(y, parent[y], self._tables[via[y]]) for y in reached[1:]]
        tables = []
        for c in firsts:
            table = [0] * self.order
            table[self._start] = c
            for y, p, right in steps:
                table[y] = right[table[p]]
            tables.append(table)
        return tables

    @cached_property
    def _left_tables(self) -> list[list[int]]:
        """For each generator g the list whose entry i is the index of
        g * elements[i]."""
        return self._left_multiplications([t[self._start] for t in self._tables])

    @cached_property
    def _inverses(self) -> list[int]:
        """The index of each element's inverse, along the tree: e^-1 = e
        and (p * g_j)^-1 = g_j^-1 * p^-1, a lookup in the left table of
        g_j^-1, the element that g_j's table takes to e."""
        reached, parent, via = self._tree
        undo = self._left_multiplications([t.index(self._start) for t in self._tables])
        inverses = [self._start] * self.order
        for y in reached[1:]:
            inverses[y] = undo[via[y]][inverses[parent[y]]]
        return inverses

    def inv(self, a):
        return self.elements[self._inverses[self.index_of(a)]]

    def _relators(self):
        """Exponent-sum rows, over the generators, of a complete set of
        relators for `abelianization`: the Cayley-edge relators."""
        return _cayley_relators(self)

    def element_order(self, a) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.op(x, a)
            n += 1
        return n

    def is_abelian(self) -> bool:
        """Whether the generators, which generate the group, commute
        pairwise."""
        if self._abelian is None:
            gens, op = self.generators, self.op
            self._abelian = all(op(a, b) == op(b, a)
                                for i, a in enumerate(gens) for b in gens[i + 1:])
        return self._abelian

    def conjugate(self, g, x):
        return self.op(self.op(g, x), self.inv(g))

    def commutator(self, a, b):
        return self.op(self.op(self.inv(a), self.inv(b)), self.op(a, b))

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label} of order {self.order}>"


class _Keys(NamedTuple):
    """How a group holds its elements as keys.  encode maps a list of
    elements to their keys and decode maps keys back; step(g) maps a list of
    keys to the keys of their products with g on the right; `order` is the
    sort key that orders keys as `element_key` orders their elements, None
    for codes, whose numeric order is that order."""

    encode: Callable
    step: Callable
    decode: Callable
    order: Callable | None


def _keying(op, identity, elements) -> _Keys:
    """How a group with this operation and identity holds `elements`.
    Matrices under `mul` that all share the identity's kernels, hence one
    ring and size, are held as integer codes (see `matrices`); any other
    elements are their own keys."""
    # only a Mat carries kernels, so this needs no import of the matrix layer
    k = getattr(identity, "_k", None)
    if op is mul and k is not None and all(getattr(x, "_k", None) is k for x in elements):
        return _Keys(*k.code_keys())
    # tuple() returns a tuple unchanged, so a tuple of elements is its own keys
    return _Keys(tuple, lambda g: lambda xs: [op(x, g) for x in xs], tuple, element_key)


def _closure(start, steps, cap, key, name=""):
    """Breadth-first closure of [start] under the steps, in levels, each
    level's new keys sorted by `key`.  Returns the keys in that order and,
    per step, the list of their images in the same order.
    CapExceededError names `name`."""
    ordered, seen, level = [start], {start}, [start]
    images = [[] for _ in steps]
    while level:
        fresh = set()
        for step, out in zip(steps, images):
            image = step(level)
            out += image
            fresh.update(image)
        fresh -= seen
        if cap is not None and len(seen) + len(fresh) > cap:
            raise CapExceededError(
                f"{name or 'the group'}: closure exceeded the element cap of {cap}; "
                f"pass a larger cap= (--cap on the command line) to raise it")
        level = sorted(fresh, key=key)
        seen.update(level)
        ordered += level
    return ordered, images


def _generator_closure(gens, cap, name):
    """The closure of `gens` under `mul`, in `enumerate_group`'s order, as
    `_setup` takes it: its keys, their keying, the identity and the
    generators' images of the keys."""
    identity = gens[0].identity_like()
    keying = _keying(mul, identity, gens)
    ordered, images = _closure(keying.encode([identity])[0],
                               [keying.step(g) for g in gens], cap, keying.order, name)
    return ordered, keying, identity, images


def enumerate_group(generators, *, cap=DEFAULT_CAP, name="") -> FiniteGroup:
    """Close a generator list under its own multiplication, in breadth-first
    levels from the identity, each level sorted by `element_key`.

    Generators must share a representation and expose __mul__ and
    identity_like(); permutations and matrices both qualify.
    """
    gens = list(generators)
    if not gens:
        raise WorkbenchError("need at least one generator")
    for g in gens:
        # a matrix needs a unit det, and Mat.inverse raises naming it; a
        # permutation is a bijection by construction
        if not getattr(g, "is_invertible", lambda: True)():
            g.inverse()
    ordered, keying, identity, images = _generator_closure(gens, cap, name)
    return FiniteGroup._from_keys(ordered, keying, mul, identity, generators=gens,
                                  name=name, images=images)


class _UnlistedGroup(FiniteGroup):
    """The closure of `generators` under `mul`, made from its order and the
    exponent-sum rows of a complete set of relators on its generators
    (a stabilizer chain's, see `matrix_groups`) before any element is
    listed.  The first read of an attribute that `_setup` sets, which
    `elements`, `index_of`, `in`, `_tables` and `_tree` all make, runs
    `enumerate_group`'s closure and `_setup`, so the elements come in the
    order that `enumerate_group` lists them."""

    # what FiniteGroup._setup sets from the keys
    _LISTING = frozenset({"_keys", "_keying", "_key_index", "_start", "_tables",
                          "_tree"})

    def __init__(self, generators, order, relators, name):
        self.generators = tuple(generators)
        self.op, self.identity = mul, self.generators[0].identity_like()
        self.name, self._abelian = name, None
        self._order, self._relator_rows = order, relators

    @property
    def order(self) -> int:
        return self._order

    def __len__(self) -> int:
        return self._order

    def _relators(self):
        return self._relator_rows

    def __getattr__(self, attr):
        if attr not in self._LISTING:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        ordered, keying, identity, images = _generator_closure(self.generators, None,
                                                               self.name)
        self._setup(ordered, keying, mul, identity, self.generators, self.name, images)
        return getattr(self, attr)


def generated_subgroup(G: FiniteGroup, gens, *, name="") -> FiniteGroup:
    """Subgroup of G generated by `gens`, ordered by BFS with parent-index
    ties; no larger than G, so it needs no cap."""
    gens = [g for g in gens if g != G.identity]
    ordered, images = _closure(G._keys[G._start], [G._keying.step(g) for g in gens],
                               None, G._key_index.__getitem__, name)
    return FiniteGroup._from_keys(ordered, G._keying, G.op, G.identity,
                                  generators=gens, name=name, images=images)


def commutator_subgroup(G: FiniteGroup) -> FiniteGroup:
    """The subgroup generated by all commutators [a, b] = a^-1 b^-1 a b.

    It is the normal closure of the commutators of G's generators, which
    generate G.  Conjugates of its generators that fall outside it join them
    until none do (see `is_normal`).
    """
    name = f"[{G.name or 'G'},{G.name or 'G'}]"
    seeds = {G.commutator(a, b) for a in G.generators for b in G.generators}
    seeds.discard(G.identity)
    while True:
        H = generated_subgroup(G, sorted(seeds, key=G.index_of), name=name)
        new = {y for x in seeds for g in G.generators
               if (y := G.conjugate(g, x)) not in H}
        if not new:
            return H
        seeds |= new


def is_normal(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Whether the subgroup H (sharing G's operation) is normal in G = <T>:
    whether t s t^-1 lies in H = <S> for all t in T and s in S, since then
    t H t^-1 lies in H and, being finite of the same order, equals it.
    T and S generate G and H, as every group's generators do."""
    return all(G.conjugate(t, s) in H for t in G.generators for s in H.generators)


def quotient_group(G: FiniteGroup, N: FiniteGroup) -> FiniteGroup:
    """G/N with cosets as frozensets, ordered by first representative in G;
    no larger than G, so it needs no cap."""
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

    return FiniteGroup(cosets, op, coset_of[G.identity],
                       generators=dict.fromkeys(coset_of[g] for g in G.generators),
                       name=f"{G.name or 'G'}/{N.name or 'N'}", cap=None)


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


def _add_relator(basis, row, n) -> bool:
    """Enlarge the lattice span(basis) + n * Z^k by one row: Euclid's algorithm
    against each pivot of the upper-triangular basis.  Entries are kept mod n,
    which changes nothing because n * Z^k lies in the lattice.  Returns
    whether a pivot changed."""
    row = [x % n for x in row]
    changed = False
    for j in range(len(row)):
        while row[j]:
            pivot = basis[j]
            q = row[j] // pivot[j]
            row = [(x - q * y) % n for x, y in zip(row, pivot)]
            if row[j]:
                basis[j], row, changed = row, pivot, True
    return changed


def _scaled_identity(k, n):
    return [[n if i == j else 0 for i in range(k)] for j in range(k)]


def abelianization(G: FiniteGroup, action: GroupAction | None = None) -> AbInvariants:
    """Invariant factors of G^ab, or of its coinvariants under `action` on G,
    which it checks (see `GroupAction.check`) and which must target G.

    G^ab is Z^k, k the number of G's generators, modulo the lattice L of
    exponent sums of its relators, and a complete set of relators spans L.
    G gives them (`_relators`): a group listed from the start gives its
    Cayley-edge relators (`_cayley_relators`), and one made from a
    stabilizer chain gives the chain's (see `matrix_groups`).  An action
    adds rows to the Cayley-edge relators, which lists G first.  The Smith
    form of a basis of L gives the invariant factors.

    L is kept as an upper-triangular Hermite basis B mod a modulus m with
    m * Z^k in L.  At first m = |G|, which is sound because |G| kills G^ab
    and its quotients.  The product d of B's pivots is the index of span(B)
    in Z^k, so d * Z^k lies in span(B), inside L; hence so does
    gcd(d, m) * Z^k.  Whenever that gcd falls below m it becomes the
    modulus: B is reduced mod it, and so is each relator after.  A reduced
    relator equal to one already added lies in L and is skipped, so at most
    m^k relators are reduced at modulus m.
    """
    if action is None:
        relators = G._relators()
    else:
        if action.target is not G and action.target != G:
            raise WorkbenchError("action does not target the given group")
        action.check()
        relators = _cayley_relators(G, action)
    k = len(G.generators)
    m = G.order
    basis = _scaled_identity(k, m)
    seen = {(0,) * k}
    for r in relators:
        row = tuple([x % m for x in r])
        if row in seen:
            continue
        seen.add(row)
        if _add_relator(basis, row, m):
            d = gcd(m, prod(basis[j][j] for j in range(k)))
            if d < m:
                m, old = d, basis
                basis = _scaled_identity(k, m)
                for b in old:
                    _add_relator(basis, b, m)
                if m == 1:
                    break
    # Z^k / (span(B) + m * Z^k) depends only on B's Smith form, shared by its
    # transpose: alternating row and column Hermite bases reach a diagonal
    while any(basis[i][j] for i in range(k) for j in range(i + 1, k)):
        columns = zip(*basis)
        basis = _scaled_identity(k, m)
        for column in columns:
            _add_relator(basis, column, m)
    return invariants_from_factors(basis[j][j] for j in range(k))


def _cayley_relators(G: FiniteGroup, action: GroupAction | None = None):
    """The exponent-sum rows of G's Cayley-edge relators, and of an
    action's, each distinct row once.

    A breadth-first search from the identity over G's k generators reaches
    each element x along a word whose exponent sums form v(x) in Z^k.  Each
    Cayley edge x * g_i = y gives the relator v(x) + e_i - v(y)
    (Reidemeister-Schreier): these are the Schreier relators of the chain
    for G's regular action, which has one level, orbit G and trivial
    stabilizer.  An action adds the rows v(act(g, h_i)) - e_i over acting
    generators g and G's generators h_i.

    The search is G's spanning tree and the edges are its generator tables,
    with each vector packed into one int of k digits of s bits.  Each v(x)
    has coordinates in [0, D], D the depth of the search tree, taken at
    least 1, so a relator's coordinates lie in [-D, D + 1]; with D added to
    each digit they fit in s = (2D + 1).bit_length() bits.  Only the
    distinct relators are unpacked, as they are read.
    """
    tables = G._tables
    reached, parent, via = G._tree
    k, n = len(tables), G.order
    # the last element reached lies deepest in the tree
    depth, y = 1, parent[reached[-1]]
    while y != reached[0]:
        depth, y = depth + 1, parent[y]
    s = (2 * depth + 1).bit_length()
    units = [1 << (s * i) for i in range(k)]
    packed = [0] * n
    for y in reached[1:]:
        packed[y] = packed[parent[y]] + units[via[y]]
    relators = set()
    for unit, table in zip(units, tables):
        # a tree edge gives the zero relator
        relators.update([d + unit for d in {vx - packed[y]
                                             for vx, y in zip(packed, table)}])
    if action is not None:
        for g in action.acting.generators:
            relators.update([packed[G.index_of(action.act(g, h))] - unit
                             for unit, h in zip(units, G.generators)])
    offset, mask = sum(depth * unit for unit in units), (1 << s) - 1
    shifts = [s * i for i in range(k)]
    for r in relators:
        r += offset
        yield tuple([(r >> shift & mask) - depth for shift in shifts])


class GroupAction:
    """A group G acting on a group H by automorphisms.

    `act(g, h)` evaluates the action.  `check()` validates it.
    """

    def __init__(self, acting: FiniteGroup, target: FiniteGroup, act, name=""):
        self.acting = acting
        self.target = target
        self.act = act
        self.name = name
        self._checked = False
        self._table = None

    def check(self) -> None:
        """Raise InvalidActionError unless the mapping is an action by
        automorphisms.

        Write r(k) for the map h -> act(k, h).  The check computes the table
        of act(k, h) as element indices of H once, for all k and h, and then
        runs on integers:
        - every act(k, h) lies in H;
        - each generator g of G gives a bijection r(g);
        - r(g) is a homomorphism: it fixes e, and for each generator h of H,
          P_h = r(g) o R_h o r(g)^-1 (R_h right multiplication by h) commutes
          with left multiplication by each generator of H;
        - r(k * g) = r(k) o r(g) for all k and each generator g of G.
        A permutation P that commutes with those commutes with every left
        multiplication L_x, their composite, so P(x) = P(L_x(e)) = x * P(e).
        As r(g) fixes e, P_h(e) = r(g)(h), so the third check holds exactly
        when r(g)(x * h) = r(g)(x) * r(g)(h) for all x and each generator h.
        By induction on the length of a word w in the generators, that
        gives r(g)(x * w) = r(g)(x) * r(g)(w), and the fourth r(k * w) =
        r(k) o r(w); every element of a finite group that its generators
        generate, as every group's do, is such a word.  So each r(g) is an
        automorphism of H, and r is a homomorphism from G into maps of H
        whose values are products of automorphisms; r(e) is then the
        identity, since r(g) = r(e) o r(g) with r(g) bijective.  Conversely
        an action by automorphisms passes every check.  H's left tables
        come from its spanning tree (see `FiniteGroup._left_tables`), so the
        check multiplies no elements.
        """
        if self._checked:
            return
        G, H, act = self.acting, self.target, self.act
        index, targets = H._index, H.elements
        table = []
        for k in G.elements:
            try:
                table.append([index[act(k, h)] for h in targets])
            except KeyError:
                y = next(y for y in (act(k, h) for h in targets) if y not in index)
                raise InvalidActionError(f"action leaves the target group: {y!r}") from None
        for g in G.generators:
            row = table[G.index_of(g)]
            if len(set(row)) != H.order:
                raise InvalidActionError("generator does not act bijectively")
            if row[H._start] != H._start:
                raise InvalidActionError("generator does not act by a homomorphism")
            for right in H._tables:
                conjugated = [0] * H.order
                for x, y in zip(row, right):
                    conjugated[x] = row[y]
                for left in H._left_tables:
                    if [conjugated[y] for y in left] != [left[y] for y in conjugated]:
                        raise InvalidActionError(
                            "generator does not act by a homomorphism")
        for g, right in zip(G.generators, G._tables):
            row = table[G.index_of(g)]
            for k, row_k in enumerate(table):
                if table[right[k]] != [row_k[j] for j in row]:
                    raise InvalidActionError(
                        "action map is not a homomorphism into Aut(H)")
        self._table = table
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
    if not H.is_abelian():
        raise WorkbenchError("coinvariants need an abelian target")
    return abelianization(H, action)
