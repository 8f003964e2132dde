"""Finite groups as explicit element enumerations.

Elements are opaque hashable values (permutations, matrices, pairs, cosets);
each group carries its own operation.  Enumerations are deterministic: BFS
from the identity, the new elements of each level sorted by their keys'
own order (a permutation's images, a matrix's code, which orders matrices
as their rows), so every downstream tie-break is reproducible.

A group holds its elements as keys, which `_keying` picks once, when the
group is made: integer codes for matrices under `mul` that share a ring and
size (see `matrices`), and the elements themselves otherwise.  One loop
closes generators into a group (`enumerate_group`), on keys.  It images
every element under every generator, and the group reads its generator
tables off those images; a group given its elements steps every key with
each generator.  A group is made valid in one place, `FiniteGroup._setup`:
it builds the generator tables and a breadth-first spanning tree over them,
and refuses generators that do not generate it, so every abelianization
and action check may rely on them.  The generators' left multiplication
tables and all inverses are read off that tree, each in one pass over the
elements.

`abelianization` reduces the exponent sums of a complete set of relators
on a group's generators, which the group gives (`_relators`) from one of
two sources.  A listed group gives its Cayley-edge relators, read off the
tree: the Schreier relators of the one-level chain for its regular
action.  A group made with a faithful action on points gives those of its
stabilizer chain for that action (`stabilizer_chain`, one Schreier-Sims
routine for any `PointAction`): GL_n, SL_n and Aff_n act on column
vectors (see `matrix_groups`), and Sym(k) and wreath products on
0, ..., d - 1 by index lookup (see `constructions`).  Such a group is an
`_UnlistedGroup`, made from its order and its action, whose chain runs,
checked against that order, when the group is made; it lists itself, and
runs `_setup`, only when something first needs its elements.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import add, mul
from typing import Callable, NamedTuple

from .errors import (DEFAULT_CAP, CapExceededError, InvalidActionError,
                     WorkbenchError)


def check_order(order: int, cap, name: str) -> None:
    """CapExceededError when a group of this order is over the cap (None
    for no cap).  Every constructor that knows its order calls this before
    it lists an element; `enumerate_group` checks as its closure grows
    instead.  A `FiniteGroup` given its elements is not checked: they are
    listed already."""
    if cap is not None and order > cap:
        raise CapExceededError(
            f"{name or 'the group'} has order {order}, cap is {cap}; pass a "
            f"larger cap= (--cap on the command line) to raise it")


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
    reach only some of them.  The constructor takes the elements it is
    given, however many: a constructor that lists them checks their number
    before it does (see `check_order`).  `_left_tables` (per generator g,
    entry i is the index of g * elements[i]) and `_inverses` (the index of
    each element's inverse, which `inv` looks up) are read off the tree on
    first use.

    `_points` is None, or a `PointAction` on 0, ..., d - 1 that a
    permutation group or wreath product is made with (see `constructions`);
    a wreath product of the group acts through it.
    """

    _points = None

    def __init__(self, elements, op, identity, generators=(), name=""):
        elements = tuple(elements)
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

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label} of order {self.order}>"


class _Keys(NamedTuple):
    """How a group holds its elements as keys.  encode maps a list of
    elements to their keys and decode maps keys back; step(g) maps a list of
    keys to the keys of their products with g on the right."""

    encode: Callable
    step: Callable
    decode: Callable


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
    return _Keys(tuple, lambda g: lambda xs: [op(x, g) for x in xs], tuple)


def enumerate_group(generators, *, cap=DEFAULT_CAP, name="") -> FiniteGroup:
    """Close a generator list under its own multiplication, in breadth-first
    levels from the identity, each level's new elements sorted by their
    keys' own order.  The closure runs on keys: it images every key of a
    level under every generator, and the group reads its generator tables
    off those images.  CapExceededError, naming `name`, as soon as the
    closure grows past `cap` (None for no cap).

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
    identity = gens[0].identity_like()
    keying = _keying(mul, identity, gens)
    steps = [keying.step(g) for g in gens]
    start = keying.encode([identity])[0]
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
        level = sorted(fresh)
        seen.update(level)
        ordered += level
    return FiniteGroup._from_keys(ordered, keying, mul, identity, generators=gens,
                                  name=name, images=images)


class PointAction(NamedTuple):
    """A faithful action of a group on points, as `stabilizer_chain` reads
    it.  form(g) is how the chain holds the group element g; base lists
    points that only the identity fixes; apply(f, x) is the image of the
    point x under the element held as f; mul(f, f') holds the product,
    which acts as f' and then f; and element(images) holds the element
    that takes base[c] to images[c], and its inverse, as a pair."""

    form: Callable
    base: tuple
    apply: Callable
    mul: Callable
    element: Callable


class _Orbit:
    """Level l of a stabilizer chain: the orbit of base[l] under the strong
    generators that fix base[0], ..., base[l-1] (`gens`, indices into the
    chain's list).  Point i has a transversal element u_i with u_i base[l]
    = points[i]: `columns[i]` holds u_i base[c] for c >= l (its first entry
    is the point), `inverses[i]` the form of u_i^-1 (None for u_0, the
    identity) and `sums[i]` the exponent sums of its word.  `done[i]`
    counts the generators paired with point i so far, and every point
    before `cursor` is paired with all of them."""

    def __init__(self, columns, zero):
        self.points, self.index = [columns[0]], {columns[0]: 0}
        self.columns, self.inverses, self.sums = [columns], [None], [zero]
        self.done, self.gens, self.cursor = [0], [], 0


def stabilizer_chain(gens, action: PointAction) -> tuple[int, list[tuple[int, ...]]]:
    """The order of the group that `gens` generate, and the exponent-sum
    rows, over `gens`, of a complete set of its relators, from its
    faithful action on points.

    Deterministic Schreier-Sims (C. C. Sims, Computation with Finitely
    Presented Groups, 1994; A. Seress, Permutation Group Algorithms, 2003,
    ch. 4; Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005, ch. 4) on the action's base: only the identity fixes every base
    point, so the order is the product of the orbit lengths.  Products and
    images of points come from the action; no element of the group is
    listed.  Matrices act on column vectors with base e_1, ..., e_n (see
    `matrix_groups`), and permutations on their indices (see `constructions`).

    Level l pairs each orbit point w with each of its generators s.  When
    s w is new, it joins the orbit with u_(s w) = s u_w.  Otherwise the
    Schreier generator h = u_(s w)^-1 s u_w fixes base[0], ..., base[l]
    and sifts through the deeper levels: at level j, if h base[j] is a
    point x, h becomes u_x^-1 h.  Only the images h base[c] of the later
    base points are kept, so a sift moves points, not elements.  A sift
    that finds a point at every deeper level leaves the identity, and the
    relator h = u_x ... u_y of Sims' presentation (ch. 6 of the Handbook):
    its row is the exponent sums of h's word less those of the
    transversals it passed.  A sift that stops at level j, where h base[j]
    is no point, leaves a residue that fixes base[0], ..., base[j-1].  It
    joins the strong generators of levels 0 to j, carrying the exponent
    sums of its word, which substitutes it out of every relator, and the
    search resumes at level j.  The levels are finished from the last to
    the first, so the levels below the one being paired are always
    complete, and each residue grows an orbit.  A generator equal to the
    identity gives the row e_i.
    """
    form, base, apply, mul, element = action
    k = len(gens)
    zero = (0,) * k
    levels = [_Orbit(base[l:], zero) for l in range(len(base))]
    strong, relators = [], []

    def add_strong(images, sums):
        """A strong generator from its images of the base points."""
        level = next((c for c, (x, b) in enumerate(zip(images, base)) if x != b), None)
        if level is None:
            relators.append(sums)
            return None
        strong.append((*element(images), sums))
        for orbit in levels[:level + 1]:
            orbit.gens.append(len(strong) - 1)
            orbit.cursor = 0
        return level

    def finish(i):
        """Pair level i's points with its generators; the level of a new
        strong generator, or None when every pair is done."""
        orbit = levels[i]
        points, index, columns = orbit.points, orbit.index, orbit.columns
        inverses, sums, done = orbit.inverses, orbit.sums, orbit.done
        p = orbit.cursor
        while p < len(points):
            for t in orbit.gens[done[p]:]:
                done[p] += 1
                s, s_inverse, s_sums = strong[t]
                moved = [apply(s, c) for c in columns[p]]
                q = index.get(moved[0])
                if q is None:
                    index[moved[0]] = len(points)
                    points.append(moved[0])
                    columns.append(moved)
                    inverses.append(mul(inverses[p], s_inverse) if p else s_inverse)
                    sums.append(tuple(map(add, sums[p], s_sums)))
                    done.append(0)
                    continue
                row = [a + b - c for a, b, c in zip(s_sums, sums[p], sums[q])]
                images = moved[1:]
                if q:
                    images = [apply(inverses[q], v) for v in images]
                for j, deeper in enumerate(levels[i + 1:], i + 1):
                    x = deeper.index.get(images[0])
                    if x is None:
                        return add_strong(base[:j] + tuple(images), tuple(row))
                    del images[0]
                    if x:
                        images = [apply(deeper.inverses[x], v) for v in images]
                        row = [a - b for a, b in zip(row, deeper.sums[x])]
                if any(row):
                    relators.append(tuple(row))
            p += 1
        orbit.cursor = p
        return None

    for i, g in enumerate(gens):
        f = form(g)
        add_strong([apply(f, b) for b in base], tuple(int(i == j) for j in range(k)))
    i = len(base) - 1
    while i >= 0:
        level = finish(i)
        i = i - 1 if level is None else level
    return prod(len(orbit.points) for orbit in levels), relators


class _UnlistedGroup(FiniteGroup):
    """A group made from its generators, its order and a faithful action on
    points before any element is listed.

    It runs the `stabilizer_chain` of its generators on `points` when it is
    made, and raises WorkbenchError when the chain reaches another order;
    `_relators` returns the chain's rows.  `listing` returns the same group
    listed, with the same generators, by default `enumerate_group`'s closure
    of them under `mul`.  The first read of an attribute that `_setup` sets,
    which `elements`, `index_of`, `in`, `_tables` and `_tree` all make,
    calls it once and takes those attributes from its result, so the
    elements come in the listing's order."""

    # what FiniteGroup._setup sets from the keys
    _LISTING = ("_keys", "_keying", "_key_index", "_start", "_tables", "_tree")

    def __init__(self, generators, order, points: PointAction, name, *, op=mul,
                 identity=None, listing=None):
        if identity is None:
            identity = generators[0].identity_like()
        self.generators = gens = tuple(generators) or (identity,)
        self.op, self.identity = op, identity
        self.name = name
        reached, self._relator_rows = stabilizer_chain(gens, points)
        if reached != order:
            raise WorkbenchError(f"{name}'s generators reach {reached} of "
                                 f"{order} elements")
        self._order = order
        self._listing = listing or (lambda: enumerate_group(gens, cap=None, name=name))

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
        listed = vars(self._listing())
        for name in self._LISTING:
            setattr(self, name, listed[name])
        return getattr(self, attr)


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
    """Invariant factors of G^ab, or, given an `action` on G, of G^ab modulo
    every act(g, x) * x^-1: the action is checked (see `GroupAction.check`)
    and must target G.

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
        if action.target is not G:
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
        self._table  # built, and so checked, once

    @cached_property
    def _table(self) -> list[list[int]]:
        """act(k, h) as element indices of H, one row per element k of G;
        built only for an action that passes the tests `check` lists."""
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
        return table

    def __repr__(self) -> str:
        label = self.name or "action"
        return f"<{label}: {self.acting!r} on {self.target!r}>"

