"""Oracles shared by the tests: textbook Fraction and mod-p arithmetic, with
no modelk elimination underneath, the plain all-pairs form of
`make_block`, matrix groups as determinant filters over every matrix,
group multiplication tables and inverses from the group's own operation,
direct products of two groups on pairs, and symmetric groups and wreath
products listed element by element, as they were before they acted on
points.  The subgroup oracles for the commutator route of abelianization
(`generated_subgroup`, `commutator_subgroup`, `is_normal` and
`quotient_group`) close elements under a group's own operation, breadth
first, and hand the result to `FiniteGroup` as a list of elements."""

from fractions import Fraction
from itertools import permutations, product
from operator import mul

from modelk.constructions import index_permutation_action, semidirect
from modelk.defsets import Block
from modelk.errors import WorkbenchError
from modelk.groups import FiniteGroup, element_key
from modelk.matrices import Mat
from modelk.perms import Perm


def mat_inv(rows) -> list[list[Fraction]]:
    """Inverse by Gauss-Jordan on [M | I] over the Fractions; raises on a
    singular matrix."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            raise WorkbenchError("matrix is singular over Q")
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def solvable_mod_p(coeff: list[list[int]], rhs: list[int], p: int) -> bool:
    """Whether coeff * x = rhs has a solution over F_p (p prime), by
    Gauss-Jordan on the augmented rows with inverses mod p: it has none
    exactly when a row 0 = b with b != 0 is left."""
    m = [[a % p for a in row] + [b % p] for row, b in zip(coeff, rhs)]
    r = 0
    for c in range(len(m[0]) - 1 if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return not any(row[-1] for row in m[r:])


def fresh_sort_key(coset):
    """`AffineCoset.sort_key` built anew from the rational rows."""
    return (coset.ambient, 1 if coset.empty else 0, len(coset.basis),
            coset.rows)


def make_block_all_pairs(carrier, holes=()):
    """`make_block` by the plain quadratic route: every clipped hole is
    tested against every other one, duplicates are dropped by equality and
    the maximal holes are sorted by keys built anew."""
    if carrier.empty:
        return None
    clipped = []
    for h in holes:
        h = h.intersect(carrier)
        if h.empty:
            continue
        if h == carrier:
            return None
        clipped.append(h)
    maximal = []
    for h in clipped:
        if any(h != g and h.is_subset(g) for g in clipped):
            continue
        if h not in maximal:
            maximal.append(h)
    maximal.sort(key=fresh_sort_key)
    return Block(carrier, tuple(maximal))


def det_filter(n, ring, dets):
    """Every n x n matrix over the ring with its det in `dets`, in row order."""
    candidates = (Mat(ring, rows) for rows in
                  product(tuple(product(ring.elements, repeat=n)), repeat=n))
    return [m for m in candidates if m.det() in dets]


def product_tables(G, gens) -> list[list[int]]:
    """Entry i of table j is the index of elements[i] * gens[j], each product
    taken with G's operation."""
    return [[G.index_of(G.op(x, g)) for x in G.elements] for g in gens]


def left_tables(G) -> list[list[int]]:
    """Entry i of table j is the index of generators[j] * elements[i], each
    product taken with G's operation."""
    return [[G.index_of(G.op(g, x)) for x in G.elements] for g in G.generators]


def inverse_indices(G) -> list[int]:
    """The index of each element's inverse: the last power of the element
    before the identity, found by multiplying with G's operation."""
    out = []
    for x in G.elements:
        prev, y = G.identity, x
        while y != G.identity:
            prev, y = y, G.op(y, x)
        out.append(G.index_of(prev))
    return out


def direct_product(G, H) -> FiniteGroup:
    """G x H on pairs (g, h), componentwise, generated by the pairs of a
    generator of one factor and the identity of the other."""
    def op(a, b):
        return (G.op(a[0], b[0]), H.op(a[1], b[1]))

    elements = [(g, h) for g in G.elements for h in H.elements]
    gens = [(g, H.identity) for g in G.generators] + [(G.identity, h) for h in H.generators]
    return FiniteGroup(elements, op, (G.identity, H.identity),
                       generators=gens, name=f"{G.name}x{H.name}")


def listed_symmetric_group(k) -> FiniteGroup:
    """Sym(k) given every permutation, in lexicographic order of the images,
    with the adjacent transpositions as generators."""
    return FiniteGroup(map(Perm, permutations(range(k))), mul, Perm.identity(k),
                       generators=[Perm.transposition(k, i, i + 1) for i in range(k - 1)],
                       name=f"Sym({k})")


def listed_wreath(K, k) -> FiniteGroup:
    """K wr Sym(k) as the index-permutation semidirect product K^k x| Sym(k)."""
    action = index_permutation_action(K, k, listed_symmetric_group(k), cap=None)
    return semidirect(action, name=f"{K.name} wr Sym({k})", cap=None)


def closure(identity, op, gens, key=element_key, cap=None):
    """The closure of [identity] under right multiplication by `gens`, in
    breadth-first levels, each level's new elements sorted by `key`; None
    once it holds more than `cap` elements."""
    ordered, seen, level = [identity], {identity}, [identity]
    while level:
        level = sorted({op(x, g) for x in level for g in gens} - seen, key=key)
        seen.update(level)
        ordered += level
        if cap is not None and len(ordered) > cap:
            return None
    return ordered


def conjugate(G, g, x):
    """g x g^-1 in G."""
    return G.op(G.op(g, x), G.inv(g))


def commutator(G, a, b):
    """[a, b] = a^-1 b^-1 a b in G."""
    return G.op(G.op(G.inv(a), G.inv(b)), G.op(a, b))


def generated_subgroup(G, gens, *, name="") -> FiniteGroup:
    """The subgroup of G that `gens` generate, listed by `closure` with
    ties in G's element order."""
    gens = [g for g in gens if g != G.identity]
    return FiniteGroup(closure(G.identity, G.op, gens, key=G.index_of), G.op,
                       G.identity, generators=gens, name=name)


def commutator_subgroup(G) -> FiniteGroup:
    """The subgroup generated by all commutators of G: the normal closure of
    the commutators of G's generators, which generate G.  Conjugates of its
    generators that fall outside it join them until none do."""
    name = f"[{G.name or 'G'},{G.name or 'G'}]"
    seeds = {commutator(G, a, b) for a in G.generators for b in G.generators}
    seeds.discard(G.identity)
    while True:
        H = generated_subgroup(G, sorted(seeds, key=G.index_of), name=name)
        new = {y for x in seeds for g in G.generators
               if (y := conjugate(G, g, x)) not in H}
        if not new:
            return H
        seeds |= new


def is_normal(G, H) -> bool:
    """Whether the subgroup H = <S> is normal in G = <T>: whether t s t^-1
    lies in H for all t in T and s in S, since then t H t^-1 lies in H and,
    being finite of the same order, equals it."""
    return all(conjugate(G, t, s) in H for t in G.generators for s in H.generators)


def quotient_group(G, N) -> FiniteGroup:
    """G/N on cosets as frozensets, in the order of their first elements in
    G, generated by the cosets of G's generators."""
    if not is_normal(G, N):
        raise WorkbenchError("subgroup is not normal; quotient undefined")
    coset_of, reps = {}, {}
    for g in G.elements:
        if g not in coset_of:
            coset = frozenset(G.op(g, n) for n in N.elements)
            reps[coset] = g
            coset_of.update(dict.fromkeys(coset, coset))

    def op(c1, c2):
        return coset_of[G.op(reps[c1], reps[c2])]

    return FiniteGroup(reps, op, coset_of[G.identity],
                       generators=dict.fromkeys(coset_of[g] for g in G.generators),
                       name=f"{G.name or 'G'}/{N.name or 'N'}")
