"""Oracles shared by the tests: textbook Fraction and mod-p arithmetic, with
no modelk elimination underneath, the plain all-pairs form of
`make_block`, matrix groups as determinant filters over every matrix,
group multiplication tables and inverses from the group's own operation,
direct products of two groups on pairs, and symmetric groups and wreath
products listed element by element, as they were before they acted on
points."""

from fractions import Fraction
from itertools import permutations, product
from operator import mul

from modelk.constructions import index_permutation_action, semidirect
from modelk.defsets import Block
from modelk.errors import WorkbenchError
from modelk.groups import FiniteGroup
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
                       generators=gens, name=f"{G.name}x{H.name}", cap=None)


def listed_symmetric_group(k) -> FiniteGroup:
    """Sym(k) given every permutation, in lexicographic order of the images,
    with the adjacent transpositions as generators."""
    return FiniteGroup(map(Perm, permutations(range(k))), mul, Perm.identity(k),
                       generators=[Perm.transposition(k, i, i + 1) for i in range(k - 1)],
                       name=f"Sym({k})", cap=None)


def listed_wreath(K, k) -> FiniteGroup:
    """K wr Sym(k) as the index-permutation semidirect product K^k x| Sym(k)."""
    action = index_permutation_action(K, k, listed_symmetric_group(k), cap=None)
    return semidirect(action, name=f"{K.name} wr Sym({k})", cap=None)
