"""`maps`: piecewise-affine maps, the constructive path of the geometry.

Seeded maps on Q^1..Q^3 in the `aut` JSON format: affine maps, translations,
point swaps, affine maps patched by a swap, hyperplane-supported maps and
compositions of an affine map with small-support maps.  Each map gets four
ops: validate; invert, compose and check that the support is empty;
decompose and recompose with same_map; conjugate and compare support_dim.
This uses the same coset and block layers as `sets`, but through
intersection, difference, same_set and new blocks over fractional data, with
few holes and no counting.

Every map is built with its affine part and support dimension known by
construction, and those are the references.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from exact import mat_mul, mat_vec, solve
from harness import Op

DIAGONAL = (Fraction(2), Fraction(-1, 2), Fraction(3, 2))
MAPS_PER_KIND = 3
KINDS = ("affine", "translation", "swap", "patched", "hyperplane", "composite")
# a point of Q^1 cannot be shifted within itself
KINDS_ON_LINE = tuple(k for k in KINDS if k != "hyperplane")


# ---------------------------------------------------------------------------
# layers


def _pieces_counter(counts, args, result):
    from modelk.automorphisms import PAMap

    counts["automorphisms.pieces_in"] += sum(
        len(a.pieces) for a in args if isinstance(a, PAMap))
    if isinstance(result, tuple):  # decompose gives (affine, residual)
        result = result[1]
    if isinstance(result, PAMap):
        counts["automorphisms.pieces_out"] += len(result.pieces)


def layer_table():
    from modelk.automorphisms import PAMap, conjugate, decompose_affine

    spans = {
        "validate": PAMap.validate, "invert": PAMap.invert,
        "compose": PAMap.compose, "support": PAMap.support,
        "support_dim": PAMap.support_dim, "decompose": decompose_affine,
        "same_map": PAMap.same_map, "conjugate": conjugate,
    }
    return {attr: (f"automorphisms.{'support' if attr == 'support_dim' else attr}",
                   fn, _pieces_counter)
            for attr, fn in spans.items()}


# ---------------------------------------------------------------------------
# map data, kept as (matrix, offset) pairs of Fractions


def _frac(rng):
    """A half-odd coordinate: every point has the same fraction size."""
    return Fraction(rng.choice((-7, -5, -3, -1, 1, 3, 5, 7)), 2)


def _point(rng, n):
    return tuple(_frac(rng) for _ in range(n))


def _identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _random_affine(rng, n):
    """A random invertible affine map other than the identity.

    The matrix is P L D U: a permutation, unit triangular factors with
    entries in {-1, 1}, and a diagonal holding a shuffled fixed list of
    fractions, so every draw has the same determinant size and rational
    arithmetic costs about the same for every seed."""
    perm = rng.sample(range(n), n)
    diag = rng.sample(DIAGONAL[:n], n)
    lower = [[Fraction(1 if i == j else rng.choice((-1, 1)) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else rng.choice((-1, 1)) if j > i else 0)
              for j in range(n)] for i in range(n)]
    lu = mat_mul(lower, [[d * x for x in row] for d, row in zip(diag, upper)])
    return tuple(lu[perm[i]] for i in range(n)), _point(rng, n)


def _translation(v):
    return _identity(len(v)), tuple(v)


def _after(outer, inner):
    """outer o inner for (matrix, offset) pairs."""
    (A, b), (M, v) = outer, inner
    return mat_mul(A, M), tuple(x + y for x, y in zip(mat_vec(A, v), b))


def _rat(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coset(n, rows):
    return {"ambient": n, "rows": [[_rat(x) for x in row] for row in rows]}


def _point_rows(p):
    n = len(p)
    return [[int(i == j) for j in range(n)] + [x] for i, x in enumerate(p)]


def _piece(n, carrier_rows, holes, affine):
    A, b = affine
    return {"carrier": _coset(n, carrier_rows),
            "holes": [_coset(n, h) for h in holes],
            "matrix": [[_rat(x) for x in row] for row in A],
            "offset": [_rat(x) for x in b]}


def _distinct_points(rng, n, k, avoid=lambda p: False):
    points = []
    while len(points) < k:
        p = _point(rng, n)
        if p not in points and not avoid(p):
            points.append(p)
    return points


def _swap_pieces(n, a, b):
    """Pieces exchanging the points a and b (the rest is left to the caller)."""
    return [(_point_rows(a), _translation([y - x for x, y in zip(a, b)])),
            (_point_rows(b), _translation([x - y for x, y in zip(a, b)]))]


def _small_support(rng, n):
    """(pieces of a map moving a small set, the holes of its identity piece,
    the support dimension): a hyperplane shift plus a swap off the plane in
    Q^2 and Q^3, two disjoint swaps in Q^1."""
    if n == 1:
        a, b, c, d = _distinct_points(rng, 1, 4)
        pieces = _swap_pieces(n, a, b) + _swap_pieces(n, c, d)
        return pieces, [_point_rows(p) for p in (a, b, c, d)], 0
    axis, level = rng.randrange(n), _frac(rng)
    plane = [[int(j == axis) for j in range(n)] + [level]]
    shift = [Fraction(0)] * n
    shift[(axis + 1) % n] = Fraction(rng.randint(1, 3))
    a, b = _distinct_points(rng, n, 2, lambda p: p[axis] == level)
    pieces = [(plane, _translation(shift))] + _swap_pieces(n, a, b)
    return pieces, [plane, _point_rows(a), _point_rows(b)], n - 1


def random_map(rng, n, kind):
    """(aut JSON pieces, affine part, support dimension) of a map on Q^n of
    the given kind."""
    full = []
    if kind == "affine":
        g = _random_affine(rng, n)
        return [_piece(n, full, [], g)], g, n
    if kind == "translation":
        g = _translation(_distinct_points(rng, n, 1, lambda p: not any(p))[0])
        return [_piece(n, full, [], g)], g, n
    if kind == "swap":
        a, b = _distinct_points(rng, n, 2)
        pieces = [_piece(n, full, [_point_rows(a), _point_rows(b)],
                         _identity_map(n))]
        pieces += [_piece(n, rows, [], m) for rows, m in _swap_pieces(n, a, b)]
        return pieces, _identity_map(n), 0
    if kind == "patched":  # swap(p, q) o g
        g = _random_affine(rng, n)
        p, q = _distinct_points(rng, n, 2)
        pre = [solve(g[0], [x - y for x, y in zip(t, g[1])]) for t in (p, q)]
        pieces = [_piece(n, full, [_point_rows(x) for x in pre], g)]
        for x, (_, shift) in zip(pre, _swap_pieces(n, p, q)):
            pieces.append(_piece(n, _point_rows(x), [], _after(shift, g)))
        return pieces, g, n
    small, holes, dim = _small_support(rng, n)
    if kind == "hyperplane":  # the plane piece alone
        g, small, holes = _identity_map(n), small[:1], holes[:1]
    else:  # composite: g o (small-support map)
        g, dim = _random_affine(rng, n), n
    pieces = [_piece(n, full, holes, g)]
    pieces += [_piece(n, rows, [], _after(g, m)) for rows, m in small]
    return pieces, g, dim


def _identity_map(n):
    return _identity(n), (Fraction(0),) * n


# ---------------------------------------------------------------------------
# ops


def _fresh(f):
    """A new PAMap on the same pieces, so no validity memo carries over."""
    from modelk.automorphisms import PAMap

    return PAMap(f.ambient, f.pieces)


def _validate(L, f):
    return L.validate(_fresh(f)).passed


def _invert_compose(L, f):
    f = _fresh(f)
    return L.support(L.compose(f, L.invert(f))).is_empty


def _decompose(L, f):
    from modelk.automorphisms import PAMap

    f = _fresh(f)
    g, h = L.decompose(f)
    same = L.same_map(L.compose(PAMap.from_affine(g, f.ambient), h), f)
    return same, g.matrix, g.offset


def _conjugate(L, f, a):
    f = _fresh(f)
    return L.support_dim(f), L.support_dim(L.conjugate(a, f))


def make_ops(seed):
    """(timed ops in a seeded order, no known-defect probe ops)."""
    from modelk.automorphisms import AffineMap
    from modelk.jsonio import pamap_from_json

    rng = random.Random(seed)
    ops = []
    for n in (1, 2, 3):
        for kind in (KINDS if n > 1 else KINDS_ON_LINE) * MAPS_PER_KIND:
            pieces, g, support = random_map(rng, n, kind)
            text = json.dumps({"ambient": n, "pieces": pieces})
            f = pamap_from_json(json.loads(text))
            A, b = _random_affine(rng, n)
            a = AffineMap.make(A, b)
            label = f"{kind} map on Q^{n}"
            info = {"pieces": len(pieces)}
            ops += [
                Op(f"validate {label}", "automorphisms",
                   lambda L, f=f: _validate(L, f), lambda: True, info),
                Op(f"invert-compose {label}", "automorphisms",
                   lambda L, f=f: _invert_compose(L, f), lambda: True, info),
                Op(f"decompose {label}", "automorphisms",
                   lambda L, f=f: _decompose(L, f),
                   lambda g=g: (True,) + g, info),
                Op(f"conjugate {label}", "automorphisms",
                   lambda L, f=f, a=a: _conjugate(L, f, a),
                   lambda s=support: (s, s), info),
            ]
    rng.shuffle(ops)
    return ops, []


def describe_inputs(ops, probe):
    pieces = [info["pieces"] for info in {id(op.info): op.info
                                          for op in ops}.values()]
    return (f"inputs: {len(pieces)} maps, pieces per map min {min(pieces)} "
            f"max {max(pieces)}")


def layer_metrics(counts, rounds, all_counts):
    return {
        "automorphisms.pieces_in": (counts["automorphisms.pieces_in"] / rounds,
                                    "count"),
        "automorphisms.pieces_out": (counts["automorphisms.pieces_out"] / rounds,
                                     "count"),
    }
