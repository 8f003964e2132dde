"""`sets`: the read path of the definable-set layers, class and count.

k0, dim, iso and count queries on seeded formula text in ambient 1 to 3
(boolean trees of depth 2 over four atoms, some `E y` atoms, counts at
primes up to 13),
plus general-position arrangements: the complement of h hyperplanes
x1 + t*x2 + t^2*x3 = t^3 (or x1 + t*x2 = t^2 in Q^2) for distinct t.  The
class grows as 2^h in the number of holes, and counting dominates the time.

References never come from modelk.  Random formulas are checked against an
independent Venn-region computation (perfbench/exact.py).  An arrangement of
h general-position hyperplanes in Q^n has class sum_i (-1)^i C(h, i) X^(n-i),
and, when the t are distinct mod p, that polynomial at p is its F_p count.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from math import comb

from exact import boolean_class, project
from harness import Op

HOLE_CAP = 16  # blocks with more holes are over the class computation's cap
CLASS_HOLES = range(4, 17)
# class queries past the cap raise CapExceededError at the parent; they run
# in the untimed known-defect probe instead
PROBE_HOLES = range(17, 21)
# (ambient, holes, prime) of the arrangement counts; h <= p keeps the t
# distinct mod p
COUNT_ARRANGEMENTS = ((3, 4, 7), (2, 6, 7), (3, 6, 11), (2, 8, 11),
                      (3, 8, 13), (2, 10, 11), (3, 10, 13), (3, 12, 13))
QUERIES_PER_KIND = 16
# primes for the random counts; Q^3 stays at p <= 7 so that the slowest
# tenth of the ops is the arrangements, whose cost does not depend on the seed
COUNT_PRIMES = {1: (2, 3, 11, 13), 2: (5, 7, 11, 13), 3: (2, 3, 5, 7)}


# ---------------------------------------------------------------------------
# layers


def _normalize_counter(counts, args, result):
    if result is not None:
        counts["defsets.blocks"] += len(result.blocks)
        counts["defsets.holes"] += sum(len(b.holes) for b in result.blocks)


def _class_counter(counts, args, result):
    for d in args:
        for b in d.blocks:
            h = len(b.holes)
            counts["defsets.class_blocks"] += 1
            counts["defsets.hole_subsets"] += 2 ** h
            counts["defsets.over_cap"] += h > HOLE_CAP


def _count_counter(counts, args, result):
    counts["counting.attempts"] += 1
    if result is not None:
        counts["counting.points"] += result.prime ** result.ambient
        counts["counting.good"] += result.good_prime


def layer_table():
    from modelk import counting, defsets, formulas

    def parse(text):
        return formulas.elaborate(formulas.parse_formula(text))

    return {
        "parse": ("formulas.parse", parse, None),
        "normalize": ("defsets.normalize", defsets.boolean_normalize,
                      _normalize_counter),
        "k0_class": ("defsets.class", defsets.k0_class, _class_counter),
        "definable_dim": ("defsets.class", defsets.definable_dim,
                          _class_counter),
        "definably_isomorphic": ("defsets.class", defsets.definably_isomorphic,
                                 _class_counter),
        "count": ("counting.count", counting.count_points_mod_p,
                  _count_counter),
    }


# ---------------------------------------------------------------------------
# formula text


def _equation(coeffs, names, rhs):
    terms = []
    for c, name in zip(coeffs, names):
        if c:
            body = name if abs(c) == 1 else f"{abs(c)}*{name}"
            terms.append(("-" if c < 0 else "+", body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return f"{text} = {'-' if rhs < 0 else ''}{abs(rhs)}"


class Formula:
    """A boolean tree over pp atoms; each atom is (bound, rows) with rows of
    x coefficients, then y coefficients, then the right-hand side."""

    def __init__(self, ambient, atoms, tree):
        self.ambient, self.atoms, self.tree = ambient, atoms, tree

    def text(self):
        return f"ambient {self.ambient}; " + self._node(self.tree, top=True)

    def _atom(self, i):
        bound, rows = self.atoms[i]
        names = ([f"x{j + 1}" for j in range(self.ambient)]
                 + [f"y{j + 1}" for j in range(bound)])
        eqs = [_equation(row[:-1], names, row[-1]) for row in rows]
        prefix = "E " + " ".join(f"y{j + 1}" for j in range(bound)) + " : " \
            if bound else ""
        return f"pp({prefix}{' & '.join(eqs)})"

    def _node(self, node, top=False):
        kind = node[0]
        if kind == "atom":
            return self._atom(node[1])
        if kind == "not":
            return "!" + self._node(node[1])
        body = f" {'&' if kind == 'and' else '|'} ".join(
            self._node(child) for child in node[1:])
        return body if top else f"({body})"

    def holds(self, inside, node=None):
        node = node or self.tree
        kind = node[0]
        if kind == "atom":
            return node[1] in inside
        if kind == "not":
            return not self.holds(inside, node[1])
        parts = (self.holds(inside, child) for child in node[1:])
        return all(parts) if kind == "and" else any(parts)

    def reference(self, p=None):
        """Class coefficients over Q, or the F_p point count."""
        n = self.ambient
        atoms = [project([[x if p is None else int(x) for x in row]
                          for row in rows], n, bound, p)
                 for bound, rows in self.atoms]
        return boolean_class(atoms, lambda S: self.holds(S), n, p)

    def permuted(self, perm, signs):
        """The image under x_i -> signs[i] * x_perm[i], a definable bijection."""
        n = self.ambient
        atoms = []
        for bound, rows in self.atoms:
            moved = []
            for row in rows:
                xs = [0] * n
                for i in range(n):
                    xs[perm[i]] = signs[i] * row[i]
                moved.append(xs + list(row[n:]))
            atoms.append((bound, moved))
        return Formula(n, atoms, self.tree)


def _random_atom(rng, n, integral, equations, bound):
    rows = []
    for _ in range(equations):
        while True:
            row = [rng.randint(-3, 3) for _ in range(n)]
            row += [rng.choice((-2, -1, 1, 2)) for _ in range(bound)]
            if any(row[:n]):
                break
        rhs = Fraction(rng.randint(-4, 4))
        if not integral and rng.random() < 0.3:
            rhs /= rng.choice((2, 3))
        rows.append(row + [rhs])
    return bound, rows


def random_formula(rng, n, integral, shape):
    """A depth-2 tree over four atoms, one of them negated and one under
    `E y1`.  The shape, a number below 32, picks the three connectives and
    the negated atom, so every round holds the same shapes whatever the
    seed; the seed picks the coefficients.  Left to the seed, the shapes
    moved op_p50_ms by 15% between seeds."""
    atoms = [_random_atom(rng, n, integral, 2 if i == 1 and n > 1 else 1,
                          1 if i == 3 else 0) for i in range(4)]
    negated = shape // 8
    leaves = [("not", ("atom", i)) if i == negated else ("atom", i)
              for i in range(4)]
    ops = [("and", "or")[shape >> bit & 1] for bit in range(3)]
    halves = [(ops[0],) + tuple(leaves[:2]), (ops[1],) + tuple(leaves[2:])]
    return Formula(n, atoms, (ops[2],) + tuple(halves))


def arrangement(rng, n, h, p=None):
    """h hyperplanes sum_i t^i x_(i+1) = t^n in general position (distinct t,
    distinct mod p when p is given), as a conjunction of negated atoms."""
    pool = range(-(p // 2), p - p // 2) if p else range(-12, 13)
    ts = rng.sample(list(pool), h)
    atoms = [(0, [[t ** i for i in range(n)] + [Fraction(t ** n)]]) for t in ts]
    conj = ("and",) + tuple(("not", ("atom", i)) for i in range(h))
    return Formula(n, atoms, conj)


def arrangement_class(n, h):
    coeffs = [0] * (n + 1)
    for i in range(min(h, n) + 1):
        coeffs[n - i] = (-1) ** i * comb(h, i)
    return tuple(coeffs)


def _at(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# ops


def _k0(L, n, text):
    return L.k0_class(L.normalize(L.parse(text), n)).coeffs


def _dim(L, n, text):
    return L.definable_dim(L.normalize(L.parse(text), n))


def _iso(L, n, a, b):
    return L.definably_isomorphic(L.normalize(L.parse(a), n),
                                  L.normalize(L.parse(b), n))


def _count(L, text, p):
    r = L.count(L.parse(text), p)
    return r.count, r.predicted, not r.good_prime or r.count == r.predicted


def _degree(coeffs):
    return len(coeffs) - 1 if coeffs else float("-inf")


def _class_op(rng, n, h):
    f = arrangement(rng, n, h)
    return Op(f"class arrangement h={h} in Q^{n}", "defsets",
              lambda L, t=f.text(): _k0(L, n, t),
              lambda: arrangement_class(n, h), {"holes": h})


def _shape(i, kind):
    """The i-th query's formula shape for a kind of query: over the 16
    queries of a kind every connective triple appears twice and every
    negated atom four times."""
    return i % 8 + 8 * ((i + i // 8 + kind) % 4)


def _random_ops(rng):
    ops = []
    for n in (1, 2, 3):
        for i in range(QUERIES_PER_KIND):
            f = random_formula(rng, n, integral=False, shape=_shape(i, 0))
            ops.append(Op(f"k0 random formula in Q^{n}", "defsets",
                          lambda L, n=n, t=f.text(): _k0(L, n, t),
                          f.reference))
            f = random_formula(rng, n, integral=False, shape=_shape(i, 1))
            ops.append(Op(f"dim random formula in Q^{n}", "defsets",
                          lambda L, n=n, t=f.text(): _dim(L, n, t),
                          lambda f=f: _degree(f.reference())))
            a = random_formula(rng, n, integral=False, shape=_shape(i, 2))
            if (i + i // 8) % 2 == 0:
                perm = rng.sample(range(n), n)
                b = a.permuted(perm, [rng.choice((-1, 1)) for _ in range(n)])
            else:
                b = random_formula(rng, n, integral=False, shape=_shape(i, 3))
            ops.append(Op(f"iso random formulas in Q^{n}", "defsets",
                          lambda L, n=n, x=a.text(), y=b.text(): _iso(L, n, x, y),
                          lambda a=a, b=b: a.reference() == b.reference()))
            p = COUNT_PRIMES[n][i % len(COUNT_PRIMES[n])]
            f = random_formula(rng, n, integral=True, shape=_shape(i, 0))
            ops.append(Op(f"count random formula in Q^{n} mod {p}", "counting",
                          lambda L, p=p, t=f.text(): _count(L, t, p),
                          lambda f=f, p=p: (f.reference(p), _at(f.reference(), p),
                                            True),
                          {"points": p ** n}))
    return ops


def make_ops(seed):
    """(timed ops in a seeded order, known-defect probe ops)."""
    rng = random.Random(seed)
    ops = _random_ops(rng)
    for h in CLASS_HOLES:
        ops += [_class_op(rng, n, h) for n in (2, 3)]
    for n, h, p in COUNT_ARRANGEMENTS:
        f = arrangement(rng, n, h, p)
        ops.append(Op(f"count arrangement h={h} in Q^{n} mod {p}", "counting",
                      lambda L, p=p, t=f.text(): _count(L, t, p),
                      lambda n=n, h=h, p=p: (_at(arrangement_class(n, h), p),) * 2
                      + (True,),
                      {"points": p ** n, "holes": h}))
    rng.shuffle(ops)
    probe = [_class_op(rng, n, h) for h in PROBE_HOLES for n in (2, 3)]
    return ops, probe


def describe_inputs(ops, probe):
    holes = [op.info["holes"] for op in ops + probe
             if op.name.startswith("class")]
    over = sum(h > HOLE_CAP for h in holes)
    points = sorted(op.info["points"] for op in ops if "points" in op.info)
    return (f"inputs: defsets.over_cap_share of arrangement class queries "
            f"{over / len(holes):.4f} ({over} of {len(holes)} have more than "
            f"{HOLE_CAP} holes); count p^n min {points[0]} median "
            f"{statistics.median(points):g} max {points[-1]}")


def layer_metrics(counts, rounds, all_counts):
    """Per-round counts of the timed ops; shares over all traced calls."""
    blocks = all_counts["defsets.class_blocks"]
    attempts = counts["counting.attempts"]
    return {
        "defsets.blocks": (counts["defsets.blocks"] / rounds, "count"),
        "defsets.holes": (counts["defsets.holes"] / rounds, "count"),
        "defsets.hole_subsets": (counts["defsets.hole_subsets"] / rounds,
                                 "count"),
        "defsets.over_cap_share": (all_counts["defsets.over_cap"] / blocks
                                   if blocks else 0.0, "share"),
        "counting.points": (counts["counting.points"] / rounds, "count"),
        "counting.good_share": (counts["counting.good"] / attempts
                                if attempts else 0.0, "share"),
    }
