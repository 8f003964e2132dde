import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelk import counting
from modelk.counting import count_points_mod_p
from modelk.cosets import AffineCoset, LinearSystem
from modelk.defsets import (And, Not, Or, boolean_normalize, expr_leaves,
                            k0_class)
from modelk.errors import WorkbenchError
from modelk.formulas import parse_formula
from modelk.linalg import rank
from modelk.suites import random_expression
from rational_oracles import rank_mod_p, solvable_mod_p
from test_coset_routes import _project_by_fractions


def leaf(ambient, bound, rows):
    return LinearSystem(ambient, bound, rows)


def test_crossing_lines_count():
    expr = Or(leaf(2, 0, [[1, 0, 0]]), leaf(2, 0, [[0, 1, 0]]))
    rep = count_points_mod_p(expr, 5)
    assert rep.count == 9
    assert rep.predicted == 9
    assert rep.good_prime
    rep11 = count_points_mod_p(expr, 11)
    assert rep11.count == 21 and rep11.good_prime


def test_plane_minus_line_count():
    expr = Not(leaf(2, 0, [[1, 0, 0]]))
    rep = count_points_mod_p(expr, 7)
    assert rep.count == 49 - 7
    assert rep.good_prime and rep.predicted == 42


def test_coefficient_killed_by_prime_is_flagged():
    # 5 x1 = 1 has no solutions mod 5 but one over Q
    expr = leaf(1, 0, [[5, 1]])
    rep = count_points_mod_p(expr, 5)
    assert rep.count == 0
    assert rep.predicted == 1
    assert not rep.good_prime
    # while 7 is fine
    rep7 = count_points_mod_p(expr, 7)
    assert rep7.count == 1 and rep7.good_prime


def test_lines_merging_mod_p_flagged():
    # x1 = 0 and x1 = 5 coincide mod 5
    expr = Or(leaf(1, 0, [[1, 0]]), leaf(1, 0, [[1, 5]]))
    rep = count_points_mod_p(expr, 5)
    assert rep.count == 1
    assert rep.predicted == 2
    assert not rep.good_prime


def test_existential_parity_anomaly_flagged():
    # x1 = 2 y: full line over Q, but mod 2 only even residues
    expr = leaf(1, 1, [[1, -2, 0]])
    rep = count_points_mod_p(expr, 2)
    assert rep.count == 1
    assert rep.predicted == 2
    assert not rep.good_prime
    rep3 = count_points_mod_p(expr, 3)
    assert rep3.count == 3 and rep3.good_prime


def test_a_y_block_that_drops_rank_mod_p_leaves_the_prime_good():
    # E y1 : 2 y1 = 2 is all of Q^1 and all of F_2: the y-block [2] has rank
    # 0 mod 2, but the blocks' ranks and their partition of the points hold
    expr = parse_formula("ambient 1; pp(E y1 : 2*y1 = 2)").root
    rep = count_points_mod_p(expr, 2)
    assert rep.count == rep.predicted == 2
    assert rep.good_prime


def test_empty_set_counts_zero():
    expr = And(leaf(1, 0, [[1, 0]]), leaf(1, 0, [[1, 1]]))
    rep = count_points_mod_p(expr, 5)
    assert rep.count == 0 and rep.predicted == 0 and rep.good_prime


def test_rational_leaf_counts_its_cleared_row():
    from fractions import Fraction

    # x1 = 1/2 is the row 2*x1 = 1, one point mod 5 and a good prime
    half = count_points_mod_p(leaf(1, 0, [[1, Fraction(1, 2)]]), 5)
    assert half == count_points_mod_p(leaf(1, 0, [[2, 1]]), 5)
    assert (half.count, half.predicted, half.good_prime) == (1, 1, True)
    # x1 = 1/5 is the row 5*x1 = 1: no point mod 5, and the flag is cleared
    fifth = count_points_mod_p(leaf(1, 0, [[1, Fraction(1, 5)]]), 5)
    assert (fifth.count, fifth.predicted, fifth.good_prime) == (0, 1, False)
    assert count_points_mod_p(leaf(1, 0, [[1, Fraction(1, 5)]]), 7).good_prime
    # tuples of Fractions are cleared too: the constructor is the one way in
    system = LinearSystem(1, 0, ((Fraction(1), Fraction(1, 2)),))
    assert system.rows == ((2, 1),)
    assert count_points_mod_p(system, 5).count == 1


def test_non_system_leaf_rejected():
    expr = Not(AffineCoset.full(1))
    with pytest.raises(WorkbenchError, match="not a boolean expression node"):
        count_points_mod_p(expr, 5)


def test_point_limit():
    expr = leaf(3, 0, [[1, 0, 0, 0]])
    with pytest.raises(WorkbenchError):
        count_points_mod_p(expr, 101)


def test_a_modulus_that_is_not_a_prime_is_refused():
    expr = Or(leaf(2, 0, [[1, 0, 0]]), leaf(2, 0, [[0, 1, 0]]))
    for modulus in (0, 1, -3, 4, 6, 9, 25):
        with pytest.raises(WorkbenchError, match=f"p = {modulus} "):
            count_points_mod_p(expr, modulus)


def test_report_json_shape():
    expr = leaf(1, 0, [[1, 0]])
    rep = count_points_mod_p(expr, 5)
    j = rep.to_json()
    assert set(j) == {"prime", "ambient", "count", "good_prime", "class_value"}
    assert j["count"] == 1 and j["class_value"] == 1


def test_good_prime_bridge_on_seeded_expressions():
    rng = random.Random(4242)
    runs = good = 0
    for _ in range(40):
        ambient = rng.randint(1, 3)
        expr = random_expression(rng, ambient)
        for p in (5, 7, 11):
            rep = count_points_mod_p(expr, p)
            runs += 1
            if rep.good_prime:
                good += 1
                assert rep.count == rep.predicted, (expr, p)
    assert runs == 120
    assert good > runs // 2  # bad primes exist but are the exception


def _holds_at(expr, point, p):
    """The boolean tree evaluated at one point, each leaf by a mod-p solve."""
    if isinstance(expr, LinearSystem):
        s = expr
        n = s.ambient
        shifted = [int(row[-1] - sum(a * x for a, x in zip(row[:n], point))) % p
                   for row in s.rows]
        ybl = [[int(v) % p for v in row[n:-1]] for row in s.rows]
        return solvable_mod_p(ybl, shifted, p) if s.bound else not any(shifted)
    if isinstance(expr, Not):
        return not _holds_at(expr.child, point, p)
    if isinstance(expr, And):
        return _holds_at(expr.left, point, p) and _holds_at(expr.right, point, p)
    return _holds_at(expr.left, point, p) or _holds_at(expr.right, point, p)


def _in_rows(coset, point, p):
    return all((sum(a * x for a, x in zip(row, point)) - row[-1]) % p == 0
               for row in coset.basis)


def _count_point_by_point(expr, p):
    """(count, good) from a walk over the points: the tree walked at each
    point with every leaf decided, and condition (b) as hits of the reduced
    blocks at each point."""
    ambient = expr_leaves(expr)[0].ambient
    normal = boolean_normalize(expr, ambient)
    good = counting._lattice_ranks_ok(normal, p)
    count = 0
    for point in itertools.product(range(p), repeat=ambient):
        raw = _holds_at(expr, point, p)
        count += raw
        hits = sum(_in_rows(b.carrier, point, p)
                   and not any(_in_rows(h, point, p) for h in b.holes)
                   for b in normal.blocks)
        if hits > 1 or (hits == 1) != raw:
            good = False
    return count, good


def test_deep_trees_built_in_python_count_like_their_leaf():
    # past the interpreter's recursion limit: 1,200 nested Nots, and a
    # left-deep Or chain of 1,100 copies of the leaf
    system = leaf(2, 1, [[1, 0, -2, 0], [0, 1, 0, 1]])
    nots = chain = system
    for _ in range(1200):
        nots = Not(nots)
    for _ in range(1099):
        chain = Or(chain, system)
    assert expr_leaves(nots) == [system]
    assert expr_leaves(chain) == [system] * 1100
    for p in (2, 3, 5):
        expected = count_points_mod_p(system, p)
        assert count_points_mod_p(nots, p) == expected
        assert count_points_mod_p(chain, p) == expected
        assert count_points_mod_p(Not(nots), p).count == p ** 2 - expected.count


def test_tree_mask_matches_a_walk_of_the_tree():
    rng = random.Random(4343)
    flags = set()
    for _ in range(60):
        ambient = rng.randint(1, 3)
        expr = random_expression(rng, ambient)
        for p in (2, 3, 5):
            rep = count_points_mod_p(expr, p)
            assert (rep.count, rep.good_prime) == _count_point_by_point(expr, p)
            flags.add(rep.good_prime)
    assert flags == {True, False}


def test_tree_mask_matches_a_walk_of_the_tree_at_larger_primes():
    # at p = 7 and 11 the reduced blocks' point sets are larger than at
    # p <= 5, and Q^3 has up to 1,331 points; a seeded subset keeps it short
    rng = random.Random(4546)
    flags = set()
    for _ in range(40):
        ambient = rng.randint(1, 3)
        expr = random_expression(rng, ambient)
        for p in (7, 11):
            rep = count_points_mod_p(expr, p)
            assert (rep.count, rep.good_prime) == _count_point_by_point(expr, p)
            flags.add(rep.good_prime)
    assert flags == {True, False}


def _systems_with_several_bound_variables(rng):
    """Seeded systems in Q^1..Q^3 with 2 or 3 bound variables.  The
    y-coefficients are often even or multiples of 3, so the y-block's rank
    drops mod 2 or mod 3 (x1 = 2 y1 + 4 y2 is all of Q but only the even
    residues mod 2)."""
    for _ in range(80):
        n, b = rng.randint(1, 3), rng.randint(2, 3)
        rows = []
        for _ in range(rng.randint(1, n + b)):
            scale = rng.choice((1, 2, 3))
            rows.append([rng.randint(-2, 2) for _ in range(n)]
                        + [scale * rng.choice((0, 1, -1, 2)) for _ in range(b)]
                        + [rng.randint(-3, 3)])
        yield LinearSystem(n, b, rows)


def test_leaves_with_several_bound_variables_project_exactly():
    rng = random.Random(4747)
    drops = 0
    for system in _systems_with_several_bound_variables(rng):
        n = system.ambient
        joint = system.joint_coset()
        assert joint.project(n) == _project_by_fractions(joint, n)
        ybl = [[int(v) for v in row[n:-1]] for row in system.rows]
        for p in (2, 3, 5):
            drops += rank_mod_p(ybl, p) < rank(ybl)
            full = int.from_bytes(b"\1" * p ** n, "little")
            got = counting._tree_mask(system, n, p, full)
            walked = bytes(_holds_at(system, point, p)
                           for point in itertools.product(range(p), repeat=n))
            assert got == int.from_bytes(walked, "little"), (system, p)
    assert drops > 20


def _pp(coeffs, rhs):
    lhs = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x{i + 1}"
                   for i, c in enumerate(coeffs) if c)
    return f"pp({lhs.removeprefix('+ ')} = {rhs})"


def _degenerate_arrangements(rng):
    """Seeded (ambient, h, hyperplanes) with integer data: h lines through a
    common point of Q^2, and pencils of h planes through a common line of
    Q^3.  The normals are u + k v for distinct k in [-5, 5], with u and v
    independent mod every prime, so no two hyperplanes coincide mod 11 or
    13 (the differences of the k are at most 10)."""
    for _ in range(10):
        h = rng.randint(3, 11)
        ks = rng.sample(range(-5, 6), h)
        point = [rng.randint(-4, 4) for _ in range(3)]
        yield 2, h, [((k, 1), k * point[0] + point[1]) for k in ks]
        # the line through `point` in direction (1, a, b)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        normals = [(-a - k * b, 1, k) for k in ks]
        yield 3, h, [(n, sum(c * x for c, x in zip(n, point)))
                     for n in normals]


def test_degenerate_arrangements_count_their_class():
    # the union of h hyperplanes whose pairwise meets are all one flat of
    # codimension 2 has class h X^(n-1) - (h-1) X^(n-2); the complement is
    # one block with h holes
    rng = random.Random(5151)
    for ambient, h, planes in _degenerate_arrangements(rng):
        union = " | ".join(_pp(n, r) for n, r in planes)
        for text, complement in ((union, False), (f"!({union})", True)):
            expr = parse_formula(f"ambient {ambient}; {text}").root
            good = []
            for p in (5, 7, 11, 13):
                rep = count_points_mod_p(expr, p)
                value = h * p ** (ambient - 1) - (h - 1) * p ** (ambient - 2)
                assert rep.predicted == (p ** ambient - value if complement
                                         else value), (text, p)
                if rep.good_prime:
                    assert rep.count == rep.predicted, (text, p)
                    good.append(p)
            assert good, text


@st.composite
def _arrangement_formula(draw):
    """The union or the complement of up to 7 hyperplanes of Q^2 or Q^3 with
    integer data, drawn from one or two families: general position
    (x1 + t x2 + ... = t^n), a pencil through one flat of codimension 2,
    hyperplanes through one point, and parallels."""
    n = draw(st.integers(2, 3))
    small = st.integers(-3, 3)
    normal = st.lists(small, min_size=n, max_size=n).filter(any)
    point = draw(st.lists(small, min_size=n, max_size=n))
    u, v, w = draw(normal), draw(normal), draw(normal)
    families = draw(st.lists(st.sampled_from(
        ("general", "pencil", "concurrent", "parallel")),
        min_size=1, max_size=2, unique=True))
    leaves = []
    for _ in range(draw(st.integers(1, 7))):
        family = draw(st.sampled_from(families))
        if family == "general":
            t = draw(st.integers(-4, 4))
            a, rhs = [t ** i for i in range(n)], t ** n
        elif family == "parallel":
            a, rhs = w, draw(small)
        else:
            if family == "pencil":
                s, t = draw(small), draw(small)
                a = [s * x + t * y for x, y in zip(u, v)]
            else:
                a = draw(normal)
            rhs = sum(x * c for x, c in zip(a, point))
        if any(a):
            leaves.append(LinearSystem(n, 0, [a + [rhs]]))
    if not leaves:
        leaves.append(LinearSystem(n, 0, [w + [0]]))
    if draw(st.booleans()):
        return n, reduce(Or, leaves)
    return n, reduce(And, map(Not, leaves))


def test_counts_at_good_primes_are_the_class_on_drawn_arrangements():
    runs = good = 0

    @settings(max_examples=200)
    @given(_arrangement_formula())
    def check(case):
        nonlocal runs, good
        n, expr = case
        cls = k0_class(boolean_normalize(expr, n))
        for p in (5, 7, 11, 13):
            rep = count_points_mod_p(expr, p)
            runs += 1
            if rep.good_prime:
                good += 1
                assert rep.count == cls.evaluate(p), (expr, p)

    check()
    assert runs == 800
    assert good > runs // 2, (good, runs)
