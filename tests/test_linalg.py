"""Seeded property tests: integer elimination against Fraction Gauss-Jordan.

The oracles are the textbook loops: Gauss-Jordan on Fractions, dividing each
pivot row by its pivot, and the same loop over F_p with inverses by Fermat.
The good-prime certificate, which checks only hole subsets of size at most
ambient + 1, is held against a check of every hole subset.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modelk.cosets import AffineCoset
from modelk import counting
from modelk.counting import _lattice_ranks_ok
from modelk.defsets import DefinableSet, make_block
from modelk.errors import WorkbenchError
from modelk.linalg import null_space, rank, rref
from rational_oracles import mat_inv, rank_mod_p, solvable_mod_p

PRIMES = (2, 3, 5, 7)


def _oracle_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _oracle_rank_mod_p(rows, p):
    m = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


_ENTRY = st.one_of(st.integers(-5, 5),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def _matrices(draw, entry=_ENTRY, max_rows=6, max_cols=7):
    """Up to max_rows x max_cols, with zero rows, repeated rows and scaled
    copies mixed in; Hypothesis supplies negative pivots."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=max_rows))
    extras = draw(st.lists(st.sampled_from(("zero", "repeat", "negate", "scale")),
                           max_size=max(0, max_rows - len(rows))))
    for kind in extras:
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        else:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            factor = {"repeat": 1, "negate": -1, "scale": 3}[kind]
            rows.append([factor * x for x in src])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@given(_matrices())
def test_rref_and_rank_match_fraction_gauss_jordan(rows):
    expected_rows, expected_pivots = _oracle_rref(rows)
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == (expected_rows, expected_pivots)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert rank(rows) == len(expected_rows)


@given(_matrices(entry=st.integers(-9, 9)), st.sampled_from(PRIMES))
def test_rank_mod_p_matches_field_oracle(rows, p):
    got = rank_mod_p(rows, p)
    assert got == _oracle_rank_mod_p(rows, p)
    assert got <= rank(rows)


@given(_matrices(entry=st.integers(-9, 9), max_cols=6), st.sampled_from(PRIMES),
       st.data())
def test_solvable_mod_p_is_a_rank_comparison(coeff, p, data):
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=len(coeff),
                             max_size=len(coeff)))
    aug = [row + [b] for row, b in zip(coeff, rhs)]
    expected = _oracle_rank_mod_p(aug, p) == _oracle_rank_mod_p(coeff, p)
    assert solvable_mod_p(coeff, rhs, p) == expected


@given(_matrices(max_rows=5, max_cols=5))
def test_null_space_is_annihilated(rows):
    ncols = len(rows[0]) if rows else 0
    basis = null_space(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_mat_inv_inverts_and_rejects_singular_matrices():
    m = [[2, Fraction(1, 3)], [-1, 4]]
    inv = mat_inv(m)
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)]
            for row in m] == [[1, 0], [0, 1]]
    with pytest.raises(WorkbenchError):
        mat_inv([[1, 2], [2, 4]])


def test_rref_accepts_what_fraction_accepts():
    assert rref([["1/2", 1.5], [0, "-3"]]) == ([[1, 0], [0, 1]], [0, 1])


# ---------------------------------------------------------------------------
# the good-prime certificate


def _oracle_lattice_ranks_ok(d, p):
    """Condition (a) on every hole subset."""
    for block in d.blocks:
        base = list(block.carrier.basis)
        hole_rows = [h.basis for h in block.holes]
        for size in range(len(hole_rows) + 1):
            for subset in itertools.combinations(hole_rows, size):
                stacked = base + [row for rows in subset for row in rows]
                coeff = [row[:-1] for row in stacked]
                if (rank_mod_p(coeff, p) != rank(coeff)
                        or rank_mod_p(stacked, p) != rank(stacked)):
                    return False
    return True


def _hyperplane(n, t):
    """sum_i t^i x_(i+1) = t^n: general position for distinct t."""
    return AffineCoset.from_rows(n, [[t ** i for i in range(n)] + [t ** n]])


@st.composite
def _blocks(draw):
    """A carrier in Q^n, n <= 3, minus up to 8 holes: moment-curve
    hyperplanes whose t may repeat mod p, and small random cosets."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    carrier = AffineCoset.from_rows(n, draw(st.lists(row, max_size=n - 1)))
    holes = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            holes.append(_hyperplane(n, draw(st.integers(-7, 7))))
        else:
            holes.append(AffineCoset.from_rows(n, draw(st.lists(row, min_size=1,
                                                                max_size=2))))
    return carrier, holes


@given(st.lists(_blocks(), min_size=1, max_size=2), st.sampled_from(PRIMES))
def test_lattice_certificate_matches_all_subsets(parts, p):
    n = parts[0][0].ambient
    blocks = [make_block(c, h) for c, h in parts if c.ambient == n]
    d = DefinableSet.from_blocks(n, blocks)
    assert _lattice_ranks_ok(d, p) == _oracle_lattice_ranks_ok(d, p)


def test_lattice_certificate_takes_both_values():
    flags = set()
    for n, ts in ((2, range(-3, 4)), (3, range(-4, 5)), (3, (0, 7, 14, 1, 2))):
        block = make_block(AffineCoset.full(n), [_hyperplane(n, t) for t in ts])
        d = DefinableSet.from_blocks(n, [block])
        assert len(block.holes) > n + 1
        for p in PRIMES:
            flag = _lattice_ranks_ok(d, p)
            assert flag == _oracle_lattice_ranks_ok(d, p)
            # set exactly when the t stay distinct mod p
            assert flag == (len({t % p for t in ts}) == len(ts)), (n, ts, p)
            flags.add(flag)
    assert flags == {True, False}


def test_lattice_walk_prunes_stacks_of_full_rank(monkeypatch):
    # Q^3 minus five moment-curve planes and two points off them: a point and
    # any other hole already stack to ranks (3, 4), so the walk eliminates no
    # superset of such a pair.  (Planes alone reach (3, 4) only at n + 1 = 4
    # holes, where the walk stops anyway.)
    holes = [_hyperplane(3, t) for t in range(5)]
    holes += [AffineCoset.single_point((s, s * s, -s)) for s in (-3, 2)]
    block = make_block(AffineCoset.full(3), holes)
    d = DefinableSet.from_blocks(3, [block])
    assert len(block.holes) == 7
    unpruned = 2 * sum(comb(7, k) for k in range(5))  # Q and F_p, <= 4 holes
    stacks = []
    ranks = counting._ranks
    monkeypatch.setattr(counting, "_ranks",
                        lambda *args: stacks.append(args) or ranks(*args))
    for p, good in ((7, True), (11, True), (5, False), (13, False)):
        stacks.clear()
        assert _lattice_ranks_ok(d, p) == _oracle_lattice_ranks_ok(d, p) == good
        if good:
            assert len(stacks) < unpruned
