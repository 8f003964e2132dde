"""Seeded property tests: composed generator tables against products.

Semidirect and wreath products and affine groups build their generator
tables from their factors' tables, and GL from the matrix product kernel on
row tuples.  Each must equal the table read off the group's own
operation: entry i of table j is the index of elements[i] * generators[j].
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.catalogue import by_name
from modelk.constructions import semidirect, wreath
from modelk.matrix_groups import affine_group, gl_group
from modelk.rings import GF, Zmod
from modelk.suites import random_semidirect_action

SEEDED = settings(derandomize=True, database=None, deadline=None)


def _check_tables(G):
    by_products = [[G.index_of(G.op(x, g)) for x in G.elements] for g in G.generators]
    assert [list(t) for t in G._generator_tables()] == by_products, G.name


@SEEDED
@given(st.integers(0, 2 ** 32))
def test_tables_of_seeded_semidirect_products(seed):
    _check_tables(semidirect(random_semidirect_action(random.Random(seed))))


@settings(SEEDED, max_examples=12)
@given(st.sampled_from(("cyclic:2", "cyclic:3", "cyclic:4", "sym:3")),
       st.integers(1, 3))
def test_tables_of_wreath_products(base, k):
    _check_tables(wreath(by_name(base), k))


@settings(SEEDED, max_examples=12)
@given(st.sampled_from(((1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8),
                        (2, 2), (2, 3))),
       st.integers(1, 2))
def test_tables_of_affine_groups(nq, copies):
    n, q = nq
    _check_tables(affine_group(n, GF(q), copies))


@settings(SEEDED, max_examples=8)
@given(st.integers(2, 9))
def test_tables_of_gl2_over_zmod(m):
    _check_tables(gl_group(2, Zmod(m)))
