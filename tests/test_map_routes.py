"""Seeded property tests: the maps layer's yes/no questions about sets,
answered without building whole sets, against the routes that build them.

`DefinableSet.is_subset` and `same_set` subtract blocks and stop at the
first block that leaves a piece; the oracle normalizes both differences in
full.  `automorphisms._meet` decides from the carriers and holes whether two
blocks share a point; the oracle builds their meet with `block_intersect`.
`AffineMap.preimage_block` pulls a canonical block back and sorts its
holes; the oracle canonicalizes the pulled-back carrier and holes with
`make_block`.  `decompose_affine` builds its rest h one piece at a time;
the oracle composes g^-1 with f.  Every case is drawn from an integer seed
under the conftest profile.
"""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from modelk.automorphisms import PAMap, _meet, decompose_affine
from modelk.defsets import DefinableSet, block_intersect, boolean_normalize, make_block
from modelk.suites import random_affine_map, random_expression, random_pamap
from rational_oracles import is_subset_by_difference, same_set_by_difference

_seeds = st.integers(0, 2**32 - 1)
_ambients = st.integers(1, 3)


def _normalized(rng, ambient):
    return boolean_normalize(random_expression(rng, ambient), ambient)


def _formula_sets(rng, ambient):
    """Two normalized random formulas, their meet and join, and the first
    rebuilt from its parts off and on the second, which is the same set in
    other blocks."""
    a, b = _normalized(rng, ambient), _normalized(rng, ambient)
    rebuilt = a.difference(b).union(a.intersect(b))
    return [a, b, a.intersect(b), a.union(b), rebuilt]


def _map_sets(rng, ambient):
    """The domain and image of a random map, one map's support, and the image
    of a map with one piece moved by a random affine bijection, which may
    leave the domain or meet another image."""
    f, g = random_pamap(rng, ambient), random_pamap(rng, ambient)
    images = [m.image_block(b) for b, m in f.pieces]
    moved = random_affine_map(rng, ambient)
    i = rng.randrange(len(images))
    broken = images[:i] + [moved.image_block(images[i])] + images[i + 1:]
    return [f.domain(), DefinableSet.from_blocks(ambient, images),
            DefinableSet.from_blocks(ambient, broken), g.support()]


def _check_inclusions(sets):
    for a, b in product(sets, repeat=2):
        assert a.is_subset(b) == is_subset_by_difference(a, b)
        assert a.same_set(b) == same_set_by_difference(a, b)


@settings(max_examples=150)
@given(_seeds, _ambients)
def test_inclusion_and_equality_of_normalized_formulas_match_the_difference_route(
        seed, ambient):
    _check_inclusions(_formula_sets(random.Random(seed), ambient))


@settings(max_examples=150)
@given(_seeds, _ambients)
def test_inclusion_and_equality_of_map_domains_and_images_match_the_difference_route(
        seed, ambient):
    _check_inclusions(_map_sets(random.Random(seed), ambient))


@settings(max_examples=150)
@given(_seeds, _ambients)
def test_the_meet_test_matches_the_built_meet(seed, ambient):
    # a set's blocks and its complement's share no point, though their
    # carriers often meet inside a hole
    rng = random.Random(seed)
    a = _normalized(rng, ambient)
    f = random_pamap(rng, ambient)
    blocks = [*a.blocks, *a.complement().blocks, *f.domain().blocks,
              *(m.image_block(b) for b, m in f.pieces)]
    for x, y in product(blocks, repeat=2):
        built = block_intersect(x, y)
        assert _meet(x, y) == (None if built is None else built.carrier)


@settings(max_examples=150)
@given(_seeds, _ambients)
def test_a_pulled_back_block_is_the_canonical_block(seed, ambient):
    rng = random.Random(seed)
    m = random_affine_map(rng, ambient)
    blocks = [*_normalized(rng, ambient).blocks,
              *(b for b, _ in random_pamap(rng, ambient).pieces)]
    for block in blocks:
        assert m.preimage_block(block) == make_block(
            block.carrier.pullback(m), [h.pullback(m) for h in block.holes])


@settings(max_examples=100)
@given(_seeds, _ambients)
def test_decompose_builds_the_pieces_of_the_composite(seed, ambient):
    f = random_pamap(random.Random(seed), ambient)
    g, h = decompose_affine(f)
    assert h.pieces == PAMap.from_affine(g.inverse()).compose(f).pieces
