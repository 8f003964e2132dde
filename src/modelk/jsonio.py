"""JSON encoding of the geometric and symbolic values.

Rationals become plain ints when integral and "p/q" strings otherwise, so
round-tripping is exact.  Dumps are byte-stable: keys sorted, two-space
indent, and a trailing newline.

Symbolic atoms store only their ring's key, read back with
`symbolic.ring_from_key`: an unknown key fails when the JSON is decoded, and
an `ed:` ring declared to satisfy 1 = u + v decodes as undeclared, because
the declaration is not part of the key.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .automorphisms import AffineMap, PAMap
from .cosets import AffineCoset
from .defsets import Block, DefinableSet, K0Class, make_block
from .errors import WorkbenchError

if TYPE_CHECKING:  # the symbolic layer loads only to decode its values
    from .symbolic import Atom, FormalAbGroup

# rationals ------------------------------------------------------------------


def rat_to_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise WorkbenchError(f"expected an exact rational, got {v!r}")
    if isinstance(v, (int, str)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise WorkbenchError(f"cannot read a rational from {v!r}")


def _vec_to_json(vec):
    return [rat_to_json(x) for x in vec]


def _rows_to_json(rows):
    return [_vec_to_json(r) for r in rows]


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise WorkbenchError(f"{what} must be a JSON list, got {v!r}")
    return v


def _vec_from_json(vec, what: str):
    return [rat_from_json(x) for x in _list(vec, what)]


def _rows_from_json(rows, what: str):
    return [_vec_from_json(row, f"a row of {what}") for row in _list(rows, what)]


def _field(d, key: str, what: str):
    """d[key]; WorkbenchError unless d is a JSON object with that key."""
    if not isinstance(d, dict) or key not in d:
        raise WorkbenchError(f"{what} must be a JSON object with the field {key!r}")
    return d[key]


def _natural(d, key: str, what: str) -> int:
    """d[key], which must be an int >= 0 (a bool or float is refused)."""
    n = _field(d, key, what)
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise WorkbenchError(f"{what}'s {key!r} must be a natural number, "
                             f"got {n!r}")
    return n


# cosets, blocks, sets --------------------------------------------------------


def coset_to_json(c: AffineCoset) -> dict:
    if c.empty:
        return {"ambient": c.ambient, "empty": True}
    return {"ambient": c.ambient, "rows": _rows_to_json(c.rows)}


def coset_from_json(d: dict) -> AffineCoset:
    ambient = _natural(d, "ambient", "a coset")
    if d.get("empty"):
        return AffineCoset.empty_set(ambient)
    return AffineCoset.from_rows(
        ambient, _rows_from_json(d.get("rows", []), "a coset's 'rows'"))


def block_to_json(b: Block) -> dict:
    return {"carrier": coset_to_json(b.carrier),
            "holes": [coset_to_json(h) for h in b.holes]}


def block_from_json(d: dict) -> Block:
    block = make_block(coset_from_json(_field(d, "carrier", "a block")),
                       [coset_from_json(h) for h in
                        _list(d.get("holes", []), "a block's 'holes'")])
    if block is None:
        raise WorkbenchError("block in JSON input denotes the empty set")
    return block


def defset_to_json(s: DefinableSet) -> dict:
    return {"ambient": s.ambient, "blocks": [block_to_json(b) for b in s.blocks]}


def defset_from_json(d: dict) -> DefinableSet:
    return DefinableSet.from_blocks(
        _natural(d, "ambient", "a definable set"),
        [block_from_json(b) for b in
         _list(d.get("blocks", []), "a definable set's 'blocks'")])


# piecewise-affine maps --------------------------------------------------------


def pamap_to_json(f: PAMap) -> dict:
    return {"ambient": f.ambient,
            "pieces": [{**block_to_json(block),
                        "matrix": _rows_to_json(affine.matrix),
                        "offset": _vec_to_json(affine.offset)}
                       for block, affine in f.pieces]}


def pamap_from_json(d: dict) -> PAMap:
    ambient = _natural(d, "ambient", "a map")
    out = []
    for p in _list(_field(d, "pieces", "a map"), "a map's 'pieces'"):
        block = block_from_json({"carrier": _field(p, "carrier", "a piece"),
                                 "holes": p.get("holes", [])})
        affine = AffineMap.make(
            _rows_from_json(_field(p, "matrix", "a piece"), "a piece's 'matrix'"),
            _vec_from_json(_field(p, "offset", "a piece"), "a piece's 'offset'"))
        out.append((block, affine))
    return PAMap(ambient, out)


# classes and formal groups ----------------------------------------------------


def k0_to_json(c: K0Class) -> dict:
    return {"coeffs": [int(x) for x in c.coeffs]}


def k0_from_json(d: dict) -> K0Class:
    coeffs = _list(_field(d, "coeffs", "a class"), "a class's 'coeffs'")
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise WorkbenchError(f"a class's 'coeffs' must be integers, got {c!r}")
    return K0Class.make(coeffs)


def _atom_from_json(d: dict) -> Atom:
    from .symbolic import UNDETERMINED, glab, units_of, zmod

    kind = _field(d, "atom", "a summand")
    if kind == "Zmod":
        return zmod(_natural(d, "k", "a Zmod atom"))
    if kind == "UnitsOf":
        return units_of(_field(d, "ring", "a UnitsOf atom"))
    if kind == "GLab":
        return glab(_natural(d, "n", "a GLab atom"), _field(d, "ring", "a GLab atom"))
    if kind == "UndeterminedZ2":
        return UNDETERMINED
    raise WorkbenchError(f"unknown atom kind {kind!r}")


def abgroup_from_json(d: dict) -> FormalAbGroup:
    """A multiplicity is a positive int or "countable", and 1 when omitted."""
    from .symbolic import FormalAbGroup

    return FormalAbGroup.make(
        [(_atom_from_json(s), s.get("mult", 1)) for s in
         _list(_field(d, "summands", "a formal group"), "a formal group's 'summands'")])


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
