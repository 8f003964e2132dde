"""Symbolic direct sums and the closed-form K1 results.

Values are multisets of atoms: finite cyclic groups, unit groups of a ring,
formal GL_n(R) abelianizations, and a marker for the one level whose group
the calculus does not determine.  Multiplicities are positive integers or
the distinguished symbol "countable"; arithmetic saturates at countable.

Rings are `RingDescriptor` values, and an atom holds its ring's descriptor.
Whether an abstract Euclidean domain (`ed:`) is declared to satisfy
1 = u + v for units u, v belongs to that descriptor value; no table outside
it records declarations.  `ring_from_key` is the one ring-token grammar,
shared with the command line: `fq:<q>`, `z`, `poly-char0`, `poly:<tag>`,
`field:<tag>` and `ed:<tag>`, where an empty tag means the default tag.
JSON stores only a ring's key, so an `ed:` ring read back from JSON is
undeclared.

Normalization rewrites GL_n(R)^ab to R^x whenever the Euclidean-domain
facts apply (n = 1 always; n = 2 given a unit decomposition 1 = u + v;
n >= 3 always), collapses unit groups of concrete rings to cyclic atoms,
and drops trivial summands.  Equality of normal forms is the equality test
used everywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DEFAULT_CAP, UnsupportedRingError, WorkbenchError, int_token

COUNTABLE = "countable"


@dataclass(frozen=True)
class RingDescriptor:
    """A ring the calculus knows, built with the factories below.  An empty
    tag means the default tag, so every key reads back through
    `ring_from_key` as the same ring, up to an `ed:` declaration."""

    kind: str  # finite-field | poly-char0 | integers | infinite-field | abstract-ed
    q: int = 0
    tag: str = ""
    unit_sum_flag: bool | None = None

    @staticmethod
    def finite_field(q: int) -> "RingDescriptor":
        from .rings import _factor_prime_power

        if _factor_prime_power(q) is None:
            raise WorkbenchError(f"{q} is not a prime power")
        return RingDescriptor("finite-field", q=q)

    @staticmethod
    def polynomial_ring(tag: str = "F") -> "RingDescriptor":
        return RingDescriptor("poly-char0", tag=tag or "F")

    @staticmethod
    def integers() -> "RingDescriptor":
        return RingDescriptor("integers")

    @staticmethod
    def infinite_field(tag: str = "F") -> "RingDescriptor":
        return RingDescriptor("infinite-field", tag=tag or "F")

    @staticmethod
    def abstract_ed(tag: str = "R",
                    has_unit_sum: bool | None = None) -> "RingDescriptor":
        return RingDescriptor("abstract-ed", tag=tag or "R",
                              unit_sum_flag=has_unit_sum)

    @property
    def key(self) -> str:
        return {
            "finite-field": f"fq:{self.q}",
            "poly-char0": f"poly:{self.tag}",
            "integers": "z",
            "infinite-field": f"field:{self.tag}",
            "abstract-ed": f"ed:{self.tag}",
        }[self.kind]

    @property
    def has_unit_sum(self) -> bool | None:
        """Whether 1 = u + v for units u, v.  Any field with at least three
        elements qualifies (take u outside {0, 1}); so do char-0 polynomial
        rings (2 + (-1)); the integers do not (units are only +-1)."""
        if self.kind == "finite-field":
            return self.q > 2
        if self.kind in ("poly-char0", "infinite-field"):
            return True
        if self.kind == "integers":
            return False
        return self.unit_sum_flag

    def pretty(self) -> str:
        return {
            "finite-field": f"F_{self.q}",
            "poly-char0": f"{self.tag}[X]",
            "integers": "Z",
            "infinite-field": self.tag,
            "abstract-ed": self.tag,
        }[self.kind]

    def units_pretty(self) -> str:
        if self.kind == "poly-char0":
            return f"{self.tag}^x"
        return f"{self.pretty()}^x"


def ring_from_key(key: str) -> RingDescriptor:
    """The ring a key or command-line token names: `fq:<q>`, `z`,
    `poly-char0` (the same as `poly:F`), `poly:<tag>`, `field:<tag>` or
    `ed:<tag>`.  An empty tag means the default tag, and an `ed:` ring comes
    back without a unit-sum declaration."""
    if key == "z":
        return RingDescriptor.integers()
    if key == "poly-char0":
        return RingDescriptor.polynomial_ring()
    head, _, rest = key.partition(":")
    if head == "fq":
        return RingDescriptor.finite_field(int_token(rest, key))
    if head == "poly":
        return RingDescriptor.polynomial_ring(rest)
    if head == "field":
        return RingDescriptor.infinite_field(rest)
    if head == "ed":
        return RingDescriptor.abstract_ed(rest)
    raise WorkbenchError(f"unknown ring key {key!r}")


@dataclass(frozen=True)
class TheoryFlags:
    t_closed: bool
    cofinal_even: bool | None = None

    def __post_init__(self):
        if self.t_closed and self.cofinal_even is not None:
            raise WorkbenchError(
                "cofinal_even only applies when the theory is not closed under products")
        if not self.t_closed and self.cofinal_even is None:
            raise WorkbenchError(
                "cofinal_even must be given when the theory is not closed under products")

    @property
    def first_branch(self) -> bool:
        return self.t_closed or bool(self.cofinal_even)


def derive_flags(ring: RingDescriptor) -> TheoryFlags:
    """Theory flags of the countably generated free module over the ring.

    Finite fields give finite-index subspaces of q-power index, so the
    even-cofinality dichotomy is decided by the parity of q; over infinite
    fields and char-0 polynomial rings there are no finite-index pp
    subgroups at all; over the integers the subgroups 2^k Z are cofinal.
    """
    if ring.kind == "finite-field":
        return TheoryFlags(False, ring.q % 2 == 0)
    if ring.kind in ("poly-char0", "infinite-field"):
        return TheoryFlags(True)
    if ring.kind == "integers":
        return TheoryFlags(False, True)
    raise UnsupportedRingError(
        "an abstract Euclidean domain needs caller-supplied theory flags")


# ---------------------------------------------------------------------------
# atoms and formal sums

_ATOM_KINDS = ("zmod", "units", "glab", "und")


@dataclass(frozen=True)
class Atom:
    kind: str  # zmod | units | glab | und
    k: int = 0
    ring: RingDescriptor | None = None  # units and glab only
    n: int = 0

    def sort_key(self):
        return (_ATOM_KINDS.index(self.kind), self.k,
                self.ring.key if self.ring else "", self.n)

    def pretty(self) -> str:
        if self.kind == "zmod":
            return f"Z_{self.k}"
        if self.kind == "units":
            return self.ring.units_pretty()
        if self.kind == "glab":
            return f"GL_{self.n}({self.ring.pretty()})^ab"
        return "Z_2?"

    def to_json(self) -> dict:
        if self.kind == "zmod":
            return {"atom": "Zmod", "k": self.k}
        if self.kind == "units":
            return {"atom": "UnitsOf", "ring": self.ring.key}
        if self.kind == "glab":
            return {"atom": "GLab", "ring": self.ring.key, "n": self.n}
        return {"atom": "UndeterminedZ2"}


def zmod(k: int) -> Atom:
    return Atom("zmod", k=int(k))


def _as_ring(ring) -> RingDescriptor:
    if isinstance(ring, RingDescriptor):
        return ring
    return ring_from_key(str(ring))


def units_of(ring) -> Atom:
    """R^x for a descriptor or a ring key."""
    return Atom("units", ring=_as_ring(ring))


def glab(n: int, ring) -> Atom:
    """GL_n(R)^ab for a descriptor or a ring key."""
    return Atom("glab", ring=_as_ring(ring), n=int(n))


UNDETERMINED = Atom("und")


def normalize_atom(atom: Atom) -> list[Atom]:
    """Rewrite one atom to its normal-form constituents (possibly none)."""
    if atom.kind == "und":
        return [atom]
    if atom.kind == "zmod":
        return [] if atom.k == 1 else [atom]
    ring = atom.ring
    if atom.kind == "units":
        if ring.kind == "integers":
            return [zmod(2)]
        if ring.kind == "finite-field":
            return normalize_atom(zmod(ring.q - 1))
        if ring.kind == "poly-char0":
            return [units_of(RingDescriptor.infinite_field(ring.tag))]
        return [atom]
    # glab
    if atom.n == 0:
        return []
    if ring.kind == "integers":
        # GL_n(Z)^ab: Z_2 for n = 1 or n >= 3, Z_2 + Z_2 for n = 2
        return [zmod(2), zmod(2)] if atom.n == 2 else [zmod(2)]
    if atom.n == 1:
        return normalize_atom(units_of(ring))
    if atom.n >= 3 or ring.has_unit_sum:
        # determinant is onto the units with kernel generated by
        # elementary matrices: n >= 3 over any ED, n = 2 given 1 = u + v
        return normalize_atom(units_of(ring))
    return [atom]


def _add_mult(a, b):
    if a == COUNTABLE or b == COUNTABLE:
        return COUNTABLE
    return a + b


@dataclass(frozen=True)
class FormalAbGroup:
    summands: tuple[tuple[Atom, object], ...] = ()
    display: str | None = field(default=None, compare=False)

    @staticmethod
    def make(pairs, display: str | None = None) -> "FormalAbGroup":
        merged: dict[Atom, object] = {}
        for atom, mult in pairs:
            if mult != COUNTABLE and (not isinstance(mult, int) or mult < 1):
                raise WorkbenchError(f"bad multiplicity {mult!r}")
            for piece in normalize_atom(atom):
                merged[piece] = _add_mult(merged.get(piece, 0), mult) \
                    if piece in merged else mult
        items = sorted(merged.items(), key=lambda am: am[0].sort_key())
        return FormalAbGroup(tuple(items), display)

    @staticmethod
    def trivial() -> "FormalAbGroup":
        return FormalAbGroup.make([])

    @staticmethod
    def from_atoms(atoms, display: str | None = None) -> "FormalAbGroup":
        return FormalAbGroup.make([(a, 1) for a in atoms], display)

    @property
    def is_trivial(self) -> bool:
        return not self.summands

    def direct_sum(self, other: "FormalAbGroup",
                   display: str | None = None) -> "FormalAbGroup":
        return FormalAbGroup.make(self.summands + other.summands, display)

    def countable_copies(self, display: str | None = None) -> "FormalAbGroup":
        return FormalAbGroup.make(
            [(a, COUNTABLE) for a, _ in self.summands], display)

    def multiplicity(self, atom: Atom):
        for a, m in self.summands:
            if a == atom:
                return m
        return 0

    def contains(self, other: "FormalAbGroup") -> bool:
        """Summand-wise multiset containment; countable absorbs anything."""
        for atom, mult in other.summands:
            mine = self.multiplicity(atom)
            if mine == COUNTABLE:
                continue
            if mult == COUNTABLE or mult > mine:
                return False
        return True

    def pretty(self) -> str:
        if self.display:
            return self.display
        if not self.summands:
            return "0"
        parts = []
        for atom, mult in self.summands:
            if mult == 1:
                parts.append(atom.pretty())
            elif mult == COUNTABLE:
                parts.append(f"{atom.pretty()}^(oo)")
            else:
                parts.append(f"{atom.pretty()}^{mult}")
        return " (+) ".join(parts)

    def to_json(self) -> dict:
        return {"summands": [dict(a.to_json(), mult=m)
                             for a, m in self.summands]}


# ---------------------------------------------------------------------------
# the closed forms


def _require_supported(ring: RingDescriptor):
    if ring.kind == "finite-field" and ring.q == 2:
        raise UnsupportedRingError(
            "the two-element field is not supported: its only unit is 1, so "
            "1 = u + v has no solution in units and the level-1 affine group "
            "keeps its translation quotient, leaving the truncations "
            "undetermined")
    if ring.kind == "abstract-ed" and ring.has_unit_sum is not True:
        raise UnsupportedRingError(
            "an abstract Euclidean domain is supported only when declared to "
            "satisfy 1 = u + v for units u, v")


def _branch_body(ring: RingDescriptor, flags: TheoryFlags) -> list[Atom]:
    if flags.first_branch:
        return [units_of(ring), zmod(2)]
    return [units_of(ring), zmod(2), zmod(2)]


def k1_free_module(ring: RingDescriptor, flags: TheoryFlags | None = None,
                   free_rank=None) -> FormalAbGroup:
    """K1 of the theory of a free module over the ring.

    Supported: any field with at least 3 elements (finite or infinite),
    char-0 polynomial rings, declared unit-sum Euclidean domains (all with
    the countably generated module), and the integers as a module over
    themselves (rank one).
    """
    if isinstance(free_rank, int) and free_rank < 1:
        raise WorkbenchError(
            f"free rank {free_rank} is not a module rank: give 1 over the "
            f"integers, or {COUNTABLE!r} (the default) over the other rings")
    if ring.kind == "integers":
        if free_rank not in (None, 1):
            raise UnsupportedRingError(
                "free modules of rank 2 or more over the integers are not "
                "determined by this calculus: a nontrivial module quotient "
                "survives in the level-1 abelianization and propagates to "
                "every higher truncation")
        return FormalAbGroup.make([(zmod(2), COUNTABLE)],
                                  display="(+)_{n>=0} Z_2")
    if free_rank not in (None, COUNTABLE):
        raise UnsupportedRingError(
            "only the countably generated free module case is computed here")
    _require_supported(ring)
    if flags is None:
        flags = derive_flags(ring)
    body = FormalAbGroup.from_atoms(_branch_body(ring, flags))
    display = "Z_2 (+) (+)_{n>=1} (" + _pretty_atoms(
        _branch_body(ring, flags)) + ")"
    return FormalAbGroup.make(
        [(zmod(2), 1)] + list(body.countable_copies().summands), display)


def _pretty_atoms(atoms) -> str:
    flat = []
    for a in atoms:
        flat.extend(normalize_atom(a))
    return " (+) ".join(a.pretty() for a in flat) if flat else "0"


def truncation_levels(ring: RingDescriptor, n: int,
                      flags: TheoryFlags | None = None) -> list[list[Atom]]:
    """Per-dimension atoms of the n-th automorphism-tower abelianization,
    from level n down to level 0, before normalization.

    The integers carry their known special shape: the level-1 group keeps a
    translation Z_2, and for n >= 2 the level-0 parity copy is the single
    summand the calculus does not determine.
    """
    if n < 1:
        raise WorkbenchError("levels start at n = 1")
    if ring.kind == "integers":
        if n == 1:
            return [[glab(1, ring), zmod(2)], [zmod(2)]]
        levels = [[glab(n, ring)]]
        for i in range(n - 1, 1, -1):
            levels.append([glab(i, ring), zmod(2)])
        levels.append([glab(1, ring), zmod(2), zmod(2)])
        levels.append([UNDETERMINED])
        return levels
    _require_supported(ring)
    if flags is None:
        flags = derive_flags(ring)
    extra = [] if flags.first_branch else [zmod(2)]
    levels = [[glab(n, ring)] + extra]
    for i in range(n - 1, 0, -1):
        levels.append([glab(i, ring), zmod(2)] + extra)
    levels.append([zmod(2)])
    return levels


def k1_truncation(ring: RingDescriptor, n: int,
                  flags: TheoryFlags | None = None) -> FormalAbGroup:
    levels = truncation_levels(ring, n, flags)
    atoms = [a for level in levels for a in level]
    display = " (+) ".join(
        "(" + _pretty_atoms(level) + ")" if len(level) > 1 else _pretty_atoms(level)
        for level in levels)
    return FormalAbGroup.from_atoms(atoms, display)


def k1_algebraic(ring: RingDescriptor) -> FormalAbGroup:
    """Units of the ring: the algebraic K1 of a Euclidean domain."""
    return FormalAbGroup.from_atoms([units_of(ring)])


def embedding_target(ring: RingDescriptor, mat) -> tuple[int, Atom, int]:
    """Where an invertible matrix lands inside the truncation tower.

    The matrix must use its last coordinate: matrices of the form
    diag(A', 1) already live at a lower level.  Returns the level, the
    tower atom at that level, and the determinant, which `Mat.det` reads off
    the characteristic polynomial at any size.
    """
    n = len(mat.rows)
    det = mat.det()
    if not mat.ring.is_unit(det):
        raise WorkbenchError("matrix is singular; it has no class")
    if n >= 2:
        unit_row = tuple(1 if j == n - 1 else 0 for j in range(n))
        last_row = tuple(mat.rows[n - 1])
        last_col = tuple(mat.rows[i][n - 1] for i in range(n))
        if last_row == unit_row and last_col == unit_row:
            raise WorkbenchError(
                "matrix lies in the embedded copy of the next smaller "
                "general linear group; reduce n first")
    return n, units_of(ring), det


# ---------------------------------------------------------------------------
# brute-force cross-check over small finite fields


def _atoms_to_factors(atoms) -> tuple | None:
    """Cyclic orders predicted by a list of atoms, or None when some atom
    stays symbolic and no concrete prediction exists."""
    from .groups import invariants_from_factors

    orders = []
    for atom in atoms:
        for piece in normalize_atom(atom):
            if piece.kind != "zmod":
                return None
            orders.append(piece.k)
    return invariants_from_factors(orders).factors


def truncation_consistency(ring: RingDescriptor, n: int,
                           cap: int = DEFAULT_CAP):
    """Check the symbolic truncation levels against brute-force group theory.

    For each level i <= n over a finite field this compares the predicted
    GL_i abelianization with an actual enumeration, compares the affine
    group's abelianization with the general linear one (the step that makes
    the level-i translation part vanish), and confirms the substituted
    levels agree with the closed K1 form.  Known small exceptions are
    consulted so a genuine mismatch is never silently excused.
    """
    from .groups import abelianization
    from .matrix_groups import (KNOWN_GL_AB_EXCEPTIONS, affine_group,
                                gl_group)
    from .report import VerificationReport
    from .rings import GF

    if ring.kind != "finite-field":
        raise UnsupportedRingError(
            "the brute-force cross-check needs a concrete finite field")
    report = VerificationReport(f"truncation-consistency {ring.pretty()} n={n}")
    fq = GF(ring.q)
    brute: dict[int, tuple] = {}
    for i in range(1, n + 1):
        brute[i] = abelianization(gl_group(i, fq, cap=cap)).factors
        predicted = _atoms_to_factors([glab(i, ring)])
        if predicted is None:
            exception = KNOWN_GL_AB_EXCEPTIONS.get((i, ring.q))
            report.add(f"gl-ab-level-{i}-known-exception",
                       exception == brute[i],
                       f"brute {brute[i]}, recorded {exception}")
        else:
            report.add(f"gl-ab-level-{i}", predicted == brute[i],
                       f"brute {brute[i]}, predicted {predicted}")
    for i in range(1, n + 1):
        aff = abelianization(affine_group(i, fq, cap=cap)).factors
        report.add(f"affine-ab-matches-gl-level-{i}", aff == brute[i],
                   f"affine {aff}, linear {brute[i]}")
    try:
        flags = derive_flags(ring)
        levels = truncation_levels(ring, n, flags)
    except UnsupportedRingError as exc:
        report.add("levels-match-k1-form", False, str(exc))
        return report
    # each GL_i^ab atom becomes the cyclic atoms of its brute-force value
    brute_atoms = {glab(i, ring): [zmod(k) for k in brute[i]] for i in brute}
    *upper, bottom, closed = (
        _atoms_to_factors([b for a in atoms for b in brute_atoms.get(a, [a])])
        for atoms in levels[1:] + [_branch_body(ring, flags)])
    ok = bottom == (2,) and all(f == closed for f in upper)
    report.add("levels-match-k1-form", ok,
               "substituted truncation levels against the closed form")
    return report
