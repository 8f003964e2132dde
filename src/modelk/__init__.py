"""Exact workbench for finite-group abelianization, definable-set geometry
over the rationals, and symbolic K1 of free modules over Euclidean domains.
"""

from .cosets import AffineCoset, LinearSystem
from .defsets import (Block, DefinableSet, K0Class, boolean_normalize,
                      definable_dim, definably_isomorphic, k0_class,
                      make_block, shift_witness)
from .automorphisms import AffineMap, PAMap, conjugate, decompose_affine
from .counting import CountReport, count_points_mod_p
from .errors import (CapExceededError, FormulaError, InvalidActionError,
                     UnsupportedRingError, WorkbenchError)
from .formulas import elaborate, format_formula, parse_formula
from .groups import (AbInvariants, FiniteGroup, GroupAction, abelianization,
                     coinvariants, commutator_subgroup, enumerate_group,
                     generated_subgroup, quotient_group)
from .report import VerificationReport
from .symbolic import (Atom, FormalAbGroup, RingDescriptor, TheoryFlags,
                       derive_flags, embedding_target, k1_algebraic,
                       k1_free_module, k1_truncation, truncation_consistency,
                       truncation_levels)

__version__ = "0.1.0"

__all__ = [
    "AffineCoset", "LinearSystem", "Block", "DefinableSet", "K0Class",
    "boolean_normalize", "definable_dim", "definably_isomorphic", "k0_class",
    "make_block", "shift_witness", "AffineMap", "PAMap", "conjugate",
    "decompose_affine", "CountReport", "count_points_mod_p",
    "CapExceededError", "FormulaError", "InvalidActionError",
    "UnsupportedRingError", "WorkbenchError", "elaborate", "format_formula",
    "parse_formula", "AbInvariants", "FiniteGroup", "GroupAction",
    "abelianization", "coinvariants", "commutator_subgroup",
    "enumerate_group", "generated_subgroup", "quotient_group",
    "VerificationReport", "Atom", "FormalAbGroup", "RingDescriptor",
    "TheoryFlags", "derive_flags", "embedding_target", "k1_algebraic",
    "k1_free_module", "k1_truncation",
    "truncation_consistency", "truncation_levels", "__version__",
]
