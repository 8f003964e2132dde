"""Exact workbench for finite-group abelianization, definable-set geometry
over the rationals, and symbolic K1 of free modules over Euclidean domains.

The layers load on first use: `from modelk import X` imports only the
module that defines X, so `import modelk` alone loads no layer.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the layer module that defines it
_LAYER_OF = {name: layer for layer, names in {
    "cosets": ("AffineCoset", "LinearSystem"),
    "defsets": ("Block", "DefinableSet", "K0Class", "boolean_normalize",
                "definable_dim", "definably_isomorphic", "k0_class",
                "make_block", "shift_witness"),
    "automorphisms": ("AffineMap", "PAMap", "conjugate", "decompose_affine"),
    "counting": ("CountReport", "count_points_mod_p"),
    "errors": ("CapExceededError", "FormulaError", "InvalidActionError",
               "UnsupportedRingError", "WorkbenchError"),
    "formulas": ("elaborate", "format_formula", "parse_formula"),
    "groups": ("AbInvariants", "FiniteGroup", "GroupAction", "abelianization",
               "enumerate_group"),
    "report": ("VerificationReport",),
    "symbolic": ("Atom", "FormalAbGroup", "RingDescriptor", "TheoryFlags",
                 "derive_flags", "embedding_target", "k1_algebraic",
                 "k1_free_module", "k1_truncation", "truncation_consistency",
                 "truncation_levels"),
}.items() for name in names}

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
