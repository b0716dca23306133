"""Exact-arithmetic invariants of plane-curve cusps.

Hamburger-Noether pair calculus, classical invariants (multiplicity
sequences, Puiseux data, semigroups, Alexander polynomials), resolution
dual graphs with blowup/contraction calculus, the known bicuspidal curve
families, and arithmetic audit reports.  All computation is exact integer
arithmetic.

Names load their module on first use (PEP 562): ``import cuspforge`` runs
this file alone, and ``cuspforge.cusp_record`` imports ``cuspforge.invariants``
(with the ``hn`` and ``errors`` modules it needs) the first time it is read.
``_EXPORTS`` is the one list of the public API.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the names the package re-exports from it.
_EXPORTS = {
    "divisor": (
        "Chain", "ChainIdentityReport", "ContractionResult", "FiberReport",
        "MarkedResolution", "WeightedTree", "adjoint", "blow_down", "blow_up",
        "classify_fiber", "contracts_to_smooth_point", "contracts_to_zero_curve",
        "discriminant", "dot_export", "fiber_multiplicities", "hn_chain_identities",
        "is_negative_definite", "resolution_graph", "star_concat",
    ),
    "errors": (
        "CuspforgeError", "DegenerateRemainder", "EntryBelowTwo", "Inconsistent",
        "NotAFiber", "NotContractible", "NotCoprime", "NotRealizable", "NotReducible",
        "NotStandard", "ParamOutOfDomain",
    ),
    "families": (
        "FAMILY_IDS", "CurveRecord", "DistinctnessReport", "FamilySpec", "check_domain",
        "distinctness_audit", "enumerate_curves", "expected_reduced_multiplicities",
        "fibonacci", "generate",
    ),
    "hn": (
        "RAW", "STANDARD", "HNPair", "HNSequence", "ValidationReport", "Violation",
        "expand_low_p", "format_hn", "parse_hn", "require_valid", "standardize",
        "validate",
    ),
    "invariants": (
        "FULL", "REDUCED", "CuspRecord", "MultiplicitySequence", "PairList",
        "PuiseuxCharacteristic", "Semigroup", "alexander_polynomial",
        "char_to_multiplicity", "char_to_puiseux_pairs", "compute_M_I", "cusp_record",
        "hn_from_zariski", "hn_to_multiplicity", "hn_to_puiseux_char",
        "multiplicity_to_standard_hn", "parse_multiplicity", "parse_puiseux_char",
        "puiseux_char_to_standard_hn", "puiseux_pairs_to_char", "semigroup_of",
        "zariski_from_hn",
    ),
    "verify": (
        "AuditReport", "Check", "FibrationLedger", "check_E2_bounds",
        "check_hn_equations", "fibration_ledger", "full_audit", "kkd",
    ),
}

# public name -> the submodule that defines it (a submodule maps to itself)
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    home = _import_module(f"{__name__}.{module}")
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
