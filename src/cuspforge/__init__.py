"""Exact-arithmetic invariants of plane-curve cusps.

Hamburger-Noether pair calculus, classical invariants (multiplicity
sequences, Puiseux data, semigroups, Alexander polynomials), resolution
dual graphs with blowup/contraction calculus, the known bicuspidal curve
families, and arithmetic audit reports.  All computation is exact integer
arithmetic.
"""

from .divisor import (
    Chain,
    ChainIdentityReport,
    ContractionResult,
    FiberReport,
    MarkedResolution,
    WeightedTree,
    adjoint,
    blow_down,
    blow_up,
    classify_fiber,
    contracts_to_smooth_point,
    contracts_to_zero_curve,
    discriminant,
    dot_export,
    fiber_multiplicities,
    hn_chain_identities,
    is_negative_definite,
    resolution_graph,
    star_concat,
)
from .errors import (
    CuspforgeError,
    DegenerateRemainder,
    EntryBelowTwo,
    Inconsistent,
    NotAFiber,
    NotContractible,
    NotCoprime,
    NotRealizable,
    NotReducible,
    NotStandard,
    ParamOutOfDomain,
)
from .families import (
    FAMILY_IDS,
    CurveRecord,
    DistinctnessReport,
    FamilySpec,
    check_domain,
    distinctness_audit,
    enumerate_curves,
    expected_reduced_multiplicities,
    fibonacci,
    generate,
)
from .hn import (
    RAW,
    STANDARD,
    HNPair,
    HNSequence,
    ValidationReport,
    Violation,
    expand_low_p,
    format_hn,
    parse_hn,
    require_valid,
    standardize,
    validate,
)
from .invariants import (
    FULL,
    REDUCED,
    CuspRecord,
    MultiplicitySequence,
    PairList,
    PuiseuxCharacteristic,
    Semigroup,
    alexander_polynomial,
    char_to_multiplicity,
    char_to_puiseux_pairs,
    compute_M_I,
    cusp_record,
    hn_from_zariski,
    hn_to_multiplicity,
    hn_to_puiseux_char,
    multiplicity_to_standard_hn,
    parse_multiplicity,
    parse_puiseux_char,
    puiseux_char_to_standard_hn,
    puiseux_pairs_to_char,
    semigroup_of,
    zariski_from_hn,
)
from .verify import (
    AuditReport,
    Check,
    FibrationLedger,
    check_E2_bounds,
    check_hn_equations,
    fibration_ledger,
    full_audit,
    kkd,
)

__version__ = "0.1.0"
