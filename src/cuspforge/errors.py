"""Domain-specific exception types.

Every error raised on mathematically meaningful failure paths derives from
:class:`CuspforgeError`, so callers can catch the whole family at once.
Programming mistakes (wrong argument types, malformed text) raise plain
``ValueError`` / ``TypeError`` as usual.
"""


class CuspforgeError(Exception):
    """Base class for all domain errors raised by this package."""


class NotReducible(CuspforgeError):
    """Rewriting reached a fixpoint that still violates the standard axioms."""


class DegenerateRemainder(CuspforgeError):
    """Splitting a pair with p > c produced a zero remainder at c > 1."""


class NotRealizable(CuspforgeError):
    """The multiplicity sequence does not come from any cusp."""


class NotStandard(CuspforgeError):
    """A pair sequence reconstructed or taken as standard fails the standard axioms."""


class Inconsistent(CuspforgeError):
    """Kept for compatibility: no conversion raises it, since each one's divisions are exact."""


class EntryBelowTwo(CuspforgeError):
    """Adjoint of a chain needs every entry to be at least two."""


class NotContractible(CuspforgeError):
    """The vertex is not a blow-downable (-1)-curve."""


class NotAFiber(CuspforgeError):
    """The weighted tree is not the reduced divisor of a P1-fiber."""


class NotCoprime(CuspforgeError):
    """The chain-identity report needs a coprime pair."""


class ParamOutOfDomain(CuspforgeError):
    """Family parameters violate the admissible domain."""
