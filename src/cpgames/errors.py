"""Exception types shared across the package."""


class CpgError(Exception):
    """Base class for all cpgames errors."""


class ParseError(CpgError):
    """Malformed game document: invalid JSON, wrong field types, unknown keys."""


class ValidationError(CpgError):
    """Structurally valid input violating a game invariant (dimensions, labels,
    zero denominators, off-simplex strategies)."""


class SizeMismatch(CpgError):
    """Strategy or permutation dimensions do not match the game."""


class TooLarge(CpgError):
    """Input exceeds a size guard: the enumeration's action cap or the RK4
    record's value cap."""


class UnsupportedDimension(CpgError):
    """Plot or grid type does not exist for this number of actions."""


class DomainEscape(CpgError):
    """Integration state left the simplex beyond the clamping tolerance."""


class NotRestPoint(CpgError):
    """Stability analysis requested at a point with nonzero velocity."""


class NotNash(CpgError):
    """Check requires a Nash equilibrium as input."""


class TheoremViolation(CpgError):
    """A reconstructed candidate failed Nash verification.  This contradicts
    the counterpart correspondence and always indicates an implementation bug."""
