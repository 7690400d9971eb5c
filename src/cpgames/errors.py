"""Exception types shared across the package.  Each class carries the `cpg`
exit code and stderr category of its failures: a subclass inherits 2 and
"input" from `CpgError` unless it sets its own."""


class CpgError(Exception):
    """Base class for all cpgames errors."""

    exit_code = 2
    category = "input"


class ParseError(CpgError):
    """Malformed game document: invalid JSON, wrong field types, unknown keys."""


class ValidationError(CpgError):
    """Structurally valid input violating a game invariant (dimensions, labels,
    zero denominators, off-simplex strategies, oversized payoffs)."""


class SizeMismatch(CpgError):
    """Strategy or permutation dimensions do not match the game."""


class TooLarge(CpgError):
    """Input exceeds a size guard: the enumeration's action cap, the RK4
    record's value cap, a value too long to print or a payoff beyond float64."""


class UnsupportedDimension(CpgError):
    """Plot or grid type does not exist for this number of actions."""


class DomainEscape(CpgError):
    """Integration state left the simplex beyond the clamping tolerance."""

    exit_code = 3
    category = "numeric"


class NotRestPoint(CpgError):
    """Stability analysis requested at a point with nonzero velocity."""

    exit_code = 3
    category = "numeric"


class NotNash(CpgError):
    """Check requires a Nash equilibrium as input."""


class TheoremViolation(CpgError):
    """A reconstructed candidate failed Nash verification.  This contradicts
    the counterpart correspondence and always indicates an implementation bug."""

    exit_code = 4
    category = "theorem"
