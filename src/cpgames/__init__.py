"""cpgames: counterpart decomposition, exact Nash enumeration and replicator
dynamics for two-player normal-form games."""

from .errors import (
    CpgError,
    DomainEscape,
    NotNash,
    NotRestPoint,
    NotSquare,
    ParseError,
    SizeMismatch,
    TheoremViolation,
    TooLarge,
    UnsupportedDimension,
    ValidationError,
)
from .games import (
    BimatrixGame,
    MixedStrategy,
    PaddingRecord,
    SingleGame,
    counterpart_games,
    expected_payoffs,
    fraction_str,
    is_nash_bimatrix,
    is_nash_single,
    is_strict_equilibrium,
    make_bimatrix,
    pad_to_square,
    parse_game,
    serialize_game,
    serialize_single,
    to_fraction,
)
from .solver import (
    DegeneracyReport,
    DegeneracyWitness,
    EquilibriumCandidate,
    RestPoint,
    SupportTable,
    detect_degeneracy,
    enumerate_nash_bimatrix,
    enumerate_nash_single,
    enumerate_rest_points,
)
from .decomposition import (
    DecompositionReport,
    VerificationReport,
    decompose,
    verify_roundtrip,
)
from .dynamics import (
    FieldSample,
    Trajectory,
    integrate,
    integrate_batch,
    rd_coupled_field,
    rd_single_field,
    sample_field_grid,
)
from .stability import (
    StabilityClassification,
    classify_rest_point,
    rd_jacobian,
    two_species_ess_check,
)
from .viz import PlotSpec, export_csv, plot_simplex, plot_unit_square

__version__ = "0.1.0"
