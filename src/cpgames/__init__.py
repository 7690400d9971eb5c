"""cpgames: counterpart decomposition, exact Nash enumeration and replicator
dynamics for two-player normal-form games."""

from .errors import (
    CpgError,
    DomainEscape,
    NotNash,
    NotRestPoint,
    NotSquare,
    ParseError,
    SingularSystem,
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
    Permutation,
    SingleGame,
    counterpart_games,
    expected_payoffs,
    fraction_str,
    is_nash_bimatrix,
    is_nash_single,
    make_bimatrix,
    make_single,
    pad_to_square,
    parse_game,
    permute_columns,
    serialize_game,
    serialize_single,
    to_fraction,
)
from .solver import (
    DegeneracyReport,
    DegeneracyWitness,
    EquilibriumCandidate,
    RestPoint,
    detect_degeneracy,
    enumerate_nash_bimatrix,
    enumerate_nash_single,
    enumerate_rest_points,
)
from .decomposition import (
    DecompositionReport,
    VerificationReport,
    decompose,
    reconstruct_candidates,
    verify_roundtrip,
)
from .dynamics import (
    FieldSample,
    Trajectory,
    integrate,
    integrate_batch,
    rd_coupled_field,
    rd_counterpart_fields,
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
