"""Local stability of replicator rest points.

The Jacobian is the derivative of the one replicator field in `dynamics`,
built from the same system that integration and grids evaluate, at a point
that must lie on the simplex.  Eigenvalues are reported on the simplex
tangent space only (directions whose components sum to zero per
population); the trivial off-simplex direction is never included.
Evolutionary stability claims stay within what strictness licenses:
`two_species_ess_check` implements the strict-equilibrium characterization,
and `ess_stable` is otherwise a purely dynamical statement about Jacobian
sinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNash, NotRestPoint, ValidationError
from .games import BimatrixGame, MixedStrategy, is_nash_bimatrix, is_strict_equilibrium
from .dynamics import SIMPLEX_TOL, _jacobian, _parse_state, _system, _velocities

REST_TOL = 1e-9
EIG_TOL = 1e-7
# The payoff gain a pure deviation may have at a float coupled point that
# is called Nash (`classify_rest_point`).
NASH_SLACK = 1e-9

CATEGORY_ESS = "ess_stable"
CATEGORY_NASH_NOT_ESS = "nash_not_ess"
CATEGORY_NON_NASH = "non_nash_rest_point"


@dataclass(frozen=True)
class StabilityClassification:
    category: str  # ess_stable | nash_not_ess | non_nash_rest_point
    local_type: str  # sink | source | saddle | center | degenerate
    eigenvalues: tuple[complex, ...]  # tangent-space spectrum
    two_species_ess: bool  # meaningful for coupled systems only


def _rest_jacobian(system: str, game, point):
    """(dims, mats, s, Jacobian) of the replicator field at a rest point on
    the simplex: the system of `_system`, the point parsed to the stacked
    state s and the derivative there."""
    if system not in ("single", "coupled"):
        raise ValidationError(f"unknown system {system!r}; expected 'single' or 'coupled'")
    dims, mats = _system(system, game)
    s = _parse_state(dims, point)
    worst = float(np.max(np.abs(_velocities(dims, mats, s[None]))))
    if worst >= REST_TOL:
        raise NotRestPoint(f"velocity L-infinity norm {worst:.3e} exceeds {REST_TOL}")
    return dims, mats, s, _jacobian(dims, mats, s)


def rd_jacobian(system: str, game, point) -> np.ndarray:
    """Full-space Jacobian of the replicator field at a rest point: the
    derivative of the same field that `integrate` and `sample_field_grid`
    evaluate.

    For the coupled system the point is an (x, y) pair and the result is the
    block matrix over the stacked state (x, y).  The point must lie on the
    simplex (SizeMismatch for a wrong length, ValidationError otherwise),
    and NotRestPoint is raised if the velocity is not ~0.
    """
    return _rest_jacobian(system, game, point)[3]


def tangent_eigenvalues(jacobian: np.ndarray, dims) -> tuple[complex, ...]:
    """Eigenvalues of the Jacobian restricted to the simplex tangent space(s),
    on the basis e_i - e_last of each population: the field maps that space
    into itself, so the restriction is J[keep][:, keep] - J[keep][:, last]."""
    ends = np.cumsum(dims)
    keep = np.delete(np.arange(ends[-1]), ends - 1)
    last = np.repeat(ends - 1, np.asarray(dims) - 1)
    rows = jacobian[keep]
    eig = np.linalg.eigvals(rows[:, keep] - rows[:, last])
    return tuple(sorted((complex(z) for z in eig), key=lambda z: (z.real, z.imag)))


def _local_type(eigenvalues) -> str:
    re = [z.real for z in eigenvalues]
    im = [z.imag for z in eigenvalues]
    if all(r < -EIG_TOL for r in re):
        return "sink"
    if all(r > EIG_TOL for r in re):
        return "source"
    if any(r < -EIG_TOL for r in re) and any(r > EIG_TOL for r in re):
        return "saddle"
    if all(abs(r) <= EIG_TOL for r in re) and any(abs(v) > EIG_TOL for v in im):
        return "center"
    return "degenerate"


def two_species_ess_check(g: BimatrixGame, x: MixedStrategy, y: MixedStrategy) -> bool:
    """Two-species evolutionary stability via its strict-equilibrium
    characterization: true exactly for pure profiles where every unilateral
    deviation is strictly worse.  Requires a Nash equilibrium as input."""
    if not is_nash_bimatrix(g, x, y):
        raise NotNash("two-species ESS check requires a Nash equilibrium")
    return is_strict_equilibrium(g, x, y)


def _float_two_species_ess(g: BimatrixGame, dims, mats, s: np.ndarray) -> bool:
    """`two_species_ess_check` at a float coupled state s = (x, y): NotNash
    when a pure deviation gains more than NASH_SLACK, else whether s is a
    pure profile (one entry above SIMPLEX_TOL per population) that is a
    strict equilibrium of the exact payoffs."""
    (a, b), x, y = mats, s[:dims[0]], s[dims[0]:]
    ay, xb = a @ y, x @ b
    if not (ay.max() <= x @ ay + NASH_SLACK and xb.max() <= xb @ y + NASH_SLACK):
        raise NotNash("two-species ESS check requires a Nash equilibrium")
    sx, sy = np.flatnonzero(x > SIMPLEX_TOL).tolist(), np.flatnonzero(y > SIMPLEX_TOL).tolist()
    if len(sx) != 1 or len(sy) != 1:
        return False
    return is_strict_equilibrium(g, MixedStrategy.from_integers(dims[0], sx, (1,), 1),
                                 MixedStrategy.from_integers(dims[1], sy, (1,), 1))


def classify_rest_point(system: str, game, point, nash_status: bool) -> StabilityClassification:
    """Combine the tangent-space spectrum with the Nash status.

    Nash sinks are evolutionarily stable attractors; Nash non-sinks are
    equilibria without asymptotic stability; non-Nash rest points have an
    escaping direction.  Borderline eigenvalues report `degenerate` rather
    than guessing a side.  At a Nash coupled point, `two_species_ess` is
    `two_species_ess_check` of two exact strategies, and
    `_float_two_species_ess` of the parsed state otherwise.
    """
    dims, mats, s, jac = _rest_jacobian(system, game, point)
    eig = tangent_eigenvalues(jac, dims)
    local = _local_type(eig)
    if not nash_status:
        category = CATEGORY_NON_NASH
    elif local == "sink":
        category = CATEGORY_ESS
    else:
        category = CATEGORY_NASH_NOT_ESS
    ess_pair = False
    if system == "coupled" and nash_status:
        x, y = point
        if isinstance(x, MixedStrategy) and isinstance(y, MixedStrategy):
            ess_pair = two_species_ess_check(game, x, y)
        else:
            ess_pair = _float_two_species_ess(game, dims, mats, s)
    return StabilityClassification(
        category=category,
        local_type=local,
        eigenvalues=eig,
        two_species_ess=ess_pair,
    )

