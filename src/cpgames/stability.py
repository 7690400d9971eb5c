"""Local stability of replicator rest points via analytic Jacobians.

Eigenvalues are reported on the simplex tangent space only (directions whose
components sum to zero per population); the trivial off-simplex direction is
never included.  Evolutionary stability claims stay within what strictness
licenses: `two_species_ess_check` implements the strict-equilibrium
characterization, and `ess_stable` is otherwise a purely dynamical statement
about Jacobian sinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNash, NotRestPoint, ValidationError
from .games import BimatrixGame, MixedStrategy, SingleGame, is_nash_bimatrix
from .dynamics import _as_state, rd_coupled_field, rd_single_field

REST_TOL = 1e-9
EIG_TOL = 1e-7

CATEGORY_ESS = "ess_stable"
CATEGORY_NASH_NOT_ESS = "nash_not_ess"
CATEGORY_NON_NASH = "non_nash_rest_point"


@dataclass(frozen=True)
class StabilityClassification:
    category: str  # ess_stable | nash_not_ess | non_nash_rest_point
    local_type: str  # sink | source | saddle | center | degenerate
    eigenvalues: tuple[complex, ...]  # tangent-space spectrum
    two_species_ess: bool  # meaningful for coupled systems only


def _single_jacobian(s: SingleGame, x: np.ndarray) -> np.ndarray:
    """J = diag(x)(M - 1(Mx + M^T x)^T) + diag(Mx - x.Mx)."""
    m = s.m_float()
    mx = m @ x
    jac = x[:, None] * (m - mx - m.T @ x)
    jac[np.diag_indices(s.n)] += mx - x @ mx
    return jac


def _coupled_jacobian(g: BimatrixGame, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Block Jacobian over the stacked (x, y): d(vx)/dx = -x (Ay)^T + diag(Ay - x.Ay),
    d(vx)/dy = diag(x)(A - 1 (xA)^T), and the mirror blocks for y on B."""
    a, b = g.a_float(), g.b_float()
    n = g.n_rows
    ay = a @ y
    xb = x @ b
    jac = np.block([[-x[:, None] * ay, x[:, None] * (a - x @ a)],
                    [y[:, None] * (b.T - b @ y), -y[:, None] * xb]])
    jac[np.diag_indices(n)] += ay - x @ ay
    jac[n:, n:][np.diag_indices(g.n_cols)] += xb - xb @ y
    return jac


def _point_arrays(system: str, game, point):
    if system == "single":
        if not isinstance(game, SingleGame):
            raise ValidationError("system 'single' needs a SingleGame")
        x = _as_state(point, game.n, "state")
        v = rd_single_field(game, x)
        return (x,), (v,)
    if system == "coupled":
        if not isinstance(game, BimatrixGame):
            raise ValidationError("system 'coupled' needs a BimatrixGame")
        if not (isinstance(point, (tuple, list)) and len(point) == 2):
            raise ValidationError("coupled systems need a (x, y) state pair")
        x = _as_state(point[0], game.n_rows, "row state")
        y = _as_state(point[1], game.n_cols, "column state")
        vx, vy = rd_coupled_field(game, x, y)
        return (x, y), (vx, vy)
    raise ValidationError(f"unknown system {system!r}; expected 'single' or 'coupled'")


def rd_jacobian(system: str, game, point) -> np.ndarray:
    """Full-space Jacobian of the replicator field at a rest point.

    For the coupled system the result is the block matrix over the stacked
    state (x, y).  Raises NotRestPoint if the velocity is not ~0.
    """
    states, velocities = _point_arrays(system, game, point)
    worst = max(float(np.max(np.abs(v))) for v in velocities)
    if worst >= REST_TOL:
        raise NotRestPoint(f"velocity L-infinity norm {worst:.3e} exceeds {REST_TOL}")
    if system == "single":
        return _single_jacobian(game, states[0])
    return _coupled_jacobian(game, states[0], states[1])


def _tangent_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum subspace of R^n (n-1 columns)."""
    basis = np.zeros((n, n - 1))
    for k in range(1, n):
        col = np.zeros(n)
        col[:k] = 1.0
        col[k] = -k
        basis[:, k - 1] = col / np.sqrt(k * (k + 1))
    return basis


def tangent_eigenvalues(system: str, jacobian: np.ndarray, dims) -> tuple[complex, ...]:
    """Eigenvalues of the Jacobian restricted to the simplex tangent space(s)."""
    blocks = [_tangent_basis(d) for d in dims]
    total = sum(dims)
    reduced = sum(d - 1 for d in dims)
    proj = np.zeros((total, reduced))
    r_off = c_off = 0
    for block in blocks:
        proj[r_off:r_off + block.shape[0], c_off:c_off + block.shape[1]] = block
        r_off += block.shape[0]
        c_off += block.shape[1]
    eig = np.linalg.eigvals(proj.T @ jacobian @ proj)
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
    tol = 0.0 if x.mode == "exact" and y.mode == "exact" else 1e-9
    if not is_nash_bimatrix(g, x, y, tol=tol):
        raise NotNash("two-species ESS check requires a Nash equilibrium")
    sx, sy = x.support(), y.support()
    if len(sx) != 1 or len(sy) != 1:
        return False
    i, j = sx[0], sy[0]
    a, b = g.row_payoffs, g.col_payoffs
    return (all(a[k][j] < a[i][j] for k in range(g.n_rows) if k != i)
            and all(b[i][l] < b[i][j] for l in range(g.n_cols) if l != j))


def classify_rest_point(system: str, game, point, nash_status: bool) -> StabilityClassification:
    """Combine the tangent-space spectrum with the Nash status.

    Nash sinks are evolutionarily stable attractors; Nash non-sinks are
    equilibria without asymptotic stability; non-Nash rest points have an
    escaping direction.  Borderline eigenvalues report `degenerate` rather
    than guessing a side.
    """
    jac = rd_jacobian(system, game, point)
    if system == "single":
        dims = (game.n,)
    else:
        dims = (game.n_rows, game.n_cols)
    eig = tangent_eigenvalues(system, jac, dims)
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
        if not isinstance(x, MixedStrategy):
            x = MixedStrategy.from_floats(np.asarray(x, dtype=float))
        if not isinstance(y, MixedStrategy):
            y = MixedStrategy.from_floats(np.asarray(y, dtype=float))
        ess_pair = two_species_ess_check(game, x, y)
    return StabilityClassification(
        category=category,
        local_type=local,
        eigenvalues=eig,
        two_species_ess=ess_pair,
    )


def classification_json(c: StabilityClassification) -> dict:
    return {
        "category": c.category,
        "local_type": c.local_type,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in c.eigenvalues],
        "two_species_ess": c.two_species_ess,
    }
