"""Replicator-dynamics vector fields, their Jacobian and fixed-step RK4
integration.

Three views of the same game: the single-population field on one square
matrix, the coupled two-population field on a bimatrix game, and the two
decoupled counterpart fields.  `_system` turns a system name into one
(dims, mats) pair, and the field, RK4, grids and the Jacobian that
`stability` reads all evaluate that pair.  All dynamics run in float64:
`_system` converts the exact payoffs once, and every state or start passes
the one float simplex rule, `_check_simplex`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, SizeMismatch, TooLarge, UnsupportedDimension, ValidationError
from .games import BimatrixGame, MixedStrategy, SingleGame, counterpart_games

SYSTEMS = ("single", "coupled", "cp1", "cp2")
# The simplex rule's bound: well above RK4 noise, far below any payoff scale.
SIMPLEX_TOL = 1e-9
CLAMP_EPS = 1e-12
# float64 values an RK4 record may hold, (steps // stride + 2) * K * N: 400 MB
MAX_RECORD_VALUES = 50_000_000


def _as_state(value, n: int, what: str) -> np.ndarray:
    if isinstance(value, MixedStrategy):
        value = value.probs
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (n,):
        raise SizeMismatch(f"{what} has {arr.shape[0] if arr.ndim == 1 else '?'} components, expected {n}")
    return arr


def _float_matrix(mat) -> np.ndarray:
    """Exact payoffs as a float64 array; TooLarge for a payoff past the
    float64 range, which no float computation could use."""
    try:
        return np.array(mat, dtype=np.float64)
    except OverflowError:
        raise TooLarge("a payoff is beyond the float64 range (about 1.8e308)") from None


def _system(system: str, game):
    """Return (dims, mats) for a system name: one matrix M for a one-population
    system, or (A, B) for the coupled system on the stacked state (x, y), as
    float64 arrays of the exact payoffs.  A counterpart system ("cp1",
    "cp2") of a non-square game is that of its padded game."""
    if system == "single":
        if not isinstance(game, SingleGame):
            raise ValidationError("system 'single' needs a SingleGame")
        return (game.n,), (_float_matrix(game.payoffs),)
    if not isinstance(game, BimatrixGame):
        raise ValidationError(f"system {system!r} needs a BimatrixGame")
    if system == "coupled":
        return (game.n_rows, game.n_cols), (_float_matrix(game.row_payoffs),
                                            _float_matrix(game.col_payoffs))
    if system in ("cp1", "cp2"):
        s = counterpart_games(game)[system == "cp2"]
        return (s.n,), (_float_matrix(s.payoffs),)
    raise ValidationError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def _blocks(arr: np.ndarray, dims) -> list[np.ndarray]:
    """Per-population column blocks (K, d) of a (K, N) state array."""
    offsets = np.cumsum((0,) + tuple(dims))
    return [arr[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


def _field_plan(dims, mats, s: np.ndarray, out: np.ndarray):
    """Views for `_field` from the rows of s (K, N) into out, made once so the
    RK4 loop slices nothing.  One matrix M gives v = x * (Mx - x.Mx); (A, B)
    gives the coupled field, with fitness Ay for x and xB for y.

    Stacked matmul makes one gemv or dot call per row, so a row gets the bits
    of the 1-D products on that start alone.  A gemm sums in another order,
    and on a separatrix (BoS from (1/2, 1/2)) one ulp picks the equilibrium.
    """
    src, dst = _blocks(s, dims), _blocks(out, dims)
    if len(mats) == 1:
        products = [(mats[0], src[0][:, :, None], dst[0][:, :, None])]
    else:
        products = [(mats[0], src[1][:, :, None], dst[0][:, :, None]),
                    (src[0][:, None, :], mats[1], dst[1][:, None, :])]
    means = [(x[:, None, :], fit[:, :, None], mean, fit, mean[:, 0])
             for x, fit, mean in zip(src, dst, np.empty((len(dims), len(s), 1, 1)))]
    return s, out, products, means


def _field(plan) -> None:
    """Replicator velocity of every start in a `_field_plan`."""
    s, out, products, means = plan
    for left, right, fit in products:
        np.matmul(left, right, fit)
    for x, fit_col, mean, fit, mean2 in means:
        np.matmul(x, fit_col, mean)
        np.subtract(fit, mean2, fit)
    np.multiply(s, out, out)


@np.errstate(over="ignore", invalid="ignore")  # a velocity that overflows raises DomainEscape
def _velocities(dims, mats, states: np.ndarray) -> np.ndarray:
    """Field at every row of a (K, N) state array, as a new (K, N) array;
    DomainEscape if some velocity is not finite."""
    out = np.empty_like(states)
    _field(_field_plan(dims, mats, states, out))
    if not np.isfinite(out).all():
        raise DomainEscape("field velocity is not finite: the field overflowed float64")
    return out


def _jacobian(dims, mats, s: np.ndarray) -> np.ndarray:
    """Derivative of `_field` at one state s (N,), as an (N, N) array.

    With the fitness map F (M, or [[0, A], [B^T, 0]] on the stacked (x, y))
    and f = Fs, the rows of population block b are
    diag(x_b)(F_b - 1(f_b on b's own columns + x_b F_b)), plus
    diag(f_b - x_b.f_b) on the block's own diagonal.
    """
    if len(mats) == 1:
        fit_map = mats[0]
    else:
        fit_map = np.block([[np.zeros((dims[0], dims[0])), mats[0]],
                            [mats[1].T, np.zeros((dims[1], dims[1]))]])
    fit = fit_map @ s
    jac = np.empty((len(s), len(s)))
    offsets = np.cumsum((0,) + tuple(dims))
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        x, f_b, rows = s[lo:hi], fit[lo:hi], fit_map[lo:hi]
        own = np.zeros(len(s))
        own[lo:hi] = f_b
        jac[lo:hi] = x[:, None] * (rows - own - x @ rows)
        jac[lo:hi, lo:hi][np.diag_indices(hi - lo)] += f_b - x @ f_b
    return jac


def rd_single_field(s: SingleGame, x) -> np.ndarray:
    """v_i = x_i * [(Mx)_i - x^T M x]; tangent to the simplex by construction."""
    return _velocities(*_system("single", s), _as_state(x, s.n, "state")[None])[0]


def rd_coupled_field(g: BimatrixGame, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two-population field: each population's fitness depends on the other."""
    xa = _as_state(x, g.n_rows, "row state")
    ya = _as_state(y, g.n_cols, "column state")
    v = _velocities(*_system("coupled", g), np.concatenate([xa, ya])[None])[0]
    return v[:g.n_rows], v[g.n_rows:]


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record.  `ys` is None for one-population systems."""

    system: str
    times: np.ndarray
    xs: np.ndarray  # shape (steps + 1, n)
    ys: np.ndarray | None  # shape (steps + 1, m) for coupled systems

    @property
    def n_states(self) -> int:
        return self.xs.shape[0]


def _check_simplex(values, what: str) -> None:
    """The one rule for a float vector on the simplex, applied to every state
    and start: every entry finite, none below -SIMPLEX_TOL, and the sum
    within SIMPLEX_TOL of 1."""
    # a NaN or infinite entry makes the sum NaN or infinite, which fails the
    # second comparison, so no separate finiteness check is needed
    if not (min(values) >= -SIMPLEX_TOL and abs(sum(values) - 1.0) <= SIMPLEX_TOL):
        raise ValidationError(f"{what} is not on the probability simplex: {[float(v) for v in values]}")


def _parse_state(dims, state) -> np.ndarray:
    """One state on the simplex as an (N,) array: a vector for one population,
    an (x, y) pair for the coupled system."""
    if len(dims) == 2:
        if not (isinstance(state, (tuple, list)) and len(state) == 2):
            raise ValidationError("coupled systems need a state per population")
        x = _as_state(state[0], dims[0], "row state")
        y = _as_state(state[1], dims[1], "column state")
        _check_simplex(x, "row state")
        _check_simplex(y, "column state")
        return np.concatenate([x, y])
    x = _as_state(state, dims[0], "state")
    _check_simplex(x, "state")
    return x


def _n_steps(dt: float, t_max: float) -> int:
    """Number of RK4 steps of size dt that cover [0, t_max]."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if t_max < dt:
        raise ValidationError("t_max must be at least dt")
    ratio = t_max / dt
    if not math.isfinite(ratio):  # NaN passes both comparisons above
        raise ValidationError(f"t_max / dt is {ratio}, not a finite number of steps")
    return max(1, int(round(ratio)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in NaN, which raises DomainEscape
def _rk4(system: str, game, starts, dt: float, t_max: float, stride: int) -> np.ndarray:
    """The one RK4 loop, in place on a (K, N) array; see `integrate_batch`."""
    steps = _n_steps(dt, t_max)
    dims, mats = _system(system, game)
    s = np.array([_parse_state(dims, start) for start in starts])
    if len(s) == 0:
        raise ValidationError("no starts to integrate")
    shape = (steps // stride + 2,) + s.shape
    if math.prod(shape) > MAX_RECORD_VALUES:
        raise TooLarge(f"RK4 record of {shape[0]:.3g} states x {s.size} values exceeds the cap of "
                       f"{MAX_RECORD_VALUES} values; raise dt or stride, or lower t_max")
    rec = np.empty(shape)
    rec[0] = s
    u, v1, v2, v3, v4 = (np.empty_like(s) for _ in range(5))
    f1 = _field_plan(dims, mats, s, v1)
    f2, f3, f4 = (_field_plan(dims, mats, u, v) for v in (v2, v3, v4))
    sums = [(block, np.empty((s.shape[0], 1))) for block in _blocks(s, dims)]
    # 0-d arrays: numpy converts a Python float operand on every call
    half, full, two, sixth = (np.array(c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    stages = ((v1, half, f2), (v2, half, f3), (v3, full, f4))
    for step in range(1, steps + 1):
        _field(f1)
        for v, h, plan in stages:  # u = s + h * v, then the field at u
            np.multiply(v, h, u)
            np.add(s, u, u)
            _field(plan)
        # s + dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(v2, two, v2)
        np.add(v1, v2, v1)
        np.multiply(v3, two, v3)
        np.add(v1, v3, v1)
        np.add(v1, v4, v1)
        np.multiply(v1, sixth, v1)
        np.add(s, v1, s)
        low = np.minimum.reduce(s, None)  # NaN if any component is, and NaN fails the bound
        if not low >= -SIMPLEX_TOL:
            raise DomainEscape(f"state component {low} below -{SIMPLEX_TOL}; reduce dt" if not math.isnan(low)
                               else "state component is not a number: the field overflowed float64")
        if low < 0.0:
            np.copyto(s, 0.0, where=(s < 0.0) & (s >= -CLAMP_EPS))
        for block, total in sums:
            np.add.reduce(block, 1, None, total, True)
            np.divide(block, total, block)
        if step % stride == 0:
            rec[step // stride] = s
    rec[-1] = s
    return rec


def integrate_batch(system: str, game, starts, dt: float = 0.01, t_max: float = 50.0,
                    stride: int = 1) -> np.ndarray:
    """Classical fixed-step RK4 on all starts together, each bit-identical to
    `integrate` on that start alone.

    Returns a (steps // stride + 2, K, N) array: the states at steps 0,
    stride, 2*stride, ... and then the final one, with each start's
    populations concatenated (x then y for the coupled system).  A record of
    more than MAX_RECORD_VALUES values raises TooLarge before any step or
    allocation.  After each step a component below -SIMPLEX_TOL (the
    simplex rule's bound) or NaN raises DomainEscape, values in
    [-CLAMP_EPS, 0) are clamped to 0 and each population is renormalized.
    Faces stay invariant exactly: a zero component has zero velocity at
    every RK4 stage and scaling preserves it.
    """
    if stride < 1:
        raise ValidationError("stride must be at least 1")
    return _rk4(system, game, starts, dt, t_max, stride)


def integrate(system: str, game, init, dt: float = 0.01, t_max: float = 50.0) -> Trajectory:
    """Classical fixed-step RK4 on the requested system, recording every step:
    the one-start, stride-1 case of `integrate_batch`.  A counterpart system
    of a non-square game runs on its padded game, so `init` has
    max(n_rows, n_cols) components."""
    states = _rk4(system, game, [init], dt, t_max, 1)[:-1, 0]
    times = np.arange(states.shape[0]) * dt
    if system == "coupled":
        return Trajectory(system=system, times=times, xs=states[:, :game.n_rows], ys=states[:, game.n_rows:])
    return Trajectory(system=system, times=times, xs=states, ys=None)


def sample_field_grid(system: str, game, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Velocity samples on a regular grid, as (points, velocities): two
    (K, N) arrays with each sample's populations concatenated, as in the
    states of `integrate_batch`.

    Coupled 2x2 systems sample ((p, 1-p), (q, 1-q)) on a resolution^2 lattice
    over the unit square; one-population 3-action systems sample the
    barycentric lattice with step 1/resolution.  Other shapes have no grid.
    """
    if resolution < 2:
        raise ValidationError("resolution must be at least 2")
    dims, mats = _system(system, game)
    if len(dims) == 2:
        if dims != (2, 2):
            raise UnsupportedDimension("unit-square grids need 2 actions per player")
        axis = [i / (resolution - 1) for i in range(resolution)]
        points = np.array([[p, 1.0 - p, q, 1.0 - q] for p in axis for q in axis])
    else:
        if dims[0] != 3:
            raise UnsupportedDimension("simplex grids need exactly 3 actions")
        points = np.array([[i, j, resolution - i - j] for i in range(resolution + 1)
                           for j in range(resolution + 1 - i)], dtype=np.float64) / resolution
    return points, _velocities(dims, mats, points)
