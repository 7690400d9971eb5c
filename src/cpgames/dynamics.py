"""Replicator-dynamics vector fields and fixed-step RK4 integration.

Three views of the same game: the single-population field on one square
matrix, the coupled two-population field on a bimatrix game, and the two
decoupled counterpart fields.  All dynamics run in float64; exact payoffs
enter only through the initial matrix conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, NotSquare, SizeMismatch, UnsupportedDimension, ValidationError
from .games import BimatrixGame, MixedStrategy, SingleGame, counterpart_games

SYSTEMS = ("single", "coupled", "cp1", "cp2")
CLAMP_EPS = 1e-12
ESCAPE_EPS = 1e-9
SIMPLEX_TOL = 1e-9


def _as_state(value, n: int, what: str) -> np.ndarray:
    if isinstance(value, MixedStrategy):
        arr = value.as_floats()
    else:
        arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (n,):
        raise SizeMismatch(f"{what} has {arr.shape[0] if arr.ndim == 1 else '?'} components, expected {n}")
    return arr


def _check_simplex(arr: np.ndarray, what: str) -> None:
    # NaN fails every comparison, so finiteness is checked first
    if not np.isfinite(arr).all() or arr.min() < -SIMPLEX_TOL or abs(arr.sum() - 1.0) > SIMPLEX_TOL:
        raise ValidationError(f"{what} is not on the probability simplex: {arr.tolist()}")


def _system(system: str, game):
    """Return (dims, mats) for a system name: one matrix M for a one-population
    system, or (A, B) for the coupled system on the stacked state (x, y)."""
    if system == "single":
        if not isinstance(game, SingleGame):
            raise ValidationError("system 'single' needs a SingleGame")
        return (game.n,), (game.m_float(),)
    if not isinstance(game, BimatrixGame):
        raise ValidationError(f"system {system!r} needs a BimatrixGame")
    if system == "coupled":
        return (game.n_rows, game.n_cols), (game.a_float(), game.b_float())
    if system in ("cp1", "cp2"):
        if not game.is_square:
            raise NotSquare("counterpart systems require a square game; pad first")
        cp1, cp2 = counterpart_games(game)
        s = cp1 if system == "cp1" else cp2
        return (s.n,), (s.m_float(),)
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


def _velocities(dims, mats, states: np.ndarray) -> np.ndarray:
    """Field at every row of a (K, N) state array, as a new (K, N) array."""
    out = np.empty_like(states)
    _field(_field_plan(dims, mats, states, out))
    return out


def rd_single_field(s: SingleGame, x) -> np.ndarray:
    """v_i = x_i * [(Mx)_i - x^T M x]; tangent to the simplex by construction."""
    return _velocities(*_system("single", s), _as_state(x, s.n, "state")[None])[0]


def rd_coupled_field(g: BimatrixGame, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two-population field: each population's fitness depends on the other."""
    xa = _as_state(x, g.n_rows, "row state")
    ya = _as_state(y, g.n_cols, "column state")
    v = _velocities(*_system("coupled", g), np.concatenate([xa, ya])[None])[0]
    return v[:g.n_rows], v[g.n_rows:]


def rd_counterpart_fields(g: BimatrixGame, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Velocities of the two decoupled counterpart systems: the first moves
    the column strategy y on matrix A, the second moves x on B transposed."""
    if not g.is_square:
        raise NotSquare("counterpart dynamics require a square game; pad first")
    cp1, cp2 = counterpart_games(g)
    return rd_single_field(cp1, y), rd_single_field(cp2, x)


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


@dataclass(frozen=True)
class FieldSample:
    """One grid point of a velocity field; tuples hold one or two populations."""

    points: tuple[np.ndarray, ...]
    velocities: tuple[np.ndarray, ...]


def _split_init(system: str, dims, init) -> np.ndarray:
    if len(dims) == 2:
        if not (isinstance(init, (tuple, list)) and len(init) == 2):
            raise ValidationError("coupled systems need an initial state per population")
        x0 = _as_state(init[0], dims[0], "initial row state")
        y0 = _as_state(init[1], dims[1], "initial column state")
        _check_simplex(x0, "initial row state")
        _check_simplex(y0, "initial column state")
        return np.concatenate([x0, y0])
    x0 = _as_state(init, dims[0], "initial state")
    _check_simplex(x0, "initial state")
    return x0


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


def _rk4(system: str, game, starts, dt: float, t_max: float, stride: int) -> np.ndarray:
    """The one RK4 loop, in place on a (K, N) array; see `integrate_batch`."""
    steps = _n_steps(dt, t_max)
    dims, mats = _system(system, game)
    s = np.array([_split_init(system, dims, start) for start in starts])
    if len(s) == 0:
        raise ValidationError("no starts to integrate")
    rec = np.empty((steps // stride + 2,) + s.shape)
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
        low = np.fmin.reduce(s, None)
        if low < -ESCAPE_EPS:
            raise DomainEscape(f"state component {low} below -{ESCAPE_EPS}; reduce dt")
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
    populations concatenated (x then y for the coupled system).  After each
    step a component below -ESCAPE_EPS raises DomainEscape, values in
    [-CLAMP_EPS, 0) are clamped to 0 and each population is renormalized.
    Faces stay invariant exactly: a zero component has zero velocity at
    every RK4 stage and scaling preserves it.
    """
    if stride < 1:
        raise ValidationError("stride must be at least 1")
    return _rk4(system, game, starts, dt, t_max, stride)


def integrate(system: str, game, init, dt: float = 0.01, t_max: float = 50.0) -> Trajectory:
    """Classical fixed-step RK4 on the requested system, recording every step:
    the one-start, stride-1 case of `integrate_batch`."""
    states = _rk4(system, game, [init], dt, t_max, 1)[:-1, 0]
    times = np.arange(states.shape[0]) * dt
    if system == "coupled":
        return Trajectory(system=system, times=times, xs=states[:, :game.n_rows], ys=states[:, game.n_rows:])
    return Trajectory(system=system, times=times, xs=states, ys=None)


def sample_field_grid(system: str, game, resolution: int) -> list[FieldSample]:
    """Velocity samples on a regular grid.

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
    velocities = _velocities(dims, mats, points)
    return [FieldSample(points=p, velocities=v) for p, v in
            zip(zip(*_blocks(points, dims)), zip(*_blocks(velocities, dims)))]
