"""Game data model: bimatrix and single-population games with exact payoffs.

Payoffs are stored as `fractions.Fraction` so ties and equilibrium supports
are decided exactly; only the dynamics layer works in float64.  Game files
are JSON documents with payoff entries given as numbers (decimals convert
exactly, 0.55 becomes 11/20) or as "p/q" strings.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NotSquare, ParseError, SizeMismatch, ValidationError

# Float-mode tolerances.  Well above RK4/linear-solve noise, far below any
# payoff scale we care about.
FLOAT_SUPPORT_EPS = 1e-9
NASH_TOL_DEFAULT = 1e-9

_GAME_KEYS = ("name", "row_actions", "col_actions", "row_payoffs", "col_payoffs")
_FRACTION_STR = re.compile(r"^-?\d+(/\d+)?$")


def to_fraction(value) -> Fraction:
    """Convert a payoff entry to an exact rational.

    Accepts ints, Fractions, "p/q" strings and floats.  Floats are read as
    decimal literals (0.55 -> 11/20), not as their binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"payoff entry has wrong type: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"payoff entry must be finite, got {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        if not _FRACTION_STR.match(value):
            raise ParseError(f"payoff string {value!r} is not of the form 'p/q'")
        num, _, den = value.partition("/")
        if den:
            if int(den) == 0:
                raise ValidationError(f"zero denominator in payoff {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    raise ParseError(f"payoff entry has wrong type: {value!r}")


def fraction_str(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _payoff_json(value: Fraction):
    """JSON form of a payoff: plain integer when possible, else "p/q"."""
    if value.denominator == 1:
        return value.numerator
    return fraction_str(value)


def _freeze_matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(to_fraction(v) for v in row) for row in rows)


def _check_labels(labels: Sequence[str], which: str) -> None:
    if not labels:
        raise ValidationError(f"{which} must not be empty")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise ValidationError(f"{which} contains an empty or non-string label")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"duplicate labels in {which}")


def _check_matrix_shape(mat, n_rows: int, n_cols: int, which: str) -> None:
    if len(mat) != n_rows:
        raise ValidationError(f"{which} has {len(mat)} rows, expected {n_rows}")
    for row in mat:
        if len(row) != n_cols:
            raise ValidationError(f"{which} has a row of length {len(row)}, expected {n_cols}")


@dataclass(frozen=True)
class BimatrixGame:
    """Two-player normal-form game: payoff matrix pair (A, B) with labels."""

    name: str
    row_actions: tuple[str, ...]
    col_actions: tuple[str, ...]
    row_payoffs: tuple[tuple[Fraction, ...], ...]  # A, row player's payoffs
    col_payoffs: tuple[tuple[Fraction, ...], ...]  # B, column player's payoffs

    def __post_init__(self):
        _check_labels(self.row_actions, "row_actions")
        _check_labels(self.col_actions, "col_actions")
        _check_matrix_shape(self.row_payoffs, len(self.row_actions), len(self.col_actions), "row_payoffs")
        _check_matrix_shape(self.col_payoffs, len(self.row_actions), len(self.col_actions), "col_payoffs")

    @property
    def n_rows(self) -> int:
        return len(self.row_actions)

    @property
    def n_cols(self) -> int:
        return len(self.col_actions)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def a_float(self) -> np.ndarray:
        return np.array(self.row_payoffs, dtype=np.float64)

    def b_float(self) -> np.ndarray:
        return np.array(self.col_payoffs, dtype=np.float64)


@dataclass(frozen=True)
class SingleGame:
    """Single-population game: one square payoff matrix over a shared action set."""

    name: str
    actions: tuple[str, ...]
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_labels(self.actions, "actions")
        n = len(self.actions)
        if len(self.payoffs) != n or any(len(row) != n for row in self.payoffs):
            raise ValidationError(f"payoff matrix must be {n}x{n} to match the action list")

    @property
    def n(self) -> int:
        return len(self.actions)

    def m_float(self) -> np.ndarray:
        return np.array(self.payoffs, dtype=np.float64)


def make_bimatrix(name, row_actions, col_actions, row_payoffs, col_payoffs) -> BimatrixGame:
    """Build a validated BimatrixGame from any payoff-entry representation."""
    return BimatrixGame(
        name=str(name),
        row_actions=tuple(row_actions),
        col_actions=tuple(col_actions),
        row_payoffs=_freeze_matrix(row_payoffs),
        col_payoffs=_freeze_matrix(col_payoffs),
    )


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector on a simplex, exact (Fraction) or float64 entries.

    In float mode entries may carry roundoff: values in [-1e-12, 0) are
    clamped to zero on construction and the total may differ from 1 by at
    most 1e-9.  The support uses a 1e-9 threshold in float mode.
    """

    probs: tuple
    mode: str  # "exact" | "float"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValidationError(f"unknown arithmetic mode {self.mode!r}")
        if not self.probs:
            raise ValidationError("strategy must have at least one component")
        if self.mode == "exact":
            for p in self.probs:
                if not isinstance(p, Fraction):
                    raise ValidationError("exact strategy entries must be Fractions")
                if p.numerator < 0:
                    raise ValidationError(f"negative probability {p}")
            # the sum in integers over the common denominator
            den = math.lcm(*(p.denominator for p in self.probs))
            total = sum(p.numerator * (den // p.denominator) for p in self.probs)
            if total != den:
                raise ValidationError(f"probabilities sum to {Fraction(total, den)}, expected 1")
        else:
            clamped = []
            for p in self.probs:
                p = float(p)
                if p < -1e-12:
                    raise ValidationError(f"negative probability {p!r}")
                clamped.append(0.0 if p < 0.0 else p)
            if abs(sum(clamped) - 1.0) > 1e-9:
                raise ValidationError(f"probabilities sum to {sum(clamped)!r}, expected 1")
            object.__setattr__(self, "probs", tuple(clamped))

    @classmethod
    def exact(cls, values: Iterable) -> "MixedStrategy":
        return cls(tuple(to_fraction(v) for v in values), "exact")

    @classmethod
    def from_floats(cls, values: Iterable) -> "MixedStrategy":
        return cls(tuple(float(v) for v in values), "float")

    def __len__(self) -> int:
        return len(self.probs)

    def support(self) -> tuple[int, ...]:
        if self.mode == "exact":
            return tuple(i for i, p in enumerate(self.probs) if p > 0)
        return tuple(i for i, p in enumerate(self.probs) if p > FLOAT_SUPPORT_EPS)

    def as_floats(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs], dtype=np.float64)

    def to_jsonable(self) -> list:
        """JSON-ready vector: fraction strings in exact mode, floats otherwise."""
        if self.mode == "exact":
            return [fraction_str(p) for p in self.probs]
        return [float(p) for p in self.probs]


@dataclass(frozen=True)
class PaddingRecord:
    """How a non-square game was squared up with dominated dummy actions."""

    player: str  # "row" | "col": the side that received dummy actions
    added_count: int
    dummy_payoff: Fraction
    original_dims: tuple[int, int]

    @property
    def padded(self) -> bool:
        return self.added_count > 0


def parse_game(text: str) -> BimatrixGame:
    """Parse a JSON game document into a validated BimatrixGame.

    Decimal payoff literals convert exactly (0.55 -> 11/20).  Unknown keys,
    missing keys and wrong field types raise ParseError; dimension mismatches,
    duplicate labels and zero denominators raise ValidationError.
    """
    def reject_constant(token):
        raise ParseError(f"non-finite payoff constant {token!r} not allowed")

    try:
        doc = json.loads(text, parse_float=Fraction, parse_int=int,
                         parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("game document must be a JSON object")
    unknown = sorted(set(doc) - set(_GAME_KEYS))
    if unknown:
        raise ParseError(f"unknown keys in game document: {', '.join(unknown)}")
    missing = [k for k in _GAME_KEYS if k not in doc]
    if missing:
        raise ParseError(f"missing keys in game document: {', '.join(missing)}")
    if not isinstance(doc["name"], str):
        raise ParseError("field 'name' must be a string")
    for key in ("row_actions", "col_actions"):
        if not isinstance(doc[key], list) or not all(isinstance(v, str) for v in doc[key]):
            raise ParseError(f"field {key!r} must be an array of strings")
    for key in ("row_payoffs", "col_payoffs"):
        mat = doc[key]
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise ParseError(f"field {key!r} must be an array of arrays")
    return make_bimatrix(doc["name"], doc["row_actions"], doc["col_actions"],
                         doc["row_payoffs"], doc["col_payoffs"])


def serialize_game(g: BimatrixGame) -> str:
    """Serialize a game to its canonical JSON document (round-trips exactly)."""
    doc = {
        "name": g.name,
        "row_actions": list(g.row_actions),
        "col_actions": list(g.col_actions),
        "row_payoffs": [[_payoff_json(v) for v in row] for row in g.row_payoffs],
        "col_payoffs": [[_payoff_json(v) for v in row] for row in g.col_payoffs],
    }
    return json.dumps(doc, indent=2) + "\n"


def serialize_single(s: SingleGame) -> str:
    doc = {
        "name": s.name,
        "actions": list(s.actions),
        "payoffs": [[_payoff_json(v) for v in row] for row in s.payoffs],
    }
    return json.dumps(doc, indent=2) + "\n"


def _dummy_labels(existing: Sequence[str], count: int) -> list[str]:
    # Reserved names D1, D2, ...; skip over clashes with real actions.
    labels, i = [], 1
    taken = set(existing)
    while len(labels) < count:
        cand = f"D{i}"
        if cand not in taken:
            labels.append(cand)
            taken.add(cand)
        i += 1
    return labels


def pad_to_square(g: BimatrixGame) -> tuple[BimatrixGame, PaddingRecord]:
    """Append strictly dominated dummy actions to the smaller side.

    Every payoff in a dummy-involving cell is (min entry over both matrices)
    minus 1 for both players, so dummies can never be played in equilibrium.
    Square games come back unchanged with added_count 0.
    """
    flat = [v for row in g.row_payoffs for v in row] + [v for row in g.col_payoffs for v in row]
    dummy = min(flat) - 1
    diff = g.n_rows - g.n_cols
    if diff == 0:
        record = PaddingRecord("row", 0, dummy, (g.n_rows, g.n_cols))
        return g, record
    if diff < 0:  # fewer rows: add dummy rows
        count = -diff
        labels = _dummy_labels(g.row_actions, count)
        extra = tuple(tuple(dummy for _ in range(g.n_cols)) for _ in range(count))
        padded = BimatrixGame(
            name=g.name,
            row_actions=g.row_actions + tuple(labels),
            col_actions=g.col_actions,
            row_payoffs=g.row_payoffs + extra,
            col_payoffs=g.col_payoffs + extra,
        )
        return padded, PaddingRecord("row", count, dummy, (g.n_rows, g.n_cols))
    count = diff  # fewer columns: add dummy columns
    labels = _dummy_labels(g.col_actions, count)
    padded = BimatrixGame(
        name=g.name,
        row_actions=g.row_actions,
        col_actions=g.col_actions + tuple(labels),
        row_payoffs=tuple(row + (dummy,) * count for row in g.row_payoffs),
        col_payoffs=tuple(row + (dummy,) * count for row in g.col_payoffs),
    )
    return padded, PaddingRecord("col", count, dummy, (g.n_rows, g.n_cols))


def counterpart_games(g: BimatrixGame) -> tuple[SingleGame, SingleGame]:
    """Split a square game into its two decoupled single-population games.

    Counterpart 1 is the row player's matrix A; its population state plays the
    role of the column player's strategy y.  Counterpart 2 is B transposed
    (fitness of action i is (B^T x)_i); its state plays the role of x.
    """
    if not g.is_square:
        raise NotSquare(f"game is {g.n_rows}x{g.n_cols}; pad_to_square first")
    n = g.n_rows
    cp1 = SingleGame(name=f"{g.name} counterpart 1", actions=g.row_actions, payoffs=g.row_payoffs)
    bt = tuple(tuple(g.col_payoffs[i][j] for i in range(n)) for j in range(n))
    cp2 = SingleGame(name=f"{g.name} counterpart 2", actions=g.col_actions, payoffs=bt)
    return cp1, cp2


def _has_float(*strategies: MixedStrategy) -> bool:
    return any(s.mode == "float" for s in strategies)


def _mat_vec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def _vec_mat(vec, mat):
    n_cols = len(mat[0])
    return [sum(vec[i] * mat[i][j] for i in range(len(vec))) for j in range(n_cols)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def expected_payoffs(g: BimatrixGame, x: MixedStrategy, y: MixedStrategy):
    """Return (x^T A y, x^T B y), exact when both strategies are exact."""
    if len(x) != g.n_rows or len(y) != g.n_cols:
        raise SizeMismatch("strategy dimensions do not match the game")
    if _has_float(x, y):
        xa, ya = x.as_floats(), y.as_floats()
        return float(xa @ g.a_float() @ ya), float(xa @ g.b_float() @ ya)
    ay = _mat_vec(g.row_payoffs, y.probs)
    xb = _vec_mat(x.probs, g.col_payoffs)
    return _dot(x.probs, ay), _dot(xb, y.probs)


def is_nash_bimatrix(g: BimatrixGame, x: MixedStrategy, y: MixedStrategy,
                     tol: float = NASH_TOL_DEFAULT) -> bool:
    """Check the equilibrium condition via pure deviations (sufficient by
    linearity): no row beats x against y, no column beats y against x.

    `tol` only applies in float mode; exact strategies are compared exactly.
    """
    if len(x) != g.n_rows or len(y) != g.n_cols:
        raise SizeMismatch("strategy dimensions do not match the game")
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    if _has_float(x, y):
        xa, ya = x.as_floats(), y.as_floats()
        a, b = g.a_float(), g.b_float()
        ay = a @ ya
        xb = xa @ b
        return bool(ay.max() <= xa @ ay + tol and xb.max() <= xb @ ya + tol)
    ay = _mat_vec(g.row_payoffs, y.probs)
    xb = _vec_mat(x.probs, g.col_payoffs)
    return max(ay) <= _dot(x.probs, ay) and max(xb) <= _dot(xb, y.probs)


def is_strict_equilibrium(g: BimatrixGame, x: MixedStrategy, y: MixedStrategy) -> bool:
    """True for a strict Nash equilibrium: a pure profile from which every
    unilateral deviation is strictly worse.  Decided on the exact payoffs
    whatever the strategies' mode."""
    sx, sy = x.support(), y.support()
    if len(sx) != 1 or len(sy) != 1:
        return False
    i, j = sx[0], sy[0]
    a, b = g.row_payoffs, g.col_payoffs
    return (all(a[k][j] < a[i][j] for k in range(g.n_rows) if k != i)
            and all(b[i][l] < b[i][j] for l in range(g.n_cols) if l != j))


def is_nash_single(s: SingleGame, x: MixedStrategy, tol: float = NASH_TOL_DEFAULT) -> bool:
    """Single-population equilibrium check: no action beats x against x."""
    if len(x) != s.n:
        raise SizeMismatch("strategy dimension does not match the game")
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    if x.mode == "float":
        xa = x.as_floats()
        mx = s.m_float() @ xa
        return bool(mx.max() <= xa @ mx + tol)
    mx = _mat_vec(s.payoffs, x.probs)
    return max(mx) <= _dot(x.probs, mx)
