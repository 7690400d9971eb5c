"""Game data model: bimatrix and single-population games with exact payoffs.

Payoffs are stored as `fractions.Fraction` so ties and equilibrium supports
are decided exactly.  The module is pure Python: float64 arrays belong to
the dynamics layer and the CLI's `--float` output, which build them from
the payoffs themselves.  The equilibrium checks compare an exact profile
in integers: each payoff matrix over its common denominator, scaled once
per game, and each strategy over its own.  A float strategy keeps the
Fraction-times-float arithmetic, with a tolerance.  Game files
are JSON documents with payoff entries given as numbers (decimals convert
exactly, 0.55 becomes 11/20) or as "p/q" strings, each with at most
MAX_PAYOFF_DIGITS digits in its numerator and its denominator.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ParseError, SizeMismatch, TooLarge, ValidationError

# Float-mode tolerances.  Well above RK4/linear-solve noise, far below any
# payoff scale we care about.
FLOAT_SUPPORT_EPS = 1e-9
NASH_TOL_DEFAULT = 1e-9
SIMPLEX_TOL = 1e-9

# The most digits a payoff's numerator or denominator may have: CPython's
# default limit on int-to-str conversion (sys.int_info.default_max_str_digits).
# Past it no `cpg` output and no `serialize_game` could print the payoff, and
# building a decimal literal such as 1e3000000 exactly takes over a second.
MAX_PAYOFF_DIGITS = 4300
_PAYOFF_LIMIT = 10 ** MAX_PAYOFF_DIGITS

_GAME_KEYS = ("name", "row_actions", "col_actions", "row_payoffs", "col_payoffs")
_FRACTION_STR = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits, whole string (fullmatch)


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
        if not _FRACTION_STR.fullmatch(value):
            raise ParseError(f"payoff string {value!r} is not of the form 'p/q'")
        num, _, den = value.partition("/")
        num, den = _int(num), _int(den or "1")
        if den == 0:
            raise ValidationError(f"zero denominator in payoff {value!r}")
        return Fraction(num, den)
    raise ParseError(f"payoff entry has wrong type: {value!r}")


def _int(numeral: str) -> int:
    """A decimal numeral as an int, refused with ValidationError past
    MAX_PAYOFF_DIGITS digits, before CPython's int-from-str limit (the same
    number) raises a ValueError whose advice no `cpg` user can act on."""
    if len(numeral.lstrip("+-")) > MAX_PAYOFF_DIGITS:
        raise ValidationError(f"payoff has a number of more than {MAX_PAYOFF_DIGITS} digits")
    return int(numeral)


def _decimal(literal: str) -> Fraction:
    """A JSON decimal literal as an exact Fraction (0.55 -> 11/20).  Written
    as d x 10^e with d not a multiple of 10, it is refused unbuilt when |e|
    exceeds 4 x MAX_PAYOFF_DIGITS: then 10^e, or the reduced denominator
    (at least 2^|e|), has more than MAX_PAYOFF_DIGITS digits.  `_int` refuses
    a d or an e of more digits; `make_bimatrix` checks the payoffs that are
    built."""
    mantissa, _, exp = literal.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("-0")
    significant = digits.rstrip("0")
    if not significant:
        return Fraction(0)
    scale = _int(exp or "0") - len(frac) + len(digits) - len(significant)
    if abs(scale) > 4 * MAX_PAYOFF_DIGITS:
        raise ValidationError(f"decimal payoff's exponent is out of range: {literal[:40]}")
    num = -_int(significant) if literal.startswith("-") else _int(significant)
    return Fraction(num * 10 ** scale) if scale >= 0 else Fraction(num, 10 ** -scale)


def fraction_str(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1.  A value
    derived from payoffs can outgrow CPython's int-to-str limit, which the
    payoffs themselves stay under: it raises TooLarge."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise TooLarge(f"a value with more than {MAX_PAYOFF_DIGITS} digits "
                       f"in its numerator or denominator cannot be printed") from None


def _payoff_json(value: Fraction):
    """JSON form of a payoff: plain integer when possible, else "p/q"."""
    text = fraction_str(value)  # TooLarge for a derived payoff past the limit
    return value.numerator if value.denominator == 1 else text


def _integers(values) -> tuple[list[int], int]:
    """(n, d): rationals as integer numerators n over their common denominator
    d.  Each entry's ratio is read once, and integer entries (d = 1) are
    their numerators."""
    nums, dens = zip(*[v.as_integer_ratio() for v in values])
    d = math.lcm(*dens)
    if d == 1:
        return list(nums), 1
    return [p * (d // q) for p, q in zip(nums, dens)], d


def integer_form(mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, d): a rational matrix as the integer matrix N over the common
    denominator d of its entries, so that the matrix is N / d."""
    n = len(mat[0])
    nums, d = _integers([v for row in mat for v in row])
    return tuple(tuple(nums[i:i + n]) for i in range(0, len(nums), n)), d


def _freeze_matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    mat = tuple(tuple(to_fraction(v) for v in row) for row in rows)
    for row in mat:
        for v in row:
            if not (-_PAYOFF_LIMIT < v.numerator < _PAYOFF_LIMIT and v.denominator < _PAYOFF_LIMIT):
                raise ValidationError(f"payoff has a numerator or denominator of more than "
                                      f"{MAX_PAYOFF_DIGITS} digits")
    return mat


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

    # The integer forms (see `integer_form`), computed once per game and read
    # by its support tables and its equilibrium checks.
    @cached_property
    def int_row_payoffs(self) -> tuple[tuple, int]:
        return integer_form(self.row_payoffs)

    @cached_property
    def int_col_payoffs(self) -> tuple[tuple, int]:
        return integer_form(self.col_payoffs)


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

    @cached_property
    def int_payoffs(self) -> tuple[tuple, int]:
        """The payoffs' integer form, computed once per game."""
        return integer_form(self.payoffs)


def make_bimatrix(name, row_actions, col_actions, row_payoffs, col_payoffs) -> BimatrixGame:
    """Build a validated BimatrixGame from any payoff-entry representation."""
    return BimatrixGame(
        name=str(name),
        row_actions=tuple(row_actions),
        col_actions=tuple(col_actions),
        row_payoffs=_freeze_matrix(row_payoffs),
        col_payoffs=_freeze_matrix(col_payoffs),
    )


def _check_simplex(values, what: str) -> None:
    """The one rule for a float vector on the simplex, shared by float
    strategies and the dynamics' states: every entry finite, none below
    -SIMPLEX_TOL, and the sum within SIMPLEX_TOL of 1."""
    # a NaN or infinite entry makes the sum NaN or infinite, which fails the
    # second comparison, so no separate finiteness check is needed
    if not (min(values) >= -SIMPLEX_TOL and abs(sum(values) - 1.0) <= SIMPLEX_TOL):
        raise ValidationError(f"{what} is not on the probability simplex: {[float(v) for v in values]}")


def _check_exact(nums, den: int) -> None:
    """The one rule for an exact strategy, on its integer form: the entries
    nums / den, with den > 0, read in order, are nonnegative and sum to
    exactly 1, that is, sum(nums) == den."""
    total = 0
    for v in nums:
        if v < 0:
            raise ValidationError(f"negative probability {Fraction(v, den)}")
        total += v
    if total != den:
        raise ValidationError(f"probabilities sum to {Fraction(total, den)}, expected 1")


def _numerators(probs, den: int):
    """Exact entries as integers over their common denominator `den`, in
    order; a non-Fraction entry is refused when it is reached, so an entry's
    sign is checked before the type of the next."""
    for p in probs:
        if not isinstance(p, Fraction):
            raise ValidationError("exact strategy entries must be Fractions")
        yield p.numerator * (den // p.denominator)


_ZERO = Fraction(0)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector on a simplex, exact (Fraction) or float entries.

    Exact entries must be nonnegative and sum to exactly 1, a rule checked
    on their integers over a common denominator (`_check_exact`); the
    solvers build their mixes from integers with `from_integers`, which
    applies the same rule.  Float entries follow `_check_simplex`, the rule
    the dynamics apply to their states: finite, none below -1e-9, summing to
    1 within 1e-9.  Negative float entries are then clamped to zero, and the
    support uses a 1e-9 threshold.
    """

    probs: tuple
    mode: str  # "exact" | "float"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValidationError(f"unknown arithmetic mode {self.mode!r}")
        if not self.probs:
            raise ValidationError("strategy must have at least one component")
        if self.mode == "exact":
            den = math.lcm(*(p.denominator for p in self.probs if isinstance(p, Fraction)))
            _check_exact(_numerators(self.probs, den), den)
        else:
            probs = tuple(float(p) for p in self.probs)
            _check_simplex(probs, "strategy")
            object.__setattr__(self, "probs", tuple(0.0 if p < 0.0 else p for p in probs))

    @classmethod
    def from_integers(cls, n: int, support, nums, den: int) -> "MixedStrategy":
        """The exact strategy on n >= 1 actions whose entries at the distinct
        indices `support` are nums / den, den > 0, and zero elsewhere: the
        strategy of those Fractions, refused with the same ValidationError
        when `support` is increasing (entries are read in support order).
        The rule is checked on the integers (`_check_exact`) and each
        Fraction is built once."""
        if den <= 0:
            raise ValidationError(f"strategy denominator {den} is not positive")
        _check_exact(nums, den)
        probs = [_ZERO] * n
        for i, v in zip(support, nums):
            probs[i] = Fraction(v, den)
        strategy = cls.__new__(cls)
        object.__setattr__(strategy, "probs", tuple(probs))
        object.__setattr__(strategy, "mode", "exact")
        return strategy

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

    Decimal payoff literals convert exactly (0.55 -> 11/20).  Invalid JSON,
    nesting too deep for the parser, unknown keys, missing keys and wrong
    field types raise ParseError; dimension mismatches, duplicate labels,
    zero denominators, and numbers or payoffs past MAX_PAYOFF_DIGITS raise
    ValidationError.
    """
    def reject_constant(token):
        raise ParseError(f"non-finite payoff constant {token!r} not allowed")

    try:
        doc = json.loads(text, parse_float=_decimal, parse_int=_int, parse_constant=reject_constant)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or nesting too deep
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
    The minimum is read off each matrix's cached integer form, whose
    denominator is positive.  Square games come back unchanged with
    added_count 0.
    """
    (a, da), (b, db) = g.int_row_payoffs, g.int_col_payoffs
    dummy = min(Fraction(min(map(min, a)), da), Fraction(min(map(min, b)), db)) - 1
    n = max(g.n_rows, g.n_cols)
    add_rows, add_cols = n - g.n_rows, n - g.n_cols
    record = PaddingRecord("col" if add_cols else "row", add_rows + add_cols, dummy, (g.n_rows, g.n_cols))
    if not record.padded:
        return g, record

    def pad(mat):
        return tuple(row + (dummy,) * add_cols for row in mat) + ((dummy,) * n,) * add_rows

    padded = BimatrixGame(
        name=g.name,
        row_actions=g.row_actions + tuple(_dummy_labels(g.row_actions, add_rows)),
        col_actions=g.col_actions + tuple(_dummy_labels(g.col_actions, add_cols)),
        row_payoffs=pad(g.row_payoffs),
        col_payoffs=pad(g.col_payoffs),
    )
    return padded, record


def counterpart_games(g: BimatrixGame) -> tuple[SingleGame, SingleGame]:
    """Split a game into its two decoupled single-population games.

    A non-square game is padded first (`pad_to_square`), so both
    counterparts have max(n_rows, n_cols) actions, the dummies last.
    Counterpart 1 is the row player's matrix A; its population state plays the
    role of the column player's strategy y.  Counterpart 2 is B transposed
    (fitness of action i is (B^T x)_i); its state plays the role of x.
    """
    if not g.is_square:
        g, _ = pad_to_square(g)
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


def is_nash_bimatrix(g: BimatrixGame, x: MixedStrategy, y: MixedStrategy,
                     tol: float = NASH_TOL_DEFAULT) -> bool:
    """Check the equilibrium condition via pure deviations (sufficient by
    linearity): no row beats x against y, no column beats y against x.

    Exact strategies are compared in integers, on the game alone, never a
    solver table.  With A = N / d (the game's integer form), x = n / dx and
    y = m / dy, no row beats x exactly when dx * max(N m) <= n . (N m), and
    likewise for the columns in B; the scales d and dy cancel.  A float
    strategy keeps the Fraction-times-float products on the payoffs
    themselves, with `tol` added to the payoff of the profile.
    """
    if len(x) != g.n_rows or len(y) != g.n_cols:
        raise SizeMismatch("strategy dimensions do not match the game")
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    if _has_float(x, y):
        (nx, dx), (ny, dy), a, b = (x.probs, 1), (y.probs, 1), g.row_payoffs, g.col_payoffs
    else:
        (nx, dx), (ny, dy), tol = _integers(x.probs), _integers(y.probs), 0
        a, b = g.int_row_payoffs[0], g.int_col_payoffs[0]
    ay, xb = _mat_vec(a, ny), _vec_mat(nx, b)
    return dx * max(ay) <= _dot(nx, ay) + tol and dy * max(xb) <= _dot(xb, ny) + tol


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
    """Single-population equilibrium check: no action beats x against x.
    An exact strategy is compared in integers, a float one with `tol`, as in
    `is_nash_bimatrix`."""
    if len(x) != s.n:
        raise SizeMismatch("strategy dimension does not match the game")
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    if _has_float(x):
        (nx, dx), m = (x.probs, 1), s.payoffs
    else:
        (nx, dx), m, tol = _integers(x.probs), s.int_payoffs[0], 0
    mx = _mat_vec(m, nx)
    return dx * max(mx) <= _dot(nx, mx) + tol
