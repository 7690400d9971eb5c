"""Exact support-enumeration solvers: the isolated Nash equilibria of small
bimatrix and single-population games, replicator rest points, and
degeneracy detection.

A support pair (rows, cols) of a game (A, B) has two halves: the y half
makes `rows` indifferent in A against a column mix on `cols`, and the x half
is the y half of B transposed at (cols, rows).  Every solver here reads the
halves of one `HalfTable` per payoff matrix (`SupportTable` holds a game's
two), which solves each half once, in integers, and decides it in integers
(see `HalfTable` and `Half`).  Every decision and every result is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import TooLarge
from .games import BimatrixGame, MixedStrategy, SingleGame, fraction_str
from .linsolve import solve_linear

MAX_ACTIONS = 6


@dataclass(frozen=True)
class EquilibriumCandidate:
    """An equilibrium (or verified candidate) with provenance-free payload."""

    x: MixedStrategy
    y: MixedStrategy | None
    support_x: tuple[int, ...]
    support_y: tuple[int, ...] | None
    is_strict: bool
    payoffs: object  # (u, v) for bimatrix, scalar for single

    def key(self):
        """Value identity: the strategy profile, ignoring derived fields."""
        return (self.x.probs, None if self.y is None else self.y.probs)


@dataclass(frozen=True)
class RestPoint:
    """Zero-velocity state of the single-population replicator dynamics."""

    point: MixedStrategy
    support: tuple[int, ...]
    is_nash: bool
    common_payoff: Fraction
    continuum: bool = False  # the midpoint of a positive segment on a solution line


@dataclass(frozen=True)
class DegeneracyWitness:
    supports: tuple
    reason: str  # "excess-best-responses", "continuum" (a singular positive half) or "singular-system"


class DegeneracyReport:
    """A game's degeneracy verdict and witnesses, read from a witness iterator
    in (k, rows, cols) order.  `degenerate` pulls at most one witness, so the
    verdict stops at the first one; `witnesses` completes the scan and keeps
    every witness.  The report reads its table as it goes, so share it within
    one thread only."""

    def __init__(self, witnesses):
        self._pending = iter(witnesses)
        self._found: list[DegeneracyWitness] = []

    @property
    def degenerate(self) -> bool:
        if not self._found:
            self._found.extend(itertools.islice(self._pending, 1))
        return bool(self._found)

    @property
    def witnesses(self) -> tuple[DegeneracyWitness, ...]:
        self._found.extend(self._pending)
        return tuple(self._found)


def _indifference(mat, rows, cols, scale):
    """The system of the y half at (rows, cols) of `scale` times M: the rows
    earn the common payoff u against y, and y sums to one."""
    system = [[mat[i][j] for j in cols] + [-scale] for i in rows]
    system.append([1] * len(cols) + [0])
    return system, [0] * len(rows) + [1]


def _equal_size_pairs(n_rows: int, n_cols: int):
    """The support pairs (rows, cols) with |rows| = |cols|, by (k, rows, cols):
    the order of every scan of a table and of every enumeration's output."""
    for k in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                yield rows, cols


@functools.lru_cache(maxsize=1 << MAX_ACTIONS)  # the index sets of a matrix HalfTable accepts
def _bits(indices: tuple[int, ...]) -> int:
    """The bitmask of a tuple of indices."""
    return sum(1 << i for i in indices)


# The Laplace plan of each bitmask of up to MAX_ACTIONS bits: for each of
# its set bits, from the lowest, (index, mask without it, odd position).
# Expanding along a row of a minor, and the cofactors of a half, read these
# triples instead of taking the mask apart bit by bit on every term.
_PLANS = tuple(tuple((j, mask ^ 1 << j, k % 2 == 1)
                     for k, j in enumerate(j for j in range(MAX_ACTIONS) if mask >> j & 1))
               for mask in range(1 << MAX_ACTIONS))


class Half:
    """The solved indifference system of one half of a support pair.
    `underdetermined` says that its solutions form a line or more; no reader
    tells an inconsistent half from a unique one that is not positive.  A
    half is positive exactly when it holds a mix positive on the support,
    as the integers (c, total, u, scale): the mix c over total and the
    common payoff u over total times the table's scale.  The mix is the
    unique solution or, on a continuum (underdetermined and positive), the
    midpoint of the solution line's positive segment.  `best` counts the rows that earn the top
    payoff against it, and `top` says that the support rows are among them.
    `nash` is `top` on a unique half and false on a continuum, so no
    continuum becomes an equilibrium; a rest point's flag reads `top`."""

    __slots__ = ("underdetermined", "best", "top", "_integers")

    def __init__(self, underdetermined, best=0, top=False, integers=None):
        self.underdetermined = underdetermined
        self.best = best
        self.top = top
        self._integers = integers

    @property
    def positive(self) -> bool:
        """Whether the half holds its mix's integers."""
        return self._integers is not None

    @property
    def nash(self) -> bool:
        """Whether the half is unique, positive and a best response."""
        return self.top and not self.underdetermined

    def strategy(self, n: int, support) -> MixedStrategy:
        """A positive half's mix as a strategy on n actions whose i-th entry
        sits at support[i].  The n! view passes its support in permuted
        order."""
        c, total, _, _ = self._integers
        return MixedStrategy.from_integers(n, support, c, total)

    @property
    def payoff(self) -> Fraction:
        """A positive half's common payoff."""
        _, total, u, scale = self._integers
        return Fraction(u, total * scale)


# The two shared halves without a mix, by `underdetermined`: no reader needs
# a non-positive solution.  Sharing them keeps the table of the degenerate
# 6x6 game random_game(Random(3), 6) at 0.483 MB under tracemalloc
# (Python 3.11) once its witnesses have read every half, 32 KiB of it in
# each minor store.
_NO_MIX = (Half(False), Half(True))


def _segment_barycentre(particular, direction):
    """The mix at the midpoint of the positive segment {p + t*d > 0} of a
    1-dim solution set, or None; the last coordinate, the common-payoff
    unknown, is left out."""
    particular, direction = particular[:-1], direction[:-1]
    lo, hi = [], []
    for p, d in zip(particular, direction):
        if d:
            (lo if d > 0 else hi).append(-p / d)
        elif p <= 0:
            return None
    # both filled: the null vector (d, d_u) has M d = scale d_u 1 and sum(d) = 0, so d != 0 has both signs
    lo, hi = max(lo), min(hi)
    if lo >= hi:
        return None
    t = (lo + hi) / 2
    return [p + t * d for p, d in zip(particular, direction)]


class HalfTable:
    """The y halves of one payoff matrix by sorted, equal-size support pair:
    every row in `rows` earns the same payoff u against a column mix y on
    `cols`, and y sums to one.  Each pair is solved once, on first read.  A
    matrix with more than MAX_ACTIONS rows or columns raises TooLarge before
    the minor store is allocated, so every solver meets the cap here.

    M = `mat` is a payoff matrix times `scale`, the common denominator of its
    entries (`games.integer_form`), which leaves each half's solutions as
    they are.  A half on k rows R and k columns C is read off k difference
    minors.  With r_0 the lowest row of R, diff(R, C') is the determinant of
    the rows M_r - M_r0, r in R - r_0, on the k - 1 columns C'.  Let c_j be
    the determinant of M_R,C with column j replaced by ones; subtracting row
    r_0 from the others turns that column into e_0, so
    c_j = (-1)^j diff(R, C - c_j), and total = sum_j c_j is the determinant
    of the bordered system [[M_R,C, -1], [1, 0]].  total != 0 gives the
    unique half y = c / total.  A half with total = 0 is singular and goes
    to `solve_linear`; it is positive (a continuum) exactly when its
    solutions form a line with a positive segment, whose midpoint, scaled
    to integers over the lcm of its denominators, is its c over total.

    Store layout: an m x n matrix keeps its difference minors in one flat
    list of 2**(m + n) slots, diff(R, C') at R << n | C' as bitmasks, each
    single-row slot seeded with diff({r}, {}) = 1 and slot 0 unused.
    `_expand` expands along the difference row of R's second-lowest row r_1
    and reads diff(R - r_1, .), whose lowest row is r_0 again, so every read
    stays in the one list.  `undominated` and `holds_dominated` each read
    one list, built for every mask on the first call.
    """

    def __init__(self, mat, scale):
        m, n = len(mat), len(mat[0])
        if max(m, n) > MAX_ACTIONS:
            raise TooLarge(f"support enumeration capped at {MAX_ACTIONS} actions, payoff matrix is {m}x{n}")
        self.entries: dict[tuple, Half] = {}
        self.mat, self.scale = mat, scale
        self._shift = n
        self._minors: list[int | None] = [None] * (1 << m + n)
        for r in range(m):
            self._minors[1 << r << n] = 1

    def _beats(self):
        """(ge, gt, a's bit, b's bit) for each ordered pair of rows (a, b):
        ge and gt are the bitmasks of the columns where a pays at least, and
        more than, b, so a weakly dominates b on exactly the column sets
        that lie in ge and meet gt.  Pairs whose gt is empty are left out:
        there a dominates b on no column set."""
        for b, low in enumerate(self.mat):
            for a, high in enumerate(self.mat):
                ge = gt = 0
                for j, (p, q) in enumerate(zip(high, low)):
                    if p > q:
                        gt |= 1 << j
                        ge |= 1 << j
                    elif p == q:
                        ge |= 1 << j
                if gt:
                    yield ge, gt, 1 << a, 1 << b

    @functools.cached_property
    def _undominated(self) -> list[int]:
        """`undominated` of every column bitmask."""
        free = [(1 << len(self.mat)) - 1] * (1 << len(self.mat[0]))
        for ge, gt, _, b in self._beats():
            want = ge
            while want:
                if want & gt:
                    free[want] &= ~b
                want = (want - 1) & ge
        return free

    @functools.cached_property
    def _holds_dominated(self) -> list[bool]:
        """`holds_dominated` of every support bitmask of a square matrix."""
        held = [False] * (1 << len(self.mat[0]))
        for ge, gt, a, b in self._beats():
            pair = a | b
            if ge & pair != pair:
                continue
            want = ge
            while want:
                if want & gt and want & pair == pair:
                    held[want] = True
                want = (want - 1) & ge
        return held

    def undominated(self, want: int) -> int:
        """The bitmask of the rows that no other row weakly dominates on the
        columns of the bitmask `want`: pays at least as much on each and more
        on one.  A weakly dominated row earns strictly less than its dominator
        against every mix that is positive on `want`, so it is in no Nash
        half's support there (conditional dominance; Porter, Nudelman &
        Shoham 2008).  Rows equal on `want` do not prune each other."""
        return self._undominated[want]

    def holds_dominated(self, want: int) -> bool:
        """Whether some row in the bitmask `want` weakly dominates another row
        in it on the columns of `want`.  Then the two rows earn different
        payoffs against every mix that is positive on `want`, so the half
        (want, want) is not positive.  The matrix must be square."""
        return self._holds_dominated[want]

    def get(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> Half:
        half = self.entries.get((rows, cols))
        if half is None:
            half = self.entries[(rows, cols)] = self._solve(rows, cols)
        return half

    def _expand(self, rmask: int, cmask: int) -> int:
        """The difference minor of a row bitmask of 2 or more rows and a
        column bitmask of one column fewer, by Laplace expansion along the
        difference row of the second-lowest row; it is stored, and the
        minors it reads are expanded only when missing."""
        minors, shift = self._minors, self._shift
        (r0, _, _), (r1, rest, _) = _PLANS[rmask][:2]
        low, row, base, det = self.mat[r0], self.mat[r1], rest << shift, 0
        for j, sub, odd in _PLANS[cmask]:
            v = row[j] - low[j]
            if v:
                minor = minors[base | sub]
                if minor is None:
                    minor = self._expand(rest, sub)
                if odd:
                    det -= v * minor
                else:
                    det += v * minor
        minors[rmask << shift | cmask] = det
        return det

    def _solve(self, rows, cols) -> Half:
        # c_j = (-1)^j diff(rows, cols - c_j), in column order, and
        # total = sum(c) = det [[M_rows,cols, -1], [1, 0]]
        minors, shift = self._minors, self._shift
        rmask = _bits(rows)
        base, c = rmask << shift, []
        for _, sub, odd in _PLANS[_bits(cols)]:
            cj = minors[base | sub]
            if cj is None:
                cj = self._expand(rmask, sub)
            c.append(-cj if odd else cj)
        total = sum(c)
        if total:
            if total < 0:
                c, total = [-v for v in c], -total
            for v in c:
                if v <= 0:
                    return _NO_MIX[False]
            return self._mixed(rows, rmask, cols, c, total, underdetermined=False)
        # a singular bordered system has no unique solution
        res = solve_linear(*_indifference(self.mat, rows, cols, self.scale))
        mix = _segment_barycentre(res.solution, res.nullspace[0]) if len(res.nullspace) == 1 else None
        if mix is None:
            return _NO_MIX[bool(res.nullspace)]
        total = math.lcm(*(v.denominator for v in mix))
        c = [v.numerator * (total // v.denominator) for v in mix]
        return self._mixed(rows, rmask, cols, c, total, underdetermined=True)

    def _mixed(self, rows, rmask, cols, c, total, underdetermined) -> Half:
        """The positive half on `rows` (bitmask `rmask`) whose mix is the
        integers `c` over `total`.  Every row in `rows` earns u = M_r0 . c,
        r0 the lowest, since c is a null vector of their difference rows, so
        only the other rows are multiplied, against a running top and the
        count of rows that earn it."""
        weights = list(zip(cols, c))
        row = self.mat[rows[0]]
        u = 0
        for j, w in weights:
            u += row[j] * w
        top, best = u, len(rows)
        for r, row in enumerate(self.mat):
            if rmask >> r & 1:
                continue
            p = 0
            for j, w in weights:
                p += row[j] * w
            if p > top:
                top, best = p, 1
            elif p == top:
                best += 1
        return Half(underdetermined, best, u == top, (c, total, u, self.scale))


class SupportTable:
    """Both halves of every support pair of one bimatrix game, each solved
    once.  Pass one table to `detect_degeneracy`, `enumerate_nash_bimatrix`
    and `decompose` to share the solved systems between them."""

    def __init__(self, g: BimatrixGame):
        self.game = g
        self._y = HalfTable(*g.int_row_payoffs)  # built first: a refusal names the game's m x n
        b, scale = g.int_col_payoffs
        self._x = HalfTable(tuple(zip(*b)), scale)

    def y_half(self, rows, cols) -> Half:
        """Rows indifferent in A against the column mix on `cols`."""
        return self._y.get(rows, cols)

    def x_half(self, rows, cols) -> Half:
        """Columns indifferent in B against the row mix on `rows`."""
        return self._x.get(cols, rows)

    def degeneracy(self) -> DegeneracyReport:
        """The game's degeneracy report, scanning the equal-size pairs'
        halves as it is read.  The game is degenerate when a unique positive
        half has more best responses than its support size, or a half is
        singular and consistent, positive or not; each such half is a
        witness.  A second report solves nothing again."""
        return DegeneracyReport(self._witnesses())

    def _witnesses(self):
        for rows, cols in _equal_size_pairs(self.game.n_rows, self.game.n_cols):
            reasons = []
            for half in (self.y_half(rows, cols), self.x_half(rows, cols)):
                if half.underdetermined:
                    reason = "continuum" if half.positive else "singular-system"
                elif half.positive and half.best > len(rows):
                    reason = "excess-best-responses"
                else:
                    continue
                if reason not in reasons:
                    reasons.append(reason)
            for reason in reasons:
                yield DegeneracyWitness((rows, cols), reason)


def _single_candidate(x: MixedStrategy, support, half: Half) -> EquilibriumCandidate:
    """The symmetric equilibrium `x` on `support` of a single-population
    game whose indifference system is `half` (unique, positive and Nash).
    It is strict when it is pure and its action is the only best response
    to itself."""
    return EquilibriumCandidate(
        x=x,
        y=None,
        support_x=support,
        support_y=None,
        is_strict=len(support) == 1 and half.best == 1,
        payoffs=half.payoff,
    )


def _bimatrix_candidate(table: SupportTable, rows, cols):
    """The equilibrium on one support pair, or None.  Both halves must be
    unique, positive and Nash, and the x half is read only after the y half
    is Nash.  The supports are the pair, since both mixes are positive on
    it.  It is strict when it is pure and each player's action is the only
    best response to the other's, as each half's best-response count says."""
    g = table.game
    yh = table.y_half(rows, cols)
    if not yh.nash:
        return None
    xh = table.x_half(rows, cols)
    if not xh.nash:
        return None
    return EquilibriumCandidate(
        x=xh.strategy(g.n_rows, rows),
        y=yh.strategy(g.n_cols, cols),
        support_x=rows,
        support_y=cols,
        is_strict=len(rows) == 1 and yh.best == 1 and xh.best == 1,
        payoffs=(yh.payoff, xh.payoff),  # x.Ay and x.By: the halves' common payoffs
    )


def detect_degeneracy(g: BimatrixGame, *, table: SupportTable | None = None) -> DegeneracyReport:
    """`SupportTable.degeneracy` of `g`'s table; `table`, a SupportTable of
    `g`, shares its solved halves with other calls on the same game."""
    return (table or SupportTable(g)).degeneracy()


def enumerate_nash_bimatrix(g: BimatrixGame, *,
                            table: SupportTable | None = None) -> list[EquilibriumCandidate]:
    """Every isolated Nash equilibrium on an equal-size support pair, sorted
    by (support size, support_x, support_y), the order the pairs are visited
    in.  Each pair yields at most one equilibrium, whose supports are the
    pair, so the list holds no duplicates.  A pair holding a row or column
    that `HalfTable.undominated` excludes is skipped unsolved.  Equilibria
    inside a continuum, and so every one whose supports differ in size, are
    not reported; `detect_degeneracy` flags the games that have them.
    `table` is a SupportTable of `g` to share.
    """
    table = table or SupportTable(g)
    found = []
    for k in range(1, min(g.n_rows, g.n_cols) + 1):
        col_sets = [(cols, cmask := _bits(cols), table._y.undominated(cmask))
                    for cols in itertools.combinations(range(g.n_cols), k)]
        for rows in itertools.combinations(range(g.n_rows), k):
            free_cols = table._x.undominated(rmask := _bits(rows))
            for cols, cmask, free_rows in col_sets:
                if cmask & ~free_cols or rmask & ~free_rows:
                    continue
                cand = _bimatrix_candidate(table, rows, cols)
                if cand is not None:
                    found.append(cand)
    return found


def _single_halves(s: SingleGame):
    """(support, half) by (size, support) for every support S of a
    single-population game whose half (S, S) can be positive: the supports
    that `HalfTable.holds_dominated` rules out are skipped unsolved.  Both
    single-population enumerations read this scan."""
    table = HalfTable(*s.int_payoffs)
    for k in range(1, s.n + 1):
        for supp in itertools.combinations(range(s.n), k):
            if not table.holds_dominated(_bits(supp)):
                yield supp, table.get(supp, supp)


def enumerate_nash_single(s: SingleGame) -> list[EquilibriumCandidate]:
    """The isolated symmetric Nash equilibria of a single-population game,
    by (size, support): the supports whose half is `nash`."""
    return [_single_candidate(half.strategy(s.n, supp), supp, half)
            for supp, half in _single_halves(s) if half.nash]


def enumerate_rest_points(s: SingleGame) -> list[RestPoint]:
    """The replicator rest points of a single-population game, by (size,
    support): a state is one exactly when its support earns one payoff, so
    each positive half gives its mix.  A continuum gives its midpoint,
    flagged `continuum`.  A point's Nash flag is its half's `top`."""
    return [RestPoint(half.strategy(s.n, supp), supp, half.top, half.payoff, half.underdetermined)
            for supp, half in _single_halves(s) if half.positive]


def candidate_json(c: EquilibriumCandidate) -> dict:
    """JSON form of an equilibrium: mixes and payoffs as fraction strings."""
    doc = {"x": c.x.to_jsonable()}
    if c.y is not None:
        doc["y"] = c.y.to_jsonable()
    doc["support_x"] = list(c.support_x)
    if c.support_y is not None:
        doc["support_y"] = list(c.support_y)
    doc["strict"] = c.is_strict
    if isinstance(c.payoffs, tuple):
        doc["payoffs"] = [fraction_str(v) for v in c.payoffs]
    else:
        doc["payoffs"] = fraction_str(c.payoffs)
    return doc
