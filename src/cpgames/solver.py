"""Exact support-enumeration solvers: all Nash equilibria of small bimatrix
and single-population games, replicator rest points, and degeneracy detection.

For every candidate support the in-support indifference conditions form a
small linear system; solutions with strictly positive in-support entries that
survive the best-response test are equilibria.  A support pair (rows, cols)
of a bimatrix game (A, B) has two halves: the y half makes the rows in `rows`
indifferent against a column mix on `cols` in A, and the x half is the y half
of B transposed at (cols, rows).  A `SupportTable` solves each half of each
equal-size pair once, on first read, in integers (see HalfTable), and the
solvers build each reported strategy and payoff from the half's integers
(see Half).  Degeneracy detection and direct enumeration visit the
equal-size pairs in one order, and the decomposition reads the direct
enumeration of its padded game, so all of them read one table per game.
Every decision and every result is exact, so ties are classified
correctly; `cpg solve --float` renders the exact equilibria in float64 in
the CLI.

Direct enumeration, and so `decompose` and `cpg solve`, solves no pair in
which some action is weakly dominated on the other side's support: a Nash
half puts positive weight on every column of its support, and against such
a mix a weakly dominated row earns strictly less, so it is no best response
(conditional dominance, as in Porter, Nudelman & Shoham 2008, "Simple
search methods for finding a Nash equilibrium", GEB 63).  The rest points,
and so the symmetric equilibria, solve no support S on which a row of S
weakly dominates another row of S: against a mix positive on S the two
rows earn different payoffs, so S has no positive half.  The degeneracy
scan and the n! per-permutation view read every half, since a singular
half is a witness whatever its sign.
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
    positive half holds a mix positive on the support as the integers
    (c, total, u, scale): the mix c over total and the common payoff u over
    total times the table's scale.  The mix is the unique solution or, on a
    continuum (underdetermined and positive), the midpoint of the solution
    line's positive segment.  `best` counts the rows that earn the top
    payoff against it, and `top` says that the support rows are among them.
    `nash` is `top` on a unique half and false on a continuum, so no
    continuum becomes an equilibrium; a rest point's flag reads `top`."""

    __slots__ = ("underdetermined", "positive", "best", "top", "_integers")

    def __init__(self, underdetermined, positive, best=0, top=False, integers=None):
        self.underdetermined = underdetermined
        self.positive = positive
        self.best = best
        self.top = top
        self._integers = integers

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
_NO_MIX = (Half(False, False), Half(True, False))


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
    """The y halves of one payoff matrix M by sorted, equal-size support
    pair: every row in `rows` earns the same payoff u against a column mix y
    on `cols`, and y sums to one.  Each pair is solved once, on first read.
    A matrix with more than MAX_ACTIONS rows or columns raises TooLarge
    before the minor store below is allocated: every solver, and
    `SupportTable(g)` itself, meets the cap here.

    M is the integer form of the payoffs: `mat` scaled by `scale`, the
    common denominator of its entries (a game's cached integer form, see
    `games.integer_form`).  Scaling leaves every system's solutions
    unchanged.  A half (k rows R, k columns C) is read off k difference
    minors.  With r_0 the lowest row of R, diff(R, C') is the determinant
    of the rows M_r - M_r0, r in R - r_0, on k - 1 columns C'.  Let c_j be
    the determinant of M_R,C with its column j replaced by ones, the j-th
    entry of adj(M_R,C) . 1.  Subtracting row r_0 from the other rows turns
    that column into e_0, so c_j = (-1)^j diff(R, C - c_j).  Each
    difference minor is computed once per table and kept in one flat list
    of 2**(m + n) slots for an m x n matrix (32 KiB for 6x6): diff(R, C') is
    at R << n | C', as bitmasks, the whole range of that index.  Each
    single-row slot is seeded with diff({r}, {}) = 1, and slot 0 is unused.
    `_expand` expands along the difference row of R's second-lowest row r_1
    and reads diff(R - r_1, .), whose lowest row is r_0 again, so every read
    stays in the one list; the expansion and `_solve` take a bitmask apart
    by its plan in `_PLANS`.

    total = sum_j c_j is the determinant of the bordered system, so
    total != 0 gives the unique half y = c / total.  A half with total = 0
    is singular and goes to `solve_linear`, as an integer system.  It is
    `underdetermined` when its solutions form a line or more, and positive
    (a continuum) when they form a line with a positive segment: its mix c
    is the segment's midpoint over the lcm of its denominators, which is
    then total, since the midpoint sums to one.  A solution set of 2 or
    more dimensions is never positive.  Every row of R earns one payoff
    against either mix, so `_mixed` decides both kinds' best responses on
    the integers c (see Half).

    `undominated(mask)` answers, without solving anything, which rows can be
    best responses to a mix that is positive on the columns of `mask`:
    direct enumeration reads it to skip pairs that cannot be Nash.
    `holds_dominated(mask)` answers whether a row of a square support weakly
    dominates another row of it there: the single-population scan reads it
    to skip supports that have no positive half.  Each question is a list
    read.  On its first call the table builds that list for every mask at
    once: row a weakly dominates row b on exactly the column sets inside
    the columns where a pays at least as much and that meet those where it
    pays more, so it enumerates those submasks for each pair of rows.
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
        half's support there; rows equal on `want` do not prune each other."""
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
        return Half(underdetermined, True, best, u == top, (c, total, u, self.scale))


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
        """The game's degeneracy report, scanning the equal-size support
        pairs' halves by (k, rows, cols) as it is read.

        The game is degenerate when some valid mixed strategy admits more
        pure best responses than its support size, or when a support system
        is singular with a whole continuum of solutions.  The verdict stops
        at the first witness and `witnesses` completes the scan; a second
        report re-reads the solved halves and solves nothing again.
        """
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
    """Degeneracy report of the game: see `SupportTable.degeneracy`.  Reading
    `.degenerate` stops the scan at the first witness; reading `.witnesses`
    completes it.

    `table`, a SupportTable of `g`, shares its solved systems with other
    calls on the same game.  A game with more than MAX_ACTIONS actions on a
    side raises TooLarge when its table is built (see HalfTable).
    """
    return (table or SupportTable(g)).degeneracy()


def enumerate_nash_bimatrix(g: BimatrixGame, *,
                            table: SupportTable | None = None) -> list[EquilibriumCandidate]:
    """Every isolated Nash equilibrium on an equal-size support pair, sorted
    by (support size, support_x, support_y).

    Each pair (rows, cols) with |rows| = |cols| yields at most one
    equilibrium, whose supports are exactly the pair; the pairs are visited
    in that order.  A pair with |rows| != |cols| is never read: one of its
    halves has more unknowns than equations, so it has no unique mix.  Nor
    is a pair in which a row is weakly dominated on `cols` in A or a column
    on `rows` in B: against the other side's mix, positive on the pair, that
    action earns less than its dominator, so it is no best response
    (conditional dominance; Porter, Nudelman & Shoham 2008).  Only the pairs
    left are solved.  For each size the column sets, their bitmasks and A's
    undominated rows on each are made once, and for each row set B's
    undominated columns, so a pair is tested with bit operations alone.
    Equilibria inside a continuum are not reported, and that includes every
    equilibrium whose supports differ in size; detect_degeneracy flags the
    games that have them.  `table` is a SupportTable of `g` to share, and
    the cap is checked when a table is built (as in detect_degeneracy).
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
    """(support, half) for every support of a single-population game that
    can hold a positive half, by (size, support): the support's indifference
    system, each solved once on one table of the game's payoffs.  A support
    on which one of its rows weakly dominates another is skipped unsolved
    (see HalfTable.holds_dominated): it has no rest point, continuum or
    symmetric equilibrium.  Both single-population enumerations read this
    scan."""
    table = HalfTable(*s.int_payoffs)
    for k in range(1, s.n + 1):
        for supp in itertools.combinations(range(s.n), k):
            if not table.holds_dominated(_bits(supp)):
                yield supp, table.get(supp, supp)


def enumerate_nash_single(s: SingleGame) -> list[EquilibriumCandidate]:
    """All symmetric Nash equilibria of a single-population game.

    Only single-strategy (symmetric) equilibria are considered: for each
    support solve the indifference system and keep positive solutions whose
    out-of-support fitnesses do not exceed the common payoff.  Supports are
    visited, and equilibria reported, by (size, support).
    """
    # a Nash half is unique and positive (see HalfTable._mixed)
    return [_single_candidate(half.strategy(s.n, supp), supp, half)
            for supp, half in _single_halves(s) if half.nash]


def enumerate_rest_points(s: SingleGame) -> list[RestPoint]:
    """Every interior-of-support rest point of the replicator dynamics.

    A state is a rest point exactly when all in-support fitnesses are equal,
    so each support whose half is positive contributes its mix; every
    vertex qualifies trivially.  A singular positive half is reported once,
    as its segment's midpoint flagged `continuum` (see HalfTable).  Rest
    points are reported by (support size, support).  Every support that can
    hold a positive half is read, Nash or not, and one on which a row weakly
    dominates another is skipped unsolved.  A point's Nash flag is its
    half's `top`, decided in integers, continuum or not.
    """
    return [RestPoint(half.strategy(s.n, supp), supp, half.top, half.payoff, half.underdetermined)
            for supp, half in _single_halves(s) if half.positive]


def candidate_json(c: EquilibriumCandidate) -> dict:
    """JSON form of an equilibrium: fraction strings in exact mode."""
    def vec(ms):
        return ms.to_jsonable()

    def val(v):
        return fraction_str(v) if isinstance(v, Fraction) else float(v)

    doc = {"x": vec(c.x)}
    if c.y is not None:
        doc["y"] = vec(c.y)
    doc["support_x"] = list(c.support_x)
    if c.support_y is not None:
        doc["support_y"] = list(c.support_y)
    doc["strict"] = c.is_strict
    if isinstance(c.payoffs, tuple):
        doc["payoffs"] = [val(v) for v in c.payoffs]
    else:
        doc["payoffs"] = val(c.payoffs)
    return doc
