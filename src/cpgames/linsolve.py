"""Rank-revealing Gauss–Jordan elimination for small indifference systems.

All equilibrium and rest-point enumeration reduces to systems of at most
seven equations.  Exact mode (the default) takes integer systems, which the
solver's `HalfTable` builds from its payoff matrix scaled to integers once,
and runs fraction-free Gauss–Jordan elimination (Bareiss 1968): every
division is exact, so the work stays in Python integers.  An exact result
keeps its particular solution as integer numerators over one positive
denominator and makes `Fraction`s of them only when `solution` is first
read, so a caller can decide signs and comparisons in integers.  The reduced
row echelon form is unique, so the status, solution and null space equal
those of `Fraction` elimination.
Float mode runs Gauss–Jordan elimination on float64 with partial pivoting
and a scaled pivot threshold.  It decides nothing: it exists only to render
the digits of `cpg solve --float`, re-solving each exact equilibrium's
support pair.
"""

from __future__ import annotations

from fractions import Fraction

_FLOAT_PIVOT_EPS = 1e-11

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


class LinearResult:
    """The solution structure of a linear system.

    `solution` is the unique solution or a particular one (free variables 0),
    None when the system is inconsistent; `nullspace` is a basis of the
    homogeneous solutions, empty unless underdetermined.  A consistent exact
    result also keeps the particular solution as integer `numerators` over
    the positive integer `denominator`, and makes `solution` of them on first
    read.
    """

    def __init__(self, status: str, solution: list | None, nullspace: list[list],
                 numerators: list[int] | None = None, denominator: int = 1):
        self.status = status
        self._solution = solution
        self.nullspace = nullspace
        self.numerators = numerators
        self.denominator = denominator

    @property
    def solution(self) -> list | None:
        if self._solution is None and self.numerators is not None:
            self._solution = [Fraction(v, self.denominator) for v in self.numerators]
        return self._solution


def solve_linear(matrix, rhs, exact: bool = True) -> LinearResult:
    """Solve matrix @ z = rhs for any shape, reporting the solution structure.
    Exact mode takes `int` entries only; float mode takes any real numbers."""
    if not exact:
        return _solve_float(matrix, rhs)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [[*row, rhs[i]] for i, row in enumerate(matrix)]

    # After each pivot every entry is a minor of the input matrix, so the
    # division by the previous pivot is exact; all pivots end equal to `d`.
    pivot_cols = []
    d = 1
    r = 0
    for c in range(n):
        for pivot in range(r, m):
            if aug[pivot][c]:
                break
        else:
            continue
        prow = aug[pivot]
        aug[pivot], aug[r] = aug[r], prow
        pv = prow[c]
        for i in range(m):
            if i != r:
                f = aug[i][c]
                if f or pv != d:
                    aug[i] = [(pv * v - f * w) // d for v, w in zip(aug[i], prow)]
        d = pv
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    if any(aug[i][n] for i in range(r, m)):
        return LinearResult(INCONSISTENT, None, [])
    particular, basis = _read_off(aug, pivot_cols, n, d)
    nullspace = [[Fraction(v, d) for v in vec] for vec in basis]
    if d < 0:
        particular, d = [-v for v in particular], -d
    return LinearResult(UNDERDETERMINED if basis else UNIQUE, None, nullspace, particular, d)


def _solve_float(matrix, rhs) -> LinearResult:
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [[float(v) for v in row] + [float(rhs[i])] for i, row in enumerate(matrix)]
    scale = max((abs(v) for row in aug for v in row), default=1.0)
    eps = _FLOAT_PIVOT_EPS * max(1.0, scale)

    pivot_cols = []
    r = 0
    for c in range(n):
        pivot, best = None, 0.0
        for i in range(r, m):
            if abs(aug[i][c]) > best:
                pivot, best = i, abs(aug[i][c])
        if pivot is None or best <= eps:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and abs(aug[i][c]) > eps:
                f = aug[i][c]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break

    if any(abs(aug[i][n]) > eps for i in range(r, m)):
        return LinearResult(INCONSISTENT, None, [])
    particular, basis = _read_off(aug, pivot_cols, n, 1.0)
    return LinearResult(UNDERDETERMINED if basis else UNIQUE, particular, basis)


def _read_off(aug, pivot_cols, n, d):
    """Particular solution (free variables 0) and null-space basis of a
    reduced system whose pivot entries all equal `d`, as numerators over d."""
    particular = [0 * d] * n
    for row, c in zip(aug, pivot_cols):
        particular[c] = row[n]
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        vec = [0 * d] * n
        vec[fc] = d
        for row, c in zip(aug, pivot_cols):
            vec[c] = -row[fc]
        basis.append(vec)
    return particular, basis
