"""Fraction-free Gauss–Jordan elimination (Bareiss 1968) for small integer
systems.  Every division is exact, so the work stays in Python integers, and
the reduced row echelon form is unique, so the status, solution and null
space equal those of `Fraction` elimination.  `HalfTable` hands it only the
singular systems it cannot read off its minors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


class LinearResult(NamedTuple):
    """The solution structure of a linear system.

    `solution` is the unique solution or a particular one (free variables 0),
    None when the system is inconsistent; `nullspace` is a basis of the
    homogeneous solutions, empty unless underdetermined.
    """

    status: str
    solution: list | None
    nullspace: list


def solve_linear(matrix, rhs) -> LinearResult:
    """Solve matrix @ z = rhs for any shape of `int` entries, reporting the
    solution structure."""
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
    # Numerators over d: the particular solution (free variables 0), and one
    # null-space vector per free column.
    particular = [0] * n
    for row, c in zip(aug, pivot_cols):
        particular[c] = row[n]
    nullspace = []
    for fc in range(n):
        if fc not in pivot_cols:
            vec = [0] * n
            vec[fc] = d
            for row, c in zip(aug, pivot_cols):
                vec[c] = -row[fc]
            nullspace.append([Fraction(v, d) for v in vec])
    return LinearResult(UNDERDETERMINED if nullspace else UNIQUE,
                        [Fraction(v, d) for v in particular], nullspace)
