"""Elimination core: solution structure on exact and float systems."""

import math
import random
from fractions import Fraction

from cpgames.linsolve import INCONSISTENT, UNDERDETERMINED, UNIQUE, solve_linear


def test_unique_exact():
    res = solve_linear([[2, 1], [1, -1]], [5, 1], exact=True)
    assert res.status == UNIQUE
    assert res.solution == [Fraction(2), Fraction(1)]
    assert solve_linear([], []).status == UNIQUE


def test_inconsistent():
    res = solve_linear([[1, 1], [1, 1]], [1, 2], exact=True)
    assert res.status == INCONSISTENT


def test_underdetermined_nullspace():
    res = solve_linear([[1, 1, 0], [0, 0, 1]], [1, 2], exact=True)
    assert res.status == UNDERDETERMINED
    assert len(res.nullspace) == 1
    # particular + t * direction solves the system for any t
    p, d = res.solution, res.nullspace[0]
    for t in (Fraction(1, 3), Fraction(-2)):
        z = [pi + t * di for pi, di in zip(p, d)]
        assert z[0] + z[1] == 1 and z[2] == 2


def test_overdetermined_consistent():
    res = solve_linear([[1, 0], [0, 1], [1, 1]], [2, 3, 5], exact=True)
    assert res.status == UNIQUE
    assert res.solution == [2, 3]


def test_float_mode():
    res = solve_linear([[2.0, 1.0], [1.0, -1.0]], [5.0, 1.0], exact=False)
    assert res.status == UNIQUE
    assert abs(res.solution[0] - 2) < 1e-12 and abs(res.solution[1] - 1) < 1e-12


def test_float_rank_deficient():
    res = solve_linear([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], exact=False)
    assert res.status == UNDERDETERMINED


def reference_solve(matrix, rhs):
    """Plain Fraction Gauss-Jordan elimination, kept as the reference for the
    fraction-free integer elimination of solve_linear."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    if any(aug[i][n] != 0 for i in range(r, m)):
        return INCONSISTENT, None, []
    free_cols = [c for c in range(n) if c not in pivot_cols]
    particular = [Fraction(0)] * n
    for row_idx, c in enumerate(pivot_cols):
        particular[c] = aug[row_idx][n]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row_idx, c in enumerate(pivot_cols):
            vec[c] = -aug[row_idx][fc]
        basis.append(vec)
    return (UNDERDETERMINED if free_cols else UNIQUE), particular, basis


def integer_system(matrix, rhs):
    """The system with each row, right-hand side included, times the least
    common multiple of its denominators: the integer system exact mode takes.
    Row scaling leaves the reduced row echelon form, and so the status,
    solution and null space, unchanged."""
    scaled = []
    for row, b in zip(matrix, rhs):
        row = [*row, b]
        scale = math.lcm(*(Fraction(v).denominator for v in row))
        scaled.append([int(v * scale) for v in row])
    return [row[:-1] for row in scaled], [row[-1] for row in scaled]


def _random_system(rng, m, n, kind):
    """A seeded system of shape m x n; `kind` shapes its rank and entries."""
    def entry():
        if kind == "fractions":
            return Fraction(rng.randint(-1000, 1000), rng.randint(1, 20))
        if kind == "small":
            return rng.randint(-2, 2)
        return rng.randint(-1000, 1000)

    if kind == "rank-deficient":
        # a product through rank r < min(m, n), with a consistent right-hand side
        r = rng.randint(0, min(m, n) - 1)
        left = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
        right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(r)]
        matrix = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                  for row in left]
        z = [entry() for _ in range(n)]
        return matrix, [sum(a * b for a, b in zip(row, z)) for row in matrix]
    matrix = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    if kind == "inconsistent" and m >= 2:
        matrix[-1] = list(matrix[0])
        rhs[-1] = rhs[0] + 1
    return matrix, rhs


def test_integer_elimination_matches_fraction_reference():
    rng = random.Random(20260)
    shapes = [(m, n) for m in range(1, 7) for n in range(1, 7)]
    kinds = ("integers", "fractions", "small", "rank-deficient", "inconsistent")
    seen = set()
    for trial in range(1500):
        m, n = shapes[trial % len(shapes)]
        kind = kinds[trial % len(kinds)]
        matrix, rhs = _random_system(rng, m, n, kind)
        res = solve_linear(*integer_system(matrix, rhs), exact=True)
        assert (res.status, res.solution, res.nullspace) == reference_solve(matrix, rhs), (matrix, rhs)
        seen.add(("square" if m == n else "over" if m > n else "under", res.status))
    # every shape class met every status it can have
    for shape in ("square", "over", "under"):
        assert (shape, INCONSISTENT) in seen and (shape, UNDERDETERMINED) in seen
    assert ("square", UNIQUE) in seen and ("over", UNIQUE) in seen


def test_exact_result_keeps_integer_numerators():
    # a consistent exact result's particular solution is integer numerators
    # over one positive denominator; `solution` is their Fraction value
    rng = random.Random(515)
    shapes = [(m, n) for m in range(1, 6) for n in range(1, 6)]
    kinds = ("integers", "fractions", "small", "rank-deficient", "inconsistent")
    consistent = 0
    for trial in range(500):
        m, n = shapes[trial % len(shapes)]
        matrix, rhs = _random_system(rng, m, n, kinds[trial % len(kinds)])
        res = solve_linear(*integer_system(matrix, rhs))
        if res.status == INCONSISTENT:
            assert res.numerators is None and res.solution is None
            continue
        consistent += 1
        assert type(res.denominator) is int and res.denominator > 0
        assert all(type(v) is int for v in res.numerators)
        assert [Fraction(v, res.denominator) for v in res.numerators] == res.solution
        assert res.solution == reference_solve(matrix, rhs)[1]
    assert consistent > 200


def test_integer_elimination_indifference_systems():
    # the solver's systems: a payoff block, a -1 column for the common payoff,
    # and a row of ones for the probabilities
    rng = random.Random(11)
    for _ in range(400):
        k1, k2 = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([1, 3, 1000])
        matrix = [[Fraction(rng.randint(-bound, bound), rng.choice([1, 1, 3, 20]))
                   for _ in range(k2)] + [-1] for _ in range(k1)]
        matrix.append([1] * k2 + [0])
        rhs = [0] * k1 + [1]
        res = solve_linear(*integer_system(matrix, rhs))
        assert (res.status, res.solution, res.nullspace) == reference_solve(matrix, rhs)
