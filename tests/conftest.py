import pytest
from hypothesis import strategies as st

from cpgames import BimatrixGame, SizeMismatch, make_bimatrix
from cpgames.cli import load_game


def permute_columns(g: BimatrixGame, cols: tuple[int, ...]) -> BimatrixGame:
    """Reorder the column player's actions: column j of the result is column
    cols[j] of the original, for payoffs and labels alike.  The reference
    the n! scan's per-permutation view is compared against."""
    if len(cols) != g.n_cols:
        raise SizeMismatch(f"permutation of size {len(cols)} applied to {g.n_cols} columns")
    return BimatrixGame(
        name=g.name,
        row_actions=g.row_actions,
        col_actions=tuple(g.col_actions[k] for k in cols),
        row_payoffs=tuple(tuple(row[k] for k in cols) for row in g.row_payoffs),
        col_payoffs=tuple(tuple(row[k] for k in cols) for row in g.col_payoffs),
    )


def matrix_game(name, a, b) -> BimatrixGame:
    """The game (a, b) with actions named r0.. and c0.."""
    return make_bimatrix(name, [f"r{i}" for i in range(len(a))],
                         [f"c{j}" for j in range(len(a[0]))], a, b)


@st.composite
def tied_games(draw):
    """A game of 1-5 actions a side whose payoffs in [-2, 2] tie often."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=m, max_size=m)
    return matrix_game("tied", draw(entries), draw(entries))


def fraction_is_nash_bimatrix(g: BimatrixGame, x, y) -> bool:
    """Oracle: the exact equilibrium check in `Fraction` arithmetic on the
    payoffs themselves, max(A y) <= x.A y and max(x B) <= x B.y, as
    `is_nash_bimatrix` did it before it compared integers."""
    xs, ys = x.probs, y.probs
    ay = [sum(a * q for a, q in zip(row, ys)) for row in g.row_payoffs]
    xb = [sum(p * row[j] for p, row in zip(xs, g.col_payoffs)) for j in range(g.n_cols)]
    return (max(ay) <= sum(p * v for p, v in zip(xs, ay))
            and max(xb) <= sum(v * q for v, q in zip(xb, ys)))


def fraction_is_nash_single(s, x) -> bool:
    """Oracle: the single-population check max(M x) <= x.M x in `Fraction`s."""
    mx = [sum(a * q for a, q in zip(row, x.probs)) for row in s.payoffs]
    return max(mx) <= sum(p * v for p, v in zip(x.probs, mx))


def exact_payoffs(g: BimatrixGame, x, y):
    """Oracle: the profile's payoffs (x.A y, x.B y) in `Fraction`s, summed
    on the payoffs themselves."""
    ay = [sum(a * q for a, q in zip(row, y.probs)) for row in g.row_payoffs]
    by = [sum(b * q for b, q in zip(row, y.probs)) for row in g.col_payoffs]
    return (sum(p * v for p, v in zip(x.probs, ay)), sum(p * v for p, v in zip(x.probs, by)))


def count_calls(monkeypatch, owner, name):
    """Route `owner.name` through a recorder; returns the list of each
    call's positional arguments."""
    fn = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def game_text(payoff: str) -> str:
    """A 2x2 game document whose first row payoff is the JSON text `payoff`."""
    return ('{"name": "t", "row_actions": ["a", "b"], "col_actions": ["c", "d"], '
            f'"row_payoffs": [[{payoff}, 0], [0, 1]], "col_payoffs": [[1, 0], [0, 1]]}}')


# game documents past the parser's limits, each refused with a ParseError or
# a ValidationError: nesting past the recursion limit, numbers past CPython's
# 4,300-digit int-from-str limit, payoffs whose exact value would have more
# than 4,300 digits (1e3000000 takes over a second to build), and "p/q"
# strings with non-ASCII digits or a trailing newline, which int() would read
HOSTILE_DOCUMENTS = {
    "deep-nesting": "[" * 200_000 + "]" * 200_000,
    "5000-digit-int": game_text("1" * 5000),
    "long-fraction": game_text('"1/' + "3" * 5000 + '"'),
    "1e5000": game_text("1e5000"),
    "1e-5000": game_text("1e-5000"),
    "1e3000000": game_text("1e3000000"),
    "arabic-indic-digits": game_text(r'"\u0661/\u0662"'),
    "trailing-newline": game_text(r'"3\n"'),
}


@pytest.fixture(scope="session")
def pd():
    return load_game("pd")


@pytest.fixture(scope="session")
def bos():
    return load_game("bos")


@pytest.fixture(scope="session")
def rps():
    return load_game("rps")


@pytest.fixture(scope="session")
def bos_extended():
    return load_game("bos_extended")


@pytest.fixture(scope="session")
def leduc():
    return load_game("leduc_empirical")


@pytest.fixture(scope="session")
def fullsupport():
    return load_game("fullsupport")


@pytest.fixture(scope="session")
def all_games(pd, bos, rps, bos_extended, leduc, fullsupport):
    return {
        "pd": pd,
        "bos": bos,
        "rps": rps,
        "bos_extended": bos_extended,
        "leduc_empirical": leduc,
        "fullsupport": fullsupport,
    }
