import pytest

from cpgames import BimatrixGame, SizeMismatch
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
