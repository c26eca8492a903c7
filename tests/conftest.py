import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from setvote import _engine, verify
from setvote.core import Profile

# Classic five-alternative, four-voter election: no Condorcet winner or loser,
# two dominant sets ({a,b,c} and everything), margins of 0, 2 and 4.
FIG1_RANKINGS = [
    (0, 4, 1, 2, 3),  # a e b c d
    (1, 2, 0, 3, 4),  # b c a d e
    (2, 0, 1, 4, 3),  # c a b e d
    (3, 1, 2, 0, 4),  # d b c a e
]

# Three-alternative, five-voter election where plurality picks {a,c} and the
# last voter (true ranking b > c > a) can force {c} by reporting c > b > a.
FIG2_LEFT_RANKINGS = [
    (0, 1, 2),
    (0, 1, 2),
    (2, 0, 1),
    (2, 0, 1),
    (1, 2, 0),
]
FIG2_RIGHT_RANKINGS = FIG2_LEFT_RANKINGS[:4] + [(2, 1, 0)]


@pytest.fixture
def fig1():
    return Profile.from_rankings(FIG1_RANKINGS)


@pytest.fixture
def fig2_left():
    return Profile.from_rankings(FIG2_LEFT_RANKINGS)


@pytest.fixture
def fig2_right():
    return Profile.from_rankings(FIG2_RIGHT_RANKINGS)


@pytest.fixture
def built_engines(monkeypatch):
    """The engines the universe walks build from here on, in build order:
    `verify._Engine` is replaced by a subclass that records each one. The
    shared engines of the one-profile searches are built elsewhere and not
    recorded."""
    built = []

    class Recorded(_engine._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(verify, "_Engine", Recorded)
    return built
