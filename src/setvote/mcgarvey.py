"""Synthesizing a profile that realizes a prescribed weighted majority graph.

Any antisymmetric integer matrix whose off-diagonal entries share one parity
is the margin matrix of some profile. The construction uses canceling voter
pairs: the two ballots ``x, y, rest-in-index-order`` and ``rest-reversed, x,
y`` move the (x, y) margin by +2 and nothing else. An odd-parity target is
first seeded with a single voter holding the index-order ballot and the even
residual is then paid for with pairs. The resulting electorate has at most
c * m^2 + 1 voters for a maximum absolute margin c >= 1 (an all-zero target
still needs one canceling pair, because profiles are non-empty). A target
needing more than MAX_ELECTORATE voters is refused with a ValueError before
any ballot is built.

Both entry points build the ballots from the arc table of m: for each pair
x < y, its canceling pair in either direction, made once per m on first
use. A realization appends table entries, in pair order after the seed
voter, the same way for every weight: `realize` a signed count of canceling
pairs per pair, `realize_relation` the weight's count towards whichever
side of each pair wins, read off the strict masks as it goes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import MajorityRelation, Profile, _integer, _unchecked_profile

__all__ = ["ParityError", "WeightedMajorityGraph", "realize", "realize_relation"]

# the most voters a realization may have (10^6 ballots take about 50 MB); a
# margin near 2^63 would otherwise ask for 2^63 voters
MAX_ELECTORATE = 10**6


class ParityError(ValueError):
    """The target margins are not realizable by any profile."""


@dataclass(frozen=True)
class WeightedMajorityGraph:
    """A target margin matrix of int tuple rows: antisymmetric, zero diagonal, uniform parity."""

    m: int
    target: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = _integer(self.m, "m")
        object.__setattr__(self, "m", m)
        if m < 1:
            raise ValueError("need at least one alternative")
        try:
            rows = tuple(tuple(row) for row in self.target)
        except TypeError:
            rows = None
        if rows is None or len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"target must be {m}x{m}")
        try:
            rows = tuple(tuple(_integer(v, "target entry") for v in row) for row in rows)
        except ValueError:
            raise ValueError("target entries must be integers") from None
        object.__setattr__(self, "target", rows)
        if any(rows[x][x] for x in range(m)):
            raise ValueError("diagonal must be zero")
        if any(rows[x][y] != -rows[y][x] for x in range(m) for y in range(x)):
            raise ValueError("target must be antisymmetric")
        parities = {v & 1 for x, row in enumerate(rows) for v in row[:x]}
        if len(parities) > 1:
            raise ParityError("off-diagonal margins must share one parity")
        object.__setattr__(self, "parity", parities.pop() if parities else 0)


def _cancelling_pair(x: int, y: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two ballots that together add +2 to g(x, y) and 0 everywhere else."""
    rest = [z for z in range(m) if z != x and z != y]
    return (x, y, *rest), (*reversed(rest), x, y)


@lru_cache(maxsize=None)
def _arcs(m: int) -> tuple[tuple[int, int, tuple, tuple], ...]:
    """The arc table of m alternatives, built on first use: for each pair
    x < y in lexicographic order, (x, y, the canceling pair adding +2 to
    g(x, y), the one adding +2 to g(y, x))."""
    return tuple(
        (x, y, _cancelling_pair(x, y, m), _cancelling_pair(y, x, m))
        for x, y in itertools.combinations(range(m), 2)
    )


def _seeded(m: int, odd: int, size: int) -> list[tuple[int, ...]]:
    """The ballots a realization of ``size`` voters starts from: the
    index-order seed voter if ``odd``. An electorate over MAX_ELECTORATE is
    refused here, before any ballot is built."""
    if size > MAX_ELECTORATE:
        raise ValueError(
            f"realizing these margins needs {size} voters, more than {MAX_ELECTORATE}"
        )
    return [tuple(range(m))] if odd else []


def _profile(m: int, ballots: list[tuple[int, ...]]) -> Profile:
    if not ballots:
        # all-zero even target: one ballot and its reverse
        ballots = [tuple(range(m)), tuple(range(m - 1, -1, -1))]
    # every ballot is the seed permutation or half of a canceling pair
    return _unchecked_profile(m, tuple(ballots))


def realize(graph: WeightedMajorityGraph) -> Profile:
    """A profile whose margin matrix equals the target exactly."""
    m, target, odd = graph.m, graph.target, graph.parity
    # the seed voter already paid +1 towards every g(x, y) with x < y, and
    # the even rest g(x, y) - odd is paid one canceling pair per 2: towards
    # g(x, y) if positive, g(y, x) if negative
    counts = [(target[x][y] - odd) // 2 for x, y in itertools.combinations(range(m), 2)]
    ballots = _seeded(m, odd, odd + 2 * sum(map(abs, counts)))
    for (_, _, raise_xy, raise_yx), count in zip(_arcs(m), counts):
        if count > 0:
            ballots += raise_xy * count
        elif count:
            ballots += raise_yx * -count
    return _profile(m, ballots)


def realize_relation(rel: MajorityRelation, weight: int) -> Profile:
    """A profile whose relation equals ``rel``, all strict margins equal to
    ``weight`` and all ties exactly zero."""
    weight = _integer(weight, "weight")
    if weight < 1:
        raise ValueError("weight must be at least 1")
    m, strict = rel.m, rel.strict
    arcs = sum(map(int.bit_count, strict))
    if weight % 2 and arcs < m * (m - 1) // 2:
        raise ParityError("ties force even margins, so the weight must be even")
    # a single alternative has no margins, hence even parity
    odd = weight & 1 if m > 1 else 0
    # the seed voter's +1 leaves weight - odd to pay on an arc x -> y with
    # x < y, and weight + odd on y -> x, half a canceling pair per unit
    up, down = (weight - odd) // 2, (weight + odd) // 2
    size = weight * arcs
    if odd:
        # the seed voter, then one voter fewer per arc x -> y with x < y and
        # one more per arc y -> x
        ascending = sum((s >> x + 1).bit_count() for x, s in enumerate(strict))
        size += 1 - ascending + (arcs - ascending)
    ballots = _seeded(m, odd, size)
    for x, y, raise_xy, raise_yx in _arcs(m):
        if strict[x] >> y & 1:
            ballots += raise_xy * up
        elif strict[y] >> x & 1:
            ballots += raise_yx * down
    return _profile(m, ballots)
