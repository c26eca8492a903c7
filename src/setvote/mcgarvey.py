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

Both entry points reduce their target to one signed count of canceling
pairs per pair x < y and build the ballots from the arc table of m: for
each pair, its canceling pair in either direction, made once per m on
first use. So a realization appends table entries, in pair order after the
seed voter, the same way for every weight.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .core import MajorityRelation, Profile, _unchecked_profile

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
        m = self.m
        if m < 1:
            raise ValueError("need at least one alternative")
        try:
            rows = tuple(tuple(row) for row in self.target)
        except TypeError:
            rows = None
        if rows is None or len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"target must be {m}x{m}")
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in rows)
        except TypeError:
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
def _arcs(m: int) -> tuple[tuple[tuple, tuple], ...]:
    """The arc table of m alternatives, built on first use: for each pair
    x < y in lexicographic order, the canceling pair adding +2 to g(x, y)
    and the one adding +2 to g(y, x)."""
    return tuple(
        (_cancelling_pair(x, y, m), _cancelling_pair(y, x, m))
        for x, y in itertools.combinations(range(m), 2)
    )


def _realize(m: int, odd: int, counts) -> Profile:
    """The profile of an index-order seed voter if ``odd``, then, for each
    arc of `_arcs(m)` in order, ``counts[k]`` canceling pairs towards g(x, y)
    if positive, or ``-counts[k]`` towards g(y, x) if negative. An
    electorate over MAX_ELECTORATE is refused before any ballot is built."""
    size = odd + 2 * sum(map(abs, counts))
    if size > MAX_ELECTORATE:
        raise ValueError(
            f"realizing these margins needs {size} voters, more than {MAX_ELECTORATE}"
        )
    seed = tuple(range(m))
    ballots: list[tuple[int, ...]] = [seed] if odd else []
    for (up, down), count in zip(_arcs(m), counts):
        if count > 0:
            ballots += up * count
        elif count:
            ballots += down * -count
    if not ballots:
        # all-zero even target: one ballot and its reverse
        ballots = [seed, seed[::-1]]
    # every ballot is the seed permutation or half of a canceling pair
    return _unchecked_profile(m, tuple(ballots))


def realize(graph: WeightedMajorityGraph) -> Profile:
    """A profile whose margin matrix equals the target exactly."""
    target, odd = graph.target, graph.parity
    # the seed voter already paid +1 towards every g(x, y) with x < y, and
    # the even rest g(x, y) - odd is paid one canceling pair per 2
    counts = [
        (target[x][y] - odd) // 2 for x, y in itertools.combinations(range(graph.m), 2)
    ]
    return _realize(graph.m, odd, counts)


def realize_relation(rel: MajorityRelation, weight: int) -> Profile:
    """A profile whose relation equals ``rel``, all strict margins equal to
    ``weight`` and all ties exactly zero."""
    try:
        weight = operator.index(weight)
    except TypeError:
        raise ValueError("weight must be an integer") from None
    if weight < 1:
        raise ValueError("weight must be at least 1")
    m, strict = rel.m, rel.strict
    has_tie = sum(map(int.bit_count, strict)) < m * (m - 1) // 2
    if has_tie and weight % 2:
        raise ParityError("ties force even margins, so the weight must be even")
    # a single alternative has no margins, hence even parity
    odd = weight & 1 if m > 1 else 0
    # the seed voter's +1 leaves weight - odd to pay on an arc x -> y with
    # x < y, and weight + odd on y -> x
    up, down = (weight - odd) // 2, -((weight + odd) // 2)
    counts = [
        up if strict[x] >> y & 1 else down if strict[y] >> x & 1 else 0
        for x, y in itertools.combinations(range(m), 2)
    ]
    return _realize(m, odd, counts)
