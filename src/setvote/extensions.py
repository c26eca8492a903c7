"""Lifting a voter's ranking of alternatives to preferences over sets.

Two liftings are provided. The strict one prefers X to Y when everything X
adds beats all of Y and all of X beats everything Y keeps exclusively; it is
what the manipulation search uses by default. The optimistic weak one demands
strictly less: the symmetric differences must be ordered, and the overlap only
needs witnesses in both directions. The first implies the second.

Each is implemented once, on bit masks and a rank vector (rank[x] is the
position of x on the ballot); the public functions take any collection of
alternatives or a ChoiceSet, convert it and delegate. This module also owns
the two readings of a lifting that the manipulation searches use, on masks:
`_prefers` (strictly better; for the weak lifting, its strict part) and
`_at_least` (at least as good: equal or strictly above for the strict
lifting, the weak relation itself for the weak one). `compare` is built from
`_prefers`.

The searches read a lifting through verdict tables, not through these
predicates directly: `_better(kind, ballot, Y)` is an int whose bit X is set
when the voter strictly prefers X to Y, and `_gains(kind, ballot, Y)` one
whose bit X is set when Y is not at least as good as X (the strong reading's
gain). `_table` builds each from `_prefers` or `_at_least` for every
non-empty X and keeps the last 65,536 it built, so a manipulation, group or
efficiency verdict is a shift and a mask. The public functions stay on the
direct path: a table costs 2^m judgments to build and pays only when one
(ballot, Y) is read many times.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import lru_cache

from .core import Ballot, ChoiceSet

__all__ = [
    "ExtensionKind",
    "SetComparison",
    "compare",
    "exists_prefers",
    "fishburn_prefers",
    "fplus_weakly_prefers",
]


class ExtensionKind(str, Enum):
    FISHBURN = "fishburn"
    FPLUS = "fplus"


# the members, bound once: a hot path tests a member by identity instead of
# reading it off the Enum class on every call
_FISHBURN, _FPLUS = ExtensionKind.FISHBURN, ExtensionKind.FPLUS


class SetComparison(str, Enum):
    LEFT_PREFERRED = "left-preferred"
    RIGHT_PREFERRED = "right-preferred"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def _lifting(kind) -> ExtensionKind:
    """`kind` as an ExtensionKind, given a member or its value; anything
    else is a ValueError. `compare` and the one-profile searches skip the
    call for a member, on an identity test."""
    try:
        return ExtensionKind(kind)
    except (TypeError, ValueError):
        expected = ", ".join(repr(k.value) for k in ExtensionKind)
        raise ValueError(f"unknown lifting {kind!r}; expected one of {expected}") from None


def _as_mask(xs, m: int) -> int:
    """The members of `xs`, a ChoiceSet or a collection of alternatives, as
    a mask; every member must be on a ballot of m alternatives."""
    if isinstance(xs, ChoiceSet):
        if xs.m > m:
            raise ValueError(f"a set over {xs.m} alternatives needs a ballot of as many, got {m}")
        return xs.mask
    mask = 0
    for member in xs:
        try:
            x = operator.index(member)
        except TypeError:
            x = -1
        if not 0 <= x < m:
            raise ValueError(f"set member {member!r} is not on a ballot of {m} alternatives")
        mask |= 1 << x
    return mask


def _operands(ballot: Ballot, xs, ys) -> tuple[tuple[int, ...], int, int]:
    """The ballot's rank vector and the two sets as masks, all checked."""
    rank = _rank_of(tuple(ballot))
    return rank, _as_mask(xs, len(rank)), _as_mask(ys, len(rank))


def _check_nonempty(xmask: int, ymask: int) -> None:
    if not xmask or not ymask:
        raise ValueError("set preference needs non-empty sets")


@lru_cache(maxsize=1 << 16)
def _rank_of(ballot: Ballot) -> tuple[int, ...]:
    """rank[x] is the position of x on the ballot, which is checked, once
    per ballot, to be a ranking of 0..len(ballot)-1."""
    rank = [-1] * len(ballot)
    for i, x in enumerate(ballot):
        try:
            if x < 0 or rank[x] >= 0:
                raise IndexError
            rank[x] = i
        except (IndexError, TypeError):
            raise ValueError(
                f"ballot {ballot!r} is not a ranking of 0..{len(ballot) - 1}"
            ) from None
    return tuple(rank)


def _best(rank, mask):
    """The position of the mask's highest-ranked member."""
    best = len(rank)
    while mask:
        low = mask & -mask
        mask ^= low
        r = rank[low.bit_length() - 1]
        if r < best:
            best = r
    return best


def _worst(rank, mask):
    """The position of the mask's lowest-ranked member."""
    worst = -1
    while mask:
        low = mask & -mask
        mask ^= low
        r = rank[low.bit_length() - 1]
        if r > worst:
            worst = r
    return worst


def _fish(rank, xmask, ymask) -> bool:
    xo = xmask & ~ymask
    if xo and _worst(rank, xo) > _best(rank, ymask):
        return False
    yo = ymask & ~xmask
    if yo and _worst(rank, xmask) > _best(rank, yo):
        return False
    return True


def _exists(rank, xmask, ymask) -> bool:
    if not xmask or not ymask:
        return True
    return _best(rank, xmask) < _worst(rank, ymask)


def _fplus_weak(rank, xmask, ymask) -> bool:
    if xmask == ymask:
        return True
    xo, yo, both = xmask & ~ymask, ymask & ~xmask, xmask & ymask
    if xo and yo and _worst(rank, xo) > _best(rank, yo):
        return False
    return _exists(rank, xo, both) and _exists(rank, both, yo)


def _prefers(kind: ExtensionKind, rank, xmask, ymask) -> bool:
    """Does the voter strictly prefer X to Y (X != Y) under the lifting?"""
    if kind is _FISHBURN:
        return _fish(rank, xmask, ymask)
    return _fplus_weak(rank, xmask, ymask) and not _fplus_weak(rank, ymask, xmask)


def _at_least(kind: ExtensionKind, rank, xmask, ymask) -> bool:
    """Is X at least as good as Y for the voter under the lifting?"""
    return (_fish if kind is _FISHBURN else _fplus_weak)(rank, xmask, ymask)


def _better_than(kind: ExtensionKind, rank, xmask, ymask) -> bool:
    return xmask != ymask and _prefers(kind, rank, xmask, ymask)


def _gain_over(kind: ExtensionKind, rank, xmask, ymask) -> bool:
    return not _at_least(kind, rank, ymask, xmask)


@lru_cache(maxsize=1 << 16)
def _table(reading, kind: ExtensionKind, ballot: Ballot, ymask: int) -> int:
    """Bit X set iff `reading(kind, rank, X, Y)` holds, over the non-empty X."""
    rank = _rank_of(ballot)
    bits = 0
    for xmask in range(1, 1 << len(ballot)):
        if reading(kind, rank, xmask, ymask):
            bits |= 1 << xmask
    return bits


def _better(kind: ExtensionKind, ballot: Ballot, ymask: int) -> int:
    """The sets the voter strictly prefers to Y, as bits; bit Y is clear."""
    return _table(_better_than, kind, ballot, ymask)


def _gains(kind: ExtensionKind, ballot: Ballot, ymask: int) -> int:
    """The sets Y is not at least as good as, as bits: the deviations the
    strong reading counts as gains."""
    return _table(_gain_over, kind, ballot, ymask)


def fishburn_prefers(ballot: Ballot, xs, ys) -> bool:
    """Strict set preference: X \\ Y above all of Y, and all of X above Y \\ X.

    Defined only for X != Y (passing equal sets is a contract violation).
    """
    rank, xmask, ymask = _operands(ballot, xs, ys)
    _check_nonempty(xmask, ymask)
    if xmask == ymask:
        raise ValueError("set preference is defined for distinct sets only")
    return _fish(rank, xmask, ymask)


def exists_prefers(ballot: Ballot, xs, ys) -> bool:
    """True iff X or Y is empty, or some member of X beats some member of Y."""
    return _exists(*_operands(ballot, xs, ys))


def fplus_weakly_prefers(ballot: Ballot, xs, ys) -> bool:
    """Weak optimistic set preference; reflexive, and implied by `fishburn_prefers`.

    For distinct sets it requires X \\ Y entirely above Y \\ X, plus an
    existential witness from X \\ Y into the overlap and from the overlap into
    Y \\ X.
    """
    rank, xmask, ymask = _operands(ballot, xs, ys)
    _check_nonempty(xmask, ymask)
    return _fplus_weak(rank, xmask, ymask)


def compare(kind: ExtensionKind, ballot: Ballot, xs, ys) -> SetComparison:
    """One verdict for the pair (X, Y) under the chosen lifting.

    Equal sets compare as EQUAL. Under the weak lifting, the strict part is
    used, so mutually weakly-preferred distinct sets come out INCOMPARABLE.
    """
    if kind is not _FISHBURN and kind is not _FPLUS:
        kind = _lifting(kind)
    rank, xmask, ymask = _operands(ballot, xs, ys)
    if xmask == ymask:
        return SetComparison.EQUAL
    _check_nonempty(xmask, ymask)
    if _prefers(kind, rank, xmask, ymask):
        return SetComparison.LEFT_PREFERRED
    if _prefers(kind, rank, ymask, xmask):
        return SetComparison.RIGHT_PREFERRED
    return SetComparison.INCOMPARABLE
