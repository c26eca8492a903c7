"""Preference profiles, majority margins, and the dominance structure they induce.

A profile is a non-empty list of ballots, each a strict ranking of the
alternatives 0..m-1 (letters a, b, c, ... are a display convention only).
Counting pairwise comparisons gives the margin matrix; its sign pattern gives
the complete majority relation; and the relation yields the classical
dominance concepts: Condorcet winners and losers, dominant sets (which form a
chain under inclusion), the top cycle (the smallest dominant set), and the
Schwartz set (maximal elements of the strict reachability order).

Alternatives are dense integer indices so that sets can be bit masks and
ballots can be enumerated as permutations. Every function is a pure function
of immutable values: `ChoiceSet`, `Profile` and `MajorityRelation` are
frozen, slotted dataclasses, with no instance dict. Each relation-level
question is answered once, on the strict-beat masks; the public functions
of a `MajorityRelation` wrap that. The top-cycle, Schwartz, covering-cycle
and connected-set kernels keep their last few answers, so the questions
asked of one relation in a row share one computation, and the kernels
reuse one another's: every alternative's connected set is read off
the memoized covering cycle, whose path from x's successor round to x's
predecessor walks down the strong components of the top cycle without x.
Kernel answers are interned, one shared `ChoiceSet` per (m, mask), which is
safe because a ChoiceSet is frozen and compared by value. Relations are
enumerated a batch at a time, the masks after each prefix of pair choices
built once and shared by every relation that extends them.

Margins come from one packed integer per profile, the margin code of
`_MarginCode`, whose layout the sweep engine shares; its fields are read
back with `struct` as Python ints, or with numpy for the public `margins`
array; numpy is bound by the first `margins` call, so it stays off the
import path.

The public constructors check their arguments. A `Profile` checks each
ballot tuple once: a bounded memo keeps, per ballot value, the first tuple
that passed, and a ballot that is that very tuple is not checked again.
Values that are valid by construction (kernel outputs, enumerated relations,
realized ballots) are built with the unchecked `_unchecked_*` builders
instead.
"""

from __future__ import annotations

import itertools
import operator
import struct
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from numbers import Real
from string import ascii_lowercase

Ballot = tuple[int, ...]

__all__ = [
    "Ballot",
    "ChoiceSet",
    "MajorityRelation",
    "Profile",
    "condorcet_loser",
    "condorcet_winner",
    "connected_set",
    "covering_cycle",
    "dominant_chain",
    "enumerate_ballots",
    "enumerate_relations",
    "is_dominant",
    "margins",
    "relation",
    "restrict",
    "schwartz_set",
    "to_letters",
    "top_cycle",
]


def to_letters(members) -> str:
    """Render a collection of alternative indices as '{a,c,d}'; an index
    with no letter, outside 0..25, is refused."""
    members = sorted(members)
    for i in members:
        if not 0 <= i < 26:
            raise ValueError(f"alternative {i} has no letter; letters name 0..25")
    return "{" + ",".join(ascii_lowercase[i] for i in members) + "}"


def _names(m: int):
    """The printed names of alternatives 0..m-1: letters up to 26
    alternatives, decimal indices past them."""
    return ascii_lowercase[:m] if m <= 26 else [str(x) for x in range(m)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# answers the relation kernels keep: every key of the last few relations
_KERNEL_MEMO = 64
# kernel answers kept as shared ChoiceSets: as many as 12 alternatives have subsets
_CHOICE_MEMO = 1 << 12
# checked ballot tuples kept by value: all 8! ballots of 8 alternatives fit
_CHECKED_MEMO = 1 << 16

_new = object.__new__
_set = object.__setattr__


def _frozen(cls):
    """A frozen, slotted dataclass whose attributes cannot be set or deleted,
    fields or not, each refused with a FrozenInstanceError. The methods that
    `dataclass(slots=True)` generates refuse a field so, but a name that is
    not a field reaches a `super()` call on the class it replaced, which
    raises a TypeError (Python 3.10 and 3.11)."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


def _integer(value, what: str) -> int:
    """`value` as a Python int, or a ValueError naming `what`. A bool is
    refused: Python counts False and True as ints, so False would read as 0."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _alternative(value, m: int) -> int:
    """`value` as a Python int in 0..m-1, or a ValueError; a bool is none."""
    try:
        x = -1 if type(value) is bool else operator.index(value)
    except TypeError:
        x = -1
    if not 0 <= x < m:
        raise ValueError(f"alternative {value!r} out of range for m={m}")
    return x


def _fits(choice: "ChoiceSet", m: int) -> int:
    """The mask of a ChoiceSet, refused if it is over more than m alternatives."""
    if choice.m > m:
        raise ValueError(f"a set over {choice.m} alternatives does not fit m={m}")
    return choice.mask


@_frozen
@dataclass(frozen=True, slots=True)
class ChoiceSet:
    """A subset of the alternatives 0..m-1, stored as a bit mask.

    Outputs of voting rules are always non-empty; the empty set is allowed
    here only because a few structural quantities (connected sets) can be
    empty.
    """

    m: int
    mask: int

    def __post_init__(self):
        m, mask = _integer(self.m, "m"), _integer(self.mask, "mask")
        _set(self, "m", m)
        _set(self, "mask", mask)
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if not 0 <= mask < (1 << m):
            raise ValueError(f"mask {mask:#x} out of range for m={m}")

    @classmethod
    def from_members(cls, m: int, members) -> "ChoiceSet":
        m = _integer(m, "m")
        mask = 0
        for x in members:
            mask |= 1 << _alternative(x, m)
        return cls(m, mask)

    @classmethod
    def full(cls, m: int) -> "ChoiceSet":
        return cls(m, (1 << m) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __iter__(self):
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.m and self.mask >> x & 1 == 1

    def issubset(self, other: "ChoiceSet") -> bool:
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        names = _names(self.m)
        return "{" + ",".join(names[x] for x in self.members) + "}"


@lru_cache(maxsize=_CHOICE_MEMO)
def _unchecked_choice(m: int, mask: int) -> ChoiceSet:
    """The shared ChoiceSet of a mask known to lie in 0 <= mask < 2**m,
    unchecked. A ChoiceSet is frozen and compared by value, so one instance
    per (m, mask) can stand for every kernel answer of that set."""
    choice = _new(ChoiceSet)
    _set(choice, "m", m)
    _set(choice, "mask", mask)
    return choice


# per ballot value, the first tuple of that value that passed the full check;
# past `_CHECKED_MEMO` entries they start afresh before the next is stored
_checked: dict[Ballot, Ballot] = {}


def _checked_ballot(ballot, m: int, i: int) -> Ballot:
    """Ballot i as a tuple of Python ints, or a ValueError if it is not a
    permutation of 0..m-1. A tuple whose sum is a Python int holds ints (a
    float, a numpy integer or a string makes the sum something else, or
    raises): it is kept as it is, so that profiles built from the same
    ballots share them; anything else is read through operator.index."""
    try:
        if type(ballot) is not tuple or type(sum(ballot)) is not int:
            ballot = tuple(map(operator.index, ballot))
    except TypeError:
        raise ValueError("ballots must be sequences of integers") from None
    if set(ballot) != set(range(m)) or len(ballot) != m:
        raise ValueError(f"ballot {i} is not a permutation of 0..{m - 1}: {ballot}")
    if ballot not in _checked:
        if len(_checked) >= _CHECKED_MEMO:
            _checked.clear()
        _checked[ballot] = ballot
    return ballot


@_frozen
@dataclass(frozen=True, slots=True, init=False)
class Profile:
    """A non-empty sequence of ballots over a common set of m alternatives."""

    m: int
    ballots: tuple[Ballot, ...]

    def __init__(self, m: int, ballots):
        m = _integer(m, "m")
        if m < 1:
            raise ValueError("need at least one alternative")
        # a ballot that is the very tuple an earlier check passed, of length
        # m, is a permutation of 0..m-1 and is not checked again
        known = _checked.get
        kept = []
        try:
            for ballot in ballots:
                try:
                    if type(ballot) is tuple and len(ballot) == m and known(ballot) is ballot:
                        kept.append(ballot)
                        continue
                except TypeError:  # an element is not hashable
                    pass
                kept.append(_checked_ballot(ballot, m, len(kept)))
        except TypeError:  # `ballots` is not iterable: the loop body raises none
            raise ValueError(
                f"ballots must be a sequence of ballots, got {type(ballots).__name__}"
            ) from None
        if not kept:
            raise ValueError("profile needs at least one ballot")
        _set(self, "m", m)
        _set(self, "ballots", tuple(kept))

    @classmethod
    def from_rankings(cls, rankings) -> "Profile":
        try:
            rankings = tuple(map(tuple, rankings))
        except TypeError:
            raise ValueError("ballots must be sequences of integers") from None
        if not rankings:
            raise ValueError("profile needs at least one ballot")
        return cls(len(rankings[0]), rankings)

    @property
    def n(self) -> int:
        return len(self.ballots)

    def replace_ballot(self, voter: int, ballot: Ballot) -> "Profile":
        """This profile with voter 0..n-1 casting `ballot` instead."""
        voter = _integer(voter, "voter")
        if not 0 <= voter < self.n:
            raise ValueError(f"voter {voter} out of range for n={self.n}")
        new = list(self.ballots)
        new[voter] = ballot
        return Profile(self.m, tuple(new))

    def tiled(self, k: int) -> "Profile":
        """The profile consisting of k copies of this electorate."""
        k = _integer(k, "k")
        if k < 1:
            raise ValueError("k must be positive")
        return Profile(self.m, self.ballots * k)


def _unchecked_profile(m: int, ballots: tuple[Ballot, ...]) -> Profile:
    """A Profile of a non-empty tuple of permutations of 0..m-1, unchecked."""
    profile = _new(Profile)
    _set(profile, "m", m)
    _set(profile, "ballots", ballots)
    return profile


# ---------------------------------------------------------------------------
# margins and the majority relation


_FIELD_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


class _MarginCode:
    """The one packed-margin layout, of profiles of at most `size` voters on
    m alternatives: m*m fields, field (x, y) at bit stride * (x*m + y), the
    narrowest stride of 8, 16, 32 and 64 bits with size < 2**(stride - 1).

    A ballot's encoding (memoized, up to 65,536 ballots) adds 1 to each
    field (x, y) it ranks x over y and subtracts 1 from the mirrored one. A
    profile's code is bias + its ballots' encodings, bias the top bit of
    every field, so field (x, y) holds g(x, y) + 2**(stride - 1) in
    [0, 2**stride), and `flat` flips each top bit to read g(x, y) back as a
    signed int. Subtracting 1 from every field (`add`) borrows from none and
    leaves its top bit (`guard`) set exactly when g(x, y) > 0: the relation
    `key`, in bijection with the strict majority relation.
    """

    def __init__(self, m: int, size: int):
        self.m = m
        self.size = size
        if size >= 1 << 63:
            raise ValueError(f"a margin code holds at most 2**63 - 1 voters, not {size}")
        self.stride = stride = next(s for s in _FIELD_FORMATS if size < 1 << s - 1)
        self.shifts = tuple(i * stride for i in range(m * m))
        ones = sum(1 << s for s in self.shifts)
        self.bias = self.guard = ones << stride - 1
        self.add = -ones
        self.nbytes = stride // 8 * m * m
        self._unpack = struct.Struct(f"<{m * m}{_FIELD_FORMATS[stride]}").unpack
        self.enc = lru_cache(maxsize=1 << 16)(self._encoded)

    def _encoded(self, ballot: Ballot) -> int:
        m, shifts = self.m, self.shifts
        code = 0
        for hi, x in enumerate(ballot):
            for y in ballot[hi + 1:]:
                code += (1 << shifts[x * m + y]) - (1 << shifts[y * m + x])
        return code

    def of(self, ballots) -> int:
        if len(ballots) > self.size:
            raise ValueError(f"margin code sized for {self.size} voters got {len(ballots)}")
        return sum(map(self.enc, ballots), self.bias)

    def key(self, code: int) -> int:
        """The relation key: top bit (x, y) set iff g(x, y) > 0."""
        return (code + self.add) & self.guard

    def flat(self, code: int) -> tuple[int, ...]:
        """The margins of the code as a flat row-major tuple of m*m ints."""
        return self._unpack((code ^ self.bias).to_bytes(self.nbytes, "little"))

    def strict(self, key: int) -> tuple[int, ...]:
        """The strict-beat masks of the relation key."""
        m, stride = self.m, self.stride
        strict = [0] * m
        key >>= stride - 1
        while key:
            low = key & -key
            x, y = divmod((low.bit_length() - 1) // stride, m)
            strict[x] |= 1 << y
            key ^= low
        return tuple(strict)


@lru_cache(maxsize=None)
def _wide_code(m: int) -> _MarginCode:
    """The 64-bit code of m alternatives, which sums any electorate."""
    return _MarginCode(m, (1 << 63) - 1)


def _margins_flat(ballots, m: int) -> tuple[int, ...]:
    """The margins of the ballots as a flat row-major tuple of m*m ints."""
    code = _wide_code(m)
    return code.flat(code.of(ballots))


# numpy and the little-endian int64 dtype, bound by the first `margins`
# call: only its public return type needs them
_np = _int64 = None


def margins(profile: Profile):
    """The m-by-m int64 numpy array g with g[x, y] = #(x over y) - #(y over x)."""
    global _np, _int64
    if _np is None:
        import numpy as _np
        _int64 = _np.dtype("<i8")
    m = profile.m
    code = _wide_code(m)
    data = (code.of(profile.ballots) ^ code.bias).to_bytes(code.nbytes, "little")
    # over a bytearray, so that the array is writable as a fresh np.array would be
    return _np.ndarray((m, m), _int64, bytearray(data))


def _strict_masks_from_flat(flat, m: int, threshold: int = 0) -> tuple[int, ...]:
    """Strict-beat masks of the relation 'x over y iff g(x, y) > threshold'."""
    strict = [0] * m
    for x in range(m):
        row = x * m
        acc = 0
        for y in range(m):
            if flat[row + y] > threshold:
                acc |= 1 << y
        strict[x] = acc
    return tuple(strict)


@_frozen
@dataclass(frozen=True, slots=True)
class MajorityRelation:
    """The complete majority relation: for x != y, either x beats y, y beats x, or they tie.

    Stored as one bit mask per alternative listing the alternatives it
    strictly beats; ties are the pairs where neither side beats the other.
    """

    m: int
    strict: tuple[int, ...]

    def __post_init__(self):
        m = _integer(self.m, "m")
        _set(self, "m", m)
        if m < 1:
            raise ValueError("need at least one alternative")
        try:
            strict = tuple(map(operator.index, self.strict))
        except TypeError:
            raise ValueError("strict masks must be a sequence of integers") from None
        object.__setattr__(self, "strict", strict)
        if len(strict) != self.m:
            raise ValueError("strict masks must have one entry per alternative")
        for x, mask in enumerate(strict):
            if not 0 <= mask < 1 << self.m:
                raise ValueError(f"mask {mask:#x} of alternative {x} out of range for m={self.m}")
        for x, mask in enumerate(strict):
            if mask >> x & 1:
                raise ValueError("an alternative cannot beat itself")
            for y in _bits(mask):
                if strict[y] >> x & 1:
                    raise ValueError(f"both {x} beats {y} and {y} beats {x}")

    @classmethod
    def from_margins(cls, g) -> "MajorityRelation":
        try:
            rows = [list(row) for row in g]
            m = len(rows)
            flat = [v for row in rows for v in row]
            # an entry that is itself a sequence (a 3-D array) is not a margin
            if m and all(len(row) == m for row in rows) and all(isinstance(v, Real) for v in flat):
                return cls(m, _strict_masks_from_flat(flat, m))
        except TypeError:
            pass
        raise ValueError("margin matrix must be square")

    @classmethod
    def from_profile(cls, profile: Profile) -> "MajorityRelation":
        flat = _margins_flat(profile.ballots, profile.m)
        return cls(profile.m, _strict_masks_from_flat(flat, profile.m))

    def strictly_prefers(self, x: int, y: int) -> bool:
        return self.strict[x] >> y & 1 == 1

    def weakly_prefers(self, x: int, y: int) -> bool:
        return x == y or self.strict[y] >> x & 1 == 0

    def ties(self, x: int, y: int) -> bool:
        return x != y and not self.strictly_prefers(x, y) and not self.strictly_prefers(y, x)

    def weak_masks(self) -> tuple[int, ...]:
        """weak[x] = alternatives y != x with x weakly over y (not y beats x)."""
        m, strict = self.m, self.strict
        return tuple(
            sum(1 << y for y in range(m) if y != x and not strict[y] >> x & 1) for x in range(m)
        )


def _unchecked_relation(m: int, strict: tuple[int, ...]) -> MajorityRelation:
    """A MajorityRelation of m int masks in range, irreflexive and
    asymmetric, unchecked."""
    rel = _new(MajorityRelation)
    _set(rel, "m", m)
    _set(rel, "strict", strict)
    return rel


def relation(g) -> MajorityRelation:
    """The majority relation induced by a margin matrix."""
    return MajorityRelation.from_margins(g)


def enumerate_ballots(m: int) -> list[Ballot]:
    """All m! ballots in lexicographic order."""
    return list(itertools.permutations(range(m)))


def enumerate_relations(m: int):
    """All complete majority relations on m >= 1 alternatives (3 per
    unordered pair), refusing m < 1 at the call."""
    if m < 1:
        raise ValueError("need at least one alternative")
    return _relations(m)


def _relations(m: int):
    for strict in _relation_masks(m):
        yield _unchecked_relation(m, strict)


def _relation_masks(m: int):
    """The strict masks of each relation `enumerate_relations(m)` yields, in
    its order."""
    pairs = tuple(itertools.combinations(range(m), 2))
    return itertools.chain.from_iterable(_batches(pairs, (0,) * m))


# the last pairs, whose choices are made a level at a time: 3**6 relations per batch
_BATCH_PAIRS = 6


def _batches(pairs, strict):
    """The strict masks of every choice on `pairs` added to `strict`, in
    product order, in lists of at most 3**_BATCH_PAIRS. The masks after each
    prefix of choices are built once and shared by every relation that
    extends them."""
    if len(pairs) > _BATCH_PAIRS:
        for prefix in _extended([strict], pairs[:1]):
            yield from _batches(pairs[1:], prefix)
    else:
        yield _extended([strict], pairs)


def _extended(level, pairs):
    """Each strict-mask tuple of `level` with one choice per pair x < y
    added, pair by pair (x beats y, y beats x, a tie; the first pair
    slowest)."""
    for x, y in pairs:
        xy, yx = 1 << y, 1 << x
        extended = []
        for s in level:
            extended += (s[:x] + (s[x] | xy,) + s[x + 1:], s[:y] + (s[y] | yx,) + s[y + 1:], s)
        level = extended
    return level


# ---------------------------------------------------------------------------
# Condorcet concepts and dominant sets


def _condorcet_winner(strict, m: int) -> int | None:
    full = (1 << m) - 1
    for x in range(m):
        if strict[x] == full ^ 1 << x:
            return x
    return None


def _condorcet_loser(strict, m: int) -> int | None:
    # bit x survives iff every y != x beats x, so at most one does for m >= 2
    losers = (1 << m) - 1
    for y in range(m):
        losers &= strict[y] | 1 << y
    return losers.bit_length() - 1 if losers else None


def condorcet_winner(rel: MajorityRelation) -> int | None:
    """The alternative beating all others, if any (for m=1 that is alternative 0)."""
    return _condorcet_winner(rel.strict, rel.m)


def condorcet_loser(rel: MajorityRelation) -> int | None:
    """The alternative beaten by all others, if any (for m=1 that is alternative 0)."""
    return _condorcet_loser(rel.strict, rel.m)


def is_dominant(rel: MajorityRelation, choice: ChoiceSet | int) -> bool:
    """True iff every member strictly beats every non-member (X = A is vacuously dominant)."""
    m = rel.m
    if isinstance(choice, ChoiceSet):
        mask = _fits(choice, m)
    else:
        mask = _integer(choice, "choice")
        if not 0 <= mask < 1 << m:
            raise ValueError(f"mask {mask:#x} out of range for m={m}")
    if mask == 0:
        raise ValueError("dominance is defined for non-empty sets only")
    return _dominant(rel.strict, mask)


def _dominant(strict, mask: int) -> bool:
    comp = ((1 << len(strict)) - 1) & ~mask
    return all(strict[x] & comp == comp for x in _bits(mask))


@lru_cache(maxsize=_KERNEL_MEMO)
def _tc_mask(strict: tuple[int, ...], subset: int) -> int:
    """Smallest dominant subset of `subset` under the relation restricted to it."""
    # Seed with an alternative with the most strict wins inside `subset`. It
    # lies in the smallest dominant set T: a member of T beats all of
    # subset - T, while an outsider beats no member of T and so wins at most
    # |subset - T| - 1 times. Adding everything that the current set does not
    # all strictly beat never leaves T, and stops exactly at T.
    best, best_wins = -1, -1
    rest = subset
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        wins = (strict[x] & subset).bit_count()
        if wins > best_wins:
            best, best_wins = x, wins
        rest ^= low
    s = 1 << best
    beats_all = strict[best] & subset
    add = subset & ~s & ~beats_all
    while add:
        s |= add
        while add:
            low = add & -add
            beats_all &= strict[low.bit_length() - 1]
            add ^= low
        add = subset & ~s & ~beats_all
    return s


def top_cycle(rel: MajorityRelation) -> ChoiceSet:
    """The smallest dominant set, equivalently the maximal elements of the
    transitive closure of the weak majority relation (ties traversable both ways)."""
    return _unchecked_choice(rel.m, _tc_mask(rel.strict, (1 << rel.m) - 1))


def dominant_chain(rel: MajorityRelation) -> tuple[ChoiceSet, ...]:
    """All dominant sets, in increasing inclusion order; the first is the top cycle.

    Each next link adds the smallest dominant subset of the remaining
    alternatives, which is exactly how the inclusion chain of dominant sets
    is generated.
    """
    m = rel.m
    return tuple([_unchecked_choice(m, s) for s in _chain(rel.strict)])


def _chain(strict):
    """The masks of `dominant_chain`, each link computed when asked for:
    every dominant set, in increasing inclusion order."""
    full = (1 << len(strict)) - 1
    s = 0
    while s != full:
        s |= _tc_mask(strict, full & ~s)
        yield s


@lru_cache(maxsize=_KERNEL_MEMO)
def _schwartz_mask(strict: tuple[int, ...], m: int) -> int:
    """Maximal elements of the transitive closure of the strict part only."""
    # reach[x]: everything x reaches in one or more strict steps. A step to
    # an earlier y adds y's finished closure at once, and nothing in it needs
    # visiting again.
    reach = []
    for x in range(m):
        r = todo = strict[x]
        while todo:
            low = todo & -todo
            todo ^= low
            y = low.bit_length() - 1
            if y < x:
                r |= reach[y]
                todo &= ~reach[y]
            else:
                more = strict[y] & ~r
                r |= more
                todo |= more
        reach.append(r)
    # y dominates what it reaches and is not reached back by. Off a cycle (y
    # does not reach itself) that is all it reaches; on one it is all but
    # y's cycle class, whose members reach the same set and are skipped.
    dominated = seen = 0
    for y, r in enumerate(reach):
        if seen >> y & 1:
            continue
        if not r >> y & 1:
            dominated |= r
            continue
        cls = 0
        rest = r
        while rest:
            low = rest & -rest
            rest ^= low
            if reach[low.bit_length() - 1] >> y & 1:
                cls |= low
        dominated |= r & ~cls
        seen |= cls
    return ((1 << m) - 1) & ~dominated


def schwartz_set(rel: MajorityRelation) -> ChoiceSet:
    """Maximal elements of the transitive closure of the strict part only."""
    return _unchecked_choice(rel.m, _schwartz_mask(rel.strict, rel.m))


def restrict(rel: MajorityRelation, members) -> tuple[MajorityRelation, tuple[int, ...]]:
    """The relation induced on a non-empty subset, plus the new-index -> old-index map."""
    if isinstance(members, ChoiceSet):
        old = tuple(_bits(_fits(members, rel.m)))
    else:
        old = tuple(sorted({_alternative(x, rel.m) for x in members}))
    if not old:
        raise ValueError("cannot restrict to the empty set")
    back = {x: i for i, x in enumerate(old)}
    strict = [0] * len(old)
    for i, x in enumerate(old):
        for y in _bits(rel.strict[x]):
            if y in back:
                strict[i] |= 1 << back[y]
    return MajorityRelation(len(old), tuple(strict)), old


@lru_cache(maxsize=_KERNEL_MEMO)
def _connected_masks(strict: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Every alternative's connected set, as masks indexed by alternative."""
    # An x outside the top cycle leaves it whole: it stays dominant without
    # x, and minimal, since a smaller dominant subset would beat x too.
    # Inside, read off the covering cycle c_0 ... c_{k-1}, each member
    # weakly over the next (k >= 2). For x = c_i, tc - x is dominant in
    # A - x, so the top cycle of A - x lies inside it; and the path
    # c_{i+1} ... c_{i-1} covers tc - x along weak edges. The strong
    # components of a complete relation are linearly ordered, each member
    # of a higher one beating every member of a lower one, so the path
    # walks down them in order: the top cycle of A - x is its shortest
    # prefix whose members all strictly beat the rest of tc - x, and the
    # connected set is that rest. When c_{i-1} is weakly over c_{i+1} the
    # path closes into a cycle, tc - x is one component, and nothing leaves.
    cycle = _covering_cycle(strict, m)
    connected = [0] * m
    if cycle is None:
        return tuple(connected)
    tc = _tc_mask(strict, (1 << m) - 1)
    k = len(cycle)
    for i, x in enumerate(cycle):
        if not strict[cycle[i + 1 - k]] >> cycle[i - 1] & 1:
            continue
        rest = tc ^ 1 << x
        # below: what every member of the prefix beats, which never holds
        # the prefix itself; the prefix is dominant when that is the rest
        prefix, below = 0, rest
        for j in range(i + 1 - k, i):
            y = cycle[j]
            prefix |= 1 << y
            below &= strict[y]
            if below == rest ^ prefix:
                break
        connected[x] = below
    return tuple(connected)


def connected_set(rel: MajorityRelation, x: int) -> ChoiceSet:
    """Alternatives (other than x) that drop out of the top cycle when x is removed.

    Empty whenever x is not needed to hold the top cycle together; only
    members of a top cycle of size >= 3 can have a non-empty connected set.
    """
    m = rel.m
    try:
        if type(x) is not bool and 0 <= x < m:
            return _unchecked_choice(m, _connected_masks(rel.strict, m)[x])
    except TypeError:  # x is not an integer
        pass
    raise ValueError(f"alternative {x!r} out of range for m={m}")


def covering_cycle(rel: MajorityRelation) -> tuple[int, ...] | None:
    """A cycle in the weak relation visiting exactly the top cycle, or None if it
    is a singleton.

    Built constructively: find any short cycle inside the top cycle by walking
    lowest-index weak predecessors, then grow it. The lowest outside
    alternative with both an incoming and an outgoing connection is spliced in
    after the first member it can follow; otherwise the remainder splits into
    a layer above and a layer below the cycle and the first crossing pair
    (lowest upper member, then lowest lower one) is appended. The result is
    deterministic for a given relation.
    """
    return _covering_cycle(rel.strict, rel.m)


@lru_cache(maxsize=_KERNEL_MEMO)
def _covering_cycle(strict: tuple[int, ...], m: int) -> tuple[int, ...] | None:
    """The covering cycle of `covering_cycle`, on the strict-beat masks."""
    tc = _tc_mask(strict, (1 << m) - 1)
    if not tc & tc - 1:
        return None

    # Walk predecessors (u weakly over v: v does not beat u) until a repeat
    # closes a cycle. Every member of a top cycle of two or more has a weak
    # predecessor inside it, or it alone would be dominant.
    low = tc & -tc
    walk, seen = [], 0
    while not seen & low:
        seen |= low
        v = low.bit_length() - 1
        walk.append(v)
        preds = tc & ~strict[v] & ~low
        low = preds & -preds
    start = walk.index(low.bit_length() - 1)
    cycle = walk[start:][::-1]
    cycle_mask = seen
    for v in walk[:start]:
        cycle_mask ^= 1 << v

    while cycle_mask != tc:
        above = below = 0
        rest = tc & ~cycle_mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            y = bit.bit_length() - 1
            into = cycle_mask & ~strict[y]  # members weakly over y
            if not into:
                above |= bit
                continue
            # splice y after the first member weakly over it whose successor
            # it is weakly over; if y is weakly over any member, going round
            # the cycle finds such a place, so with none, every member beats y
            q = len(cycle)
            for k in range(q):
                if into >> cycle[k] & 1 and not strict[cycle[k + 1 - q]] >> y & 1:
                    cycle.insert(k + 1, y)
                    cycle_mask |= bit
                    break
            else:
                below |= bit
                continue
            break
        else:
            # nothing splices: a lower member weakly over an upper one closes
            # a longer cycle (the lowest upper member, then the lowest lower)
            for hi in _bits(above):
                lows = below & ~strict[hi]
                if lows:
                    break
            lo = (lows & -lows).bit_length() - 1
            cycle += (lo, hi)
            cycle_mask |= 1 << lo | 1 << hi
    return tuple(cycle)
