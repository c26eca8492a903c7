"""The sweep engine behind `verify`: margin codes, one-ballot move tables and
memoized rule outputs. It imports only `core` and `rules`, so that code which
needs the engine without the checks can import it alone.

Margin code. The engine keeps a profile's margins as one integer. For m
alternatives and electorates of at most N voters, field i = x*m + y holds
g(x, y) + N in w = bit_length(2N) value bits (0 <= g + N <= 2N < 2^w),
followed by a guard bit that stays zero; field i starts at bit i*(w + 1), so
a code has m*m*(w + 1) bits (64 for m = 4, N = 3). A ballot's encoding
enc[b] adds 1 to each field (x, y) it ranks x over y and subtracts 1 from the
mirrored field, so:

- a profile's code is BIAS + sum(enc[b] for its ballots), BIAS holding N in
  every field;
- one voter changing ballot is code - enc[old] + enc[new], one add to the
  co-voters' code, code - enc[old] (see Move tables below);
- adding ADD, which holds 2^w - N - 1 in every field, carries into the guard
  bit of field (x, y) exactly when g(x, y) > 0, so (code + ADD) & GUARD is in
  bijection with the strict majority relation and keys majoritarian rules;
  pairwise rules key on the code itself.

Each engine has one layout, sized for the largest electorate it will see: n
for a single profile, n_max * k_hom in a universe (homogeneity tiles
profiles k_hom times, `_Scan.tiled`). The relation walk needs none: it
evaluates each relation's strict masks directly (`verify._RelationEngine`).
Strict masks and margin vectors are decoded only on a memo miss, or when a
check reads them from the scan context.

Move tables. Every one-ballot change a check tries (a misreport, a
relabeling of the alternatives, a reinforcing swap, a top pushed to the
bottom, a reordered ballot block) is read from one ballot table per m,
`_Ballots`, which every layout of that m shares: the m! ballots by rank in
lexicographic order, each one's rank, and one bounded store of the tables
read off them. Per (move kind, ballot, output), the output only for kinds
that read it, `_Ballots.ranked` keeps a `_Ranks` table: the rank of each new
ballot, in the kind's own generator order, so every first witness is kept,
and the moves' infos unless all are None. A layout keeps only each ballot's
encoding by rank, so enc[new] - enc[ballot] is read off the encodings, which
the group search does for each member's misreports. Neutrality reads
`_Ballots.relabelings`, per ballot the ranks of its relabelings, the
permutations of range(m) in rank order from 1 on, built per ballot when
first met, since a complete table of m! by m! ranks takes 3.2 GB at m = 8;
the orbit walk's least-of-class test reads the same tables. One step,
`_moved`, turns a table into the moves that change the output. It skips a
voter whose ballot an earlier voter has: every rule reads the ballots only
as a multiset (the tests check each profile-based evaluator), so that
voter's moves reach the same outputs. On a code-keyed (majoritarian or
pairwise) engine the output after any move of a voter is a function of two
things, the margin code its co-voters cast (code - enc[ballot]) and the new
ballot; so the engine keeps one row per co-voters' code, a `_Row` of m!
output masks indexed by the rank of the ballot in the voter's place, 0 where
not yet evaluated (no output is empty); a byte holds every mask up to m = 8,
and a wider array type serves past that. Every move kind reads the row and
fills it with each output it looks up, in the order its moves are tried,
starting from the honest output: no search evaluates an output it did not
evaluate before, and an evaluation that raises stores nothing, so every
error still surfaces at the first move that raises it. A row that holds all
m! ballots keeps the union of its outputs as a bit set over output masks. A
profile-based engine looks up the electorate after each move instead.

Memo lifetime. A rule on one layout keeps one engine, shared by every call
and walk in the process but a replay, so calling `find_manipulation` once
per profile evaluates each relation once. Every single-voter search (both
readings, in `find_manipulation`, `find_strong_manipulation`, every walk and
`replay`) asks `_Engine.misreport` for the first voter, among those whose
ballot no earlier voter has, with a misreport whose output is in the accept
mask of the lifting and reading, and that misreport. A walk passes the
fields of its `_Scan`. A one-profile search builds no scan context: it asks
straight from the profile's code (`_MarginCode.of`) with honest=None, and
reads the honest output (`_Engine.output`) back only to build a witness. On
a code-keyed engine the honest output is fixed by the code, so each voter's
answer depends on (lifting, reading, code) and its ballot alone, and the
verdict memo `verdicts` keeps, per (lifting, reading, code), a dict from
each voter's ballot to its answer: a hit as the one-move tuple
((new_ballot, info, output after),) at once, None as () only once every
misreport has been evaluated, so an evaluation error is never stored. So a
search hashes its key once and then each distinct voter's ballot. The
honest output is evaluated at the first voter the memo does not answer, as
is the accept mask: a search answered in full evaluates nothing, and a code
with a stored answer is one whose honest output was evaluated without an
error, so every error still surfaces. On a miss a complete row answers None
at once when the accept mask misses its union, and otherwise gives the
first misreport in table order whose output in the row is accepted. A
profile-based engine keeps no verdicts, so it evaluates the honest output at
its first voter and asks every time. `_engine` hands the engines out, keyed
also on the evaluator the rule's basis table holds, so that a replaced
evaluator never reads outputs of the old one; a repeated
call with the same rule object and evaluator is answered from the last
call's engine without hashing the rule. A profile-based engine keys its
outputs on the electorate, the sorted ballot tuple, since every evaluator
reads a multiset, so every ordering of one electorate shares one output. The
output memo, the move tables (ranked moves and relabelings alike), the rows
and the verdict memo are each a `_Tables`, bounded when an entry is stored:
past `_MEMO_ENTRIES` (an output or a voter's verdict weighs one, a row or a
`_Ranks` table one unit per 64 bytes, rounded up: a row 2 at m = 5 and 12
at m = 6) it starts afresh before the next is stored, even during a walk;
only each m's ballots and ranks and each layout's encodings are kept
unbounded. Errors (ties, empty choices, out-of-range parameters) are never
memoized.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from math import factorial
from operator import itemgetter

from .core import Ballot, Profile, enumerate_ballots
from .rules import (
    _MAJORITARIAN,
    _PAIRWISE,
    _PROFILE_BASED,
    BasisTag,
    InstanceTooLargeError,
    RuleSpec,
    _nonempty,
    basis,
    evaluate_mask,
    evaluate_mask_from_margins,
    evaluate_mask_from_relation,
)

# engines shared across calls, and the entries past which a memo starts
# afresh; 3^10 relations on five alternatives fit
_SHARED_ENGINES = 8
_MEMO_ENTRIES = 1 << 16


class _Tables(dict):
    """Memo entries weighted by their size: an array (a `_Row`, a `_Ranks`
    table) by its bytes, one unit per 64 rounded up, any other value one;
    once the weight passes `_MEMO_ENTRIES` they start afresh when the next
    is stored."""

    weight = 0

    def store(self, key, value):
        if self.weight > _MEMO_ENTRIES:
            self.clear()
            self.weight = 0
        self[key] = value
        self.weight += value.units() if isinstance(value, (_Row, _Ranks)) else 1
        return value


@lru_cache(maxsize=None)
def _typecode(bits: int) -> str:
    """The narrowest array type whose items hold `bits` bits."""
    for code in "BHIQ":
        if array(code).itemsize * 8 >= bits:
            return code
    raise InstanceTooLargeError(f"no array type holds {bits}-bit items")


class _Row:
    """The outputs of the profiles that one voter's co-voters make with each
    of the m! ballots in the voter's place, by the ballot's rank in
    lexicographic order, as far as they have been evaluated: 0 where not yet,
    since no output is empty. A byte holds every output mask up to m = 8
    (`_ByteRow`); past that the row is an array of the narrowest type that
    holds m bits (`_WideRow`)."""

    __slots__ = ()

    def complete(self) -> int:
        """Once the row holds every ballot, the union of its outputs (bit X
        set iff some ballot's output is X); 0 before."""
        if not self.union and 0 not in self:
            union = 0
            for out in set(self):
                union |= 1 << out
            self.union = union
        return self.union

    def units(self) -> int:
        return -(-memoryview(self).nbytes // 64)


class _ByteRow(_Row, bytearray):
    __slots__ = ("union",)


class _WideRow(_Row, array):
    __slots__ = ("union",)


def _empty_row(m: int, full: int) -> _Row:
    """A row of `full` ballots on m alternatives, none evaluated yet."""
    code = _typecode(m)
    if code == "B":
        row = _ByteRow(full)
    else:
        row = _WideRow(code, bytes(full * array(code).itemsize))
    row.union = 0
    return row


# the infos of a table whose infos are all None
_NO_INFOS = itertools.repeat(None)


class _Ranks(array):
    """A one-ballot move table: the rank of each new ballot in table order,
    and the infos of the moves, or None if every info is None."""

    __slots__ = ("infos",)

    def units(self) -> int:
        infos = self.infos
        return -(-(memoryview(self).nbytes + (8 * len(infos) if infos else 0)) // 64)


class _Ballots:
    """The m! ballots on m alternatives, shared by every layout of that m:
    the ballots by rank in lexicographic order, each one's rank, and one
    bounded store of the tables read off them, the one-ballot move tables
    and the relabeling tables."""

    def __init__(self, m: int):
        self.ballots = tuple(enumerate_ballots(m))
        self.rank = {b: rank for rank, b in enumerate(self.ballots)}
        self.rank_code = _typecode((len(self.ballots) - 1).bit_length())
        self._ranks = _Tables()

    def ranked(self, kind, ballot: Ballot, out: int | None = None) -> _Ranks:
        """The one-ballot changes `kind(ballot, out)` yields as (new_ballot,
        info), tabled once per (kind, ballot, out) in that order as a
        `_Ranks` table: the rank of each new ballot, and the infos. Kinds
        that do not read the output are asked with out=None."""
        key = (kind, ballot, out)
        table = self._ranks.get(key)
        if table is None:
            moved = list(kind(ballot, out))
            table = _Ranks(self.rank_code, [self.rank[new] for new, _ in moved])
            infos = tuple(info for _, info in moved)
            table.infos = infos if any(info is not None for info in infos) else None
            table = self._ranks.store(key, table)
        return table

    def relabelings(self, ballot: Ballot) -> _Ranks:
        """The rank of the ballot under every relabeling of the alternatives
        but the identity, the permutations of range(m) in lexicographic
        order, which are the ballots by rank from 1 on: the tuples
        (perm[x] for x in ballot)."""
        table = self._ranks.get(ballot)
        if table is None:
            relabeled = map(itemgetter(*ballot), itertools.islice(self.ballots, 1, None))
            table = _Ranks(self.rank_code, map(self.rank.__getitem__, relabeled))
            table.infos = None
            # a ballot is its own key: no (kind, ballot, out) key equals it
            table = self._ranks.store(ballot, table)
        return table


# the ballot table of each m in use, shared by its layouts
_ballots = lru_cache(maxsize=4)(_Ballots)


class _MarginCode:
    """One margin-code layout (see the module docstring): the encoding of
    every ballot of its m's table, by rank."""

    def __init__(self, m: int, size: int):
        self.m = m
        self.size = size
        self.width = (2 * size).bit_length()
        self.stride = self.width + 1
        self.shifts = tuple(i * self.stride for i in range(m * m))
        ones = sum(1 << s for s in self.shifts)
        self.bias = size * ones
        self.add = ((1 << self.width) - size - 1) * ones
        self.guard = ones << self.width
        self.table = _ballots(m)
        ballots = self.table.ballots
        self.encs = list(map(self._encoded, ballots))
        self.enc = dict(zip(ballots, self.encs)).__getitem__

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
        """The relation key: guard bit (x, y) set iff g(x, y) > 0."""
        return (code + self.add) & self.guard

    def flat(self, code: int) -> tuple[int, ...]:
        field_mask = (1 << self.width) - 1
        return tuple((code >> s & field_mask) - self.size for s in self.shifts)

    def strict(self, key: int) -> tuple[int, ...]:
        m, stride = self.m, self.stride
        strict = [0] * m
        key >>= self.width
        while key:
            low = key & -key
            x, y = divmod((low.bit_length() - 1) // stride, m)
            strict[x] |= 1 << y
            key ^= low
        return tuple(strict)


# a few layouts stay alive across calls, so that engines on one layout share
# its m! encodings
_margin_code = lru_cache(maxsize=4)(_MarginCode)


class _Engine:
    """Memoized rule outputs on one layout. The key follows the rule's basis:
    the electorate (the sorted ballots) for profile-based rules, the margin
    code for pairwise ones, the relation key for majoritarian ones. Build
    one through `_engine`, which shares it across calls."""

    def __init__(self, rule: RuleSpec, m: int, size: int):
        self.rule = rule
        self.m = m
        self.tag = basis(rule)
        self.layout = _margin_code(m, size)
        self.table = self.layout.table
        self.by_ballots = self.tag == BasisTag.PROFILE_BASED
        # (code + add) & guard is the key; pairwise rules keep the code whole
        if self.tag == BasisTag.MAJORITARIAN:
            self.add, self.guard = self.layout.add, self.layout.guard
        else:
            self.add, self.guard = 0, -1
        self.cache = _Tables()
        # on a code-keyed engine one `_Row` per co-voters' code and, per
        # (lifting, reading, code), each voter's first accepted misreport by
        # its ballot
        self.full = factorial(m)
        self.rows = _Tables()
        self.verdicts = _Tables()

    def scan(self, ballots) -> "_Scan":
        """The scan context of the profile of these ballots."""
        return _Scan(self, ballots)

    def output(self, code: int, ballots) -> int:
        """The output on the profile with this code; `ballots` is read by
        profile-based rules only."""
        key = tuple(sorted(ballots)) if self.by_ballots else (code + self.add) & self.guard
        out = self.cache.get(key)
        if out is None:
            out = self.miss(key, code)
        return out

    def miss(self, key, code: int) -> int:
        """The single memo-miss site."""
        if self.by_ballots:
            mask = evaluate_mask(self.rule, key, self.m)
        elif self.tag == BasisTag.PAIRWISE:
            mask = evaluate_mask_from_margins(self.rule, self.layout.flat(code), self.m)
        else:
            mask = evaluate_mask_from_relation(self.rule, self.layout.strict(key), self.m)
        return self.cache.store(key, _nonempty(self.rule, mask))

    def relabeled(self, ballots):
        """The output on each relabeling of the profile but the identity, in
        the order of `_Ballots.relabelings`, each evaluated when asked
        for."""
        layout, table = self.layout, self.table
        columns = zip(*map(table.relabelings, ballots))
        encs, bias = layout.encs.__getitem__, layout.bias
        if self.by_ballots:
            at = table.ballots.__getitem__
            for column in columns:
                yield self.output(sum(map(encs, column), bias), tuple(map(at, column)))
            return
        add, guard, known = self.add, self.guard, self.cache.get
        for column in columns:
            code = sum(map(encs, column), bias)
            key = (code + add) & guard
            out = known(key)
            yield self.miss(key, code) if out is None else out

    def misreport(self, ballots, code: int, honest: int | None, reading, lifting):
        """The first voter with a misreport (see `_misreports`) whose output
        after is in the accept mask reading(lifting, ballot, honest), and
        its first such misreport, as (voter, new_ballot, info, output
        after), or None. A voter whose ballot an earlier voter has reaches
        the same outputs, so it is skipped. Given honest=None, the honest
        output is evaluated at the first voter not answered from the memo.
        A code-keyed engine keeps each voter's answer under (lifting,
        reading, code), by ballot: a hit as a one-move tuple at once, None
        as () only once every misreport has been evaluated, so an
        evaluation error is never stored. On a miss, a complete row whose
        outputs the accept mask misses answers None at once."""
        by_ballots, verdicts = self.by_ballots, self.verdicts
        key = None if by_ballots else (lifting, reading, code)
        known = None if by_ballots else verdicts.get(key)
        for voter, ballot in enumerate(ballots):
            if ballots.index(ballot) != voter:
                continue
            found = None if known is None else known.get(ballot)
            if found is None:
                if honest is None:
                    honest = self.output(code, ballots)
                accept, found = reading(lifting, ballot, honest), ()
                if by_ballots:
                    union = 0
                else:
                    row = self._row(ballot, code, honest)
                    union = row.union or row.complete()
                if not union or accept & union:
                    for move in self._reaching(ballots, voter, code, honest, _misreports, None):
                        if accept >> move[2] & 1:
                            found = (move,)
                            break
                if key is not None:
                    # each answer is stored through `store`, so it weighs
                    # one; a dict that `store` is about to drop is not stored
                    # again, a fresh one is
                    if known is None or verdicts.weight > _MEMO_ENTRIES:
                        known = {}
                    known[ballot] = found
                    verdicts.store(key, known)
            if found:
                return (voter, *found[0])
        return None

    def _row(self, ballot: Ballot, code: int, honest: int) -> _Row:
        """The row of the co-voters of a voter casting `ballot` in the
        profile with this code and output, started from that output if
        new."""
        rank = self.table.rank[ballot]
        others = code - self.layout.encs[rank]
        row = self.rows.get(others)
        if row is None:
            row = _empty_row(self.m, self.full)
            row[rank] = honest
            self.rows.store(others, row)
        return row

    def _reaching(self, ballots, voter, code, honest, kind, out):
        """The output after each move of `kind` by `voter`, as (new_ballot,
        info, output after) in table order. A code-keyed engine reads it from
        the row of the voter's co-voters and stores there each output it
        looks up; a profile-based one asks `output` for the moved ballots."""
        ballot, at, encs = ballots[voter], self.table.ballots, self.layout.encs
        moves = self.table.ranked(kind, ballot, out)
        moved = zip(moves, moves.infos or _NO_INFOS)
        others = code - encs[self.table.rank[ballot]]
        if self.by_ballots:
            head, tail = ballots[:voter], ballots[voter + 1:]
            for rank, info in moved:
                new_ballot = at[rank]
                after = self.output(others + encs[rank], head + (new_ballot,) + tail)
                yield new_ballot, info, after
            return
        add, guard, known, miss = self.add, self.guard, self.cache.get, self.miss
        row = self._row(ballot, code, honest)
        for rank, info in moved:
            after = row[rank]
            if not after:
                new = others + encs[rank]
                key = (new + add) & guard
                after = known(key)
                if after is None:
                    after = miss(key, new)
                row[rank] = after
            yield at[rank], info, after


class _SharedEngines:
    """The engines shared across calls: the `_SHARED_ENGINES` most recently
    used, by (rule, m, size, evaluator), and the last call's (rule, m, size,
    evaluator, engine), which a repeated call with the same rule object
    answers without hashing the rule."""

    def __init__(self):
        self.built = lru_cache(maxsize=_SHARED_ENGINES)(
            lambda rule, m, size, evaluator: _Engine(rule, m, size)
        )
        self.last = (None,) * 5

    def cache_clear(self) -> None:
        self.built.cache_clear()
        self.last = (None,) * 5


_shared_engine = _SharedEngines()


def _engine(rule: RuleSpec, m: int, size: int) -> _Engine:
    """The shared engine of the rule on layout (m, size) and of the evaluator
    the rule's basis table holds; a call that repeats the last one gets its
    engine back, compared item by item without hashing the rule."""
    last_rule, last_m, last_size, last_eval, engine = _shared_engine.last
    rid = rule.id
    evaluator = _MAJORITARIAN.get(rid) or _PAIRWISE.get(rid) or _PROFILE_BASED.get(rid)
    if last_rule is not rule or last_eval is not evaluator or last_m != m or last_size != size:
        engine = _shared_engine.built(rule, m, size, evaluator)
        _shared_engine.last = (rule, m, size, evaluator, engine)
    return engine


class _Scan:
    """The scan context of one profile a walk meets: its ballots, margin code
    and memoized output. The relation key, the margin vector and the strict
    masks are decoded on first use. The one-profile searches build none."""

    __slots__ = ("engine", "m", "ballots", "code", "out", "_key", "_flat", "_strict")

    def __init__(self, engine: _Engine, ballots):
        self.engine = engine
        self.m = engine.m
        self.ballots = ballots
        self.code = code = engine.layout.of(ballots)
        self.out = engine.output(code, ballots)
        self._key = self._flat = self._strict = None

    @property
    def key(self) -> int:
        key = self._key
        if key is None:
            key = self._key = self.engine.layout.key(self.code)
        return key

    @property
    def flat(self) -> tuple[int, ...]:
        flat = self._flat
        if flat is None:
            flat = self._flat = self.engine.layout.flat(self.code)
        return flat

    @property
    def strict(self) -> tuple[int, ...]:
        strict = self._strict
        if strict is None:
            strict = self._strict = self.engine.layout.strict(self.key)
        return strict

    def tiled(self, k: int) -> int:
        """The output on k copies of the electorate, whose margins are k
        times the profile's."""
        bias = self.engine.layout.bias
        return self.engine.output(bias + k * (self.code - bias), self.ballots * k)

    @property
    def profile(self) -> Profile:
        return Profile(self.m, self.ballots)


def _moved(ctx: _Scan, kind, out: int | None = None):
    """The one-ballot moves of `kind` (see `_Ballots.ranked`) that change
    the scanned profile's output, voter by voter in table order, as (voter,
    new_ballot, info, output after the move).

    Every consumer judges a move by the voter's ballot, its info and the
    output after it alone, accepts none that leaves the output as it was, and
    stops at the first it accepts. So a voter whose ballot an earlier voter
    has is skipped: the same moves reach the same outputs. Every move tried
    is evaluated in order, so an evaluation error surfaces at the first move
    that raises it."""
    engine, ballots, code, honest = ctx.engine, ctx.ballots, ctx.code, ctx.out
    for voter, ballot in enumerate(ballots):
        if ballots.index(ballot) == voter:
            moves = engine._reaching(ballots, voter, code, honest, kind, out)
            for new_ballot, info, after in moves:
                if after != honest:
                    yield voter, new_ballot, info, after


def _misreports(true_ballot: Ballot, _out=None):
    """All deviations, nearest first: lexicographic in the voter's own ranking
    (the permutations of the ballot in order, less the first, itself), each
    with no info."""
    for mis in itertools.islice(itertools.permutations(true_ballot), 1, None):
        yield mis, None
