"""The sweep engine behind `verify`: margin codes, one-ballot move tables and
memoized rule outputs. It imports only `core` and `rules`, so that code which
needs the engine without the checks can import it alone.

Margin code. The engine keeps a profile's margins as one integer, the
margin code of `core._MarginCode`, where its fields, bias and relation key
are stated: a profile's code is bias + sum(enc[b] for its ballots), and one
voter changing ballot is code - enc[old] + enc[new], one add to the
co-voters' code, code - enc[old] (see Move tables below). Majoritarian rules
key on the relation key, (code + add) & guard; pairwise rules on the code
itself.

Each engine has one layout, sized for the largest electorate it will see: n
for a single profile, n_max * k_hom in a universe (homogeneity tiles
profiles k_hom times, `_Scan.tiled`). The relation walk needs none: it
evaluates each relation's strict masks directly (`verify._RelationScan`).
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
encoding by rank, so enc[new] - enc[ballot] is read off the encodings, as
`_Engine.reports` does for each member of a group deviation. `_Ballots` is
the only reader of the order of its relabeling tables, the permutations of
range(m) in rank order from 1 on: `relabelings`, per ballot the ranks of its
relabelings, built per ballot when first met, since a complete table of m!
by m! ranks takes 3.2 GB at m = 8; `relabeled_mask`, an output mask under
each relabeling; `permutation`, the relabeling at an index of both; and
`representatives`, the orbit walk's least-of-class test, which reads the
relabeling tables at the index of each ballot's inverse. One step,
`_moved`, turns a table into the moves that change the output. It skips a
voter whose ballot an earlier voter has: every rule reads the ballots only
as a multiset (the tests check each profile-based evaluator), so that
voter's moves reach the same outputs. The output after any move of a voter
is a function of two things, its co-voters and the new ballot: of the
margin code they cast (code - enc[ballot]) under a code-keyed (majoritarian
or pairwise) rule, and of their electorate, the sorted tuple of their
ballots, under a profile-based one. So the engine keeps one row per
co-voters' code or electorate, a `_Row` of m! output masks indexed by the
rank of the ballot in the voter's place, 0 where not yet evaluated (no
output is empty); a byte holds every mask, since the engine serves m <= 8
alternatives: `_Ballots`, where every m!-sized table starts, refuses a
larger m before building any. Every move kind reads the row and fills it
with each output it looks up, in the order its moves are tried, starting
from the honest output: no search evaluates an output it did not evaluate
before, and an evaluation that raises stores nothing, so every error still
surfaces at the first move that raises it. Only the output memo key a row
miss forms differs by basis: the key of the co-voters' code plus enc[new],
or the co-voters' electorate with the new ballot sorted in. A row that holds
all m! ballots keeps the union of its outputs as a bit set over output
masks.

Memo lifetime. A universe walk, a sweep or a `replay`, builds one engine per
call (`verify._verdicts`), dropped on return, so what a verdict costs never
depends on what ran before it. The one-profile searches, whose traffic
repeats, share the `_SHARED_ENGINES` engines last used for the life of the
process (`_engine`), so calling `find_manipulation` once per profile
evaluates each relation once. The ballot tables and layouts of the last few
m and sizes (`_ballots`, `_margin_code`) are shared by every engine on them:
they do not depend on the rule, are bounded and hold no outputs. The engine
keeps no verdicts: the memo `verdicts` on it is the one-profile search's own
(`verify._find`), which alone reads and writes it. An engine reads the
rule's entry in `rules._EVALUATORS`, its basis tag and evaluator, once when
it is built, and on each miss calls that evaluator on the part of the
profile its key holds: the electorate, the margins of the code, or the
strict masks of the relation key. So a walk reads a replaced entry at its
next call, while a shared engine keeps its evaluator until the shared
engines are cleared (`_shared_engine.cache_clear()`), which code that
replaces an entry does itself. A profile-based engine keys its outputs on
the electorate, the sorted ballot tuple, since every evaluator reads a
multiset, so every ordering of one electorate shares one output. The output
memo, the move tables (ranked moves, relabelings and relabeled masks alike),
the rows and the verdict memo are each a `_Tables`, bounded when an entry is
stored: past `_MEMO_ENTRIES` (an output or one search's verdicts weigh one,
a row or a `_Ranks` table one unit per 64 bytes, rounded up: a row 2 at
m = 5 and 12 at m = 6) it starts afresh before the next is stored, even
during a walk; only each m's ballots and ranks and each layout's encodings
are kept unbounded.
Errors (ties, empty choices, out-of-range parameters) are never memoized.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from math import factorial
from operator import itemgetter

from .core import Ballot, Profile, enumerate_ballots
from .core import _MarginCode as _CoreMarginCode
from .rules import (
    _EVALUATORS,
    _MAX_ENUMERATED_M,
    BasisTag,
    InstanceTooLargeError,
    RuleSpec,
    _nonempty,
)

# engines the one-profile searches share across calls, and the entries past
# which a memo starts afresh; 3^10 relations on five alternatives fit
_SHARED_ENGINES = 8
_MEMO_ENTRIES = 1 << 16


class _Tables(dict):
    """Memo entries weighted by their size: a `_Row` or a `_Ranks` table
    by its bytes, one unit per 64 rounded up, any other value one;
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


class _Row(bytearray):
    """The outputs of the profiles that one voter's co-voters make with each
    of the m! ballots in the voter's place, by the ballot's rank in
    lexicographic order, as far as they have been evaluated: 0 where not yet,
    since no output is empty. A byte holds every output mask of the engine's
    m <= 8 alternatives."""

    __slots__ = ("union",)

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
        return -(-len(self) // 64)


# the infos of a table whose infos are all None
_NO_INFOS = itertools.repeat(None)


class _Ranks(array):
    """A table read off the ballot table, in table order: the rank of each
    new ballot of a one-ballot move or a relabeling, or an output mask under
    each relabeling; and the infos of the moves, or None if every info is
    None."""

    __slots__ = ("infos",)

    def units(self) -> int:
        infos = self.infos
        return -(-(memoryview(self).nbytes + (8 * len(infos) if infos else 0)) // 64)


def _within_reach(m: int) -> None:
    """Refuse m > 8: the engine tables all m! ballots (`_Ballots`). A sweep
    asks this before its budget, so it builds nothing either."""
    if m > _MAX_ENUMERATED_M:
        raise InstanceTooLargeError(
            f"the sweep engine tables all m! ballots; refusing m={m} > {_MAX_ENUMERATED_M}"
        )


class _Ballots:
    """The m! ballots on m alternatives, shared by every layout of that m:
    the ballots by rank in lexicographic order, each one's rank, and one
    bounded store of the tables read off them. Every m!-sized table of the
    engine starts here, so m > 8 is refused here (`_within_reach`) before
    any is built. It alone reads the order of its relabeling tables, the
    permutations of range(m) but the identity: the ballots of rank 1 on."""

    def __init__(self, m: int):
        _within_reach(m)
        self.m = m
        self.ballots = tuple(enumerate_ballots(m))
        self.rank = {b: rank for rank, b in enumerate(self.ballots)}
        # every rank, below m!, fits a byte up to m = 5 and two up to m = 8
        self.rank_code = "B" if m <= 5 else "H"
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
        but the identity, in table order: the tuples (perm[x] for x in
        ballot)."""
        table = self._ranks.get(ballot)
        if table is None:
            relabeled = map(itemgetter(*ballot), itertools.islice(self.ballots, 1, None))
            table = _Ranks(self.rank_code, map(self.rank.__getitem__, relabeled))
            table.infos = None
            # a ballot is its own key: no (kind, ballot, out) key equals it
            table = self._ranks.store(ballot, table)
        return table

    def relabeled_mask(self, mask: int) -> _Ranks:
        """The output mask under every relabeling but the identity, in table
        order: the set {perm[x] for x in mask}."""
        table = self._ranks.get(mask)
        if table is None:
            xs = [x for x in range(self.m) if mask >> x & 1]
            images = (sum(1 << perm[x] for x in xs) for perm in self.ballots[1:])
            table = _Ranks("B", images)
            table.infos = None
            # a mask is its own key, an int, which no tuple key equals
            table = self._ranks.store(mask, table)
        return table

    def permutation(self, j: int) -> Ballot:
        """The relabeling at index j of every relabeling table."""
        return self.ballots[j + 1]

    def representatives(self, n: int):
        """One electorate of n ballots per relabeling class, in scan order:
        the least of its class, the least sorted tuple of ranks (ballot
        order is rank order), as its ballots. It holds the identity, rank 0,
        since relabeling any ballot of an electorate to the identity gives
        one of its class that does. So a candidate (0,) + rest is the least
        of its class unless a relabeling that takes one of its ballots j to
        the identity gives a smaller sorted tuple: every relabeling that
        yields a tuple holding the identity is one of those. That relabeling
        is j's inverse, at index rank - 1 of every relabeling table, and
        under it each ballot i has the rank i's table holds there. Each
        table is read once, when a candidate first holds its rank or a
        higher one."""
        ballots, rank, identity = self.ballots, self.rank, range(self.m)
        # per rank, its relabeling table and the index of its inverse there
        tables, to_identity = [], []
        for rest in itertools.combinations_with_replacement(range(len(ballots)), n - 1):
            electorate = (0, *rest)
            while len(tables) <= electorate[-1]:
                ballot = ballots[len(tables)]
                tables.append(self.relabelings(ballot))
                to_identity.append(rank[tuple(map(ballot.index, identity))] - 1)
            least, prior = list(electorate), 0
            for j in rest:
                if j != prior:
                    prior, k = j, to_identity[j]
                    if sorted([tables[i][k] for i in electorate]) < least:
                        break
            else:
                yield tuple(map(ballots.__getitem__, electorate))


# the ballot table of each m in use, shared by its layouts
_ballots = lru_cache(maxsize=4)(_Ballots)


class _MarginCode(_CoreMarginCode):
    """One margin-code layout (`core._MarginCode`) with its m's ballot
    table and the encoding of every ballot in it, by rank and by ballot."""

    def __init__(self, m: int, size: int):
        super().__init__(m, size)
        self.table = _ballots(m)
        ballots = self.table.ballots
        self.encs = list(map(self._encoded, ballots))
        self.enc = dict(zip(ballots, self.encs)).__getitem__


# a few layouts stay alive across calls, so that engines on one layout share
# its m! encodings
_margin_code = lru_cache(maxsize=4)(_MarginCode)


class _Engine:
    """Memoized rule outputs on one layout, from the evaluator of the rule's
    entry in the evaluator table, read once here. The key follows the rule's
    basis: the electorate (the sorted ballots) for profile-based rules, the
    margin code for pairwise ones, the relation key for majoritarian ones.
    A walk builds its own; one-profile searches share them (`_engine`)."""

    def __init__(self, rule: RuleSpec, m: int, size: int):
        self.rule = rule
        self.m = m
        self.tag, self.evaluator = _EVALUATORS[rule.id]
        self.layout = _margin_code(m, size)
        self.table = self.layout.table
        self.by_ballots = self.tag == BasisTag.PROFILE_BASED
        # (code + add) & guard is the key; pairwise rules keep the code whole
        if self.tag == BasisTag.MAJORITARIAN:
            self.add, self.guard = self.layout.add, self.layout.guard
        else:
            self.add, self.guard = 0, -1
        self.cache = _Tables()
        # one `_Row` per co-voters' code or electorate; `verdicts` is the
        # one-profile search's memo (`verify._find`), which the engine never reads
        self.full = factorial(m)
        self.rows = _Tables()
        self.verdicts = _Tables()

    def output(self, code: int, ballots) -> int:
        """The output on the profile with this code; `ballots` is read by
        profile-based rules only."""
        key = tuple(sorted(ballots)) if self.by_ballots else (code + self.add) & self.guard
        out = self.cache.get(key)
        if out is None:
            out = self.miss(key, code)
        return out

    def miss(self, key, code: int) -> int:
        """The single memo-miss site: the evaluator on the key's part of the
        profile, the electorate itself, the margins of the code or the
        strict masks of the relation key."""
        if self.by_ballots:
            part = key
        elif self.tag == BasisTag.PAIRWISE:
            part = self.layout.flat(code)
        else:
            part = self.layout.strict(key)
        mask = self.evaluator(self.rule, self.m, part)
        return self.cache.store(key, _nonempty(self.rule, mask))

    def relabeled(self, ballots):
        """The output on each relabeling of the profile but the identity, in
        the order of `_Ballots.relabelings`, each evaluated when asked
        for."""
        layout, table, by_ballots = self.layout, self.table, self.by_ballots
        encs, bias, at = layout.encs.__getitem__, layout.bias, table.ballots.__getitem__
        add, guard, known = self.add, self.guard, self.cache.get
        for column in zip(*map(table.relabelings, ballots)):
            code = sum(map(encs, column), bias)
            # ranks sort as their ballots do
            key = tuple(map(at, sorted(column))) if by_ballots else (code + add) & guard
            out = known(key)
            yield self.miss(key, code) if out is None else out

    def misreport(self, ballots, code: int, honest: int, reading, lifting):
        """The first voter with a misreport (see `_misreports`) whose output
        after is in the accept mask reading(lifting, ballot, honest), and
        its first such misreport, as (voter, new_ballot, info, output
        after), or None. A voter whose ballot an earlier voter has reaches
        the same outputs, so it is skipped; a complete row whose outputs the
        accept mask misses answers None at once."""
        for voter, ballot in enumerate(ballots):
            if ballots.index(ballot) != voter:
                continue
            accept = reading(lifting, ballot, honest)
            others, row = self._row(ballots, voter, code, honest)
            union = row.union or row.complete()
            if not union or accept & union:
                for move in self._reaching(ballot, others, row, _misreports, None):
                    if accept >> move[2] & 1:
                        return (voter, *move)
        return None

    def reports(self, ballot: Ballot):
        """What a voter casting `ballot` may report in a group deviation: the
        ballot itself, then its misreports in table order, each with the
        change it makes to the margin code."""
        table, encs = self.table, self.layout.encs
        at, base = table.ballots, encs[table.rank[ballot]]
        return ((ballot, 0), *((at[r], encs[r] - base) for r in table.ranked(_misreports, ballot)))

    def _row(self, ballots, voter: int, code: int, honest: int):
        """The co-voters of `voter` in the profile of these ballots, code and
        output, and their row, started from that output if new: the
        co-voters are their margin code, code - enc[ballot], or on a
        profile-based engine their electorate, the sorted ballots."""
        rank = self.table.rank[ballots[voter]]
        if self.by_ballots:
            others = tuple(sorted(ballots[:voter] + ballots[voter + 1:]))
        else:
            others = code - self.layout.encs[rank]
        row = self.rows.get(others)
        if row is None:
            row = _Row(self.full)
            row.union = 0
            row[rank] = honest
            self.rows.store(others, row)
        return others, row

    def _reaching(self, ballot: Ballot, others, row: _Row, kind, out):
        """The output after each move of `kind` by a voter casting `ballot`,
        as (new_ballot, info, output after) in table order, read from the
        row of its co-voters `others` (see `_row`); each output the row
        lacks is looked up, under the code or the electorate the move makes,
        and stored there."""
        at, encs, by_ballots = self.table.ballots, self.layout.encs, self.by_ballots
        moves = self.table.ranked(kind, ballot, out)
        add, guard, known, miss = self.add, self.guard, self.cache.get, self.miss
        for rank, info in zip(moves, moves.infos or _NO_INFOS):
            after = row[rank]
            if not after:
                if by_ballots:
                    new, key = None, tuple(sorted((*others, at[rank])))
                else:
                    new = others + encs[rank]
                    key = (new + add) & guard
                after = known(key)
                if after is None:
                    after = miss(key, new)
                row[rank] = after
            yield at[rank], info, after


class _SharedEngines:
    """The engines the one-profile searches share: the `_SHARED_ENGINES`
    most recently used, by (rule, m, size), and the last call's (rule, m,
    size, engine), which a repeated call with the same rule object answers
    without hashing the rule."""

    def __init__(self):
        self.built = lru_cache(maxsize=_SHARED_ENGINES)(_Engine)
        self.last = (None,) * 4

    def cache_clear(self) -> None:
        self.built.cache_clear()
        self.last = (None,) * 4


_shared_engine = _SharedEngines()


def _engine(rule: RuleSpec, m: int, size: int) -> _Engine:
    """The shared engine of the rule on layout (m, size); a call that repeats
    the last one gets its engine back, compared item by item without
    hashing the rule."""
    last_rule, last_m, last_size, engine = _shared_engine.last
    if last_rule is not rule or last_m != m or last_size != size:
        engine = _shared_engine.built(rule, m, size)
        _shared_engine.last = (rule, m, size, engine)
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
            others, row = engine._row(ballots, voter, code, honest)
            for new_ballot, info, after in engine._reaching(ballot, others, row, kind, out):
                if after != honest:
                    yield voter, new_ballot, info, after


def _misreports(true_ballot: Ballot, _out=None):
    """All deviations, nearest first: lexicographic in the voter's own ranking
    (the permutations of the ballot in order, less the first, itself), each
    with no info."""
    for mis in itertools.islice(itertools.permutations(true_ballot), 1, None):
        yield mis, None
