"""The integer margin code behind the sweep engine, and the deviation scans
built on it, checked against from-scratch recomputation."""

import ast
import itertools
import random
import sys
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_group_manipulation,
    naive_manipulation,
    naive_strong_manipulation,
    own_order_misreports,
    relabelings,
)
from setvote import _engine, verify
from setvote._engine import _Ballots, _Engine, _MarginCode, _misreports, _moved, _Scan
from setvote.core import Profile, _margins_flat, _strict_masks_from_flat
from setvote.extensions import ExtensionKind
from setvote.rules import TiesUnsupportedError, catalog, parse_rule
from setvote.verify import (
    Outcome,
    Universe,
    find_group_manipulation,
    find_manipulation,
    find_strong_manipulation,
)


@st.composite
def coded_profiles(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    ballots = tuple(
        tuple(draw(st.permutations(range(m)))) for _ in range(n)
    )
    size = n + draw(st.integers(0, 4))
    return m, ballots, size


def decodes_to_margins(layout, ballots, m):
    code = layout.of(ballots)
    flat = _margins_flat(ballots, m)
    assert layout.flat(code) == flat
    assert layout.strict(layout.key(code)) == _strict_masks_from_flat(flat, m)
    return code


@settings(max_examples=300, deadline=None)
@given(coded_profiles())
def test_code_decodes_to_margins_and_relation(case):
    m, ballots, size = case
    decodes_to_margins(_MarginCode(m, size), ballots, m)


# every kind of one-ballot move a check tries, and whether it reads the output
MOVE_KINDS = [
    (_misreports, False),
    (relabelings, False),
    (verify._swaps, True),
    (verify._pushes, True),
    (verify._unchosen_reorders, True),
    (verify._block_reorders_anywhere, False),
]


def ranked_moves(layout, kind, ballot, out=None):
    """A ranked move table of the layout's ballot table read back as
    (new_ballot, enc[new] - enc[ballot], info) in table order."""
    ballots = layout.table
    table = ballots.ranked(kind, ballot, out)
    base = layout.encs[ballots.rank[ballot]]
    infos = table.infos or [None] * len(table)
    return [(ballots.ballots[r], layout.encs[r] - base, i) for r, i in zip(table, infos)]


@settings(max_examples=200, deadline=None)
@given(coded_profiles(), st.data())
def test_one_ballot_change_is_one_add(case, data):
    m, ballots, size = case
    layout = _MarginCode(m, size)
    code = layout.of(ballots)
    voter = data.draw(st.integers(0, len(ballots) - 1))
    out = data.draw(st.integers(1, (1 << m) - 1))
    ballot = ballots[voter]
    table = ranked_moves(layout, _misreports, ballot)
    assert [mis for mis, _, _ in table] == own_order_misreports(ballot)
    for kind, reads_out in MOVE_KINDS:
        given_out = out if reads_out else None
        ranks = layout.table.ranked(kind, ballot, given_out)
        assert layout.table.ranked(kind, ballot, given_out) is ranks
        table = ranked_moves(layout, kind, ballot, given_out)
        assert [(new, info) for new, _, info in table] == list(kind(ballot, given_out))
        for new, delta, _ in table:
            changed = ballots[:voter] + (new,) + ballots[voter + 1:]
            assert code + delta == layout.of(changed)
            assert layout.flat(code + delta) == _margins_flat(changed, m)


def test_a_move_table_past_its_bound_is_empty_when_next_used(monkeypatch):
    # each table here holds at most 7 one-byte ranks and 7 infos of 8
    # bytes: at most 64 bytes, one unit; a fresh ballot table, since the
    # one of each m is shared
    table = _Ballots(3)
    first, second = (0, 1, 2), (2, 1, 0)
    assert len(table.ranked(_misreports, first)) == 5
    assert table._ranks.weight == 1
    monkeypatch.setattr(_engine, "_MEMO_ENTRIES", 0)
    # the table already held is served as it is
    assert table.ranked(_misreports, first)
    assert list(table._ranks) == [(_misreports, first, None)]
    table.ranked(verify._block_reorders_anywhere, second)
    assert list(table._ranks) == [(verify._block_reorders_anywhere, second, None)]
    assert table._ranks.weight == 1


def moved(engine, ballots, kind=_misreports):
    """Every move `_moved` yields on the profile against its honest output."""
    return list(_moved(_Scan(engine, ballots), kind))


def filled(layout, row):
    """The ballots a row holds an output for, with that output."""
    return {layout.table.ballots[rank]: out for rank, out in enumerate(row) if out}


def rows_of(engine):
    """Each row the engine holds, by co-voters' code, as a plain dict."""
    return {others: filled(engine.layout, row) for others, row in engine.rows.items()}


def test_rows_past_their_bound_start_afresh_when_next_stored(monkeypatch):
    engine = _Engine(parse_rule("tc"), 3, 2)
    first, second = ((0, 1, 2), (1, 2, 0)), ((2, 1, 0),)
    found = moved(engine, first)
    held = rows_of(engine)
    # one row per voter, each complete and weighing its 3! bytes, one unit
    assert [len(row) for row in held.values()] == [6, 6] and engine.rows.weight == 2
    monkeypatch.setattr(_engine, "_MEMO_ENTRIES", 1)
    # the rows already held are served as they are
    assert moved(engine, first) == found
    assert rows_of(engine) == held
    moved(engine, second)
    # the lone voter's co-voters cast no ballot
    assert list(engine.rows) == [engine.layout.bias]


@pytest.mark.parametrize("m,units", [(3, 1), (4, 1), (5, 2), (6, 12)])
def test_a_row_weighs_its_bytes(m, units):
    # one byte per ballot, one unit per 64 bytes rounded up
    row = _engine._empty_row(m, factorial(m))
    assert type(row) is _engine._ByteRow and len(row) == factorial(m)
    table = _engine._Tables()
    table.store(0, row)
    assert table.weight == units


@pytest.mark.parametrize("m,code", [(9, "H"), (16, "H"), (17, "I")])
def test_a_row_past_eight_alternatives_holds_every_mask(m, code):
    # a byte holds the masks of at most 8 alternatives; past that a row's
    # items are the narrowest that hold m bits (a short row stands in for
    # the m! ballots)
    assert _engine._typecode(8) == "B" and _engine._typecode(m) == code
    row = _engine._empty_row(m, 5)
    assert type(row) is _engine._WideRow and row.typecode == code
    full = (1 << m) - 1
    for rank, out in enumerate((full, 1, 1 << (m - 1), full ^ 1)):
        row[rank] = out
    assert row.complete() == 0 and list(row) == [full, 1, 1 << (m - 1), full ^ 1, 0]
    row[4] = full
    assert row.complete() == (1 << full) | 2 | 1 << (1 << (m - 1)) | 1 << (full ^ 1)
    table = _engine._Tables()
    table.store(0, row)
    assert table.weight == 1


def test_a_profile_based_engine_keeps_no_rows():
    engine = _Engine(parse_rule("plurality"), 3, 3)
    ballots = ((0, 1, 2), (1, 2, 0), (0, 1, 2))
    assert moved(engine, ballots) == moved(engine, ballots)
    assert engine.rows == {}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_unanimous_profiles_fill_the_fields(m, n):
    # every margin is +-n, so the fields reach 0 and 2N with N = n exactly
    for ballot in itertools.islice(itertools.permutations(range(m)), 3):
        ballots = (ballot,) * n
        layout = _MarginCode(m, n)
        decodes_to_margins(layout, ballots, m)
        assert layout.strict(layout.key(layout.of(ballots))) == tuple(
            sum(1 << y for y in ballot[ballot.index(x) + 1:]) for x in range(m)
        )


@pytest.mark.parametrize("m,n_max,k_hom", [(2, 3, 2), (3, 3, 3), (4, 2, 4), (3, 1, 2)])
def test_homogeneity_tiling_fits_the_universe_layout(m, n_max, k_hom):
    # the layout of the engine behind a walk's scan contexts
    probe = {"layout": lambda ctx: (Outcome.HOLDS, ctx.engine.layout)}
    universe = Universe(m, n_max, k_hom=k_hom)
    layout = verify._verdicts(catalog()[0], universe, probe)["layout"].witness
    assert layout.size == n_max * k_hom
    rng = random.Random(m * 100 + n_max * 10 + k_hom)
    profiles = [(tuple(range(m)),) * n_max]
    profiles += [
        tuple(tuple(rng.sample(range(m), m)) for _ in range(n_max)) for _ in range(20)
    ]
    for ballots in profiles:
        code = layout.of(ballots)
        for k in range(2, k_hom + 1):
            tiled = layout.bias + k * (code - layout.bias)
            assert tiled == decodes_to_margins(layout, ballots * k, m)


def test_the_engine_imports_only_core_rules_and_the_standard_library():
    tree = ast.parse(open(_engine.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.level, node.module))
    assert {name for level, name in imported if level} == {"core", "rules"}
    assert all(
        level in (0, 1) and (level or name.split(".")[0] in sys.stdlib_module_names)
        for level, name in imported
    )


def test_code_refuses_more_voters_than_its_layout():
    with pytest.raises(ValueError):
        _MarginCode(3, 2).of(((0, 1, 2),) * 3)


# ---------------------------------------------------------------------------
# witnesses equal the naive oracle's


def seeded_profiles(seed, count, m_range, n_range):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(*m_range)
        n = rng.randint(*n_range)
        out.append(Profile(m, tuple(tuple(rng.sample(range(m), m)) for _ in range(n))))
    return out


def as_tuple(man):
    if man is None:
        return None
    assert man.true_ballot == man.profile.ballots[man.voter]
    return (
        man.voter,
        man.misreport,
        frozenset(man.honest_set.members),
        frozenset(man.manipulated_set.members),
    )


def as_group(g):
    if g is None:
        return None
    return (
        g.voters,
        g.misreports,
        frozenset(g.honest_set.members),
        frozenset(g.manipulated_set.members),
    )


def cold_then_warm(compare):
    """Run a comparison from empty shared memos, then again through the memos
    the first run filled."""
    _engine._shared_engine.cache_clear()
    compare()
    compare()


def agree(found, expected):
    """Run both searches; ties-only rules must refuse on both sides."""
    try:
        got = found()
    except TiesUnsupportedError:
        with pytest.raises(TiesUnsupportedError):
            expected()
        return
    assert got == expected()


# 163 of the 1,184 searches over the catalog find a witness
PROFILES = seeded_profiles(11, 14, (2, 4), (1, 4)) + [
    Profile(3, ((0, 1, 2), (0, 1, 2), (2, 0, 1), (2, 0, 1), (1, 2, 0))),
    Profile(3, ((0, 1, 2), (0, 1, 2), (1, 2, 0), (2, 0, 1))),
]


@pytest.mark.parametrize("rule", catalog(), ids=lambda r: r.name)
def test_single_voter_witnesses_match_the_oracle(rule):
    def compare():
        for profile in PROFILES:
            m, ballots = profile.m, profile.ballots
            for fishburn, kind in (
                (True, ExtensionKind.FISHBURN), (False, ExtensionKind.FPLUS)
            ):
                agree(
                    lambda: as_tuple(find_manipulation(rule, profile, kind)),
                    lambda: naive_manipulation(rule, ballots, m, fishburn),
                )
                agree(
                    lambda: as_tuple(find_strong_manipulation(rule, profile, kind)),
                    lambda: naive_strong_manipulation(rule, ballots, m, fishburn),
                )

    cold_then_warm(compare)


# seed 5 gives 15 group witnesses over the catalog, 6 of them by a pair
GROUP_PROFILES = seeded_profiles(5, 8, (3, 3), (3, 4))


@pytest.mark.parametrize("rule", catalog(), ids=lambda r: r.name)
def test_group_witnesses_match_the_oracle(rule):
    def compare():
        for profile in GROUP_PROFILES:
            agree(
                lambda: as_group(find_group_manipulation(rule, profile, 2)),
                lambda: naive_group_manipulation(rule, profile.ballots, profile.m, 2),
            )

    cold_then_warm(compare)


@pytest.mark.parametrize("rule", catalog(), ids=lambda r: r.name)
def test_one_profile_searches_build_no_scan_context(monkeypatch, rule):
    # the three one-profile searches ask the shared engine straight from the
    # profile's code and honest output: a scan context built on the way
    # raises, yet every witness and None is the oracle's, and every witness
    # carries a profile equal to the caller's
    def no_scan(*_):
        raise AssertionError("a one-profile search built a scan context")

    monkeypatch.setattr(_engine._Scan, "__init__", no_scan)

    def carried(found, profile, as_witness):
        assert found is None or found.profile == profile
        return as_witness(found)

    single = (
        (find_manipulation, naive_manipulation),
        (find_strong_manipulation, naive_strong_manipulation),
    )

    def compare():
        for profile in PROFILES:
            m, ballots = profile.m, profile.ballots
            for fishburn, kind in (
                (True, ExtensionKind.FISHBURN), (False, ExtensionKind.FPLUS)
            ):
                for search, naive in single:
                    agree(
                        lambda: carried(search(rule, profile, kind), profile, as_tuple),
                        lambda: naive(rule, ballots, m, fishburn),
                    )
        for profile in GROUP_PROFILES:
            agree(
                lambda: carried(find_group_manipulation(rule, profile, 2), profile, as_group),
                lambda: naive_group_manipulation(rule, profile.ballots, profile.m, 2),
            )

    cold_then_warm(compare)


# The uncovered set refuses ties. On a tie-free profile with an even
# electorate every margin is at least 2 and one ballot moves it by 2, so a
# move changes the majority relation only through a tie; with an odd
# electorate no move ties. So on 4-voter profiles every search stops at its
# first tie-making misreport, after the voters whose every misreport kept the
# output, and a 3-voter search stops at its first accepted misreport.
UNCOVERED_CUT_SHORT = [
    # voter 0 keeps the output on every misreport; voter 1 ties at its first
    # misreport, and on four alternatives keeps the output on its first and
    # ties at its second
    (Profile(3, ((0, 1, 2), (0, 2, 1), (0, 2, 1), (0, 2, 1))), 1, 0),
    (Profile(4, ((0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 1, 3), (0, 2, 1, 3))), 1, 1),
    # voter 0 keeps the output on two misreports and ties at its third
    (Profile(3, ((0, 2, 1), (0, 1, 2), (1, 0, 2), (0, 1, 2))), 0, 2),
    # voter 2 gains at its 24th misreport ecdab: {a,b,d} becomes {a,b,d,e}
    (Profile(5, ((0, 1, 2, 3, 4), (1, 3, 4, 0, 2), (2, 4, 3, 0, 1))), 2, 24),
]


@pytest.mark.parametrize("profile,cut,tried", UNCOVERED_CUT_SHORT)
def test_a_voter_cut_short_keeps_a_partial_row(profile, cut, tried):
    # the voters before the cut complete their rows; the cut voter's row
    # holds its own ballot and the misreports it tried up to the one that
    # stopped it: the tying one is left out, the accepted one kept. A row
    # is filled in table order, so it holds a prefix of the misreports
    uncovered = parse_rule("uncovered-set")
    m, ballots = profile.m, profile.ballots

    def search():
        try:
            return as_tuple(find_manipulation(uncovered, profile))
        except TiesUnsupportedError as exc:
            return str(exc)

    results = []

    def compare():
        results.append(search())
        agree(
            lambda: as_tuple(find_manipulation(uncovered, profile)),
            lambda: naive_manipulation(uncovered, ballots, m, True),
        )
        engine = _engine._engine(uncovered, m, profile.n)
        code = engine.layout.of(ballots)
        rows = {ballot: engine.rows.get(code - engine.layout.enc(ballot)) for ballot in ballots}
        assert {ballot for ballot, row in rows.items() if row and row.complete()} == set(
            ballots[:cut]
        )
        ballot = ballots[cut]
        assert set(filled(engine.layout, rows[ballot])) == {
            ballot, *own_order_misreports(ballot)[:tried]
        }
        assert all(rows[b] is None for b in ballots[cut + 1:] if b not in ballots[:cut + 1])

    cold_then_warm(compare)
    cold, warm = results
    assert cold == warm
    if m == 5:
        assert cold == (2, (4, 2, 3, 0, 1), frozenset({0, 1, 3}), frozenset({0, 1, 3, 4}))
    else:
        assert "tie" in cold


# ---------------------------------------------------------------------------
# the lean tables behind the walks


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_relabeling_tables_give_the_relabelings_in_order(m):
    # the oracle is the literal relabeling generator: in order, the
    # relabeled ballot, its delta from the ballot's own encoding, and the
    # permutation, which is the ballot of the next rank
    layout = _MarginCode(m, 3)
    ballots = layout.table
    for ballot in itertools.permutations(range(m)):
        table = ballots.relabelings(ballot)
        assert table.typecode == ("B" if m <= 5 else "H") and len(table) == factorial(m) - 1
        base = layout.enc(ballot)
        expected = [(new, layout.enc(new) - base, perm) for new, perm in relabelings(ballot)]
        assert [
            (ballots.ballots[rank], layout.encs[rank] - base, ballots.ballots[j + 1])
            for j, rank in enumerate(table)
        ] == expected == ranked_moves(layout, relabelings, ballot)


def test_one_relabeling_table_per_m_serves_the_orbit_test_and_neutrality(monkeypatch):
    # the least-of-class test behind the representatives of (4, <=3) builds
    # each ballot's relabeling table once, in the ballot table every layout
    # of m = 4 shares, so neutrality's orbit walk there builds none
    _engine._shared_engine.cache_clear()
    _engine._margin_code.cache_clear()
    _engine._ballots.cache_clear()
    ballots = set(itertools.permutations(range(4)))
    built = []
    store = _engine._Tables.store

    def counted(table, key, value):
        if key in ballots:
            built.append(key)
        return store(table, key, value)

    monkeypatch.setattr(_engine._Tables, "store", counted)
    universe = Universe(4, 3)
    assert sum(1 for _ in universe._orbit_representatives()) == 129
    assert sorted(built) == sorted(ballots)
    built.clear()
    verdict = verify.check_axiom(verify.Axiom.NEUTRALITY, parse_rule("tc"), universe)
    assert verdict.outcome == Outcome.HOLDS and built == []
    assert _engine._margin_code(4, 3).table is _engine._margin_code(4, 8).table


def test_a_walk_on_five_alternatives_keeps_its_rows_and_move_tables(monkeypatch):
    # fab:ab is not neutral, so its Fishburn sweep on (5, <=3) walks every
    # electorate: 4,351 co-voters' codes get a row, each of 120 bytes.
    # Neither the output memo, the rows nor the move tables (those of the
    # ballot table of m = 5) start afresh; the verdict memo does, since the walk
    # stores 667,193 voter verdicts, nearly each met once
    restarted = []
    store = _engine._Tables.store

    def counted(table, key, value):
        if table.weight > _engine._MEMO_ENTRIES:
            restarted.append(id(table))
        return store(table, key, value)

    _engine._shared_engine.cache_clear()
    _engine._margin_code.cache_clear()
    _engine._ballots.cache_clear()
    monkeypatch.setattr(_engine._Tables, "store", counted)
    fab = parse_rule("fab:ab")
    assert verify.sweep_strategyproofness(fab, Universe(5, 3)).outcome == Outcome.HOLDS
    engine = _engine._engine(fab, 5, 6)
    roles = {
        id(engine.cache): "outputs",
        id(engine.rows): "rows",
        id(_engine._ballots(5)._ranks): "move tables",
        id(engine.verdicts): "verdicts",
    }
    # every row the walk built is still held
    assert len(engine.rows) == 4351
    assert {roles.get(table, "other") for table in restarted} == {"verdicts"}


@pytest.mark.parametrize("rule", ["tc", "borda", "plurality"])
def test_a_scan_decodes_its_code_into_slots(rule):
    rule = parse_rule(rule)
    profiles = [
        ((0, 1, 2, 3),),
        ((0, 1, 2, 3), (3, 2, 1, 0)),
        ((1, 0, 2, 3), (2, 3, 0, 1), (0, 2, 1, 3)),
    ]
    for ballots in profiles:
        engine = _Engine(rule, 4, 3)
        ctx = _Scan(engine, ballots)
        assert not hasattr(ctx, "__dict__")
        layout = engine.layout
        assert ctx.code == layout.of(ballots)
        assert (ctx.key, ctx.flat, ctx.strict) == (
            layout.key(ctx.code), layout.flat(ctx.code), layout.strict(layout.key(ctx.code))
        )
        assert ctx.flat == _margins_flat(ballots, 4)
