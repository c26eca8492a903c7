import copy
import dataclasses
import hashlib
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setvote
from setvote import core, rules

from oracles import (
    brute_dominant_sets,
    brute_minimal_dominant,
    brute_schwartz,
    brute_top_cycle_via_closure,
    beats,
    condorcet_literal,
    has_covering_cycle,
    schwartz_literal,
    top_cycle_literal,
    valid_cycle,
)
from setvote.core import (
    ChoiceSet,
    MajorityRelation,
    Profile,
    _margins_flat,
    _tc_mask,
    condorcet_loser,
    condorcet_winner,
    connected_set,
    covering_cycle,
    dominant_chain,
    enumerate_ballots,
    enumerate_relations,
    is_dominant,
    margins,
    relation,
    restrict,
    schwartz_set,
    top_cycle,
)

A, B, C, D, E = range(5)

# Frozen margin matrix of the fig1 election (rows/cols a..e).
FIG1_MARGINS = np.array(
    [
        [0, 0, -2, 2, 4],
        [0, 0, 2, 2, 2],
        [2, -2, 0, 2, 2],
        [-2, -2, -2, 0, 0],
        [-4, -2, -2, 0, 0],
    ]
)


def members(cs):
    return frozenset(cs.members)


def linear_relation(order):
    m = len(order)
    g = np.zeros((m, m), dtype=int)
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            g[x, y], g[y, x] = 1, -1
    return relation(g)


def cycle_relation(*edges, m=None):
    m = m or (max(max(e) for e in edges) + 1)
    g = np.zeros((m, m), dtype=int)
    for x, y in edges:
        g[x, y], g[y, x] = 1, -1
    return relation(g)


class TestProfileValidation:
    def test_duplicate_alternative_rejected(self):
        with pytest.raises(ValueError):
            Profile(3, ((0, 0, 2),))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            Profile(3, ())

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Profile(3, ((0, 1),))

    # a float equal to an int used to pass the permutation check, and then
    # rule evaluation and the deviation scan raised a raw TypeError
    @pytest.mark.parametrize(
        "ballots", [((0.0, 1, 2), (1, 2, 0)), ((0, 1, 2), (1, "2", 0)), ((0, 1, None),), (5,)]
    )
    def test_a_non_integer_entry_is_refused(self, ballots):
        with pytest.raises(ValueError, match="^ballots must be sequences of integers$"):
            Profile(3, ballots)

    # a ballots argument that is not iterable used to raise a raw TypeError
    @pytest.mark.parametrize("ballots,kind", [(5, "int"), (None, "NoneType"), (1.5, "float")])
    def test_ballots_that_are_not_a_sequence_are_refused(self, ballots, kind):
        with pytest.raises(
            ValueError, match=f"^ballots must be a sequence of ballots, got {kind}$"
        ):
            Profile(3, ballots)

    @pytest.mark.parametrize("m", [3.0, "3", None])
    def test_a_non_integer_m_is_refused(self, m):
        with pytest.raises(ValueError, match="^m must be an integer"):
            Profile(m, ((0, 1, 2),))

    @pytest.mark.parametrize("k", ["2", 2.0])
    def test_a_non_integer_tiling_is_refused(self, k):
        one = Profile(3, ((0, 1, 2), (2, 0, 1)))
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            one.tiled(k)
        assert one.tiled(np.int64(2)) == one.tiled(2)

    def test_a_tuple_of_ints_is_kept_as_it_is(self):
        # profiles built from the same ballot tuples share them
        ballot = (0, 1, 2)
        profile = Profile(3, (ballot, [0, 1, 2]))
        assert profile.ballots[0] is ballot and profile.ballots == (ballot, ballot)

    def test_numpy_entries_become_python_ints(self):
        profile = Profile(np.int64(3), np.array([[0, 1, 2], [2, 0, 1]]))
        assert type(profile.m) is int
        assert all(type(x) is int for ballot in profile.ballots for x in ballot)
        assert profile == Profile(3, ((0, 1, 2), (2, 0, 1)))


class TestProfileEdits:
    @pytest.mark.parametrize("voter,message", [
        (-1, "^voter -1 out of range for n=3$"),
        (3, "^voter 3 out of range for n=3$"),
        (1.0, "^voter must be an integer, got 1.0$"),
        ("0", "^voter must be an integer, got '0'$"),
    ])
    def test_replacing_a_voter_outside_0_to_n_minus_1_is_refused(self, voter, message):
        # -1 used to replace the last voter, 3 raised a raw IndexError and
        # 1.0 or "0" a raw TypeError
        profile = Profile(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        with pytest.raises(ValueError, match=message):
            profile.replace_ballot(voter, (2, 1, 0))

    def test_replacing_a_voter_keeps_the_others(self):
        profile = Profile(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        replaced = profile.replace_ballot(np.int64(2), [2, 1, 0])
        assert replaced.ballots == ((0, 1, 2), (1, 2, 0), (2, 1, 0))
        assert replaced.ballots[0] is profile.ballots[0]
        with pytest.raises(ValueError, match="^ballots must be sequences of integers$"):
            profile.replace_ballot(0, 5)

    def test_a_ranking_that_is_not_a_sequence_is_refused(self):
        # used to raise a raw TypeError: 'int' object is not iterable
        with pytest.raises(ValueError, match="^ballots must be sequences of integers$"):
            Profile.from_rankings([5])
        with pytest.raises(ValueError, match="^ballots must be sequences of integers$"):
            Profile.from_rankings([(0, 1, 2), None])


@pytest.fixture
def checked(monkeypatch):
    """A fresh, empty memo of checked ballot tuples."""
    memo = {}
    monkeypatch.setattr(core, "_checked", memo)
    return memo


class TestCheckedBallotMemo:
    """A ballot tuple is checked once and then recognized by identity; no
    other ballot passes on the strength of an earlier check."""

    def test_an_equal_float_ballot_is_refused_after_its_int_twin(self, checked):
        ballot = (0, 1, 2)
        Profile(3, (ballot,))
        assert checked[ballot] is ballot
        with pytest.raises(ValueError, match="^ballots must be sequences of integers$"):
            Profile(3, ((0.0, 1, 2),))

    def test_numpy_entries_become_python_ints_after_their_ballots_are_checked(self, checked):
        Profile(3, ((0, 1, 2), (2, 0, 1)))
        rows = np.array([[0, 1, 2], [2, 0, 1]])
        for ballots in (rows, tuple(map(tuple, rows))):
            profile = Profile(3, ballots)
            assert all(type(x) is int for ballot in profile.ballots for x in ballot)
            assert profile.ballots == ((0, 1, 2), (2, 0, 1))

    @pytest.mark.parametrize("m,ballot", [(4, (0, 1, 2)), (3, (0, 1, 2, 3)), (2, (0, 1, 2))])
    def test_a_checked_ballot_is_refused_for_another_m(self, checked, ballot, m):
        Profile(len(ballot), (ballot,))
        with pytest.raises(
            ValueError, match=rf"^ballot 0 is not a permutation of 0..{m - 1}: {re.escape(str(ballot))}$"
        ):
            Profile(m, (ballot,))

    def test_a_refusal_names_the_ballot_after_checked_ones(self, checked):
        known, short = (1, 0, 3, 2), (0, 1, 2)
        Profile(4, (known,))
        Profile(3, (short,))
        with pytest.raises(
            ValueError, match=r"^ballot 2 is not a permutation of 0..3: \(0, 1, 2\)$"
        ):
            Profile(4, (known, known, short))

    def test_a_tuple_holding_an_unhashable_entry_is_read_as_before(self, checked):
        Profile(3, ((0, 1, 2),))
        profile = Profile(3, ((np.array(0), 1, 2),))
        assert profile.ballots == ((0, 1, 2),) and type(profile.ballots[0][0]) is int

    def test_a_checked_tuple_is_not_checked_again(self, checked, monkeypatch):
        ballots = tuple(enumerate_ballots(3))
        Profile(3, ballots)
        calls = []
        check = core._checked_ballot
        monkeypatch.setattr(
            core, "_checked_ballot", lambda *args: calls.append(args) or check(*args)
        )
        assert Profile(3, ballots[::-1]).ballots == ballots[::-1]
        assert calls == []
        # an equal but distinct tuple is checked, and kept as given
        twin = tuple(list(ballots[0]))
        assert Profile(3, (twin,)).ballots[0] is twin
        assert len(calls) == 1

    def test_one_entry_per_ballot_value_the_first_tuple_that_passed(self, checked):
        first, twin = (0, 2, 1), tuple([0, 2, 1])
        profile = Profile(3, (first, twin, [0, 2, 1], first))
        assert profile.ballots[1] is twin
        assert list(checked) == [first] and checked[first] is first

    def test_the_memo_stays_within_its_bound(self, checked, monkeypatch):
        monkeypatch.setattr(core, "_CHECKED_MEMO", 8)
        ballots = enumerate_ballots(4)
        for _ in range(2):
            for i, ballot in enumerate(ballots):
                profile = Profile(4, (ballot, ballots[-1 - i]))
                assert profile.ballots == (ballot, ballots[-1 - i])
                assert 0 < len(checked) <= 8
                assert all(key is value for key, value in checked.items())


class TestMargins:
    def test_fig1_matches_frozen_matrix(self, fig1):
        assert np.array_equal(margins(fig1), FIG1_MARGINS)

    def test_fig1_against_counting_oracle(self, fig1):
        g = margins(fig1)
        for x in range(5):
            for y in range(5):
                assert g[x, y] == beats(fig1, x, y)

    def test_single_voter(self):
        g = margins(Profile.from_rankings([(0, 1)]))
        assert g[0, 1] == 1 and g[1, 0] == -1

    def test_reversal_cancels(self, fig1):
        doubled = Profile(5, fig1.ballots + tuple(b[::-1] for b in fig1.ballots))
        assert not margins(doubled).any()


def counted_margins(ballots, m):
    """g(x, y) by counting, per distinct ballot, the pairs it orders."""
    g = [[0] * m for _ in range(m)]
    for ballot, k in Counter(ballots).items():
        for i, x in enumerate(ballot):
            for y in ballot[i + 1:]:
                g[x][y] += k
                g[y][x] -= k
    return g


class TestPackedMarginCode:
    """The packed per-ballot code against a pairwise count."""

    @pytest.mark.parametrize("m,n", [
        (1, 1), (1, 7), (2, 1), (2, 2), (3, 5), (5, 12), (8, 1), (8, 9), (8, 40),
        (3, 100_000), (8, 100_000),
    ])
    def test_margins_match_a_pairwise_count(self, m, n):
        rng = random.Random(m * 1_000_003 + n)
        ballots = tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
        expected = counted_margins(ballots, m)
        assert _margins_flat(ballots, m) == tuple(v for row in expected for v in row)
        g = margins(Profile(m, ballots))
        assert g.dtype == np.int64 and g.shape == (m, m) and g.tolist() == expected

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_a_unanimous_electorate_reaches_n_in_every_field(self, m):
        # the largest margins a profile of n voters has, both signs
        n = 100_001
        g = margins(Profile(m, (tuple(range(m)),) * n))
        assert g.tolist() == [
            [n if x < y else -n if x > y else 0 for y in range(m)] for x in range(m)
        ]

    def test_margins_are_a_fresh_writable_array(self, fig1):
        g = margins(fig1)
        g[0, 1] = 99
        assert margins(fig1)[0, 1] == 0

    def test_no_ballots_have_zero_margins(self):
        assert _margins_flat((), 3) == (0,) * 9


class TestRelation:
    def test_fig1_sign_pattern(self, fig1):
        rel = relation(margins(fig1))
        assert rel.ties(A, B) and rel.ties(D, E)
        assert rel.strictly_prefers(C, A)
        assert rel.strictly_prefers(B, C)
        for x in (A, B, C):
            for y in (D, E):
                assert rel.strictly_prefers(x, y)

    def test_all_zero_is_all_ties(self):
        rel = relation(np.zeros((3, 3), dtype=int))
        assert all(rel.ties(x, y) for x in range(3) for y in range(3) if x != y)

    def test_one_voter_gives_linear_order(self):
        rel = MajorityRelation.from_profile(Profile.from_rankings([(0, 1, 2)]))
        assert rel.strictly_prefers(0, 1)
        assert rel.strictly_prefers(1, 2)
        assert rel.strictly_prefers(0, 2)

    @pytest.mark.parametrize(
        "g",
        [
            [[0, 1], [-1]],
            [0, 1],
            [],
            [[[0]]],
            np.zeros((2, 2, 2)),
            FIG1_MARGINS,
            FIG1_MARGINS.tolist(),
        ],
        ids=["ragged", "1-D", "empty", "3-D", "3-D ndarray", "ndarray", "list"],
    )
    def test_reads_any_square_nested_sequence(self, g, fig1):
        if len(g) != fig1.m:
            with pytest.raises(ValueError, match="margin matrix must be square"):
                relation(g)
        else:
            assert relation(g) == MajorityRelation.from_profile(fig1)


class TestRelationValidation:
    def test_a_list_of_masks_is_stored_as_a_hashable_tuple(self):
        rel = MajorityRelation(3, [2, 4, 1])
        twin = MajorityRelation(3, (2, 4, 1))
        assert rel.strict == (2, 4, 1) and rel == twin and hash(rel) == hash(twin)
        assert top_cycle(rel) == ChoiceSet(3, 0b111)

    def test_numpy_masks_become_python_ints(self):
        rel = MajorityRelation(3, np.array([2, 4, 1]))
        assert all(type(mask) is int for mask in rel.strict)
        assert rel == MajorityRelation(3, (2, 4, 1))

    @pytest.mark.parametrize("strict", [(8, 0, 0), (0, 0, 1 << 5), (-1, 0, 0), (-2, 0, 0), (2, -1, 0)])
    def test_a_mask_out_of_range_is_refused(self, strict):
        with pytest.raises(ValueError, match="out of range for m=3"):
            MajorityRelation(3, strict)

    @pytest.mark.parametrize("strict", [[2.0, 4, 1], ["2", 4, 1], 5])
    def test_a_non_integer_mask_is_refused(self, strict):
        with pytest.raises(ValueError, match="strict masks must be a sequence of integers"):
            MajorityRelation(3, strict)

    def test_self_beat_and_both_ways_are_refused(self):
        with pytest.raises(ValueError, match="cannot beat itself"):
            MajorityRelation(2, (1, 0))
        with pytest.raises(ValueError, match="both 0 beats 1 and 1 beats 0"):
            MajorityRelation(2, (2, 1))

    @pytest.mark.parametrize("m", [3.0, "3", None])
    def test_a_non_integer_m_is_refused(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            MajorityRelation(m, (0, 0, 0))

    def test_a_numpy_m_becomes_a_python_int(self):
        rel = MajorityRelation(np.int64(3), (2, 4, 1))
        assert type(rel.m) is int and rel == MajorityRelation(3, (2, 4, 1))

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_alternatives_is_refused(self, m):
        with pytest.raises(ValueError, match="^need at least one alternative$"):
            MajorityRelation(m, ())

    @pytest.mark.parametrize("m", [0, -1])
    def test_enumerating_no_alternatives_is_refused_at_the_call(self, m):
        with pytest.raises(ValueError, match="^need at least one alternative$"):
            enumerate_relations(m)


def relations_in_product_order(m):
    """The strict masks of every relation on m alternatives, one choice per
    pair x < y in lexicographic order (x beats y, y beats x, a tie), the
    first pair slowest."""
    pairs = list(itertools.combinations(range(m), 2))
    for choices in itertools.product((0, 1, 2), repeat=len(pairs)):
        strict = [0] * m
        for (x, y), c in zip(pairs, choices):
            if c == 0:
                strict[x] |= 1 << y
            elif c == 1:
                strict[y] |= 1 << x
        yield tuple(strict)


class TestEnumerationOrder:
    def test_relations_pinned_m_le_5(self):
        # SHA-256 of the repr of every relation's strict masks, m = 1..5 in
        # enumeration order, as the one-relation-at-a-time product loop
        # produced them
        strict = [rel.strict for m in range(1, 6) for rel in enumerate_relations(m)]
        assert len(strict) == 1 + 3 + 27 + 729 + 59049
        digest = hashlib.sha256(repr(strict).encode()).hexdigest()
        assert digest == "2544d4e91e45fa46f8f13bcf605ec548bda9f6d4eb4661619f9ed1e96b97e22c"

    @pytest.mark.parametrize("batch", [0, 1, 3])
    def test_every_batch_size_keeps_the_product_order(self, monkeypatch, batch):
        # small batches take the shared-prefix recursion for every pair
        monkeypatch.setattr(core, "_BATCH_PAIRS", batch)
        for m in range(1, 6):
            got = [rel.strict for rel in enumerate_relations(m)]
            assert got == list(relations_in_product_order(m))

    def test_enumeration_is_lazy(self):
        # m = 6 has 3**15 relations; the first few come without the rest
        first = [rel.strict for rel in itertools.islice(enumerate_relations(6), 1000)]
        assert first == list(itertools.islice(relations_in_product_order(6), 1000))


class TestChoiceSetValidation:
    @pytest.mark.parametrize("mask", [1.0, "1", None])
    def test_a_non_integer_mask_is_refused(self, mask):
        with pytest.raises(ValueError, match="mask must be an integer"):
            ChoiceSet(3, mask)

    @pytest.mark.parametrize("m", [3.0, "3", None])
    def test_a_non_integer_m_is_refused(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            ChoiceSet(m, 1)

    def test_a_negative_m_is_refused(self):
        with pytest.raises(ValueError, match="m must be non-negative"):
            ChoiceSet(-1, 0)

    @pytest.mark.parametrize("mask", [-1, 8])
    def test_a_mask_out_of_range_is_refused(self, mask):
        with pytest.raises(ValueError, match="out of range for m=3"):
            ChoiceSet(3, mask)

    @pytest.mark.parametrize("member", [1.5, "a", None, 3, -1])
    def test_a_member_that_is_no_alternative_is_refused(self, member):
        with pytest.raises(ValueError, match="out of range for m=3"):
            ChoiceSet.from_members(3, [0, member])

    def test_numpy_members_become_python_ints(self):
        choice = ChoiceSet.from_members(np.int64(3), [np.int64(0), np.int8(1)])
        assert choice == ChoiceSet(3, 0b11) and type(choice.m) is int

    def test_numpy_integers_become_python_ints(self):
        choice = ChoiceSet(np.int64(3), np.int64(5))
        assert type(choice.m) is int and type(choice.mask) is int
        assert choice == ChoiceSet(3, 5) and hash(choice) == hash(ChoiceSet(3, 5))
        assert choice.members == (0, 2) and len(choice) == 2


class TestCondorcet:
    def test_fig1_has_neither(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        assert condorcet_winner(rel) is None
        assert condorcet_loser(rel) is None

    def test_unanimous_profile(self):
        rel = MajorityRelation.from_profile(Profile.from_rankings([(2, 0, 1), (2, 0, 1)]))
        assert condorcet_winner(rel) == 2
        assert condorcet_loser(rel) == 1

    def test_single_alternative(self):
        rel = MajorityRelation.from_profile(Profile.from_rankings([(0,)]))
        assert condorcet_winner(rel) == 0
        assert condorcet_loser(rel) == 0

    def test_three_cycle_has_no_loser(self):
        rel = cycle_relation((0, 1), (1, 2), (2, 0))
        assert condorcet_winner(rel) is None
        assert condorcet_loser(rel) is None


class TestDominance:
    def test_fig1_abc_dominant(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        assert is_dominant(rel, ChoiceSet.from_members(5, (A, B, C)))

    def test_fig1_ab_not_dominant(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        assert not is_dominant(rel, ChoiceSet.from_members(5, (A, B)))

    def test_full_set_vacuously_dominant(self):
        for rel in enumerate_relations(3):
            assert is_dominant(rel, ChoiceSet.full(3))

    @pytest.mark.parametrize("choice", [0b1000, -1, 0b11111])
    def test_a_mask_out_of_range_is_refused(self, choice):
        rel = MajorityRelation(3, (2, 4, 1))
        with pytest.raises(ValueError, match="out of range for m=3"):
            is_dominant(rel, choice)

    @pytest.mark.parametrize("choice", [ChoiceSet(5, 0b10000), ChoiceSet(4, 0b1)])
    def test_a_set_over_more_alternatives_is_refused(self, choice):
        rel = MajorityRelation(3, (2, 4, 1))
        with pytest.raises(ValueError, match="does not fit m=3"):
            is_dominant(rel, choice)

    @pytest.mark.parametrize("choice", [1.0, "1", None])
    def test_a_non_integer_mask_is_refused(self, choice):
        with pytest.raises(ValueError, match="must be an integer"):
            is_dominant(MajorityRelation(3, (2, 4, 1)), choice)

    def test_a_set_over_fewer_alternatives_reads_as_its_members(self):
        # 0 beats 1 beats 2 beats 0: no proper subset is dominant
        rel = MajorityRelation(3, (2, 4, 1))
        assert not is_dominant(rel, ChoiceSet(2, 0b11))
        assert is_dominant(linear_relation((0, 1, 2)), ChoiceSet(2, 0b11))

    def test_fig1_chain(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        chain = dominant_chain(rel)
        assert [members(s) for s in chain] == [frozenset({A, B, C}), frozenset(range(5))]

    def test_linear_order_chain_matches_subset_scan(self):
        rel = linear_relation((0, 1, 2))
        chain = dominant_chain(rel)
        assert [members(s) for s in chain] == [{0}, {0, 1}, {0, 1, 2}]
        assert [frozenset(s) for s in brute_dominant_sets(rel)] == [members(s) for s in chain]

    def test_all_ties_chain_is_single_link(self):
        rel = relation(np.zeros((4, 4), dtype=int))
        assert [members(s) for s in dominant_chain(rel)] == [frozenset(range(4))]


class TestTopCycle:
    def test_fig1(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        assert members(top_cycle(rel)) == {A, B, C}

    def test_condorcet_winner_is_singleton(self):
        rel = linear_relation((2, 0, 1, 3))
        assert members(top_cycle(rel)) == {2}

    def test_three_cycle_with_dominated_fourth(self):
        rel = cycle_relation((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3))
        assert members(top_cycle(rel)) == {0, 1, 2}
        assert brute_top_cycle_via_closure(rel) == {0, 1, 2}

    def test_agrees_with_both_definitions_everywhere(self):
        # smallest dominant set and closure-maximal set coincide; all m <= 4
        for m in (1, 2, 3, 4):
            for rel in enumerate_relations(m):
                tc = members(top_cycle(rel))
                assert tc == brute_minimal_dominant(rel)
                assert tc == brute_top_cycle_via_closure(rel)
                assert tc == members(dominant_chain(rel)[0])

    def test_chain_matches_subset_scan_everywhere_m3(self):
        for rel in enumerate_relations(3):
            assert [members(s) for s in dominant_chain(rel)] == [
                frozenset(s) for s in brute_dominant_sets(rel)
            ]


class TestSchwartz:
    def test_fig1_is_b_only(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        assert brute_schwartz(rel) == {B}
        assert members(schwartz_set(rel)) == {B}

    def test_equals_top_cycle_on_tournaments(self):
        for rel in enumerate_relations(4):
            if any(rel.ties(x, y) for x in range(4) for y in range(x + 1, 4)):
                continue
            assert members(schwartz_set(rel)) == members(top_cycle(rel))

    def test_all_ties_returns_everything(self):
        rel = relation(np.zeros((3, 3), dtype=int))
        assert members(schwartz_set(rel)) == {0, 1, 2}

    def test_contained_in_top_cycle_everywhere(self):
        for m in (2, 3, 4):
            for rel in enumerate_relations(m):
                assert schwartz_set(rel).issubset(top_cycle(rel))
                assert members(schwartz_set(rel)) == brute_schwartz(rel)


class TestRestrict:
    def test_fig1_restricted_to_abc(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        sub, idx = restrict(rel, ChoiceSet.from_members(5, (A, B, C)))
        assert idx == (A, B, C)
        assert sub.ties(0, 1)
        assert sub.strictly_prefers(1, 2)
        assert sub.strictly_prefers(2, 0)

    def test_singleton_restriction(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        sub, idx = restrict(rel, (D,))
        assert sub.m == 1 and idx == (D,)

    def test_full_restriction_is_identity(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        sub, idx = restrict(rel, range(5))
        assert sub == rel and idx == tuple(range(5))

    @pytest.mark.parametrize("members", [[-1], [3], [0.5], [0, "b"], [None]])
    def test_a_member_that_is_no_alternative_is_refused(self, members):
        rel = MajorityRelation(3, (2, 4, 1))
        with pytest.raises(ValueError, match="out of range for m=3"):
            restrict(rel, members)

    @pytest.mark.parametrize("members", [ChoiceSet(5, 0b10000), ChoiceSet(4, 0b11)])
    def test_a_set_over_more_alternatives_is_refused(self, members):
        rel = MajorityRelation(3, (2, 4, 1))
        with pytest.raises(ValueError, match="does not fit m=3"):
            restrict(rel, members)

    def test_members_are_read_as_integers(self):
        rel = MajorityRelation(3, (2, 4, 1))
        sub, idx = restrict(rel, [np.int64(2), np.int8(1), 2])
        assert idx == (1, 2) and type(idx[0]) is int
        assert sub == MajorityRelation(2, (2, 0))
        assert restrict(rel, ChoiceSet(2, 0b11)) == restrict(rel, [0, 1])

    def test_top_cycle_stable_under_superset_restriction(self):
        # restricting to any superset of the top cycle keeps it intact, m <= 4
        for m in (2, 3, 4):
            for rel in enumerate_relations(m):
                tc = top_cycle(rel).mask
                for extra in range(1 << m):
                    s = tc | extra
                    sub, idx = restrict(rel, ChoiceSet(m, s))
                    lifted = {idx[i] for i in top_cycle(sub).members}
                    assert lifted == set(top_cycle(rel).members)


class TestConnectedSet:
    def test_cycle_with_dominated_fourth(self):
        # removing a from the 3-cycle leaves b as Condorcet winner of the rest,
        # so c drops out of the top cycle together with a
        rel = cycle_relation((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3))
        assert members(connected_set(rel, 0)) == {2}

    def test_outside_top_cycle_is_empty(self):
        rel = cycle_relation((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3))
        assert not connected_set(rel, 3)

    def test_condorcet_winner_formula(self):
        rel = linear_relation((0, 1, 2, 3))
        tc_all = members(top_cycle(rel))
        sub, idx = restrict(rel, (1, 2, 3))
        tc_rest = {idx[i] for i in top_cycle(sub).members}
        assert members(connected_set(rel, 0)) == tc_all - tc_rest - {0} == frozenset()

    def test_single_alternative(self):
        rel = MajorityRelation.from_profile(Profile.from_rankings([(0,)]))
        assert not connected_set(rel, 0)

    @pytest.mark.parametrize("x", [5, 6, -1, -5, 1.5, "a", None])
    def test_an_alternative_out_of_range_is_refused(self, x):
        rel = cycle_relation((0, 1), (1, 2), (2, 0), (3, 4))
        with pytest.raises(ValueError, match="out of range for m=5"):
            connected_set(rel, x)


class TestCoveringCycle:
    def test_fig1_covers_abc(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        cyc = covering_cycle(rel)
        assert set(cyc) == {A, B, C}
        assert valid_cycle(rel, cyc)

    def test_condorcet_winner_gives_none(self):
        assert covering_cycle(linear_relation((0, 1, 2))) is None

    def test_four_cycle_tournament(self):
        rel = cycle_relation((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
        cyc = covering_cycle(rel)
        assert len(cyc) == 4 and set(cyc) == {0, 1, 2, 3}
        assert valid_cycle(rel, cyc)

    def test_structure_theorem_m_le_4(self):
        # for every relation: a size >= 2 top cycle carries a covering cycle,
        # singleton top cycles are exactly the Condorcet winners, and no
        # larger dominant set carries one
        for m in (1, 2, 3, 4):
            for rel in enumerate_relations(m):
                tc = members(top_cycle(rel))
                cyc = covering_cycle(rel)
                if len(tc) == 1:
                    assert cyc is None
                    assert condorcet_winner(rel) in tc
                else:
                    assert condorcet_winner(rel) is None
                    assert set(cyc) == tc and valid_cycle(rel, cyc)
                    assert has_covering_cycle(rel, tc)
                for dom in dominant_chain(rel)[1:]:
                    assert not has_covering_cycle(rel, members(dom))

    def test_deterministic(self, fig1):
        rel = MajorityRelation.from_profile(fig1)
        assert covering_cycle(rel) == covering_cycle(rel)


def bits_of(mask):
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def relations_up_to(m_max):
    return [rel for m in range(1, m_max + 1) for rel in enumerate_relations(m)]


class TestMaskKernelAgainstOracles:
    """The strict-mask implementations against literal closures, m <= 4."""

    def test_tc_mask_every_subset(self):
        for rel in relations_up_to(4):
            for subset in range(1, 1 << rel.m):
                expected = top_cycle_literal(rel, bits_of(subset))
                assert bits_of(_tc_mask(rel.strict, subset)) == expected

    def test_weak_masks_list_what_each_alternative_weakly_beats(self):
        for rel in relations_up_to(4):
            for x, mask in enumerate(rel.weak_masks()):
                expected = {y for y in range(rel.m) if y != x and rel.weakly_prefers(x, y)}
                assert bits_of(mask) == expected

    def test_schwartz_and_condorcet(self):
        for rel in relations_up_to(4):
            assert members(schwartz_set(rel)) == schwartz_literal(rel)
            assert condorcet_winner(rel) == condorcet_literal(rel, winner=True)
            assert condorcet_loser(rel) == condorcet_literal(rel, winner=False)

    def test_connected_set_is_what_leaves_with_x(self):
        for rel in relations_up_to(4):
            tc = top_cycle_literal(rel, range(rel.m))
            for x in range(rel.m):
                rest = [y for y in range(rel.m) if y != x]
                tc_rest = set()
                if rest:
                    sub, idx = restrict(rel, rest)
                    tc_rest = {idx[i] for i in top_cycle_literal(sub, range(sub.m))}
                assert members(connected_set(rel, x)) == tc - tc_rest - {x}

    def test_connected_set_is_what_leaves_with_x_m5(self):
        # the kernel reads the top cycle without x, not all of A without x
        for rel in enumerate_relations(5):
            tc = top_cycle_literal(rel, range(5))
            for x in range(5):
                rest = [y for y in range(5) if y != x]
                assert members(connected_set(rel, x)) == tc - top_cycle_literal(rel, rest) - {x}

    def test_covering_cycles_pinned_m_le_5(self):
        # SHA-256 of the repr of every covering cycle, relations in
        # enumeration order for m = 1..5: the cycles of the list-based
        # implementation that the mask version replaced, which it must keep
        cycles = [covering_cycle(rel) for rel in relations_up_to(5)]
        digest = hashlib.sha256(repr(cycles).encode()).hexdigest()
        assert digest == "737a70f9298924805a3354df82c7fe223f232cf7dfc202e355e2fd785f1d708a"

    def test_schwartz_sets_pinned_m_le_5(self):
        # SHA-256 of the repr of every Schwartz mask, relations in
        # enumeration order for m = 1..5, as the Floyd-Warshall closure
        # produced them (the oracle comparison above stops at m = 4)
        masks = [schwartz_set(rel).mask for rel in relations_up_to(5)]
        digest = hashlib.sha256(repr(masks).encode()).hexdigest()
        assert digest == "14e41dbf23daadc1f9fc38c14b055342463c2161e8374321d22bb74e5e343cfc"


def sampled_relations(m, count, seed):
    """`count` relations on m alternatives from a fixed seed: every other one
    a tournament, the rest with each pair tied one time in three."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(m), 2))
    for i in range(count):
        strict = [0] * m
        for x, y in pairs:
            side = rng.randrange(2 if i % 2 else 3)
            if side == 0:
                strict[x] |= 1 << y
            elif side == 1:
                strict[y] |= 1 << x
        yield MajorityRelation(m, tuple(strict))


class TestKernelsOnSampledRelations:
    """The connected-set and covering-cycle kernels past the exhaustive
    m <= 5 checks, on a fixed-seed sample of 300 relations for each m."""

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_connected_set_is_what_leaves_with_x(self, m):
        leaving = 0
        for rel in sampled_relations(m, 300, seed=m):
            tc = top_cycle_literal(rel, range(m))
            for x in range(m):
                rest = [y for y in range(m) if y != x]
                connected = members(connected_set(rel, x))
                assert connected == tc - top_cycle_literal(rel, rest) - {x}
                leaving += bool(connected)
        # the sample reaches the prefix walk, not only closed paths
        assert leaving >= 30

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_covering_cycle_visits_exactly_the_top_cycle(self, m):
        for rel in sampled_relations(m, 300, seed=m):
            tc = members(top_cycle(rel))
            cyc = covering_cycle(rel)
            if len(tc) == 1:
                assert cyc is None
            else:
                assert set(cyc) == tc and valid_cycle(rel, cyc)
                assert has_covering_cycle(rel, tc)


@st.composite
def profiles(draw, max_m=5, max_n=6):
    m = draw(st.integers(min_value=1, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_n))
    rankings = [draw(st.permutations(range(m))) for _ in range(n)]
    return Profile.from_rankings([tuple(r) for r in rankings])


class TestMarginProperties:
    @settings(max_examples=200, deadline=None)
    @given(profiles())
    def test_antisymmetric_with_uniform_parity(self, profile):
        g = margins(profile)
        assert np.array_equal(g, -g.T)
        assert (np.abs(g) <= profile.n).all()
        off = [g[x, y] for x in range(profile.m) for y in range(profile.m) if x != y]
        assert all(v % 2 == profile.n % 2 for v in off)

    @settings(max_examples=100, deadline=None)
    @given(profiles(max_m=4, max_n=4))
    def test_relation_is_complete(self, profile):
        rel = MajorityRelation.from_profile(profile)
        for x, y in itertools.combinations(range(profile.m), 2):
            assert (
                rel.strictly_prefers(x, y)
                or rel.strictly_prefers(y, x)
                or rel.ties(x, y)
            )


class TestValuesBuiltByConstruction:
    """The unchecked builders skip validation; their values must still pass it."""

    def test_enumerated_relations_pass_the_public_constructor(self):
        for rel in relations_up_to(5):
            assert MajorityRelation(rel.m, rel.strict) == rel

    def test_kernel_choice_sets_pass_the_public_constructor(self):
        majoritarian = [r for r in rules.catalog() if rules.basis(r) == rules.BasisTag.MAJORITARIAN]
        for rel in relations_up_to(4):
            outputs = [top_cycle(rel), schwartz_set(rel), *dominant_chain(rel)]
            outputs += [connected_set(rel, x) for x in range(rel.m)]
            for rule in majoritarian:
                try:
                    outputs.append(rules.evaluate_on_relation(rule, rel))
                except ValueError:
                    pass  # the uncovered set on ties, fab's pair out of range
            for cs in outputs:
                built = ChoiceSet(cs.m, cs.mask)
                assert built == cs and hash(built) == hash(cs)


SLOTTED_VALUES = [
    ChoiceSet(4, 0b1010),
    Profile(3, ((0, 1, 2), (2, 0, 1))),
    MajorityRelation(3, (0b010, 0b100, 0b001)),
]


class TestSlottedValues:
    @pytest.mark.parametrize("value", SLOTTED_VALUES, ids=lambda v: type(v).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)

    @pytest.mark.parametrize("value", SLOTTED_VALUES, ids=lambda v: type(v).__name__)
    def test_fields_and_new_attributes_cannot_be_set(self, value):
        m = value.m
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.m = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.extra = 5
        assert not hasattr(value, "extra")
        for name in ("m", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert value.m == m

    @pytest.mark.parametrize("value", SLOTTED_VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_and_copy_round_trips(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and hash(back) == hash(value) and type(back) is type(value)
        for back in (copy.copy(value), copy.deepcopy(value)):
            assert back == value and hash(back) == hash(value)

    def test_unchecked_values_round_trip_too(self):
        rel = next(iter(enumerate_relations(3)))
        for value in (rel, top_cycle(rel), connected_set(rel, 0)):
            assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)

    def test_fields_and_replace(self):
        classes = (ChoiceSet, Profile, MajorityRelation)
        names = {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in classes}
        assert names == {
            ChoiceSet: ("m", "mask"),
            Profile: ("m", "ballots"),
            MajorityRelation: ("m", "strict"),
        }
        choice, profile, rel = SLOTTED_VALUES
        assert dataclasses.replace(choice, mask=0b0001) == ChoiceSet(4, 1)
        assert dataclasses.replace(profile, ballots=((1, 0, 2),)).n == 1
        assert dataclasses.replace(rel, strict=(0, 0, 0)) == MajorityRelation(3, (0, 0, 0))
        # replace runs the checks of the public constructor
        with pytest.raises(ValueError):
            dataclasses.replace(choice, mask=1 << 4)


class TestKernelMemo:
    def test_kernel_answers_share_one_choice_set_per_mask(self):
        for rel in relations_up_to(4):
            tc = top_cycle(rel)
            assert dominant_chain(rel)[0] is tc
            assert rules.evaluate_on_relation(rules.parse_rule("tc"), rel) is tc

    def test_answers_do_not_depend_on_call_order(self):
        # a fresh process asks each relation's questions in the natural
        # order; here they are asked backwards, connected sets first, with
        # the memo warm from other relations
        script = (
            "from setvote.core import *\n"
            "print(repr([(top_cycle(r), dominant_chain(r), schwartz_set(r), covering_cycle(r),"
            " tuple(connected_set(r, x) for x in range(r.m)))"
            " for m in (3, 4) for r in enumerate_relations(m)]))"
        )
        src = str(Path(setvote.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.strip()
        got = []
        for rel in (r for m in (3, 4) for r in enumerate_relations(m)):
            connected = tuple(connected_set(rel, x) for x in reversed(range(rel.m)))[::-1]
            cycle = covering_cycle(rel)
            sw = schwartz_set(rel)
            chain = dominant_chain(rel)
            tc = top_cycle(rel)
            got.append((tc, chain, sw, cycle, connected))
        assert repr(got) == fresh
