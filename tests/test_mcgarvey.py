import copy
import hashlib
import itertools
import pickle
import random
import re

import numpy as np
import pytest

from setvote.core import MajorityRelation, Profile, enumerate_relations, margins
from setvote import mcgarvey
from setvote.mcgarvey import (
    MAX_ELECTORATE,
    ParityError,
    WeightedMajorityGraph,
    _cancelling_pair,
    realize,
    realize_relation,
)


def random_graph(rng, m, cap):
    parity = rng.choice((0, 1))
    target = np.zeros((m, m), dtype=np.int64)
    for x in range(m):
        for y in range(x + 1, m):
            magnitudes = [v for v in range(-cap, cap + 1) if abs(v) % 2 == parity]
            v = rng.choice(magnitudes)
            target[x, y], target[y, x] = v, -v
    return WeightedMajorityGraph(m, target)


class TestValidation:
    def test_mixed_parity_rejected(self):
        target = np.array([[0, 1, 2], [-1, 0, 0], [-2, 0, 0]])
        with pytest.raises(ParityError):
            WeightedMajorityGraph(3, target)

    def test_asymmetric_rejected(self):
        target = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            WeightedMajorityGraph(2, target)

    def test_diagonal_rejected(self):
        target = np.array([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            WeightedMajorityGraph(2, target)

    def test_a_wrapping_negation_is_not_antisymmetric(self):
        # in int64, -(-2^63) wraps to -2^63, so a fixed-width check read both
        # negative margins as mirror images
        with pytest.raises(ValueError, match="target must be antisymmetric"):
            WeightedMajorityGraph(2, [[0, -2**63], [-2**63, 0]])

    def test_a_non_integer_margin_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="target entries must be integers"):
            WeightedMajorityGraph(2, [[0, 1.7], [-1.7, 0]])

    @pytest.mark.parametrize("m", [2.0, "2"])
    def test_a_non_integer_m_is_refused(self, m):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            WeightedMajorityGraph(m, [[0, 2], [-2, 0]])

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_alternatives_is_refused(self, m):
        with pytest.raises(ValueError, match="^need at least one alternative$"):
            WeightedMajorityGraph(m, [])

    @pytest.mark.parametrize("target", [[0, 1], [[0, 1], [-1]], [[0, 1]], 5])
    def test_a_non_square_target_is_refused(self, target):
        with pytest.raises(ValueError, match="target must be 2x2"):
            WeightedMajorityGraph(2, target)

    def test_target_is_tuple_rows_of_python_ints(self):
        graph = WeightedMajorityGraph(2, np.array([[0, 3], [-3, 0]]))
        assert graph.target == ((0, 3), (-3, 0))
        assert all(type(v) is int for row in graph.target for v in row)
        same = WeightedMajorityGraph(2, [[0, 3], [-3, 0]])
        assert graph == same and hash(graph) == hash(same)
        assert graph != WeightedMajorityGraph(2, [[0, 1], [-1, 0]])


class TestRealize:
    def test_all_zero_target_is_a_ballot_and_its_reverse(self):
        prof = realize(WeightedMajorityGraph(3, np.zeros((3, 3), dtype=int)))
        assert prof.n == 2
        assert prof.ballots[1] == prof.ballots[0][::-1]
        assert not margins(prof).any()

    def test_fig1_graph_roundtrip(self, fig1):
        target = margins(fig1)
        prof = realize(WeightedMajorityGraph(5, target))
        assert np.array_equal(margins(prof), target)

    def test_two_alternative_margin_three(self):
        graph = WeightedMajorityGraph(2, np.array([[0, 3], [-3, 0]]))
        prof = realize(graph)
        assert prof.n == 3
        assert np.array_equal(margins(prof), graph.target)

    def test_roundtrip_random_graphs(self):
        rng = random.Random(20240901)
        for _ in range(60):
            m = rng.randint(1, 6)
            graph = random_graph(rng, m, 6)
            prof = realize(graph)
            assert np.array_equal(margins(prof), graph.target)
            cap = max(1, int(np.abs(graph.target).max()))
            assert prof.n <= cap * m * m + 1

    def test_a_huge_electorate_is_refused_before_any_ballot_is_built(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a ballot was built")

        monkeypatch.setattr(mcgarvey, "_cancelling_pair", unreachable)
        monkeypatch.setattr(mcgarvey, "_arcs", unreachable)
        monkeypatch.setattr(mcgarvey, "Profile", unreachable)
        monkeypatch.setattr(mcgarvey, "_unchecked_profile", unreachable)
        big = 2**63 - 1
        graph = WeightedMajorityGraph(3, np.array([[0, big, 1], [-big, 0, 1], [-1, -1, 0]]))
        # the seed voter, then (big - 1) / 2 canceling pairs for g(a, b)
        with pytest.raises(ValueError, match=f"needs {big} voters, more than {MAX_ELECTORATE}"):
            realize(graph)
        # the seed voter, then (big - 1) / 2 canceling pairs for each of the 3 pairs
        tournament = MajorityRelation(3, (0b110, 0b100, 0))
        with pytest.raises(ValueError, match=f"needs {3 * big - 2} voters, more than"):
            realize_relation(tournament, big)

    def test_the_electorate_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(mcgarvey, "MAX_ELECTORATE", 5)
        assert realize(WeightedMajorityGraph(2, np.array([[0, 5], [-5, 0]]))).n == 5
        assert realize_relation(MajorityRelation(3, (0b110, 0b100, 0)), 1).n == 1
        with pytest.raises(ValueError, match="needs 7 voters, more than 5"):
            realize(WeightedMajorityGraph(2, np.array([[0, 7], [-7, 0]])))
        with pytest.raises(ValueError, match="needs 7 voters, more than 5"):
            realize_relation(MajorityRelation(3, (0b110, 0b100, 0)), 3)

    def test_deterministic(self):
        graph = WeightedMajorityGraph(4, np.array([
            [0, 2, -2, 0],
            [-2, 0, 4, 2],
            [2, -4, 0, -2],
            [0, -2, 2, 0],
        ]))
        assert realize(graph) == realize(graph)


class TestCancellingPair:
    def test_each_pair_moves_exactly_one_margin(self):
        for m in (2, 3, 4, 5):
            for x, y in itertools.permutations(range(m), 2):
                first, second = _cancelling_pair(x, y, m)
                g = margins(Profile(m, (first, second)))
                expected = np.zeros((m, m), dtype=int)
                expected[x, y], expected[y, x] = 2, -2
                assert np.array_equal(g, expected)


class TestRealizeRelation:
    def test_three_cycle_weight_two(self):
        rel = next(
            r for r in enumerate_relations(3)
            if r.strictly_prefers(0, 1) and r.strictly_prefers(1, 2) and r.strictly_prefers(2, 0)
        )
        prof = realize_relation(rel, 2)
        assert prof.n <= 8 and prof.n % 2 == 0
        g = margins(prof)
        assert g[0, 1] == g[1, 2] == g[2, 0] == 2

    def test_all_ties_weight_two(self):
        rel = MajorityRelation(3, (0, 0, 0))
        assert not margins(realize_relation(rel, 2)).any()

    def test_index_order_weight_one_is_a_single_voter(self):
        rel = MajorityRelation.from_profile(Profile.from_rankings([(0, 1, 2, 3)]))
        prof = realize_relation(rel, 1)
        assert prof.ballots == ((0, 1, 2, 3),)

    def test_parity_conflict_rejected(self):
        rel = MajorityRelation(3, (0, 0, 0))
        with pytest.raises(ParityError):
            realize_relation(rel, 1)

    def test_every_relation_roundtrips(self):
        for m in (1, 2, 3, 4):
            for rel in enumerate_relations(m):
                prof = realize_relation(rel, 2)
                assert MajorityRelation.from_profile(prof) == rel

    def test_ballot_sequences_pinned_m_le_5(self):
        # SHA-256 of the repr of every realized ballot sequence at weight 2,
        # relations in enumeration order for m = 1..5, as the numpy-based
        # implementation produced them
        rels = [rel for m in range(1, 6) for rel in enumerate_relations(m)]
        ballots = [realize_relation(rel, 2).ballots for rel in rels]
        digest = hashlib.sha256(repr(ballots).encode()).hexdigest()
        assert digest == "9f397726153a0f4f7f5715da67e27b440212f8c7fff28f06277b3a7eddf2ac1d"

    def test_ballot_sequences_pinned_m5(self):
        # SHA-256 of the repr of every realized ballot sequence at weight 2
        # (the relation sweep's call), m = 5 relations in enumeration order,
        # as the per-pair count list produced them
        ballots = [realize_relation(rel, 2).ballots for rel in enumerate_relations(5)]
        digest = hashlib.sha256(repr(ballots).encode()).hexdigest()
        assert digest == "8b5364a3b8684755a21132b2b5a3b0c30d030e85a5d03b2dcc1155a4cd94e120"

    def test_unchecked_profiles_round_trip(self):
        prof = realize_relation(MajorityRelation(3, (0b010, 0b100, 0b001)), 2)
        assert not hasattr(prof, "__dict__")
        assert pickle.loads(pickle.dumps(prof)) == prof == copy.deepcopy(prof)

    def test_ballot_sequences_pinned_every_weight_m_le_4(self):
        # SHA-256 of the repr of every realized ballot sequence for m = 1..4,
        # relations in enumeration order, weights 1-4 where no pair ties and
        # 2 and 4 where one does, as the realization loop before the arc
        # table produced them; every strict margin is the weight, every tie 0
        sequences = []
        for m in (1, 2, 3, 4):
            for rel in enumerate_relations(m):
                tie_free = sum(s.bit_count() for s in rel.strict) == m * (m - 1) // 2
                for weight in (1, 2, 3, 4) if tie_free else (2, 4):
                    prof = realize_relation(rel, weight)
                    sequences.append(prof.ballots)
                    assert margins(prof).tolist() == [
                        [weight if rel.strictly_prefers(x, y)
                         else -weight if rel.strictly_prefers(y, x) else 0
                         for y in range(m)]
                        for x in range(m)
                    ]
        assert len(sequences) == 1670
        digest = hashlib.sha256(repr(sequences).encode()).hexdigest()
        assert digest == "a042056d33d087d8adda1170b4f1c143007f06adbf6f9cbaee39c3d62dbbda6a"

    def test_matches_realize_of_the_same_target(self):
        for m in (1, 2, 3, 4):
            for rel in enumerate_relations(m):
                tie_free = sum(s.bit_count() for s in rel.strict) == m * (m - 1) // 2
                for weight in (1, 2, 3) if tie_free else (2, 4):
                    target = np.array([
                        [weight if rel.strictly_prefers(x, y)
                         else -weight if rel.strictly_prefers(y, x) else 0
                         for y in range(m)]
                        for x in range(m)
                    ])
                    expected = realize(WeightedMajorityGraph(m, target))
                    assert realize_relation(rel, weight) == expected

    def test_single_alternative_odd_weight_is_a_pair(self):
        # no margins means even parity: the all-zero target's two ballots
        assert realize_relation(MajorityRelation(1, (0,)), 1).ballots == ((0,), (0,))

    def test_weight_below_one_rejected(self):
        # (2, 0): a beats b; the mask (1, 0) would have a beat itself, which
        # the relation's constructor refuses before any weight is read
        with pytest.raises(ValueError, match="weight must be at least 1"):
            realize_relation(MajorityRelation(2, (2, 0)), 0)

    @pytest.mark.parametrize("weight", [2.0, 1.5, "2", None])
    def test_a_non_integer_weight_is_refused(self, weight):
        with pytest.raises(ValueError, match="weight must be an integer"):
            realize_relation(MajorityRelation(2, (2, 0)), weight)

    def test_an_integer_like_weight_is_read_as_its_int(self):
        rel = MajorityRelation(2, (2, 0))
        assert realize_relation(rel, np.int64(3)) == realize_relation(rel, 3)


class TestRealizedProfilesAreValid:
    """Realized profiles skip Profile's checks; they must still pass them."""

    def test_every_relation_realization_passes_the_public_constructor(self):
        # odd weights (the seed voter) only where no pair ties
        for m in range(1, 6):
            for rel in enumerate_relations(m):
                tie_free = sum(s.bit_count() for s in rel.strict) == m * (m - 1) // 2
                for weight in (1, 2) if tie_free else (2,):
                    p = realize_relation(rel, weight)
                    assert Profile(p.m, p.ballots) == p

    def test_every_graph_realization_passes_the_public_constructor(self):
        rng = random.Random(20261018)
        for _ in range(60):
            p = realize(random_graph(rng, rng.randint(1, 6), 5))
            assert Profile(p.m, p.ballots) == p
        p = realize(WeightedMajorityGraph(3, np.zeros((3, 3), dtype=int)))
        assert Profile(p.m, p.ballots) == p
