import itertools

import pytest

from oracles import fishburn_literal, fplus_weak_literal
from setvote import extensions
from setvote.core import ChoiceSet
from setvote.extensions import (
    ExtensionKind,
    SetComparison,
    _at_least,
    _better,
    _fish,
    _fplus_weak,
    _gains,
    _prefers,
    _rank_of,
    compare,
    exists_prefers,
    fishburn_prefers,
    fplus_weakly_prefers,
)

ABC = (0, 1, 2)  # ballot a > b > c
A, B, C = 0, 1, 2


def nonempty_subsets(m):
    alts = range(m)
    for r in range(1, m + 1):
        for combo in itertools.combinations(alts, r):
            yield frozenset(combo)


class TestFishburn:
    def test_fig2_manipulation_pair(self):
        # the decisive voter ranks b > c > a and prefers {c} to {a, c}
        assert fishburn_prefers((B, C, A), {C}, {A, C})

    def test_vacuous_first_clause(self):
        assert fishburn_prefers(ABC, {A}, {A, C})

    def test_superset_not_preferred_when_added_item_is_worse(self):
        assert not fishburn_prefers(ABC, {A, C}, {A})
        assert fishburn_literal(ABC, {A, C}, {A}) is False

    def test_equal_sets_rejected(self):
        with pytest.raises(ValueError):
            fishburn_prefers(ABC, {A}, {A})

    def test_matches_literal_evaluation_exhaustively(self):
        for m in (2, 3, 4):
            for ballot in itertools.permutations(range(m)):
                for xs in nonempty_subsets(m):
                    for ys in nonempty_subsets(m):
                        if xs == ys:
                            continue
                        assert fishburn_prefers(ballot, xs, ys) == fishburn_literal(
                            ballot, xs, ys
                        )

    def test_asymmetric_exhaustively(self):
        for m in (2, 3, 4):
            for ballot in itertools.permutations(range(m)):
                for xs in nonempty_subsets(m):
                    for ys in nonempty_subsets(m):
                        if xs == ys:
                            continue
                        assert not (
                            fishburn_prefers(ballot, xs, ys)
                            and fishburn_prefers(ballot, ys, xs)
                        )

    def test_singletons_follow_the_ballot(self):
        for ballot in itertools.permutations(range(4)):
            pos = {a: i for i, a in enumerate(ballot)}
            for x, y in itertools.permutations(range(4), 2):
                assert fishburn_prefers(ballot, {x}, {y}) == (pos[x] < pos[y])


class TestExists:
    def test_empty_left_side(self):
        assert exists_prefers(ABC, frozenset(), {A, B, C})

    def test_no_witness(self):
        assert not exists_prefers(ABC, {C}, {A, B})

    def test_single_witness_suffices(self):
        assert exists_prefers(ABC, {A, C}, {B})

    def test_monotone_in_nonempty_left_argument(self):
        # growing a non-empty X can only add witnesses (the empty-set clause
        # makes the bare statement false at the boundary: {} vs {a} is true
        # under a > b while {b} vs {a} is not)
        m = 4
        for ballot in itertools.permutations(range(m)):
            for xs in nonempty_subsets(m):
                for ys in nonempty_subsets(m):
                    if not exists_prefers(ballot, xs, ys):
                        continue
                    for extra in range(m):
                        assert exists_prefers(ballot, xs | {extra}, ys)

    def test_boundary_counterexample_is_real(self):
        ballot = (A, B)
        assert exists_prefers(ballot, frozenset(), {A})
        assert not exists_prefers(ballot, {B}, {A})


class TestWeakOptimistic:
    def test_worked_example(self):
        assert fplus_weakly_prefers(ABC, {A, B}, {B, C})

    def test_reflexive(self):
        for xs in nonempty_subsets(3):
            assert fplus_weakly_prefers(ABC, xs, xs)

    def test_spot_case(self):
        assert fishburn_prefers(ABC, {A}, {B})
        assert fplus_weakly_prefers(ABC, {A}, {B})

    def test_implied_by_strict_lifting_exhaustively(self):
        for m in (2, 3, 4):
            for ballot in itertools.permutations(range(m)):
                for xs in nonempty_subsets(m):
                    for ys in nonempty_subsets(m):
                        if xs == ys:
                            continue
                        if fishburn_prefers(ballot, xs, ys):
                            assert fplus_weakly_prefers(ballot, xs, ys)


class TestCompare:
    def test_incomparable_pair(self):
        assert compare(ExtensionKind.FISHBURN, ABC, {A, C}, {B}) == SetComparison.INCOMPARABLE

    def test_equal(self):
        assert compare(ExtensionKind.FISHBURN, ABC, {A}, {A}) == SetComparison.EQUAL

    def test_fig2_left_preferred(self):
        verdict = compare(ExtensionKind.FISHBURN, (B, C, A), {C}, {A, C})
        assert verdict == SetComparison.LEFT_PREFERRED

    def test_antisymmetry_of_verdicts(self):
        for kind in ExtensionKind:
            for ballot in itertools.permutations(range(3)):
                for xs in nonempty_subsets(3):
                    for ys in nonempty_subsets(3):
                        fwd = compare(kind, ballot, xs, ys)
                        bwd = compare(kind, ballot, ys, xs)
                        if fwd == SetComparison.LEFT_PREFERRED:
                            assert bwd == SetComparison.RIGHT_PREFERRED
                        elif fwd == SetComparison.EQUAL:
                            assert bwd == SetComparison.EQUAL and xs == ys
                        elif fwd == SetComparison.INCOMPARABLE:
                            assert bwd == SetComparison.INCOMPARABLE


class TestLiftingNames:
    @pytest.mark.parametrize("kind", ["bogus", "Fishburn", "", None, 0, ["fplus"]])
    def test_an_unknown_lifting_is_refused(self, kind):
        # it used to be answered with the weak optimistic lifting
        with pytest.raises(ValueError, match="unknown lifting"):
            compare(kind, ABC, {A}, {B})

    def test_a_member_and_its_value_give_one_verdict(self):
        # the readings test the kind by identity with a member, so a value
        # must be made a member before it reaches them
        for kind, m in itertools.product(ExtensionKind, (3, 4)):
            for ballot in itertools.permutations(range(m)):
                for xs, ys in itertools.product(nonempty_subsets(m), repeat=2):
                    verdict = compare(kind, ballot, xs, ys)
                    assert compare(kind.value, ballot, xs, ys) == verdict

    def test_a_member_passes_through_unchanged(self):
        for kind in ExtensionKind:
            assert extensions._lifting(kind) is kind
            assert extensions._lifting(kind.value) is kind


def mask_of(xs):
    return sum(1 << x for x in xs)


class TestMaskLiftings:
    """The rank-and-mask implementations against the literal definitions, for
    every ballot with m <= 4 and every pair of non-empty sets."""

    def test_match_literal_definitions(self):
        for m in (1, 2, 3, 4):
            for ballot in itertools.permutations(range(m)):
                rank = _rank_of(ballot)
                for xs in nonempty_subsets(m):
                    for ys in nonempty_subsets(m):
                        x, y = mask_of(xs), mask_of(ys)
                        assert _fplus_weak(rank, x, y) == fplus_weak_literal(ballot, xs, ys)
                        assert exists_prefers(ballot, xs, ys) == any(
                            rank[a] < rank[b] for a in xs for b in ys
                        )
                        if xs != ys:
                            assert _fish(rank, x, y) == fishburn_literal(ballot, xs, ys)

    def test_public_functions_accept_choice_sets_and_iterables(self):
        ballot = (B, C, A)
        for xs, ys in (({C}, {A, C}), ([C], (A, C, C))):
            assert fishburn_prefers(ballot, xs, ys)
            assert fplus_weakly_prefers(ballot, xs, ys)
        as_sets = ChoiceSet.from_members(3, (C,)), ChoiceSet.from_members(3, (A, C))
        assert fishburn_prefers(ballot, *as_sets)
        assert compare(ExtensionKind.FPLUS, ballot, *as_sets) == SetComparison.LEFT_PREFERRED

    def test_empty_sets_rejected_where_undefined(self):
        for kind in ExtensionKind:
            with pytest.raises(ValueError):
                compare(kind, ABC, set(), {A})
            assert compare(kind, ABC, set(), ChoiceSet(3, 0)) == SetComparison.EQUAL
        with pytest.raises(ValueError):
            fishburn_prefers(ABC, {A}, [])
        with pytest.raises(ValueError):
            fplus_weakly_prefers(ABC, ChoiceSet(3, 0), {A})
        assert exists_prefers(ABC, {A}, ())


PUBLIC_LIFTINGS = [
    lambda ballot, xs, ys: compare(ExtensionKind.FISHBURN, ballot, xs, ys),
    lambda ballot, xs, ys: compare(ExtensionKind.FPLUS, ballot, xs, ys),
    fishburn_prefers,
    exists_prefers,
    fplus_weakly_prefers,
]


class TestOperandValidation:
    @pytest.mark.parametrize("lifting", PUBLIC_LIFTINGS)
    @pytest.mark.parametrize("ballot", [(0, 0, 1), (0, 1, 3), (-1, 0, 1), (0, 1.5, 2), ("a", 1, 2)])
    def test_a_ballot_that_is_not_a_ranking_is_refused(self, lifting, ballot):
        with pytest.raises(ValueError, match="is not a ranking of 0..2"):
            lifting(ballot, {A}, {B})

    def test_equal_sets_on_a_bad_ballot_are_refused(self):
        with pytest.raises(ValueError, match="is not a ranking"):
            compare(ExtensionKind.FISHBURN, (0, 0, 1), {A}, {A})

    @pytest.mark.parametrize("lifting", PUBLIC_LIFTINGS)
    @pytest.mark.parametrize("xs", [{3}, {A, 5}, {-1}, {1.5}, ChoiceSet(4, 0b0001)])
    def test_a_set_beyond_the_ballot_is_refused(self, lifting, xs):
        with pytest.raises(ValueError, match="on a ballot of|needs a ballot of as many"):
            lifting(ABC, xs, {B})
        with pytest.raises(ValueError, match="on a ballot of|needs a ballot of as many"):
            lifting(ABC, {B}, xs)

    def test_a_list_ballot_reads_as_its_tuple(self):
        assert compare(ExtensionKind.FISHBURN, [B, C, A], {C}, {A, C}) == SetComparison.LEFT_PREFERRED
        assert fishburn_prefers([B, C, A], {C}, {A, C})

    def test_a_smaller_set_universe_fits_a_longer_ballot(self):
        assert fishburn_prefers((3, 0, 1, 2), ChoiceSet(3, 0b001), ChoiceSet(3, 0b110))


class TestVerdictTables:
    """The tables the searches read against the direct readings, for every
    ballot with m <= 4, every pair of non-empty masks and both liftings."""

    def test_every_bit_matches_the_direct_reading(self):
        for kind in ExtensionKind:
            for m in (1, 2, 3, 4):
                full = 1 << m
                for ballot in itertools.permutations(range(m)):
                    rank = _rank_of(ballot)
                    for y in range(1, full):
                        better, gains = _better(kind, ballot, y), _gains(kind, ballot, y)
                        assert better >> full == 0 and gains >> full == 0
                        assert better & 1 == 0 and gains & 1 == 0
                        assert better >> y & 1 == 0
                        for x in range(1, full):
                            if x != y:
                                assert better >> x & 1 == _prefers(kind, rank, x, y)
                            assert gains >> x & 1 == (not _at_least(kind, rank, y, x))

    def test_a_table_is_built_once(self, monkeypatch):
        extensions._table.cache_clear()
        table = _better(ExtensionKind.FISHBURN, ABC, 0b011)
        monkeypatch.setattr(extensions, "_rank_of", None)
        assert _better(ExtensionKind.FISHBURN, ABC, 0b011) == table
