import dataclasses
import hashlib
import itertools
import math
import random
import re
import time
import types
from collections import Counter
from functools import lru_cache, partial

import numpy as np
import pytest

from oracles import naive_manipulation, own_order_misreports, witness_holds
from test_io import run_capped
from setvote import _engine, cli, core, extensions, rules, verify
from setvote.core import (
    ChoiceSet,
    _chain,
    MajorityRelation,
    Profile,
    connected_set,
    enumerate_ballots,
    enumerate_relations,
    margins,
)
from setvote.extensions import ExtensionKind, fishburn_prefers
from setvote.io import parse_report
from setvote.mcgarvey import WeightedMajorityGraph, realize_relation
from setvote.rules import (
    BasisTag,
    EmptyChoiceError,
    InstanceTooLargeError,
    RuleId,
    basis,
    catalog,
    evaluate,
    evaluate_on_relation,
    parse_rule,
)
from setvote.verify import (
    Axiom,
    AxiomVerdict,
    BudgetExceededError,
    Outcome,
    Universe,
    check_axiom,
    check_robust_dominant,
    check_weak_robustness,
    corroborate_theorems,
    find_group_manipulation,
    find_manipulation,
    find_strong_manipulation,
    replay,
    sweep_strategyproofness,
    sweep_strong_strategyproofness,
)

A, B, C = 0, 1, 2
TC = parse_rule("tc")


def replace_evaluator(monkeypatch, rule_id, evaluator):
    """Put `evaluator` in the rule's entry of the evaluator table, keeping its
    basis tag. An engine keeps the evaluator it was built with, so the shared
    engines are cleared, and the test gets shared engines of its own, which
    go when it ends."""
    tag, _ = rules._EVALUATORS[rule_id]
    monkeypatch.setitem(rules._EVALUATORS, rule_id, (tag, evaluator))
    _engine._shared_engine.cache_clear()
    monkeypatch.setattr(_engine, "_shared_engine", _engine._SharedEngines())


def counted_calls(monkeypatch, rule_id):
    """The argument tuples (rule, m, part) of every call to the rule's
    evaluator from here on, from empty shared engines."""
    calls = []
    evaluator = rules._EVALUATORS[rule_id][1]

    def counted(*args):
        calls.append(args)
        return evaluator(*args)

    replace_evaluator(monkeypatch, rule_id, counted)
    return calls


def predicates(universe, names):
    """A fresh predicate on the universe for each check of `names`, by name."""
    return {name: verify._CHECKS[name].factory(universe) for name in names}


def counted_enumerations(monkeypatch):
    """The universes enumerated from here on, once per call of either
    enumerator: `raw_profiles` (`count_profiles` of a margin-capped
    universe) or `_electorates` (its electorate count, or a walk)."""
    calls = []

    def counting(enumerate_):
        def counted(universe):
            calls.append(universe)
            return enumerate_(universe)

        return counted

    for name in ("raw_profiles", "_electorates"):
        monkeypatch.setattr(Universe, name, counting(getattr(Universe, name)))
    return calls


class TestFindManipulation:
    def test_plurality_fig2(self, fig2_left):
        man = find_manipulation(parse_rule("plurality"), fig2_left)
        assert man.voter == 4
        assert man.true_ballot == (B, C, A)
        assert man.misreport == (C, B, A)
        assert man.honest_set == ChoiceSet.from_members(3, (A, C))
        assert man.manipulated_set == ChoiceSet.from_members(3, (C,))
        assert fishburn_prefers(man.true_ballot, man.manipulated_set, man.honest_set)

    def test_top_cycle_fig2_is_safe(self, fig2_left):
        assert find_manipulation(TC, fig2_left) is None

    @pytest.mark.parametrize("find", [find_manipulation, find_strong_manipulation])
    def test_more_than_eight_alternatives_are_refused(self, find):
        # one voter on nine alternatives already has 9! - 1 misreports
        one = Profile.from_rankings([tuple(range(9))])
        with pytest.raises(rules.InstanceTooLargeError, match="refusing m=9 > 8"):
            find(TC, one)

    def test_single_alternative_profiles_are_safe(self):
        # fab is excluded: its special pair names a second alternative, so it
        # simply is not defined on one-alternative elections
        one = Profile.from_rankings([(0,)])
        for rule in catalog():
            if rule.id == RuleId.FAB:
                with pytest.raises(ValueError):
                    find_manipulation(rule, one)
                continue
            assert find_manipulation(rule, one) is None

    def test_deterministic(self, fig2_left):
        rule = parse_rule("plurality")
        assert find_manipulation(rule, fig2_left) == find_manipulation(rule, fig2_left)

    @pytest.mark.parametrize("find", [find_manipulation, find_strong_manipulation])
    @pytest.mark.parametrize("kind", ["bogus", None, 1])
    def test_an_unknown_lifting_is_refused(self, fig2_left, find, kind):
        # find_manipulation used to return None for it
        with pytest.raises(ValueError, match="unknown lifting"):
            find(parse_rule("plurality"), fig2_left, kind)

    def test_a_lifting_given_by_value_finds_the_same_witness(self, fig2_left):
        rule = parse_rule("plurality")
        for kind in ExtensionKind:
            by_value = find_manipulation(rule, fig2_left, kind.value)
            assert by_value == find_manipulation(rule, fig2_left, kind)
            assert by_value is None or by_value.extension is kind


class TestSweepStrategyproofness:
    def test_top_cycle_holds(self):
        verdict = sweep_strategyproofness(TC, Universe(3, 3))
        assert verdict.outcome == Outcome.HOLDS

    def test_top_cycle_holds_on_four_voters_and_four_alternatives(self):
        # 346,200 ordered profiles, each voter's misreports answered once per
        # (ballot, margin code)
        verdict = sweep_strategyproofness(TC, Universe(4, 4))
        assert verdict.outcome == Outcome.HOLDS

    def test_condorcet_rule_holds(self):
        verdict = sweep_strategyproofness(parse_rule("condorcet"), Universe(3, 3))
        assert verdict.outcome == Outcome.HOLDS

    def test_borda_violated_with_replayable_witness(self):
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        assert verdict.outcome == Outcome.VIOLATED
        assert replay(verdict)
        man = verdict.witness["manipulation"]
        assert find_manipulation(parse_rule("borda"), man.profile) == man

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            sweep_strategyproofness(TC, Universe(3, 3), budget=10)

    @pytest.mark.parametrize("sweep", [sweep_strategyproofness, sweep_strong_strategyproofness])
    @pytest.mark.parametrize("kind", ["bogus", None, 1])
    def test_an_unknown_lifting_is_refused(self, sweep, kind):
        # it used to leak an AttributeError from reading kind.value
        with pytest.raises(ValueError, match="unknown lifting"):
            sweep(TC, Universe(3, 2), kind)

    def test_a_lifting_given_by_value_gives_the_same_verdict(self):
        borda = parse_rule("borda")
        for kind in ExtensionKind:
            by_value = sweep_strategyproofness(borda, Universe(3, 3), kind.value)
            assert by_value == sweep_strategyproofness(borda, Universe(3, 3), kind)
            assert by_value.axiom == f"strategyproofness-{kind.value}"

    def test_negative_margin_cap_is_refused(self):
        with pytest.raises(ValueError, match="margin_cap must be non-negative, got -1"):
            Universe(3, 3, margin_cap=-1)

    @pytest.mark.parametrize("args,kwargs,name", [
        ((3, 2.0), {}, "n_max"),
        (("3", 2), {}, "m"),
        ((3.0, 2), {}, "m"),
        ((3, 2), {"k_hom": 2.5}, "k_hom"),
        ((3, 2), {"margin_cap": 1.5}, "margin_cap"),
        ((3, 2), {"margin_cap": "1"}, "margin_cap"),
    ])
    def test_a_non_integer_bound_is_refused(self, args, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            Universe(*args, **kwargs)

    def test_integer_like_bounds_are_read_as_ints(self):
        universe = Universe(
            np.int64(3), np.int16(1), k_hom=np.int8(2), margin_cap=np.uint8(1)
        )
        assert universe == Universe(3, 1, margin_cap=1)
        assert all(type(getattr(universe, f)) is int for f in ("m", "n_max", "k_hom", "margin_cap"))

    def test_margin_cap_keeps_exactly_the_profiles_within_it(self):
        expected = [
            p for p in Universe(3, 3).profiles() if np.abs(margins(p)).max() <= 1
        ]
        assert list(Universe(3, 3, margin_cap=1).profiles()) == expected

    def test_capped_sweep_witness(self):
        borda = parse_rule("borda")
        verdict = sweep_strategyproofness(borda, Universe(3, 3, margin_cap=1))
        man = verdict.witness["manipulation"]
        # abc, abc, cba: every margin is +-1, and the third voter lifts b
        assert man.profile.ballots == ((A, B, C), (A, B, C), (C, B, A))
        assert (man.voter, man.misreport) == (2, (B, C, A))
        assert man.honest_set == ChoiceSet.from_members(3, (A,))
        assert man.manipulated_set == ChoiceSet.from_members(3, (A, B))
        assert verdict != sweep_strategyproofness(borda, Universe(3, 3))
        assert replay(verdict)


class TestGroupManipulation:
    def test_group_of_one_matches_individual_search(self, fig2_left):
        rule = parse_rule("plurality")
        group = find_group_manipulation(rule, fig2_left, 1)
        single = find_manipulation(rule, fig2_left)
        assert group.voters == (single.voter,)
        assert group.misreports == (single.misreport,)
        assert group.manipulated_set == single.manipulated_set

    def test_pairs_remain_searchable(self, fig2_left):
        assert find_group_manipulation(parse_rule("plurality"), fig2_left, 2) is not None

    def test_top_cycle_fig1_safe_up_to_pairs(self, fig1):
        assert find_group_manipulation(TC, fig1, 2) is None

    def test_a_group_without_a_common_gain_is_skipped(self, fig1, monkeypatch):
        # on fig. 1 under tc only voters 1 and 3 both prefer some set to the
        # honest one, so of the six pairs only (1, 3) tries its 120^2 - 1
        # joint reports (it used to be all six); every voter alone tries its
        # 119 misreports, and the honest output is the first evaluation
        asked = []
        output = _engine._Engine.output

        def counted(engine, code, ballots):
            asked.append(code)
            return output(engine, code, ballots)

        monkeypatch.setattr(_engine._Engine, "output", counted)
        assert find_group_manipulation(TC, fig1, 2) is None
        assert len(asked) == 1 + 4 * 119 + (120**2 - 1)

    def test_budget_guard(self, fig1):
        with pytest.raises(BudgetExceededError):
            find_group_manipulation(TC, fig1, 3, budget=100)

    @pytest.mark.parametrize("max_group", [0, -3])
    def test_non_positive_group_size_is_refused(self, fig2_left, max_group):
        with pytest.raises(ValueError, match=f"max_group must be positive, got {max_group}"):
            find_group_manipulation(parse_rule("plurality"), fig2_left, max_group)

    @pytest.mark.parametrize("max_group", ["2", 2.0])
    def test_a_non_integer_group_size_is_refused(self, fig2_left, max_group):
        plurality = parse_rule("plurality")
        with pytest.raises(ValueError, match="^max_group must be an integer, got "):
            find_group_manipulation(plurality, fig2_left, max_group)
        found = find_group_manipulation(plurality, fig2_left, np.int64(2))
        assert found == find_group_manipulation(plurality, fig2_left, 2)

    def test_more_than_eight_alternatives_are_refused_before_any_move(self, monkeypatch):
        # the engine's ballot table refuses m > 8; the group search must
        # reach the same refusal instead of tabling 9! misreports
        profile = Profile(9, [tuple(range(9))])
        with pytest.raises(InstanceTooLargeError) as single:
            find_manipulation(TC, profile)
        tabled = []
        monkeypatch.setattr(_engine._Ballots, "ranked", lambda *args: tabled.append(args))
        with pytest.raises(InstanceTooLargeError) as group:
            find_group_manipulation(TC, profile, 1)
        assert str(group.value) == str(single.value) == (
            "the sweep engine tables all m! ballots; refusing m=9 > 8"
        )
        assert tabled == []

    def test_past_eight_alternatives_the_reach_is_asked_before_the_budget(self, monkeypatch):
        # 3 * 9! + 3 * 9!^2 + 9!^3 joint reports of three voters pass the
        # default budget, but no budget admits m = 9: the refusal names the
        # engine's reach, not a budget to raise
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        with pytest.raises(
            InstanceTooLargeError,
            match="^the sweep engine tables all m! ballots; refusing m=9 > 8$",
        ):
            find_group_manipulation(TC, Profile(9, [tuple(range(9))] * 3), 3)


CYCLE = Profile(3, ((A, B, C), (B, C, A), (C, A, B)))


@pytest.mark.parametrize("call,message", [
    pytest.param(
        lambda: Universe(3, 2, margin_cap=False), "margin_cap must be an integer, got False",
        id="margin-cap",
    ),
    pytest.param(lambda: Universe(True, 2), "m must be an integer, got True", id="universe-m"),
    pytest.param(lambda: ChoiceSet(True, 1), "m must be an integer, got True", id="choice-set-m"),
    pytest.param(
        lambda: sweep_strategyproofness(TC, Universe(2, 1), budget=True),
        "budget must be an integer, got True",
        id="budget",
    ),
    pytest.param(
        lambda: find_group_manipulation(TC, CYCLE, True),
        "max_group must be an integer, got True",
        id="max-group",
    ),
    pytest.param(lambda: CYCLE.tiled(True), "k must be an integer, got True", id="tiled"),
    pytest.param(
        lambda: CYCLE.replace_ballot(True, (C, B, A)),
        "voter must be an integer, got True",
        id="replace-ballot",
    ),
    pytest.param(
        lambda: connected_set(MajorityRelation.from_profile(CYCLE), True),
        "alternative True out of range for m=3",
        id="connected-set",
    ),
    pytest.param(
        lambda: ChoiceSet.from_members(3, [False]),
        "alternative False out of range for m=3",
        id="alternative",
    ),
    pytest.param(
        lambda: realize_relation(MajorityRelation.from_profile(CYCLE), True),
        "weight must be an integer, got True",
        id="weight",
    ),
    pytest.param(
        lambda: WeightedMajorityGraph(True, ((0,),)),
        "m must be an integer, got True",
        id="graph-m",
    ),
    pytest.param(
        lambda: WeightedMajorityGraph(2, ((0, True), (-1, 0))),
        "target entries must be integers",
        id="graph-entry",
    ),
])
def test_a_boolean_is_refused_where_an_integer_is_read(call, message):
    # Python counts False and True as ints: each of these read one as 0 or 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestVerdictTableBound:
    @staticmethod
    def verdicts(fig2_left):
        return (
            sweep_strategyproofness(TC, Universe(4, 3)),
            sweep_strong_strategyproofness(
                parse_rule("borda"), Universe(3, 3), ExtensionKind.FPLUS
            ),
            find_group_manipulation(parse_rule("plurality"), fig2_left, 2),
            check_axiom(Axiom.FISHBURN_EFFICIENCY, parse_rule("condorcet"), Universe(3, 2)),
        )

    def test_tables_that_start_afresh_give_the_same_verdicts(self, monkeypatch, fig2_left):
        assert extensions._table.cache_info().maxsize == 1 << 16
        extensions._table.cache_clear()
        default = self.verdicts(fig2_left)
        tables = lru_cache(maxsize=2)(extensions._table.__wrapped__)
        monkeypatch.setattr(extensions, "_table", tables)
        assert self.verdicts(fig2_left) == default
        # past the bound the oldest tables were dropped, not kept
        assert tables.cache_info().currsize == 2 < tables.cache_info().misses


class TestCheckAxiom:
    def test_lenient_top_cycle_fails_homogeneity_with_one_voter(self):
        verdict = check_axiom(Axiom.HOMOGENEITY, parse_rule("tc-star"), Universe(3, 1))
        assert verdict.outcome == Outcome.VIOLATED
        assert verdict.witness["k"] == 2
        before, after = verdict.witness["outputs"]
        assert len(before) == 3 and len(after) == 1
        assert replay(verdict)

    def test_budget_counts_homogeneity_tilings(self):
        # two profiles, each 4 evaluations per voter block plus 49 tilings:
        # 106 evaluations, over a budget that the first term alone (8) meets
        universe = Universe(2, 1, k_hom=50)
        with pytest.raises(BudgetExceededError):
            check_axiom(Axiom.HOMOGENEITY, TC, universe, budget=50)
        assert check_axiom(Axiom.HOMOGENEITY, TC, universe, budget=106).outcome == Outcome.HOLDS

    def test_budget_counts_a_margin_capped_universe_exactly(self):
        # a margin cap of 0 keeps 6 two-voter and 90 four-voter profiles of
        # the 1,554 on (3, <=4), which are 3 and 6 electorates, one walked
        # each: 9 * (4 * 3! * 3 + 1) = 657 axiom evaluations, and
        # 3 * (2 * 5 + 1) + 6 * (4 * 5 + 1) = 159 deviations and honest outputs
        universe = Universe(3, 4, margin_cap=0)
        assert universe.count_profiles() == 96
        assert Counter(map(len, universe._electorates())) == {2: 3, 4: 6}
        assert check_axiom(Axiom.COS, TC, universe, budget=10**4).outcome == Outcome.HOLDS
        for check, count in (
            (lambda budget: check_axiom(Axiom.COS, TC, universe, budget=budget), 657),
            (lambda budget: sweep_strategyproofness(TC, universe, budget=budget), 159),
        ):
            check(count)
            with pytest.raises(BudgetExceededError, match=f"^estimated {count} evaluations"):
                check(count - 1)

    def test_a_capped_refusal_stops_counting_past_the_budget(self, monkeypatch):
        # the first electorates (3, <=4) keeps under a margin cap of 0 are
        # its three two-voter {ballot, reversal} pairs, 73 axiom evaluations
        # each: a budget of 218 is passed at the third, where the count
        # stops and the refusal names the estimate so far. No count is kept
        # on the universe: every call counts anew, so the budget-218 refusal
        # meets three electorates on every call, also after a complete count
        met = []
        electorates = Universe._electorates

        def counted(universe):
            for electorate in electorates(universe):
                met.append(electorate)
                yield electorate

        monkeypatch.setattr(Universe, "_electorates", counted)
        universe = Universe(3, 4, margin_cap=0)
        fields = vars(Universe(3, 4, margin_cap=0))
        for budget, estimate, walked in ((218, 219, 3), (656, 657, 9), (218, 219, 3)):
            met.clear()
            with pytest.raises(BudgetExceededError, match=f"^estimated {estimate} evaluations"):
                check_axiom(Axiom.COS, TC, universe, budget=budget)
            assert len(met) == walked and vars(universe) == fields
        for _ in range(2):
            met.clear()
            assert check_axiom(Axiom.COS, TC, universe, budget=657).outcome == Outcome.HOLDS
            # counted (9 electorates), then walked
            assert len(met) == 2 * 9 and vars(universe) == fields
            met.clear()
            with pytest.raises(BudgetExceededError, match="^estimated 219 evaluations"):
                check_axiom(Axiom.COS, TC, universe, budget=218)
            assert len(met) == 3 and vars(universe) == fields
        # a fresh universe is admitted exactly when the complete count is
        for budget in (0, 72, 73, 218, 219, 656, 657, 10**4):
            try:
                check_axiom(Axiom.COS, TC, Universe(3, 4, margin_cap=0), budget=budget)
            except BudgetExceededError:
                assert budget < 657
            else:
                assert budget >= 657
        # (5, <=4) under a cap of 0 is refused at its first electorate, the
        # identity ballot and its reversal, 4 * 5! * 5 + 1 evaluations
        met.clear()
        with pytest.raises(BudgetExceededError, match="^estimated 2401 evaluations"):
            check_axiom(Axiom.PAIRWISENESS, TC, Universe(5, 4, margin_cap=0), budget=1)
        assert met == [((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))]

    def test_a_margin_capped_universe_is_counted_on_every_call(self, monkeypatch):
        # every call that walks electorates counts them with one _electorates
        # call, then walks them with one more per rule; a majoritarian rule's
        # robust-dominant check walks the majority relations instead, and
        # counts no electorate. No count is kept on the universe
        universe, wider = Universe(3, 2, margin_cap=0), Universe(3, 4, margin_cap=0)
        fields = vars(Universe(3, 2, margin_cap=0)), vars(Universe(3, 4, margin_cap=0))
        borda = parse_rule("borda")
        calls = counted_enumerations(monkeypatch)
        for call, expected in (
            (lambda: check_robust_dominant(TC, universe), []),
            (lambda: check_axiom(Axiom.COS, TC, universe), [universe] * 2),
            (lambda: check_axiom(Axiom.COS, TC, universe), [universe] * 2),
            (lambda: check_axiom(Axiom.COS, TC, wider), [wider] * 2),
            (lambda: check_axiom(Axiom.COS, TC, wider), [wider] * 2),
            (lambda: sweep_strong_strategyproofness(TC, universe), [universe] * 2),
            (lambda: check_robust_dominant(borda, universe), [universe] * 2),
            (lambda: check_robust_dominant(TC, universe), []),
            (lambda: check_weak_robustness(TC, universe), [universe] * 2),
            (lambda: corroborate_theorems(universe), [universe] * (1 + len(catalog()))),
            (lambda: corroborate_theorems(universe), [universe] * (1 + len(catalog()))),
        ):
            calls.clear()
            call()
            assert calls == expected and (vars(universe), vars(wider)) == fields

    @pytest.mark.parametrize("name", ["tc", "fab"])
    def test_an_axiom_given_by_value_gives_the_same_verdict(self, name):
        rule, universe = parse_rule(name), Universe(3, 2)
        by_value = check_axiom("neutrality", rule, universe)
        assert by_value == check_axiom(Axiom.NEUTRALITY, rule, universe)

    @pytest.mark.parametrize("axiom", ["bogus", 3])
    def test_an_unknown_axiom_is_refused_with_the_axioms_listed(self, axiom):
        with pytest.raises(ValueError) as refused:
            check_axiom(axiom, TC, Universe(3, 2))
        message = str(refused.value)
        assert message.startswith(f"unknown axiom {axiom!r}")
        assert all(a.value in message for a in Axiom)

    def test_special_pair_rule_fails_neutrality(self):
        verdict = check_axiom(Axiom.NEUTRALITY, parse_rule("fab"), Universe(3, 3))
        assert verdict.outcome == Outcome.VIOLATED
        assert replay(verdict)

    def test_omninomination_fails_pairwiseness(self):
        verdict = check_axiom(Axiom.PAIRWISENESS, parse_rule("omninomination"), Universe(3, 2))
        assert verdict.outcome == Outcome.VIOLATED
        p, q = verdict.witness["profiles"]
        assert (margins(p) == margins(q)).all()
        assert verdict.witness["outputs"][0] != verdict.witness["outputs"][1]
        assert replay(verdict)

    def test_condorcet_rule_never_reaches_pairs(self):
        verdict = check_axiom(Axiom.SET_NON_IMPOSITION, parse_rule("condorcet"), Universe(3, 3))
        assert verdict.outcome == Outcome.NOT_WITNESSED
        missing = {cs.mask for cs in verdict.witness["missing"]}
        assert missing == {0b011, 0b101, 0b110}

    def test_top_cycle_condorcet_stability_m4(self):
        verdict = check_axiom(Axiom.COS, TC, Universe(4, 3))
        assert verdict.outcome == Outcome.HOLDS

    def test_one_ballot_move_verdicts_are_pinned(self):
        # SHA-256 of the repr of every verdict of the checks that try
        # one-ballot changes (perturbations, relabelings, misreports) over the
        # catalog on two small universes; a not-evaluable check is recorded
        # by its error type
        checks = [
            lambda rule, universe, a=axiom: check_axiom(a, rule, universe)
            for axiom in (Axiom.NEUTRALITY, Axiom.WMON, Axiom.WSMON, Axiom.IUA, Axiom.WLOC)
        ]
        checks.append(sweep_strategyproofness)
        verdicts = []
        for universe in (Universe(3, 3), Universe(4, 2)):
            for rule in catalog():
                for check in checks:
                    try:
                        verdicts.append(repr(check(rule, universe)))
                    except (rules.TiesUnsupportedError, rules.InstanceTooLargeError) as exc:
                        verdicts.append(type(exc).__name__)
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        assert digest == "d90ee3cf125e7d9073e32271331a03f75555b9c0546a2c4f8b6e9ecabe291c60"

    def test_checkers_are_deterministic(self):
        rule = parse_rule("omninomination")
        a = check_axiom(Axiom.PAIRWISENESS, rule, Universe(3, 2))
        b = check_axiom(Axiom.PAIRWISENESS, rule, Universe(3, 2))
        assert a == b


class TestRobustness:
    def test_trio_robust_on_all_m3_relations(self):
        for rid in ("tc", "condorcet", "condorcet-non-loser"):
            verdict = check_robust_dominant(parse_rule(rid), Universe(3, 3))
            assert verdict.outcome == Outcome.HOLDS, rid

    def test_margin_threshold_fails_the_pair_scan_only(self):
        verdict = check_robust_dominant(parse_rule("margin-threshold"), Universe(3, 3))
        assert verdict.outcome == Outcome.VIOLATED
        # the witness is a profile pair, meaning every single output was dominant
        assert "profiles" in verdict.witness and "profile" not in verdict.witness
        assert replay(verdict)

    def test_schwartz_output_can_be_non_dominant(self):
        verdict = check_robust_dominant(parse_rule("schwartz"), Universe(3, 2))
        assert verdict.outcome == Outcome.VIOLATED
        assert "profile" in verdict.witness
        assert replay(verdict)

    def test_weak_robustness_of_top_cycle(self):
        assert check_weak_robustness(TC, Universe(3, 3)).outcome == Outcome.HOLDS

    def test_weak_robustness_fails_for_plurality(self):
        verdict = check_weak_robustness(parse_rule("plurality"), Universe(3, 3))
        assert verdict.outcome == Outcome.VIOLATED
        assert replay(verdict)

    def test_vacuous_premise_holds(self):
        assert check_weak_robustness(TC, Universe(1, 1)).outcome == Outcome.HOLDS

    @pytest.mark.parametrize("universe", [Universe(3, 4), Universe(4, 3)], ids=str)
    @pytest.mark.parametrize("name", [
        # tc and fab:ab hold on both universes, maximin and schwartz on
        # (4, <=3) only; the rest are violated on both
        "tc", "fab:ab", "maximin", "schwartz", "plurality", "borda", "pareto", "kemeny",
        "omninomination",
    ])
    def test_weak_robustness_matches_the_all_pairs_scan(self, universe, name):
        # the oracle tries every ordered pair of electorates, duplicates of
        # an earlier (output, margins) included, and reports the first
        # violating one
        rule, m = parse_rule(name), universe.m
        profiles = [Profile(m, e) for e in universe._electorates()]
        outs = np.array([evaluate(rule, p).mask for p in profiles])
        gs = np.array([margins(p) for p in profiles])
        expected = None
        for p, out, g in zip(profiles, outs, gs):
            inside = [x for x in range(m) if out >> x & 1]
            outside = [y for y in range(m) if not out >> y & 1]
            rows, cols = np.ix_(inside, outside)
            gained = np.all(gs[:, rows, cols] >= g[rows, cols], axis=(1, 2))
            (partners,) = np.nonzero(gained & (outs & ~out != 0))
            if len(partners):
                q = partners[0]
                expected = {
                    "profiles": (p, profiles[q]),
                    "outputs": (ChoiceSet(m, int(out)), ChoiceSet(m, int(outs[q]))),
                }
                break
        verdict = check_weak_robustness(rule, universe)
        assert verdict.outcome == (Outcome.HOLDS if expected is None else Outcome.VIOLATED)
        assert verdict.witness == expected

    @pytest.mark.parametrize("universe", [Universe(3, 4), Universe(4, 3)], ids=str)
    @pytest.mark.parametrize("name", [r.name for r in catalog()])
    def test_robust_dominance_matches_the_all_pairs_scan(self, universe, name):
        # the oracle walks what the check walks (every majority relation,
        # realized with two voters per pair, for a majoritarian rule, and
        # the electorates otherwise), reads dominance off the margins, and
        # reports the first error or non-dominant output in walk order,
        # else the first ordered pair (p, q) where p's output is dominant at
        # q and q chooses outside it
        rule, m = parse_rule(name), universe.m
        if basis(rule) == BasisTag.MAJORITARIAN:
            profiles = [realize_relation(rel, 2) for rel in enumerate_relations(m)]
        else:
            profiles = [Profile(m, e) for e in universe._electorates()]
        subsets = range(1 << m)
        # dominant[q, s]: every member of s strictly beats every non-member at q
        dominant = np.empty((len(profiles), len(subsets)), dtype=bool)
        outs, expected = [], None
        for q, p in enumerate(profiles):
            try:
                out = evaluate(rule, p).mask
            except (rules.TiesUnsupportedError, rules.InstanceTooLargeError) as exc:
                expected = exc
                break
            g = margins(p)
            for s in subsets:
                dominant[q, s] = all(
                    g[x, y] > 0 for x in range(m) for y in range(m) if s >> x & 1 > s >> y & 1
                )
            if not dominant[q, out]:
                expected = {"profile": p, "output": ChoiceSet(m, out)}
                break
            outs.append(out)
        if expected is None:
            outs = np.array(outs)
            for p, out in zip(profiles, outs):
                (partners,) = np.nonzero(dominant[:, out] & (outs & ~out != 0))
                if len(partners):
                    q = partners[0]
                    expected = {
                        "profiles": (p, profiles[q]),
                        "outputs": (ChoiceSet(m, int(out)), ChoiceSet(m, int(outs[q]))),
                    }
                    break
        if isinstance(expected, Exception):
            with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                check_robust_dominant(rule, universe)
            return
        verdict = check_robust_dominant(rule, universe)
        assert verdict.outcome == (Outcome.HOLDS if expected is None else Outcome.VIOLATED)
        assert verdict.witness == expected

    def test_verdicts_are_pinned(self):
        # SHA-256 of the repr of every robust-dominant and weak-robustness
        # verdict (or not-evaluable error) over the catalog on three small
        # universes, plus the majoritarian rules on four alternatives: the
        # verdicts of the standalone pair scans the walk predicates replaced
        cases = [(r, Universe(m, n)) for m, n in ((2, 3), (3, 2), (3, 3)) for r in catalog()]
        cases += [(r, Universe(4, 1)) for r in catalog() if basis(r) == BasisTag.MAJORITARIAN]
        verdicts = []
        for rule, universe in cases:
            for check in (check_robust_dominant, check_weak_robustness):
                try:
                    verdicts.append(repr(check(rule, universe)))
                except rules.TiesUnsupportedError as exc:
                    verdicts.append(f"{type(exc).__name__}: {exc}")
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        assert digest == "6381fe46f0b5d268d63583e6333eb23a14c9c14f74d945dda1b0d8b5b50b2d4c"

    def test_the_predicate_evaluates_no_chain_link_past_the_output(self, monkeypatch):
        # the linear order a > b > c > d has the chain {a}, {a,b}, {a,b,c},
        # {a,b,c,d}: an output that is its i-th link costs i calls of the
        # top-cycle kernel, and {b}, which the first link leaves, costs one
        strict = (0b1110, 0b1100, 0b1000, 0b0000)
        calls = []
        kernel = core._tc_mask

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(core, "_tc_mask", counted)
        profile = Profile(4, ((A, B, C, 3),))
        for out, links in ((0b1, 1), (0b11, 2), (0b111, 3), (0b1111, 4), (0b10, 1)):
            calls.clear()
            ctx = types.SimpleNamespace(m=4, strict=strict, out=out, profile=profile)
            found = verify._RobustDominant(Universe(4, 1))(ctx)
            assert (found is not None) == (out == 0b10)
            assert len(calls) == links, out

    @pytest.mark.parametrize("name", ["tc", "borda", "plurality"])
    @pytest.mark.parametrize("cap,electorates", [(None, 6 + 21), (0, 3)])
    def test_weak_robustness_budget_counts_the_electorates(self, name, cap, electorates):
        # weak robustness evaluates each electorate on (3, <=2) once (6
        # single ballots and comb(6 + 1, 2) = 21 pairs of them, of which a
        # margin cap of 0 keeps the three {ballot, reversal} pairs) and
        # judges its pairs on bit sets, so it counts the electorates, not
        # the ordered pairs of them
        rule, universe = parse_rule(name), Universe(3, 2, margin_cap=cap)
        check_weak_robustness(rule, universe, budget=electorates)
        with pytest.raises(
            BudgetExceededError,
            match=f"^estimated {electorates} evaluations exceed the budget$",
        ):
            check_weak_robustness(rule, universe, budget=electorates - 1)

    @pytest.mark.parametrize("name", ["tc", "borda", "plurality"])
    @pytest.mark.parametrize("cap,electorates", [(None, 6 + 21), (0, 3)])
    def test_robust_dominant_budget_counts_its_one_pass(self, name, cap, electorates):
        # robust dominance judges every pair in one pass, so it counts what
        # that pass walks: the electorates above, or the 27 relations on
        # three alternatives when a majoritarian rule's robustness ranges
        # over relations
        rule, universe = parse_rule(name), Universe(3, 2, margin_cap=cap)
        count = 27 if basis(rule) == BasisTag.MAJORITARIAN else electorates
        check_robust_dominant(rule, universe, budget=count)
        with pytest.raises(
            BudgetExceededError, match=f"^estimated {count} evaluations exceed the budget$"
        ):
            check_robust_dominant(rule, universe, budget=count - 1)

    @pytest.mark.parametrize("check,universe", [
        (check_robust_dominant, Universe(5, 1)),
        (check_weak_robustness, Universe(5, 3)),
    ], ids=["robust-dominant", "weak-robustness"])
    def test_top_cycle_on_five_alternatives_fits_the_default_budget(
        self, monkeypatch, check, universe
    ):
        # each estimate counts what its one pass evaluates, not ordered pairs:
        # robust dominance the 3^10 = 59,049 relations on five alternatives
        # (not 9^10), weak robustness the 302,620 electorates on (5, <=3)
        # (not 9.2 * 10^10)
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        assert check(TC, universe).outcome == Outcome.HOLDS

    @pytest.mark.parametrize("m", [9, 12])
    @pytest.mark.parametrize("check", [check_robust_dominant, check_weak_robustness])
    def test_more_than_eight_alternatives_are_refused_before_any_table(
        self, monkeypatch, check, m
    ):
        # the default budget admits one voter on m! ballots, but the engine
        # refuses to table them: no ballot table and no layout is kept
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        _engine._ballots.cache_clear()
        _engine._margin_code.cache_clear()
        with pytest.raises(
            InstanceTooLargeError,
            match=f"^the sweep engine tables all m! ballots; refusing m={m} > 8$",
        ):
            check(parse_rule("borda"), Universe(m, 1))
        assert _engine._ballots.cache_info().currsize == 0
        assert _engine._margin_code.cache_info().currsize == 0


class TestStrongStrategyproofness:
    def test_top_cycle_fails_the_strict_variant(self):
        verdict = sweep_strong_strategyproofness(TC, Universe(3, 3), ExtensionKind.FISHBURN)
        assert verdict.outcome == Outcome.VIOLATED
        man = verdict.witness["manipulation"]
        assert find_strong_manipulation(TC, man.profile, ExtensionKind.FISHBURN) == man
        assert replay(verdict)

    def test_top_cycle_passes_the_weak_variant(self):
        verdict = sweep_strong_strategyproofness(TC, Universe(3, 3), ExtensionKind.FPLUS)
        assert verdict.outcome == Outcome.HOLDS

    def test_one_memo_serves_the_whole_sweep(self, monkeypatch):
        # the sweep builds its own engine, so the count is the sweep's own
        calls = counted_calls(monkeypatch, RuleId.TOP_CYCLE)
        sweep_strong_strategyproofness(TC, Universe(3, 3))
        # at most one evaluation per majority relation on three alternatives
        assert len(calls) <= 27


class TestTwinSymmetry:
    # opt-in checker, deliberately outside the default suite
    def test_not_in_default_suite(self):
        from setvote.verify import full_suite

        assert Axiom.TWIN_SYMMETRY not in full_suite()

    def test_omninomination_splits_margin_twins(self):
        verdict = check_axiom(Axiom.TWIN_SYMMETRY, parse_rule("omninomination"), Universe(3, 2))
        assert verdict.outcome == Outcome.VIOLATED
        assert replay(verdict)

    def test_majoritarian_rules_respect_margin_twins(self):
        for rid in ("tc", "condorcet", "schwartz"):
            verdict = check_axiom(Axiom.TWIN_SYMMETRY, parse_rule(rid), Universe(3, 3))
            assert verdict.outcome == Outcome.HOLDS, rid


class TestCorroboration:
    def test_shadow_assertions_hold(self):
        # three voters are needed before the margin-sensitive rules separate
        # from the trivial ones (margins above 2 only exist from n = 3 on)
        report = corroborate_theorems(Universe(3, 3))
        assert report.passed, [a for a in report.assertions if not a[1]]

    @pytest.mark.parametrize("names,n_max,largest", [
        # the axiom bound of (3, <=2): 27 electorates * (2 * 3! * 3 + 1)
        (("tc",), 2, 999),
        # the axiom bound of (3, <=3): 83 electorates * (3 * 3! * 3 + 1), above
        # the 83 that borda's robust-dominant check walks once each
        (("tc", "borda"), 3, 4565),
    ])
    def test_refused_below_its_largest_estimate_before_any_walk(
        self, monkeypatch, names, n_max, largest
    ):
        universe, catalog_rules = Universe(3, n_max), tuple(map(parse_rule, names))
        corroborate_theorems(universe, rules=catalog_rules, budget=largest)
        calls = counted_enumerations(monkeypatch)
        with pytest.raises(
            BudgetExceededError, match=f"^estimated {largest} evaluations exceed the budget$"
        ):
            corroborate_theorems(universe, rules=catalog_rules, budget=largest - 1)
        assert calls == []

    def test_four_alternatives_and_four_voters_fit_the_default_budget(self):
        # 20,474 electorates, not 346,200 ordered profiles: the largest
        # estimate is their axiom bound 20,474 * (4 * 4! * 4 + 1), since the
        # robust-dominant check of the non-majoritarian rules walks each
        # electorate once
        universe = Universe(4, 4)
        # comb(4! + n - 1, n) multisets of n ballots
        assert Counter(map(len, universe._electorates())) == {1: 24, 2: 300, 3: 2600, 4: 17550}
        largest = 20474 * 385
        assert largest <= verify.DEFAULT_BUDGET
        with pytest.raises(
            BudgetExceededError, match=f"^estimated {largest} evaluations exceed the budget$"
        ):
            corroborate_theorems(universe, budget=largest - 1)

    def test_an_outcome_is_the_first_verdict_of_its_rule_and_axiom(self):
        report = corroborate_theorems(
            Universe(3, 2), rules=(parse_rule("tc"), parse_rule("borda"))
        )
        flipped = tuple(
            dataclasses.replace(v, outcome=Outcome.NOT_WITNESSED) for v in report.verdicts
        )
        doubled = dataclasses.replace(report, verdicts=report.verdicts + flipped)
        assert {v.outcome for v in report.verdicts} != {Outcome.NOT_WITNESSED}
        for v in report.verdicts:
            assert doubled.outcome(v.rule.name, v.axiom) == v.outcome
        assert doubled.outcome("tc", Axiom.NEUTRALITY) == Outcome.HOLDS
        assert doubled.outcome("tc", "no-such-axiom") is None
        assert doubled.outcome("plurality", Axiom.NEUTRALITY.value) is None
        assert doubled.failures("borda", ("pairwiseness", "no-such-axiom")) == (
            ("no-such-axiom",)
        )

    def test_all_violation_witnesses_replay(self):
        report = corroborate_theorems(Universe(3, 2))
        violated = [v for v in report.verdicts if v.outcome == Outcome.VIOLATED]
        assert violated
        for verdict in violated:
            assert replay(verdict), (verdict.rule.name, verdict.axiom)
            assert witness_holds(verdict), (verdict.rule.name, verdict.axiom)

    def test_voter_order_never_matters(self):
        # the sweeps treat ballots as a sequence; rule outputs must not
        rng = random.Random(7)
        profiles = []
        for _ in range(25):
            n = rng.randint(2, 4)
            profiles.append(
                Profile.from_rankings(
                    [tuple(rng.sample(range(3), 3)) for _ in range(n)]
                )
            )
        for rule in catalog():
            for prof in profiles:
                shuffled = list(prof.ballots)
                rng.shuffle(shuffled)
                try:
                    lhs = evaluate(rule, prof)
                except ValueError:
                    continue
                assert lhs == evaluate(rule, Profile(3, tuple(shuffled)))


def _checked(axiom, rule_name, universe):
    return lambda: check_axiom(axiom, parse_rule(rule_name), universe)


_FISHBURN, _FPLUS = ExtensionKind.FISHBURN, ExtensionKind.FPLUS
# one violated verdict per replayable check
_VIOLATIONS = {
    "pairwiseness": _checked(Axiom.PAIRWISENESS, "omninomination", Universe(3, 2)),
    "majoritarianess": _checked(Axiom.MAJORITARIANESS, "plurality", Universe(3, 2)),
    "neutrality": _checked(Axiom.NEUTRALITY, "fab", Universe(3, 2)),
    "homogeneity": _checked(Axiom.HOMOGENEITY, "tc-star", Universe(3, 1)),
    "strong-condorcet": _checked(
        Axiom.STRONG_CONDORCET_CONSISTENCY, "borda", Universe(3, 2)
    ),
    "condorcet-stability": _checked(Axiom.COS, "margin-threshold", Universe(3, 2)),
    "wsmon": _checked(Axiom.WSMON, "plurality", Universe(3, 4)),
    "iua": _checked(Axiom.IUA, "borda", Universe(3, 2)),
    "wloc": _checked(Axiom.WLOC, "borda", Universe(3, 3)),
    "fishburn-efficiency": _checked(Axiom.FISHBURN_EFFICIENCY, "condorcet", Universe(3, 2)),
    "twin-symmetry": _checked(Axiom.TWIN_SYMMETRY, "omninomination", Universe(3, 2)),
    "sp-fishburn": lambda: sweep_strategyproofness(
        parse_rule("borda"), Universe(3, 2), _FISHBURN
    ),
    "sp-fplus": lambda: sweep_strategyproofness(parse_rule("borda"), Universe(3, 2), _FPLUS),
    "strong-sp-fishburn": lambda: sweep_strong_strategyproofness(TC, Universe(3, 2)),
    "strong-sp-fplus": lambda: sweep_strong_strategyproofness(
        parse_rule("plurality"), Universe(3, 2), _FPLUS
    ),
    "robust-dominant-one-profile": lambda: check_robust_dominant(
        parse_rule("schwartz"), Universe(3, 2)
    ),
    "robust-dominant-pair": lambda: check_robust_dominant(
        parse_rule("margin-threshold"), Universe(3, 3)
    ),
    "weak-robustness": lambda: check_weak_robustness(parse_rule("plurality"), Universe(3, 2)),
}


def _tampered(verdict):
    """The verdict with one stored witness value changed."""
    w = dict(verdict.witness)
    m = verdict.universe.m
    if "manipulation" in w:
        man = w["manipulation"]
        w["manipulation"] = dataclasses.replace(man, manipulated_set=man.honest_set)
    elif "outputs" in w:
        w["outputs"] = w["outputs"][::-1]
    else:
        full = (1 << m) - 1
        w["output"] = ChoiceSet(m, 1 if w["output"].mask == full else full)
    return dataclasses.replace(verdict, witness=w)


class TestReplay:
    @pytest.mark.parametrize("case", sorted(_VIOLATIONS))
    def test_witness_replays_and_a_tampered_one_does_not(self, case):
        verdict = _VIOLATIONS[case]()
        assert verdict.outcome == Outcome.VIOLATED
        assert replay(verdict)
        assert witness_holds(verdict)
        assert not replay(_tampered(verdict))

    def test_witness_outside_its_universe_is_refused(self):
        verdict = _VIOLATIONS["sp-fishburn"]()
        man = verdict.witness["manipulation"]
        tripled = dataclasses.replace(man, profile=Profile(3, man.profile.ballots * 3))
        assert not replay(dataclasses.replace(verdict, witness={"manipulation": tripled}))

    def test_witness_beyond_the_margin_cap_is_refused(self):
        # abc, abc, bac has |g(a, c)| = 3, so Universe(3, 3, margin_cap=1)
        # never holds it, although it has the universe's m and n
        borda = parse_rule("borda")
        profile = Profile(3, ((A, B, C), (A, B, C), (B, A, C)))
        capped = Universe(3, 3, margin_cap=1)
        assert profile.ballots not in set(capped.raw_profiles())
        verdict = AxiomVerdict(
            "strategyproofness-fishburn", borda, capped, Outcome.VIOLATED,
            {"manipulation": find_manipulation(borda, profile)},
        )
        assert not replay(verdict)
        assert replay(dataclasses.replace(verdict, universe=Universe(3, 3)))
        assert replay(sweep_strategyproofness(borda, capped))

    def test_invented_weak_monotonicity_witness_is_refused(self):
        # no catalog rule violates weak monotonicity on a small universe; the
        # top cycle satisfies it, so no witness for it can replay
        profile = Profile(3, ((A, B, C), (B, C, A)))
        verdict = AxiomVerdict(
            Axiom.WMON.value, TC, Universe(3, 2), Outcome.VIOLATED,
            {
                "profile": profile,
                "voter": 0,
                "reinforced": B,
                "against": A,
                "outputs": (ChoiceSet.from_members(3, (A, B)), ChoiceSet.from_members(3, (A,))),
            },
        )
        assert not replay(verdict)
        assert check_axiom(Axiom.WMON, TC, Universe(3, 2)).outcome == Outcome.HOLDS


class TestWalk:
    def test_an_error_inside_one_check_closes_that_check_only(self):
        universe = Universe(3, 2)

        def refuses(ctx):
            raise rules.TiesUnsupportedError("this check only")

        cos = Axiom.COS.value
        results = verify._verdicts(
            TC, universe, {"refuses": refuses, **predicates(universe, [cos])}
        )
        assert str(results["refuses"]) == "this check only"
        assert results[cos] == check_axiom(Axiom.COS, TC, universe)
        assert results[cos].outcome == Outcome.HOLDS


class TestAxiomsCommand:
    """`setvote axioms` runs every requested check on one walk, through the
    runner the single-check functions index."""

    @staticmethod
    def reported(tmp_path, rule_name, names=()):
        out_json = tmp_path / "report.json"
        command = ["axioms", "--rule", rule_name, "--m", "3", "--n", "3"]
        for name in names:
            command += ["--axiom", name]
        cli.main([*command, "--json", str(out_json)])
        return parse_report(out_json.read_text())

    @pytest.mark.parametrize("rule_name", ["tc", "borda", "pareto"])
    def test_the_default_suite_gives_the_single_check_verdicts(self, tmp_path, rule_name):
        rule, universe = parse_rule(rule_name), Universe(3, 3)
        expected = [check_axiom(axiom, rule, universe) for axiom in verify.full_suite()]
        assert self.reported(tmp_path, rule_name) == expected

    @pytest.mark.parametrize("rule_name", ["tc", "borda", "pareto"])
    def test_a_repeated_check_is_reported_where_it_is_asked(self, tmp_path, rule_name):
        rule, universe = parse_rule(rule_name), Universe(3, 3)
        sp = sweep_strategyproofness(rule, universe)
        pairwise = check_axiom(Axiom.PAIRWISENESS, rule, universe)
        names = (sp.axiom, pairwise.axiom, sp.axiom)
        assert self.reported(tmp_path, rule_name, names) == [sp, pairwise, sp]

    @pytest.mark.parametrize("rule_name", ["tc", "borda", "pareto"])
    def test_the_electorates_are_enumerated_once(self, monkeypatch, tmp_path, rule_name):
        calls = counted_enumerations(monkeypatch)
        self.reported(tmp_path, rule_name)
        assert calls == [Universe(3, 3)]

    def test_the_largest_estimate_is_refused_before_any_walk(self, monkeypatch, capsys):
        # strategyproofness alone estimates 1,163 evaluations on (3, <=3),
        # pairwiseness the axiom bound 83 * (3 * 3! * 3 + 1)
        monkeypatch.setenv("SETVOTE_BUDGET", "1163")
        evaluations = counted_calls(monkeypatch, TC.id)
        calls = counted_enumerations(monkeypatch)
        command = ["axioms", "--rule", "tc", "--m", "3", "--n", "3"]
        command += ["--axiom", "strategyproofness-fishburn", "--axiom", "pairwiseness"]
        assert cli.main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: estimated 4565 evaluations exceed the budget\n"
        assert captured.out == ""
        assert calls == evaluations == []


def test_corroboration_gives_the_single_check_verdicts():
    # every verdict is the single check's, and every check not evaluable on a
    # rule is filed with the error the single check raises
    universe = Universe(3, 3)
    report = corroborate_theorems(universe)
    singles = {
        verify.SP_FISHBURN: lambda rule: sweep_strategyproofness(rule, universe),
        **{
            axiom.value: partial(check_axiom, axiom, universe=universe)
            for axiom in verify.full_suite()
        },
        "robust-dominant-set": lambda rule: check_robust_dominant(rule, universe),
    }
    verdicts, not_evaluable = [], {}
    for rule in catalog():
        for name, single in singles.items():
            try:
                verdicts.append(single(rule))
            except verify._NOT_EVALUABLE as error:
                not_evaluable[(rule.name, name)] = str(error)
    assert not_evaluable
    assert report.verdicts == tuple(verdicts)
    assert report.not_evaluable == not_evaluable


def recorded_builds(monkeypatch):
    """The names of the checks whose predicates are built from here on: the
    factory of every entry in `verify._CHECKS` records its name when called."""
    built = []

    def recording(name, factory):
        def recorded(universe):
            built.append(name)
            return factory(universe)

        return recorded

    for name, entry in list(verify._CHECKS.items()):
        recorded = dataclasses.replace(entry, factory=recording(name, entry.factory))
        monkeypatch.setitem(verify._CHECKS, name, recorded)
    return built


class TestRefusedBeforeBuilt:
    """A sweep the engine's reach or the budget refuses builds no predicate:
    `_Imposition` alone holds all 2^m - 1 target sets once built."""

    _SWEEPS = {
        "set-non-imposition": lambda universe, budget: check_axiom(
            Axiom.SET_NON_IMPOSITION, TC, universe, budget=budget
        ),
        "strategyproofness": lambda universe, budget: sweep_strategyproofness(
            TC, universe, budget=budget
        ),
        "robust-dominance": lambda universe, budget: check_robust_dominant(
            TC, universe, budget=budget
        ),
        "corroboration": lambda universe, budget: corroborate_theorems(
            universe, budget=budget
        ),
    }

    @pytest.mark.parametrize("sweep", _SWEEPS.values(), ids=list(_SWEEPS))
    def test_a_refused_sweep_builds_no_predicate(self, monkeypatch, sweep):
        built = recorded_builds(monkeypatch)
        with pytest.raises(
            BudgetExceededError, match=r"^estimated \d+ evaluations exceed the budget$"
        ):
            sweep(Universe(3, 3), 1)
        assert built == []
        # the recording sees the predicates an admitted sweep builds
        sweep(Universe(2, 1), None)
        assert built

    @pytest.mark.parametrize("name", ["set-non-imposition", "strategyproofness", "corroboration"])
    def test_a_walk_past_eight_alternatives_builds_no_predicate(self, monkeypatch, name):
        # the default budget admits one voter on 9! ballots, but no budget
        # admits the walk: the engine's reach refuses before any estimate
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        built = recorded_builds(monkeypatch)
        with pytest.raises(
            InstanceTooLargeError,
            match="^the sweep engine tables all m! ballots; refusing m=9 > 8$",
        ):
            self._SWEEPS[name](Universe(9, 1), None)
        assert built == []

    def test_a_margin_capped_walk_past_eight_alternatives_keeps_no_table(self):
        # a margin-capped estimate would count the electorates over all 12!
        # ballots; in a child held to a small address space, the engine's
        # reach refuses first and keeps no ballot table and no layout
        script = (
            "from setvote import _engine\n"
            "from setvote.rules import InstanceTooLargeError, parse_rule\n"
            "from setvote.verify import Axiom, Universe, check_axiom\n"
            "try:\n"
            "    check_axiom(Axiom.COS, parse_rule('tc'), Universe(12, 1, margin_cap=0))\n"
            "except InstanceTooLargeError as error:\n"
            "    print(error)\n"
            "print(_engine._ballots.cache_info().currsize, _engine._margin_code.cache_info().currsize)\n"
        )
        run = run_capped(script)
        assert run.stdout == (
            "the sweep engine tables all m! ballots; refusing m=12 > 8\n0 0\n"
        ), run.stderr

    def test_a_refused_axioms_command_builds_no_predicate(self, monkeypatch, capsys):
        monkeypatch.setenv("SETVOTE_BUDGET", "1")
        built = recorded_builds(monkeypatch)
        command = ["axioms", "--rule", "tc", "--m", "3", "--n", "3"]
        command += ["--axiom", "set-non-imposition", "--axiom", "pairwiseness"]
        assert cli.main(command) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: estimated \d+ evaluations exceed the budget\n", captured.err)
        assert captured.out == ""
        assert built == []


def _pairwiseness(universe):
    return check_axiom(Axiom.PAIRWISENESS, TC, universe)


class TestEstimate:
    """`Universe._estimate` sums an uncapped universe in closed form, counts
    a capped one electorate by electorate, and takes no count past the
    budget's bit length."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_the_estimate_sums_what_each_electorate_costs(self, monkeypatch, m):
        # every check of the table, on a majoritarian and a pairwise rule:
        # a + c * len(e) summed over the electorates the walk meets, or
        # 3^C(m, 2) when the check walks the majority relations. Every
        # estimate of a capped universe counts its electorates anew, so they
        # are listed once per universe here
        electorates = Universe._electorates
        listed = lru_cache(maxsize=None)(lambda universe: tuple(electorates(universe)))
        monkeypatch.setattr(Universe, "_electorates", lambda universe: iter(listed(universe)))
        for cap in (None, 0, 1):
            sizes = Counter(map(len, Universe(m, 5, margin_cap=cap)._electorates()))
            for n_max, k_hom in itertools.product(range(1, 6), (2, 3)):
                universe = Universe(m, n_max, k_hom=k_hom, margin_cap=cap)
                for name, rule in itertools.product(verify._CHECKS, (TC, parse_rule("borda"))):
                    cost = verify._cost(name, rule)
                    if cost is None:
                        expected = 3 ** math.comb(m, 2)
                    else:
                        a, c = cost(universe, math.factorial(m))
                        expected = sum(k * (a + c * n) for n, k in sizes.items() if n <= n_max)
                    assert universe._estimate({cost}, 10**30) == expected, (universe, name)

    @pytest.mark.parametrize("m,n_max,cap", [
        (1, 5, None), (2, 5, None), (3, 3, None), (4, 5, None), (4, 2, 1), (3, 4, 0),
    ])
    def test_a_bounded_count_admits_what_the_whole_estimate_admits(self, m, n_max, cap):
        # below a budget of bit length L, 3^C(m, 2) is bounded at 3^L and
        # C(b + N, N) at C(max(b, N) + L + 1, L + 1), and a margin-capped
        # count stops: a bound is named only once it passes the budget, and
        # never passes the estimate
        costs = {verify._cost(n, r) for n in verify._CHECKS for r in (TC, parse_rule("borda"))}
        for chosen in [{cost} for cost in costs] + [costs]:
            whole = Universe(m, n_max, margin_cap=cap)._estimate(chosen, 10**30)
            near = {2**i + d for i in range(whole.bit_length() + 1) for d in (-1, 0, 1)}
            for budget in sorted({*range(70), *near, whole - 1, whole}):
                bounded = Universe(m, n_max, margin_cap=cap)._estimate(chosen, budget)
                if whole <= budget:
                    assert bounded == whole
                else:
                    assert budget < bounded <= whole

    @pytest.mark.parametrize("sweep", [_pairwiseness, corroborate_theorems],
                             ids=["pairwiseness", "corroboration"])
    def test_an_absurd_electorate_size_is_refused_at_once(self, monkeypatch, sweep):
        # C(6 + N, N) - 1 electorates at N * 3! * 3 + 1 evaluations each, the
        # largest estimate of corroboration too
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        n = 10**20
        estimate = (18 * n + 1) * (math.comb(n + 6, 6) - 1)
        start = time.perf_counter()
        with pytest.raises(
            BudgetExceededError, match=f"^estimated {estimate} evaluations exceed the budget$"
        ):
            sweep(Universe(3, n))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("sweep,m,error,message", [
        (
            _pairwiseness, 10**20, InstanceTooLargeError,
            f"the sweep engine tables all m! ballots; refusing m={10**20} > 8",
        ),
        (
            lambda universe: check_robust_dominant(TC, universe), 10**5, BudgetExceededError,
            f"estimated {3**30} evaluations exceed the budget",
        ),
    ], ids=["pairwiseness", "robust-dominance"])
    def test_an_absurd_number_of_alternatives_is_refused_at_once(
        self, monkeypatch, sweep, m, error, message
    ):
        # a walk of electorates meets the engine's reach before any estimate,
        # and computes no m!; the relation walk of a majoritarian rule tables
        # no ballots, and past the default budget's 30 bits its estimate is
        # 3^30, not 3^C(m, 2)
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        start = time.perf_counter()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sweep(Universe(m, 1))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("universe", [
        Universe(2, 5), Universe(3, 3), Universe(3, 4), Universe(4, 2),
        Universe(3, 4, margin_cap=0), Universe(3, 4, margin_cap=1), Universe(3, 4, k_hom=3),
    ], ids=repr)
    def test_a_run_makes_no_more_evaluations_than_its_estimate(self, monkeypatch, universe):
        # an evaluation is a memo miss of an engine or a relation scan; each
        # check of the table runs alone on every catalog rule, from fresh
        # shared engines
        evaluations = []
        miss, relation_scan = _engine._Engine.miss, verify._RelationScan

        def counted_miss(engine, key, code):
            evaluations.append(key)
            return miss(engine, key, code)

        def counted_scan(*args):
            evaluations.append(args)
            return relation_scan(*args)

        monkeypatch.setattr(_engine._Engine, "miss", counted_miss)
        monkeypatch.setattr(verify, "_RelationScan", counted_scan)
        monkeypatch.setattr(_engine, "_shared_engine", _engine._SharedEngines())
        for rule, name in itertools.product(catalog(), verify._CHECKS):
            _engine._shared_engine.cache_clear()
            evaluations.clear()
            verify._run((name,), (rule,), universe, None)
            estimate = universe._estimate({verify._cost(name, rule)}, 10**30)
            assert len(evaluations) <= estimate, (rule.name, name, len(evaluations), estimate)

    def test_raw_enumeration_is_not_bounded_by_the_engine(self):
        # the engine's reach bounds the sweeps, not the public enumerators
        first = (tuple(range(9)),)
        assert next(Universe(9, 1).raw_profiles()) == first
        assert next(Universe(9, 1).profiles()) == Profile(9, first)
        assert Universe(9, 1).count_profiles() == math.factorial(9)

    def test_a_voter_count_no_margin_code_holds_is_refused(self):
        # the budget of strategyproofness does not count k_hom, but the
        # engine sized for the tilings of homogeneity refuses to lay them out
        with pytest.raises(
            ValueError, match=rf"^a margin code holds at most 2\*\*63 - 1 voters, not {2**63}$"
        ):
            sweep_strategyproofness(TC, Universe(3, 2, k_hom=2**62))


class TestBudgetVariable:
    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5", "", " 7", "1e9", "\u00b2", "\u0663"])
    def test_malformed_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("SETVOTE_BUDGET", raw)
        with pytest.raises(ValueError) as err:
            sweep_strategyproofness(TC, Universe(2, 1))
        assert str(err.value) == (
            f"SETVOTE_BUDGET must be a non-negative integer, got {raw!r}"
        )

    def test_integer_value_applies(self, monkeypatch):
        monkeypatch.setenv("SETVOTE_BUDGET", "10")
        with pytest.raises(BudgetExceededError):
            sweep_strategyproofness(TC, Universe(3, 3))
        monkeypatch.setenv("SETVOTE_BUDGET", "0")
        with pytest.raises(BudgetExceededError):
            check_axiom(Axiom.COS, TC, Universe(2, 1))

    @pytest.mark.parametrize("check", [
        lambda budget: sweep_strategyproofness(TC, Universe(2, 1), budget=budget),
        lambda budget: check_axiom(Axiom.COS, TC, Universe(2, 1), budget=budget),
        lambda budget: find_group_manipulation(TC, Profile(3, ((A, B, C),)), 1, budget=budget),
    ], ids=["sweep", "check_axiom", "group"])
    def test_a_non_integer_budget_is_refused(self, check):
        for budget in ("5", 5.0):
            with pytest.raises(ValueError, match="^budget must be an integer, got "):
                check(budget)
        with pytest.raises(BudgetExceededError):
            check(np.int64(0))
        check(np.int64(10**6))
        assert type(verify._budget(np.int64(5))) is int

    @pytest.mark.parametrize("check", [
        lambda budget: sweep_strategyproofness(TC, Universe(2, 1), budget=budget),
        lambda budget: check_axiom(Axiom.COS, TC, Universe(2, 1), budget=budget),
        lambda budget: corroborate_theorems(Universe(2, 1), budget=budget),
        lambda budget: find_group_manipulation(TC, Profile(3, ((A, B, C),)), 1, budget=budget),
    ], ids=["sweep", "check_axiom", "corroborate", "group"])
    def test_a_negative_budget_is_refused_by_either_path(self, monkeypatch, check):
        # as an argument and as the environment variable, the same bound is
        # refused with the same message
        with pytest.raises(ValueError, match=r"^budget must be a non-negative integer, got -1$"):
            check(-1)
        monkeypatch.setenv("SETVOTE_BUDGET", "-1")
        with pytest.raises(
            ValueError, match=r"^SETVOTE_BUDGET must be a non-negative integer, got '-1'$"
        ):
            check(None)
        # an argument still wins over the variable, and zero is a budget
        with pytest.raises(BudgetExceededError):
            check(0)

    def test_explicit_budget_wins(self, monkeypatch):
        monkeypatch.setenv("SETVOTE_BUDGET", "abc")
        assert sweep_strategyproofness(TC, Universe(2, 1), budget=10**6).outcome == Outcome.HOLDS


class TestEmptyOutputs:
    @pytest.fixture
    def empty_tc(self, monkeypatch):
        replace_evaluator(monkeypatch, RuleId.TOP_CYCLE, lambda rule, m, strict: 0)

    def test_evaluate_refuses(self, empty_tc, fig1):
        with pytest.raises(EmptyChoiceError, match="tc produced an empty choice set"):
            evaluate(TC, fig1)

    def test_evaluate_on_relation_refuses(self, empty_tc, fig1):
        with pytest.raises(EmptyChoiceError, match="tc produced an empty choice set"):
            evaluate_on_relation(TC, MajorityRelation.from_profile(fig1))

    @staticmethod
    def call_sites(profile):
        universe = Universe(3, 2)
        return [
            lambda: find_manipulation(TC, profile),
            lambda: find_strong_manipulation(TC, profile),
            lambda: find_group_manipulation(TC, profile, 2),
            lambda: sweep_strategyproofness(TC, universe),
            lambda: check_weak_robustness(TC, universe),
            *[
                lambda a=axiom: check_axiom(a, TC, universe)
                for axiom in Axiom
            ],
            # the last two walk the majority relations, which read the
            # evaluator table on each walk
            lambda: check_robust_dominant(TC, universe),
            lambda: corroborate_theorems(universe, rules=(TC,)),
        ]

    def test_no_sweep_carries_an_empty_set(self, empty_tc, fig2_left):
        for call in self.call_sites(fig2_left):
            with pytest.raises(EmptyChoiceError):
                call()

    def test_a_sweep_reads_a_replaced_evaluator_at_once(self, monkeypatch, fig2_left):
        # every sweep builds its engine per call, so an evaluator put in the
        # table reaches the next sweep though the shared engines are warm
        calls = self.call_sites(fig2_left)
        for call in calls:
            call()
        monkeypatch.setitem(
            rules._EVALUATORS, RuleId.TOP_CYCLE, (BasisTag.MAJORITARIAN, lambda r, m, s: 0)
        )
        for call in calls[3:]:
            with pytest.raises(EmptyChoiceError):
                call()

    def test_a_one_profile_search_keeps_its_evaluator_until_the_shared_engines_are_cleared(
        self, monkeypatch, fig2_left
    ):
        # an evaluator put in the table reaches no shared engine built
        # before: every one-profile search a warm shared engine serves still
        # answers, and so does one through an engine whose memos are
        # emptied, since it evaluates anew with its own evaluator. Once the
        # shared engines are cleared, every search builds its engine anew and
        # refuses the empty set
        searches = self.call_sites(fig2_left)[:3]
        for search in searches:
            search()

        def empty(rule, m, strict):
            return 0

        engine = _engine._engine(TC, 3, fig2_left.n)
        kept = engine.evaluator
        monkeypatch.setitem(rules._EVALUATORS, RuleId.TOP_CYCLE, (BasisTag.MAJORITARIAN, empty))
        for search in searches:
            search()
        for memo in (engine.cache, engine.rows, engine.verdicts):
            memo.clear()
        find_manipulation(TC, fig2_left)
        assert _engine._engine(TC, 3, fig2_left.n) is engine and engine.evaluator is kept
        assert engine.cache
        replace_evaluator(monkeypatch, RuleId.TOP_CYCLE, empty)
        for search in searches:
            with pytest.raises(EmptyChoiceError):
                search()


class TestOneEnginePerWalk:
    """Every universe walk, a sweep or a replay, builds one engine of its own
    per call and reads no shared engine, so what it costs depends on nothing
    that ran before it in the process."""

    @staticmethod
    def no_shared_engine(monkeypatch):
        def refused(*args):
            raise AssertionError(f"a walk asked for the shared engine of {args}")

        monkeypatch.setattr(verify, "_engine", refused)

    @pytest.mark.parametrize("name", ["tc", "borda", "pareto"])
    @pytest.mark.parametrize("universe", [Universe(3, 3), Universe(3, 3, margin_cap=1)], ids=repr)
    def test_a_call_builds_at_most_one_engine(self, monkeypatch, built_engines, name, universe):
        # one engine per _verdicts call, sized for the tilings of
        # homogeneity, whatever its checks, and none when every check walks
        # the majority relations
        rule = parse_rule(name)
        self.no_shared_engine(monkeypatch)
        for names in [*([n] for n in verify._CHECKS), list(verify._CHECKS)]:
            built_engines.clear()
            verify._verdicts(rule, universe, predicates(universe, names))
            if all(verify._over_relations(n, rule) for n in names):
                assert built_engines == []
            else:
                (engine,) = built_engines
                assert (engine.rule, engine.m, engine.layout.size) == (rule, 3, 6)

    @pytest.mark.parametrize("case", sorted(_VIOLATIONS))
    def test_a_replay_builds_its_own_engine(self, monkeypatch, built_engines, case):
        verdict = _VIOLATIONS[case]()
        built_engines.clear()
        self.no_shared_engine(monkeypatch)
        assert replay(verdict)
        walks_relations = verify._over_relations(verdict.axiom, verdict.rule)
        assert len(built_engines) == (0 if walks_relations else 1)

    def test_an_identical_call_evaluates_as_much_as_the_first(self, monkeypatch):
        # the memo misses of a corroboration depend on the call alone: a
        # second identical call evaluates as much as the first, on the
        # catalog and on one rule, whose engine a process-wide memo would
        # still hold at the second call
        misses = []
        miss = _engine._Engine.miss

        def counted(engine, key, code):
            misses.append(key)
            return miss(engine, key, code)

        monkeypatch.setattr(_engine._Engine, "miss", counted)
        for among in (None, (TC,)):
            counts = []
            for _ in range(2):
                misses.clear()
                corroborate_theorems(Universe(3, 3), among)
                counts.append(len(misses))
            assert counts[0] == counts[1] > 0

    def test_sweeps_and_replays_leave_the_shared_engines_as_they_were(self, monkeypatch):
        monkeypatch.setattr(_engine, "_shared_engine", _engine._SharedEngines())
        assert find_manipulation(TC, CYCLE) is None

        def shared():
            return _engine._shared_engine.built.cache_info().currsize

        assert shared() == 1
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 2))
        assert verdict.outcome == Outcome.VIOLATED and shared() == 1
        assert replay(verdict) and shared() == 1
        corroborate_theorems(Universe(3, 2))
        assert shared() == 1


class TestSharedMemo:
    def test_every_engine_is_shared(self):
        # one rule of each basis: majoritarian, pairwise, profile-based
        for name in ("tc", "borda", "plurality"):
            rule = parse_rule(name)
            assert _engine._engine(rule, 3, 4) is _engine._engine(rule, 3, 4)
            assert _engine._engine(rule, 3, 4) is not _engine._engine(rule, 3, 5)

    def test_one_profile_searches_evaluate_each_tournament_once(self, monkeypatch):
        # every 3-voter profile on 4 alternatives and each of its deviations
        # is one of the 64 tournaments on 4 alternatives
        calls = counted_calls(monkeypatch, RuleId.UNCOVERED_SET)
        uncovered = parse_rule("uncovered-set")
        profiles = [
            Profile(4, combo)
            for combo in itertools.product(enumerate_ballots(4), repeat=3)
        ]
        for most in (64, 0):  # a cold pass, then a warm one
            before = len(calls)
            for profile in profiles:
                assert find_manipulation(uncovered, profile) is None
            assert len(calls) - before <= most

    def test_ties_are_refused_on_every_call(self):
        uncovered = parse_rule("uncovered-set")
        tied = Profile(3, ((A, B, C), (C, B, A)))
        for _ in range(2):
            with pytest.raises(rules.TiesUnsupportedError):
                find_manipulation(uncovered, tied)
        engine = _engine._engine(uncovered, 3, 2)
        assert engine.layout.key(engine.layout.of(tied.ballots)) not in engine.cache

    # the output memo and the rows of a profile-based rule; the rows on four
    # alternatives, since on (3, <=3) the orbit walk meets only 16
    # co-voters' electorates
    @pytest.mark.parametrize("name,memo,m", [
        ("pareto", "cache", 3),
        ("pareto", "rows", 4),
    ])
    def test_every_memo_is_bounded_where_it_is_stored(
        self, monkeypatch, built_engines, name, memo, m
    ):
        rule, universe = parse_rule(name), Universe(m, 3)

        def verdicts():
            checks = predicates(universe, verify._CHECKS)
            return as_results(verify._verdicts(rule, universe, checks))

        default = verdicts()
        weights = []
        store = _engine._Tables.store

        def recorded(table, key, value):
            stored = store(table, key, value)
            weights.append((table, table.weight, len(table)))
            return stored

        monkeypatch.setattr(_engine._Tables, "store", recorded)
        monkeypatch.setattr(_engine, "_MEMO_ENTRIES", 8)
        assert verdicts() == default
        _, engine = built_engines
        seen = [(w, held) for table, w, held in weights if table is getattr(engine, memo)]
        # the walk stored far more entries than the bound, each weighing one
        assert len(seen) > 8 * 9 and max(w for w, _ in seen) == 9
        assert all(held == w for w, held in seen)

    # a profile-based rule, keyed on electorates, and a majoritarian one,
    # keyed on margin codes
    @pytest.mark.parametrize("name", ["pareto", "tc"])
    def test_the_verdict_memo_is_bounded_where_it_is_stored(self, monkeypatch, name):
        # the one-profile searches of every three-voter profile on three
        # alternatives, under both liftings and readings, fill the verdict
        # memo past a bound of 8 searches: it starts afresh many times, and
        # every answer is the one of an unbounded memo
        rule, profiles = parse_rule(name), ordered_profiles(3, (3,))

        def answers():
            _engine._shared_engine.cache_clear()
            return [SEARCHES[strong](rule, p, kind) for kind, strong in READINGS for p in profiles]

        default = answers()
        seen = []
        store = _engine._Tables.store

        def recorded(table, key, value):
            stored = store(table, key, value)
            if isinstance(value, dict):
                seen.append((table.weight, len(table)))
            return stored

        monkeypatch.setattr(_engine._Tables, "store", recorded)
        monkeypatch.setattr(_engine, "_MEMO_ENTRIES", 8)
        assert answers() == default
        # each stored search weighs one, whether or not its key was held,
        # and the memo restarts each time its weight passes the bound
        assert max(w for w, _ in seen) == 9 and all(held <= w for w, held in seen)
        restarts = sum(1 for (w, _), (after, _) in zip(seen, seen[1:]) if after < w)
        assert restarts > 9 and len(seen) > 8 * 9
        assert any(found is not None for found in default)

    def test_a_profile_based_search_tries_each_distinct_ballot_once(self, monkeypatch):
        # on (abc, bca, abc) pareto chooses {a, b}, and no voter gains by a
        # misreport, so the search runs to its end; voter 2 repeats voter
        # 0's ballot, so only voters 0 and 1 try their five misreports; each
        # profile is evaluated as its electorate, the sorted ballots
        calls = counted_calls(monkeypatch, RuleId.PARETO)
        abc, bca = (A, B, C), (B, C, A)
        assert find_manipulation(parse_rule("pareto"), Profile(3, (abc, bca, abc))) is None
        assert [ballots for _, _, ballots in calls] == [(abc, abc, bca)] + [
            tuple(sorted((mis, bca, abc))) for mis in own_order_misreports(abc)
        ] + [tuple(sorted((abc, mis, abc))) for mis in own_order_misreports(bca)]

    def test_a_reordered_electorate_reuses_its_outputs(self, monkeypatch):
        # the second profile is the first's electorate in another order:
        # each voter's misreports reach the electorates the first search met
        calls = counted_calls(monkeypatch, RuleId.PARETO)
        pareto, abc, bca = parse_rule("pareto"), (A, B, C), (B, C, A)
        assert find_manipulation(pareto, Profile(3, (abc, bca, abc))) is None
        before = len(calls)
        assert find_manipulation(pareto, Profile(3, (bca, abc, abc))) is None
        assert len(calls) == before == 11

    def test_replay_evaluates_through_its_own_engine(self, monkeypatch):
        # the sweep's engine held every output the replay needs; the replay
        # evaluates them anew
        borda = parse_rule("borda")
        calls = counted_calls(monkeypatch, RuleId.BORDA)
        verdict = sweep_strategyproofness(borda, Universe(3, 3))
        swept = len(calls)
        assert replay(verdict)
        assert len(calls) > swept


def moved_manipulation(ctx, extension, strong):
    """The single-voter search as a loop over every move `_moved` yields, each
    judged by the verdict table: the reference the per-voter verdict memo
    must reproduce, voter index and witness included."""
    ballots, honest, m = ctx.ballots, ctx.out, ctx.m
    reading = extensions._gains if strong else extensions._better
    for voter, mis, _, out in _engine._moved(ctx, _engine._misreports):
        if reading(extension, ballots[voter], honest) >> out & 1:
            return verify.Manipulation(
                ctx.profile, voter, ballots[voter], mis,
                ChoiceSet(m, honest), ChoiceSet(m, out), extension,
            )
    return None


def outcome(search):
    """What a search returns, or the type and text of the error it raises."""
    try:
        return search()
    except (rules.TiesUnsupportedError, EmptyChoiceError) as exc:
        return type(exc), str(exc)


CODE_KEYED = [r for r in catalog() if basis(r) != BasisTag.PROFILE_BASED]
# both liftings under both readings: (lifting, strong)
READINGS = [(kind, strong) for kind in ExtensionKind for strong in (False, True)]
SEARCHES = {False: find_manipulation, True: find_strong_manipulation}


def ordered_profiles(m, sizes):
    """Every profile on m alternatives with an electorate size in `sizes`."""
    ballots = enumerate_ballots(m)
    return [Profile(m, combo) for n in sizes for combo in itertools.product(ballots, repeat=n)]


class TestVerdictMemo:
    """`_Engine.misreport`, behind every single-voter search, and the
    one-profile search's verdict memo, against the `_moved` loop they
    replaced."""

    @staticmethod
    def agrees_with_the_moved_loop(rule, profiles):
        # the reference and the memoized search each on fresh engines of
        # their own, then the public searches from a cold shared engine and
        # again warm
        reference, fresh = {}, {}
        _engine._shared_engine.cache_clear()
        for profile in profiles:
            size = (profile.m, profile.n)
            if size not in fresh:
                reference[size] = _engine._Engine(rule, *size)
                fresh[size] = _engine._Engine(rule, *size)
            for kind, strong in READINGS:
                expected = outcome(
                    lambda: moved_manipulation(
                        _engine._Scan(reference[size], profile.ballots), kind, strong
                    )
                )

                def memoized():
                    ctx = _engine._Scan(fresh[size], profile.ballots)
                    return verify._manipulation(
                        ctx.engine, ctx.ballots, ctx.code, ctx.out, kind, strong
                    )

                assert outcome(memoized) == expected
                for _ in range(2):
                    assert outcome(lambda: SEARCHES[strong](rule, profile, kind)) == expected

    @pytest.mark.parametrize("rule", CODE_KEYED, ids=lambda r: r.name)
    def test_every_search_matches_the_moved_loop(self, rule):
        self.agrees_with_the_moved_loop(rule, ordered_profiles(3, (1, 2, 3)))

    @pytest.mark.parametrize("name", ["uncovered-set", "tc"])
    def test_every_four_alternative_search_matches_the_moved_loop(self, name):
        profiles = ordered_profiles(4, (3,))
        assert len(profiles) == 13824
        self.agrees_with_the_moved_loop(parse_rule(name), profiles)

    def test_an_evaluation_error_is_never_stored(self, monkeypatch):
        # tc chooses the whole cycle on (abc, bca, cab) and no voter gains
        # by a misreport under Fishburn's extension, so each voter's
        # misreports run to their end; the evaluator is replaced to choose
        # nothing on one relation that only voter 1's misreports reach
        profile = Profile(3, ((A, B, C), (B, C, A), (C, A, B)))
        layout = _engine._Engine(TC, 3, 3).layout
        table = layout.table
        code = layout.of(profile.ballots)

        def reached(voter):
            # the relation key after each misreport, in table order
            ballot = profile.ballots[voter]
            others = code - layout.encs[table.rank[ballot]]
            return [
                layout.key(others + layout.encs[r])
                for r in table.ranked(_engine._misreports, ballot)
            ]

        empty_on = next(
            key for key in reached(1) if key not in reached(0) and key != layout.key(code)
        )
        evaluator = rules._EVALUATORS[RuleId.TOP_CYCLE][1]

        def empty_on_one(rule, m, strict):
            return 0 if strict == layout.strict(empty_on) else evaluator(rule, m, strict)

        replace_evaluator(monkeypatch, RuleId.TOP_CYCLE, empty_on_one)
        for _ in range(3):
            with pytest.raises(EmptyChoiceError):
                find_manipulation(TC, profile)
        engine = _engine._engine(TC, 3, 3)
        bal = profile.ballots
        # the search that raised stored no answer, not even voter 0's
        assert engine.verdicts == {}
        # voter 0's row is complete; voter 1's holds the outputs up to the
        # misreport whose evaluation raised, and not that one: 0 marks a
        # ballot not evaluated in a row indexed by ballot rank
        assert engine.rows[code - layout.enc(bal[0])].complete()
        raised = reached(1).index(empty_on)
        ranks = table.ranked(_engine._misreports, bal[1])
        row = engine.rows[code - layout.enc(bal[1])]
        assert {table.ballots[rank] for rank, out in enumerate(row) if out} == {
            bal[1], *(table.ballots[rank] for rank in ranks[:raised])
        }

    def test_a_reordered_electorate_reaches_nothing_again(self, monkeypatch):
        # on (abcd, abdc, bacd) under borda voters 0 and 1 gain by no
        # misreport, so they stored none, and voter 2 gains: every
        # reordering is answered from the verdict memo alone, with the
        # witness at its own voter index
        borda = parse_rule("borda")
        _engine._shared_engine.cache_clear()
        found = find_manipulation(borda, Profile(4, ((0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3))))
        assert found.voter == 2
        electorate = found.profile.ballots
        reaching = []
        _reaching = _engine._Engine._reaching

        def counted(*args):
            reaching.append(args)
            return _reaching(*args)

        monkeypatch.setattr(_engine._Engine, "_reaching", counted)
        for order in itertools.permutations(electorate):
            profile = Profile(4, order)
            before = len(reaching)
            man = find_manipulation(borda, profile)
            assert len(reaching) == before
            voter = order.index(found.true_ballot)
            assert man == dataclasses.replace(found, profile=profile, voter=voter)
            assert man == moved_manipulation(
                _engine._Scan(_engine._Engine(borda, 4, 3), order), ExtensionKind.FISHBURN, False
            )
        # only the reference, on engines of its own, reached: up to its witness
        assert len(reaching) == 1 + 1 + 2 + 2 + 3 + 3

    def test_a_first_misreport_witness_evaluates_nothing_more(self, monkeypatch):
        # voter 0's first misreport (eb acd fc) is the witness under borda, so
        # the search evaluates the honest profile and that misreport alone,
        # not the other 718 ballots of the voter's row
        calls = counted_calls(monkeypatch, RuleId.BORDA)
        borda = parse_rule("borda")
        ballots = ((4, 1, 0, 5, 3, 2), (3, 5, 0, 1, 2, 4))
        found = find_manipulation(borda, Profile(6, ballots))
        assert (found.voter, found.misreport) == (0, own_order_misreports(ballots[0])[0])
        assert len(calls) == 2

    def test_a_voter_whose_co_voters_cast_a_known_code_is_answered_from_the_row(
        self, monkeypatch
    ):
        # no voter of (adcb, abcd, bcad) gains under borda, so each voter's
        # row is complete; in (abcd, abcd, bcad) voter 0's co-voters cast the
        # same ballots as in the first profile, so its search reads its
        # honest output from the output memo once, at its verdict miss, and
        # its witness reuses it; every misreport is read from the row
        borda, abcd, bcad = parse_rule("borda"), (A, B, C, 3), (B, C, A, 3)
        calls = counted_calls(monkeypatch, RuleId.BORDA)
        assert find_manipulation(borda, Profile(4, ((A, 3, C, B), abcd, bcad))) is None
        engine = _engine._engine(borda, 4, 3)
        assert len(engine.rows) == 3 and all(row.complete() for row in engine.rows.values())
        looked = []

        class Counted(_engine._Tables):
            def get(self, key, default=None):
                looked.append(key)
                return super().get(key, default)

        monkeypatch.setattr(engine, "cache", Counted(engine.cache))
        evaluated = len(calls)
        profile = Profile(4, (abcd, abcd, bcad))
        found = find_manipulation(borda, profile)
        assert len(calls) == evaluated and looked == [engine.layout.of(profile.ballots)]
        assert (
            found.voter,
            found.misreport,
            frozenset(found.honest_set.members),
            frozenset(found.manipulated_set.members),
        ) == naive_manipulation(borda, profile.ballots, 4)

    def test_a_tie_is_refused_by_a_warm_memo_and_stores_no_verdict(self):
        # each ballot cast four times is a tie-free profile on three
        # alternatives whose top alternative alone is chosen, and every
        # misreport leaves each margin at 2 or more, so no voter gains and
        # both searches of it store their verdict (two voters will not do:
        # any misreport of two equal ballots ties a pair); (abc, cba, abc,
        # cba) ties every pair, so a search of it evaluates its honest
        # output at its first verdict miss, which raises before any verdict
        # is stored
        uncovered = parse_rule("uncovered-set")
        _engine._shared_engine.cache_clear()
        engine = _engine._engine(uncovered, 3, 4)
        for ballot in enumerate_ballots(3):
            for search in SEARCHES.values():
                assert search(uncovered, Profile(3, (ballot,) * 4)) is None
        assert len(engine.verdicts) == 12
        assert all(list(known.values()) == [False] for known in engine.verdicts.values())
        tied = Profile(3, ((A, B, C), (C, B, A)) * 2)
        code = engine.layout.of(tied.ballots)
        for search in SEARCHES.values():
            for _ in range(2):
                with pytest.raises(rules.TiesUnsupportedError):
                    search(uncovered, tied)
        assert _engine._engine(uncovered, 3, 4) is engine
        assert len(engine.verdicts) == 12 and all(key[2] != code for key in engine.verdicts)

    def test_a_partial_hit_searches_and_gives_the_cold_witness(self, monkeypatch):
        # on (abcd, abdc, bacd) under borda only voter 2 gains. Its reordering
        # (abcd, bacd, abdc) leaves voter 0's ballot known to gain nothing and
        # abdc unknown, so a search of the first profile then reads voter 0
        # from the memo, searches once from the honest output, and gives the
        # witness a cold engine gives; the memo then knows all three ballots
        borda = parse_rule("borda")
        abcd, abdc, bacd = (0, 1, 2, 3), (0, 1, 3, 2), (1, 0, 2, 3)
        profile = Profile(4, (abcd, abdc, bacd))
        _engine._shared_engine.cache_clear()
        cold = find_manipulation(borda, profile)
        assert cold.voter == 2
        _engine._shared_engine.cache_clear()
        first = find_manipulation(borda, Profile(4, (abcd, bacd, abdc)))
        assert (first.voter, first.true_ballot) == (1, bacd)
        engine = _engine._engine(borda, 4, 3)
        key = (ExtensionKind.FISHBURN, False, engine.layout.of(profile.ballots))
        assert engine.verdicts[key] == {abcd: False, bacd: first}
        searched = []
        misreport = _engine._Engine.misreport

        def counted(engine, *args):
            searched.append(args)
            return misreport(engine, *args)

        monkeypatch.setattr(_engine._Engine, "misreport", counted)
        assert find_manipulation(borda, profile) == cold
        assert len(searched) == 1
        assert engine.verdicts[key] == {abcd: False, abdc: False, bacd: cold}
        # a reordering is then answered in full
        assert find_manipulation(borda, Profile(4, (abdc, bacd, abcd))) == dataclasses.replace(
            cold, profile=Profile(4, (abdc, bacd, abcd)), voter=1
        )
        assert len(searched) == 1

    @pytest.mark.parametrize("name", ["uncovered-set", "tc", "borda", "plurality"])
    def test_a_search_answered_from_the_memo_evaluates_no_output(self, monkeypatch, name):
        # a second search of a profile finds every voter it reaches in the
        # verdict memo: it evaluates nothing and reads no output, whether it
        # finds a witness or not; its answer is the cold one
        rule = parse_rule(name)
        profiles = ordered_profiles(4, (3,))[::97]
        _engine._shared_engine.cache_clear()
        cold = {
            (kind, strong): [SEARCHES[strong](rule, p, kind) for p in profiles]
            for kind, strong in READINGS
        }
        outputs, misses = [], []
        output, miss = _engine._Engine.output, _engine._Engine.miss

        def counted_output(engine, *args):
            outputs.append(args)
            return output(engine, *args)

        def counted_miss(engine, *args):
            misses.append(args)
            return miss(engine, *args)

        monkeypatch.setattr(_engine._Engine, "output", counted_output)
        monkeypatch.setattr(_engine._Engine, "miss", counted_miss)
        for (kind, strong), expected in cold.items():
            assert [SEARCHES[strong](rule, p, kind) for p in profiles] == expected
        assert outputs == [] and misses == []
        # the sample holds searches that build a witness and searches that
        # find none
        assert any(map(any, cold.values())) and any(None in found for found in cold.values())


def ordered_walk(rule, universe):
    """Every check of `_CHECKS` but those `_over_relations` selects, on one
    walk of every ordering of every electorate (`raw_profiles`) through a
    fresh engine; as name -> verdict, or (type, message) of the
    not-evaluable error that closed the check."""
    checks = predicates(
        universe, [name for name in verify._CHECKS if not verify._over_relations(name, rule)]
    )
    engine = _engine._Engine(rule, universe.m, universe.n_max * universe.k_hom)
    scan = partial(_engine._Scan, engine)
    return as_results(verify._walk(rule, universe, checks, universe.raw_profiles(), scan))


def as_results(found):
    return {
        name: (type(r), str(r)) if isinstance(r, Exception) else r for name, r in found.items()
    }


# the first two and the last two take the orbit walk for the checks it
# settles, whose verdicts must still be those of every ordering
WALKED_UNIVERSES = [
    Universe(3, 3),
    Universe(2, 4),
    Universe(3, 3, margin_cap=1),
    Universe(4, 2),
    Universe(3, 2, k_hom=3),
]


class TestElectorateWalk:
    @pytest.mark.parametrize("universe", WALKED_UNIVERSES, ids=str)
    @pytest.mark.parametrize("rule", catalog(), ids=lambda r: r.name)
    def test_verdicts_match_the_ordered_walk(self, rule, universe):
        names = list(verify._CHECKS)
        found = verify._verdicts(rule, universe, predicates(universe, names))
        expected = ordered_walk(rule, universe)
        assert as_results({n: found[n] for n in expected}) == expected


def electorate_walk(rule, universe, names):
    """The oracle of the orbit walk: the checks `names` on one walk of every
    electorate (`_electorates`) through a fresh engine, as `as_results`
    gives them."""
    checks = predicates(universe, names)
    engine = _engine._Engine(rule, universe.m, universe.n_max * universe.k_hom)
    scan = partial(_engine._Scan, engine)
    return as_results(verify._walk(rule, universe, checks, universe._electorates(), scan))


def counted_representatives(monkeypatch):
    """The orbit representatives every orbit walk meets from here on."""
    met = []
    representatives = Universe._orbit_representatives

    def counted(universe):
        for ballots in representatives(universe):
            met.append(ballots)
            yield ballots

    monkeypatch.setattr(Universe, "_orbit_representatives", counted)
    return met


ORBIT_UNIVERSES = [Universe(3, 4), Universe(4, 3), Universe(3, 3, margin_cap=1)]


class TestOrbitWalk:
    @pytest.mark.parametrize("universe", ORBIT_UNIVERSES, ids=str)
    @pytest.mark.parametrize("rule", catalog(), ids=lambda r: r.name)
    def test_verdicts_match_the_electorate_walk(self, rule, universe):
        # every check but those that walk the majority relations
        names = [n for n in verify._CHECKS if not verify._over_relations(n, rule)]
        found = verify._verdicts(rule, universe, predicates(universe, names))
        assert as_results(found) == electorate_walk(rule, universe, names)

    @pytest.mark.parametrize("universe", ORBIT_UNIVERSES[:2], ids=str)
    @pytest.mark.parametrize("name", sorted(verify._ORBIT_CHECKS))
    def test_each_check_alone_matches_the_electorate_walk(self, name, universe):
        # one check per walk, as `check_axiom` and the strategyproofness
        # sweeps run it: the orbit walk ends once that check closes
        for rule in map(parse_rule, ("tc", "borda", "plurality", "fab:ab", "uncovered-set")):
            found = verify._verdicts(rule, universe, predicates(universe, [name]))
            assert as_results(found) == electorate_walk(rule, universe, [name]), rule.name

    def test_the_representatives_are_one_per_relabeling_class(self):
        # the oracle: an electorate's class is named by its least sorted
        # tuple over all m! relabelings; each class holds exactly one
        # representative, that least electorate, met in scan order
        for universe in (Universe(3, 4), Universe(4, 3), Universe(1, 3)):
            perms = list(itertools.permutations(range(universe.m)))

            def least(electorate):
                return min(
                    tuple(sorted(tuple(p[x] for x in b) for b in electorate)) for p in perms
                )

            electorates = list(universe._electorates())
            representatives = list(universe._orbit_representatives())
            kept = set(representatives)
            assert [least(r) for r in representatives] == representatives
            assert kept == set(map(least, electorates))
            assert representatives == [e for e in electorates if e in kept]
        # the Burnside counts of relabeling classes
        for universe, count in [
            (Universe(3, 4), 40),
            (Universe(4, 3), 129),
            (Universe(4, 4), 891),
            (Universe(5, 3), 2541),
            (Universe(1, 3), 3),
        ]:
            assert sum(1 for _ in universe._orbit_representatives()) == count

    @pytest.mark.parametrize("name,last", [
        # the first representatives a relabeling changes the output of
        ("fab:ab", ((A, B, C), (B, A, C))),
        ("shifted-tc:k=2", ((A, B, C),)),
        # the first whose relation has a tie, which the uncovered set refuses
        ("uncovered-set", ((A, B, C), (A, C, B))),
    ])
    def test_a_rule_not_shown_neutral_settles_nothing(self, monkeypatch, name, last):
        # every check falls back to the electorate walk, and the orbit walk
        # ends at the representative that closed neutrality
        rule, universe = parse_rule(name), Universe(3, 4)
        met = counted_representatives(monkeypatch)
        checks = predicates(universe, verify._ORBIT_CHECKS)
        engine = _engine._Engine(rule, universe.m, universe.n_max * universe.k_hom)
        scan = partial(_engine._Scan, engine)
        assert verify._orbit_walk(rule, universe, checks, scan) == {}
        assert met[-1] == last

    def test_a_neutral_rule_settles_what_holds(self):
        universe = Universe(3, 4)
        checks = predicates(universe, verify._ORBIT_CHECKS)
        engine = _engine._Engine(TC, universe.m, universe.n_max * universe.k_hom)
        scan = partial(_engine._Scan, engine)
        settled = verify._orbit_walk(TC, universe, checks, scan)
        # the strict strong reading is violated, so it is left to the rerun
        assert set(settled) == verify._ORBIT_CHECKS - {"strong-strategyproofness-fishburn"}
        assert all(v.outcome == Outcome.HOLDS and v.witness is None for v in settled.values())

    def test_a_violation_ends_the_orbit_walk_at_its_representative(self, monkeypatch):
        # with neutrality not asked for, the walk ends at the first
        # representative a manipulation is found on; the rerun finds the
        # first witness of the electorate walk
        borda, universe = parse_rule("borda"), Universe(4, 3)
        met = counted_representatives(monkeypatch)
        verdict = sweep_strategyproofness(borda, universe)
        assert [find_manipulation(borda, Profile(4, b)) is not None for b in met] == [
            False
        ] * (len(met) - 1) + [True]
        assert as_results({verdict.axiom: verdict}) == electorate_walk(
            borda, universe, [verdict.axiom]
        )

    def test_a_rule_neutral_only_within_the_universe(self, monkeypatch):
        # a profile-based stand-in that is plurality up to n_max voters;
        # beyond, where only homogeneity's tilings reach, it is plurality
        # when some voter casts the identity ballot and {a} otherwise. So
        # homogeneity holds on every electorate that holds the identity
        # ballot and fails elsewhere: the orbit walk shows the rule neutral
        # and settles the move checks, and homogeneity, which the electorate
        # walk keeps, is violated with the oracle's witness
        universe = Universe(3, 3)
        plurality = rules._EVALUATORS[RuleId.PLURALITY][1]

        def stand_in(rule, m, ballots):
            if len(ballots) <= universe.n_max or (A, B, C) in ballots:
                return plurality(rule, m, ballots)
            return 1

        replace_evaluator(monkeypatch, RuleId.PLURALITY, stand_in)
        rule = parse_rule("plurality")
        names = [n for n in verify._CHECKS if not verify._over_relations(n, rule)]
        found = verify._verdicts(rule, universe, predicates(universe, names))
        assert as_results(found) == electorate_walk(rule, universe, names)
        assert found[Axiom.NEUTRALITY.value].outcome == Outcome.HOLDS
        homogeneity = found[Axiom.HOMOGENEITY.value]
        assert homogeneity.outcome == Outcome.VIOLATED
        # one voter tiles to two, within n_max; plurality chooses {a, b} on
        # (acb, bac), the first electorate without the identity ballot on
        # which it does not choose {a}
        assert homogeneity.witness["profile"] == Profile(3, ((A, C, B), (B, A, C)))
        assert homogeneity.witness["k"] == 2

    def test_five_alternatives_and_three_voters(self):
        # 2,541 representatives instead of 302,620 electorates: tc holds,
        # and borda's witness is the one the electorate walk finds first
        universe = Universe(5, 3)
        assert sweep_strategyproofness(TC, universe).outcome == Outcome.HOLDS
        borda = parse_rule("borda")
        verdict = sweep_strategyproofness(borda, universe)
        assert verdict.outcome == Outcome.VIOLATED
        assert as_results({verdict.axiom: verdict}) == electorate_walk(
            borda, universe, [verdict.axiom]
        )

    def test_a_margin_capped_universe_takes_no_orbit_walk(self, monkeypatch):
        met = counted_representatives(monkeypatch)
        universe = Universe(3, 3, margin_cap=1)
        sweep_strategyproofness(TC, universe)
        check_axiom(Axiom.WLOC, TC, universe)
        corroborate_theorems(universe, rules=(TC,))
        assert met == []

    def test_replay_takes_no_orbit_walk(self, monkeypatch):
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        met = counted_representatives(monkeypatch)
        assert replay(verdict)
        assert met == []



MAJORITARIAN_RULES = [r for r in catalog() if basis(r) == BasisTag.MAJORITARIAN]


def realized_walk(rule, m):
    """The oracle of the relation walk: robust dominance on one walk of each
    relation's realization with two voters per pair, through an engine sized
    for it, as `as_results` gives it."""
    universe, name = Universe(m, 1), verify._ROBUST_DOMINANT
    scan = partial(_engine._Scan, _engine._Engine(rule, m, max(2, m * (m - 1))))
    realized = (realize_relation(rel, 2).ballots for rel in enumerate_relations(m))
    checks = predicates(universe, [name])
    return as_results(verify._walk(rule, universe, checks, realized, scan))


def counted_realizations(monkeypatch):
    """The relations `verify` realizes from here on."""
    calls = []

    def counted(rel, weight):
        calls.append(rel)
        return realize_relation(rel, weight)

    monkeypatch.setattr(verify, "realize_relation", counted)
    return calls


class TestRelationWalk:
    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("rule", MAJORITARIAN_RULES, ids=lambda r: r.name)
    def test_the_relation_walk_matches_a_walk_of_the_realized_profiles(
        self, monkeypatch, rule, m
    ):
        # the relation walk evaluates the strict masks directly and realizes
        # a relation only for its witness
        expected = realized_walk(rule, m)
        calls = counted_realizations(monkeypatch)
        universe, name = Universe(m, 1), verify._ROBUST_DOMINANT
        found = as_results(verify._verdicts(rule, universe, predicates(universe, [name])))
        assert found == expected
        witness = getattr(found[name], "witness", None) or {}
        assert len(calls) == len(witness.get("profiles", ())) + ("profile" in witness)

    def test_a_pair_witness_realizes_both_relations_and_replays(self, monkeypatch):
        # tc replaced by the second link of the dominant chain (the whole set
        # where it is the only link): every output is dominant, so the first
        # violation is a pair, the catalog's majoritarian rules have none
        def second_link(rule, m, strict):
            chain = list(_chain(strict))
            return chain[min(1, len(chain) - 1)]

        replace_evaluator(monkeypatch, RuleId.TOP_CYCLE, second_link)
        expected = realized_walk(TC, 4)
        calls = counted_realizations(monkeypatch)
        verdict = check_robust_dominant(TC, Universe(4, 1))
        assert as_results({verdict.axiom: verdict}) == expected
        p, q = verdict.witness["profiles"]
        assert len(calls) == 2
        assert replay(verdict)
        swapped = dataclasses.replace(verdict, witness={**verdict.witness, "profiles": (q, p)})
        assert not replay(swapped)
