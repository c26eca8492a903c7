import random

import pytest

from setvote import rules, verify
from setvote.core import ChoiceSet, Profile, margins
from setvote.extensions import ExtensionKind, fishburn_prefers
from setvote.rules import EmptyChoiceError, RuleId, catalog, evaluate, parse_rule
from setvote.verify import (
    Axiom,
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
    search_uncovered_set_manipulation,
    sweep_strategyproofness,
    sweep_strong_strategyproofness,
)

A, B, C = 0, 1, 2
TC = parse_rule("tc")


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


class TestSweepStrategyproofness:
    def test_top_cycle_holds(self):
        verdict = sweep_strategyproofness(TC, Universe(3, 3))
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

    def test_worker_count_does_not_change_the_witness(self):
        rule = parse_rule("borda")
        sequential = sweep_strategyproofness(rule, Universe(3, 3))
        parallel = sweep_strategyproofness(rule, Universe(3, 3), workers=2)
        assert sequential == parallel


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

    def test_budget_guard(self, fig1):
        with pytest.raises(BudgetExceededError):
            find_group_manipulation(TC, fig1, 3, budget=100)


class TestCheckAxiom:
    def test_lenient_top_cycle_fails_homogeneity_with_one_voter(self):
        verdict = check_axiom(Axiom.HOMOGENEITY, parse_rule("tc-star"), Universe(3, 1))
        assert verdict.outcome == Outcome.VIOLATED
        assert verdict.witness["k"] == 2
        before, after = verdict.witness["outputs"]
        assert len(before) == 3 and len(after) == 1
        assert replay(verdict)

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


class TestUncoveredSetSearch:
    def test_even_electorates_rejected(self):
        with pytest.raises(ValueError):
            search_uncovered_set_manipulation(m=5, n=2, budget=10)

    def test_budget_is_respected(self):
        man, evals = search_uncovered_set_manipulation(m=5, n=3, budget=1000, seed=123)
        assert evals >= 1000 or man is not None


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

    def test_all_violation_witnesses_replay(self):
        report = corroborate_theorems(Universe(3, 2))
        violated = [v for v in report.verdicts if v.outcome == Outcome.VIOLATED]
        assert violated
        for verdict in violated:
            assert replay(verdict), (verdict.rule.name, verdict.axiom)

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


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the pool size, runs inline."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkers:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            verify, "ProcessPoolExecutor", lambda max_workers: _InlinePool(sizes, max_workers)
        )
        return sizes

    def test_pool_is_clamped_to_the_cpu_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        rule = parse_rule("borda")
        verdict = sweep_strategyproofness(rule, Universe(3, 2), workers=64)
        assert pool_sizes == [2]
        assert verdict == sweep_strategyproofness(rule, Universe(3, 2))

    def test_pool_is_clamped_to_the_chunk_count(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 1000)
        # six profiles, one chunk each
        sweep_strategyproofness(TC, Universe(2, 2), workers=64)
        sweep_strategyproofness(TC, Universe(2, 2), workers=3)
        assert pool_sizes == [6, 3]

    def test_unknown_cpu_count_means_one_process(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        sweep_strategyproofness(TC, Universe(2, 2), workers=4)
        assert pool_sizes == [1]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, pool_sizes, workers):
        with pytest.raises(ValueError, match="at least 1"):
            sweep_strategyproofness(TC, Universe(2, 1), workers=workers)
        with pytest.raises(ValueError, match="at least 1"):
            corroborate_theorems(Universe(2, 1), workers=workers)
        assert pool_sizes == []


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

    def test_explicit_budget_wins(self, monkeypatch):
        monkeypatch.setenv("SETVOTE_BUDGET", "abc")
        assert sweep_strategyproofness(TC, Universe(2, 1), budget=10**6).outcome == Outcome.HOLDS


class TestEmptyOutputs:
    @pytest.fixture
    def empty_tc(self, monkeypatch):
        monkeypatch.setitem(rules._MAJORITARIAN, RuleId.TOP_CYCLE, lambda rule, m, strict: 0)

    def test_evaluate_refuses(self, empty_tc, fig1):
        with pytest.raises(EmptyChoiceError, match="tc produced an empty choice set"):
            evaluate(TC, fig1)

    def test_no_sweep_carries_an_empty_set(self, empty_tc, fig2_left):
        universe = Universe(3, 2)
        calls = [
            lambda: find_manipulation(TC, fig2_left),
            lambda: find_strong_manipulation(TC, fig2_left),
            lambda: find_group_manipulation(TC, fig2_left, 2),
            lambda: sweep_strategyproofness(TC, universe),
            lambda: check_robust_dominant(TC, universe),
            lambda: check_weak_robustness(TC, universe),
            lambda: corroborate_theorems(universe, rules=(TC,)),
            *[
                lambda a=axiom: check_axiom(a, TC, universe)
                for axiom in Axiom
            ],
        ]
        for call in calls:
            with pytest.raises(EmptyChoiceError):
                call()
