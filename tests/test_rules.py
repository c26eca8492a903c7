import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import positional_borda
from setvote.core import (
    ChoiceSet,
    MajorityRelation,
    Profile,
    enumerate_ballots,
    enumerate_relations,
    is_dominant,
    margins,
    top_cycle,
)
from setvote import rules as rules_module
from setvote.rules import (
    BasisTag,
    InstanceTooLargeError,
    RuleId,
    RuleSpec,
    TiesUnsupportedError,
    basis,
    catalog,
    evaluate,
    evaluate_on_relation,
    parse_rule,
)
from setvote.verify import find_manipulation

A, B, C, D = range(4)


def rule(rid, **kw):
    return RuleSpec(RuleId(rid), **kw)


def out(rid, profile, **kw):
    return frozenset(evaluate(rule(rid, **kw), profile).members)


def all_profiles(m, n_max):
    ballots = enumerate_ballots(m)
    for n in range(1, n_max + 1):
        yield from (Profile(m, p) for p in itertools.product(ballots, repeat=n))


class TestCatalog:
    def test_contains_top_cycle(self):
        assert rule("tc") in catalog()

    def test_contains_default_special_pair(self):
        assert RuleSpec(RuleId.FAB, pair=(0, 1)) in catalog()

    def test_size(self):
        assert len(catalog()) == 19

    def test_names_roundtrip(self):
        variants = [
            RuleSpec(RuleId.SUPERMAJORITY_TC, k=0),
            RuleSpec(RuleId.SHIFTED_TC, k=7),
            RuleSpec(RuleId.FAB, pair=(25, 0)),
            RuleSpec(RuleId.FAB, pair=(3, 1)),
        ]
        for spec in catalog() + variants:
            assert parse_rule(spec.name) == spec

    def test_parameterized_names(self):
        assert parse_rule("supermajority-tc:k=3") == RuleSpec(RuleId.SUPERMAJORITY_TC, k=3)
        assert parse_rule("fab:bc") == RuleSpec(RuleId.FAB, pair=(1, 2))
        assert parse_rule("supermajority-tc").k == 2

    @pytest.mark.parametrize("rid,kwargs,message", [
        (RuleId.FAB, {"pair": (0, 30)}, "two alternatives among 0..25"),
        (RuleId.FAB, {"pair": (-1, 2)}, "two alternatives among 0..25"),
        (RuleId.FAB, {"pair": (0, 1, 2)}, "two alternatives among 0..25"),
        (RuleId.FAB, {"pair": (2, 2)}, "two distinct alternatives"),
        (RuleId.FAB, {"k": 1}, "'fab' takes no threshold k"),
        (RuleId.TOP_CYCLE, {"k": 3}, "'tc' takes no threshold k"),
        (RuleId.TOP_CYCLE, {"pair": (1, 2)}, "'tc' takes no special pair"),
        (RuleId.SHIFTED_TC, {"pair": (1, 0)}, "'shifted-tc' takes no special pair"),
        (RuleId.SUPERMAJORITY_TC, {"k": -1}, "threshold k must be non-negative"),
        (RuleId.SHIFTED_TC, {"k": 1.5}, "threshold k must be an integer"),
        ("bogus", {}, "unknown rule 'bogus'"),
        (None, {}, "unknown rule None"),
        (RuleId.FAB, {"pair": 5}, "two alternatives among 0..25"),
        (RuleId.FAB, {"pair": None}, "two alternatives among 0..25"),
    ])
    def test_a_spec_its_name_cannot_say_is_refused(self, rid, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RuleSpec(rid, **kwargs)

    def test_a_spec_keeps_its_id_as_a_member_and_its_pair_as_a_tuple(self, fig2_left):
        tc = RuleSpec("tc")
        assert tc == parse_rule("tc") and tc.id is RuleId.TOP_CYCLE
        assert tc.name == str(tc) == "tc"
        fab = RuleSpec(RuleId.FAB, pair=[0, 1])
        assert fab == parse_rule("fab:ab") and fab.pair == (0, 1)
        assert find_manipulation(fab, fig2_left) == find_manipulation(
            parse_rule("fab:ab"), fig2_left
        )

    def test_special_pair_needs_two_distinct_lowercase_letters(self):
        for bad in ("AB", "aB", "a1", "a", "abc", "aa", "\u00e9a", "\uff41b"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                parse_rule(f"fab:{bad}")
        assert parse_rule("fab:za") == RuleSpec(RuleId.FAB, pair=(25, 0))

    def test_bad_names_rejected(self):
        for bad in ("nope", "tc:k=2", "fab:aa", "supermajority-tc:j=1"):
            with pytest.raises(ValueError):
                parse_rule(bad)
        too_long = "k=" + "1" * 5000
        with pytest.raises(ValueError, match=re.escape(repr(too_long))):
            parse_rule("supermajority-tc:" + too_long)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text()
        | st.builds(
            lambda head, arg: f"{head}:{arg}",
            st.sampled_from([r.value for r in RuleId]),
            st.text(max_size=4) | st.text(max_size=3).map("k=".__add__),
        )
    )
    def test_errors_name_the_input(self, text):
        try:
            parse_rule(text)
        except ValueError as exc:
            head, _, arg = text.strip().partition(":")
            message = str(exc)
            assert repr(head) in message or repr(arg) in message, message
            assert "invalid literal" not in message


class TestWorkedExamples:
    def test_plurality_fig2(self, fig2_left, fig2_right):
        assert out("plurality", fig2_left) == {A, C}
        assert out("plurality", fig2_right) == {C}

    def test_borda_fig2_left(self, fig2_left):
        assert out("borda", fig2_left) == {A}
        assert positional_borda(fig2_left) == {A}

    def test_top_cycle_fig1(self, fig1):
        assert out("tc", fig1) == {A, B, C}

    def test_lenient_top_cycle_depends_on_turnout(self):
        one = Profile.from_rankings([(A, B, C)])
        assert out("tc-star", one) == {A, B, C}
        assert out("tc-star", one.tiled(2)) == {A}

    def test_omninomination_fig1(self, fig1):
        assert out("omninomination", fig1) == {A, B, C, D}

    def test_condorcet_rule_unanimous(self):
        prof = Profile.from_rankings([(B, C, A), (B, C, A)])
        assert out("condorcet", prof) == {B}

    def test_condorcet_non_loser(self):
        prof = Profile.from_rankings([(B, C, A), (B, C, A)])
        assert out("condorcet-non-loser", prof) == {B, C}
        cycle = Profile.from_rankings([(A, B, C), (B, C, A), (C, A, B)])
        assert out("condorcet-non-loser", cycle) == {A, B, C}
        assert out("condorcet-non-loser", Profile.from_rankings([(0,)])) == {0}

    def test_pareto_rule(self):
        prof = Profile.from_rankings([(A, B, C), (B, A, C)])
        assert out("pareto", prof) == {A, B}

    def test_maximin_fig2_left(self, fig2_left):
        # margins: g(a,b)=3, g(a,c)=-1, g(b,c)=1, so the mins are -1, -3, -1
        assert out("maximin", fig2_left) == {A, C}

    def test_kemeny_fig2_left(self, fig2_left):
        assert out("kemeny", fig2_left) == {A, C}

    def test_copeland_breaks_ties_by_score(self):
        prof = Profile.from_rankings([(A, B, C), (B, A, C)])
        assert out("copeland", prof) == {A, B}

    def test_copeland_is_the_argmax_of_wins_less_losses(self):
        copeland = parse_rule("copeland")
        for m in range(1, 6):
            for rel in enumerate_relations(m):
                score = [
                    sum(rel.strictly_prefers(x, y) - rel.strictly_prefers(y, x) for y in range(m))
                    for x in range(m)
                ]
                best = max(score)
                expected = {x for x in range(m) if score[x] == best}
                assert set(evaluate_on_relation(copeland, rel).members) == expected

    def test_uncovered_set_on_three_cycle(self):
        cycle = Profile.from_rankings([(A, B, C), (B, C, A), (C, A, B)])
        assert out("uncovered-set", cycle) == {A, B, C}

    def test_uncovered_set_refuses_ties(self):
        prof = Profile.from_rankings([(A, B, C), (C, B, A)])
        with pytest.raises(TiesUnsupportedError):
            evaluate(rule("uncovered-set"), prof)

    def test_kemeny_refuses_large_instances(self):
        prof = Profile.from_rankings([tuple(range(9))])
        with pytest.raises(
            InstanceTooLargeError, match=r"^kemeny enumerates m! rankings; refusing m=9 > 8$"
        ):
            evaluate(rule("kemeny"), prof)

    def test_fab_picks_its_favourite_despite_a_tie(self):
        # a ties b and beats c: the special rule elects a alone even though
        # {a} is not a dominant set here
        prof = Profile.from_rankings([(A, B, C), (B, A, C)])
        assert out("fab", prof) == {A}
        rel = MajorityRelation.from_profile(prof)
        assert not is_dominant(rel, ChoiceSet.from_members(3, (A,)))

    def test_fab_falls_back_to_condorcet(self):
        prof = Profile.from_rankings([(C, B, A), (C, B, A)])
        assert out("fab", prof) == {C}

    def test_margin_threshold(self):
        strong = Profile.from_rankings([(A, B, C)] * 3)
        assert out("margin-threshold", strong) == {A}
        weak = Profile.from_rankings([(A, B, C)])
        assert out("margin-threshold", weak) == {A, B, C}

    def test_supermajority_tc_widens_with_k(self):
        prof = Profile.from_rankings([(A, B, C)] * 3)  # all margins 3
        assert out("supermajority-tc", prof, k=2) == {A}
        assert out("supermajority-tc", prof, k=3) == {A, B, C}

    def test_shifted_tc_reads_raw_thresholds(self):
        prof = Profile.from_rankings([(A, B, C), (A, B, C)])  # margins 2
        assert out("shifted-tc", prof, k=2) == {A, B, C}
        assert out("shifted-tc", prof.tiled(2), k=2) == {A}

    def test_schwartz_fig1(self, fig1):
        assert out("schwartz", fig1) == {B}


class TestBasisDeclarations:
    def test_spot_tags(self):
        assert basis(rule("tc")) == BasisTag.MAJORITARIAN
        assert basis(rule("borda")) == BasisTag.PAIRWISE
        assert basis(rule("omninomination")) == BasisTag.PROFILE_BASED

    def test_each_rule_has_one_evaluator_entry_whose_tag_basis_names(self):
        # a dict holds one entry per key; a rule without one would have no
        # basis, and none is assumed for it
        assert set(rules_module._EVALUATORS) == set(RuleId)
        for rule_id, (tag, evaluator) in rules_module._EVALUATORS.items():
            assert isinstance(tag, BasisTag) and callable(evaluator), rule_id
            assert basis(RuleSpec(rule_id)) is tag, rule_id

    def test_margins_entry_point_refuses_a_profile_based_rule(self):
        with pytest.raises(ValueError, match="plurality needs the ballots, not just margins"):
            rules_module.evaluate_mask_from_margins(rule("plurality"), (0, 1, -1, 0), 2)

    @pytest.mark.parametrize("name", ["borda", "plurality"])
    def test_relation_entry_point_refuses_a_non_majoritarian_rule(self, name):
        with pytest.raises(
            ValueError, match=f"{name} is not a function of the majority relation"
        ):
            rules_module.evaluate_mask_from_relation(rule(name), (0b10, 0), 2)

    def test_omninomination_is_genuinely_profile_based(self):
        left = Profile.from_rankings([(A, B, C), (C, B, A)])
        right = Profile.from_rankings([(B, A, C), (C, A, B)])
        assert not margins(left).any() and not margins(right).any()
        assert out("omninomination", left) == {A, C}
        assert out("omninomination", right) == {B, C}

    @pytest.mark.parametrize("m, n_max", [(3, 4), (4, 3)])
    def test_profile_based_evaluators_read_a_multiset(self, m, n_max):
        # the sweeps walk one ordering per electorate, so every ordering of
        # one multiset of ballots must give one mask
        for rule_id, (tag, fn) in rules_module._EVALUATORS.items():
            if tag != BasisTag.PROFILE_BASED:
                continue
            spec = RuleSpec(rule_id)
            masks = {}
            for n in range(1, n_max + 1):
                for ballots in itertools.product(enumerate_ballots(m), repeat=n):
                    mask = fn(spec, m, ballots)
                    assert masks.setdefault(tuple(sorted(ballots)), mask) == mask, spec.name

    def test_declared_bases_are_sound_m3(self):
        # identical relations (or margins) must give identical outputs, m=3, n<=3
        for spec in catalog():
            tag = basis(spec)
            if tag == BasisTag.PROFILE_BASED:
                continue
            groups = {}
            for prof in all_profiles(3, 3):
                g = margins(prof)
                if tag == BasisTag.MAJORITARIAN:
                    key = MajorityRelation.from_margins(g).strict
                else:
                    key = tuple(g.ravel())
                try:
                    value = evaluate(spec, prof)
                except TiesUnsupportedError:
                    continue
                assert groups.setdefault(key, value) == value, spec.name


class TestStructuralInvariants:
    def test_refinements_of_the_top_cycle(self):
        refiners = ("copeland", "kemeny", "schwartz", "uncovered-set")
        for m in (2, 3):
            for prof in all_profiles(m, 4):
                tc = out("tc", prof)
                coarse = out("condorcet", prof)
                assert tc <= coarse
                for rid in refiners:
                    try:
                        assert out(rid, prof) <= tc, rid
                    except TiesUnsupportedError:
                        continue

    def test_pareto_compositions_nest_inside_the_top_cycle(self):
        # the restricted-first composition refines the filter-after one, which
        # refines the plain top cycle; m = 4 is covered by the combined sweep
        for m in (2, 3):
            for prof in all_profiles(m, 4):
                inner = out("tc-of-po", prof)
                outer = out("po-of-tc", prof)
                assert inner <= outer <= out("tc", prof)

    def test_exhaustive_structural_sweep_m4(self):
        # one pass over every four-alternative profile with up to four voters
        # (347,784 of them): refinement chain, winner handling, and the
        # pareto composition nesting; margin-determined rules are deduped by
        # matrix so the sweep stays fast
        import itertools as it

        from setvote.core import _margins_flat, _strict_masks_from_flat, _tc_mask
        from setvote.rules import (
            _pareto_mask,
            evaluate_mask_from_margins,
        )

        m, full = 4, 0b1111
        ballots = enumerate_ballots(m)
        # maximin is deliberately not among the refiners: it can elect outside
        # the top cycle (it surfaces here at m = 4), but it still elects a
        # sole winner exactly
        refiners = [parse_rule(r) for r in ("copeland", "kemeny", "schwartz")]
        maximin = parse_rule("maximin")
        uncovered = parse_rule("uncovered-set")
        by_margins = {}
        tc_by_subset = {}
        for n in (1, 2, 3, 4):
            for prof in it.product(ballots, repeat=n):
                flat = _margins_flat(prof, m)
                entry = by_margins.get(flat)
                if entry is None:
                    strict = _strict_masks_from_flat(flat, m)
                    tc = _tc_mask(strict, full)
                    winner = next(
                        (x for x in range(m) if strict[x] == full & ~(1 << x)), None
                    )
                    condorcet_mask = full if winner is None else 1 << winner
                    assert tc & ~condorcet_mask == 0
                    for rule in refiners:
                        mask = evaluate_mask_from_margins(rule, flat, m)
                        assert mask & ~tc == 0, rule.name
                        if winner is not None:
                            assert mask == 1 << winner, rule.name
                    if winner is not None:
                        assert evaluate_mask_from_margins(maximin, flat, m) == 1 << winner
                    try:
                        uc = evaluate_mask_from_margins(uncovered, flat, m)
                        assert uc & ~tc == 0
                        if winner is not None:
                            assert uc == 1 << winner
                    except TiesUnsupportedError:
                        pass
                    entry = (strict, tc, winner)
                    by_margins[flat] = entry
                strict, tc, winner = entry
                po = _pareto_mask(prof, m)
                key = (strict, po)
                tcpo = tc_by_subset.get(key)
                if tcpo is None:
                    tcpo = tc_by_subset[key] = _tc_mask(strict, po)
                potc = tc & po
                assert tcpo & ~potc == 0 and potc & ~tc == 0
                if winner is not None:
                    assert tcpo == potc == 1 << winner

    def test_filter_after_does_not_refine_restricted_first(self):
        # frozen four-alternative counterexample: d is unanimously below b,
        # and cutting d disconnects c from the {a,b} tie at the top
        prof = Profile.from_rankings([(0, 1, 2, 3), (0, 1, 2, 3), (1, 3, 0, 2), (2, 1, 3, 0)])
        assert out("tc-of-po", prof) == {0, 1}
        assert out("po-of-tc", prof) == {0, 1, 2}

    def test_condorcet_extensions_elect_the_condorcet_winner(self):
        # the non-loser rule is deliberately absent: it keeps everything but
        # the loser, so with one voter over a > b > c it returns {a, b} even
        # though a wins outright; it still always contains the winner
        extensions = (
            "tc", "condorcet", "copeland", "maximin",
            "kemeny", "uncovered-set", "schwartz", "tc-of-po", "po-of-tc",
        )
        for m in (2, 3, 4):
            for prof in all_profiles(m, 4 if m < 4 else 2):
                rel = MajorityRelation.from_profile(prof)
                full = (1 << m) - 1
                winner = next(
                    (x for x in range(m) if rel.strict[x] == full & ~(1 << x)), None
                )
                if winner is None:
                    continue
                assert winner in out("condorcet-non-loser", prof)
                for rid in extensions:
                    try:
                        assert out(rid, prof) == {winner}, rid
                    except TiesUnsupportedError:
                        continue

    def test_dominant_set_rules_return_dominant_sets(self):
        for rid in ("tc", "condorcet", "condorcet-non-loser", "margin-threshold"):
            for prof in all_profiles(3, 3):
                rel = MajorityRelation.from_profile(prof)
                assert is_dominant(rel, evaluate(parse_rule(rid), prof)), rid

    def test_fab_is_not_a_dominant_set_rule(self):
        # the special-pair rule can elect a alone while a only ties b
        prof = Profile.from_rankings([(A, B, C), (B, A, C)])
        rel = MajorityRelation.from_profile(prof)
        assert not is_dominant(rel, evaluate(parse_rule("fab"), prof))

    def test_borda_margin_scores_match_positional_scores(self):
        for prof in all_profiles(3, 3):
            assert out("borda", prof) == positional_borda(prof)

    def test_majoritarian_rules_agree_on_relation_entry_point(self):
        for spec in catalog():
            if basis(spec) != BasisTag.MAJORITARIAN:
                continue
            for prof in all_profiles(3, 2):
                rel = MajorityRelation.from_profile(prof)
                try:
                    via_profile = evaluate(spec, prof)
                except TiesUnsupportedError:
                    with pytest.raises(TiesUnsupportedError):
                        evaluate_on_relation(spec, rel)
                    continue
                assert evaluate_on_relation(spec, rel) == via_profile

    def test_every_rule_returns_nonempty_sets(self):
        for spec in catalog():
            for rel in enumerate_relations(3):
                del rel
            for prof in all_profiles(3, 2):
                try:
                    assert evaluate(spec, prof)
                except TiesUnsupportedError:
                    continue

    def test_top_cycle_output_always_dominant_across_relations(self):
        for m in (1, 2, 3, 4):
            for rel in enumerate_relations(m):
                assert is_dominant(rel, top_cycle(rel))
