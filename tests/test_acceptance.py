"""End-to-end acceptance checks.

Each test prints one "criterion N: PASS/FAIL" line (visible with pytest -s or
in the captured output). Everything asserted here is either a frozen worked
example, an exhaustive sweep or scan at the stated bounds, or a seeded random
sample.
"""

import itertools
import random
import time

import numpy as np
from oracles import fishburn_literal, naive_manipulation

from setvote.core import (
    ChoiceSet,
    MajorityRelation,
    Profile,
    condorcet_winner,
    connected_set,
    covering_cycle,
    dominant_chain,
    enumerate_ballots,
    enumerate_relations,
    is_dominant,
    margins,
    top_cycle,
)
from setvote.extensions import ExtensionKind
from setvote.io import fixture_path, parse_profile
from setvote.mcgarvey import WeightedMajorityGraph, realize
from setvote.rules import (
    RuleId,
    RuleSpec,
    TiesUnsupportedError,
    catalog,
    parse_rule,
)
from setvote.verify import (
    SP_FISHBURN,
    Axiom,
    Outcome,
    Universe,
    check_axiom,
    check_robust_dominant,
    corroborate_theorems,
    find_manipulation,
    find_strong_manipulation,
    full_suite,
    replay,
    sweep_strategyproofness,
    sweep_strong_strategyproofness,
)

A, B, C, D, E = range(5)


def report_line(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status}" + (f" ({detail})" if detail else ""))


def load(name):
    return parse_profile(fixture_path(name).read_text())


def test_criterion_1_worked_margins_and_dominant_chain():
    t0 = time.perf_counter()
    profile = load("fig1.prof")
    expected = np.array(
        [
            [0, 0, -2, 2, 4],
            [0, 0, 2, 2, 2],
            [2, -2, 0, 2, 2],
            [-2, -2, -2, 0, 0],
            [-4, -2, -2, 0, 0],
        ]
    )
    g = margins(profile)
    rel = MajorityRelation.from_profile(profile)
    chain = dominant_chain(rel)
    elapsed = time.perf_counter() - t0
    report_line(1, True, f"{elapsed:.2f}s")
    assert np.array_equal(g, expected)
    assert set(top_cycle(rel).members) == {A, B, C}
    assert [set(s.members) for s in chain] == [{A, B, C}, {A, B, C, D, E}]
    assert elapsed < 1.0


def test_criterion_2_plurality_example_and_searched_witnesses():
    t0 = time.perf_counter()
    left, right = load("fig2-left.prof"), load("fig2-right.prof")
    plurality = parse_rule("plurality")
    from setvote.rules import evaluate

    assert set(evaluate(plurality, left).members) == {A, C}
    assert set(evaluate(plurality, right).members) == {C}
    man = find_manipulation(plurality, left, ExtensionKind.FISHBURN)
    assert man.voter == 4
    assert man.misreport == (C, B, A)
    assert man.honest_set == ChoiceSet.from_members(3, (A, C))
    assert man.manipulated_set == ChoiceSet.from_members(3, (C,))
    universe = Universe(3, 5)
    for rid in ("borda", "maximin", "kemeny"):
        verdict = sweep_strategyproofness(parse_rule(rid), universe)
        assert verdict.outcome == Outcome.VIOLATED, rid
        assert replay(verdict), rid
    elapsed = time.perf_counter() - t0
    report_line(2, True, f"{elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_3_top_cycle_strategyproofness_sweeps():
    t0 = time.perf_counter()
    tc = parse_rule("tc")
    small = sweep_strategyproofness(tc, Universe(3, 4))
    large = sweep_strategyproofness(tc, Universe(4, 3))
    elapsed = time.perf_counter() - t0
    report_line(3, True, f"{elapsed:.1f}s")
    assert small.outcome == Outcome.HOLDS
    assert large.outcome == Outcome.HOLDS
    assert elapsed < 120


def test_criterion_4_robust_dominant_set_rules():
    t0 = time.perf_counter()
    trio = ("tc", "condorcet", "condorcet-non-loser")
    for rid in trio:
        for m in (1, 2, 3, 4):
            verdict = check_robust_dominant(parse_rule(rid), Universe(m, 3))
            assert verdict.outcome == Outcome.HOLDS, (rid, m)
    for rid in trio:
        verdict = sweep_strategyproofness(parse_rule(rid), Universe(3, 3))
        assert verdict.outcome == Outcome.HOLDS, rid
    elapsed = time.perf_counter() - t0
    report_line(4, True, f"{elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_5_catalog_corroboration():
    t0 = time.perf_counter()
    report = corroborate_theorems(Universe(3, 3, k_hom=2))
    larger = corroborate_theorems(Universe(3, 4, k_hom=2))
    bracket = (
        Axiom.PAIRWISENESS.value,
        SP_FISHBURN,
        Axiom.HOMOGENEITY.value,
        Axiom.SET_NON_IMPOSITION.value,
    )
    failed = [name for name, ok, _ in report.assertions if not ok]
    per_rule = {
        "condorcet": (Axiom.SET_NON_IMPOSITION.value,),
        "omninomination": (Axiom.PAIRWISENESS.value,),
        "tc-star": (Axiom.HOMOGENEITY.value,),
        "borda": (SP_FISHBURN,),
    }
    pattern_ok = (
        not failed
        and report.failures("tc", bracket) == ()
        and all(report.failures(r, bracket) == f for r, f in per_rule.items())
    )
    # Over unbounded electorates the four headline axioms single out the top
    # cycle. On a universe this small they cannot: with at most three voters,
    # five further rules (kemeny, maximin, schwartz, and both pareto
    # compositions) admit no manipulation and reach every set, because their
    # cheapest counterexamples all need at least four voters (the searched
    # witnesses for kemeny and maximin in criterion 2 first appear at n = 4).
    # The passers are pinned exactly here, and uniqueness is asserted on
    # (m=3, n<=4), where each of the five meets its counterexample.
    small_passers = ("kemeny", "maximin", "po-of-tc", "schwartz", "tc", "tc-of-po")
    pinned = report.bracket_passers == small_passers
    unique = larger.bracket_passers == ("tc",)
    # a rule with any check not evaluable drops out of bracket_passers, so
    # the scope of "catalog-wide" is pinned too: only the uncovered set is
    # left out, for every check but non-imposition, because even electorates
    # bring majority ties
    checks = {SP_FISHBURN, "robust-dominant-set", *(a.value for a in full_suite())}
    left_out = {("uncovered-set", c) for c in checks - {Axiom.NON_IMPOSITION.value}}
    scope = all(set(r.not_evaluable) == left_out for r in (report, larger))
    elapsed = time.perf_counter() - t0
    report_line(
        5,
        pattern_ok and pinned and larger.passed and unique and scope,
        f"{elapsed:.1f}s; rule-by-rule pattern {'ok' if pattern_ok else 'BROKEN'}; "
        f"bracket passers on (3, <=3): {', '.join(report.bracket_passers)}; "
        f"on (3, <=4): {', '.join(larger.bracket_passers)}; not evaluable: "
        f"{len(report.not_evaluable)} and {len(larger.not_evaluable)} checks "
        "(uncovered-set, majority ties)",
    )
    assert pattern_ok, (failed, {r: report.failures(r, bracket) for r in per_rule})
    assert elapsed < 300
    assert pinned, (
        "bracket passers on (m=3, n<=3) changed: "
        f"{report.bracket_passers}, expected {small_passers}"
    )
    assert larger.passed, [a for a in larger.assertions if not a[1]]
    assert unique, (
        "catalog-wide uniqueness fails on (m=3, n<=4): "
        f"bracket passers {larger.bracket_passers}"
    )
    assert scope, (sorted(report.not_evaluable), sorted(larger.not_evaluable))
    for r in (report, larger):
        assert all("tie-free" in why for why in r.not_evaluable.values())

    # each vacuous passer fails exactly one headline axiom on (3, <=4), with
    # a witness that needs four voters
    four_voter_failures = {
        "kemeny": SP_FISHBURN,
        "maximin": SP_FISHBURN,
        "schwartz": SP_FISHBURN,
        "po-of-tc": Axiom.PAIRWISENESS.value,
        "tc-of-po": Axiom.PAIRWISENESS.value,
    }
    for rid, axiom in four_voter_failures.items():
        assert larger.failures(rid, bracket) == (axiom,), rid
        verdict = next(
            v for v in larger.verdicts if v.rule.name == rid and v.axiom == axiom
        )
        assert verdict.outcome == Outcome.VIOLATED, rid
        assert replay(verdict), rid
        if axiom == SP_FISHBURN:
            # abc, abc, bca, cab: voter 2 (b > c > a) reports c > b > a and
            # moves the outcome from {a} to {a, c}
            man = verdict.witness["manipulation"]
            assert man.profile.ballots == ((A, B, C), (A, B, C), (B, C, A), (C, A, B))
            assert (man.voter, man.misreport) == (2, (C, B, A)), rid
            assert man.honest_set == ChoiceSet.from_members(3, (A,)), rid
            assert man.manipulated_set == ChoiceSet.from_members(3, (A, C)), rid
            assert fishburn_literal(
                man.true_ballot, man.manipulated_set.members, man.honest_set.members
            ), rid
            profiles = (man.profile,)
        else:
            profiles = verdict.witness["profiles"]
            assert np.array_equal(margins(profiles[0]), margins(profiles[1])), rid
        assert 4 in {p.n for p in profiles}, rid


def _smallest_dominant_by_subset_scan(strict, m):
    full = (1 << m) - 1
    best = None
    for mask in range(1, full + 1):
        if best is not None and mask.bit_count() >= best.bit_count():
            continue
        comp = full & ~mask
        sub = mask
        ok = True
        while sub:
            low = sub & -sub
            if strict[low.bit_length() - 1] & comp != comp:
                ok = False
                break
            sub ^= low
        if ok:
            best = mask
    return best


def _has_weak_hamilton_cycle(strict, members):
    if len(members) < 2:
        return False
    first, *rest = sorted(members)

    def weak(u, v):
        return strict[v] >> u & 1 == 0

    for perm in itertools.permutations(rest):
        seq = (first, *perm)
        if all(weak(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))):
            return True
    return False


def test_criterion_6_structure_lemmas_and_implications():
    t0 = time.perf_counter()
    # cycle structure and connected sets, every relation with up to five
    # alternatives (3^10 = 59049 at m = 5)
    for m in (1, 2, 3, 4, 5):
        for rel in enumerate_relations(m):
            strict = rel.strict
            tc = top_cycle(rel)
            tc_members = set(tc.members)
            assert tc.mask == _smallest_dominant_by_subset_scan(strict, m)
            cyc = covering_cycle(rel)
            if len(tc) == 1:
                assert condorcet_winner(rel) is not None and cyc is None
            else:
                assert condorcet_winner(rel) is None
                assert set(cyc) == tc_members and len(cyc) == len(tc)
                for i, u in enumerate(cyc):
                    v = cyc[(i + 1) % len(cyc)]
                    assert rel.weakly_prefers(u, v)
                assert is_dominant(rel, tc)
            # only the smallest dominant set carries a covering cycle
            for dom in dominant_chain(rel):
                expected = dom.mask == tc.mask and len(dom) >= 2
                assert _has_weak_hamilton_cycle(strict, dom.members) == expected
            # connected sets: going around the cycle, the set a connector
            # holds together can only shrink, except behind a near-winner
            a_sets = {x: connected_set(rel, x) for x in range(m)}
            for x in range(m):
                if not a_sets[x]:
                    continue
                assert x in tc_members and len(tc) >= 3
                for y in a_sets[x]:
                    exempt = all(
                        rel.strictly_prefers(x, z)
                        for z in range(m)
                        if z != x and z != y
                    )
                    if not exempt:
                        assert a_sets[y].issubset(a_sets[x]), (rel, x, y)

    # strategyproof pairwise rules inherit the four single-voter axioms, and
    # with strong winner-consistency also stability, on (m=3, n<=3)
    universe = Universe(3, 3)
    derived = (Axiom.WMON, Axiom.WSMON, Axiom.IUA, Axiom.WLOC)
    for rule in catalog():
        try:
            sp = sweep_strategyproofness(rule, universe).outcome == Outcome.HOLDS
            pairwise = (
                check_axiom(Axiom.PAIRWISENESS, rule, universe).outcome == Outcome.HOLDS
            )
            if sp and pairwise:
                for axiom in derived:
                    assert (
                        check_axiom(axiom, rule, universe).outcome == Outcome.HOLDS
                    ), (rule.name, axiom)
                strong_cc = (
                    check_axiom(Axiom.STRONG_CONDORCET_CONSISTENCY, rule, universe).outcome
                    == Outcome.HOLDS
                )
                if strong_cc:
                    assert (
                        check_axiom(Axiom.COS, rule, universe).outcome == Outcome.HOLDS
                    ), rule.name
        except TiesUnsupportedError:
            continue
    elapsed = time.perf_counter() - t0
    report_line(6, True, f"{elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_7_margin_graph_roundtrip():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for trial in range(200):
        m = rng.randint(1, 6)
        parity = rng.choice((0, 1))
        target = np.zeros((m, m), dtype=np.int64)
        for x in range(m):
            for y in range(x + 1, m):
                value = rng.choice([v for v in range(-6, 7) if abs(v) % 2 == parity])
                target[x, y], target[y, x] = value, -value
        graph = WeightedMajorityGraph(m, target)
        profile = realize(graph)
        assert np.array_equal(margins(profile), target), trial
        assert profile.n <= 6 * m * m + 1, trial
    elapsed = time.perf_counter() - t0
    report_line(7, True, f"{elapsed:.1f}s")
    assert elapsed < 10


def test_criterion_8_uncovered_set_tournaments():
    t0 = time.perf_counter()
    # positive half: the first five-alternative manipulation among the
    # three-voter profiles with sorted ballots, scanned exhaustively in
    # combinations_with_replacement order
    uncovered = RuleSpec(RuleId.UNCOVERED_SET)
    sorted_profiles = itertools.combinations_with_replacement(enumerate_ballots(5), 3)
    for scanned, prof in enumerate(sorted_profiles, 1):
        man = find_manipulation(uncovered, Profile(5, prof))
        if man is not None:
            break
    assert scanned == 4051
    assert prof == ((A, B, C, D, E), (B, D, E, A, C), (C, E, D, A, B))
    assert (man.voter, man.misreport) == (2, (E, C, D, A, B))
    assert man.honest_set == ChoiceSet.from_members(5, (A, B, D))
    assert man.manipulated_set == ChoiceSet.from_members(5, (A, B, D, E))
    assert naive_manipulation(uncovered, prof, 5) == (
        2, (E, C, D, A, B), frozenset({A, B, D}), frozenset({A, B, D, E})
    )
    # negative half: exhaustive over all four-alternative, three-voter
    # profiles (all tournaments, margins stay odd under deviations)
    ballots = enumerate_ballots(4)
    for prof in itertools.product(ballots, repeat=3):
        assert find_manipulation(uncovered, Profile(4, prof)) is None
    elapsed = time.perf_counter() - t0
    report_line(8, True, f"{elapsed:.1f}s; m=5 witness at sorted profile {scanned}")


def test_criterion_9_efficiency_and_strong_strategyproofness():
    t0 = time.perf_counter()
    tc = parse_rule("tc")
    for m in (1, 2, 3, 4):
        verdict = check_axiom(Axiom.FISHBURN_EFFICIENCY, tc, Universe(m, 3))
        assert verdict.outcome == Outcome.HOLDS, m
    strict = sweep_strong_strategyproofness(tc, Universe(3, 3), ExtensionKind.FISHBURN)
    assert strict.outcome == Outcome.VIOLATED
    man = strict.witness["manipulation"]
    assert find_strong_manipulation(tc, man.profile, ExtensionKind.FISHBURN) == man
    weak = sweep_strong_strategyproofness(tc, Universe(3, 3), ExtensionKind.FPLUS)
    assert weak.outcome == Outcome.HOLDS
    elapsed = time.perf_counter() - t0
    report_line(9, True, f"{elapsed:.1f}s")
    assert elapsed < 120
