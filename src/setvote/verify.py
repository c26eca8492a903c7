"""Manipulation search and exhaustive axiom checking over bounded universes.

A universe is the set of all profiles with a fixed number of alternatives and
an electorate size up to a bound. Every checker walks its universe in one
fixed order and reports either that the property holds on the whole universe,
or the first counterexample it meets, so identical inputs always produce
identical witnesses. Existence properties (an output being reachable) can
only be confirmed by finding witnesses; when some are missing the verdict is
the deliberately weaker "not witnessed in universe", never a refutation.

Sweeps refuse to start when their estimated number of rule evaluations
exceeds a budget (default 10^9, see DEFAULT_BUDGET and the SETVOTE_BUDGET
environment variable). One runner, `_run`, starts every universe sweep: it
refuses a walk of electorates past eight alternatives, the engine's reach
(`_within_reach`), before any estimate, whatever the budget; then it checks
the largest estimate (`Universe._estimate`) of the checks it runs, over
every rule, before it builds any predicate.

Walk contract. Every universe check (the axioms, both strategyproofness
readings and the two dominant-set pair checks) is one entry of one table,
`_CHECKS`, under the name its verdicts carry: its predicate's factory,
whether the orbit walk may settle it, and its cost per electorate (`_cost`).
`_run` runs any set of checks by name on each rule through one `_verdicts`
call, so the universe is walked once per rule for all of them; the
single-check functions, `setvote axioms` and corroboration call it. A check
is a per-profile predicate: given the scan context of one profile (its
ballots, margin code and memoized output) it returns None to go on, or its
verdict as (outcome, witness). Every violation witness but
strategyproofness's `Manipulation` is written by one builder, `_violated`,
which states the layout. One walker, `_walk`, takes the profiles and a
`scan` callable, which reads each into its scan context, feeds every open
predicate and closes each at its first verdict. A predicate still open at
walk end gives its `end()` verdict, or holds: the imposition checks report
the sets never reached, and the pair checks judge the scans they kept,
reporting the first violating pair (i, j) in scan order. A
TiesUnsupportedError or InstanceTooLargeError from a profile's own output
closes every open predicate; one raised inside a predicate closes that
predicate only. Sweeps run in one process.

One place, `_verdicts`, decides what each check walks and sizes the engine
for it: the universe's profiles in scan order (n ascending, then
lexicographic), one ordering per electorate (below), one electorate per
relabeling class first (Orbit walk), or the majority relations (Relation
walk). Each call builds one engine of its own for its walks of electorates,
so a verdict and its cost never depend on what ran before it in the process.
Every witness is the first its predicate meets, so `replay` hands the stored
profile(s) to `_verdicts`, which walks the same predicate over those the
universe holds (its m, at most n_max voters, every margin within the cap),
or over the relations of those with its m, so that the witness is re-derived
from the rule. A witness the universe does not hold is never met, so it does
not replay.

Electorate walk. Every rule reads the ballots only as a multiset: margins
are sums over the ballots, and the tests check each profile-based evaluator
in `rules._EVALUATORS`. So a universe walk takes `Universe._electorates`,
the sorted tuple of each multiset, which is the first ordering of it that
`Universe.raw_profiles` meets, in the order `raw_profiles` first meets
them. The skipped reorderings change no verdict and no witness: each
check's verdict on a reordering is its verdict on the first ordering, and
that returned None, or the check would be closed.
- A per-profile predicate (the deviation checks, the one-ballot-move
  axioms, neutrality, homogeneity, strong Condorcet consistency, COS,
  Fishburn efficiency, twin symmetry) that returned None on the first
  ordering evaluated every profile it tries there without an error. On a
  reordering it tries reorderings of those profiles (a voter's move, a
  relabeling, a tiling), which have the same outputs, and judges each by
  the moved ballot and the outputs alone, so it returns None too.
- `_grouped` keeps at each key the earliest profile with that key, a first
  ordering, and a reordering has the key and the output of its first one.
- `_Imposition`: a reordering reaches no output its first ordering did not.
- The pair checks report the first p, and for it the first q, whose outputs
  and margins have a property; a reordering has those of its first
  ordering, so both are first orderings.

Orbit walk. The move checks (the four strategyproofness readings and the
four one-ballot-move axioms below) first walk `Universe._orbit_representatives`,
one electorate per relabeling class (the least of its class in scan order,
which the ballot table, the only reader of its relabeling order, finds),
with the neutrality predicate always among them; neutrality, when asked for,
is settled there too. Every electorate is a relabeling σP of the
representative P of its class. If f(σP) = σf(P) for every relabeling σ and
every representative P, then f is neutral on the whole universe
(f(σ'σP) = σ'σf(P) = σ'f(σP)), and every output in it was evaluated without
an error, since neutrality evaluated each σP. A move check asks whether
some voter's move (a misreport, a swap, a push, a block reorder) changes the
output in a way its predicate rejects, and the moves of σP are the
relabelings of the moves of P, so for a neutral f it returns None on σP
exactly when it returns None on P. So a move check that holds on the
representatives holds on the universe, and that is its verdict. A check the
orbit walk finds violated or not evaluable is rerun on the electorate walk,
and so is every orbit check if neutrality does not hold; the orbit walk ends
as soon as neutrality closes or no check it may settle is open. The
representatives are electorates in scan order, so a rerun closes at or
before the representative that closed the check: its first witness is the
electorate walk's, at no more than the electorate walk's cost. What stays on
the electorate walk, and why:
- the grouped checks (pairwiseness, majoritarianess), the imposition checks
  and the pair checks compare outputs across profiles, not one profile with
  its relabelings;
- homogeneity tiles a profile past n_max voters, where the orbit walk
  checks no neutrality;
- strong Condorcet consistency, COS, Fishburn efficiency and twin symmetry
  read one output per profile and ride the electorate walk nearly for free,
  while the orbit walk would pay the m! outputs of neutrality for them;
- a margin-capped universe walks every check on the electorate walk: a
  move can leave the cap, where neutrality is not checked;
- `replay` walks the stored profiles alone.

Relation walk. A majoritarian rule's robust-dominant check
(`_over_relations`) walks every majority relation in `enumerate_relations`
order instead, as its strict masks (`core._relation_masks`). The walk reads
each into a `_RelationScan`, which evaluates the rule on the masks directly;
no margin code is built or decoded, and nothing is memoized, since the walk
meets each relation once. A scan's profile is
the relation realized as `realize_relation(rel, 2)`, two voters per pair of
alternatives, built only for a witness. `replay` reads the relation of each
stored profile (`MajorityRelation.from_profile`), so a witness replays
exactly when it is that relation's realization.

One-ballot-move axioms. Weak monotonicity, weak set monotonicity, IUA and
weak localizedness are each one `_perturbation`: a move kind, what makes a
move a violation, and what the witness names. The sweep engine (margin
codes, move tables, the engines and their memos) is `_engine`; a
check reads a profile through its scan context, `_Scan`, and moves through
the engine (`_moved`, `_Engine.relabeled`, `_Engine.reports`); neutrality
reads the relabeled output and the permutation of its witness off the
ballot table, and decodes no relabeling itself. The one-profile searches
build no scan context: they read the profile's margin code off the shared
engine's layout, whose ballot table refuses m > 8 before any table is
built; the group search asks that reach before its budget. The
single-voter ones (`_find`) keep the engine's verdict memo, which nothing
else reads or writes: per (lifting, strong, code), or electorate on a
profile-based engine, a dict from a voter's ballot to False, once every
misreport of that voter was evaluated without an accepted one, or to the
`Manipulation` found, which a later profile with the same key gets with
its own profile and voter index. A search answered in full evaluates
nothing.
At the first voter the memo does not know, `_find` evaluates the honest
output and runs one search, and stores its answers only once it returns,
so an evaluation error is never stored. Every search, a walk's predicate
with its `_Scan`'s fields and `_find` alike, asks `_Engine.misreport` with
the honest output and builds its witness in `_manipulation`. The group
search evaluates the honest output at once, as its first test reads it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from math import comb, factorial

from ._engine import _ballots, _Engine, _engine, _moved, _Scan, _within_reach
from .core import (
    Ballot,
    ChoiceSet,
    MajorityRelation,
    Profile,
    _bits as _mask_bits,
    _chain,
    _condorcet_winner,
    _integer,
    _margins_flat,
    _relation_masks,
    enumerate_ballots,
)
from .extensions import _FISHBURN, ExtensionKind, _better, _gains, _lifting
from .mcgarvey import realize_relation
from .rules import (
    _EVALUATORS,
    BasisTag,
    InstanceTooLargeError,
    RuleSpec,
    TiesUnsupportedError,
    _nonempty,
    basis,
    # unused here: the engines call the evaluators themselves, so these names
    # stay only because perfbench/layers.py wraps them here by name
    evaluate_mask,
    evaluate_mask_from_margins,
    evaluate_mask_from_relation,
)

__all__ = [
    "Axiom",
    "AxiomVerdict",
    "BudgetExceededError",
    "CorroborationReport",
    "DEFAULT_BUDGET",
    "GroupManipulation",
    "Manipulation",
    "Outcome",
    "Universe",
    "check_axiom",
    "check_robust_dominant",
    "check_weak_robustness",
    "corroborate_theorems",
    "find_group_manipulation",
    "find_manipulation",
    "find_strong_manipulation",
    "full_suite",
    "replay",
    "sweep_strategyproofness",
    "sweep_strong_strategyproofness",
]

DEFAULT_BUDGET = 10**9


def _budget(value: int | None) -> int:
    if value is not None:
        budget = _integer(value, "budget")
        if budget < 0:
            raise ValueError(f"budget must be a non-negative integer, got {budget}")
        return budget
    raw = os.environ.get("SETVOTE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"SETVOTE_BUDGET must be a non-negative integer, got {raw!r}")
    return int(raw)


def _within_budget(estimate: int, budget: int | None) -> None:
    if estimate > _budget(budget):
        raise BudgetExceededError(f"estimated {estimate} evaluations exceed the budget")


class BudgetExceededError(RuntimeError):
    """The estimated sweep size exceeds the evaluation budget."""


class Outcome(str, Enum):
    HOLDS = "holds-on-universe"
    VIOLATED = "violated-with-witness"
    NOT_WITNESSED = "not-witnessed-in-universe"


class Axiom(str, Enum):
    PAIRWISENESS = "pairwiseness"
    MAJORITARIANESS = "majoritarianess"
    NEUTRALITY = "neutrality"
    HOMOGENEITY = "homogeneity"
    NON_IMPOSITION = "non-imposition"
    SET_NON_IMPOSITION = "set-non-imposition"
    STRONG_CONDORCET_CONSISTENCY = "strong-condorcet-consistency"
    COS = "condorcet-stability"
    WMON = "weak-monotonicity"
    WSMON = "weak-set-monotonicity"
    IUA = "independence-of-unchosen-alternatives"
    WLOC = "weak-localizedness"
    FISHBURN_EFFICIENCY = "fishburn-efficiency"
    # optional extra, not part of the default suite: alternatives with a zero
    # mutual margin and identical margins against everyone else must be
    # chosen together
    TWIN_SYMMETRY = "twin-symmetry"


def full_suite() -> tuple[Axiom, ...]:
    """The axioms run by default (TWIN_SYMMETRY is opt-in)."""
    return tuple(a for a in Axiom if a != Axiom.TWIN_SYMMETRY)


@dataclass(frozen=True)
class Universe:
    """All profiles with m alternatives and 1..n_max voters (optionally margin capped)."""

    m: int
    n_max: int
    k_hom: int = 2
    margin_cap: int | None = None

    def __post_init__(self):
        for name in ("m", "n_max", "k_hom", "margin_cap"):
            if getattr(self, name) is not None or name != "margin_cap":
                object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 1 or self.n_max < 1:
            raise ValueError("m and n_max must be positive")
        if self.k_hom < 2:
            raise ValueError("k_hom must be at least 2")
        if self.margin_cap is not None and self.margin_cap < 0:
            raise ValueError(f"margin_cap must be non-negative, got {self.margin_cap}")

    def _estimate(self, costs, budget: int) -> int:
        """The largest of the checks' `costs` (`verify._cost`) on the
        universe, or a lower bound on it past the budget. E electorates of V
        ballots cost a walk a*E + c*V: uncapped, with b = m! and N = n_max,
        E = C(b + N, N) - 1 and V = b*C(b + N, N - 1); under a margin cap
        every estimate counts them until the estimate so far passes the
        budget, and keeps no count on the universe. A walk of
        electorates past eight alternatives is refused before any estimate
        (`_within_reach`), so b <= 8!. No count passes 2^L > budget, L its
        bit length: 3 is raised to at most L, and for b, N > L + 1 the
        estimate is C(max(b, N) + L + 1, L + 1) - 1."""
        m, n_max, bits = self.m, self.n_max, budget.bit_length()
        relations = 3 ** min(comb(m, 2), bits) if None in costs else 0
        if all(cost is None for cost in costs):
            return relations
        b = factorial(m)
        walks = [cost(self, b) for cost in costs if cost is not None]

        def estimate(electorates, ballots):
            return max(relations, *(a * electorates + c * ballots for a, c in walks))

        if self.margin_cap is None:
            j = min(b, n_max, bits + 1)
            count = comb(max(b, n_max) + j, j)
            if j < min(b, n_max):
                return count - 1
            return estimate(count - 1, b * count * n_max // (b + 1))
        electorates = ballots = 0
        for electorates, electorate in enumerate(self._electorates(), 1):
            ballots += len(electorate)
            if (so_far := estimate(electorates, ballots)) > budget:
                return so_far
        return estimate(electorates, ballots)

    def count_profiles(self) -> int:
        """The ordered profiles: m!^n of each size n, or under a margin cap
        those it keeps, counted one by one."""
        if self.margin_cap is not None:
            return sum(1 for _ in self.raw_profiles())
        return sum(factorial(self.m) ** n for n in range(1, self.n_max + 1))

    def _within_cap(self, ballots) -> bool:
        return all(abs(v) <= self.margin_cap for v in _margins_flat(ballots, self.m))

    def _contains(self, profile: Profile) -> bool:
        """Is the profile one of the universe's?"""
        return (
            profile.m == self.m
            and profile.n <= self.n_max
            and (self.margin_cap is None or self._within_cap(profile.ballots))
        )

    def _enumerated(self, combine):
        """Ballot tuples in scan order, n ascending, each size's as
        `combine(ballots, n)` lists them (lexicographic for both enumerators
        below); under a margin cap, those within it."""
        ballots = enumerate_ballots(self.m)
        for n in range(1, self.n_max + 1):
            combos = combine(ballots, n)
            yield from combos if self.margin_cap is None else filter(self._within_cap, combos)

    def raw_profiles(self):
        """Every ordered ballot tuple in scan order: n ascending, then
        lexicographic."""
        return self._enumerated(lambda ballots, n: itertools.product(ballots, repeat=n))

    def _electorates(self):
        """One ballot tuple per electorate (multiset of ballots): its sorted
        tuple, the first ordering of it `raw_profiles` meets, in the order
        `raw_profiles` first meets them. The margin cap reads the multiset
        alone, so it keeps or drops every ordering of an electorate together."""
        return self._enumerated(itertools.combinations_with_replacement)

    def _orbit_representatives(self):
        """One electorate per relabeling class, the first of its class, in
        scan order (`_Ballots.representatives`), which is all the orbit walk
        (module docstring) reads of them."""
        return self._enumerated(lambda _, n: _ballots(self.m).representatives(n))

    def profiles(self):
        for ballots in self.raw_profiles():
            yield Profile(self.m, ballots)


@dataclass(frozen=True)
class Manipulation:
    """A successful single-voter deviation: the deviator strictly prefers the
    new outcome to the honest one under the chosen set extension."""

    profile: Profile
    voter: int
    true_ballot: Ballot
    misreport: Ballot
    honest_set: ChoiceSet
    manipulated_set: ChoiceSet
    extension: ExtensionKind


@dataclass(frozen=True)
class GroupManipulation:
    profile: Profile
    voters: tuple[int, ...]
    misreports: tuple[Ballot, ...]
    honest_set: ChoiceSet
    manipulated_set: ChoiceSet


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    rule: RuleSpec
    universe: Universe
    outcome: Outcome
    witness: dict | None = field(default=None, compare=True)


# errors that leave a check not evaluable on a universe instead of failing it
_NOT_EVALUABLE = (TiesUnsupportedError, InstanceTooLargeError)


def _holds():
    return Outcome.HOLDS, None


def _violated(m: int, profiles, outputs, **facts):
    """A violation and its witness, in the one layout every check but
    strategyproofness writes: "profile" for a `Profile` or "profiles" for a
    tuple of them, then the facts the check names, in call order, then
    "output" for one output mask or "outputs" for a tuple of them, each as a
    `ChoiceSet`."""
    witness = {"profiles" if isinstance(profiles, tuple) else "profile": profiles, **facts}
    if isinstance(outputs, tuple):
        witness["outputs"] = tuple(ChoiceSet(m, out) for out in outputs)
    else:
        witness["output"] = ChoiceSet(m, outputs)
    return Outcome.VIOLATED, witness


def _walk(
    rule: RuleSpec, universe: Universe, checks: dict, profiles, scan, until=None
) -> dict:
    """Run the predicates `checks` (name -> predicate) on one walk of
    `profiles`, each read into its scan context by `scan`: a `_Scan` of an
    engine reads ballot tuples, a `_RelationScan` the strict masks of
    majority relations; see the walk contract in the module docstring.
    Given `until`, the walk also ends after a profile once `until(open
    checks)` is true. Returns name -> AxiomVerdict on the universe, or the
    not-evaluable error that closed the check."""
    found: dict = {}
    active = dict(checks)
    for item in profiles:
        try:
            ctx = scan(item)
        except _NOT_EVALUABLE as exc:
            found.update(dict.fromkeys(active, exc))
            active = {}
            break
        for name, check in list(active.items()):
            try:
                result = check(ctx)
            except _NOT_EVALUABLE as exc:
                result = exc
            if result is not None:
                found[name] = result
                del active[name]
        if not active or until is not None and until(active):
            break
    for name, check in active.items():
        found[name] = getattr(check, "end", _holds)()
    return {
        name: r if isinstance(r, Exception) else AxiomVerdict(name, rule, universe, *r)
        for name, r in found.items()
    }


class _RelationScan:
    """The scan context of one majority relation: its strict masks and the
    rule's output on them. Its profile, the McGarvey realization
    `realize_relation(rel, 2)`, is built only when a witness asks for it."""

    __slots__ = ("m", "strict", "out")

    def __init__(self, rule: RuleSpec, evaluator, strict: tuple[int, ...]):
        self.m = m = len(strict)
        self.strict = strict
        self.out = evaluator(rule, m, strict) or _nonempty(rule, 0)

    @property
    def profile(self) -> Profile:
        return realize_relation(MajorityRelation(self.m, self.strict), 2)


def _manipulation(
    engine: _Engine, ballots, code: int, honest: int, extension, strong: bool, profile=None
) -> Manipulation | None:
    """The first deviation from the profile of these ballots, margin code and
    honest output that the voter strictly prefers or, under the strong
    reading, the first whose outcome the honest one is not at least as good
    as. The witness carries `profile`, or one built from the ballots."""
    found = engine.misreport(ballots, code, honest, _gains if strong else _better, extension)
    if found is None:
        return None
    m, (voter, mis, _, out) = engine.m, found
    return Manipulation(
        Profile(m, ballots) if profile is None else profile,
        voter, ballots[voter], mis, ChoiceSet(m, honest), ChoiceSet(m, out), extension,
    )


def _manipulability(extension: ExtensionKind, strong: bool):
    """The factory of strategyproofness as a predicate, under the strict or
    the strong reading."""

    def violation(ctx):
        found = _manipulation(ctx.engine, ctx.ballots, ctx.code, ctx.out, extension, strong)
        return None if found is None else (Outcome.VIOLATED, {"manipulation": found})

    return _stateless(violation)


def _find(rule: RuleSpec, profile: Profile, extension, strong: bool) -> Manipulation | None:
    """The first manipulation of one profile, in the scan order of the
    sweeps, answered voter by voter from the engine's verdict memo and, at
    the first voter it does not know, by one search whose answers it
    stores (see the module docstring)."""
    # a member is kept as it is, read without an Enum attribute lookup
    if type(extension) is not ExtensionKind:
        extension = _lifting(extension)
    ballots = profile.ballots
    engine = _engine(rule, profile.m, len(ballots))
    code = engine.layout.of(ballots)
    key = (extension, strong, tuple(sorted(ballots)) if engine.by_ballots else code)
    known = engine.verdicts.get(key, {})
    for voter, ballot in enumerate(ballots):
        found = known.get(ballot)
        if found is None:
            break
        if found:
            return replace(found, profile=profile, voter=voter)
    else:
        return None
    honest = engine.output(code, ballots)
    found = _manipulation(engine, ballots, code, honest, extension, strong, profile)
    answers = dict.fromkeys(ballots[: found.voter] if found else ballots, False)
    if found:
        answers[found.true_ballot] = found
    engine.verdicts.store(key, {**known, **answers})
    return found


def find_manipulation(
    rule: RuleSpec, profile: Profile, extension: ExtensionKind = ExtensionKind.FISHBURN
) -> Manipulation | None:
    """First profitable single-voter deviation in scan order (voter index,
    then misreports ordered lexicographically in the voter's own ranking)."""
    return _find(rule, profile, extension, strong=False)


def sweep_strategyproofness(
    rule: RuleSpec,
    universe: Universe,
    extension: ExtensionKind = ExtensionKind.FISHBURN,
    *,
    budget: int | None = None,
) -> AxiomVerdict:
    """Exhaustive manipulation search over the universe."""
    name = _sp_name(extension)
    return _raised(_run((name,), (rule,), universe, budget))[name]


def find_strong_manipulation(
    rule: RuleSpec, profile: Profile, kind: ExtensionKind = ExtensionKind.FISHBURN
) -> Manipulation | None:
    """First deviation whose outcome the voter does NOT weakly prefer to lose.

    Under the strong reading, the honest outcome must be at least as good as
    every reachable outcome; a deviation to an incomparable set already
    violates it. For the strict lifting "at least as good" means equal or
    strictly above; for the weak one it is the weak relation itself.
    """
    return _find(rule, profile, kind, strong=True)


def sweep_strong_strategyproofness(
    rule: RuleSpec,
    universe: Universe,
    kind: ExtensionKind = ExtensionKind.FISHBURN,
    *,
    budget: int | None = None,
) -> AxiomVerdict:
    name = _sp_name(kind, strong=True)
    return _raised(_run((name,), (rule,), universe, budget))[name]


def find_group_manipulation(
    rule: RuleSpec, profile: Profile, max_group: int, *, budget: int | None = None
) -> GroupManipulation | None:
    """First joint deviation where every member strictly gains (Fishburn).

    Groups are scanned by size then by voter indices; joint misreports in the
    same per-voter order as the single-voter search. Members may keep their
    own ballot, so witnesses for smaller groups stay visible inside larger
    ones. A group with no set that every member prefers to the honest one
    is skipped untried. So an evaluation error (a tie, an empty output)
    surfaces only at a joint report the search tries: the first such report
    that raises, in scan order. Refuses m > 8 (`_within_reach`) before
    its budget, whatever the budget.
    """
    max_group = _integer(max_group, "max_group")
    if max_group < 1:
        raise ValueError(f"max_group must be positive, got {max_group}")
    m, n = profile.m, profile.n
    max_group = min(max_group, n)
    _within_reach(m)
    _within_budget(sum(comb(n, g) * factorial(m) ** g for g in range(1, max_group + 1)), budget)
    ballots = profile.ballots
    engine = _engine(rule, m, n)
    code = engine.layout.of(ballots)
    honest = engine.output(code, ballots)
    for size in range(1, max_group + 1):
        for group in itertools.combinations(range(n), size):
            wanted = -1
            for v in group:
                wanted &= _better(_FISHBURN, ballots[v], honest)
            if not wanted:
                continue
            # the first joint report keeps every member's own ballot
            joints = itertools.product(*(engine.reports(ballots[v]) for v in group))
            for choice in itertools.islice(joints, 1, None):
                reports = tuple(r for r, _ in choice)
                joint = list(ballots)
                for v, r in zip(group, reports):
                    joint[v] = r
                out = engine.output(code + sum(d for _, d in choice), tuple(joint))
                if wanted >> out & 1:
                    return GroupManipulation(
                        profile=profile,
                        voters=group,
                        misreports=reports,
                        honest_set=ChoiceSet(m, honest),
                        manipulated_set=ChoiceSet(m, out),
                    )
    return None


# ---------------------------------------------------------------------------
# axiom checkers: per-walk predicate factories, looked up by name in `_CHECKS`


def check_axiom(
    axiom: Axiom | str, rule: RuleSpec, universe: Universe, *, budget: int | None = None
) -> AxiomVerdict:
    """The verdict of one axiom, given as an `Axiom` or its value."""
    try:
        axiom = Axiom(axiom)
    except ValueError:
        known = ", ".join(a.value for a in Axiom)
        raise ValueError(f"unknown axiom {axiom!r}; expected one of: {known}") from None
    return _raised(_run((axiom.value,), (rule,), universe, budget))[axiom.value]


def _stateless(predicate):
    """The factory of a predicate that keeps nothing between profiles."""
    return lambda universe: predicate


def _grouped(universe, by_relation):
    """Profiles with equal margins (or equal majority relations) must share
    an output."""
    m = universe.m
    seen: dict = {}

    def violation(ctx):
        key = ctx.key if by_relation else ctx.code
        prior = seen.setdefault(key, (ctx.ballots, ctx.out))
        if prior[1] == ctx.out:
            return None
        return _violated(m, (Profile(m, prior[0]), ctx.profile), (prior[1], ctx.out))

    return violation


@_stateless
def _check_neutrality(ctx):
    m, out, table = ctx.m, ctx.out, ctx.engine.table
    # the output on each relabeling against the relabeled output
    relabeled = zip(ctx.engine.relabeled(ctx.ballots), table.relabeled_mask(out))
    for j, (actual, expected) in enumerate(relabeled):
        if actual != expected:
            return _violated(m, ctx.profile, (out, actual), permutation=table.permutation(j))
    return None


def _check_homogeneity(universe):
    m = universe.m

    def violation(ctx):
        for k in range(2, universe.k_hom + 1):
            out_k = ctx.tiled(k)
            if out_k != ctx.out:
                return _violated(m, ctx.profile, (ctx.out, out_k), k=k)
        return None

    return violation


class _Imposition:
    """Every target set (every singleton, or every non-empty set) must be the
    output on some profile; holds as soon as all are reached, and ends "not
    witnessed" otherwise."""

    def __init__(self, universe, singletons: bool):
        self.m = m = universe.m
        self.missing = {1 << x for x in range(m)} if singletons else set(range(1, 1 << m))

    def __call__(self, ctx):
        self.missing.discard(ctx.out)
        return None if self.missing else (Outcome.HOLDS, None)

    def end(self):
        return Outcome.NOT_WITNESSED, {
            "missing": tuple(ChoiceSet(self.m, t) for t in sorted(self.missing))
        }


@_stateless
def _check_strong_condorcet(ctx):
    m, out = ctx.m, ctx.out
    winner = _condorcet_winner(ctx.strict, m)
    if winner is None:
        violated = out.bit_count() == 1
    else:
        violated = out != 1 << winner
    if not violated:
        return None
    return _violated(m, ctx.profile, out, condorcet_winner=winner)


@_stateless
def _check_cos(ctx):
    m, out, strict = ctx.m, ctx.out, ctx.strict
    for x in range(m):
        rest = out & ~(1 << x)
        if rest and strict[x] & rest == rest:
            return _violated(m, ctx.profile, out, alternative=x)
    return None


def _perturbation(kind, violated, both_profiles, extra, reads_out=True):
    """The factory of a one-ballot-move axiom's predicate: for each voter in
    turn, try the changes `kind(ballot, out)` yields as (new_ballot, info)
    (a kind that does not read the output is tabled without it). The first
    with violated(out, after, info) is the witness, on the profile, or on it
    and the moved one if `both_profiles`, with the voter and extra(info) as
    its facts."""

    def violation(ctx):
        out, ballots, m = ctx.out, ctx.ballots, ctx.m
        for voter, new_ballot, info, after in _moved(ctx, kind, out if reads_out else None):
            if violated(out, after, info):
                profiles = ctx.profile
                if both_profiles:
                    changed = ballots[:voter] + (new_ballot,) + ballots[voter + 1:]
                    profiles = (profiles, Profile(m, changed))
                return _violated(m, profiles, (out, after), voter=voter, **extra(info))
        return None

    return _stateless(violation)


def _changed(out, after, _info) -> bool:
    return after != out


def _swaps(ballot, out):
    """Adjacent swaps that reinforce a chosen alternative, with the pair."""
    for p in range(len(ballot) - 1):
        above, below = ballot[p], ballot[p + 1]
        if out >> below & 1:
            yield ballot[:p] + (below, above) + ballot[p + 2:], (above, below)


def _reinforced_dropped(out, after, pair):
    above, below = pair
    if after >> below & 1:
        return False
    return not (after >> above & 1 and not out >> above & 1)


# weak monotonicity: reinforcing a chosen alternative by one adjacent swap
# keeps it chosen, unless the swapped-down alternative newly enters the
# choice set
_check_wmon = _perturbation(
    _swaps, _reinforced_dropped, False, lambda pair: {"reinforced": pair[1], "against": pair[0]}
)


def _pushes(ballot, out):
    """An unchosen top-ranked alternative pushed to the bottom."""
    if not out >> ballot[0] & 1:
        yield ballot[1:] + ballot[:1], ballot[0]


# weak set monotonicity: pushing an unchosen top-ranked alternative to the
# bottom changes nothing
_check_wsmon = _perturbation(_pushes, _changed, False, lambda top: {"alternative": top})


def _runs(ballot, member_mask):
    """Maximal runs of two or more consecutive ballot positions inside
    member_mask."""
    positions = range(len(ballot))
    for inside, run in itertools.groupby(positions, lambda p: member_mask >> ballot[p] & 1):
        if inside and len(run := tuple(run)) >= 2:
            yield run


def _block_reorders(ballot, positions):
    """Every other order of the ballot's entries at `positions`: their
    permutations but the first, the entries as they are."""
    for order in itertools.islice(itertools.permutations(ballot[p] for p in positions), 1, None):
        new = list(ballot)
        for p, x in zip(positions, order):
            new[p] = x
        yield tuple(new)


def _unchosen_reorders(ballot, out):
    unchosen = (1 << len(ballot)) - 1 & ~out
    for positions in _runs(ballot, unchosen):
        for new_ballot in _block_reorders(ballot, positions):
            yield new_ballot, None


# independence of unchosen alternatives: reordering a block of unchosen
# alternatives changes nothing
_check_iua = _perturbation(_unchosen_reorders, _changed, True, lambda _: {})


def _block_reorders_anywhere(ballot, _out=None):
    """Every reorder of every block of consecutive positions, with the block."""
    m = len(ballot)
    for start in range(m - 1):
        for stop in range(start + 2, m + 1):
            positions = range(start, stop)
            block = sum(1 << ballot[p] for p in positions)
            for new_ballot in _block_reorders(ballot, positions):
                yield new_ballot, block


def _changed_beyond_block(out, after, block):
    return block & out == block & after and after != out


# weak localizedness: reordering any ballot block that keeps its own chosen
# members fixed must keep the whole choice set fixed
_check_wloc = _perturbation(
    _block_reorders_anywhere,
    _changed_beyond_block,
    True,
    lambda block: {"block": tuple(sorted(_mask_bits(block)))},
    reads_out=False,
)


@_stateless
def _check_fishburn_efficiency(ctx):
    """No other set is strictly preferred to the output by every single voter;
    voters with equal ballots judge alike, so each ballot is judged once. The
    first witness is the lowest challenger mask every voter prefers."""
    m, out = ctx.m, ctx.out
    shared = -1
    for ballot in dict.fromkeys(ctx.ballots):
        shared &= _better(_FISHBURN, ballot, out)
        if not shared:
            return None
    challenger = ChoiceSet(m, (shared & -shared).bit_length() - 1)
    return _violated(m, ctx.profile, out, challenger=challenger)


@_stateless
def _check_twin_symmetry(ctx):
    m, out, flat = ctx.m, ctx.out, ctx.flat
    for x, y in itertools.combinations(range(m), 2):
        if flat[x * m + y] == 0 and (out >> x & 1) != (out >> y & 1) and all(
            flat[x * m + z] == flat[y * m + z] for z in range(m) if z != x and z != y
        ):
            return _violated(m, ctx.profile, out, alternatives=(x, y))
    return None


# ---------------------------------------------------------------------------
# dominant set structure: robustness and weak robustness, judged on pairs

_ROBUST_DOMINANT = "robust-dominant-set"
_WEAK_ROBUSTNESS = "weak-robustness"


class _RobustDominant:
    """The predicate of `check_robust_dominant`: closes at the first output
    that is not a dominant set. Otherwise p and q violate it when p's output
    is dominant at q and q chooses outside it: a link of q's dominant chain
    strictly inside q's output. The first scan of each output and of each
    such link is kept; the first violating pair (i, j) is the first output
    that has a link scan, with that scan."""

    def __init__(self, _universe: Universe):
        self.firsts: dict = {}
        self.clash: dict = {}

    def __call__(self, ctx):
        out, inside = ctx.out, []
        # the links of the dominant chain, in increasing order, as far as the
        # output: each link strictly inside it is kept, and a link that
        # leaves it shows it is not in the chain
        for link in _chain(ctx.strict):
            if link == out:
                break
            if link & ~out:
                return _violated(ctx.m, ctx.profile, out)
            inside.append(link)
        self.firsts.setdefault(out, ctx)
        for link in inside:
            self.clash.setdefault(link, ctx)
        return None

    def end(self):
        p = next((p for p in self.firsts.values() if p.out in self.clash), None)
        if p is None:
            return _holds()
        q = self.clash[p.out]
        return _violated(p.m, (p.profile, q.profile), (p.out, q.out))


class _WeakRobustness:
    """The predicate of `check_weak_robustness`: p and q violate it when q
    chooses outside p's output O and no margin g(x, y), x in O, y outside O,
    is smaller at q than at p. That test reads only the two outputs and
    margin vectors, so a scan with the (output, margin vector) of an earlier
    one violates with the same partners as that one: only the first scan of
    each is kept and judged, and the first violating pair (i, j) is unchanged."""

    def __init__(self, universe: Universe):
        self.m = universe.m
        self.firsts: dict = {}

    def __call__(self, ctx):
        self.firsts.setdefault((ctx.out, ctx.flat), ctx)

    def end(self):
        m = self.m
        full = (1 << m) - 1
        scans = list(self.firsts.values())
        # at_least[f][v]: the scans whose margin field f is at least v, one
        # bit per scan in scan order, so that each p's partners are one
        # intersection and its first partner the lowest bit
        at_least = []
        for f in range(m * m):
            bits: dict = {}
            for i, q in enumerate(scans):
                bits[q.flat[f]] = bits.get(q.flat[f], 0) | 1 << i
            above = 0
            for v in sorted(bits, reverse=True):
                above = bits[v] = above | bits[v]
            at_least.append(bits)
        outside: dict = {}
        for p in scans:
            if p.out not in outside:
                outside[p.out] = sum(1 << i for i, q in enumerate(scans) if q.out & ~p.out)
            partners = outside[p.out]
            for x in _mask_bits(p.out):
                for y in _mask_bits(full & ~p.out):
                    partners &= at_least[x * m + y][p.flat[x * m + y]]
            if partners:
                q = scans[(partners & -partners).bit_length() - 1]
                return _violated(m, (p.profile, q.profile), (p.out, q.out))
        return _holds()


def check_robust_dominant(
    rule: RuleSpec, universe: Universe, *, budget: int | None = None
) -> AxiomVerdict:
    """Outputs must be dominant sets, and whenever the set chosen somewhere is
    dominant elsewhere, the choice there can only shrink inside it.

    For majoritarian rules the scan runs over all majority relations, the
    rule evaluated on each directly, and a witness profile is a relation
    realized with two voters per pair; otherwise over the universe's
    profiles, judging every ordered pair of them in that one pass.
    """
    return _raised(_run((_ROBUST_DOMINANT,), (rule,), universe, budget))[_ROBUST_DOMINANT]


def check_weak_robustness(
    rule: RuleSpec, universe: Universe, *, budget: int | None = None
) -> AxiomVerdict:
    """If nobody outside the choice set gained ground on anybody inside it,
    the choice set cannot grow."""
    return _raised(_run((_WEAK_ROBUSTNESS,), (rule,), universe, budget))[_WEAK_ROBUSTNESS]


# ---------------------------------------------------------------------------
# every check by name: the lookup, its budget, its runs and its replay


def _sp_name(extension: ExtensionKind, strong: bool = False) -> str:
    """The name a strategyproofness verdict carries."""
    return f"{'strong-' if strong else ''}strategyproofness-{_lifting(extension).value}"


def _axiom_cost(universe: Universe, b: int) -> tuple[int, int]:
    return universe.n_max * b * universe.m + universe.k_hom - 1, 0


def _deviation_cost(universe: Universe, b: int) -> tuple[int, int]:
    return 1, b - 1


def _pair_cost(universe: Universe, b: int) -> tuple[int, int]:
    return 1, 0


@dataclass(frozen=True)
class _Entry:
    """A universe check: its predicate's factory, whether the orbit walk may
    settle it, and its cost: given b = m!, the (a, c) of one electorate of n
    voters, a + c*n rule evaluations. An axiom makes a constant number per
    (electorate, voter, block) plus the k_hom - 1 tilings homogeneity
    evaluates; a deviation check the honest output and every misreport of
    each voter; a pair check one output, its pairs judged on bit sets."""

    factory: object
    orbit: bool = False
    cost: object = _axiom_cost


# every universe check by the name its verdicts carry
_CHECKS = {
    Axiom.PAIRWISENESS.value: _Entry(partial(_grouped, by_relation=False)),
    Axiom.MAJORITARIANESS.value: _Entry(partial(_grouped, by_relation=True)),
    Axiom.NEUTRALITY.value: _Entry(_check_neutrality, orbit=True),
    Axiom.HOMOGENEITY.value: _Entry(_check_homogeneity),
    Axiom.NON_IMPOSITION.value: _Entry(partial(_Imposition, singletons=True)),
    Axiom.SET_NON_IMPOSITION.value: _Entry(partial(_Imposition, singletons=False)),
    Axiom.STRONG_CONDORCET_CONSISTENCY.value: _Entry(_check_strong_condorcet),
    Axiom.COS.value: _Entry(_check_cos),
    Axiom.WMON.value: _Entry(_check_wmon, orbit=True),
    Axiom.WSMON.value: _Entry(_check_wsmon, orbit=True),
    Axiom.IUA.value: _Entry(_check_iua, orbit=True),
    Axiom.WLOC.value: _Entry(_check_wloc, orbit=True),
    Axiom.FISHBURN_EFFICIENCY.value: _Entry(_check_fishburn_efficiency),
    Axiom.TWIN_SYMMETRY.value: _Entry(_check_twin_symmetry),
    **{
        _sp_name(extension, strong): _Entry(_manipulability(extension, strong), True, _deviation_cost)
        for strong in (False, True)
        for extension in ExtensionKind
    },
    _ROBUST_DOMINANT: _Entry(_RobustDominant, cost=_pair_cost),
    _WEAK_ROBUSTNESS: _Entry(_WeakRobustness, cost=_pair_cost),
}
_ORBIT_CHECKS = frozenset(name for name, entry in _CHECKS.items() if entry.orbit)
_NEUTRALITY = Axiom.NEUTRALITY.value


def _entry(name: str) -> _Entry:
    """The entry of the check reported under `name`; it builds nothing."""
    entry = _CHECKS.get(name)
    if entry is None:
        raise ValueError(f"unknown check {name!r}; expected one of: {', '.join(_CHECKS)}")
    return entry


def _over_relations(name: str, rule: RuleSpec) -> bool:
    """Does the check walk the majority relations instead of the universe?
    Only a majoritarian rule's robust-dominant check does: its verdict
    depends on the relations alone, and it meets every one of them."""
    return name == _ROBUST_DOMINANT and basis(rule) == BasisTag.MAJORITARIAN


def _cost(name: str, rule: RuleSpec):
    """What the check may cost (`Universe._estimate`): None for the 3^C(m,2)
    relations it walks, or else its entry's cost of one electorate, of which
    a walk meets one ordering each. A check the orbit walk settles counts its
    electorate walk, its fallback, too."""
    return None if _over_relations(name, rule) else _CHECKS[name].cost


def _verdicts(rule: RuleSpec, universe: Universe, checks: dict, profiles=None) -> dict:
    """Run the predicates `checks` (name -> predicate) on the rule, all on one
    walk of the universe but a check `_over_relations` selects, which walks
    the majority relations (Relation walk). On an uncapped universe the
    checks of `_ORBIT_CHECKS` take the orbit walk first, and only those it
    does not settle join the universe walk. Both walks of electorates read
    one engine, built here only if some check walks them and dropped on
    return. Given `profiles`, walk those the universe holds alone, or the
    relations of those with its m, so that every output is re-derived from
    the rule. Returns what `_walk` returns."""
    m, replaying = universe.m, profiles is not None
    on_relations = {n: c for n, c in checks.items() if _over_relations(n, rule)}
    rest = {n: c for n, c in checks.items() if n not in on_relations}
    results: dict = {}
    if rest:
        scan = partial(_Scan, _Engine(rule, m, universe.n_max * universe.k_hom))
        orbit = {n: c for n, c in rest.items() if n in _ORBIT_CHECKS}
        if orbit and not replaying and universe.margin_cap is None:
            results = _orbit_walk(rule, universe, orbit, scan)
            rest = {n: c for n, c in rest.items() if n not in results}
    if rest:
        if replaying:
            ballots = (p.ballots for p in profiles if universe._contains(p))
        else:
            ballots = universe._electorates()
        results.update(_walk(rule, universe, rest, ballots, scan))
    if on_relations:
        if replaying:
            rels = (MajorityRelation.from_profile(p).strict for p in profiles if p.m == m)
        else:
            rels = _relation_masks(m)
        scan = partial(_RelationScan, rule, _EVALUATORS[rule.id][1])
        results.update(_walk(rule, universe, on_relations, rels, scan))
    return results


def _orbit_walk(rule: RuleSpec, universe: Universe, checks: dict, scan) -> dict:
    """The orbit walk (see the module docstring): `checks` and neutrality on
    one walk of the orbit representatives, each read by `scan`, which ends
    once neutrality closes or no check of `checks` is open. Returns the
    verdicts it settles: those of `checks` that hold, if neutrality held,
    and none otherwise."""
    walked = {_NEUTRALITY: _check_neutrality(universe), **checks}

    def until(active):
        return _NEUTRALITY not in active or not active.keys() & checks.keys()

    found = _walk(rule, universe, walked, universe._orbit_representatives(), scan, until)
    held = {n: r for n, r in found.items() if getattr(r, "outcome", None) == Outcome.HOLDS}
    return {n: held[n] for n in checks if n in held} if _NEUTRALITY in held else {}


def _run(names, rules, universe: Universe, budget: int | None) -> list[dict]:
    """Per rule, each check of `names` -> its AxiomVerdict or not-evaluable
    error, in `names` order. Every name is looked up, a walk of electorates
    (every check but `_over_relations`) past eight alternatives refused
    (`_within_reach`) before any estimate, and the largest estimate over
    every (rule, check) checked against the budget, before any predicate is
    built; then each rule in turn walks fresh predicates (`_verdicts`)."""
    factories = {name: _entry(name).factory for name in names}
    costs = {_cost(n, r) for r in rules for n in factories}
    if costs - {None}:
        _within_reach(universe.m)
    budget = _budget(budget)
    _within_budget(universe._estimate(costs, budget), budget)
    walks = (_verdicts(r, universe, {n: f(universe) for n, f in factories.items()}) for r in rules)
    return [{n: results[n] for n in factories} for results in walks]


def _raised(runs: list[dict]) -> dict:
    """`_run`'s results on its one rule, raising the first not-evaluable error."""
    (results,) = runs
    for result in results.values():
        if isinstance(result, Exception):
            raise result
    return results


def replay(verdict: AxiomVerdict) -> bool:
    """Re-verify a violation witness: the check that found it, walked over
    the stored witness profile(s) alone, must report exactly this witness.
    Only the stored profiles the universe holds are walked (see
    `_verdicts`), so a witness the universe never meets does not replay,
    and neither does one that holds no `Profile` where it should."""
    if verdict.outcome != Outcome.VIOLATED:
        raise ValueError("only violation witnesses can be replayed")
    w = verdict.witness if isinstance(verdict.witness, dict) else {}
    name, rule, universe = verdict.axiom, verdict.rule, verdict.universe
    if "manipulation" in w:
        profiles = (getattr(w["manipulation"], "profile", None),)
    else:
        profiles = w.get("profiles") or (w.get("profile"),)
    if not isinstance(profiles, tuple) or not all(isinstance(p, Profile) for p in profiles):
        return False
    checks = {name: _entry(name).factory(universe)}
    return _verdicts(rule, universe, checks, profiles)[name] == verdict


# ---------------------------------------------------------------------------
# the theorem-corroboration sweep


@dataclass(frozen=True)
class CorroborationReport:
    universe: Universe
    verdicts: tuple[AxiomVerdict, ...]
    not_evaluable: dict
    assertions: tuple[tuple[str, bool, str], ...]
    # every catalog rule passing all four headline axioms on this universe;
    # informational, because on very small universes rules whose
    # manipulations need more voters pass vacuously
    bracket_passers: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)

    @cached_property
    def _outcomes(self) -> dict:
        """The outcome of the first verdict per (rule name, axiom)."""
        outcomes = {}
        for v in self.verdicts:
            outcomes.setdefault((v.rule.name, v.axiom), v.outcome)
        return outcomes

    def outcome(self, rule_name: str, axiom: str) -> Outcome | None:
        return self._outcomes.get((rule_name, axiom))

    def failures(self, rule_name: str, among: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(
            a for a in among if self.outcome(rule_name, a) != Outcome.HOLDS
        )


SP_FISHBURN = _sp_name(ExtensionKind.FISHBURN)
_BRACKET = (
    Axiom.PAIRWISENESS.value,
    SP_FISHBURN,
    Axiom.HOMOGENEITY.value,
    Axiom.SET_NON_IMPOSITION.value,
)
_ROBUST_TRIO = ("tc", "condorcet", "condorcet-non-loser")


def corroborate_theorems(
    universe: Universe,
    rules: tuple[RuleSpec, ...] | None = None,
    *,
    budget: int | None = None,
) -> CorroborationReport:
    """Run the full axiom suite on the catalog and check the expected pattern.

    The expectations: the robust dominant set rules in the catalog are exactly
    the top cycle, the winner-or-everything rule, and the everything-but-the-
    loser rule; all three are strategyproof here; among them only the top
    cycle reaches every non-empty set; and the classic near-miss rules each
    fail exactly one of the four headline axioms.

    One `_run` refuses before any walk past eight alternatives, whatever the
    budget, or when its largest estimate exceeds the budget; a check not
    evaluable on a rule goes to `not_evaluable` unraised.
    """
    from .rules import catalog

    if universe.m < 2:
        raise ValueError(f"corroboration needs m >= 2 alternatives, got m={universe.m}")
    rules = tuple(rules) if rules is not None else tuple(catalog())
    names = (SP_FISHBURN, *(axiom.value for axiom in full_suite()), _ROBUST_DOMINANT)
    verdicts: list[AxiomVerdict] = []
    not_evaluable: dict = {}
    for rule, results in zip(rules, _run(names, rules, universe, budget)):
        for name, result in results.items():
            if isinstance(result, Exception):
                not_evaluable[(rule.name, name)] = str(result)
            else:
                verdicts.append(result)
    report = CorroborationReport(universe, tuple(verdicts), not_evaluable, ())
    evaluable = [
        r.name
        for r in rules
        if not any(key[0] == r.name for key in not_evaluable)
    ]

    def passes(rule_name, axiom):
        return report.outcome(rule_name, axiom) == Outcome.HOLDS

    robust = [r for r in evaluable if passes(r, _ROBUST_DOMINANT)]
    bracket_passers = [r for r in evaluable if not report.failures(r, _BRACKET)]
    assertions = []
    assertions.append((
        "robust-dominant-rules-are-the-expected-trio",
        set(robust) == set(_ROBUST_TRIO),
        f"found {sorted(robust)}",
    ))
    assertions.append((
        "robust-trio-is-strategyproof",
        all(passes(r, SP_FISHBURN) for r in _ROBUST_TRIO if r in evaluable),
        "",
    ))
    assertions.append((
        "only-top-cycle-reaches-every-set-among-robust-rules",
        passes("tc", Axiom.SET_NON_IMPOSITION.value)
        and not any(
            passes(r, Axiom.SET_NON_IMPOSITION.value)
            for r in _ROBUST_TRIO
            if r != "tc"
        ),
        "",
    ))
    assertions.append((
        "top-cycle-passes-the-headline-bracket",
        "tc" in bracket_passers,
        "",
    ))
    expected_single_failures = {
        "condorcet": Axiom.SET_NON_IMPOSITION.value,
        "omninomination": Axiom.PAIRWISENESS.value,
        "tc-star": Axiom.HOMOGENEITY.value,
        "borda": SP_FISHBURN,
    }
    for rule_name, expected in expected_single_failures.items():
        failures = report.failures(rule_name, _BRACKET)
        assertions.append((
            f"{rule_name}-fails-exactly-{expected}",
            failures == (expected,),
            f"failures {list(failures)}",
        ))
    independence_rules = ("tc", *expected_single_failures)
    assertions.append((
        "top-cycle-unique-in-bracket-among-independence-rules",
        [r for r in independence_rules if r in bracket_passers] == ["tc"],
        f"all passers on this universe: {sorted(bracket_passers)}",
    ))
    return replace(
        report,
        assertions=tuple(assertions),
        bracket_passers=tuple(sorted(bracket_passers)),
    )
