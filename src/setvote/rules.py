"""The catalog of set-valued voting rules.

Each rule maps a profile to a non-empty set of alternatives. Rules are
classified by how much of the profile they actually read: majoritarian rules
see only the sign pattern of the margins, pairwise rules see the margins, and
profile-based rules need the ballots. A rule's classification is the basis
tag of its one entry in the evaluator table, next to its evaluator, and
nothing else declares it. It is used by the verification sweeps to group
equivalent inputs, and it is itself checked by the test suite rather than
trusted.

Rules are addressed by stable string names (``tc``, ``borda``,
``supermajority-tc:k=2``, ``fab:ab``, ...) so they can be selected from the
command line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from .core import (
    ChoiceSet,
    MajorityRelation,
    Profile,
    _condorcet_loser,
    _condorcet_winner,
    _margins_flat,
    _schwartz_mask,
    _strict_masks_from_flat,
    _tc_mask,
    _unchecked_choice,
)

__all__ = [
    "BasisTag",
    "EmptyChoiceError",
    "InstanceTooLargeError",
    "RuleId",
    "RuleSpec",
    "TiesUnsupportedError",
    "basis",
    "catalog",
    "evaluate",
    "parse_rule",
]

# the most alternatives whose m! orderings are enumerated: Kemeny's rankings
# and the sweep engine's ballot table (`_engine._Ballots`)
_MAX_ENUMERATED_M = 8


class TiesUnsupportedError(ValueError):
    """Raised by rules that are only defined on tie-free majority relations."""


class InstanceTooLargeError(ValueError):
    """Raised when a brute-force rule is asked to handle too many alternatives."""


class EmptyChoiceError(RuntimeError):
    """Raised when a rule produces an empty choice set, which no rule may do."""


class RuleId(str, Enum):
    TOP_CYCLE = "tc"
    TC_STAR = "tc-star"
    CONDORCET = "condorcet"
    CONDORCET_NON_LOSER = "condorcet-non-loser"
    OMNINOMINATION = "omninomination"
    PARETO = "pareto"
    TC_OF_PO = "tc-of-po"
    PO_OF_TC = "po-of-tc"
    PLURALITY = "plurality"
    BORDA = "borda"
    COPELAND = "copeland"
    MAXIMIN = "maximin"
    KEMENY = "kemeny"
    UNCOVERED_SET = "uncovered-set"
    FAB = "fab"
    MARGIN_THRESHOLD = "margin-threshold"
    SUPERMAJORITY_TC = "supermajority-tc"
    SHIFTED_TC = "shifted-tc"
    SCHWARTZ = "schwartz"


class BasisTag(str, Enum):
    PROFILE_BASED = "profile-based"
    PAIRWISE = "pairwise"
    MAJORITARIAN = "majoritarian"


_THRESHOLD_RULES = (RuleId.SUPERMAJORITY_TC, RuleId.SHIFTED_TC)


@dataclass(frozen=True)
class RuleSpec:
    """A rule identifier plus its parameters.

    ``id`` is a ``RuleId`` or its value, kept as the member. ``k`` is the
    threshold of the supermajority / shifted variants and must stay 0
    elsewhere; ``pair`` (kept as a tuple) is the privileged pair of the
    special rule, two distinct letters ``a``..``z``, and must stay (0, 1)
    elsewhere. So every spec is what ``parse_rule`` reads back from its name.
    """

    id: RuleId
    k: int = 0
    pair: tuple[int, int] = (0, 1)

    def __post_init__(self):
        try:  # RuleId() raises only ValueError, tuple() only TypeError
            object.__setattr__(self, "id", RuleId(self.id))
            object.__setattr__(self, "pair", tuple(self.pair))
        except ValueError:
            raise ValueError(f"unknown rule {self.id!r}") from None
        except TypeError:
            raise ValueError("the special pair must be two alternatives among 0..25") from None
        if self.id in _THRESHOLD_RULES:
            if type(self.k) is not int:
                raise ValueError("threshold k must be an integer")
            if self.k < 0:
                raise ValueError("threshold k must be non-negative")
        elif self.k != 0:
            raise ValueError(f"rule {self.id.value!r} takes no threshold k")
        if self.id == RuleId.FAB:
            if len(self.pair) != 2 or not all(type(x) is int and 0 <= x < 26 for x in self.pair):
                raise ValueError("the special pair must be two alternatives among 0..25")
            if self.pair[0] == self.pair[1]:
                raise ValueError("the special pair must be two distinct alternatives")
        elif self.pair != (0, 1):
            raise ValueError(f"rule {self.id.value!r} takes no special pair")

    @property
    def name(self) -> str:
        if self.id in _THRESHOLD_RULES:
            return f"{self.id.value}:k={self.k}"
        if self.id == RuleId.FAB:
            letters = "abcdefghijklmnopqrstuvwxyz"
            return f"{self.id.value}:{letters[self.pair[0]]}{letters[self.pair[1]]}"
        return self.id.value

    def __str__(self) -> str:
        return self.name


def parse_rule(text: str) -> RuleSpec:
    """Parse a rule name such as 'tc', 'supermajority-tc:k=2' or 'fab:ab'."""
    head, _, arg = text.strip().partition(":")
    try:
        rule_id = RuleId(head)
    except ValueError:
        raise ValueError(f"unknown rule {head!r}") from None
    if rule_id in _THRESHOLD_RULES:
        if not arg:
            return RuleSpec(rule_id, k=2)
        digits = arg[2:]
        if arg.startswith("k=") and digits.isascii() and digits.isdigit():
            try:
                return RuleSpec(rule_id, k=int(digits))
            except ValueError:  # more digits than int() converts
                pass
        raise ValueError(f"expected k=<non-negative int> after {head!r}, got {arg!r}")
    if rule_id == RuleId.FAB:
        if not arg:
            return RuleSpec(rule_id)
        if len(arg) != 2 or arg[0] == arg[1] or not all("a" <= ch <= "z" for ch in arg):
            raise ValueError(
                f"expected two distinct lowercase letters a-z after 'fab:', got {arg!r}"
            )
        return RuleSpec(rule_id, pair=(ord(arg[0]) - 97, ord(arg[1]) - 97))
    if arg:
        raise ValueError(f"rule {head!r} takes no parameters")
    return RuleSpec(rule_id)


def catalog() -> list[RuleSpec]:
    """All built-in rules with their default parameters, in a fixed order."""
    out = []
    for rule_id in RuleId:
        if rule_id in _THRESHOLD_RULES:
            out.append(RuleSpec(rule_id, k=2))
        else:
            out.append(RuleSpec(rule_id))
    return out


# ---------------------------------------------------------------------------
# majoritarian rules: functions of the strict-beat masks


def _full(m: int) -> int:
    return (1 << m) - 1


def _maj_top_cycle(rule, m, strict):
    return _tc_mask(strict, _full(m))


def _maj_condorcet(rule, m, strict):
    winner = _condorcet_winner(strict, m)
    return _full(m) if winner is None else 1 << winner


def _maj_condorcet_non_loser(rule, m, strict):
    if m == 1:
        return 1
    loser = _condorcet_loser(strict, m)
    return _full(m) if loser is None else _full(m) & ~(1 << loser)


def _maj_copeland(rule, m, strict):
    # wins less losses: each strict arc x -> y is a loss of y
    scores = [s.bit_count() for s in strict]
    for s in strict:
        while s:
            low = s & -s
            scores[low.bit_length() - 1] -= 1
            s ^= low
    best = max(scores)
    mask = 0
    for x, score in enumerate(scores):
        if score == best:
            mask |= 1 << x
    return mask


def _maj_uncovered(rule, m, strict):
    # the relation is asymmetric, so it has a tie iff it has fewer arcs than pairs
    if sum(map(int.bit_count, strict)) < m * (m - 1) // 2:
        raise TiesUnsupportedError(
            "the uncovered set is defined on tie-free majority relations only"
        )
    mask = 0
    for x, beats in enumerate(strict):
        # y covers x when y beats x and everything x beats, y beats too (no
        # y beats itself)
        if not any(s >> x & 1 and not beats & ~s for s in strict):
            mask |= 1 << x
    return mask


def _maj_fab(rule, m, strict):
    a, b = rule.pair
    if a >= m or b >= m:
        raise ValueError("special pair out of range for this profile")
    others = _full(m) & ~(1 << a) & ~(1 << b)
    a_over_b = not (strict[b] >> a & 1)
    if strict[a] & others == others and a_over_b:
        return 1 << a
    return _maj_condorcet(rule, m, strict)


def _maj_schwartz(rule, m, strict):
    return _schwartz_mask(strict, m)


# ---------------------------------------------------------------------------
# pairwise rules: functions of the flat margin vector


def _pw_tc_star(rule, m, flat):
    # weak edge wherever the margin is at least -1, so strict needs margin > 1
    return _tc_mask(_strict_masks_from_flat(flat, m, 1), _full(m))


def _pw_supermajority_tc(rule, m, flat):
    return _tc_mask(_strict_masks_from_flat(flat, m, rule.k), _full(m))


def _pw_shifted_tc(rule, m, flat):
    # trichotomy against the raw threshold, oriented by index order: for x < y
    # the pair is read off g(x, y) alone, so the rule is not neutral for k > 0
    strict = [0] * m
    for x in range(m):
        for y in range(x + 1, m):
            g = flat[x * m + y]
            if g > rule.k:
                strict[x] |= 1 << y
            elif g < rule.k:
                strict[y] |= 1 << x
    return _tc_mask(tuple(strict), _full(m))


def _pw_borda(rule, m, flat):
    scores = [sum(flat[x * m + y] for y in range(m)) for x in range(m)]
    best = max(scores)
    return sum(1 << x for x in range(m) if scores[x] == best)


def _pw_maximin(rule, m, flat):
    scores = [
        min((flat[x * m + y] for y in range(m) if y != x), default=0)
        for x in range(m)
    ]
    best = max(scores)
    return sum(1 << x for x in range(m) if scores[x] == best)


def _pw_kemeny(rule, m, flat):
    if m > _MAX_ENUMERATED_M:
        raise InstanceTooLargeError(
            f"kemeny enumerates m! rankings; refusing m={m} > {_MAX_ENUMERATED_M}"
        )
    best_score = None
    mask = 0
    for order in itertools.permutations(range(m)):
        score = 0
        for i, x in enumerate(order):
            row = x * m
            for y in order[i + 1:]:
                score += flat[row + y]
        if best_score is None or score > best_score:
            best_score, mask = score, 1 << order[0]
        elif score == best_score:
            mask |= 1 << order[0]
    return mask


def _pw_margin_threshold(rule, m, flat):
    for x in range(m):
        row = x * m
        if all(flat[row + y] > 2 for y in range(m) if y != x):
            return 1 << x
    return _full(m)


# ---------------------------------------------------------------------------
# profile-based rules: functions of the ballots, each read as a multiset


def _unanimous_masks(ballots, m):
    """over[x] = alternatives that every single voter ranks below x."""
    over = [_full(m) & ~(1 << x) for x in range(m)]
    for ballot in ballots:
        below = 0
        for x in reversed(ballot):
            over[x] &= below
            below |= 1 << x
    return over


def _pareto_mask(ballots, m):
    over = _unanimous_masks(ballots, m)
    dominated = 0
    for x in range(m):
        dominated |= over[x]
    return _full(m) & ~dominated


def _pb_omninomination(rule, m, ballots):
    mask = 0
    for ballot in ballots:
        mask |= 1 << ballot[0]
    return mask


def _pb_pareto(rule, m, ballots):
    return _pareto_mask(ballots, m)


def _pb_plurality(rule, m, ballots):
    counts = [0] * m
    for ballot in ballots:
        counts[ballot[0]] += 1
    best = max(counts)
    return sum(1 << x for x in range(m) if counts[x] == best)


def _pb_tc_of_po(rule, m, ballots):
    po = _pareto_mask(ballots, m)
    flat = _margins_flat(ballots, m)
    return _tc_mask(_strict_masks_from_flat(flat, m), po)


def _pb_po_of_tc(rule, m, ballots):
    flat = _margins_flat(ballots, m)
    tc = _tc_mask(_strict_masks_from_flat(flat, m), _full(m))
    po = _pareto_mask(ballots, m)
    return tc & po


# ---------------------------------------------------------------------------
# the evaluator table, and the basis and the entry points read off it

# one entry per rule: its basis tag and its evaluator, called as
# evaluator(rule, m, part) on the part of the profile the tag names, the
# strict-beat masks, the flat margin vector or the ballots. Every
# profile-based evaluator reads the ballots only as a multiset, as margins
# do, so a sweep walks one ordering per electorate (checked by the tests)
_EVALUATORS = {
    RuleId.TOP_CYCLE: (BasisTag.MAJORITARIAN, _maj_top_cycle),
    RuleId.TC_STAR: (BasisTag.PAIRWISE, _pw_tc_star),
    RuleId.CONDORCET: (BasisTag.MAJORITARIAN, _maj_condorcet),
    RuleId.CONDORCET_NON_LOSER: (BasisTag.MAJORITARIAN, _maj_condorcet_non_loser),
    RuleId.OMNINOMINATION: (BasisTag.PROFILE_BASED, _pb_omninomination),
    RuleId.PARETO: (BasisTag.PROFILE_BASED, _pb_pareto),
    RuleId.TC_OF_PO: (BasisTag.PROFILE_BASED, _pb_tc_of_po),
    RuleId.PO_OF_TC: (BasisTag.PROFILE_BASED, _pb_po_of_tc),
    RuleId.PLURALITY: (BasisTag.PROFILE_BASED, _pb_plurality),
    RuleId.BORDA: (BasisTag.PAIRWISE, _pw_borda),
    RuleId.COPELAND: (BasisTag.MAJORITARIAN, _maj_copeland),
    RuleId.MAXIMIN: (BasisTag.PAIRWISE, _pw_maximin),
    RuleId.KEMENY: (BasisTag.PAIRWISE, _pw_kemeny),
    RuleId.UNCOVERED_SET: (BasisTag.MAJORITARIAN, _maj_uncovered),
    RuleId.FAB: (BasisTag.MAJORITARIAN, _maj_fab),
    RuleId.MARGIN_THRESHOLD: (BasisTag.PAIRWISE, _pw_margin_threshold),
    RuleId.SUPERMAJORITY_TC: (BasisTag.PAIRWISE, _pw_supermajority_tc),
    RuleId.SHIFTED_TC: (BasisTag.PAIRWISE, _pw_shifted_tc),
    RuleId.SCHWARTZ: (BasisTag.MAJORITARIAN, _maj_schwartz),
}

# the tag the relation entry points require, read once: before Python 3.12
# each read of an Enum member through its class calls a descriptor, and
# `evaluate_on_relation` checks the tag on every call
_RELATION_TAG = BasisTag.MAJORITARIAN


def basis(rule: RuleSpec) -> BasisTag:
    """How much of the profile the rule reads: the tag of its entry in the
    evaluator table (checked by tests, not assumed)."""
    return _EVALUATORS[rule.id][0]


def evaluate_mask(rule: RuleSpec, ballots, m: int) -> int:
    tag, evaluator = _EVALUATORS[rule.id]
    if tag is BasisTag.PROFILE_BASED:
        return evaluator(rule, m, ballots)
    flat = _margins_flat(ballots, m)
    part = flat if tag is BasisTag.PAIRWISE else _strict_masks_from_flat(flat, m)
    return evaluator(rule, m, part)


def evaluate_mask_from_margins(rule: RuleSpec, flat, m: int) -> int:
    tag, evaluator = _EVALUATORS[rule.id]
    if tag is BasisTag.PROFILE_BASED:
        raise ValueError(f"{rule.name} needs the ballots, not just margins")
    part = flat if tag is BasisTag.PAIRWISE else _strict_masks_from_flat(flat, m)
    return evaluator(rule, m, part)


def evaluate_mask_from_relation(rule: RuleSpec, strict: tuple[int, ...], m: int) -> int:
    tag, evaluator = _EVALUATORS[rule.id]
    if tag is not _RELATION_TAG:
        raise ValueError(f"{rule.name} is not a function of the majority relation")
    return evaluator(rule, m, strict)


def _nonempty(rule: RuleSpec, mask: int) -> int:
    if not mask:
        raise EmptyChoiceError(f"{rule.name} produced an empty choice set")
    return mask


def evaluate(rule: RuleSpec, profile: Profile) -> ChoiceSet:
    """Evaluate one rule on one profile; the result is never empty."""
    mask = evaluate_mask(rule, profile.ballots, profile.m)
    return ChoiceSet(profile.m, _nonempty(rule, mask))


def evaluate_on_relation(rule: RuleSpec, rel: MajorityRelation) -> ChoiceSet:
    """Evaluate a majoritarian rule directly on a majority relation; the
    result is never empty."""
    tag, evaluator = _EVALUATORS[rule.id]
    if tag is not _RELATION_TAG:
        raise ValueError(f"{rule.name} is not a function of the majority relation")
    m = rel.m
    # the fallback runs only to raise on an empty output
    mask = evaluator(rule, m, rel.strict) or _nonempty(rule, 0)
    # a majoritarian evaluator only ever sets bits of alternatives 0..m-1
    return _unchecked_choice(m, mask)
