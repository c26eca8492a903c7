"""Independent brute-force oracles used to pin expected values in the tests.

Everything here is deliberately naive (subset scans, explicit closures,
permutation enumeration) and shares no code with the library internals it
checks.
"""

from __future__ import annotations

import itertools


def subsets(universe):
    universe = list(universe)
    for r in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            yield frozenset(combo)


def beats(profile, x, y):
    wins = sum(1 for b in profile.ballots if b.index(x) < b.index(y))
    losses = sum(1 for b in profile.ballots if b.index(y) < b.index(x))
    return wins - losses


def rel_strict(rel, x, y):
    return rel.strictly_prefers(x, y)


def rel_weak(rel, x, y):
    return x != y and not rel.strictly_prefers(y, x)


def brute_dominant_sets(rel):
    """All dominant sets, found by scanning every non-empty subset."""
    out = []
    alts = range(rel.m)
    for cand in subsets(alts):
        rest = [y for y in alts if y not in cand]
        if all(rel_strict(rel, x, y) for x in cand for y in rest):
            out.append(cand)
    return sorted(out, key=len)

def brute_minimal_dominant(rel):
    return min(brute_dominant_sets(rel), key=len)


def brute_top_cycle_via_closure(rel):
    """Maximal elements of the transitive closure of the weak relation."""
    m = rel.m
    reach = {x: {y for y in range(m) if rel_weak(rel, x, y)} for x in range(m)}
    changed = True
    while changed:
        changed = False
        for x in range(m):
            add = set()
            for y in reach[x]:
                add |= reach[y]
            if not add <= reach[x]:
                reach[x] |= add
                changed = True
    return frozenset(x for x in range(m) if all(y in reach[x] for y in range(m) if y != x))


def brute_schwartz(rel):
    m = rel.m
    reach = {x: {y for y in range(m) if rel_strict(rel, x, y)} for x in range(m)}
    changed = True
    while changed:
        changed = False
        for x in range(m):
            add = set()
            for y in reach[x]:
                add |= reach[y]
            if not add <= reach[x]:
                reach[x] |= add
                changed = True
    return frozenset(
        x for x in range(m)
        if not any(x in reach[y] and y not in reach[x] for y in range(m) if y != x)
    )


def closure_maximal(members, edge):
    """Maximal elements of the Floyd-Warshall closure of `edge` on `members`:
    x is maximal unless some y reaches x while x does not reach y."""
    members = sorted(members)
    reach = {x: {y for y in members if y != x and edge(x, y)} for x in members}
    for k in members:
        for i in members:
            if k in reach[i]:
                reach[i] |= reach[k]
    return frozenset(
        x for x in members
        if not any(x in reach[y] and y not in reach[x] for y in members if y != x)
    )


def top_cycle_literal(rel, members):
    """Top cycle of the relation restricted to `members`: the closure-maximal
    elements of the weak relation (y does not beat x)."""
    return closure_maximal(members, lambda x, y: not rel_strict(rel, y, x))


def schwartz_literal(rel):
    return closure_maximal(range(rel.m), lambda x, y: rel_strict(rel, x, y))


def condorcet_literal(rel, winner):
    """The alternative beating (winner) or beaten by (loser) every other one."""
    found = [
        x for x in range(rel.m)
        if all(rel_strict(rel, x, y) if winner else rel_strict(rel, y, x)
               for y in range(rel.m) if y != x)
    ]
    assert len(found) <= 1
    return found[0] if found else None


def has_covering_cycle(rel, members):
    """Is there a cycle in the weak relation visiting exactly `members`?"""
    members = sorted(members)
    if len(members) < 2:
        return False
    first, rest = members[0], members[1:]
    for order in itertools.permutations(rest):
        seq = [first, *order]
        if all(rel_weak(rel, seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))):
            return True
    return False


def valid_cycle(rel, seq):
    seq = list(seq)
    if len(seq) < 2 or len(set(seq)) != len(seq):
        return False
    return all(rel_weak(rel, seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))


def positional_borda(profile):
    """Borda winners by positional scores (m-1 points for first place, ...)."""
    m = profile.m
    scores = [0] * m
    for ballot in profile.ballots:
        for pos, x in enumerate(ballot):
            scores[x] += m - 1 - pos
    best = max(scores)
    return frozenset(x for x in range(m) if scores[x] == best)


def fishburn_literal(ballot, xs, ys):
    """Literal two-clause evaluation of the set preference used everywhere."""
    pos = {a: i for i, a in enumerate(ballot)}
    xs, ys = set(xs), set(ys)
    assert xs != ys
    first = all(pos[a] < pos[b] for a in xs - ys for b in ys)
    second = all(pos[a] < pos[b] for a in xs for b in ys - xs)
    return first and second


def fplus_weak_literal(ballot, xs, ys):
    """Literal evaluation of the weak optimistic lifting (reflexive)."""
    pos = {a: i for i, a in enumerate(ballot)}
    xs, ys = set(xs), set(ys)
    if xs == ys:
        return True
    only_x, only_y, both = xs - ys, ys - xs, xs & ys
    ordered = all(pos[a] < pos[b] for a in only_x for b in only_y)
    into = not only_x or not both or any(pos[a] < pos[b] for a in only_x for b in both)
    out_of = not both or not only_y or any(pos[a] < pos[b] for a in both for b in only_y)
    return ordered and into and out_of


def naive_outcome(rule, ballots, m):
    """A rule's output recomputed from scratch: margins by counting every
    ballot for every pair, then the rule on those margins (or on the ballots
    for profile-based rules)."""
    from setvote.rules import BasisTag, basis, evaluate_mask, evaluate_mask_from_margins

    if basis(rule) == BasisTag.PROFILE_BASED:
        mask = evaluate_mask(rule, ballots, m)
    else:
        flat = tuple(
            sum(1 if b.index(x) < b.index(y) else -1 for b in ballots) if x != y else 0
            for x in range(m)
            for y in range(m)
        )
        mask = evaluate_mask_from_margins(rule, flat, m)
    return frozenset(x for x in range(m) if mask >> x & 1)


def relabelings(ballot, _out=None):
    """The ballot under every relabeling of the alternatives but the
    identity, with the relabeling: perm takes the ballot to
    (perm[x] for x in ballot), perms in lexicographic order."""
    for perm in itertools.permutations(range(len(ballot))):
        if perm != tuple(range(len(ballot))):
            yield tuple(perm[x] for x in ballot), perm


def own_order_misreports(ballot):
    """Every other ballot, lexicographic in the voter's own ranking."""
    m = len(ballot)
    return [
        tuple(ballot[i] for i in order)
        for order in itertools.permutations(range(m))
        if order != tuple(range(m))
    ]


def _replaced(ballots, changes):
    new = list(ballots)
    for voter, ballot in changes:
        new[voter] = ballot
    return tuple(new)


def naive_deviation(rule, ballots, m, accept):
    """First single-voter deviation (voter, then own-order misreport) whose
    outcome differs from the honest one and satisfies
    accept(true_ballot, outcome, honest); as (voter, misreport, honest,
    outcome), or None."""
    honest = naive_outcome(rule, ballots, m)
    for voter, true_ballot in enumerate(ballots):
        for mis in own_order_misreports(true_ballot):
            out = naive_outcome(rule, _replaced(ballots, [(voter, mis)]), m)
            if out != honest and accept(true_ballot, out, honest):
                return voter, mis, honest, out
    return None


def naive_manipulation(rule, ballots, m, fishburn=True):
    """First deviation the voter strictly prefers (Fishburn or the strict
    part of the weak optimistic lifting)."""
    if fishburn:
        return naive_deviation(rule, ballots, m, fishburn_literal)
    return naive_deviation(
        rule, ballots, m,
        lambda b, x, y: fplus_weak_literal(b, x, y) and not fplus_weak_literal(b, y, x),
    )


def naive_strong_manipulation(rule, ballots, m, fishburn=True):
    """First deviation whose outcome the voter does not weakly prefer to lose."""
    at_least = fishburn_literal if fishburn else fplus_weak_literal
    return naive_deviation(rule, ballots, m, lambda b, x, y: not at_least(b, y, x))


def naive_group_manipulation(rule, ballots, m, max_group):
    """First joint deviation (group size, voter indices, then each member's
    own ballot followed by its own-order misreports) that every member
    strictly prefers under Fishburn; as (voters, reports, honest, outcome)."""
    honest = naive_outcome(rule, ballots, m)
    for size in range(1, min(max_group, len(ballots)) + 1):
        for group in itertools.combinations(range(len(ballots)), size):
            options = [[ballots[v]] + own_order_misreports(ballots[v]) for v in group]
            for reports in itertools.product(*options):
                if all(r == ballots[v] for v, r in zip(group, reports)):
                    continue
                out = naive_outcome(rule, _replaced(ballots, zip(group, reports)), m)
                if out != honest and all(
                    fishburn_literal(ballots[v], out, honest) for v in group
                ):
                    return group, reports, honest, out
    return None


def witness_holds(verdict):
    """Literal re-check of a violation witness, one clause per axiom, from
    rules.evaluate and core alone (no margin code, no scan machinery)."""
    from setvote.core import MajorityRelation, Profile, condorcet_winner, is_dominant, margins
    from setvote.extensions import ExtensionKind
    from setvote.rules import evaluate

    w, rule, axiom, m = verdict.witness, verdict.rule, verdict.axiom, verdict.universe.m

    def out(profile):
        return frozenset(evaluate(rule, profile).members)

    def rel(profile):
        return MajorityRelation.from_profile(profile)

    if "strategyproofness-" in axiom:
        man = w["manipulation"]
        fishburn = man.extension == ExtensionKind.FISHBURN
        search = (
            naive_strong_manipulation if axiom.startswith("strong-") else naive_manipulation
        )
        expected = search(rule, man.profile.ballots, m, fishburn)
        return man.true_ballot == man.profile.ballots[man.voter] and expected == (
            man.voter,
            man.misreport,
            frozenset(man.honest_set.members),
            frozenset(man.manipulated_set.members),
        )
    if axiom in ("pairwiseness", "majoritarianess"):
        p, q = w["profiles"]
        if axiom == "pairwiseness":
            same = (margins(p) == margins(q)).all()
        else:
            same = rel(p) == rel(q)
        return bool(same) and out(p) != out(q)
    if axiom == "neutrality":
        p, perm = w["profile"], w["permutation"]
        relabeled = Profile(m, tuple(tuple(perm[x] for x in b) for b in p.ballots))
        return out(relabeled) != {perm[x] for x in out(p)}
    if axiom == "homogeneity":
        p = w["profile"]
        return out(p.tiled(w["k"])) != out(p)
    if axiom == "strong-condorcet-consistency":
        p = w["profile"]
        winner = condorcet_winner(rel(p))
        if winner is None:
            return len(out(p)) == 1
        return out(p) != {winner}
    if axiom == "condorcet-stability":
        p, x = w["profile"], w["alternative"]
        rest = out(p) - {x}
        return bool(rest) and all(rel(p).strictly_prefers(x, y) for y in rest)
    if axiom == "weak-monotonicity":
        p = w["profile"]
        voter, below, above = w["voter"], w["reinforced"], w["against"]
        ballot = p.ballots[voter]
        pos = ballot.index(above)
        if ballot[pos + 1] != below:
            return False
        swapped = ballot[:pos] + (below, above) + ballot[pos + 2:]
        before, after = out(p), out(p.replace_ballot(voter, swapped))
        return below in before and below not in after and not (
            above in after and above not in before
        )
    if axiom == "weak-set-monotonicity":
        p, voter = w["profile"], w["voter"]
        ballot = p.ballots[voter]
        pushed = ballot[1:] + (ballot[0],)
        return ballot[0] not in out(p) and out(p.replace_ballot(voter, pushed)) != out(p)
    if axiom in ("independence-of-unchosen-alternatives", "weak-localizedness"):
        p, q = w["profiles"]
        if axiom == "weak-localizedness":
            block = set(w["block"])
            if block & out(p) != block & out(q):
                return False
        return out(p) != out(q)
    if axiom == "fishburn-efficiency":
        p = w["profile"]
        challenger = frozenset(w["challenger"].members)
        return challenger != out(p) and all(
            fishburn_literal(b, challenger, out(p)) for b in p.ballots
        )
    if axiom == "twin-symmetry":
        x, y = w["alternatives"]
        chosen = out(w["profile"])
        return (x in chosen) != (y in chosen)
    if axiom == "robust-dominant-set":
        if "profile" in w:
            p = w["profile"]
            return not is_dominant(rel(p), evaluate(rule, p))
        p, q = w["profiles"]
        return is_dominant(rel(q), evaluate(rule, p)) and bool(out(q) - out(p))
    if axiom == "weak-robustness":
        p, q = w["profiles"]
        gp, gq = margins(p), margins(q)
        inside = out(p)
        outside = set(range(m)) - inside
        premise = all(gp[x, y] <= gq[x, y] for x in inside for y in outside)
        return premise and bool(out(q) - inside)
    raise ValueError(f"no literal check for axiom {axiom!r}")
