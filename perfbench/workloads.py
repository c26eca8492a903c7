"""The three workloads, each with its correctness gate.

Every workload runs in one process with ``workers=1``. ``setup`` imports
nothing new and builds the inputs; ``run`` is the timed region, from the
first call into setvote to the last output checked. Calls go through the
module attributes (``verify.find_manipulation`` and so on) so that the traced
run's wrappers are seen.

Gates count *units*: one per output the benchmark checks. A unit fails when
its output differs from what the unchanged engine produced or from a
structural fact that must hold.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from setvote import core, extensions, io, mcgarvey, rules, verify

REFERENCE = Path(__file__).resolve().parent / "reference" / "corroborate-m3n4.json"


@dataclass
class RunResult:
    # perf_counter readings: the timed region, and each independent unit of
    # work in it (the worker turns them into durations)
    start: float
    unit_start: list[float]
    unit_end: list[float]
    end: float = 0.0
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    payload_bytes: int = 0

    def gate(self, ok: bool, what) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(str(what))


class Corroborate:
    """Catalog corroboration on (m=3, n<=4), then the report's io round trip
    and a replay of every violation."""

    name = "corroborate-m3n4"
    work = {
        "checks": 285,
        "verdicts": 271,
        "not_evaluable": 14,
        "profiles": 262844,
        "units": 1,
        "unit": "one corroboration with round trip and replays",
    }
    uses_seed = False

    def setup(self, seed: int) -> None:
        self.universe = verify.Universe(3, 4)
        doc = json.loads(REFERENCE.read_text())
        self.reference = io.parse_report(doc["report"])
        self.reference_skipped = {tuple(k) for k in doc["not_evaluable"]}

    def run(self) -> RunResult:
        t0 = time.perf_counter()
        report = verify.corroborate_theorems(self.universe)
        _, payload = io.serialize_report(report.verdicts, report.assertions)
        doc = json.dumps(payload)
        back = io.parse_report(json.loads(doc))
        replayed = [
            verify.replay(v) if v.outcome == verify.Outcome.VIOLATED else True
            for v in report.verdicts
        ]
        t1 = time.perf_counter()
        res = RunResult(t0, [t0], [t1], payload_bytes=len(doc.encode()))
        verdicts = list(report.verdicts)
        for i, (got, ref) in enumerate(itertools.zip_longest(verdicts, self.reference)):
            ok = got is not None and got == ref and i < len(back) and back[i] == got and replayed[i]
            res.gate(ok, f"verdict {i}: {ref and (ref.rule.name, ref.axiom)}")
        for key in sorted(self.reference_skipped | set(report.not_evaluable)):
            res.gate(key in self.reference_skipped and key in report.not_evaluable, key)
        for name, ok, detail in report.assertions:
            res.gate(ok, f"{name} {detail}")
        res.gate(report.passed, "report.passed")
        res.end = time.perf_counter()
        return res


class UncoveredEach:
    """One find_manipulation call per 3-voter profile on 4 alternatives; the
    uncovered set is not manipulable there, so every call returns None."""

    name = "uncovered-m4n3-each"
    work = {"units": 13824, "unit": "one find_manipulation call"}
    uses_seed = True

    def setup(self, seed: int) -> None:
        self.rule = rules.parse_rule("uncovered-set")
        ballots = core.enumerate_ballots(4)
        self.profiles = [
            core.Profile(4, combo) for combo in itertools.product(ballots, repeat=3)
        ]
        random.Random(seed).shuffle(self.profiles)

    def run(self) -> RunResult:
        clock = time.perf_counter
        starts, ends = [], []
        outs = []
        rule = self.rule
        res = RunResult(clock(), starts, ends)
        for profile in self.profiles:
            starts.append(clock())
            out = verify.find_manipulation(rule, profile)
            ends.append(clock())
            outs.append(out)
        for profile, out in zip(self.profiles, outs):
            res.gate(out is None, profile.ballots)
        res.end = clock()
        return res


class Relations:
    """For every majority relation on 5 alternatives: the core dominance
    structure, every majoritarian rule, a McGarvey realization with its
    margins, and one set comparison on a realized ballot."""

    name = "relations-m5"
    m = 5
    work = {"units": 59049, "unit": "handling of one relation"}
    uses_seed = True

    def setup(self, seed: int) -> None:
        self.rules = [
            r for r in rules.catalog() if rules.basis(r) == rules.BasisTag.MAJORITARIAN
        ]
        self.order = list(range(3 ** (self.m * (self.m - 1) // 2)))
        random.Random(seed).shuffle(self.order)

    def run(self) -> RunResult:
        m = self.m
        pairs = m * (m - 1) // 2
        clock = time.perf_counter
        fishburn = extensions.ExtensionKind.FISHBURN
        uncovered = rules.RuleId.UNCOVERED_SET
        starts, ends = [], []
        res = RunResult(clock(), starts, ends)
        rels = list(core.enumerate_relations(m))
        res.gate(len(rels) == len(self.order), f"{len(rels)} relations")
        for i in self.order:
            rel = rels[i]
            # the uncovered set is defined on tournaments only
            tie_free = sum(s.bit_count() for s in rel.strict) == pairs
            starts.append(clock())
            tc = core.top_cycle(rel)
            chain = core.dominant_chain(rel)
            sw = core.schwartz_set(rel)
            cycle = core.covering_cycle(rel)
            connected = [core.connected_set(rel, x) for x in range(m)]
            outs = {
                r.id: rules.evaluate_on_relation(r, rel)
                for r in self.rules
                if tie_free or r.id != uncovered
            }
            profile = mcgarvey.realize_relation(rel, 2)
            g = core.margins(profile)
            verdict = extensions.compare(fishburn, profile.ballots[0], tc, sw)
            ends.append(clock())
            res.gate(
                _relation_ok(rel, tc, chain, sw, cycle, connected, outs, g, verdict),
                rel.strict,
            )
        res.end = clock()
        return res


def _relation_ok(rel, tc, chain, sw, cycle, connected, outs, g, verdict) -> bool:
    """Structural facts that every relation's outputs must satisfy."""
    m = rel.m
    strict = rel.strict
    if chain[0] != tc or not sw.issubset(tc):
        return False
    if len(tc) == 1:
        if cycle is not None:
            return False
    elif cycle is None or sorted(cycle) != list(tc.members) or not all(
        strict[cycle[(k + 1) % len(cycle)]] >> cycle[k] & 1 == 0
        for k in range(len(cycle))
    ):
        return False
    if any(x in c or not c.issubset(tc) for x, c in enumerate(connected)):
        return False
    if not all(outs.values()):
        return False
    if outs[rules.RuleId.TOP_CYCLE] != tc or outs[rules.RuleId.SCHWARTZ] != sw:
        return False
    expected = [
        [2 if strict[x] >> y & 1 else -2 if strict[y] >> x & 1 else 0 for y in range(m)]
        for x in range(m)
    ]
    if g.tolist() != expected:
        return False
    equal = verdict == extensions.SetComparison.EQUAL
    return equal == (tc == sw)


WORKLOADS = {w.name: w for w in (Corroborate, UncoveredEach, Relations)}
