"""Command-line interface.

Exit codes: 0 when a property holds or no witness exists, 1 when a witness
was found, 2 on errors. The evaluation budget of the sweeps can be overridden
through the SETVOTE_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as svio
from .core import MajorityRelation, Profile, _margins_flat, _names, relation, top_cycle
from .extensions import ExtensionKind
from .mcgarvey import realize
from .rules import evaluate, parse_rule
from .verify import (
    Outcome, Universe, _raised, _run, corroborate_theorems, find_manipulation, full_suite
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not UTF-8 text") from None


def _load_profile(path: str) -> Profile:
    return svio.parse_profile(_read(path))


def _print_margins(profile: Profile) -> None:
    m = profile.m
    flat = _margins_flat(profile.ballots, m)
    width = max(3, max(len(str(v)) for v in flat) + 1)
    names = _names(m)
    print(" " * 3 + "".join(f"{x:>{width}}" for x in names))
    for x, name in enumerate(names):
        print(f"{name:>3}" + "".join(f"{v:>{width}}" for v in flat[x * m:(x + 1) * m]))


def cmd_eval(args) -> int:
    rule = parse_rule(args.rule)
    profile = _load_profile(args.profile)
    print(evaluate(rule, profile))
    return 0


def cmd_margins(args) -> int:
    _print_margins(_load_profile(args.profile))
    return 0


def cmd_tc(args) -> int:
    if args.profile:
        rel = MajorityRelation.from_profile(_load_profile(args.profile))
    else:
        rel = relation(svio.parse_graph(_read(args.graph)).target)
    print(top_cycle(rel))
    return 0


def cmd_manipulate(args) -> int:
    rule = parse_rule(args.rule)
    profile = _load_profile(args.profile)
    extension = ExtensionKind(args.extension)
    witness = find_manipulation(rule, profile, extension)
    if witness is None:
        print(f"no {extension.value} manipulation of {rule.name} on this profile")
        return 0
    print(svio._manipulation_text(witness))
    return 1


def cmd_axioms(args) -> int:
    rule = parse_rule(args.rule)
    universe = Universe(args.m, args.n, k_hom=args.k_hom, margin_cap=args.margin_cap)
    wanted = args.axiom or [a.value for a in full_suite()]
    results = _raised(_run(wanted, (rule,), universe, None))
    verdicts = [results[name] for name in wanted]
    text, payload = svio.serialize_report(verdicts)
    print(text, end="")
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return 1 if any(v.outcome == Outcome.VIOLATED for v in verdicts) else 0


def cmd_sweep(args) -> int:
    universe = Universe(args.m, args.n, k_hom=args.k_hom, margin_cap=args.margin_cap)
    report = corroborate_theorems(universe)
    text, payload = svio.serialize_report(
        report.verdicts, report.assertions, report.not_evaluable
    )
    print(text, end="")
    if report.not_evaluable:
        print(f"warning: {len(report.not_evaluable)} checks not evaluable on this universe",
              file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return 0 if report.passed else 1


def cmd_mcgarvey(args) -> int:
    graph = svio.parse_graph(_read(args.graph))
    print(svio.serialize_profile(realize(graph)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setvote",
        description="set-valued voting rules and mechanical axiom checking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a rule on a profile")
    p.add_argument("--rule", required=True)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("margins", help="print the majority margin matrix")
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_margins)

    p = sub.add_parser("tc", help="print the top cycle of a profile or margin graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile")
    group.add_argument("--graph")
    p.set_defaults(func=cmd_tc)

    p = sub.add_parser("manipulate", help="search one profile for a profitable deviation")
    p.add_argument("--rule", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument(
        "--extension",
        choices=[e.value for e in ExtensionKind],
        default=ExtensionKind.FISHBURN.value,
    )
    p.set_defaults(func=cmd_manipulate)

    p = sub.add_parser("axioms", help="check axioms for one rule over a bounded universe")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-hom", type=int, default=2)
    p.add_argument("--margin-cap", type=int, default=None)
    p.add_argument("--axiom", action="append", default=None)
    p.add_argument("--json", default=None, help="also write the JSON payload here")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("sweep", help="run the whole catalog through the axiom suite")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-hom", type=int, default=2)
    p.add_argument("--margin-cap", type=int, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mcgarvey", help="synthesize a profile realizing a margin graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_mcgarvey)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
