"""File formats: profile documents, margin-graph documents, verdict reports.

The profile format is line oriented and human writable::

    # optional comments
    m=3 n=2
    a b c
    c a b

Alternatives are letters ``a``..``z`` (mapped to 0..25) or plain integers
written in ASCII digits.
Margin graphs are JSON documents ``{"m": int, "margins": [[int, ...], ...]}``.
Verdict reports are emitted both as aligned text and as a JSON payload in
which every witness profile is embedded as a parseable profile document, so
any reported counterexample can be replayed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from enum import Enum
from importlib import resources
from pathlib import Path
from string import ascii_lowercase

from .core import ChoiceSet, Profile, _names
from .mcgarvey import WeightedMajorityGraph
from .verify import AxiomVerdict, Manipulation, Outcome, Universe
from .rules import parse_rule

__all__ = [
    "ParseError",
    "fixture_path",
    "parse_graph",
    "parse_profile",
    "parse_report",
    "serialize_graph",
    "serialize_profile",
    "serialize_report",
]


class ParseError(ValueError):
    pass


def fixture_path(name: str) -> Path:
    """Path of a bundled example file such as 'fig1.prof'."""
    return Path(str(resources.files("setvote") / "fixtures" / name))


# ---------------------------------------------------------------------------
# profile documents


def _ascii_int(text: str) -> int | None:
    """The integer an optionally signed run of ASCII digits spells, or None.
    str.isdigit also accepts '²' and '٣', and int() refuses runs longer than
    the interpreter's digit limit."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _parse_token(token: str, m: int, line_no: int) -> int:
    value = _ascii_int(token)
    if value is None:
        if not (len(token) == 1 and token in ascii_lowercase):
            raise ParseError(f"line {line_no}: cannot read alternative {token!r}")
        value = ascii_lowercase.index(token)
    if not 0 <= value < m:
        raise ParseError(f"line {line_no}: alternative {token!r} out of range for m={m}")
    return value


def parse_profile(text: str) -> Profile:
    lines = []
    for raw_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((raw_no, stripped))
    if not lines:
        raise ParseError("empty profile document")
    header_no, header = lines[0]
    parts = dict(
        item.split("=", 1) for item in header.split() if "=" in item
    )
    if set(parts) != {"m", "n"} or len(header.split()) != 2:
        raise ParseError(f"line {header_no}: expected header 'm=<int> n=<int>', got {header!r}")
    m, n = _ascii_int(parts["m"]), _ascii_int(parts["n"])
    if m is None or n is None or m < 1 or n < 1:
        raise ParseError(
            f"line {header_no}: m and n must be positive integers, got {header!r}"
        )
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} ballot lines, found {len(body)}")
    ballots = []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != m:
            raise ParseError(f"line {line_no}: expected {m} alternatives, found {len(tokens)}")
        ballot = tuple(_parse_token(tok, m, line_no) for tok in tokens)
        if len(set(ballot)) != m:
            raise ParseError(f"line {line_no}: ballot repeats an alternative")
        ballots.append(ballot)
    return Profile(m, tuple(ballots))


def _ballot_text(ballot) -> str:
    names = _names(len(ballot))
    return " ".join(names[x] for x in ballot)


def serialize_profile(profile: Profile) -> str:
    lines = [f"m={profile.m} n={profile.n}"]
    lines.extend(_ballot_text(b) for b in profile.ballots)
    return "\n".join(lines) + "\n"


def _manipulation_text(witness: Manipulation) -> str:
    """A manipulation as one line: the voter, its true ballot and misreport,
    and the honest and manipulated sets."""
    return (
        f"voter {witness.voter} (true ballot {_ballot_text(witness.true_ballot)}) "
        f"can report {_ballot_text(witness.misreport)}: "
        f"{witness.honest_set} -> {witness.manipulated_set}"
    )


# ---------------------------------------------------------------------------
# margin-graph documents


def parse_graph(text: str) -> WeightedMajorityGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"graph document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"m", "margins"}:
        raise ParseError("graph document must be an object with keys 'm' and 'margins'")
    m, rows = doc["m"], doc["margins"]
    if type(m) is not int or not (
        isinstance(rows, list)
        and all(isinstance(row, list) and all(type(v) is int for v in row) for row in rows)
    ):
        raise ParseError("graph document needs an integer 'm' and integer rows in 'margins'")
    if m < 1:
        raise ParseError(f"graph document needs a positive 'm', got {m}")
    if len(rows) != m or any(len(row) != m for row in rows):
        raise ParseError(f"'margins' must be {m} rows of {m} integers each")
    if any(abs(v) >= 1 << 63 for row in rows for v in row):
        raise ParseError("every margin must lie strictly between -2^63 and 2^63")
    try:
        return WeightedMajorityGraph(m, rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_graph(graph: WeightedMajorityGraph) -> str:
    return json.dumps({"m": graph.m, "margins": graph.target}, indent=1) + "\n"


# ---------------------------------------------------------------------------
# report documents


def _encode(value):
    if isinstance(value, Profile):
        return {"$profile": serialize_profile(value)}
    if isinstance(value, ChoiceSet):
        return {"$choice_set": {"m": value.m, "members": list(value.members)}}
    if isinstance(value, Manipulation):
        return {"$manipulation": {f.name: _encode(getattr(value, f.name)) for f in fields(value)}}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return {"$tuple": [_encode(v) for v in value]}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def _decode(value):
    from .extensions import ExtensionKind

    if isinstance(value, dict):
        if "$profile" in value:
            return parse_profile(value["$profile"])
        if "$choice_set" in value:
            inner = value["$choice_set"]
            return ChoiceSet.from_members(inner["m"], inner["members"])
        if "$manipulation" in value:
            inner = {k: _decode(v) for k, v in value["$manipulation"].items()}
            inner["extension"] = ExtensionKind(inner["extension"])
            return Manipulation(**inner)
        if "$tuple" in value:
            return tuple(_decode(v) for v in value["$tuple"])
        return {k: _decode(v) for k, v in value.items()}
    return value


def _witness_lines(key: str, value, indent: str) -> list[str]:
    """One witness entry as report text lines: a profile as its document
    under the key, a manipulation as its line with its lifting and profile
    under it, a tuple holding either as one entry per element, and any other
    value on the key's line, a tuple's elements each printed alone."""
    if isinstance(value, Profile):
        document = serialize_profile(value).splitlines()
        return [f"{indent}{key}:", *(f"{indent}  {line}" for line in document)]
    if isinstance(value, Manipulation):
        return [
            f"{indent}{key}: {_manipulation_text(value)}",
            f"{indent}  extension: {value.extension.value}",
            *_witness_lines("profile", value.profile, indent + "  "),
        ]
    if isinstance(value, tuple):
        if any(isinstance(item, (Profile, Manipulation)) for item in value):
            return [
                line
                for i, item in enumerate(value)
                for line in _witness_lines(f"{key}[{i}]", item, indent)
            ]
        value = "(" + ", ".join(map(str, value)) + ")"
    return [f"{indent}{key}: {value}"]


def serialize_report(verdicts, assertions=None, not_evaluable=None) -> tuple[str, dict]:
    """Render verdicts as aligned text plus a machine-readable JSON payload.
    `not_evaluable` maps (rule name, check) to why the check could not be
    evaluated; given, the payload lists it, and the text when not empty."""
    verdicts = list(verdicts)
    lines = ["axiom report", "============"]
    if verdicts:
        width_rule = max(len(v.rule.name) for v in verdicts)
        width_axiom = max(len(v.axiom) for v in verdicts)
        for v in verdicts:
            u = v.universe
            scope = f"m={u.m} n<={u.n_max}"
            if u.margin_cap is not None:
                scope += f" cap<={u.margin_cap}"
            if u.k_hom != 2:
                scope += f" k_hom={u.k_hom}"
            lines.append(
                f"{v.rule.name:<{width_rule}}  {v.axiom:<{width_axiom}}  "
                f"{v.outcome.value}  [{scope}]"
            )
    witnessed = [v for v in verdicts if v.witness]
    for v in witnessed:
        lines.append("")
        lines.append(f"witness for {v.rule.name} / {v.axiom}:")
        for key, value in sorted(v.witness.items()):
            lines.extend(_witness_lines(key, value, "  "))
    if assertions:
        lines.append("")
        lines.append("assertions")
        lines.append("----------")
        for name, ok, detail in assertions:
            status = "pass" if ok else "FAIL"
            lines.append(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
    skipped = sorted((not_evaluable or {}).items())
    if skipped:
        lines.append("")
        lines.append("not evaluable on this universe:")
        for (rule_name, check), reason in skipped:
            lines.append(f"  {rule_name} / {check}: {reason}")
    payload = {
        "kind": "axiom-report",
        "verdicts": [
            {
                "axiom": v.axiom,
                "rule": v.rule.name,
                "universe": asdict(v.universe),
                "outcome": v.outcome.value,
                "witness": _encode(v.witness) if v.witness else None,
            }
            for v in verdicts
        ],
    }
    if assertions is not None:
        payload["assertions"] = [
            {"name": name, "ok": ok, "detail": detail} for name, ok, detail in assertions
        ]
    if not_evaluable is not None:
        payload["not_evaluable"] = [
            {"rule": rule_name, "check": check, "reason": reason}
            for (rule_name, check), reason in skipped
        ]
    return "\n".join(lines) + "\n", payload


def parse_report(payload) -> list[AxiomVerdict]:
    """Rebuild the verdict list from a JSON payload (inverse of
    serialize_report); a malformed document raises ParseError."""
    try:
        if isinstance(payload, str):
            payload = json.loads(payload)
        if payload.get("kind") != "axiom-report":
            raise ParseError("not an axiom report document")
        return [
            AxiomVerdict(
                axiom=item["axiom"],
                rule=parse_rule(item["rule"]),
                universe=Universe(**{f.name: item["universe"][f.name] for f in fields(Universe)}),
                outcome=Outcome(item["outcome"]),
                witness=_decode(item["witness"]) if item["witness"] else None,
            )
            for item in payload["verdicts"]
        ]
    except ParseError:
        raise
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed axiom report: {exc!r}") from None
