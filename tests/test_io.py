import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setvote import cli, verify
from setvote.core import MajorityRelation, Profile, margins, top_cycle
from setvote.io import (
    ParseError,
    _manipulation_text,
    fixture_path,
    parse_graph,
    parse_profile,
    parse_report,
    serialize_graph,
    serialize_profile,
    serialize_report,
)
from setvote.mcgarvey import WeightedMajorityGraph
from setvote.rules import parse_rule
from setvote.verify import (
    Axiom,
    Outcome,
    Universe,
    check_axiom,
    sweep_strategyproofness,
)
from test_core import FIG1_MARGINS

SRC = Path(__file__).resolve().parent.parent / "src"


class TestProfileDocuments:
    def test_fig1_fixture_parses_to_the_known_margins(self):
        profile = parse_profile(fixture_path("fig1.prof").read_text())
        assert np.array_equal(margins(profile), FIG1_MARGINS)
        tc = top_cycle(MajorityRelation.from_profile(profile))
        assert set(tc.members) == {0, 1, 2}

    def test_fig2_fixtures(self, fig2_left, fig2_right):
        assert parse_profile(fixture_path("fig2-left.prof").read_text()) == fig2_left
        assert parse_profile(fixture_path("fig2-right.prof").read_text()) == fig2_right

    def test_trivial_document(self):
        assert parse_profile("m=1 n=1\na\n") == Profile.from_rankings([(0,)])

    def test_integer_tokens(self):
        assert parse_profile("m=3 n=1\n2 0 1\n") == Profile.from_rankings([(2, 0, 1)])

    def test_comments_and_blank_lines(self):
        text = "# hello\n\nm=2 n=2\na b  # first\nb a\n"
        assert parse_profile(text).n == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "m=2 n=1\na a\n",
            "m=3 n=1\na b\n",
            "m=2 n=2\na b\n",
            "m=2 n=1\na b\nb a\n",
            "m=0 n=1\n\n",
            "n=1 m=2\r\n",
            "m=2 n=1\na z\n",
            "m=2 n=1\n\u00b2 1\n",
            "m=4 n=1\n\u0663 0 1 2\n",
            "m=\u00b2 n=1\na\n",
            "m=-1 n=1\na\n",
            "m=" + "1" * 5000 + " n=1\na\n",
            "m=2 n=1\n" + "1" * 5000 + " a\n",
        ],
    )
    def test_malformed_documents_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_profile(bad)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.randoms())
    def test_roundtrip(self, m, n, rng):
        ballots = []
        for _ in range(n):
            b = list(range(m))
            rng.shuffle(b)
            ballots.append(tuple(b))
        profile = Profile(m, tuple(ballots))
        assert parse_profile(serialize_profile(profile)) == profile


_TOKENS = st.sampled_from(
    ["a", "b", "c", "z", "0", "1", "2", "-1", "-", "\u00b2", "\u0663", "=", "#", "x"]
)
_HEADERS = st.sampled_from(
    ["m=2 n=1", "m=3 n=2", "m=\u00b2 n=1", "m=2 n=\u0663", "m=-1 n=1", "m=2", ""]
)
_PROFILE_LIKE = st.builds(
    lambda header, lines: "\n".join([header, *lines]),
    _HEADERS,
    st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=3),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=10,
)
_GRAPH_LIKE = st.fixed_dictionaries({
    "m": st.integers(-1, 3) | _JSON,
    "margins": st.lists(st.lists(st.integers(), max_size=3), max_size=3) | _JSON,
}).map(json.dumps)


class TestParserFuzzing:
    @settings(max_examples=300, deadline=None)
    @given(st.text() | _PROFILE_LIKE)
    def test_profile_parser_raises_only_parse_errors(self, text):
        try:
            parse_profile(text)
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.text() | _GRAPH_LIKE)
    def test_graph_parser_raises_only_parse_errors(self, text):
        try:
            parse_graph(text)
        except ParseError:
            pass


class TestGraphDocuments:
    def test_roundtrip(self, fig1):
        graph = WeightedMajorityGraph(5, margins(fig1))
        assert parse_graph(serialize_graph(graph)) == graph

    def test_parity_validated_on_load(self):
        doc = json.dumps({"m": 3, "margins": [[0, 1, 2], [-1, 0, 0], [-2, 0, 0]]})
        with pytest.raises(ParseError):
            parse_graph(doc)

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("not json")
        with pytest.raises(ParseError):
            parse_graph('{"m": 2}')


# where a strategyproofness witness keeps its honest set
HONEST_SET = ("manipulation", "$manipulation", "honest_set", "$choice_set")


def edited(doc, path, value):
    """A copy of the JSON document with the entry at `path` set to `value`,
    or removed if `value` is None; the empty path stands for a list holding
    the document."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return [doc]
    *parents, last = path
    inner = doc
    for key in parents:
        inner = inner[key]
    if value is None:
        del inner[last]
    else:
        inner[last] = value
    return doc


def witness_profiles(value):
    """The profiles a witness holds, in the order its report text prints
    them: by key, tuple elements in order, a manipulation's own."""
    if isinstance(value, Profile):
        return [value]
    if isinstance(value, verify.Manipulation):
        return [value.profile]
    if isinstance(value, dict):
        value = [value[key] for key in sorted(value)]
    if isinstance(value, (tuple, list)):
        return [p for item in value for p in witness_profiles(item)]
    return []


def profile_documents(text):
    """Every profile document in a report text, each its header line and
    the n ballot lines after it, parsed."""
    lines = text.splitlines()
    documents = []
    for at, line in enumerate(lines):
        header = re.fullmatch(r"\s*m=\d+ n=(\d+)", line)
        if header:
            documents.append(parse_profile("\n".join(lines[at:at + 1 + int(header[1])])))
    return documents


class TestReports:
    def test_empty_report_is_header_only(self):
        text, payload = serialize_report([])
        assert text.splitlines() == ["axiom report", "============"]
        assert payload["verdicts"] == [] and "not_evaluable" not in payload
        # an empty mapping of skipped checks adds an empty list, and no text
        assert serialize_report([], None, {}) == (text, {**payload, "not_evaluable": []})

    def test_single_holding_verdict(self):
        verdict = check_axiom(Axiom.COS, parse_rule("tc"), Universe(3, 2))
        text, payload = serialize_report([verdict])
        assert "condorcet-stability" in text
        assert payload["verdicts"][0]["outcome"] == Outcome.HOLDS.value

    def test_witness_embeds_a_parseable_profile(self):
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        text, payload = serialize_report([verdict])
        encoded = payload["verdicts"][0]["witness"]["manipulation"]["$manipulation"]
        embedded = encoded["profile"]["$profile"]
        reparsed = parse_profile(embedded)
        assert reparsed == verdict.witness["manipulation"].profile
        assert "witness for borda" in text

    @pytest.mark.parametrize("verdict", [
        lambda: sweep_strategyproofness(parse_rule("borda"), Universe(3, 3)),
        lambda: check_axiom(Axiom.PAIRWISENESS, parse_rule("omninomination"), Universe(3, 2)),
        lambda: check_axiom(
            Axiom.NON_IMPOSITION, parse_rule("condorcet-non-loser"), Universe(3, 2)
        ),
    ], ids=["strategyproofness", "pairwiseness", "non-imposition"])
    def test_witness_text_prints_values_not_reprs(self, verdict):
        # each set as {a,b}, each profile as a document that parses back
        verdict = verdict()
        assert verdict.witness
        text, _ = serialize_report([verdict])
        for name in ("ChoiceSet(", "Profile(", "Manipulation(", "ExtensionKind"):
            assert name not in text
        assert profile_documents(text) == witness_profiles(verdict.witness)
        if "manipulation" in verdict.witness:
            line = _manipulation_text(verdict.witness["manipulation"])
            assert f"  manipulation: {line}\n    extension: fishburn\n" in text

    @pytest.mark.parametrize("universe,scope", [
        (Universe(3, 2), "[m=3 n<=2]"),
        (Universe(3, 2, margin_cap=1), "[m=3 n<=2 cap<=1]"),
        (Universe(3, 2, margin_cap=0, k_hom=3), "[m=3 n<=2 cap<=0 k_hom=3]"),
        (Universe(3, 2, k_hom=4), "[m=3 n<=2 k_hom=4]"),
    ])
    def test_scope_names_the_margin_cap_and_a_homogeneity_factor_other_than_two(
        self, universe, scope
    ):
        verdict = check_axiom(Axiom.COS, parse_rule("tc"), universe)
        text, _ = serialize_report([verdict])
        assert text.splitlines()[2] == f"tc  condorcet-stability  holds-on-universe  {scope}"

    def test_report_roundtrip(self):
        verdicts = [
            sweep_strategyproofness(parse_rule("borda"), Universe(3, 3)),
            check_axiom(Axiom.PAIRWISENESS, parse_rule("omninomination"), Universe(3, 2)),
            check_axiom(Axiom.SET_NON_IMPOSITION, parse_rule("condorcet"), Universe(3, 2)),
            check_axiom(Axiom.COS, parse_rule("tc"), Universe(3, 2)),
        ]
        _, payload = serialize_report(verdicts)
        assert parse_report(json.dumps(payload)) == verdicts

    @pytest.mark.parametrize("path,value", [
        ((), "a list"),
        (("verdicts",), None),
        (("verdicts", 0, "universe", "k_hom"), None),
        (("verdicts", 0, "witness", *HONEST_SET, "members"), None),
        (("verdicts", 0, "universe", "m"), "3"),
        (("verdicts", 0, "outcome"), "maybe"),
    ])
    def test_a_malformed_report_raises_a_parse_error(self, path, value):
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        doc = edited(serialize_report([verdict])[1], path, value)
        for payload in (doc, json.dumps(doc)):
            with pytest.raises(ParseError, match="^malformed axiom report: "):
                parse_report(payload)

    @pytest.mark.parametrize("field,value", [
        ("m", True), ("n_max", True), ("k_hom", True), ("margin_cap", False), ("margin_cap", True),
    ])
    def test_a_boolean_universe_field_raises_a_parse_error(self, field, value):
        # JSON true and false are ints to Python: "margin_cap": false would
        # read as a cap of 0, and "n_max": true as 1
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        doc = edited(serialize_report([verdict])[1], ("verdicts", 0, "universe", field), value)
        message = f"malformed axiom report: ValueError('{field} must be an integer, got {value}')"
        for payload in (doc, json.dumps(doc)):
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse_report(payload)

    @pytest.mark.parametrize("witness", [{"profile": 5}, {"manipulation": 1}, {"x": 1}, None])
    def test_a_witness_without_its_profile_does_not_replay(self, witness):
        # each document parses, and its violation names no profile to walk
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        doc = serialize_report([verdict])[1]
        doc["verdicts"][0]["witness"] = witness
        (parsed,) = parse_report(json.dumps(doc))
        assert parsed.outcome == Outcome.VIOLATED and parsed.witness == witness
        assert not verify.replay(parsed)

    def test_a_report_nested_past_the_recursion_limit_raises_a_parse_error(self):
        verdict = sweep_strategyproofness(parse_rule("borda"), Universe(3, 3))
        doc = edited(serialize_report([verdict])[1], ("verdicts", 0, "witness"), "@")
        depth = sys.getrecursionlimit()
        nested = 1
        for _ in range(depth):
            nested = {"$tuple": [nested]}
        text = json.dumps(doc).replace('"@"', '{"$tuple": [' * depth + "1" + "]}" * depth)
        doc["verdicts"][0]["witness"] = nested
        for payload in (doc, text):
            with pytest.raises(ParseError, match="^malformed axiom report: "):
                parse_report(payload)


class TestCli:
    def fixture(self, name):
        return str(fixture_path(name))

    def test_eval(self, capsys):
        assert cli.main(["eval", "--rule", "tc", "--profile", self.fixture("fig1.prof")]) == 0
        assert capsys.readouterr().out.strip() == "{a,b,c}"

    def test_margins(self, capsys):
        assert cli.main(["margins", "--profile", self.fixture("fig1.prof")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split() == ["a", "0", "0", "-2", "2", "4"]

    def test_tc_from_graph(self, tmp_path, fig1, capsys):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(serialize_graph(WeightedMajorityGraph(5, margins(fig1))))
        assert cli.main(["tc", "--graph", str(graph_file)]) == 0
        assert capsys.readouterr().out.strip() == "{a,b,c}"

    def test_manipulate_exit_codes(self, capsys):
        left = self.fixture("fig2-left.prof")
        assert cli.main(["manipulate", "--rule", "plurality", "--profile", left]) == 1
        assert "voter 4" in capsys.readouterr().out
        assert cli.main(["manipulate", "--rule", "tc", "--profile", left]) == 0

    def test_axioms(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = cli.main([
            "axioms", "--rule", "omninomination", "--m", "3", "--n", "2",
            "--axiom", "pairwiseness", "--axiom", "homogeneity",
            "--json", str(out_json),
        ])
        assert code == 1
        assert "pairwiseness" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert len(parse_report(payload)) == 2

    @pytest.mark.parametrize("rule,name,code", [
        ("borda", "strategyproofness-fplus", 1),
        ("borda", "strong-strategyproofness-fishburn", 1),
        ("borda", "robust-dominant-set", 1),
        ("tc", "robust-dominant-set", 0),
        ("borda", "weak-robustness", 1),
        ("borda", "twin-symmetry", 0),
    ])
    def test_axioms_runs_every_check_a_report_names(self, capsys, rule, name, code):
        command = ["axioms", "--rule", rule, "--m", "3", "--n", "2", "--axiom", name]
        assert cli.main(command) == code
        assert f"{rule}  {name}" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["strategyproofness-bogus", "bogus", "Pairwiseness"])
    def test_axioms_refuses_an_unknown_check(self, monkeypatch, capsys, name):
        # before the budget check, which would refuse any sweep here
        monkeypatch.setenv("SETVOTE_BUDGET", "1")
        command = ["axioms", "--rule", "tc", "--m", "2", "--n", "1", "--axiom", name]
        assert cli.main(command) == 2
        captured = capsys.readouterr()
        assert f"unknown check '{name}'" in captured.err
        # and the names a report carries, as the unknown-axiom error lists the axioms
        assert "; expected one of: pairwiseness, " in captured.err
        assert "strategyproofness-fishburn" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command,message", [
        ("axioms --rule tc --m 3 --n 99999999999999999999", None),
        ("sweep --m 3 --n 99999999999999999999", None),
        ("axioms --rule tc --m 99999999999999999999 --n 1", None),
        ("axioms --rule tc --m 100000 --n 1 --axiom robust-dominant-set", None),
        (
            "axioms --rule tc --m 3 --n 2 --k-hom 99999999999999999999"
            " --axiom strategyproofness-fishburn",
            "a margin code holds at most 2**63 - 1 voters, not 199999999999999999998",
        ),
    ])
    def test_an_absurd_size_exits_2_at_once(self, monkeypatch, capsys, command, message):
        # the budget refuses the first four from a closed form or a lower
        # bound, and the margin code the tilings of the last
        monkeypatch.delenv("SETVOTE_BUDGET", raising=False)
        start = time.perf_counter()
        assert cli.main(command.split()) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        budget = r"estimated \d+ evaluations exceed the budget"
        expected = budget if message is None else re.escape(message)
        assert re.fullmatch(f"error: {expected}\n", captured.err)
        assert captured.out == ""

    def test_mcgarvey(self, tmp_path, fig1, capsys):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(serialize_graph(WeightedMajorityGraph(5, margins(fig1))))
        assert cli.main(["mcgarvey", "--graph", str(graph_file)]) == 0
        produced = parse_profile(capsys.readouterr().out)
        assert np.array_equal(margins(produced), margins(fig1))

    @pytest.mark.parametrize("command", ["tc", "mcgarvey"])
    @pytest.mark.parametrize("margins_text,message", [
        ("[[0,1,1],[-1,0],[-1,-1,0]]", "'margins' must be 3 rows of 3 integers each"),
        (
            f"[[0,{2**63},1],[-1,0,1],[-1,-1,0]]",
            "every margin must lie strictly between -2^63 and 2^63",
        ),
    ])
    def test_malformed_graph_exits_2_with_our_message(
        self, tmp_path, capsys, command, margins_text, message
    ):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(f'{{"m":3,"margins":{margins_text}}}')
        assert cli.main([command, "--graph", str(graph_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        for numpy_text in ("sequence", "inhomogeneous", "C long"):
            assert numpy_text not in captured.err
        assert captured.out == ""

    def test_mcgarvey_refuses_a_huge_electorate(self, tmp_path, capsys):
        big = 2**63 - 1
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({
            "m": 3, "margins": [[0, big, 1], [-big, 0, 1], [-1, -1, 0]],
        }))
        assert cli.main(["mcgarvey", "--graph", str(graph_file)]) == 2
        captured = capsys.readouterr()
        assert f"error: realizing these margins needs {big} voters" in captured.err
        assert captured.out == ""

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = cli.main(["sweep", "--m", "3", "--n", "3", "--json", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "assertions" in captured.out and "FAIL" not in captured.out
        # the uncovered set's 14 checks need tie-free relations, which n <= 3
        # does not guarantee; skipping them warns but does not fail the sweep,
        # and both the text and the JSON payload name each with its reason
        assert captured.err == "warning: 14 checks not evaluable on this universe\n"
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == "b5762098e38029613d2d70b55a60ac4c3f26e6fddbc4faa33b9cfd5ca302a161"
        skipped = verify.corroborate_theorems(Universe(3, 3)).not_evaluable
        listed = json.loads(out.read_text(encoding="utf-8"))["not_evaluable"]
        assert len(listed) == 14
        assert {(e["rule"], e["check"]): e["reason"] for e in listed} == skipped
        assert [(e["rule"], e["check"]) for e in listed] == sorted(skipped)

    def test_sweep_refuses_fewer_than_two_alternatives_before_any_walk(
        self, monkeypatch, capsys
    ):
        def unreachable(*args):
            raise AssertionError("a universe was walked")

        monkeypatch.setattr(verify, "_verdicts", unreachable)
        assert cli.main(["sweep", "--m", "1", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: corroboration needs m >= 2 alternatives, got m=1\n"
        assert captured.out == ""

    def test_no_command_loads_numpy(self, tmp_path):
        graph_file = tmp_path / "g.json"
        graph_file.write_text('{"m": 3, "margins": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}')
        fig1, fig2 = self.fixture("fig1.prof"), self.fixture("fig2-left.prof")
        commands = [
            ["eval", "--rule", "tc", "--profile", fig1],
            ["margins", "--profile", fig1],
            ["manipulate", "--rule", "plurality", "--profile", fig2],
            ["tc", "--graph", str(graph_file)],
            ["mcgarvey", "--graph", str(graph_file)],
        ]
        script = (
            "import sys\n"
            "import setvote\n"
            "from setvote import cli\n"
            "if 'numpy' in sys.modules:\n"
            "    sys.exit('numpy loaded by import setvote')\n"
            f"for argv in {commands!r}:\n"
            "    if cli.main(argv) == 2 or 'numpy' in sys.modules:\n"
            "        sys.exit(f'numpy loaded or error in {argv}')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr

    def test_negative_margin_cap_exits_2(self, capsys):
        code = cli.main([
            "axioms", "--rule", "borda", "--m", "3", "--n", "3", "--margin-cap", "-1",
            "--axiom", "strategyproofness-fishburn",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "margin_cap must be non-negative, got -1" in captured.err
        assert "holds-on-universe" not in captured.out

    def test_error_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.prof")
        assert cli.main(["eval", "--rule", "tc", "--profile", missing]) == 2
        bad = tmp_path / "bad.prof"
        bad.write_text("m=2 n=1\na a\n")
        assert cli.main(["eval", "--rule", "tc", "--profile", str(bad)]) == 2
        good = self.fixture("fig1.prof")
        assert cli.main(["eval", "--rule", "bogus", "--profile", good]) == 2

    @pytest.mark.parametrize("command", [["eval", "--rule", "tc", "--profile"], ["tc", "--graph"]])
    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe m=3")
        assert cli.main([*command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path} is not UTF-8 text\n"
        assert captured.out == ""

    def test_non_ascii_digit_token_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "digits.prof"
        bad.write_text("m=2 n=1\n\u00b2 1\n", encoding="utf-8")
        assert cli.main(["eval", "--rule", "tc", "--profile", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "'\u00b2'" in err and "invalid literal" not in err

    def test_malformed_special_pair_exits_2(self, capsys):
        good = self.fixture("fig1.prof")
        assert cli.main(["eval", "--rule", "fab:AB", "--profile", good]) == 2
        err = capsys.readouterr().err
        assert "'AB'" in err and "lowercase" in err and "shift" not in err

    @pytest.mark.parametrize("command", [
        ["axioms", "--rule", "tc", "--m", "2", "--n", "1"],
        ["sweep", "--m", "2", "--n", "1"],
    ])
    def test_malformed_budget_exits_2(self, monkeypatch, capsys, command):
        monkeypatch.setenv("SETVOTE_BUDGET", "abc")
        assert cli.main(command) == 2
        err = capsys.readouterr().err
        assert "SETVOTE_BUDGET must be a non-negative integer, got 'abc'" in err
        assert "invalid literal" not in err
