"""Where the traced run puts its spans, and the per-layer metrics made from them.

Spans sit where one layer of setvote calls another, or where the benchmark
calls into a layer:

- ``verify``: the entry points (``corroborate_theorems``,
  ``sweep_strategyproofness``, ``check_axiom`` per axiom,
  ``check_robust_dominant``, ``find_manipulation``, ``replay``) and each step
  of ``Universe.raw_profiles`` (universe enumeration plus margin vectors).
- ``rules``: ``evaluate_mask*`` as bound in ``setvote.verify``, i.e. every
  memo miss of the sweep engine, named by the rule's basis tag; and
  ``evaluate_on_relation`` as called by the benchmark.
- ``core``, ``mcgarvey``, ``extensions``, ``io``: the functions the benchmark
  calls directly.
- ``bench``: the root span, so the benchmark's own loop and gate checks are
  accounted for too.

Every span name starts with its layer, so layer self times are sums over span
names and add up to the root span's duration, the traced wall time.
"""

from __future__ import annotations

LAYERS = ("bench", "verify", "rules", "core", "mcgarvey", "extensions", "io")
ROOT = "bench.run"

VERIFY_ENTRY_POINTS = (
    "corroborate_theorems",
    "sweep_strategyproofness",
    "check_robust_dominant",
    "find_manipulation",
    "replay",
)
CORE_CALLS = (
    "top_cycle",
    "dominant_chain",
    "schwartz_set",
    "covering_cycle",
    "connected_set",
    "margins",
)
RULE_EVALUATORS = (
    "evaluate_mask",
    "evaluate_mask_from_margins",
    "evaluate_mask_from_relation",
)
BASES = ("profile_based", "pairwise", "majoritarian")


def instrument(tracer) -> None:
    """Replace the boundary functions of the imported setvote modules with
    traced wrappers. Callers must look functions up through their module."""
    from setvote import core, extensions, io, mcgarvey, rules, verify

    for fn in VERIFY_ENTRY_POINTS:
        setattr(verify, fn, tracer.wrap(f"verify.{fn}", getattr(verify, fn)))
    verify.check_axiom = tracer.wrap(
        lambda axiom, *a, **k: f"verify.check_axiom.{axiom.value}", verify.check_axiom
    )
    verify.Universe.raw_profiles = tracer.wrap_generator(
        "verify.universe", verify.Universe.raw_profiles
    )

    def eval_name(rule, *a, **k):
        return "rules.eval." + rules.basis(rule).value.replace("-", "_")

    for fn in RULE_EVALUATORS:
        setattr(verify, fn, tracer.wrap(eval_name, getattr(verify, fn)))
    rules.evaluate_on_relation = tracer.wrap(
        "rules.evaluate_on_relation", rules.evaluate_on_relation
    )

    for fn in CORE_CALLS:
        setattr(core, fn, tracer.wrap(f"core.{fn}", getattr(core, fn)))
    core.enumerate_relations = tracer.wrap_generator(
        "core.enumerate_relations", core.enumerate_relations
    )

    def count_voters(counts, profile):
        counts["mcgarvey.voters"] += profile.n

    mcgarvey.realize_relation = tracer.wrap(
        "mcgarvey.realize_relation", mcgarvey.realize_relation, tally=count_voters
    )
    extensions.compare = tracer.wrap("extensions.compare", extensions.compare)
    io.serialize_report = tracer.wrap("io.serialize_report", io.serialize_report)
    io.parse_report = tracer.wrap("io.parse_report", io.parse_report)


def layer_metrics(summary: dict, counts, axioms, payload_bytes: int) -> dict[str, float]:
    """Per-layer metric values from a traced run's span summary."""

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v["self_s"] for n, v in summary.items() if n.split(".", 1)[0] == layer
        )
    for fn in VERIFY_ENTRY_POINTS:
        out[f"verify.{fn}.s"] = get(f"verify.{fn}", "s")
        out[f"verify.{fn}.calls"] = get(f"verify.{fn}", "calls")
    for axiom in axioms:
        out[f"verify.check_axiom.{axiom}.s"] = get(f"verify.check_axiom.{axiom}", "s")
    out["verify.universe.profiles"] = counts["verify.universe.items"]
    out["verify.universe.s"] = get("verify.universe", "s")

    evals = {b: get(f"rules.eval.{b}", "calls") for b in BASES}
    out["rules.evals"] = sum(evals.values())
    out["rules.s"] = sum(get(f"rules.eval.{b}", "s") for b in BASES)
    for b in BASES:
        out[f"rules.evals.{b}"] = evals[b]
    # base: profiles whose outcome verify computed, whether met while
    # walking a universe or handed to find_manipulation directly
    scanned = out["verify.universe.profiles"] + out["verify.find_manipulation.calls"]
    out["rules.evals_per_profile"] = out["rules.evals"] / scanned if scanned else 0.0
    out["rules.evaluate_on_relation.s"] = get("rules.evaluate_on_relation", "s")

    for fn in (*CORE_CALLS, "enumerate_relations"):
        out[f"core.{fn}.s"] = get(f"core.{fn}", "s")
    out["mcgarvey.realize_relation.s"] = get("mcgarvey.realize_relation", "s")
    out["mcgarvey.realize_relation.calls"] = get("mcgarvey.realize_relation", "calls")
    out["mcgarvey.voters"] = counts["mcgarvey.voters"]
    out["extensions.compare.s"] = get("extensions.compare", "s")
    out["extensions.compare.calls"] = get("extensions.compare", "calls")
    out["io.serialize_report.s"] = get("io.serialize_report", "s")
    out["io.parse_report.s"] = get("io.parse_report", "s")
    out["io.payload_bytes"] = payload_bytes

    out["trace.wall_s"] = get(ROOT, "s")
    out["trace.spans"] = sum(v["calls"] for v in summary.values())
    return out
