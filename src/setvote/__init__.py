"""Set-valued voting rules over preference profiles, with exhaustive axiom
checking at desk scale."""

from .core import (
    Ballot,
    ChoiceSet,
    MajorityRelation,
    Profile,
    condorcet_loser,
    condorcet_winner,
    connected_set,
    covering_cycle,
    dominant_chain,
    enumerate_ballots,
    enumerate_relations,
    is_dominant,
    margins,
    relation,
    restrict,
    schwartz_set,
    to_letters,
    top_cycle,
)
from .extensions import (
    ExtensionKind,
    SetComparison,
    compare,
    exists_prefers,
    fishburn_prefers,
    fplus_weakly_prefers,
)
from .mcgarvey import ParityError, WeightedMajorityGraph, realize, realize_relation
from .rules import (
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
from .verify import (
    Axiom,
    AxiomVerdict,
    BudgetExceededError,
    CorroborationReport,
    GroupManipulation,
    Manipulation,
    Outcome,
    Universe,
    check_axiom,
    check_robust_dominant,
    check_weak_robustness,
    corroborate_theorems,
    find_group_manipulation,
    find_manipulation,
    find_strong_manipulation,
    full_suite,
    replay,
    sweep_strategyproofness,
    sweep_strong_strategyproofness,
)

__version__ = "0.1.0"
