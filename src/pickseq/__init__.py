"""Weighted fair division of indivisible items via picking sequences.

Picking sequences derived from apportionment methods (the five traditional
divisor methods and the quota method), an exact maximum weighted Nash
welfare solver, verifiers for weighted fairness notions, and a harness for
monotonicity and consistency counterexamples.
"""

from .core import (
    Allocation,
    Instance,
    ParseError,
    PickingSequence,
    allocation_utilities,
    bundle_utility,
    format_rational,
    parse_allocation,
    parse_instance,
    parse_rational,
    parse_sequence,
    serialize_allocation,
    serialize_instance,
    serialize_sequence,
)
from .executor import execute
from .methods import (
    ADAMS,
    DEAN,
    HILL,
    JEFFERSON,
    RULES,
    TRADITIONAL,
    WEBSTER,
    DivisorFunction,
    PrecisionError,
    Rule,
    compare_scores,
    custom,
    divisor_from_name,
    divisor_rule,
    divisor_sequence,
    power_mean,
    quota_sequence,
    rule_from_name,
    stationary,
)
from .fairness import (
    FairnessVerdict,
    Witness,
    check_allocation,
    check_quota_bounds,
    check_sequence,
    divisor_wwef1_condition,
    zero_one_instance,
)
from .mwnw import BudgetExceededError, WelfareScore, score, solve
from .baselines import adjusted_winner, envy_cycle_eliminate, round_robin_sequence
from .harness import (
    PERTURBATIONS,
    MonotonicityReport,
    ScanReport,
    check_population_consistency_pair,
    check_resource_consistency,
    check_weight_consistency_pair,
    random_instance,
    scan,
)

__version__ = "0.1.0"
