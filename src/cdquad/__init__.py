"""Randomized quadrature for functions of very many variables: changing
dimension algorithms built from interlaced scrambled polynomial lattice rules.
"""

from .cdalg import (
    CostLedger,
    CostModel,
    Plan,
    PlannerConstants,
    PlanningError,
    RuleTemplate,
    cd_estimate,
    cd_estimate_many,
    cost_model,
    epsilon_dimension,
    plan_build,
    plan_cost,
    plan_grid,
)
from .decomp import (
    Anchor,
    BlackBoxIntegrand,
    alt_sum_S,
    anchored_component,
    bias_squared,
)
from .harness import (
    BankFunction,
    ExperimentConfig,
    StudyResult,
    bank_from_weights,
    bank_preset,
    dump_points,
    eps_grid_for_costs,
    run_convergence_study,
    run_variance_study,
    weight_preset,
)
from .kernels import bernoulli, k_chi, kernel_diag
from .lattice import (
    GeneratingVector,
    PointSet,
    irreducible_modulus,
    plr_points,
    search_generating_vector,
)
from .quadrature import (
    INTERLACED_PLR,
    MONTE_CARLO,
    RuleSpec,
    VarianceEstimate,
    empirical_variance,
    rule_keys,
    rule_points,
    run_rule_batch,
)
from .scramble import ScrambledRule
from .weights import (
    ExplicitWeights,
    FiniteIntersectionWeights,
    FiniteProductWeights,
    ProductWeights,
    Truncation,
    disjoint_pair_weights,
    downward_closure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
