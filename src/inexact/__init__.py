"""Energy/error tradeoffs for noisy Boolean evaluation.

Bits are read through a channel that flips each one with probability
2**-energy; an adversary may shuffle which bit gets which energy.  The
package builds problems, allocates energy, decodes noisy reads, and prices
how much the shuffling costs the best-playing algorithm.
"""

__version__ = "0.1.0"

from .bits import ResourceLimitError
from .problems import (
    BooleanProblem,
    TruthTable,
    binary_evaluation,
    build_problem,
    comparison_problem,
    custom_problem,
    evaluate,
    or_problem,
    sorting_problem,
    tribes_problem,
    truth_table,
    unary_evaluation,
)
from .noise import (
    EnergyVector,
    cmos_correctness_probability,
    energy_vector,
    flip_probability,
    observation_distribution,
    sample_observation,
)
from .adversary import (
    FullSymmetricGroup,
    GeneratedGroup,
    IdentityGroup,
    PermutationGroup,
    amgm_bound,
    average_pattern_probabilities,
    build_group,
    marginal_flip_probability,
)
from .decoders import (
    Decoder,
    ErrorReport,
    error_profile,
    error_report,
    identity_decoder,
    map_decoder,
    monte_carlo_error,
    per_input_error,
)
from .allocators import (
    AllocationResult,
    analytic_allocation,
    comparison_allocation,
    optimize_allocation,
    sorting_allocation,
    staircase_allocation,
    ue_variance,
    uniform_allocation,
    water_filled_ramp,
)
from .mobs import (
    METRIC_KINDS,
    MobsResult,
    aggregate_error,
    be_analytic_bounds,
    comparison_wrong_probability,
    error_objective,
    expensive_pairs_instance,
    mobs,
    sorting_mobs_bound,
    table2_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
