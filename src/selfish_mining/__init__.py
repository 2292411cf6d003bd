"""Solver, verifier and simulator for optimal block-withholding mining
strategies on a proof-of-work chain."""

from .chain import (
    BoundaryMode,
    MiningModel,
    ScalarModel,
    ThresholdVariant,
    TransitionEntry,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    dump_model,
    overpaying_terminal_reward,
    transitions,
)
from .delay import (
    DelayParams,
    DeviationGain,
    catchup_probability,
    catchup_probability_quadrature,
    deviation_gain,
    min_profitable_k,
)
from .mdp import (
    PolicyValue,
    SolveResult,
    SolverError,
    evaluate_policy_exact,
    reachable_mask,
    solve_average_reward,
    stationary_distribution,
    validate_model,
)
from .model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    RewardPair,
    Variant,
    builtin_policy,
    enumerate_states,
    feasible_actions,
    honest_policy,
    num_states,
    sm1_policy,
    state_at,
    state_index,
    upper_bound_revenue,
)
from .optimize import (
    BoundsReport,
    OptimizeConfig,
    SweepRow,
    ThresholdReport,
    find_optimal,
    profit_threshold,
    sweep,
)
from .simulate import SimBatch, SimConfig, SimResult, simulate_batch

__version__ = "0.1.0"
