"""Solver, verifier and simulator for optimal block-withholding mining
strategies on a proof-of-work chain."""

from .chain import (
    BoundaryMode,
    MiningModel,
    ScalarModel,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    overpaying_terminal_reward,
)
from .delay import (
    DelayParams,
    catchup_probability,
    deviation_gain,
    min_profitable_k,
)
from .mdp import (
    PolicyValue,
    SolveResult,
    SolverError,
    evaluate_gain,
    evaluate_policy_exact,
    reachable_mask,
    solve_average_reward,
    stationary_distribution,
)
from .model import (
    Action,
    ChainState,
    Fork,
    MiningParams,
    Policy,
    Variant,
    builtin_policy,
    num_states,
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
