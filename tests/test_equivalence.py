"""The grid-wide transition table against the per-state walks of
:func:`selfish_mining.chain.transitions` kept in ``helpers``: built models,
simulator step tables and model dumps must agree bit for bit, and so must
the stacked-operator solver and a per-action value iteration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfish_mining.chain import (
    BoundaryMode,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    dump_model,
)
from selfish_mining.mdp import solve_average_reward
from selfish_mining.model import MiningParams, Policy, Variant
from selfish_mining.simulate import compile_step_tables

from helpers import (
    assert_models_identical,
    reference_dump,
    reference_honest_disabled,
    reference_layers,
    reference_model,
    reference_rvi,
    reference_step_tables,
)

params_st = st.builds(
    MiningParams,
    alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    gamma=st.floats(0.0, 1.0),
    variant=st.sampled_from(list(Variant)),
)
grids = st.integers(1, 12)
examples = settings(derandomize=True, deadline=None, max_examples=30)


def assert_disabled_identical(base, reference):
    if base.T >= 2:
        for variant in ThresholdVariant:
            assert_models_identical(
                build_honest_disabled(base, variant),
                reference_honest_disabled(reference, variant),
            )


@examples
@given(params=params_st, T=grids)
def test_built_model_matches_reference(params, T):
    base, reference = build_base_model(params, T), reference_model(params, T)
    assert_models_identical(base, reference)
    assert_disabled_identical(base, reference)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("T", [2, 8, 75])
def test_fixed_grids_match_reference(T, variant):
    params = MiningParams(0.45, 0.37, variant)
    base, reference = build_base_model(params, T), reference_model(params, T)
    assert_models_identical(base, reference)
    assert_disabled_identical(base, reference)


@examples
@given(params=params_st, T=grids, seed=st.integers(0, 2**32 - 1))
def test_step_tables_match_reference(params, T, seed):
    model = build_base_model(params, T)
    draws = np.random.default_rng(seed).random(model.feasible.shape)
    actions = np.argmax(model.feasible * draws, axis=0).astype(np.int8)
    assert model.feasible[actions, np.arange(model.n)].all()
    policy = Policy(T=T, actions=actions)
    tables = compile_step_tables(policy, model)
    for name, want in reference_step_tables(policy, params).items():
        got = getattr(tables, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@examples
@given(params=params_st, T=grids)
def test_dump_matches_reference(params, T):
    model = build_base_model(params, T)
    assert dump_model(model) == reference_dump(model)
    if T >= 2:
        disabled = build_honest_disabled(model, ThresholdVariant.ADOPT_DISABLED_AT_0_1)
        assert dump_model(disabled) == reference_dump(disabled)


@pytest.mark.parametrize("mode", list(BoundaryMode))
@pytest.mark.parametrize("T", [2, 8, 30])
def test_solver_matches_per_action_iteration(T, mode):
    params = MiningParams(0.4, 0.5)
    scalar = build_truncated(build_base_model(params, T), mode, rho=0.45)
    got = solve_average_reward(scalar, 1e-8)
    gain, iterations, values, actions = reference_rvi(
        scalar.model.feasible,
        reference_layers(params, T)[3],
        scalar.rewards,
        scalar.model.reference_index,
        1e-8,
    )
    assert (got.gain, got.iterations) == (gain, iterations)
    assert got.values.tobytes() == values.tobytes()
    assert got.policy.actions.tobytes() == actions.tobytes()
