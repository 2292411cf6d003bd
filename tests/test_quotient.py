"""The fork-label quotient against the grid it lumps.

The closed-form classes of a transition table must be the coarsest
within-cell bisimulation that partition refinement finds on the per-state
``helpers.transitions``.  A class model must have the grid's optimal gain,
within the solve tolerance, at the reference points of criterion 1 and at
the models of the threshold search.  A class policy lifted to the grid must
be total and feasible at every state, and the chain a grid policy induces,
read from the table's rows, must be the grid operator's rows and columns at
the states it reaches, bit for bit.  A lifted policy is scored exactly on the
classes, with the grid chain's rates, while a policy that acts apart within
a class, or that a reached class cannot take, is scored on the grid."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfish_mining.chain import (
    BoundaryMode,
    MiningModel,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    check_feasible,
    policy_closure,
    transition_table,
)
from selfish_mining.cli import main
from selfish_mining.mdp import (
    evaluate_policy_exact,
    solve_average_reward,
    stationary_distribution,
)
from selfish_mining.model import (
    ChainState,
    Fork,
    MiningParams,
    Policy,
    Variant,
    builtin_policy,
)
from selfish_mining.optimize import DEFAULT_EPS, OptimizeConfig, find_optimal

from helpers import bisimulation_classes, coo_base_model, grid_truncated

SOLVE_EPS = 1e-9
# criterion 1's points: gamma = 0, T = 95
GAMMA0_ALPHAS = (1 / 3, 0.35, 0.375, 0.4, 0.425, 0.45, 0.475)

params_st = st.builds(
    MiningParams,
    alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    variant=st.sampled_from(list(Variant)),
)
examples = settings(derandomize=True, deadline=None, max_examples=30)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("T", [2, 8, 20])
def test_classes_are_the_coarsest_bisimulation(T, variant, gamma):
    """Partition refinement from the cells, on the per-state transitions,
    ends at the table's closed-form classes."""
    params = MiningParams(0.3137, gamma, variant)
    class_of, representatives = transition_table(params, T).classes
    want = bisimulation_classes(params, T)
    assert class_of.tolist() == want.tolist()
    assert representatives.tolist() == [
        int(np.flatnonzero(want == c)[0]) for c in range(want.max() + 1)
    ]


def assert_same_gain(params, T, mode, rho, disabled=None):
    model = build_base_model(params, T)
    if disabled is not None:
        model = build_honest_disabled(model, disabled)
    quotient = solve_average_reward(build_truncated(model, mode, rho), SOLVE_EPS)
    grid = solve_average_reward(grid_truncated(params, T, mode, rho, disabled), SOLVE_EPS)
    assert quotient.span <= SOLVE_EPS and grid.span <= SOLVE_EPS
    assert abs(quotient.gain - grid.gain) <= SOLVE_EPS
    assert model.n < grid.values.size


@pytest.mark.parametrize("mode", list(BoundaryMode))
@pytest.mark.parametrize("alpha", GAMMA0_ALPHAS)
def test_gain_matches_grid_at_reference_points(alpha, mode):
    """At criterion 1's points, the under-paying model at rho = alpha (the
    first ratio step) and the over-paying one at rho = alpha + 0.1 have the
    same optimal gain on the classes as on the grid."""
    rho = alpha if mode is BoundaryMode.UNDER_PAYING else alpha + 0.1
    assert_same_gain(MiningParams(alpha, 0.0), 95, mode, rho)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("alpha", [0.25, 0.375])
def test_gain_matches_grid_at_threshold_probes(alpha, variant, gamma):
    """The models a threshold probe decides at T = 40: both honest-disabled
    over-paying models at rho = alpha, and the exhibit's under-paying model
    at rho = alpha + eps."""
    params = MiningParams(alpha, gamma, variant)
    for disabled in ThresholdVariant:
        assert_same_gain(params, 40, BoundaryMode.OVER_PAYING, alpha, disabled)
    assert_same_gain(params, 40, BoundaryMode.UNDER_PAYING, alpha + DEFAULT_EPS)


@examples
@given(params=params_st, T=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_lift_is_total_and_feasible(params, T, seed):
    """Any class policy that takes a feasible action at every class lifts
    to a grid policy with a feasible action at every grid state, the
    class's action at each of its members."""
    model = build_base_model(params, T)
    draws = np.random.default_rng(seed).random(model.feasible.shape)
    actions = np.argmax(model.feasible * draws, axis=0).astype(np.int8)
    lifted = model.lift(actions)
    class_of, representatives = model.table.classes
    assert lifted.shape == class_of.shape and lifted.dtype == np.int8
    assert model.table.feasible[lifted, np.arange(len(lifted))].all()
    assert lifted[representatives].tolist() == actions.tolist()
    assert lifted.tolist() == actions[class_of].tolist()


@pytest.mark.parametrize(
    "params",
    [
        MiningParams(0.45, 0.0),
        MiningParams(0.4, 0.5),
        MiningParams(0.35, 1.0),
        MiningParams(0.4, 0.5, Variant.UNIFORM_TIE_BREAK),
    ],
)
def test_emitted_policy_feasible_where_it_reaches(params):
    """The lifted policy an optimization emits takes a feasible action at
    every state it reaches, and acts alike on the labels of every class."""
    model = build_base_model(params, 30)
    policy = find_optimal(OptimizeConfig(params, 30, 1e-4, 1e-4), model=model).policy
    table = model.table
    check_feasible(table.feasible, policy.actions, policy_closure(table, policy.actions), 30)
    class_of, representatives = table.classes
    assert policy.actions.tolist() == policy.actions[representatives][class_of].tolist()


@examples
@given(
    params=params_st,
    T=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["random", "sm1", "honest"]),
)
def test_policy_chain_matches_grid_operator(params, T, seed, name):
    """The chain a grid policy induces on the states it reaches, read from
    the table's rows, is bit for bit the policy's rows and those states'
    columns of scipy's COO build of the grid operator, and its expected
    blocks are that build's."""
    model = build_base_model(params, T)
    table = model.table
    if name == "random":
        draws = np.random.default_rng(seed).random(table.feasible.shape)
        actions = np.argmax(table.feasible * draws, axis=0).astype(np.int8)
    else:
        actions = builtin_policy(name, T, params).actions
    idxs = np.flatnonzero(policy_closure(table, actions))
    P, attacker, honest = model.policy_chain(actions, idxs)
    grid = coo_base_model(params, T)
    n = len(actions)
    want = grid.transition[actions[idxs].astype(np.int64) * n + idxs][:, idxs]
    assert P.format == want.format == "csr" and P.shape == want.shape
    for part in ("data", "indices", "indptr"):
        got, expected = getattr(P, part), getattr(want, part)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), part
    for got, blocks in ((attacker, grid.exp_attacker), (honest, grid.exp_honest)):
        expected = blocks[actions[idxs], idxs]
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def grid_value(model, actions):
    """Block rates and revenue of a grid policy from its grid chain."""
    reached = np.flatnonzero(policy_closure(model.table, actions))
    P, attacker, honest = model.policy_chain(actions, reached)
    pi = stationary_distribution(P)
    attacker_rate, honest_rate = pi @ attacker, pi @ honest
    return attacker_rate, honest_rate, attacker_rate / (attacker_rate + honest_rate)


def refused(name):
    return mock.patch.object(MiningModel, name, side_effect=AssertionError(name))


@examples
@given(
    params=st.builds(
        MiningParams,
        alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        gamma=st.sampled_from([0.0, 0.5, 1.0]),
        variant=st.sampled_from(list(Variant)),
    ),
    T=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_class_path_matches_grid_chain(params, T, seed):
    """A random class policy, lifted, is scored on the classes, with the
    rates and revenue of its lift's grid chain to 1e-12, and the classes it
    reaches are exactly the classes of the grid states its lift reaches."""
    model = build_base_model(params, T)
    draws = np.random.default_rng(seed).random(model.feasible.shape)
    chosen = np.argmax(model.feasible * draws, axis=0).astype(np.int8)
    lifted = model.lift(chosen)
    with refused("policy_chain"):
        value = evaluate_policy_exact(model, Policy(T, lifted))
    class_of = model.table.classes[0]
    grid_reached = policy_closure(model.table, lifted)
    assert np.flatnonzero(model.class_closure(chosen)).tolist() == (
        np.unique(class_of[grid_reached]).tolist()
    )
    got = (value.attacker_rate, value.honest_rate, value.rev)
    for mine, grid in zip(got, grid_value(model, lifted)):
        assert abs(mine - grid) <= 1e-12


def test_acting_apart_takes_the_grid_path():
    """SM1 at gamma = 0 matches at (1,1,relevant) and waits at the other
    labels of that cell's class, so it is scored on the grid, bit for bit
    as the grid chain scores it."""
    params = MiningParams(0.45, 0.0)
    model = build_base_model(params, 20)
    sm1 = builtin_policy("sm1", 20, params)
    chosen = sm1.actions.take(model.table.classes[1])
    assert not np.array_equal(model.lift(chosen), sm1.actions)
    with refused("class_chain"):
        value = evaluate_policy_exact(model, sm1)
    assert (value.attacker_rate, value.honest_rate, value.rev) == grid_value(
        model, sm1.actions
    )


def test_class_infeasible_policy_is_refused_on_the_grid(tmp_path, monkeypatch, capsys):
    """A uniform-tie-breaking policy acts alike within the standard classes
    at gamma = 0.5 but matches at the reachable class of (2,2,irrelevant),
    which no standard race allows: evaluated with --force it goes to the
    grid, which refuses it naming that grid state."""
    monkeypatch.chdir(tmp_path)
    optimize = ["--alpha", "0.35", "--gamma", "1", "--variant", "uniform", "--T", "20"]
    assert main(["optimize", *optimize, "--out", "optu"]) == 0
    with open("optu.policy.json") as handle:
        policy = Policy.from_json_dict(json.load(handle))
    model = build_base_model(MiningParams(0.35, 0.5), 20)
    chosen = policy.actions.take(model.table.classes[1])
    assert np.array_equal(model.lift(chosen), policy.actions)
    classes = np.flatnonzero(model.class_closure(chosen))
    assert not model.feasible[chosen[classes], classes].all()
    capsys.readouterr()
    evaluate = ["--alpha", "0.35", "--gamma", "0.5", "--T", "20", "--force"]
    assert main(["evaluate", "--policy", "optu.policy.json", *evaluate]) == 2
    state = ChainState(2, 2, Fork.IRRELEVANT)
    assert capsys.readouterr().err == (
        f"error: policy assigns infeasible action match at reachable state {state}\n"
    )
