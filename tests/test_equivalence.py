"""The grid-wide transition table against the per-state walks of
``helpers.transitions``: built class models and the per-state reference
lumped by their class map (``helpers.lumped``), and simulator step tables,
must agree bit for bit, as must the alpha-free table weighed at any alpha
and scipy's COO build of the grid model there lumped alike, and the
stacked-operator value iteration and a per-action one on the lumped
reference, cold or warm-started and stopped by a bound; solves that the policy-iteration stage finishes must reach the
per-action loop's gain, and that stage must match per-action Howard steps bit
for bit.  A policy's reachable
states traced on the table must be those traced on the built operator, and
the closure over every feasible action the per-state walk's.  The built-in grid-rule
policies must equal their per-state rules tabulated state by state.  The
ratio iteration's bounds are checked against the bisection it replaced.  The
threshold search's certification, which decides each honest-disabled model
by its residual bracket where it can, must decide as two cold solves do, and
its exhibit step, decided by the bracket of one under-paying model, as a
cold bound computation does; its reports must be what they were with them,
up to the evidence: a certified bound that lies between -eps and the cold
worst gain, or an exhibited revenue within eps of the cold lower bound.
Started at each probe from the mean of its bracket ends' values, the search
must decide as one that starts every decision from the last one's values
(``helpers.reference_threshold_warm``), in no more certification sweeps.  The
stationary distribution, a transposed solve of the grounded gain-and-bias
system, must match a second direct solver."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from selfish_mining.chain import (
    BoundaryMode,
    ThresholdVariant,
    build_base_model,
    build_honest_disabled,
    build_truncated,
    forward_closure,
    policy_closure,
    transition_table,
)
from selfish_mining import mdp
from selfish_mining.mdp import (
    HANDOFF_HOLD,
    HOLD_STRIDE,
    RVI_SWEEP_BUDGET,
    SolverError,
    evaluate_policy_exact,
    policy_iteration,
    reachable_mask,
    relative_value_iteration,
    solve_average_reward,
    stationary_distribution,
)
from selfish_mining import optimize
from selfish_mining.model import (
    MiningParams,
    Policy,
    Variant,
    builtin_policy,
    initial_states,
    state_at,
)
from selfish_mining.optimize import (
    DEFAULT_EPS,
    OptimizeConfig,
    find_optimal,
    profit_threshold,
)
from selfish_mining.simulate import compile_step_tables

import helpers
from helpers import (
    assert_models_identical,
    branch_probability,
    coo_base_model,
    feasible_actions,
    forward_closure_all_actions,
    operator_closure,
    reference_bisection,
    reference_certify,
    reference_exhibit,
    reference_honest_disabled,
    lumped_matrices,
    reference_model,
    reference_policy,
    reference_policy_iteration,
    reference_rvi,
    reference_stationary,
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    built_at=params_st,
    alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    T=st.integers(1, 24),
)
def test_weighed_table_matches_coo_build(built_at, alpha, gamma, T):
    """A table built at one alpha and weighed at another is, bit for
    bit, the grid model scipy's COO-to-CSR conversion builds at the second,
    lumped by the class map."""
    table = transition_table(replace(built_at, gamma=gamma), T)
    params = MiningParams(alpha, gamma, built_at.variant)
    assert_models_identical(table.weigh(alpha), coo_base_model(params, T))
    assert_models_identical(build_base_model(params, T), coo_base_model(params, T))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    built_at=params_st,
    alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    T=st.integers(1, 24),
)
def test_table_does_not_depend_on_alpha(built_at, alpha, gamma, T):
    """Tables built at two alphas, at one gamma, variant and T, hold the
    same arrays, bit for bit."""
    one = transition_table(replace(built_at, gamma=gamma), T)
    other = transition_table(replace(built_at, alpha=alpha, gamma=gamma), T)
    compared = []
    for field in fields(one):
        want, got = getattr(one, field.name), getattr(other, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
            compared.append(field.name)
    assert compared == ["next_state", "kind", "attacker", "honest", "feasible"]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(params=params_st, T=st.integers(1, 40), name=st.sampled_from(["honest", "sm1"]))
def test_builtin_policies_match_reference(params, T, name):
    got, want = builtin_policy(name, T, params), reference_policy(name, T, params)
    assert got.actions.dtype == want.actions.dtype
    assert got.actions.tobytes() == want.actions.tobytes()
    assert (got.alpha, got.gamma, got.variant, got.label) == (
        want.alpha, want.gamma, want.variant, want.label
    )


@examples
@given(params=params_st, T=grids, seed=st.integers(0, 2**32 - 1))
def test_step_tables_match_reference(params, T, seed):
    table = transition_table(params, T)
    draws = np.random.default_rng(seed).random(table.feasible.shape)
    actions = np.argmax(table.feasible * draws, axis=0).astype(np.int8)
    assert table.feasible[actions, np.arange(len(actions))].all()
    policy = Policy(T=T, actions=actions)
    tables = compile_step_tables(policy, params)
    for name, want in reference_step_tables(policy, params).items():
        got = getattr(tables, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@examples
@given(
    params=params_st,
    T=grids,
    seed=st.integers(0, 2**32 - 1),
    feasible_only=st.booleans(),
)
def test_table_closure_matches_operator_closure(params, T, seed, feasible_only):
    """A policy's reachable states traced on the transition table, as
    ``reachable_mask`` traces them, are those the operator-side walk
    ``helpers.operator_closure`` finds on the rows of scipy's COO build of
    the grid operator, also where the policy takes an infeasible action (the
    trace stops there on both); and the closure over every feasible action
    is the per-state walk's."""
    model = build_base_model(params, T)
    table = model.table
    draws = np.random.default_rng(seed).random(table.feasible.shape)
    weights = table.feasible * draws if feasible_only else draws
    actions = np.argmax(weights, axis=0).astype(np.int8)
    got = policy_closure(table, actions)
    want = operator_closure(coo_base_model(params, T), actions)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    got = reachable_mask(model, actions)
    assert got.tobytes() == want.tobytes()

    live = table.feasible[:, :, None] & (branch_probability(table) > 0)
    act, state, branch = np.nonzero(live)
    edges = (np.ones(len(state)), (state, table.next_state[act, state, branch]))
    n = len(actions)
    every = forward_closure(sparse.csr_matrix(edges, (n, n)), initial_states(T))
    oracle = forward_closure_all_actions(
        params, T, lambda s, p: sorted(feasible_actions(s, p))
    )
    assert {state_at(int(i), T) for i in np.flatnonzero(every)} == oracle


def per_action_solve(T, mode, eps=1e-8, rho=0.45, **warm):
    params = MiningParams(0.4, 0.5)
    scalar = build_truncated(build_base_model(params, T), mode, rho=rho)
    reference = reference_rvi(
        scalar.model.feasible,
        lumped_matrices(params, T),
        scalar.rewards,
        scalar.model.reference_index,
        eps,
        **warm,
    )
    return scalar, reference


@pytest.mark.parametrize("mode", list(BoundaryMode))
@pytest.mark.parametrize("T", [2, 8, 30])
def test_solver_matches_per_action_iteration(T, mode):
    scalar, (gain, iterations, values, actions, _bracket) = per_action_solve(T, mode)
    model = scalar.model
    got = relative_value_iteration(
        model.feasible, model.transition, scalar.rewards, model.reference_index, 1e-8
    )
    assert (got.gain, got.iterations) == (gain, iterations)
    assert got.values.tobytes() == values.tobytes()
    assert got.actions.tobytes() == actions.tobytes()


@pytest.mark.parametrize("offset,excluded", [(0.01, True), (0.0, False)])
def test_bounded_warm_solver_matches_per_action_iteration(offset, excluded):
    """Warm-started from another model's values and stopped by a bound,
    the stacked solver still matches the per-action loop bit for bit: at a
    bound 0.01 above the gain, which a bracket excludes early, and at the
    gain itself, which every bracket holds, so the span decides."""
    T, mode, eps = 12, BoundaryMode.UNDER_PAYING, 1e-8
    start = per_action_solve(T, mode, eps, rho=0.4)[1][2]
    scalar, unbounded = per_action_solve(T, mode, eps, initial_values=start)
    bound = unbounded[0] + offset
    _, reference = per_action_solve(T, mode, eps, initial_values=start, bound=bound)
    _gain, iterations, values, actions, (low, high) = reference
    assert (high < bound or low > bound) == excluded
    assert (iterations < unbounded[1]) == excluded
    model = scalar.model
    got = relative_value_iteration(
        model.feasible,
        model.transition,
        scalar.rewards,
        model.reference_index,
        eps,
        initial_values=start,
        bound=bound,
    )
    assert (got.bracket, got.iterations) == ((low, high), iterations)
    assert got.values.tobytes() == values.tobytes()
    assert got.actions.tobytes() == actions.tobytes()


def held_handoff(system, eps):
    """The first sweep at which value iteration's greedy policy, read every
    ``HOLD_STRIDE`` sweeps (each reading a solve stopped there by its
    budget), has read the same for ``HANDOFF_HOLD`` sweeps; the budget if
    none before it."""
    readings = {}
    for sweep in range(HOLD_STRIDE, RVI_SWEEP_BUDGET, HOLD_STRIDE):
        actions = relative_value_iteration(*system, eps, sweep).actions
        readings[sweep] = actions.tobytes()
        first = sweep - HANDOFF_HOLD
        if first >= HOLD_STRIDE and all(
            readings[s] == readings[sweep] for s in range(first, sweep, HOLD_STRIDE)
        ):
            return sweep
    return RVI_SWEEP_BUDGET


@pytest.mark.parametrize(
    "T,mode", [(8, BoundaryMode.OVER_PAYING), (30, BoundaryMode.UNDER_PAYING)]
)
def test_policy_iteration_finishes_long_solves(T, mode):
    """These two solves need more sweeps than the budget.  Value iteration
    hands them to policy iteration once its greedy policy has held for
    ``HANDOFF_HOLD`` sweeps, before the budget, and policy iteration
    finishes them: same certificate, same gain."""
    eps = 1e-8
    scalar, (gain, iterations, *_) = per_action_solve(T, mode, eps)
    model = scalar.model
    system = (model.feasible, model.transition, scalar.rewards, model.reference_index)
    handoff = held_handoff(system, eps)
    got = solve_average_reward(scalar, eps)
    assert iterations > RVI_SWEEP_BUDGET > handoff and got.evaluations >= 1
    assert got.iterations == handoff + got.evaluations
    assert got.span <= eps
    assert abs(got.gain - gain) <= eps


@pytest.mark.parametrize(
    "T,mode", [(8, BoundaryMode.OVER_PAYING), (30, BoundaryMode.UNDER_PAYING)]
)
def test_held_policy_hands_over_as_the_budget_does(T, mode, monkeypatch):
    """A solve handed over on a held greedy policy returns, bit for bit,
    what a solve without the hold rule returns when its sweep budget ends
    at the same sweep."""
    eps = 1e-8
    scalar = build_truncated(build_base_model(MiningParams(0.4, 0.5), T), mode, 0.45)
    got = solve_average_reward(scalar, eps)
    handoff = got.iterations - got.evaluations
    assert got.evaluations >= 1 and handoff < RVI_SWEEP_BUDGET
    monkeypatch.setattr(mdp, "RVI_SWEEP_BUDGET", handoff)
    monkeypatch.setattr(mdp, "HANDOFF_HOLD", np.inf)
    want = solve_average_reward(scalar, eps)
    assert (got.iterations, got.evaluations, got.bracket) == (
        want.iterations,
        want.evaluations,
        want.bracket,
    )
    assert got.actions.tobytes() == want.actions.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("start", ["hand-off", "adopt"])
@pytest.mark.parametrize(
    "T,mode", [(8, BoundaryMode.OVER_PAYING), (30, BoundaryMode.UNDER_PAYING)]
)
def test_policy_iteration_matches_per_action_howard(T, mode, start):
    """Howard steps on the stacked operator, from the value-iteration
    stage's hand-off policy or from adopting everywhere, reach the same
    actions, bias and bracket as per-action steps, bit for bit."""
    eps = 1e-8
    params = MiningParams(0.4, 0.5)
    scalar = build_truncated(build_base_model(params, T), mode, rho=0.45)
    model = scalar.model
    system = (model.feasible, model.transition, scalar.rewards, model.reference_index)
    if start == "adopt":
        actions = np.zeros(model.n, dtype=np.int8)
    else:
        actions = relative_value_iteration(*system, eps, RVI_SWEEP_BUDGET).actions
    got = policy_iteration(*system, eps, actions)
    steps, want_actions, values, bracket = reference_policy_iteration(
        model.feasible,
        model.transition,
        lumped_matrices(params, T),
        scalar.rewards,
        model.reference_index,
        eps,
        actions,
    )
    assert (got.iterations, got.evaluations, got.bracket) == (steps, steps, bracket)
    assert got.actions.tobytes() == want_actions.tobytes()
    assert got.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("alpha,gamma", [(0.2, 0.5), (0.35, 0.0), (0.45, 1.0)])
@pytest.mark.parametrize("T", [8, 20, 30])
def test_ratio_iteration_matches_bisection(T, alpha, gamma, variant):
    eps = 1e-5
    config = OptimizeConfig(MiningParams(alpha, gamma, variant), T, eps, eps)
    model = build_base_model(config.params, T)
    report = find_optimal(config, model=model)
    reference = reference_bisection(config, model)
    assert reference.rho - eps <= report.lower_bound <= reference.rho + eps
    assert report.lower_bound == evaluate_policy_exact(model, report.policy).rev
    assert abs(report.upper_bound - reference.upper_bound) <= 2 * eps


# (alpha, variant, T) at gamma = 0.5, by how each model is decided: both by
# a residual bracket below -eps, the first by a bracket above -eps, or next
# to the threshold by the midpoint of a bracket narrowed to eps.
BRACKET = [(alpha, Variant.STANDARD, T) for alpha in (0.1, 0.2) for T in (8, 16)] + [
    (alpha, Variant.UNIFORM_TIE_BREAK, T)
    for alpha in (0.05, 0.125)
    for T in (8, 12, 16)
]
REFUSED = [(0.4, Variant.STANDARD, 8)]
MIDPOINT = [
    (0.23144, Variant.UNIFORM_TIE_BREAK, 8, [("midpoint", True), ("bracket", True)]),
    (0.2314453125, Variant.UNIFORM_TIE_BREAK, 8, [("midpoint", False)]),
]


def assert_evidence_bounds_cold(certified, evidence, cold_worst, eps):
    """The evidence lies on the decided side of -eps, between it and the
    worst gain two cold solves report, up to eps: a decided bracket end
    bounds the gain from the side of -eps, and a midpoint is within eps/2
    of the gain, as the cold one is."""
    if certified:
        assert cold_worst - eps <= evidence <= -eps
    else:
        assert -eps < evidence <= cold_worst + eps


@pytest.mark.parametrize(
    "alpha,variant,T,decisions",
    [(*case, [("bracket", True)] * 2) for case in BRACKET]
    + [(*case, [("bracket", False)]) for case in REFUSED]
    + MIDPOINT,
)
def test_certification_matches_two_cold_solves(monkeypatch, alpha, variant, T, decisions):
    """Cold from zero values, the bracket-decided certification gives the
    decision of two cold solves, each model decided the expected way."""
    certified_cold, cold_worst = reference_certify(alpha, 0.5, variant, T, DEFAULT_EPS)
    decided = []
    gain_below = optimize.gain_below

    def spy(*args, **kwargs):
        verdict = gain_below(*args, **kwargs)
        how = "midpoint" if verdict.evidence == verdict.result.gain else "bracket"
        decided.append((how, verdict.below))
        return verdict

    monkeypatch.setattr(optimize, "gain_below", spy)
    table = transition_table(MiningParams(alpha, 0.5, variant), T)
    certified, evidence, _values = optimize._certify_honest(table, alpha, DEFAULT_EPS)
    assert decided == decisions
    assert certified == certified_cold
    assert_evidence_bounds_cold(certified, evidence, cold_worst, DEFAULT_EPS)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("T", [16, 24])
def test_threshold_report_matches_cold_certification(monkeypatch, T, gamma, variant):
    """The report equals the one built with two cold solves per probe and a
    cold :func:`find_optimal` per exhibit candidate, except for the
    evidence.  A certification probe's, a decided bracket end or a warm
    midpoint, must bound the cold worst gain as
    :func:`assert_evidence_bounds_cold` states; an exhibit probe's, the
    exact revenue of the policy its bracket decided, must be within eps of
    the cold lower bound, and above alpha + eps exactly when profitable."""
    got = profit_threshold(gamma, variant, T).to_json_dict()

    def certify_cold(table, alpha, eps, values):
        params = table.params
        return (*reference_certify(alpha, params.gamma, params.variant, T, eps), values)

    def exhibit_cold(table, alpha, eps, values):
        params = table.params
        lower_bound = reference_exhibit(alpha, params.gamma, params.variant, T, eps)
        return lower_bound > alpha + eps, lower_bound, values

    monkeypatch.setattr(optimize, "_certify_honest", certify_cold)
    monkeypatch.setattr(optimize, "_exhibit", exhibit_cold)
    want = profit_threshold(gamma, variant, T).to_json_dict()
    assert len(got["probes"]) == len(want["probes"])
    for probe, cold in zip(got.pop("probes"), want.pop("probes")):
        assert (probe["alpha"], probe["kind"]) == (cold["alpha"], cold["kind"])
        if probe["kind"] in ("certified", "not-certified"):
            certified = probe["kind"] == "certified"
            assert_evidence_bounds_cold(
                certified, probe["evidence"], cold["evidence"], DEFAULT_EPS
            )
        else:
            assert abs(probe["evidence"] - cold["evidence"]) <= DEFAULT_EPS
            profitable = probe["kind"] == "profitable"
            assert (probe["evidence"] > probe["alpha"] + DEFAULT_EPS) == profitable
    assert got == want


def certification_sweeps(monkeypatch, *tests):
    """Bellman applications of the solves each certification test runs,
    keyed by its name: wraps ``mdp.solve_average_reward``, whose
    ``iterations`` count both stages, and each ``(module, name)`` test so
    that the solves it runs are charged to it."""
    sweeps = {name: 0 for _module, name in tests}
    running = [None]
    solve = mdp.solve_average_reward

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        if running[0] is not None:
            sweeps[running[0]] += result.iterations
        return result

    def charged(name, certify):
        def wrapper(*args, **kwargs):
            running[0] = name
            try:
                return certify(*args, **kwargs)
            finally:
                running[0] = None

        return wrapper

    monkeypatch.setattr(mdp, "solve_average_reward", counted)
    for module, name in tests:
        monkeypatch.setattr(module, name, charged(name, getattr(module, name)))
    return sweeps


def threshold_and_warm_oracle(monkeypatch, T, gamma, variant):
    """Run the search and the warm-start oracle, assert that they decide
    alike, and return their certification sweeps (search, oracle)."""
    sweeps = certification_sweeps(
        monkeypatch, (helpers, "warm_certify"), (optimize, "_certify_honest")
    )
    probes, alpha_lower, alpha_upper = helpers.reference_threshold_warm(
        gamma, variant, T, DEFAULT_EPS
    )
    report = profit_threshold(gamma, variant, T)
    assert [(p.alpha, p.kind) for p in report.probes] == probes
    assert (report.alpha_lower, report.alpha_upper) == (alpha_lower, alpha_upper)
    return sweeps["_certify_honest"], sweeps["warm_certify"]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("T", [16, 24])
def test_mean_start_decides_as_warm_start(monkeypatch, T, gamma, variant):
    """Starting each probe from the mean of its bracket ends' values gives
    the probes, kinds and bracket of starting every decision from the last
    one's values, in no more certification sweeps."""
    mean, warm = threshold_and_warm_oracle(monkeypatch, T, gamma, variant)
    assert mean <= warm


@pytest.mark.parametrize("variant", list(Variant))
def test_mean_start_halves_certification_sweeps(monkeypatch, variant):
    """On the benchmark's searches (gamma = 0.5, T = 75) the start from the
    bracket ends' mean certifies in at most half the warm start's sweeps."""
    mean, warm = threshold_and_warm_oracle(monkeypatch, 75, 0.5, variant)
    assert 2 * mean <= warm


@pytest.mark.parametrize("alpha,above", [(0.3, True), (0.2, False)])
def test_exhibit_decided_by_bracket(monkeypatch, alpha, above):
    """Well above the threshold (0.25 at gamma = 0.5) the exhibit's model is
    decided by a bracket min above 0 and the candidate is profitable; well
    below it by a bracket max below 0, and it is not."""
    decided = []
    gain_below = optimize.gain_below

    def spy(*args, **kwargs):
        verdict = gain_below(*args, **kwargs)
        low, high = verdict.result.bracket
        if verdict.evidence == low > 0.0:
            decided.append("min above 0")
        elif verdict.evidence == high < 0.0:
            decided.append("max below 0")
        else:
            decided.append("midpoint")
        return verdict

    monkeypatch.setattr(optimize, "gain_below", spy)
    table = transition_table(MiningParams(alpha, 0.5, Variant.STANDARD), 24)
    profitable, evidence, _values = optimize._exhibit(table, alpha, DEFAULT_EPS)
    assert decided == ["min above 0" if above else "max below 0"]
    assert profitable == above
    assert (evidence > alpha + DEFAULT_EPS) == above


def random_chain(n, seed, transient=0):
    """A random sparse chain on ``n`` states whose first ``n - transient``
    form one recurrent class (a cycle through them keeps it irreducible) and
    whose last ``transient`` states leak into it."""
    rng = np.random.default_rng(seed)
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    recurrent = n - transient
    P[:recurrent, recurrent:] = 0.0
    P[np.arange(recurrent), (np.arange(recurrent) + 1) % recurrent] += 0.5
    P[recurrent:, 0] += 0.5
    return sparse.csr_matrix(P / P.sum(axis=1, keepdims=True))


def assert_stationary_matches_reference(P):
    pi, want = stationary_distribution(P), reference_stationary(P)
    assert np.abs(pi - want).max() <= 1e-12
    return pi


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_stationary_matches_reference_on_random_chains(n, seed):
    assert_stationary_matches_reference(random_chain(n, seed))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.integers(2, 30), share=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1)
)
def test_stationary_is_zero_on_transient_states(n, share, seed):
    transient = max(1, min(n - 1, round(share * n)))
    pi = assert_stationary_matches_reference(random_chain(n, seed, transient))
    assert np.abs(pi[n - transient :]).max() <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    sizes=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
def test_stationary_rejects_two_closed_classes(sizes, seeds):
    """Two irreducible blocks side by side: a chain with two closed classes,
    which must be refused however round-off treats its grounded system."""
    P = sparse.block_diag(
        [random_chain(n, seed) for n, seed in zip(sizes, seeds)], format="csr"
    )
    with pytest.raises(SolverError, match="irreducible"):
        stationary_distribution(P)


@pytest.mark.parametrize("emitted", [False, True], ids=["sm1", "emitted"])
@pytest.mark.parametrize("T", [8, 24])
@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    params=st.builds(
        MiningParams,
        alpha=st.floats(0.05, 0.49),
        gamma=st.floats(0.0, 1.0),
        variant=st.sampled_from(list(Variant)),
    )
)
def test_stationary_matches_reference_on_policy_chains(T, emitted, params):
    model = build_base_model(params, T)
    if emitted:
        policy = find_optimal(OptimizeConfig(params, T, 1e-4, 1e-4), model=model).policy
    else:
        policy = builtin_policy("sm1", T, params)
    idxs = np.flatnonzero(policy_closure(model.table, policy.actions))
    assert_stationary_matches_reference(model.policy_chain(policy.actions, idxs)[0])
