"""Seeded Monte Carlo execution of a policy on the block-arrival process.

The simulator reads the same transition table as the model builder
(:func:`selfish_mining.chain.transition_table`); per state it takes the
policy's row of it, three branches -- 0: attacker block, 1: honest block
winning a race for the attacker, 2: honest block otherwise -- stored at
``3*state + branch``.  A round is two uniform draws that pick the branch:
block ownership first, then the race outcome (the second draw happens every
round and is ignored when no race is live, keeping the stream layout
fixed).  Generators are numpy PCG64 (period 2^128), one independent
stream per replica, seeded with ``seed + k*stride``; a fixed seed fully
determines the run.  :func:`simulate_batch` is the one entry point; a single
run is a batch of one replica.

At states on the policy's truncation boundary (max(a, h) = T) the simulator
forces adopt, mirroring the pessimistic truncation the policies were solved
on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import MiningModel, build_base_model, transition_table
from .mdp import reachable_feasible
from .model import Action, MiningParams, Policy, initial_states

CHUNK_ROUNDS = 8192
BATCH_COUNT = 100  # batch-means segments for the standard error estimate


@dataclass(frozen=True)
class SimConfig:
    params: MiningParams
    policy: Policy
    rounds: int
    seed: int

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1 (got {self.rounds})")


@dataclass(frozen=True)
class SimResult:
    attacker_blocks: int
    honest_blocks: int
    rev: float
    rounds: int
    seed: int
    stderr: float

    def to_json_dict(self) -> dict:
        return {
            "attacker_blocks": self.attacker_blocks,
            "honest_blocks": self.honest_blocks,
            "rev": self.rev,
            "rounds": self.rounds,
            "seed": self.seed,
            "stderr": self.stderr,
        }


@dataclass(frozen=True)
class SimBatch:
    mean_rev: float
    std_rev: float
    results: tuple[SimResult, ...]


@dataclass(frozen=True, eq=False)
class StepTables:
    """Per-state branch rows and rewards for a fixed policy.

    Row ``state`` of the (n, 3) tables holds branches 0 (attacker block),
    1 (race won) and 2 (any other honest block).  The honest-block reward
    does not depend on the branch.
    """

    next_state: np.ndarray  # (n, 3) grid index
    attacker: np.ndarray  # (n, 3) attacker blocks accepted
    honest: np.ndarray  # (n,) honest blocks accepted
    race_win_prob: np.ndarray  # (n,) zero where no race is live


def compile_step_tables(policy: Policy, model: MiningModel) -> StepTables:
    """Read the policy's branches out of the model's transition table.

    Boundary states are forced to adopt first; the policy is then rejected
    if it assigns an infeasible action anywhere reachable.
    """
    if policy.T != model.T:
        raise ValueError(
            f"policy truncation {policy.T} does not match model truncation {model.T}"
        )
    actions = np.where(model.boundary, Action.ADOPT, policy.actions).astype(np.int8)
    reachable_feasible(model, Policy(T=model.T, actions=actions))
    states = np.arange(model.n)
    table = transition_table(model.params, model.T)
    return StepTables(
        next_state=table.next_state[actions, states].astype(np.int64),
        attacker=table.attacker[actions, states].astype(np.int64),
        honest=table.honest[actions, states, 0].astype(np.int64),
        race_win_prob=np.where(
            table.race[actions, states], model.params.race_win_prob, 0.0
        ),
    )


def _run_replicas(
    tables: StepTables,
    params: MiningParams,
    T: int,
    rounds: int,
    seeds: list[int],
    batches: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run all replicas in lockstep.  Returns per-replica attacker totals,
    honest totals, and per-replica batch revenue matrices."""
    alpha = params.alpha
    m = len(seeds)
    gens = [np.random.default_rng(s) for s in seeds]

    next_state, attacker_blocks = tables.next_state.ravel(), tables.attacker.ravel()
    first, second = initial_states(T)

    start = np.array([gen.random() for gen in gens])
    state = np.where(start < alpha, first, second)

    attacker = np.zeros(m, dtype=np.int64)
    honest = np.zeros(m, dtype=np.int64)
    edges = np.linspace(0, rounds, batches + 1, dtype=np.int64)
    batch_att = np.zeros((m, batches), dtype=np.int64)
    batch_hon = np.zeros((m, batches), dtype=np.int64)
    prev_att = np.zeros(m, dtype=np.int64)
    prev_hon = np.zeros(m, dtype=np.int64)
    edge_pos = 1

    done = 0
    while done < rounds:
        span = min(CHUNK_ROUNDS, rounds - done)
        draws = np.stack([gen.random((span, 2)) for gen in gens])  # (m, span, 2)
        own = draws[:, :, 0] < alpha
        for t in range(span):
            lost = draws[:, t, 1] >= tables.race_win_prob[state]
            row = 3 * state + np.where(own[:, t], 0, 1 + lost)  # branch 0, 1 or 2
            attacker += attacker_blocks[row]
            honest += tables.honest[state]
            state = next_state[row]
            done += 1
            while edge_pos <= batches and done == edges[edge_pos]:
                batch_att[:, edge_pos - 1] = attacker - prev_att
                batch_hon[:, edge_pos - 1] = honest - prev_hon
                prev_att = attacker.copy()
                prev_hon = honest.copy()
                edge_pos += 1

    return attacker, honest, _batch_revs(batch_att, batch_hon)


def _batch_revs(batch_att: np.ndarray, batch_hon: np.ndarray) -> np.ndarray:
    total = batch_att + batch_hon
    with np.errstate(invalid="ignore"):
        return np.where(total > 0, batch_att / np.maximum(total, 1), np.nan)


def _stderr(batch_revs: np.ndarray) -> float:
    valid = batch_revs[~np.isnan(batch_revs)]
    if len(valid) < 2:
        return float("nan")
    return float(valid.std(ddof=1) / np.sqrt(len(valid)))


def _simulate(config: SimConfig, seeds: list[int]) -> list[SimResult]:
    """Compile the policy's tables and run one replica per seed in lockstep."""
    model = build_base_model(config.params, config.policy.T)
    tables = compile_step_tables(config.policy, model)
    batches = BATCH_COUNT if config.rounds >= 100 * BATCH_COUNT else max(
        2, min(10, config.rounds)
    )
    attacker, honest, batch_revs = _run_replicas(
        tables, config.params, model.T, config.rounds, seeds, batches
    )
    results = []
    for k, seed in enumerate(seeds):
        att, hon = int(attacker[k]), int(honest[k])
        total = att + hon
        results.append(
            SimResult(
                attacker_blocks=att,
                honest_blocks=hon,
                rev=att / total if total > 0 else float("nan"),
                rounds=config.rounds,
                seed=seed,
                stderr=_stderr(batch_revs[k]),
            )
        )
    return results


def simulate_batch(
    config: SimConfig, replicas: int, seed_stride: int = 1
) -> SimBatch:
    """Independent replicas with seeds ``seed + k*stride``, run in lockstep;
    deterministic for a fixed seed.  ``std_rev`` is NaN for one replica."""
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1 (got {replicas})")
    results = _simulate(
        config, [config.seed + k * seed_stride for k in range(replicas)]
    )
    revs = np.array([r.rev for r in results])
    return SimBatch(
        mean_rev=float(revs.mean()),
        std_rev=float(revs.std(ddof=1)) if replicas > 1 else float("nan"),
        results=tuple(results),
    )
