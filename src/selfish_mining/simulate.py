"""Seeded Monte Carlo execution of a policy on the block-arrival process.

The simulator reads the same transition table as the model builder
(:func:`selfish_mining.chain.transition_table`); per state it takes the
policy's row of it, three branch targets -- attacker block, honest block
winning a race for the attacker, honest block otherwise -- so a round is two
uniform draws: block ownership first, then the race outcome (the second draw
happens every round and is ignored when no race is live, keeping the stream
layout fixed).  Generators are numpy PCG64 (period 2^128), one independent
stream per replica, seeded with ``seed + k*stride``; a fixed seed fully
determines the run.

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
    """Per-state branch targets and rewards for a fixed policy.

    The honest-block reward is branch-independent, and the attacker reward
    only differs on a won race, so two reward tables per side suffice.
    """

    next_attacker: np.ndarray
    next_race_win: np.ndarray
    next_race_lose: np.ndarray
    race_win_prob: np.ndarray
    attacker_reward_base: np.ndarray  # attacker blocks on non-winning branches
    attacker_reward_win: np.ndarray
    honest_reward: np.ndarray


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
    nxt, attacker = (
        np.ascontiguousarray(column[actions, states].T, dtype=np.int64)
        for column in (table.next_state, table.attacker)
    )
    return StepTables(
        next_attacker=nxt[0],
        next_race_win=nxt[1],
        next_race_lose=nxt[2],
        race_win_prob=np.where(
            table.race[actions, states], model.params.race_win_prob, 0.0
        ),
        attacker_reward_base=attacker[0],
        attacker_reward_win=attacker[1],
        honest_reward=table.honest[actions, states, 0].astype(np.int64),
    )


def _run_replicas(
    tables: StepTables,
    params: MiningParams,
    rounds: int,
    seeds: list[int],
    batches: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run all replicas in lockstep.  Returns per-replica attacker totals,
    honest totals, and per-replica batch revenue matrices."""
    alpha = params.alpha
    m = len(seeds)
    gens = [np.random.default_rng(s) for s in seeds]

    n = tables.next_attacker.shape[0]
    T = int(round((n // 3) ** 0.5)) - 1
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
        for t in range(span):
            u_own = draws[:, t, 0]
            u_race = draws[:, t, 1]
            att = u_own < alpha
            win = ~att & (u_race < tables.race_win_prob[state])
            nxt = np.where(
                att,
                tables.next_attacker[state],
                np.where(win, tables.next_race_win[state], tables.next_race_lose[state]),
            )
            attacker += np.where(
                win, tables.attacker_reward_win[state], tables.attacker_reward_base[state]
            )
            honest += tables.honest_reward[state]
            state = nxt
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
        tables, config.params, config.rounds, seeds, batches
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


def simulate_policy(config: SimConfig) -> SimResult:
    """Run one seeded simulation; deterministic for a fixed seed."""
    return _simulate(config, [config.seed])[0]


def simulate_batch(
    config: SimConfig, replicas: int, seed_stride: int = 1
) -> SimBatch:
    """Independent replicas with seeds ``seed + k*stride``, run in lockstep."""
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2 (got {replicas})")
    results = _simulate(
        config, [config.seed + k * seed_stride for k in range(replicas)]
    )
    revs = np.array([r.rev for r in results])
    return SimBatch(
        mean_rev=float(revs.mean()),
        std_rev=float(revs.std(ddof=1)),
        results=tuple(results),
    )
