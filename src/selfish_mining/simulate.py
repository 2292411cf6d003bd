"""Seeded Monte Carlo execution of a policy on the block-arrival process,
run as independent adopt-to-adopt cycles.

Every ``adopt`` restarts the block race: whatever came before, the next
state is (1,0,irrelevant) with probability alpha and (0,1,irrelevant)
otherwise.  A run is therefore a chain of i.i.d. cycles, each ending with the
round in which the policy adopts.  On the truncation boundary
(max(a, h) = T) that adopt is the policy's own: it is the only feasible
action there, as in the pessimistic truncation the policies were solved on.
``override`` does not regenerate: it leads to (lead,0,irrelevant) or
(lead-1,1,relevant).

The step tables are read from the transition table the model builder uses
(:func:`selfish_mining.chain.transition_table`), and no model is built:
per state, the policy's three branches -- 0: attacker block, 1: honest block
winning a race for the attacker, 2: honest block otherwise -- and whether
the state's row adopts.  The policy must assign a feasible action at every
state it reaches on those branches.
One uniform u per round picks the branch: the attacker's block if
u < alpha, a won race if u < alpha + (1-alpha)*w(state), an honest block
otherwise, where w is the race win probability (zero where no race is live).
A cycle of L rounds uses L uniforms: the first picks its start state, as the
adopt that ended the previous cycle would, and the others the branches of
its first L-1 rounds; honest blocks are accepted only by the closing adopt.

Cycles run in blocks of S = min(BLOCK, rounds) cycles; a budget of r
rounds needs at most r cycles.  Block b of replica k reads the replica's
PCG64DXSM stream (seeded ``seed + k*stride``) from draw b * 2**64 on, so
blocks share no draw and can run in any order; at each step a block's live
cycles read its next draws in column order.  Blocks of every replica advance
in lockstep, one round per step, in a pool of CAPACITY cycles, one slot of
S cells per block, that a finished block leaves room in.  A replica's
cycles are concatenated in block order, and in column order within a
block, up to exactly ``rounds`` rounds.  The cycle that crosses the budget
keeps its own first r rounds: the lengths of its block's cycles tell which
draws it read, and it is walked again on those draws.  The result has the
same law as the chain run round by round, and a fixed seed fully
determines it, whatever the number of replicas or the pool's capacity.

``stderr`` is the regenerative ratio estimator's standard error over the
replica's n complete cycles (Crane & Iglehart 1975; Asmussen & Glynn 2007,
*Stochastic Simulation*, ch. IV).  With A_i attacker and Y_i = A_i + H_i
accepted blocks in cycle i, R = sum(A)/sum(Y),
sigma^2 = mean((A_i - R*Y_i)^2) and stderr = sigma / (mean(Y)*sqrt(n)); it is
NaN when n < 2 or mean(Y) = 0.  :func:`simulate_batch` is the one entry
point; a single run is a batch of one replica.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .chain import RACE_LOST, check_feasible, policy_closure, transition_table
from .model import Action, MiningParams, Policy

BLOCK = 2048  # cycles in a block, unless the budget is fewer rounds
BLOCK_DRAWS = 2**64  # stream draws set aside for each block
CAPACITY = 2**16  # cycles in flight: the pool has CAPACITY // block slots


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
    does not depend on the branch.  ``adopt`` marks the rows that end a
    cycle; every such row branches to the two start states.
    """

    next_state: np.ndarray  # (n, 3) grid index
    attacker: np.ndarray  # (n, 3) attacker blocks accepted
    honest: np.ndarray  # (n,) honest blocks accepted
    race_win_prob: np.ndarray  # (n,) zero where no race is live
    adopt: np.ndarray  # (n,) bool


def compile_step_tables(policy: Policy, params: MiningParams) -> StepTables:
    """Read the policy's branches out of the transition table, one row per
    state; the policy is rejected if it assigns an infeasible action
    anywhere it reaches."""
    T, actions = policy.T, policy.actions
    table = transition_table(params, T)
    check_feasible(table.feasible, actions, policy_closure(table, actions), T)
    next_state, kind, attacker, honest = table.rows(actions, np.arange(len(actions)))
    return StepTables(
        next_state=next_state.astype(np.int64),
        attacker=attacker.astype(np.int64),
        honest=honest[:, 0].astype(np.int64),
        race_win_prob=np.where(kind[:, 2] == RACE_LOST, params.race_win_prob, 0.0),
        adopt=actions == Action.ADOPT,
    )


class _Stream:
    """A replica's PCG64DXSM stream.  Block b reads it from draw
    b * BLOCK_DRAWS on, so blocks share no draw and may read in any
    interleaving.  PCG64DXSM, not PCG64: PCG64 streams that start a multiple
    of 2**64 draws apart are correlated."""

    def __init__(self, seed: int):
        self.generator = np.random.Generator(np.random.PCG64DXSM(seed))
        self.position = 0

    def read(self, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with the draws from ``start`` on."""
        if start != self.position:
            self.generator.bit_generator.advance((start - self.position) % 2**128)
        self.generator.random(out=out)
        self.position = start + len(out)


class _Pool:
    """Blocks of ``size`` cycles advanced in lockstep, one round per step.

    Slot j holds one block: it owns cells [j*size, (j+1)*size) of the result
    arrays and of ``uniform``, the block's window on its part of the stream.
    A block's live cycles stay contiguous and in column order, and at each
    step they read the window's next draws in that order, so the draws a
    cycle read can be found again from the lengths of its block's cycles.
    A window that runs short keeps its unread draws and is topped up from
    the stream.  A cycle leaves when its round lands on an adopt row, or
    after ``stop`` steps; its length and its attacker and honest blocks go
    to its cell.
    """

    def __init__(self, tables: StepTables, alpha: float, size: int, stop: int):
        # A cycle's place is kept as 3*state, the first of its state's three
        # branch rows; per-state tables are repeated to be read there too.
        self.alpha = alpha
        self.race_won = np.repeat(alpha + (1.0 - alpha) * tables.race_win_prob, 3)
        self.next_row = 3 * tables.next_state.ravel()
        self.gain = tables.attacker.ravel()
        self.honest = np.repeat(tables.honest, 3)
        self.adopt = np.repeat(tables.adopt, 3)
        # A new cycle sits on an adopt row: its first draw picks the start
        # state and earns nothing.
        self.origin = 3 * int(np.flatnonzero(tables.adopt)[0])
        self.size = size
        self.stop = stop
        slots = CAPACITY // size
        cells = slots * size
        # the live cycles, in pool order, fill the front of these
        self.count = 0
        self.row = np.empty(cells, np.int64)
        self.attacker = np.empty(cells, np.int64)
        self.slot = np.empty(cells, np.int64)
        self.cell = np.empty(cells, np.int64)
        self.position = np.arange(cells)
        self.ended_at = np.zeros(cells, np.int64)
        self.cell_attacker = np.zeros(cells, np.int64)
        self.cell_honest = np.zeros(cells, np.int64)
        self.uniform = np.empty(cells)
        self.free = list(range(slots))
        self.live = np.zeros(slots, np.int64)
        self.used = np.zeros(slots, np.int64)  # window draws already read
        self.offset = np.zeros(slots, np.int64)
        self.begun = np.zeros(slots, np.int64)
        self.stream: list[_Stream | None] = [None] * slots
        self.read_at = [0] * slots  # stream position of each window's next top-up
        self.order = np.empty(0, np.int64)  # slots in flight, in pool order
        self.steps = 0

    def admit(self, stream: _Stream, start: int) -> int:
        """Start a block of cycles reading ``stream`` from ``start`` on;
        returns its slot."""
        slot = self.free.pop()
        lo, hi = self.count, self.count + self.size
        self.row[lo:hi] = self.origin
        self.attacker[lo:hi] = 0
        self.slot[lo:hi] = slot
        self.cell[lo:hi] = np.arange(slot * self.size, (slot + 1) * self.size)
        self.count = hi
        self.live[slot] = self.size
        self.used[slot] = self.size  # an empty window
        self.begun[slot] = self.steps
        self.stream[slot] = stream
        self.read_at[slot] = start
        self.order = np.append(self.order, slot)
        return slot

    def release(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Free a finished block; returns its cycles' lengths and attacker
        and honest blocks, in column order."""
        cells = slice(slot * self.size, (slot + 1) * self.size)
        result = (
            self.ended_at[cells] - self.begun[slot],
            self.cell_attacker[cells].copy(),
            self.cell_honest[cells].copy(),
        )
        self._free(slot)
        return result

    def cancel(self, slots: list[int]) -> None:
        """Drop unfinished blocks unread."""
        self._keep(np.flatnonzero(~np.isin(self.slot[: self.count], slots)))
        self.order = self.order[~np.isin(self.order, slots)]
        for slot in slots:
            self._free(slot)

    def _free(self, slot: int) -> None:
        self.stream[slot] = None
        self.free.append(slot)

    def _keep(self, keep: np.ndarray, row: np.ndarray | None = None) -> None:
        """Compact the pool to the cycles at positions ``keep``."""
        count = len(keep)
        self.row[:count] = (self.row if row is None else row)[keep]
        self.attacker[:count] = self.attacker[keep]
        self.slot[:count] = self.slot[keep]
        self.cell[:count] = self.cell[keep]
        self.count = count

    def _branch(self, row: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The branch rows that draws ``u`` pick at the cycles' states:
        the attacker's block below alpha, a won race below ``race_won``,
        an honest block otherwise."""
        return row + (u >= self.alpha) + (u >= self.race_won[row])

    def step(self) -> np.ndarray:
        """Advance every live cycle one round; returns the slots whose blocks
        finished."""
        order, m, size = self.order, self.count, self.size
        live = self.live[order]
        for slot in order[self.used[order] + live > size].tolist():
            used = int(self.used[slot])
            window = self.uniform[slot * size : (slot + 1) * size]
            window[: size - used] = window[used:]
            self.stream[slot].read(self.read_at[slot], window[size - used :])
            self.read_at[slot] += used
            self.used[slot] = 0
        first = np.cumsum(live) - live  # each block's first pool position
        self.offset[order] = order * size + self.used[order] - first
        self.used[order] += live

        slot = self.slot[:m]
        u = self.uniform[self.offset[slot] + self.position[:m]]
        row = self._branch(self.row[:m], u)
        attacker = self.attacker[:m]
        attacker += self.gain[row]
        row = self.next_row[row]
        self.steps += 1

        end = self.adopt[row]
        due = order[self.begun[order] + self.stop == self.steps]
        if len(due):
            end |= np.isin(slot, due)
        gone = np.flatnonzero(end)
        cells = self.cell[gone]
        self.ended_at[cells] = self.steps
        self.cell_attacker[cells] = attacker[gone]
        self.cell_honest[cells] = self.honest[row[gone]]
        self.live -= np.bincount(slot[gone], minlength=len(self.live))
        self._keep(np.flatnonzero(~end), row)
        done = self.live[order] == 0
        self.order = order[~done]
        return order[done]

    def walk(self, draws: list[np.ndarray]) -> list[int]:
        """Attacker blocks of cycles fed the given draws, one sequence per
        cycle, stepped together."""
        if not draws:
            return []
        count = np.array([len(d) for d in draws])
        u = np.zeros((len(draws), count.max()))
        for k, d in enumerate(draws):
            u[k, : len(d)] = d
        row = np.full(len(draws), self.origin)
        attacker = np.zeros(len(draws), np.int64)
        for t in range(u.shape[1]):
            row = self._branch(row, u[:, t])
            attacker += self.gain[row] * (t < count)
            row = self.next_row[row]
        return attacker.tolist()


def _cut_draws(
    stream: _Stream, start: int, lengths: np.ndarray, column: int, kept: int
) -> np.ndarray:
    """The draws that cycle ``column`` of a block read in its first ``kept``
    rounds (kept + 1 steps).  At step t the block's live cycles, those of
    length at least t, read the next draws in column order."""
    steps = np.arange(1, kept + 2)
    live = len(lengths) - np.searchsorted(np.sort(lengths), steps)
    ahead = column - np.searchsorted(np.sort(lengths[:column]), steps)
    read = np.cumsum(live) - live + ahead
    draws = np.empty(int(read[-1]) + 1)
    stream.read(start, draws)
    return draws[read]


class _Run:
    """One replica: its blocks are folded in order until the budget is spent."""

    def __init__(self, seed: int, rounds: int):
        self.seed = seed
        self.stream = _Stream(seed)
        self.rounds = rounds
        self.remaining = rounds
        self.blocks_seen = 0  # blocks finished and the rounds they ran
        self.rounds_seen = 0
        self.admitted = 0
        self.slots: set[int] = set()  # the pool's slots running this run's blocks
        self.queued = True
        self.folded = 0
        self.finished: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.pending_rounds = 0
        self.cut: np.ndarray | None = None  # draws of the cycle cut at the budget
        self.cut_attacker = 0
        self.done = False
        # sums over complete cycles of the products of (1, A, Y): attacker
        # blocks A and accepted blocks Y = A + H of each cycle
        self.sums = np.zeros((3, 3), np.int64)

    def wants_block(self) -> bool:
        """Whether the blocks finished or in flight are expected to fall
        short of the budget; until one block has finished, one is wanted."""
        if self.done:
            return False
        if not self.blocks_seen:
            return self.admitted == 0
        expected = self.rounds_seen / self.blocks_seen
        return self.pending_rounds + len(self.slots) * expected < self.remaining

    def finish(self, block: int, lengths, attacker, honest) -> None:
        """Take a finished block and fold what is in order: whole blocks
        while they fit the budget, then the block that crosses it."""
        total = int(lengths.sum())
        self.blocks_seen += 1
        self.rounds_seen += total
        self.finished[block] = (lengths, attacker, honest)
        self.pending_rounds += total
        while self.folded in self.finished:
            lengths, attacker, honest = self.finished.pop(self.folded)
            total = int(lengths.sum())
            self.pending_rounds -= total
            if total < self.remaining:
                self._count(attacker, honest)
                self.remaining -= total
                self.folded += 1
                continue
            ends = np.cumsum(lengths)
            column = int(np.searchsorted(ends, self.remaining))
            complete = column + int(ends[column] == self.remaining)
            self._count(attacker[:complete], honest[:complete])
            if complete == column:
                kept = self.remaining - (int(ends[column - 1]) if column else 0)
                start = self.folded * BLOCK_DRAWS
                self.cut = _cut_draws(self.stream, start, lengths, column, kept)
            self.done = True
            return

    def _count(self, attacker: np.ndarray, honest: np.ndarray) -> None:
        terms = np.stack([np.ones_like(attacker), attacker, attacker + honest])
        self.sums += terms @ terms.T

    def result(self) -> SimResult:
        (n, sa, sy), (_, saa, say), (_, _, syy) = self.sums.tolist()
        # the cut cycle's rounds accept attacker blocks only
        attacker, accepted = sa + self.cut_attacker, sy + self.cut_attacker
        return SimResult(
            attacker_blocks=attacker,
            honest_blocks=accepted - attacker,
            rev=attacker / accepted if accepted else float("nan"),
            rounds=self.rounds,
            seed=self.seed,
            stderr=_ratio_stderr(n, sa, sy, saa, say, syy),
        )


def _ratio_stderr(n: int, sa: int, sy: int, saa: int, say: int, syy: int) -> float:
    """sigma / (mean(Y) sqrt(n)) with sigma^2 = mean((A - R*Y)^2) and
    R = sa/sy, which is sqrt(q)/sy^2 with q below, exact in integers."""
    if n < 2 or sy == 0:
        return float("nan")
    q = saa * sy * sy - 2 * sa * sy * say + sa * sa * syy
    return math.sqrt(q) / (sy * sy)


def _run_blocks(
    tables: StepTables, alpha: float, rounds: int, seeds: list[int]
) -> list[_Run]:
    """Run every replica's blocks in one pool until each budget is spent."""
    pool = _Pool(tables, alpha, min(BLOCK, rounds), stop=rounds + 1)
    runs = [_Run(seed, rounds) for seed in seeds]
    owner: dict[int, tuple[_Run, int]] = {}  # slot -> run, block
    waiting = deque(runs)  # runs that may want another block, in turn
    unfinished = len(runs)
    while unfinished:
        while waiting and pool.free:
            run = waiting[0]
            if not run.wants_block():
                waiting.popleft()
                run.queued = False
                continue
            slot = pool.admit(run.stream, run.admitted * BLOCK_DRAWS)
            owner[slot] = (run, run.admitted)
            run.admitted += 1
            run.slots.add(slot)
            waiting.rotate(-1)
        if not pool.count:
            raise RuntimeError("no cycle in flight before every budget was spent")
        for slot in pool.step().tolist():
            if slot not in owner:  # cancelled earlier in this loop
                continue
            run, block = owner.pop(slot)
            run.slots.remove(slot)
            run.finish(block, *pool.release(slot))
            if run.done:
                unfinished -= 1
                if run.slots:  # blocks past the budget
                    pool.cancel(list(run.slots))
                    for cancelled in run.slots:
                        del owner[cancelled]
            elif not run.queued:
                waiting.append(run)
                run.queued = True
    cut = [run for run in runs if run.cut is not None]
    for run, attacker in zip(cut, pool.walk([run.cut for run in cut])):
        run.cut_attacker = attacker
    return runs


def simulate_batch(
    config: SimConfig, replicas: int, seed_stride: int = 1
) -> SimBatch:
    """Independent replicas with seeds ``seed + k*stride``, run in lockstep;
    deterministic for a fixed seed.  ``std_rev`` is NaN for one replica."""
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1 (got {replicas})")
    tables = compile_step_tables(config.policy, config.params)
    seeds = [config.seed + k * seed_stride for k in range(replicas)]
    runs = _run_blocks(tables, config.params.alpha, config.rounds, seeds)
    results = tuple(run.result() for run in runs)
    revs = np.array([r.rev for r in results])
    return SimBatch(
        mean_rev=float(revs.mean()),
        std_rev=float(revs.std(ddof=1)) if replicas > 1 else float("nan"),
        results=results,
    )
