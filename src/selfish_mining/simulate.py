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

Cycles run in blocks.  Block b of replica k is a fixed number of cycles
that read the replica's PCG64 stream (seeded ``seed + k*stride``) from draw
b * 2**64 on, so blocks share no draw and can run in any order; at each
step a block's live cycles read its next draws in column order.  A
replica's first block, of at most PILOT cycles, sizes its later blocks from
the budget and its mean cycle length.  Blocks of every replica advance in
lockstep, one round per step, in a pool of fixed size that a finished block
leaves room in.  A replica's cycles are concatenated in block order, and in
column order within a block, up to exactly ``rounds`` rounds.  The cycle
that crosses the budget keeps its own first r rounds: the lengths of its
block's cycles tell which draws it read, and it is walked again on those
draws.  The result has the same law as the chain run round by round, and a
fixed seed fully determines it, whatever the number of replicas.

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

from .chain import check_feasible, policy_closure, transition_table
from .model import Action, MiningParams, Policy

PILOT = 256  # cycles in a replica's first block
BLOCKS_PER_RUN = 8  # later blocks each fill about 1/8 of the budget
BLOCK_DRAWS = 2**64  # stream draws set aside for each block
MAX_BLOCK = 2048  # cycles in one block
PAGE = 64  # result cells per page of result storage
PAGES = 2048  # pages of result storage; PAGE * PAGES also caps the live cycles
JOBS = 1024  # blocks in flight at once
BUFFER = 256  # draws buffered per block in flight


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
    """Read the policy's branches out of the transition table; the policy
    is rejected if it assigns an infeasible action anywhere it reaches."""
    T, actions = policy.T, policy.actions
    table = transition_table(params, T)
    check_feasible(table.feasible, actions, policy_closure(table, actions, T), T)
    states = np.arange(len(actions))
    return StepTables(
        next_state=table.next_state[actions, states].astype(np.int64),
        attacker=table.attacker[actions, states].astype(np.int64),
        honest=table.honest[actions, states, 0].astype(np.int64),
        race_win_prob=np.where(table.race[actions, states], params.race_win_prob, 0.0),
        adopt=actions == Action.ADOPT,
    )


class _Stream:
    """A replica's PCG64 stream.  Block b reads it from draw b * BLOCK_DRAWS
    on, so blocks share no draw and may read in any interleaving."""

    def __init__(self, seed: int):
        self.generator = np.random.Generator(np.random.PCG64(seed))
        self.position = 0

    def read(self, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with the draws from ``start`` on."""
        if start != self.position:
            self.generator.bit_generator.advance((start - self.position) % 2**128)
        self.generator.random(out=out)
        self.position = start + len(out)


class _Pool:
    """Blocks of cycles advanced in lockstep, one round per step.

    A block's live cycles stay contiguous and in column order, and at each
    step they read the next draws of the block's part of the stream in that
    order, so the draws a cycle read can be found again from the lengths of
    its block's cycles.  A block reads from a buffer of BUFFER draws, or
    straight into place while more than half a buffer of its cycles is live.
    A cycle leaves when its round lands on an adopt row, or after ``stop``
    steps; its length and its attacker and honest blocks go to its result
    cell.
    """

    def __init__(self, tables: StepTables, alpha: float, stop: int):
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
        self.stop = stop
        cells = PAGE * PAGES
        self.size = 0
        self.row = np.empty(cells, np.int64)
        self.attacker = np.empty(cells, np.int64)
        self.job = np.empty(cells, np.int64)
        self.cell = np.empty(cells, np.int64)
        self.position = np.arange(cells)
        self.ended_at = np.zeros(cells, np.int64)
        self.cell_attacker = np.zeros(cells, np.int64)
        self.cell_honest = np.zeros(cells, np.int64)
        self.free_pages = list(range(PAGES))
        # per-job buffers, then the draws read straight into place this step
        self.uniform = np.empty(JOBS * BUFFER + cells)
        self.free_jobs = list(range(JOBS))
        self.live = np.zeros(JOBS, np.int64)
        self.used = np.zeros(JOBS, np.int64)
        self.offset = np.zeros(JOBS, np.int64)
        self.begun = np.zeros(JOBS, np.int64)
        self.stream: list[_Stream | None] = [None] * JOBS
        self.read_at = [0] * JOBS  # stream position of each job's next read
        self.cells: list[np.ndarray] = [np.empty(0, np.int64)] * JOBS
        self.order = np.empty(0, np.int64)  # jobs in flight, in pool order
        self.steps = 0

    def fits(self, size: int) -> bool:
        return bool(self.free_jobs) and len(self.free_pages) * PAGE >= size

    def admit(self, stream: _Stream, start: int, size: int) -> int:
        """Start ``size`` cycles reading ``stream`` from ``start`` on;
        returns the block's job id."""
        job = self.free_jobs.pop()
        pages = [self.free_pages.pop() for _ in range(-(-size // PAGE))]
        cells = (np.array(pages)[:, None] * PAGE + np.arange(PAGE)).ravel()[:size]
        lo, hi = self.size, self.size + size
        self.row[lo:hi] = self.origin
        self.attacker[lo:hi] = 0
        self.job[lo:hi] = job
        self.cell[lo:hi] = cells
        self.size = hi
        self.live[job] = size
        self.used[job] = BUFFER  # an empty buffer
        self.begun[job] = self.steps
        self.stream[job] = stream
        self.read_at[job] = start
        self.cells[job] = cells
        self.order = np.append(self.order, job)
        return job

    def release(self, job: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Free a finished block; returns its cycles' lengths and attacker
        and honest blocks, in column order."""
        cells = self.cells[job]
        result = (
            self.ended_at[cells] - self.begun[job],
            self.cell_attacker[cells],
            self.cell_honest[cells],
        )
        self._free(job)
        return result

    def cancel(self, jobs: list[int]) -> None:
        """Drop unfinished blocks unread."""
        self._keep(np.flatnonzero(~np.isin(self.job[: self.size], jobs)))
        self.live[jobs] = 0
        self.order = self.order[~np.isin(self.order, jobs)]
        for job in jobs:
            self._free(job)

    def _free(self, job: int) -> None:
        self.free_pages.extend((self.cells[job][::PAGE] // PAGE).tolist())
        self.stream[job] = None
        self.free_jobs.append(job)

    def _keep(self, keep: np.ndarray, row: np.ndarray | None = None) -> None:
        """Compact the pool to the cycles at positions ``keep``."""
        size = len(keep)
        self.row[:size] = (self.row if row is None else row)[keep]
        self.attacker[:size] = self.attacker[keep]
        self.job[:size] = self.job[keep]
        self.cell[:size] = self.cell[keep]
        self.size = size

    def _branch(self, row: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The branch rows that draws ``u`` pick at the cycles' states:
        the attacker's block below alpha, a won race below ``race_won``,
        an honest block otherwise."""
        return row + (u >= self.alpha) + (u >= self.race_won[row])

    def _read(self, job: int, at: int, count: int) -> None:
        self.stream[job].read(self.read_at[job], self.uniform[at : at + count])
        self.read_at[job] += count

    def step(self) -> np.ndarray:
        """Advance every live cycle one round; returns the jobs whose blocks
        finished."""
        order, m = self.order, self.size
        live = self.live[order]
        first = np.cumsum(live) - live  # each job's first pool position
        base = order * BUFFER + self.used[order]  # each job's next draw
        for p in np.flatnonzero(self.used[order] + live > BUFFER).tolist():
            job, count = int(order[p]), int(live[p])
            if 2 * count > BUFFER:
                base[p] = JOBS * BUFFER + first[p]
                self._read(job, base[p], count)
                self.used[job] = BUFFER - count  # the buffer stays empty
            else:  # move the unread draws to the front and top up
                lo, used = job * BUFFER, int(self.used[job])
                unread = self.uniform[lo + used : lo + BUFFER]
                self.uniform[lo : lo + BUFFER - used] = unread
                self._read(job, lo + BUFFER - used, used)
                base[p] = lo
                self.used[job] = 0
        self.offset[order] = base - first
        self.used[order] += live

        job = self.job[:m]
        u = self.uniform[self.offset[job] + self.position[:m]]
        row = self._branch(self.row[:m], u)
        attacker = self.attacker[:m]
        attacker += self.gain[row]
        row = self.next_row[row]
        self.steps += 1

        end = self.adopt[row]
        due = order[self.begun[order] + self.stop == self.steps]
        if len(due):
            end |= np.isin(job, due)
        gone = np.flatnonzero(end)
        cells = self.cell[gone]
        self.ended_at[cells] = self.steps
        self.cell_attacker[cells] = attacker[gone]
        self.cell_honest[cells] = self.honest[row[gone]]
        self.live -= np.bincount(job[gone], minlength=JOBS)
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
        self.block = 0  # cycles in each block after the first, set by it
        self.cycles_seen = 0  # cycles and rounds of the finished blocks
        self.rounds_seen = 0
        self.admitted = 0
        self.jobs: set[int] = set()  # the pool's jobs running this run's blocks
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

    def size(self, block: int) -> int:
        # A budget of r rounds needs at most r cycles.
        return min(PILOT, self.rounds) if block == 0 else self.block

    def wants_block(self) -> bool:
        """Whether the blocks finished or in flight are expected to fall
        short of the budget."""
        if self.done:
            return False
        if self.admitted == 0:
            return True
        if not self.block:
            return False
        expected = self.block * self.rounds_seen / self.cycles_seen
        return self.pending_rounds + len(self.jobs) * expected < self.remaining

    def finish(self, block: int, lengths, attacker, honest) -> None:
        """Take a finished block and fold what is in order: whole blocks
        while they fit the budget, then the block that crosses it."""
        total = int(lengths.sum())
        if block == 0:
            mean = total / len(lengths)
            self.block = min(
                MAX_BLOCK, max(PILOT, math.ceil(self.rounds / (BLOCKS_PER_RUN * mean)))
            )
        self.cycles_seen += len(lengths)
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
    pool = _Pool(tables, alpha, stop=rounds + 1)
    runs = [_Run(seed, rounds) for seed in seeds]
    owner: dict[int, tuple[_Run, int]] = {}  # job -> run, block
    waiting = deque(runs)  # runs that may want another block, in turn
    unfinished = len(runs)
    while unfinished:
        while waiting:
            run = waiting[0]
            if not run.wants_block():
                waiting.popleft()
                run.queued = False
                continue
            size = run.size(run.admitted)
            if not pool.fits(size):
                break
            job = pool.admit(run.stream, run.admitted * BLOCK_DRAWS, size)
            owner[job] = (run, run.admitted)
            run.admitted += 1
            run.jobs.add(job)
            waiting.rotate(-1)
        if not pool.size:
            raise RuntimeError("no cycle in flight before every budget was spent")
        for job in pool.step().tolist():
            if job not in owner:  # cancelled earlier in this loop
                continue
            run, block = owner.pop(job)
            run.jobs.remove(job)
            run.finish(block, *pool.release(job))
            if run.done:
                unfinished -= 1
                if run.jobs:  # blocks past the budget
                    pool.cancel(list(run.jobs))
                    for j in run.jobs:
                        del owner[j]
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
