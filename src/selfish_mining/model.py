"""Domain types for the block-withholding decision process.

The attacker secretly extends its own branch while the honest network mines on
the public chain.  A state is a triple ``(a, h, fork)``: the length of the
attacker's secret branch, the length of the honest branch since the last
common block, and a fork label saying whether a block race is possible
(``relevant``), impossible (``irrelevant``), or already underway (``active``).
Four actions are available: ``adopt`` (give up and accept the honest chain),
``override`` (publish a strictly longer chain), ``match`` (publish an
equal-length chain, starting a race), and ``wait`` (keep mining privately).

Everything here is immutable and safe to share across workers.
"""

from __future__ import annotations

import math
import os
import resource
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable

import numpy as np

# Peak resident memory per grid state of an ``optimize`` run, which holds
# the transition table, the stacked class operator, a sparse LU and the
# value-iteration arrays at once, interpreter included.  Over the 189,003
# states of T=250 at alpha=0.45, in separate runs solved on the fork-label
# classes, it was 138-141 MB at gamma=0 (about 0.75 kB a state; a third as
# many classes as states) and 189 MB at gamma=0.5 (about 1.0 kB; two thirds).
# Each added state costs less, so at the large T this rejects the figure
# errs on the side of caution.
BYTES_PER_STATE = 1300


class Fork(IntEnum):
    """Fork label of a chain state.

    ``RELEVANT`` means the most recent block was honest, so an equal-length
    attacker chain could still race it.  ``IRRELEVANT`` means the attacker
    mined last (or the honest tip already propagated), so a match is
    ineffective.  ``ACTIVE`` means the honest network is currently split by an
    earlier match.
    """

    IRRELEVANT = 0
    RELEVANT = 1
    ACTIVE = 2


class Action(IntEnum):
    """Attacker actions.  Solver tie-breaks prefer the lowest ordinal."""

    ADOPT = 0
    OVERRIDE = 1
    MATCH = 2
    WAIT = 3


class Variant(str, Enum):
    """Protocol variant: standard tie handling, or uniform tie breaking
    where honest nodes accept an equal-length chain with probability 1/2."""

    STANDARD = "standard"
    UNIFORM_TIE_BREAK = "uniform"


@dataclass(frozen=True)
class MiningParams:
    """Attack parameters.

    alpha: attacker's fraction of total hashrate, in (0, 0.5).  Values at or
        above 0.5 are rejected everywhere; the over-paying boundary rewards
        divide by (1 - 2*alpha).
    gamma: fraction of honest hashrate that mines on the attacker's chain
        during a tie race, in [0, 1].  Ignored under uniform tie breaking.
    variant: protocol variant.
    """

    alpha: float
    gamma: float
    variant: Variant = Variant.STANDARD

    def __post_init__(self) -> None:
        if not self.alpha < 0.5:
            raise ValueError(f"alpha must be < 0.5 (got {self.alpha})")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0 (got {self.alpha})")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1] (got {self.gamma})")
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))

    @property
    def race_win_prob(self) -> float:
        """Effective probability that honest power extends the attacker's
        chain during a tie race: gamma normally, exactly 1/2 under uniform
        tie breaking."""
        if self.variant is Variant.UNIFORM_TIE_BREAK:
            return 0.5
        return self.gamma


@dataclass(frozen=True)
class ChainState:
    """State of the fork: secret-branch length, honest-branch length, label."""

    a: int
    h: int
    fork: Fork

    def __post_init__(self) -> None:
        if self.a < 0 or self.h < 0:
            raise ValueError(f"chain lengths must be nonnegative (got {self})")


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform gives no figure."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if memory > 0 else None


def memory_ceiling() -> int | None:
    """Bytes a run may fill: the smaller of physical memory and the
    process's soft address-space limit (``RLIMIT_AS``) where one is set, or
    None where neither gives a figure."""
    memory = physical_memory()
    soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        memory = soft if memory is None else min(memory, soft)
    return memory


def max_truncation() -> int:
    """Largest T whose 3(T+1)^2 grid states fit in :func:`memory_ceiling`
    at ``BYTES_PER_STATE`` each; unbounded where the memory is unknown."""
    memory = memory_ceiling()
    if memory is None:
        return sys.maxsize
    return math.isqrt(memory // (3 * BYTES_PER_STATE)) - 1


def _check_truncation(T: int) -> None:
    """Reject a truncation off the grid's minimum or past what the machine's
    memory can hold, before anything of that size is allocated."""
    if T < 1:
        raise ValueError(
            f"truncation must be >= 1 (got {T}); the initial states (1,0) and"
            " (0,1) need room on the grid"
        )
    limit = max_truncation()
    if T > limit:
        need = 3 * (T + 1) ** 2 * BYTES_PER_STATE
        raise ValueError(
            f"truncation must be <= {limit} (got {T}): its {3 * (T + 1) ** 2}"
            f" states need about {need / 2**30:.1f} GiB at {BYTES_PER_STATE}"
            f" bytes each, more than the {memory_ceiling() / 2**30:.1f} GiB"
            " of physical memory, or of address space where the process's"
            " limit is lower"
        )


def num_states(T: int) -> int:
    """Size of the truncated grid {0..T} x {0..T} x {3 fork labels}."""
    _check_truncation(T)
    return 3 * (T + 1) * (T + 1)


def state_index(state: ChainState, T: int) -> int:
    """Dense index of a state: fork + 3*(h + (T+1)*a)."""
    if state.a > T or state.h > T:
        raise ValueError(f"{state} lies outside the grid for T={T}")
    return int(state.fork) + 3 * (state.h + (T + 1) * state.a)


def state_at(index: int, T: int) -> ChainState:
    """Inverse of :func:`state_index`."""
    if not 0 <= index < num_states(T):
        raise ValueError(f"index {index} out of range for T={T}")
    fork = Fork(index % 3)
    rest = index // 3
    return ChainState(rest // (T + 1), rest % (T + 1), fork)


def grid_coordinates(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, h, fork)`` of every grid state, in index order."""
    index = np.arange(num_states(T))
    rest = index // 3
    return rest // (T + 1), rest % (T + 1), index % 3


def initial_states(T: int) -> tuple[int, int]:
    """Indices of the two start states (1,0,irrelevant) and (0,1,irrelevant)."""
    return (
        state_index(ChainState(1, 0, Fork.IRRELEVANT), T),
        state_index(ChainState(0, 1, Fork.IRRELEVANT), T),
    )


def upper_bound_revenue(alpha: float) -> float:
    """Closed-form ceiling alpha/(1-alpha) on the attacker's relative revenue:
    each attacker block can orphan at most one honest block."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must be in [0, 0.5) (got {alpha})")
    return alpha / (1.0 - alpha)


# object dtype: indexing hands out these four str objects, not new strings
ACTION_NAMES = np.array([action.name.lower() for action in Action], dtype=object)

# a policy stated on the whole grid: (a, h, fork) arrays -> action ordinals
GridRule = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Policy:
    """A total mapping from grid states to actions, with the parameters the
    policy was produced for carried along as provenance."""

    T: int
    actions: np.ndarray  # int8 ordinals, one per grid state in index order
    alpha: float | None = None
    gamma: float | None = None
    variant: Variant | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        expected = num_states(self.T)
        if len(self.actions) != expected:
            raise ValueError(
                f"policy has {len(self.actions)} entries, grid for T={self.T}"
                f" needs {expected}"
            )
        arr = np.asarray(self.actions, dtype=np.int8)
        if arr.min() < 0 or arr.max() > max(Action):
            raise ValueError("policy contains an unknown action ordinal")
        arr.flags.writeable = False
        object.__setattr__(self, "actions", arr)

    @classmethod
    def tabulate(
        cls,
        rule: GridRule,
        T: int,
        params: MiningParams | None = None,
        label: str | None = None,
    ) -> "Policy":
        """Materialize a grid rule, ``rule(a, h, fork) -> action ordinals``
        evaluated once on :func:`grid_coordinates`.  Truncation-boundary
        states (max(a,h) = T) are forced to adopt, mirroring the truncated
        process where adopting is the only action left there."""
        a, h, fork = grid_coordinates(T)
        actions = np.where(np.maximum(a, h) == T, Action.ADOPT, rule(a, h, fork))
        return cls(
            T=T,
            actions=actions,
            alpha=params.alpha if params else None,
            gamma=params.gamma if params else None,
            variant=params.variant if params else None,
            label=label,
        )

    def to_json_dict(self) -> dict:
        data: dict = {
            "T": self.T,
            "actions": ACTION_NAMES[self.actions].tolist(),
        }
        if self.alpha is not None:
            data["alpha"] = self.alpha
        if self.gamma is not None:
            data["gamma"] = self.gamma
        if self.variant is not None:
            data["variant"] = self.variant.value
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Policy":
        """Inverse of :meth:`to_json_dict`; raises ``ValueError`` naming the
        field when the document does not have that shape."""
        if not isinstance(data, dict):
            raise ValueError(f"policy JSON must be an object, not {type(data).__name__}")
        T, names = data.get("T"), data.get("actions")
        if isinstance(T, bool) or not isinstance(T, int):
            raise ValueError(f"policy field 'T' must be an integer (got {T!r})")
        if not isinstance(names, list):
            raise ValueError(f"policy field 'actions' must be a list (got {names!r})")
        given = np.fromiter(names, dtype=object, count=len(names))
        actions = np.full(len(names), -1, dtype=np.int8)
        for ordinal, name in enumerate(ACTION_NAMES):
            actions[given == name] = ordinal
        unknown = np.flatnonzero(actions < 0)
        if len(unknown):
            raise ValueError(f"unknown action {given[unknown[0]]!r}")
        for field in ("alpha", "gamma"):
            value = data.get(field)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(f"policy field {field!r} must be a number (got {value!r})")
        label = data.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError(f"policy field 'label' must be a string (got {label!r})")
        try:
            variant = Variant(data["variant"]) if "variant" in data else None
        except ValueError:
            raise ValueError(
                f"policy field 'variant' must be one of"
                f" {[v.value for v in Variant]} (got {data['variant']!r})"
            ) from None
        return cls(
            T=T,
            actions=actions,
            alpha=data.get("alpha"),
            gamma=data.get("gamma"),
            variant=variant,
            label=label,
        )


def honest_rule(a: np.ndarray, h: np.ndarray, fork: np.ndarray) -> np.ndarray:
    """The protocol-following policy: publish a longer chain immediately,
    abandon a shorter one, wait on ties."""
    return np.select([h > a, a > h], [Action.ADOPT, Action.OVERRIDE], Action.WAIT)


def sm1_rule(a: np.ndarray, h: np.ndarray, fork: np.ndarray) -> np.ndarray:
    """The classic one-block-withholding strategy.

    Matches at (1,1) only when the fork is relevant; the race is impossible
    otherwise, and under the standard protocol (1,1) is never entered with a
    different label, so waiting there is a harmless total extension.
    """
    return np.select(
        [h > a, (a == 1) & (h == 1) & (fork == Fork.RELEVANT), (h == a - 1) & (h >= 1)],
        [Action.ADOPT, Action.MATCH, Action.OVERRIDE],
        Action.WAIT,
    )


BUILTIN_POLICIES: dict[str, GridRule] = {
    "honest": honest_rule,
    "sm1": sm1_rule,
}


def builtin_policy(name: str, T: int, params: MiningParams) -> Policy:
    """Materialize one of the named reference policies onto a grid."""
    try:
        rule = BUILTIN_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; built-ins are {sorted(BUILTIN_POLICIES)}"
        ) from None
    return Policy.tabulate(rule, T, params, label=name)

