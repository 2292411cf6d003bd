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

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, NamedTuple

import numpy as np

MAX_TRUNCATION = 10_000


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


class RewardPair(NamedTuple):
    """Blocks permanently accepted on a transition, attacker and honest."""

    attacker: int
    honest: int


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
        if self.alpha >= 0.5:
            raise ValueError(f"alpha must be < 0.5 (got {self.alpha})")
        if self.alpha <= 0.0:
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

    def to_json_dict(self) -> dict:
        return {"a": self.a, "h": self.h, "fork": self.fork.name.lower()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainState":
        return cls(int(data["a"]), int(data["h"]), Fork[data["fork"].upper()])


def _check_truncation(T: int) -> None:
    if T < 1:
        raise ValueError(
            f"truncation must be >= 1 (got {T}); the initial states (1,0) and"
            " (0,1) need room on the grid"
        )
    if T > MAX_TRUNCATION:
        raise ValueError(f"truncation must be <= {MAX_TRUNCATION} (got {T})")


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


def enumerate_states(T: int) -> list[ChainState]:
    """All grid states in index order; the first element is (0,0,irrelevant)."""
    _check_truncation(T)
    return [
        ChainState(a, h, fork)
        for a in range(T + 1)
        for h in range(T + 1)
        for fork in Fork
    ]


def initial_states(T: int) -> tuple[int, int]:
    """Indices of the two start states (1,0,irrelevant) and (0,1,irrelevant)."""
    return (
        state_index(ChainState(1, 0, Fork.IRRELEVANT), T),
        state_index(ChainState(0, 1, Fork.IRRELEVANT), T),
    )


def feasible_actions(state: ChainState, params: MiningParams) -> frozenset[Action]:
    """Actions available at an interior state (max(a,h) below the truncation;
    truncation-boundary states are restricted separately by the model builder).

    Adopt and wait are always available.  Override needs a strictly longer
    secret branch.  Match needs a >= h and a live race opportunity: a relevant
    fork, or any non-active fork under uniform tie breaking (honest nodes then
    accept a late equal-length chain with probability 1/2, so no block needs
    to be prepared in advance).
    """
    actions = {Action.ADOPT, Action.WAIT}
    if state.a > state.h:
        actions.add(Action.OVERRIDE)
    if state.a >= state.h:
        if state.fork is Fork.RELEVANT:
            actions.add(Action.MATCH)
        elif (
            state.fork is Fork.IRRELEVANT
            and params.variant is Variant.UNIFORM_TIE_BREAK
        ):
            actions.add(Action.MATCH)
    return frozenset(actions)


def honest_policy(state: ChainState) -> Action:
    """The protocol-following policy: publish a longer chain immediately,
    abandon a shorter one, wait on ties."""
    if state.h > state.a:
        return Action.ADOPT
    if state.a > state.h:
        return Action.OVERRIDE
    return Action.WAIT


def sm1_policy(state: ChainState) -> Action:
    """The classic one-block-withholding strategy.

    Matches at (1,1) only when the fork is relevant; the race is impossible
    otherwise, and under the standard protocol (1,1) is never entered with a
    different label, so waiting there is a harmless total extension.
    """
    if state.h > state.a:
        return Action.ADOPT
    if state.a == state.h == 1:
        return Action.MATCH if state.fork is Fork.RELEVANT else Action.WAIT
    if state.h == state.a - 1 and state.h >= 1:
        return Action.OVERRIDE
    return Action.WAIT


def upper_bound_revenue(alpha: float) -> float:
    """Closed-form ceiling alpha/(1-alpha) on the attacker's relative revenue:
    each attacker block can orphan at most one honest block."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must be in [0, 0.5) (got {alpha})")
    return alpha / (1.0 - alpha)


_ACTION_NAMES = {action: action.name.lower() for action in Action}
_ACTIONS_BY_NAME = {name: action for action, name in _ACTION_NAMES.items()}


def action_name(action: Action) -> str:
    return _ACTION_NAMES[Action(action)]


def action_from_name(name: str) -> Action:
    try:
        return _ACTIONS_BY_NAME[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown action {name!r}") from None


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
        rule: Callable[[ChainState], Action],
        T: int,
        params: MiningParams | None = None,
        label: str | None = None,
    ) -> "Policy":
        """Materialize a per-state rule onto the grid.  Truncation-boundary
        states (max(a,h) = T) are forced to adopt, mirroring the truncated
        process where adopting is the only action left there."""
        actions = np.empty(num_states(T), dtype=np.int8)
        for idx, state in enumerate(enumerate_states(T)):
            if max(state.a, state.h) == T:
                actions[idx] = Action.ADOPT
            else:
                actions[idx] = rule(state)
        return cls(
            T=T,
            actions=actions,
            alpha=params.alpha if params else None,
            gamma=params.gamma if params else None,
            variant=params.variant if params else None,
            label=label,
        )

    def action_at(self, state: ChainState) -> Action:
        return Action(self.actions[state_index(state, self.T)])

    def to_json_dict(self) -> dict:
        data: dict = {
            "T": self.T,
            "actions": [action_name(Action(o)) for o in self.actions],
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
        actions = np.array([action_from_name(name) for name in names], dtype=np.int8)
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


BUILTIN_POLICIES: dict[str, Callable[[ChainState], Action]] = {
    "honest": honest_policy,
    "sm1": sm1_policy,
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

