"""Spans around the public calls of each package layer, kept in memory.

The program is traced from outside: callers bind names with
``from .chain import ...``, so every module global that refers to a traced
function is replaced by a wrapper while the tracer is installed, and
restored afterwards.  A function a later version of the package no longer
has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

CERTIFICATION_KINDS = ("certified", "not-certified")


def _sim_rounds(_args: tuple, result: Any) -> dict:
    if hasattr(result, "results"):  # a batch of replicas
        return {"rounds": sum(r.rounds for r in result.results)}
    return {"rounds": result.rounds}


# (module, attribute, what to record from the call's arguments and result)
TRACED: tuple[tuple[str, str, Callable[[tuple, Any], dict] | None], ...] = (
    ("chain", "build_base_model", lambda _a, r: {"states": r.n}),
    ("chain", "build_honest_disabled", None),
    ("chain", "build_truncated", None),
    ("mdp", "solve_average_reward", lambda _a, r: {"sweeps": r.iterations}),
    ("mdp", "evaluate_policy_exact", None),
    ("mdp", "reachable_mask", lambda _a, r: {"states": int(r.sum())}),
    ("mdp", "stationary_distribution", None),
    ("optimize", "find_optimal", lambda _a, r: {"probes": len(r.probes)}),
    (
        "optimize",
        "profit_threshold",
        lambda _a, r: {
            "probes": sum(p.kind in CERTIFICATION_KINDS for p in r.probes)
        },
    ),
    ("simulate", "compile_step_tables", None),
    ("simulate", "simulate_policy", _sim_rounds),
    ("simulate", "simulate_batch", _sim_rounds),
    ("model", "Policy.tabulate", None),
    ("model", "Policy.from_json_dict", None),
    ("cli", "main", lambda a, _r: {"subcommand": a[0][0]}),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._clock = clock

    def wrap(
        self, fn: Callable, name: str, record: Callable[[tuple, Any], dict] | None
    ) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), parent, name, self._clock())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if record is not None:
                span.attrs.update(record(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package: str) -> Iterator[None]:
        """Wrap every traced function wherever a module of ``package`` binds
        it, for the duration of the block."""
        root = importlib.import_module(package)
        modules = [root] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(root.__path__)
        ]
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, record in TRACED:
                try:
                    home = importlib.import_module(f"{package}.{module_name}")
                except ModuleNotFoundError:
                    continue
                name = f"{module_name}.{attr}"
                if "." in attr:  # a classmethod
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    original = vars(cls).get(method) if cls is not None else None
                    if not isinstance(original, classmethod):
                        continue
                    wrapped = classmethod(self.wrap(original.__func__, name, record))
                    restore.append((cls, method, original))
                    setattr(cls, method, wrapped)
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(original, name, record)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapped)
            yield
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer figures per round of the workload; rates are totals over
    totals."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    by_id = {span.id: span for span in spans}

    def calls(name: str) -> float:
        return len(by_name[name]) / rounds

    def seconds(name: str) -> float:
        return sum(s.duration for s in by_name[name]) / rounds

    def self_seconds(*names: str) -> float:
        return sum(own[s.id] for n in names for s in by_name[n]) / rounds

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name[name]) / rounds

    def rate(amount: float, elapsed: float) -> float:
        return amount / elapsed if elapsed > 0 else 0.0

    def cli_rate(name: str) -> float:
        """Simulated rounds per second of the CLI calls that ran ``name``."""
        callers = {s.parent for s in by_name[name] if s.parent is not None}
        elapsed = sum(by_id[i].duration for i in callers if by_id[i].name == "cli.main")
        return rate(sum(s.attrs.get("rounds", 0) for s in by_name[name]), elapsed)

    def cli_seconds(subcommand: str) -> float:
        return sum(
            s.duration for s in by_name["cli.main"]
            if s.attrs.get("subcommand") == subcommand
        ) / rounds

    solve_s = seconds("mdp.solve_average_reward")
    sweeps = attr("mdp.solve_average_reward", "sweeps")
    loop_s = self_seconds("simulate.simulate_policy", "simulate.simulate_batch")
    sim_rounds = attr("simulate.simulate_policy", "rounds") + attr(
        "simulate.simulate_batch", "rounds"
    )
    return {
        "chain.build_calls": calls("chain.build_base_model"),
        "chain.build_s": self_seconds(
            "chain.build_base_model", "chain.build_honest_disabled"
        ),
        "chain.states_built": attr("chain.build_base_model", "states"),
        "chain.scalarize_calls": calls("chain.build_truncated"),
        "chain.scalarize_s": seconds("chain.build_truncated"),
        "mdp.solve_calls": calls("mdp.solve_average_reward"),
        "mdp.solve_s": solve_s,
        "mdp.rvi_sweeps": sweeps,
        "mdp.sweep_ms": 1000.0 * rate(solve_s, sweeps),
        "mdp.evaluate_calls": calls("mdp.evaluate_policy_exact"),
        "mdp.evaluate_s": seconds("mdp.evaluate_policy_exact"),
        "mdp.reachable_s": seconds("mdp.reachable_mask"),
        "mdp.stationary_s": seconds("mdp.stationary_distribution"),
        "mdp.reachable_states": attr("mdp.reachable_mask", "states"),
        "optimize.find_optimal_calls": calls("optimize.find_optimal"),
        "optimize.probes": attr("optimize.find_optimal", "probes"),
        "optimize.find_optimal_self_s": self_seconds("optimize.find_optimal"),
        "optimize.threshold_probes": attr("optimize.profit_threshold", "probes"),
        "simulate.compile_calls": calls("simulate.compile_step_tables"),
        "simulate.compile_s": seconds("simulate.compile_step_tables"),
        "simulate.loop_s": loop_s,
        "simulate.loop_rounds_per_s": rate(sim_rounds, loop_s),
        "model.tabulate_s": seconds("model.Policy.tabulate"),
        "model.policy_load_s": seconds("model.Policy.from_json_dict"),
        "cli.self_s": self_seconds("cli.main"),
        "cli.optimize_s": cli_seconds("optimize"),
        "cli.evaluate_s": cli_seconds("evaluate"),
        "cli.threshold_s": cli_seconds("threshold"),
        "cli.sim_rounds_per_s": cli_rate("simulate.simulate_policy"),
        "cli.sim_batch_rounds_per_s": cli_rate("simulate.simulate_batch"),
        "trace.spans": len(spans) / rounds,
    }
