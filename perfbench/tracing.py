"""In-memory spans at fairfleet's layer boundaries, and the per-layer
numbers derived from them.

The recorder wraps public functions at the module attribute each caller
looks them up in (``fairfleet.scheduler.init_face``, not
``fairfleet.boundary.init_face``), so nothing under ``src/`` changes.
``model.travel_time`` is never wrapped: one round of the ``scale``
preset calls it millions of times.  ``vrp.path_violation`` is counted,
not spanned, for the same reason.

Two patch sets exist.  The light set runs in every mode.  It spans
``run_trace`` and ``emulator.step``, notes the roster size of every
``Scheduler.geometry`` call for the ``|K| + stages`` check, and
timestamps ("marks") the entry and exit of every ``step``, routing
heuristic and baseline policy call.  The marks cut an iteration into
segments of about a millisecond up to a few hundred milliseconds that
are the same work in every iteration of a run (see ``fast_clock``).
The full set adds every layer boundary and is installed only for the
traced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from fairfleet import cli, emulator, gen, scheduler, vrp

BASELINES = ("baseline_round_robin", "baseline_max_throughput", "baseline_dedicated")


class Span:
    __slots__ = ("name", "start", "end", "parent", "tick", "children")

    def __init__(self, name: str, start: float, parent: Optional["Span"], tick: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tick = tick
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


@dataclass
class Replay:
    """One ``run_trace`` call: its policy, the index in the recorder's
    marks of every ``step`` call's entry, the roster size of every
    mobius round, and the returned metrics."""

    policy: str
    step_marks: list[int] = field(default_factory=list)
    geometry_sizes: list[int] = field(default_factory=list)
    metrics: Any = None

    def ticks(self) -> list[tuple[int, int]]:
        """(first, last) mark index of each tick, from one ``step`` call
        to the next; the last tick ends at the final
        ``step(sim, duration)``."""
        s = self.step_marks
        return list(zip(s, s[1:]))


def fast_clock(marks: list[list[float]]) -> list[float]:
    """Elapsed seconds at each mark, counting every segment between two
    consecutive marks at its fastest repeat.

    ``marks`` holds one list of timestamps per iteration of the same
    inputs, so segment ``i`` is the same work in every iteration.  Other
    load on the machine only ever slows a segment down, in bursts that
    are short next to an iteration, so the fastest repeat of a short
    segment is the steadiest estimate of its cost.
    """
    fastest = [min(m[i + 1] - m[i] for m in marks) for i in range(len(marks[0]) - 1)]
    return list(itertools.accumulate(fastest, initial=0.0))


class Recorder:
    """Spans and counters for one process; install() patches fairfleet,
    uninstall() restores it."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; patches stay in place."""
        self.spans: list[Span] = []
        self.marks: list[float] = []
        self.tick = -1
        self.replays: list[Replay] = []
        self.path_violation_calls = 0
        self.offered = 0
        self.scheduled = 0
        self.round_calls = 0
        self.round_stages = 0
        self.cancelled = 0
        self._stack: list[Span] = []

    # -- patching -----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable, on_exit: Optional[Callable] = None,
                 on_enter: Optional[Callable] = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            parent = rec._stack[-1] if rec._stack else None
            span = Span(name, time.perf_counter(), parent, rec.tick)
            if parent is not None:
                parent.children.append(span)
            rec.spans.append(span)
            rec._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def mark(self) -> None:
        """Timestamp a boundary in the iteration's call sequence."""
        self.marks.append(time.perf_counter())

    def _marked(self, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.marks.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.marks.append(time.perf_counter())

        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, full: bool) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        rec = self

        def start_replay(args) -> None:
            rec.replays.append(Replay(policy=str(args[1])))

        def end_replay(args, result) -> None:
            rec.replays[-1].metrics = result

        def start_tick(args) -> None:
            rec.tick += 1
            if rec.replays:
                rec.replays[-1].step_marks.append(len(rec.marks))

        def note_geometry(args, result) -> None:
            rec.replays[-1].geometry_sizes.append(len(result))

        run_trace = self._spanned(
            "emulator.run_trace", emulator.run_trace, end_replay, start_replay
        )
        self._patch(emulator, "run_trace", run_trace)
        self._patch(cli, "run_trace", run_trace)
        self._patch(emulator, "step", self._spanned("emulator.step",
                                                    self._marked(emulator.step),
                                                    on_enter=start_tick))
        for name in ("heuristic_vrp", "greedy_alpha_heuristic"):
            self._patch(vrp, name, self._marked(getattr(vrp, name)))
        for name in BASELINES:
            self._patch(emulator, name, self._marked(getattr(emulator, name)))
        geometry = scheduler.Scheduler.geometry

        @functools.wraps(geometry)
        def geometry_wrapper(sched, instance):
            result = geometry(sched, instance)
            note_geometry((sched, instance), result)
            return result

        self._patch(scheduler.Scheduler, "geometry", geometry_wrapper)
        if full:
            self._install_layers()

    def _install_layers(self) -> None:
        rec = self

        def count_solve(args, schedule) -> None:
            rec.offered += len(args[0].tasks)
            rec.scheduled += schedule.total_tasks()

        def count_round(args, result) -> None:
            rec.round_calls += result.calls
            rec.round_stages += result.stages

        def count_cancelled(args, result) -> None:
            rec.cancelled += len(args[0].last_cancelled)

        path_violation = vrp.path_violation

        @functools.wraps(path_violation)
        def counted_path_violation(*args, **kwargs):
            rec.path_violation_calls += 1
            return path_violation(*args, **kwargs)

        self._patch(vrp, "path_violation", counted_path_violation)
        self._patch(vrp, "build_warm_start_suite",
                    self._spanned("vrp.suite", vrp.build_warm_start_suite))
        solve = self._spanned("vrp.solve", vrp.solve_weighted_vrp, count_solve)
        self._patch(vrp, "solve_weighted_vrp", solve)
        self._patch(emulator, "solve_weighted_vrp", solve)
        self._patch(scheduler, "init_face",
                    self._spanned("boundary.init_face", scheduler.init_face))
        self._patch(scheduler, "search_boundary",
                    self._spanned("boundary.search", scheduler.search_boundary))
        self._patch(scheduler, "select_allocation",
                    self._spanned("scheduler.select", scheduler.select_allocation))
        self._patch(scheduler, "run_round",
                    self._spanned("scheduler.round", scheduler.run_round, count_round))
        self._patch(scheduler.Scheduler, "run_round",
                    self._spanned("scheduler.round", scheduler.Scheduler.run_round,
                                  count_cancelled))
        for name in BASELINES:
            self._patch(emulator, name,
                        self._spanned("emulator.policy", getattr(emulator, name)))
        for name in ("read_tasks_jsonl", "read_vehicles_json", "read_travel_matrix_csv"):
            self._patch(cli, name, self._spanned("cli.load", getattr(cli, name)))
        self._patch(cli, "main", self._spanned("cli.main", cli.main))
        generate = self._spanned("gen.generate", gen.generate)
        self._patch(gen, "generate", generate)
        self._patch(cli, "generate", generate)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derived numbers ----------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def outer_total(self, name: str) -> float:
        """Seconds inside spans called `name`, counting nested spans of
        the same name once."""
        total = 0.0
        for s in self.named(name):
            p = s.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None:
                total += s.duration
        return total

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, tick id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": parent, "tick": s.tick}) + "\n")


_COUNT = "count"
PER_LAYER_UNITS = {
    "vrp.suite_s": "s", "vrp.suite_calls": _COUNT, "vrp.solve_s": "s",
    "vrp.solve_calls": _COUNT, "vrp.solve_ms_p50": "ms",
    "vrp.path_violation_calls": _COUNT, "vrp.scheduled_frac": "1",
    "boundary.init_face_s": "s", "boundary.init_face_self_s": "s",
    "boundary.search_s": "s", "boundary.search_self_s": "s", "boundary.stages": _COUNT,
    "scheduler.round_s": "s", "scheduler.round_self_s": "s", "scheduler.select_s": "s",
    "scheduler.solver_calls": _COUNT, "scheduler.cancelled": _COUNT,
    "emulator.step_s": "s", "emulator.policy_s": "s", "emulator.build_metrics_s": "s",
    "emulator.bookkeeping_self_s": "s", "emulator.ticks": _COUNT,
    "emulator.open_tasks_mean": _COUNT, "emulator.committed": _COUNT,
    "emulator.expired": _COUNT,
    "cli.load_s": "s", "cli.write_s": "s", "gen.generate_s": "s",
    "trace.overhead_frac": "1",
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer numbers of one traced workload iteration (everything in
    PER_LAYER_UNITS except gen.generate_s and trace.overhead_frac, which the
    caller measures around set-up and the untraced iteration)."""
    solves = [s.duration for s in rec.named("vrp.solve")]
    build_metrics = 0.0
    bookkeeping = 0.0
    for rt in rec.named("emulator.run_trace"):
        steps = [c for c in rt.children if c.name == "emulator.step"]
        tail = rt.end - steps[-1].end if steps else 0.0
        build_metrics += tail
        bookkeeping += rt.self_time - tail
    events = [e for r in rec.replays for e in r.metrics.events]
    expired = 0
    for r in rec.replays:
        rows = r.metrics.rounds
        last = rows[-1]["round"] if rows else None
        expired += sum(row["expired"] for row in rows if row["round"] == last)
    write = sum(
        s.duration - sum(c.duration for c in s.children
                         if c.name in ("emulator.run_trace", "cli.load"))
        for s in rec.named("cli.main")
    )
    return {
        "vrp.suite_s": rec.outer_total("vrp.suite"),
        "vrp.suite_calls": len(rec.named("vrp.suite")),
        "vrp.solve_s": rec.outer_total("vrp.solve"),
        "vrp.solve_calls": len(solves),
        "vrp.solve_ms_p50": statistics.median(solves) * 1000.0 if solves else 0.0,
        "vrp.path_violation_calls": rec.path_violation_calls,
        "vrp.scheduled_frac": rec.scheduled / rec.offered if rec.offered else 0.0,
        "boundary.init_face_s": rec.outer_total("boundary.init_face"),
        "boundary.init_face_self_s": rec.self_total("boundary.init_face"),
        "boundary.search_s": rec.outer_total("boundary.search"),
        "boundary.search_self_s": rec.self_total("boundary.search"),
        "boundary.stages": rec.round_stages,
        "scheduler.round_s": rec.outer_total("scheduler.round"),
        "scheduler.round_self_s": rec.self_total("scheduler.round"),
        "scheduler.select_s": rec.outer_total("scheduler.select"),
        "scheduler.solver_calls": rec.round_calls,
        "scheduler.cancelled": rec.cancelled,
        "emulator.step_s": rec.outer_total("emulator.step"),
        "emulator.policy_s": rec.outer_total("emulator.policy"),
        "emulator.build_metrics_s": build_metrics,
        "emulator.bookkeeping_self_s": bookkeeping,
        "emulator.ticks": sum(len(r.ticks()) for r in rec.replays),
        "emulator.open_tasks_mean": (
            statistics.fmean(e["open_tasks"] for e in events) if events else 0.0
        ),
        "emulator.committed": sum(e["scheduled"] for e in events),
        "emulator.expired": expired,
        "cli.load_s": rec.outer_total("cli.load"),
        "cli.write_s": write,
    }
