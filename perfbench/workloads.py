"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``prepare`` (counted as
set-up) and replays them in ``run`` (one measured iteration).  ``run``
also checks the program's outputs and hashes its deterministic
artifacts; it reads every replay the recorder holds, so the caller
resets the recorder before each iteration.  Workloads call fairfleet
through module attributes (``emulator.run_trace``, ``cli.main``,
``gen.generate``) so that the recorder's patches see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fairfleet import cli, emulator, gen, model, scheduler
from fairfleet.fairness import jain_index
from fairfleet.vrp import SolverConfig

from tracing import Recorder, Replay


@dataclass
class Outcome:
    """One measured iteration: timings, check results, quality, digest.

    ``marks`` are the recorder's timestamps, from the iteration's start
    to its end; ``ticks`` holds the (first, last) mark index of every
    tick in the tick sample."""

    marks: list[float]
    ticks: list[tuple[int, int]]
    attempted: int
    failed: int
    quality: dict[str, float]
    digest: str
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.marks[-1] - self.marks[0]


def _quality(xbars: list[np.ndarray]) -> dict[str, float]:
    """Throughput summed over maps; Jain index and min x-bar at the
    worst map."""
    return {
        "total_throughput": float(sum(np.sum(x) for x in xbars)),
        "jain": min(jain_index(x) for x in xbars),
        "min_xbar": min(float(np.min(x)) for x in xbars),
    }


def _digest_metrics(metrics_list) -> str:
    h = hashlib.sha256()
    for m in metrics_list:
        for row in m.rounds:
            h.update(json.dumps(row, sort_keys=True).encode())
        for event in m.events:
            h.update(json.dumps(event, sort_keys=True).encode())
    return h.hexdigest()


def check_replays(replays: list[Replay]) -> tuple[int, int, list[str]]:
    """(ticks attempted, ticks failed, problems).  A mobius tick fails
    unless calls == |geometry customers| + stages; every tick of a
    replay fails when one of its completion fractions leaves [0, 1]."""
    attempted = failed = 0
    problems: list[str] = []
    for r in replays:
        events = r.metrics.events
        attempted += len(events)
        bad: set[int] = set()
        if r.policy == "mobius":
            planned = [i for i, e in enumerate(events) if e["calls"] is not None]
            if len(planned) != len(r.geometry_sizes):
                problems.append(f"{r.policy}: {len(planned)} planned ticks but "
                                f"{len(r.geometry_sizes)} scheduler rounds")
                bad.update(planned)
            for i, k in zip(planned, r.geometry_sizes):
                if events[i]["calls"] != k + events[i]["stages"]:
                    problems.append(f"{r.policy} tick {i}: calls {events[i]['calls']} "
                                    f"!= {k} customers + {events[i]['stages']} stages")
                    bad.add(i)
        fractions = r.metrics.completion_fraction
        if any(not 0.0 <= v <= 1.0 for v in fractions.values()):
            problems.append(f"{r.policy}: completion_fraction outside [0, 1]: {fractions}")
            bad.update(range(len(events)))
        failed += len(bad)
    return attempted, failed, problems


class MapsReplay:
    """`fairfleet gen` bundles for map_a, map_b and map_c, each replayed
    with `fairfleet run --policy all` under a solver seed drawn from the
    workload seed."""

    name = "maps_replay"
    maps = ("map_a", "map_b", "map_c")
    # Two rounds at the heuristic's effort floor keep one iteration
    # short enough that a run repeats it often (see README.md).
    rounds = 2
    time_limit_s = 0.1
    # 6 mobius ticks: too few for ten beyond p90.
    min_beyond_p90 = 0

    def __init__(self, seed: int):
        self.seed = seed
        solver_seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(self.maps))
        self.runs = [(m, int(s)) for m, s in zip(self.maps, solver_seeds)]
        self.settings = {"presets": list(self.maps), "policy": "all", "rounds": self.rounds,
                         "solver.backend": "heuristic",
                         "solver.time_limit_s": self.time_limit_s,
                         "solver.seed": [s for _, s in self.runs]}

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fairfleet {' '.join(argv)} exited with {code}")

    def prepare(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        for m in self.maps:
            self._cli(["gen", "--preset", m, "--seed", str(self.seed),
                       "--rounds", str(self.rounds), "--out", str(work_dir / m)])

    def run(self, rec: Recorder) -> Outcome:
        outs = [self.work_dir / m / f"run-{s}" for m, s in self.runs]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        rec.mark()
        for (m, s), out in zip(self.runs, outs):
            self._cli(["run", "--config", str(self.work_dir / m / "config.json"),
                       "--out", str(out), "--policy", "all",
                       "--set", "solver.backend=heuristic",
                       "--set", f"solver.time_limit_s={self.time_limit_s}",
                       "--set", f"solver.seed={s}"])
        rec.mark()
        replays = rec.replays
        attempted, failed, problems = check_replays(replays)
        xbars = []
        h = hashlib.sha256()
        for out in outs:
            with open(out / "summary.json", encoding="utf-8") as fh:
                xbar = json.load(fh)["policies"]["mobius"]["xbar"]
            xbars.append(np.array([xbar[c] for c in sorted(xbar)]))
            # summary.json embeds out_dir, so it is left out of the digest.
            for f in sorted(out.iterdir()):
                if f.name != "summary.json":
                    h.update(f"{out.parent.name}/{out.name}/{f.name}\n".encode())
                    h.update(f.read_bytes())
        # The tick sample holds the fair policy's ticks only.  Pooled with
        # the baselines' ticks, the median fell among max throughput's,
        # whose cost moves by up to 1.8x with the solver seed.
        ticks = [t for r in replays if r.policy == "mobius" for t in r.ticks()]
        return Outcome(
            marks=rec.marks, ticks=ticks,
            attempted=attempted, failed=failed, quality=_quality(xbars),
            digest=h.hexdigest(), problems=problems,
        )


class RoundRobinLong:
    """A round-robin replay of `map_d` layouts: no solver calls at all.

    Every round draws a fresh `map_d` layout from a sub-seed of the
    workload seed (arrivals at the round start, deadlines at its end, as
    in `Scenario.trace`).  The quality metrics then average over all the
    layouts instead of hanging on one.
    """

    name = "rr_long"
    rounds = 120
    min_beyond_p90 = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.settings = {"preset": "map_d", "layouts": "one per round", "policy": "round_robin",
                         "rounds": self.rounds}

    def prepare(self, work_dir: Path) -> None:
        sub_seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=self.rounds)
        tasks = []
        for r, sub in enumerate(sub_seeds):
            scn = gen.generate("map_d", seed=int(sub))
            start = r * scn.round_s
            tasks.extend(
                model.Task(task_id=f"r{r:03d}-{t.task_id}", customer_id=t.customer_id,
                           location=t.location, service_time=t.service_time,
                           arrival_time=start, deadline=start + scn.round_s)
                for t in scn.tasks
            )
        self.trace = emulator.Trace(tasks=tuple(tasks), duration=self.rounds * scn.round_s,
                                    customers=scn.customers)
        self.vehicles = scn.vehicles
        self.travel = scn.travel
        self.cfg = scheduler.RoundConfig(round_s=scn.round_s, alpha=scn.alpha)

    def run(self, rec: Recorder) -> Outcome:
        rec.mark()
        metrics = emulator.run_trace(self.trace, "round_robin", self.cfg, self.vehicles,
                                     self.travel, SolverConfig(seed=self.seed))
        rec.mark()
        replays = rec.replays
        attempted, failed, problems = check_replays(replays)
        return Outcome(
            marks=rec.marks, ticks=[t for r in replays for t in r.ticks()],
            attempted=attempted, failed=failed, quality=_quality([metrics.xbar]),
            digest=_digest_metrics([metrics]), problems=problems,
        )


# Requests per round and customer: skewed demand.
RIDES_DEMAND = {"c1": 9, "c2": 5, "c3": 3}
RIDES_SIDE_M = 1600.0


def rides_scenario(seed: int, rounds: int, round_s: float):
    """Arrival trace with plain tasks and pickup/dropoff pairs for 4
    vehicles of capacity 2.  Locations, arrival times within each round
    and deadline slack are drawn from the seed; the mix is fixed, so
    that seeds differ in layout, not in load: every other request has a
    deadline and two in five are rides, whose halves arrive together."""
    rng = np.random.default_rng(seed)
    tasks = []

    def point():
        x, y = rng.uniform(-RIDES_SIDE_M / 2, RIDES_SIDE_M / 2, size=2)
        return (float(x), float(y))

    for r in range(rounds):
        for c, n in RIDES_DEMAND.items():
            for j in range(n):
                tid = f"r{r:03d}-{c}-{j:02d}"
                arrival = r * round_s + float(rng.uniform(0.0, round_s))
                slack = float(rng.uniform(0.5, 1.5)) * round_s
                common = dict(customer_id=c, service_time=gen.SERVICE_S,
                              arrival_time=arrival,
                              deadline=arrival + slack if j % 2 == 0 else None)
                if j % 5 in (1, 3):
                    tasks.append(model.Task(task_id=f"{tid}p", location=point(),
                                            pickup_of=f"{tid}d", **common))
                    tasks.append(model.Task(task_id=f"{tid}d", location=point(),
                                            dropoff_of=f"{tid}p", **common))
                else:
                    tasks.append(model.Task(task_id=tid, location=point(), **common))
    quarter = RIDES_SIDE_M / 4
    vehicles = tuple(
        model.Vehicle(vehicle_id=f"v{i}", start_location=(sx * quarter, sy * quarter),
                      speed=gen.SPEED_MPS, capacity=2)
        for i, (sx, sy) in enumerate(((-1, -1), (1, -1), (-1, 1), (1, 1)))
    )
    trace = emulator.Trace(tasks=tuple(tasks), duration=rounds * round_s,
                           customers=tuple(RIDES_DEMAND))
    return trace, vehicles


class RidesReplan:
    """Mobius replays of generated ride traces, replanning three times
    per round with commitments pinned across replans.

    A trace's tick costs hang together: one that builds a backlog keeps
    it, and its ticks all cost more.  So the workload replays several
    short traces, each from its own sub-seed of the workload seed, and
    pools their ticks, instead of one long trace.
    """

    name = "rides_replan"
    min_beyond_p90 = 10
    traces = 8
    rounds = 10
    round_s = 600.0
    time_limit_s = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self.settings = {"generator": "rides_scenario", "demand_per_round": RIDES_DEMAND,
                         "vehicles": 4, "capacity": 2, "traces": self.traces,
                         "rounds": self.rounds, "round_s": self.round_s,
                         "replan_s": self.round_s / 3, "alpha": 1.0, "ride_counts_as": 1,
                         "policy": "mobius", "solver.backend": "heuristic",
                         "solver.time_limit_s": self.time_limit_s}

    def prepare(self, work_dir: Path) -> None:
        subs = np.random.default_rng(self.seed).integers(0, 2**31, size=self.traces)
        self.runs = []
        for sub in subs:
            trace, self.vehicles = rides_scenario(int(sub), self.rounds, self.round_s)
            model.validate_pairs(trace.tasks)
            self.runs.append((trace, SolverConfig(backend="heuristic",
                                                  time_limit_s=self.time_limit_s,
                                                  seed=int(sub))))
        self.cfg = scheduler.RoundConfig(round_s=self.round_s, replan_s=self.round_s / 3,
                                         alpha=1.0)

    def run(self, rec: Recorder) -> Outcome:
        travel = model.TravelModel.euclidean()
        rec.mark()
        metrics = [emulator.run_trace(trace, "mobius", self.cfg, self.vehicles, travel, solver)
                   for trace, solver in self.runs]
        rec.mark()
        replays = rec.replays
        attempted, failed, problems = check_replays(replays)
        # The emulator's realized x-bar counts both halves of a ride
        # (ROADMAP item 2), so quality comes from the planner's history,
        # which counts a ride once; the realized total is kept beside it.
        planned = [[e for e in m.events if e["xbar"] is not None][-1]["xbar"] for m in metrics]
        return Outcome(
            marks=rec.marks, ticks=[t for r in replays for t in r.ticks()],
            attempted=attempted, failed=failed,
            quality=_quality([np.array(x) for x in planned]),
            digest=_digest_metrics(metrics), problems=problems,
            extra={"realized_total_throughput": sum(m.total_throughput for m in metrics),
                   "cancellations": sum(m.cancellations for m in metrics)},
        )


WORKLOADS = {w.name: w for w in (MapsReplay, RoundRobinLong, RidesReplan)}
