"""Trace-driven emulation: stream timestamped tasks to a policy,
advance vehicle motion along committed paths, expire unscheduled tasks,
and report throughput/fairness metrics.  Ships the three baseline
policies alongside the fairness-aware one.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .fairness import jain_index
from .model import (
    Instance,
    PathState,
    Point,
    Schedule,
    Task,
    TravelModel,
    Vehicle,
    empty_schedule,
    path_times,
    task_count,
    travel_time,
)
from .scheduler import RoundConfig, Scheduler
from .vrp import (
    RoundTable,
    SolverConfig,
    SolverRequest,
    construct,
    may_serve,
    solve_weighted_vrp,
)

logger = logging.getLogger(__name__)

POLICIES = ("mobius", "max_throughput", "dedicated", "round_robin")

PENDING = "pending"
COMMITTED = "committed"
COMPLETED = "completed"
EXPIRED = "expired"


@dataclass(frozen=True)
class Trace:
    """Timestamped task arrivals over a fixed horizon of `duration`
    seconds (the scenario's `duration_s`)."""

    tasks: tuple[Task, ...]
    duration: float
    customers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0 < self.duration < np.inf:
            raise ValueError("duration_s must be > 0 and finite")
        object.__setattr__(
            self, "tasks", tuple(sorted(self.tasks, key=lambda t: (t.arrival_time, t.task_id)))
        )
        for t in self.tasks:
            if t.arrival_time > self.duration:
                raise ValueError(
                    f"task {t.task_id} arrives after the trace ends (duration_s={self.duration:g})"
                )
        listed = {t.customer_id for t in self.tasks}
        if not self.customers:
            object.__setattr__(self, "customers", tuple(sorted(listed)))
        unlisted = sorted(listed - set(self.customers))
        if unlisted:
            raise ValueError(f"task customer {unlisted[0]!r} is not among the trace's customers")


@dataclass
class _Leg:
    """One leg of a plan, in absolute times: the drive from `origin` to
    `dest` between `depart` and `arrive`, then `task`'s service until
    `complete`.  A drive home has no task; it completes on arrival."""

    origin: Point
    dest: Point
    depart: float
    arrive: float
    complete: float
    task: Optional[Task] = None


@dataclass
class _TaskState:
    task: Task
    expires_at: float  # `Task.expires_at`, fixed at arrival
    status: str = PENDING
    vehicle_id: Optional[str] = None
    service_start: Optional[float] = None
    completion: Optional[float] = None
    expired_at: Optional[float] = None


@dataclass
class _VehicleSim:
    """A vehicle, its position when its plan last changed or a leg last
    completed, and its legs left to complete, each from the last's end."""

    vehicle: Vehicle
    position: Point
    legs: list[_Leg] = field(default_factory=list)

    def in_service(self, clock: float) -> Optional[_Leg]:
        """The leg whose task is being serviced at `clock`, if any; a
        drive home, done on arrival, never is."""
        for leg in self.legs:
            if leg.arrive <= clock < leg.complete - 1e-12:
                return leg
        return None

    def position_at(self, clock: float) -> Point:
        """Interpolated position: mid-leg positions move linearly from
        the leg's origin."""
        pos = self.position
        for leg in self.legs:
            if clock >= leg.complete:
                pos = leg.dest
                continue
            if clock <= leg.depart:
                return pos
            if clock >= leg.arrive:
                return leg.dest
            frac = (clock - leg.depart) / max(leg.arrive - leg.depart, 1e-12)
            return (
                leg.origin[0] + (leg.dest[0] - leg.origin[0]) * frac,
                leg.origin[1] + (leg.dest[1] - leg.origin[1]) * frac,
            )
        return pos


class SimState:
    """World state: clock, vehicles, and the task-lifecycle partition
    (pending / committed / completed / expired covers every arrival).

    `tasks` holds every arrival; `live` holds the pending and committed
    ones, both in arrival order.  `arrive`, the completion and expiry in
    `step`, and `_cancel` keep `live` in step with the statuses, so a
    tick's scans cover live tasks, not the whole history.
    """

    def __init__(self, trace: Trace, vehicles: Sequence[Vehicle], expiry_s: float = 600.0):
        self.trace = trace
        self.clock = 0.0
        self.cursor = 0
        self.expiry_s = expiry_s
        self.vehicles = {
            v.vehicle_id: _VehicleSim(vehicle=v, position=v.start_location)
            for v in vehicles
        }
        self.tasks: dict[str, _TaskState] = {}
        self.live: dict[str, _TaskState] = {}
        self.cancellations: list[tuple[float, str]] = []

    def arrive(self, task: Task) -> _TaskState:
        """Enter `task` as pending."""
        ts = _TaskState(task=task, expires_at=task.expires_at(self.expiry_s))
        self.tasks[task.task_id] = ts
        self.live[task.task_id] = ts
        return ts

    def by_status(self, status: str) -> list[_TaskState]:
        pool = self.live if status in (PENDING, COMMITTED) else self.tasks
        return [s for s in pool.values() if s.status == status]

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, COMMITTED: 0, COMPLETED: 0, EXPIRED: 0}
        for s in self.tasks.values():
            out[s.status] += 1
        return out


def step(sim: SimState, until: float) -> SimState:
    """Advance the world to `until`: record completions along committed
    paths, inject arrivals, and expire pending tasks at
    `Task.expires_at`: `expiry_s` after arrival or at the deadline,
    whichever comes first."""
    if until < sim.clock - 1e-9:
        raise ValueError("cannot step backwards")

    for vid in sorted(sim.vehicles):
        vs = sim.vehicles[vid]
        done = [leg for leg in vs.legs if leg.complete <= until + 1e-9]
        for leg in done:
            if leg.task is not None:
                ts = sim.tasks[leg.task.task_id]
                ts.status = COMPLETED
                ts.service_start = leg.arrive
                ts.completion = leg.complete
                ts.vehicle_id = vid
                sim.live.pop(leg.task.task_id, None)
            vs.position = leg.dest
        vs.legs = [leg for leg in vs.legs if leg.complete > until + 1e-9]

    while sim.cursor < len(sim.trace.tasks):
        t = sim.trace.tasks[sim.cursor]
        if t.arrival_time > until + 1e-9:
            break
        sim.arrive(t)
        sim.cursor += 1

    for tid, ts in list(sim.live.items()):
        if ts.status == PENDING and until >= ts.expires_at - 1e-9:
            ts.status = EXPIRED
            ts.expired_at = ts.expires_at
            del sim.live[tid]

    sim.clock = until
    return sim


def _snapshot_vehicles(sim: SimState, now: float, return_home: Optional[bool]) -> tuple[list[Vehicle], dict[str, _Leg]]:
    """Planning view of the fleet: current position, time until free
    (a leg in service finishes as scheduled), optional return-home flag."""
    out = []
    locked: dict[str, _Leg] = {}
    for vid in sorted(sim.vehicles):
        vs = sim.vehicles[vid]
        leg = vs.in_service(now)
        if leg is not None:
            locked[vid] = leg
            position = leg.dest
            ready = leg.complete - now
        else:
            position = vs.position_at(now)
            ready = 0.0
        veh = vs.vehicle
        out.append(
            replace(
                veh,
                start_location=(float(position[0]), float(position[1])),
                ready_offset=max(ready, 0.0),
                return_home=veh.return_home if return_home is None else return_home,
            )
        )
    return out, locked


def _commit(
    sim: SimState,
    schedule: Schedule,
    now: float,
    locked: dict[str, _Leg],
    travel: TravelModel,
    snapshot: Sequence[Vehicle],
) -> None:
    """Replace future plans with `schedule`, timed from `now` on the
    snapshot vehicle each path was planned for; legs in service stay.  A
    vehicle whose snapshot has `return_home` set drives home after its
    last task; one left with no task keeps a drive home already under
    way."""
    paths = {p.vehicle_id: p for p in schedule.paths}
    planned = {v.vehicle_id: v for v in snapshot}
    for vid, vs in sim.vehicles.items():
        vs.position = vs.position_at(now)
        legs = [locked[vid]] if vid in locked else []
        path = paths.get(vid)
        if path is not None:
            origin = legs[-1].dest if legs else vs.position
            for task, times in zip(path.tasks, path_times(planned[vid], path.tasks, travel, now)):
                legs.append(_Leg(origin, task.location, *times, task))
                origin = task.location
                ts = sim.tasks[task.task_id]
                ts.status = COMMITTED
                ts.vehicle_id = vid
        if not legs:
            legs = [leg for leg in vs.legs
                    if leg.task is None and leg.depart <= now + 1e-9 < leg.arrive]
        elif planned[vid].return_home:
            last, home = legs[-1], vs.vehicle.start_location
            arrive = last.complete + travel_time(last.dest, home, travel, vs.vehicle)
            legs.append(_Leg(last.dest, home, last.complete, arrive, arrive))
        vs.legs = legs


def _cancel(sim: SimState, task_ids: Sequence[str], now: float) -> None:
    for tid in task_ids:
        ts = sim.tasks.get(tid)
        if ts is not None and ts.status in (PENDING, COMMITTED):
            ts.status = EXPIRED
            ts.expired_at = now
            del sim.live[tid]
            sim.cancellations.append((now, tid))
            logger.warning("t=%.0fs cancelled committed task %s", now, tid)


@dataclass
class Metrics:
    """Emulation outcome: realized throughput history and fairness.

    `rounds` holds the metrics-CSV rows: round, customer, xbar,
    completed, expired, jain_total.
    """

    customers: tuple[str, ...]
    rounds: list[dict] = field(default_factory=list)
    xbar: np.ndarray = field(default_factory=lambda: np.zeros(0))
    total_throughput: float = 0.0
    completion_fraction: dict[str, float] = field(default_factory=dict)
    wait_samples: dict[str, list[float]] = field(default_factory=dict)
    jain: float = 1.0
    cancellations: int = 0
    solver_calls: list[int] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def plot_rows(self, round_s: float) -> list[dict]:
        """Rows for the throughput time-series CSV: t_s,customer,xbar."""
        out = []
        for row in self.rounds:
            out.append(
                {
                    "t_s": (row["round"] + 1) * round_s,
                    "customer": row["customer"],
                    "xbar": row["xbar"],
                }
            )
        return out

    def wait_histogram(self, bin_s: float = 60.0) -> list[dict]:
        """Wait-time histogram rows: customer,bin_start_s,bin_end_s,count."""
        out = []
        for customer in self.customers:
            samples = self.wait_samples.get(customer, [])
            if not samples:
                continue
            top = max(samples)
            nbins = int(top // bin_s) + 1
            counts = [0] * nbins
            for w in samples:
                counts[min(int(w // bin_s), nbins - 1)] += 1
            for b, count in enumerate(counts):
                if count:
                    out.append(
                        {
                            "customer": customer,
                            "bin_start_s": b * bin_s,
                            "bin_end_s": (b + 1) * bin_s,
                            "count": count,
                        }
                    )
        return out


def _planning_instance(
    sim: SimState,
    now: float,
    cfg: RoundConfig,
    travel: TravelModel,
    locked: dict[str, _Leg],
    vehicles: list[Vehicle],
) -> Instance:
    locked_ids = {s.task.task_id for s in locked.values()}
    tasks = tuple(ts.task for tid, ts in sorted(sim.live.items()) if tid not in locked_ids)
    return Instance(
        tasks=tasks,
        vehicles=tuple(vehicles),
        travel=travel,
        budget=cfg.round_s,
        round_start=now,
    )


def _return_home_now(cfg: RoundConfig, now: float) -> Optional[bool]:
    """Whether this planning window must end with vehicles at home: the
    window contains a multiple of return_home_every_s."""
    if cfg.return_home_every_s is None:
        return None
    period = cfg.return_home_every_s
    next_mark = np.ceil((now + 1e-9) / period) * period
    return bool(next_mark <= now + cfg.round_s + 1e-9)


def baseline_max_throughput(
    instance: Instance,
    solver_config: Optional[SolverConfig] = None,
    committed: Optional[Mapping[str, str]] = None,
    ride_counts_as: int = 1,
) -> Schedule:
    """Uniform-weight solve: pure throughput, fairness-blind, on a round
    table that holds `committed` (task_id -> vehicle_id), which every
    solve on it honours (`vrp.RoundTable`).  One backend call, no floor."""
    customers = instance.customers
    if not customers:
        return empty_schedule(instance.vehicles, instance.budget)
    req = SolverRequest(
        table=RoundTable(instance, committed),
        customers=customers,
        weights=np.full(len(customers), 1.0 / len(customers)),
        config=solver_config or SolverConfig(),
        ride_counts_as=ride_counts_as,
    )
    return solve_weighted_vrp(req)


def dedicated_partition(vehicles: Sequence[Vehicle], customers: Sequence[str]) -> dict[str, list[Vehicle]]:
    """Round-robin vehicle split by index; extra vehicles go to the
    lowest customer indices.  Requires |V| >= |K|."""
    if len(vehicles) < len(customers):
        raise ValueError("dedicated baseline needs at least one vehicle per customer")
    out: dict[str, list[Vehicle]] = {c: [] for c in customers}
    for i, v in enumerate(vehicles):
        out[customers[i % len(customers)]].append(v)
    return out


def baseline_dedicated(
    instance: Instance,
    solver_config: Optional[SolverConfig] = None,
    committed: Optional[Mapping[str, str]] = None,
    ride_counts_as: int = 1,
) -> Schedule:
    """Vehicles split evenly among customers; per-customer max-throughput
    solve on its own tasks."""
    customers = instance.customers
    if not customers:
        return empty_schedule(instance.vehicles, instance.budget)
    partition = dedicated_partition(instance.vehicles, customers)
    paths = []
    for c in customers:
        own = tuple(t for t in instance.tasks if t.customer_id == c)
        sub = Instance(
            tasks=own,
            vehicles=tuple(partition[c]),
            travel=instance.travel,
            budget=instance.budget,
            round_start=instance.round_start,
        )
        sched = baseline_max_throughput(sub, solver_config, committed, ride_counts_as)
        paths.extend(sched.paths)
    return Schedule(paths=tuple(paths), round_duration=instance.budget)


def baseline_round_robin(instance: Instance, committed: Optional[Mapping[str, str]] = None) -> Schedule:
    """Each vehicle cycles customers, appending the nearest feasible
    task of the current customer that `vrp.may_serve` lets it take;
    customers with nothing feasible are skipped.  Needs no solver."""
    customers = instance.customers
    # Candidates per customer, in task-id order: pickups and plain tasks.
    offered: dict[str, dict[str, Task]] = {c: {} for c in customers}
    for t in sorted(instance.tasks, key=lambda t: t.task_id):
        if not t.is_dropoff:
            offered[t.customer_id][t.task_id] = t
    cycle: dict[str, int] = {v.vehicle_id: 0 for v in instance.vehicles}

    def pick(walk: PathState, unserved: dict[str, Task]) -> Optional[tuple[Task, ...]]:
        veh = walk.vehicle
        vid = veh.vehicle_id
        k = len(customers)
        for off in range(k):
            c = customers[(cycle[vid] + off) % k]
            candidates = offered[c].values()
            # The test spares the hot loop a filter when nothing is committed.
            if committed:
                candidates = [t for t in candidates if may_serve(committed, t, veh)]
            found = walk.nearest(candidates, unserved)
            if found is not None:
                cycle[vid] = (cycle[vid] + off + 1) % k
                _, step = found
                offered[c].pop(step[0].task_id)
                return step
        return None

    return construct(instance, pick)


def run_trace(
    trace: Trace,
    policy: str,
    cfg: RoundConfig,
    vehicles: Sequence[Vehicle],
    travel: TravelModel,
    solver_config: Optional[SolverConfig] = None,
) -> Metrics:
    """Replay `trace` under `policy` (mobius, max_throughput, dedicated,
    or round_robin): inject arrivals, replan at each tick honoring
    committed tasks, advance motion, and compute metrics.  Deterministic
    for a fixed seed.

    A mobius tick gives its solves its last plan as their floor when
    that plan was made in the tick's round (of `cfg.round_s`) or still
    holds one of its open tasks.  Only a cold tick builds the warm-start
    suite (`vrp.RoundSolver`): one with no plan yet, or whose last plan,
    from an earlier round, holds none of its open tasks."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    solver_config = solver_config or SolverConfig()
    customers = trace.customers
    sim = SimState(trace, vehicles, expiry_s=cfg.expiry_s)
    mobius = Scheduler(cfg, solver_config, customers=customers) if policy == "mobius" else None
    calls: list[int] = []
    events: list[dict] = []
    last_plan: Optional[tuple[int, Schedule]] = None  # (round index, mobius plan)

    ticks = [i * cfg.replan_s for i in range(int(np.ceil(trace.duration / cfg.replan_s)) + 1)]
    for tick, now in enumerate(ticks):
        if now >= trace.duration - 1e-9:
            break
        step(sim, now)
        committed = {
            ts.task.task_id: ts.vehicle_id
            for ts in sim.by_status(COMMITTED)
        }
        expired_commits = [
            tid
            for tid, ts in sorted(sim.live.items())
            if ts.status == COMMITTED
            and ts.task.deadline is not None
            and ts.task.deadline <= now + 1e-9
        ]
        _cancel(sim, expired_commits, now)
        for tid in expired_commits:
            committed.pop(tid, None)

        snapshot, locked = _snapshot_vehicles(sim, now, _return_home_now(cfg, now))
        instance = _planning_instance(sim, now, cfg, travel, locked, snapshot)
        event = {
            "round": tick,
            "t_s": float(now),
            "policy": policy,
            "open_tasks": len(instance.tasks),
            "committed": 0,
            "scheduled": 0,
            "cancelled": 0,
            "calls": None,
            "stages": None,
            "allocation": None,
            "xbar": None,
        }
        if not instance.tasks:
            events.append(event)
            continue
        planned = {t.task_id for t in instance.tasks}
        live_committed = {tid: vid for tid, vid in committed.items() if tid in planned}
        event["committed"] = len(live_committed)
        cancelled_before = len(sim.cancellations)

        if policy == "mobius":
            round_index = int(np.floor((now + 1e-9) / cfg.round_s))
            seeds = None
            if last_plan is not None and (
                last_plan[0] == round_index or not planned.isdisjoint(last_plan[1].task_ids())
            ):
                seeds = (last_plan[1],)
            result = mobius.run_round(instance, committed=live_committed, warm_starts=seeds)
            schedule = result.schedule
            last_plan = (round_index, schedule)
            calls.append(result.calls)
            event["calls"] = result.calls
            event["stages"] = result.stages
            event["allocation"] = [float(v) for v in result.allocation]
            event["xbar"] = [float(v) for v in mobius.history.xbar]
        else:
            rides = cfg.ride_counts_as
            if policy == "max_throughput":
                schedule = baseline_max_throughput(instance, solver_config, live_committed, rides)
            elif policy == "dedicated":
                schedule = baseline_dedicated(instance, solver_config, live_committed, rides)
            else:
                schedule = baseline_round_robin(instance, live_committed)
        scheduled = schedule.task_ids()
        _cancel(sim, [tid for tid in sorted(live_committed) if tid not in scheduled], now)
        _commit(sim, schedule, now, locked, travel, snapshot)
        event["scheduled"] = schedule.total_tasks()
        event["cancelled"] = len(sim.cancellations) - cancelled_before
        events.append(event)

    step(sim, trace.duration)
    metrics = _build_metrics(sim, cfg, customers, calls)
    metrics.events = events
    return metrics


def _build_metrics(
    sim: SimState, cfg: RoundConfig, customers: tuple[str, ...], calls: list[int]
) -> Metrics:
    duration = sim.trace.duration
    n_rounds = int(duration // cfg.round_s)
    minutes = cfg.round_s / 60.0
    k = len(customers)
    cidx = {c: i for i, c in enumerate(customers)}

    # One pass counts each customer's arrivals, completions and waits,
    # and buckets each completion and expiry into the first round whose
    # end (r + 1) * round_s it does not pass; round r counts a completion
    # in x when r * round_s < completion <= its end.
    ends = [(r + 1) * cfg.round_s for r in range(n_rounds)]
    x_in = np.zeros((n_rounds, k))
    done_in = np.zeros((n_rounds, k), dtype=int)
    expired_in = np.zeros((n_rounds, k), dtype=int)
    arrived_per = {c: 0 for c in customers}
    completed_per = {c: 0 for c in customers}
    waits: dict[str, list[float]] = {c: [] for c in customers}
    for ts in sim.tasks.values():
        c = ts.task.customer_id
        i = cidx[c]
        arrived_per[c] += 1
        if ts.status == COMPLETED:
            completed_per[c] += 1
            waits[c].append(ts.service_start - ts.task.arrival_time)
            r = bisect_left(ends, ts.completion)
            if r < n_rounds and r * cfg.round_s < ts.completion:
                x_in[r, i] += task_count(ts.task, cfg.ride_counts_as)
            if r < n_rounds and ts.completion <= ends[r]:
                done_in[r, i] += 1
        elif ts.status == EXPIRED and ts.expired_at is not None:
            r = bisect_left(ends, ts.expired_at)
            if r < n_rounds and ts.expired_at <= ends[r]:
                expired_in[r, i] += 1
    done = np.cumsum(done_in, axis=0)
    expired = np.cumsum(expired_in, axis=0)

    xbar = np.zeros(k)
    rows: list[dict] = []
    for r in range(n_rounds):
        x = x_in[r] / minutes
        xbar = x / (r + 1) + xbar * (r / (r + 1))
        j = jain_index(xbar)
        for c in customers:
            i = cidx[c]
            rows.append(
                {
                    "round": r,
                    "customer": c,
                    "xbar": float(xbar[i]),
                    "completed": int(done[r, i]),
                    "expired": int(expired[r, i]),
                    "jain_total": j,
                }
            )

    fractions = {
        c: (completed_per[c] / arrived_per[c]) if arrived_per[c] else 1.0
        for c in customers
    }
    return Metrics(
        customers=customers,
        rounds=rows,
        xbar=xbar,
        total_throughput=float(np.sum(xbar)),
        completion_fraction=fractions,
        wait_samples=waits,
        jain=jain_index(xbar),
        cancellations=len(sim.cancellations),
        solver_calls=calls,
    )
