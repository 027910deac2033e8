"""Domain types shared by all modules.

Customers submit located tasks (optionally deadline-constrained or paired
pickup/dropoff halves) as task or trace files; vehicles follow per-round
paths whose travel times come from a pluggable travel model; a schedule's
per-customer throughput vector is its allocation, in tasks per minute.

Locations are abstract 2-D points in meters (geographic coordinates are
pre-projected at ingestion).  All types are immutable values after
construction and safe to share across concurrent solver invocations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

Point = tuple[float, float]

# Completions exactly at the budget boundary count as fulfilled (closed
# interval), so feasibility checks carry this absolute slack in seconds.
TIME_TOL = 1e-9


def _point(x: float, y: float) -> Point:
    return (float(x), float(y))


def point_key(p: Point) -> tuple[float, float]:
    """Canonical dict key for a location (rounded to nanometer scale)."""
    return (round(p[0], 9), round(p[1], 9))


@dataclass(frozen=True)
class Task:
    """A located unit of work; may be half of a pickup/dropoff pair.

    `pickup_of` names the dropoff task this task is the pickup for;
    `dropoff_of` names the pickup task this task is the dropoff for.
    At most one of the two may be set, and paired tasks must reference
    each other symmetrically and share a customer.
    """

    task_id: str
    customer_id: str
    location: Point
    service_time: float
    arrival_time: float = 0.0
    deadline: Optional[float] = None
    pickup_of: Optional[str] = None
    dropoff_of: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", _point(*self.location))
        if not all(map(math.isfinite, self.location)):
            raise ValueError(f"task {self.task_id}: location must be finite")
        if not 0 <= self.service_time < math.inf:
            raise ValueError(f"task {self.task_id}: service_time must be >= 0 and finite")
        if not math.isfinite(self.arrival_time):
            raise ValueError(f"task {self.task_id}: arrival_time must be finite")
        if self.deadline is not None and not math.isfinite(self.deadline):
            raise ValueError(f"task {self.task_id}: deadline must be finite")
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ValueError(
                f"task {self.task_id}: deadline must be after arrival_time"
            )
        if self.pickup_of is not None and self.dropoff_of is not None:
            raise ValueError(
                f"task {self.task_id}: cannot be both pickup and dropoff"
            )

    @property
    def is_pickup(self) -> bool:
        return self.pickup_of is not None

    @property
    def is_dropoff(self) -> bool:
        return self.dropoff_of is not None

    @property
    def pair_id(self) -> Optional[str]:
        """Task id of the other half of the pair, if any."""
        return self.pickup_of if self.pickup_of is not None else self.dropoff_of

    def expires_at(self, expiry_s: float) -> float:
        """When a task still waiting for a plan expires: `expiry_s` after
        its arrival or at its deadline, whichever comes first."""
        patience = self.arrival_time + expiry_s
        return patience if self.deadline is None else min(patience, self.deadline)


@dataclass(frozen=True)
class Vehicle:
    """A fleet vehicle.

    `capacity` bounds concurrent open pickup/dropoff pairs on a path.
    `ready_offset` is how many seconds into the round the vehicle becomes
    available (nonzero during mid-round replanning).
    """

    vehicle_id: str
    start_location: Point
    speed: float = 10.0
    capacity: int = 1
    return_home: bool = False
    ready_offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_location", _point(*self.start_location))
        if not all(map(math.isfinite, self.start_location)):
            raise ValueError(f"vehicle {self.vehicle_id}: start_location must be finite")
        if not 0 < self.speed < math.inf:
            raise ValueError(f"vehicle {self.vehicle_id}: speed must be > 0 and finite")
        if self.capacity < 1:
            raise ValueError(f"vehicle {self.vehicle_id}: capacity must be >= 1")
        if not 0 <= self.ready_offset < math.inf:
            raise ValueError(f"vehicle {self.vehicle_id}: ready_offset must be >= 0 and finite")


@dataclass(frozen=True)
class TravelModel:
    """Travel-time model: straight-line at vehicle speed, or a fixed matrix.

    The matrix variant is indexed by registered location ids; every queried
    point must be registered (see `register`).  Matrix entries are seconds
    and ignore vehicle speed.
    """

    variant: str = "euclidean"
    seconds: Optional[np.ndarray] = None
    location_ids: tuple[str, ...] = ()
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in ("euclidean", "matrix"):
            raise ValueError(f"unknown travel model variant {self.variant!r}")
        if self.variant == "matrix":
            m = np.asarray(self.seconds, dtype=float)
            n = len(self.location_ids)
            if m.shape != (n, n):
                raise ValueError(
                    f"matrix shape {m.shape} does not match {n} location ids"
                )
            if not np.all(m >= 0):  # NaN fails too
                raise ValueError("travel matrix entries must be >= 0, not NaN")
            if np.any(np.abs(np.diag(m)) > TIME_TOL):
                raise ValueError("travel matrix diagonal must be 0")
            object.__setattr__(self, "seconds", m)

    @staticmethod
    def euclidean() -> "TravelModel":
        return TravelModel(variant="euclidean")

    @staticmethod
    def matrix(
        location_ids: Sequence[str],
        seconds: np.ndarray,
        coordinates: Optional[dict[str, Point]] = None,
    ) -> "TravelModel":
        """Matrix model; `coordinates` maps location ids to points.

        Location ids of the form "x;y" bind their own coordinates when no
        explicit mapping is given.
        """
        model = TravelModel(
            variant="matrix",
            seconds=np.asarray(seconds, dtype=float),
            location_ids=tuple(location_ids),
        )
        if coordinates is None:
            coordinates = {}
            for loc_id in model.location_ids:
                if ";" in loc_id:
                    xs, ys = loc_id.split(";", 1)
                    coordinates[loc_id] = (float(xs), float(ys))
        for loc_id, pt in coordinates.items():
            model.register(loc_id, pt)
        return model

    def register(self, location_id: str, point: Point) -> None:
        """Bind a point to one of the matrix's location ids."""
        if location_id not in self.location_ids:
            raise ValueError(f"unknown location id {location_id!r}")
        self._index[point_key(_point(*point))] = self.location_ids.index(location_id)

    def _lookup(self, p: Point) -> int:
        key = point_key(p)
        if key not in self._index:
            raise ValueError(f"unregistered location {p} under matrix travel model")
        return self._index[key]


def travel_time(a: Point, b: Point, model: TravelModel, vehicle: Vehicle) -> float:
    """Seconds to travel from a to b."""
    if model.variant == "euclidean":
        return math.hypot(b[0] - a[0], b[1] - a[1]) / vehicle.speed
    return float(model.seconds[model._lookup(a), model._lookup(b)])


@dataclass(frozen=True)
class Path:
    """One vehicle's planned visit order.  A path carries no timings:
    `path_times` gives them for the vehicle and round start it is
    served from."""

    vehicle_id: str
    tasks: tuple[Task, ...]

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.task_id for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


def path_times(
    vehicle: Vehicle,
    tasks: Sequence[Task],
    model: TravelModel,
    round_start: float = 0.0,
) -> list[tuple[float, float, float]]:
    """(departure, arrival, completion) in absolute seconds for serving
    `tasks` in order from the vehicle's start: each arrival is the
    previous completion plus leg travel, each completion the arrival
    plus service time."""
    times = []
    clock = round_start + vehicle.ready_offset
    loc = vehicle.start_location
    for t in tasks:
        arrive = clock + travel_time(loc, t.location, model, vehicle)
        done = arrive + t.service_time
        times.append((clock, arrive, done))
        clock, loc = done, t.location
    return times


def sequence_cost(
    tasks: Sequence[Task], vehicle: Vehicle, model: TravelModel
) -> float:
    """Travel plus service seconds for a task sequence, with the return leg
    back to the start location iff the vehicle must return home."""
    cost = 0.0
    loc = vehicle.start_location
    for t in tasks:
        cost += travel_time(loc, t.location, model, vehicle) + t.service_time
        loc = t.location
    if vehicle.return_home and tasks:
        cost += travel_time(loc, vehicle.start_location, model, vehicle)
    return cost


def riders_on_board(tasks: Sequence[Task]) -> frozenset[str]:
    """The pickups that the dropoffs among `tasks` name but `tasks`
    lack: riders a vehicle already carries.  A path may serve their
    dropoffs; they hold no capacity."""
    ids = {t.task_id for t in tasks}
    return frozenset(
        t.dropoff_of for t in tasks if t.dropoff_of is not None and t.dropoff_of not in ids
    )


def step_of(task: Task, unserved: Mapping[str, Task]) -> Optional[tuple[Task, ...]]:
    """The tasks a path appends when it takes `task`: a plain task
    alone, a pickup together with its dropoff.  None for a pickup whose
    dropoff is not among `unserved`, and for a dropoff: it goes with its
    pickup, never alone."""
    if task.dropoff_of is not None:
        return None
    if task.pickup_of is None:
        return (task,)
    drop = unserved.get(task.pickup_of)
    return None if drop is None else (task, drop)


_NONE_OPEN: frozenset[str] = frozenset()

def _reason(broken: tuple[str, tuple]) -> str:
    """The reason a broken rule, as `PathState._walk` reports it, gives."""
    rule, subject = broken
    return rule.format(*subject)


def path_violation(
    tasks: Sequence[Task],
    vehicle: Vehicle,
    model: TravelModel,
    budget: float,
    round_start: float = 0.0,
) -> Optional[str]:
    """None when the ordered sequence is a valid path, else a reason.

    Checks the budget (including the vehicle's ready offset and return
    leg), deadlines at schedule time, pickup-before-dropoff ordering,
    the concurrent open-pair capacity, and that every pair closes.
    """
    return PathState(vehicle, model, budget, round_start).violation(tasks)


class PathState:
    """A walk of the path rules paused after a prefix that keeps every
    per-task rule: the clock, location, open pickups and length it
    reached.  `onboard` names riders the vehicle carries from the start
    (see `riders_on_board`); their dropoffs need no pickup.

    The rules live here alone, in `_walk`.  `violation(tasks)` is the
    reason the prefix plus `tasks` is no valid path, or None, and leaves
    the state as it is; `advance(tasks)` appends accepted tasks;
    `step(task)` returns the state one task further; `closes()` tells
    whether the prefix is a valid path; `nearest(candidates, unserved)`
    is the nearest candidate whose step keeps it valid.  They cost
    O(len(tasks)), not O(len(prefix)), and the clock adds the same
    floats in the same order as a walk from the start.
    """

    __slots__ = ("vehicle", "model", "budget", "round_start", "budget_end", "onboard",
                 "clock", "loc", "open_pairs", "length")

    def __init__(
        self,
        vehicle: Vehicle,
        model: TravelModel,
        budget: float,
        round_start: float = 0.0,
        onboard: frozenset[str] = _NONE_OPEN,
    ) -> None:
        self.vehicle = vehicle
        self.model = model
        self.budget = budget
        self.round_start = round_start
        # A valid path ends by this clock, back home if it returns there.
        self.budget_end = round_start + budget + TIME_TOL
        self.onboard = onboard
        self.clock = round_start + vehicle.ready_offset
        self.loc = vehicle.start_location
        self.open_pairs = _NONE_OPEN
        self.length = 0

    def _walk(
        self, tasks: Sequence[Task], leg: Optional[float] = None, whole: bool = False
    ) -> tuple[Optional[tuple[str, tuple]], float, Point, frozenset[str]]:
        """The rules of each task after the prefix: it completes by the
        budget's end and its deadline, a pickup fits the vehicle's
        capacity, and a dropoff follows its pickup or a rider on board.
        `leg`, if given, is the travel time to the first task.  With
        `whole`, also the rules of the whole path prefix + `tasks`: a
        path with no task breaks none; any other must be back home by
        the budget's end if the vehicle returns there, with every pair
        closed.

        Returns the first broken rule as a (rule, subject) pair, the
        rule a reason with blanks that its subject fills (None when no
        rule breaks), and the clock, location and open pickups after the
        last task walked.
        """
        vehicle, model, budget_end = self.vehicle, self.model, self.budget_end
        clock, loc, open_pairs = self.clock, self.loc, self.open_pairs
        for t in tasks:
            clock += travel_time(loc, t.location, model, vehicle) if leg is None else leg
            clock += t.service_time
            loc, leg = t.location, None
            if clock > budget_end:
                broken = ("task {} completes after the budget ends", (t.task_id,))
                return broken, clock, loc, open_pairs
            if t.deadline is not None and clock > t.deadline + TIME_TOL:
                broken = ("task {} completes after its deadline", (t.task_id,))
                return broken, clock, loc, open_pairs
            if t.pickup_of is not None:
                if len(open_pairs) >= vehicle.capacity:
                    broken = ("pickup {} exceeds capacity {}", (t.task_id, vehicle.capacity))
                    return broken, clock, loc, open_pairs
                open_pairs = open_pairs | {t.task_id}
            elif t.dropoff_of is not None:
                if t.dropoff_of not in open_pairs and t.dropoff_of not in self.onboard:
                    return ("dropoff {} precedes its pickup", (t.task_id,)), clock, loc, open_pairs
                open_pairs = open_pairs - {t.dropoff_of}
        if whole and (self.length or tasks):
            if vehicle.return_home:
                end = clock + travel_time(loc, vehicle.start_location, model, vehicle)
                if end > budget_end:
                    broken = ("path cost {:.3f}s exceeds budget {}s",
                              (end - self.round_start, self.budget))
                    return broken, clock, loc, open_pairs
            if open_pairs:
                broken = ("pickup {} is never dropped off", (min(open_pairs),))
                return broken, clock, loc, open_pairs
        return None, clock, loc, open_pairs

    def violation(self, tasks: Sequence[Task]) -> Optional[str]:
        """None when prefix + `tasks` is a valid path, else a reason."""
        broken = self._walk(tasks, whole=True)[0]
        return None if broken is None else _reason(broken)

    def closes(self) -> bool:
        """Whether the prefix is a valid path: `violation(()) is None`."""
        return self._walk((), whole=True)[0] is None

    def advance(self, tasks: Sequence[Task]) -> None:
        """Append `tasks`, which must keep the path valid."""
        broken, self.clock, self.loc, self.open_pairs = self._walk(tasks, whole=True)
        self.length += len(tasks)
        if broken is not None:
            raise ValueError(f"advanced past a broken rule: {_reason(broken)}")

    def step(self, task: Task, leg: Optional[float] = None) -> Optional["PathState"]:
        """The state after `task`, reached by a leg of `leg` seconds (by
        default the travel time to it), or None when the task breaks a
        rule of its own.  The return leg is not checked here: under a
        matrix model a later task can make it shorter.  The state itself
        is left as it is."""
        broken, clock, loc, open_pairs = self._walk((task,), leg)
        if broken is not None:
            return None
        child = PathState.__new__(PathState)
        child.vehicle, child.model, child.budget = self.vehicle, self.model, self.budget
        child.round_start, child.budget_end = self.round_start, self.budget_end
        child.onboard, child.clock, child.loc = self.onboard, clock, loc
        child.open_pairs, child.length = open_pairs, self.length + 1
        return child

    def nearest(
        self, candidates: Iterable[Task], unserved: Mapping[str, Task]
    ) -> Optional[tuple[float, tuple[Task, ...]]]:
        """The nearest of `candidates` whose `step_of` keeps the path
        valid, as (leg, step), or None when no step does.  A later
        candidate displaces the best only by a leg more than 1e-12 s
        shorter, and one that cannot is not checked.  Each leg is
        computed once and checks its own step."""
        vehicle, model, loc = self.vehicle, self.model, self.loc
        # `travel_time`'s euclidean expression, inline: a call per
        # candidate would be most of a round-robin scan's cost.
        (x, y), speed = loc, vehicle.speed
        euclidean = model.variant == "euclidean"
        best = None
        for t in candidates:
            if euclidean:
                tx, ty = t.location
                leg = math.hypot(tx - x, ty - y) / speed
            else:
                leg = travel_time(loc, t.location, model, vehicle)
            if best is not None and not leg < bound:
                continue
            step = step_of(t, unserved)
            if step is not None and self._walk(step, leg, True)[0] is None:
                best, bound = (leg, step), leg - 1e-12
        return best


@dataclass(frozen=True)
class Schedule:
    """One path per vehicle over a round of `round_duration` seconds."""

    paths: tuple[Path, ...]
    round_duration: float

    def __post_init__(self) -> None:
        if self.round_duration <= 0:
            raise ValueError("round_duration must be > 0")
        seen: set[str] = set()
        for p in self.paths:
            for tid in p.task_ids:
                if tid in seen:
                    raise ValueError(f"task {tid} appears on two paths")
                seen.add(tid)

    def all_tasks(self) -> list[Task]:
        return [t for p in self.paths for t in p.tasks]

    def task_ids(self) -> set[str]:
        return {t.task_id for t in self.all_tasks()}

    def total_tasks(self) -> int:
        return sum(len(p) for p in self.paths)


def empty_schedule(vehicles: Sequence[Vehicle], round_duration: float) -> Schedule:
    return Schedule(tuple(Path(v.vehicle_id, ()) for v in vehicles), round_duration)


def validate_pairs(tasks: Iterable[Task]) -> None:
    """Ensure pickup/dropoff references are symmetric and same-customer."""
    by_id = {t.task_id: t for t in tasks}
    for t in by_id.values():
        if t.pickup_of is not None:
            other = by_id.get(t.pickup_of)
            if other is None:
                raise ValueError(f"task {t.task_id}: unknown pair {t.pickup_of}")
            if other.dropoff_of != t.task_id:
                raise ValueError(
                    f"pair {t.task_id}/{other.task_id} does not reference back"
                )
            if other.customer_id != t.customer_id:
                raise ValueError(
                    f"pair {t.task_id}/{other.task_id} spans two customers"
                )
        if t.dropoff_of is not None:
            other = by_id.get(t.dropoff_of)
            if other is None:
                raise ValueError(f"task {t.task_id}: unknown pair {t.dropoff_of}")
            if other.pickup_of != t.task_id:
                raise ValueError(
                    f"pair {other.task_id}/{t.task_id} does not reference back"
                )


def customers_of(tasks: Iterable[Task]) -> tuple[str, ...]:
    """Canonical (sorted) customer ordering for allocation vectors."""
    return tuple(sorted({t.customer_id for t in tasks}))


def task_count(task: Task, ride_counts_as: int = 1) -> float:
    """Throughput count of one completed task.

    A pickup/dropoff pair contributes `ride_counts_as` once its dropoff is
    complete: each half counts 1 under 2, otherwise the dropoff carries
    the whole count and the pickup none.
    """
    if task.is_pickup:
        return 1.0 if ride_counts_as == 2 else 0.0
    if task.is_dropoff:
        return 1.0 if ride_counts_as == 2 else float(ride_counts_as)
    return 1.0


def count_fulfilled(
    tasks: Iterable[Task],
    customers: Sequence[str],
    ride_counts_as: int = 1,
) -> np.ndarray:
    """Per-customer `task_count` sums for a set of completed tasks."""
    index = {c: i for i, c in enumerate(customers)}
    counts = np.zeros(len(customers), dtype=float)
    for t in tasks:
        if t.customer_id in index:
            counts[index[t.customer_id]] += task_count(t, ride_counts_as)
    return counts


def allocation_of(
    schedule: Schedule,
    customers: Sequence[str],
    ride_counts_as: int = 1,
) -> np.ndarray:
    """Throughput vector x (tasks/minute per customer) of a schedule."""
    minutes = schedule.round_duration / 60.0
    counts = count_fulfilled(schedule.all_tasks(), customers, ride_counts_as)
    return counts / minutes


@dataclass(frozen=True)
class Instance:
    """A one-round planning problem: tasks, fleet, travel model, budget."""

    tasks: tuple[Task, ...]
    vehicles: tuple[Vehicle, ...]
    travel: TravelModel
    budget: float
    round_start: float = 0.0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be > 0")
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))

    @property
    def customers(self) -> tuple[str, ...]:
        return customers_of(self.tasks)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_TASK_KEYS = {
    "customer", "task_id", "x", "y", "service_s", "arrival_s",
    "deadline_s", "pickup_of", "dropoff_of",
}


def task_to_record(task: Task) -> dict:
    rec = {
        "customer": task.customer_id,
        "task_id": task.task_id,
        "x": task.location[0],
        "y": task.location[1],
        "service_s": task.service_time,
        "arrival_s": task.arrival_time,
    }
    if task.deadline is not None:
        rec["deadline_s"] = task.deadline
    if task.pickup_of is not None:
        rec["pickup_of"] = task.pickup_of
    if task.dropoff_of is not None:
        rec["dropoff_of"] = task.dropoff_of
    return rec


def task_from_record(rec: dict, lineno: int = 0) -> Task:
    where = f"line {lineno}: " if lineno else ""
    missing = {"customer", "task_id", "x", "y", "service_s"} - rec.keys()
    if missing:
        raise ValueError(f"{where}missing task fields {sorted(missing)}")
    unknown = rec.keys() - _TASK_KEYS
    if unknown:
        raise ValueError(f"{where}unknown task fields {sorted(unknown)}")
    try:
        return Task(
            task_id=str(rec["task_id"]),
            customer_id=str(rec["customer"]),
            location=(float(rec["x"]), float(rec["y"])),
            service_time=float(rec["service_s"]),
            arrival_time=float(rec.get("arrival_s", 0.0)),
            deadline=None if rec.get("deadline_s") is None else float(rec["deadline_s"]),
            pickup_of=rec.get("pickup_of"),
            dropoff_of=rec.get("dropoff_of"),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}{exc}") from exc


def read_tasks_jsonl(path: str) -> list[Task]:
    """Read tasks from a JSON-lines task or trace file; task ids must be
    unique."""
    tasks: dict[str, Task] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
            task = task_from_record(rec, lineno)
            if task.task_id in tasks:
                raise ValueError(f"line {lineno}: duplicate task_id {task.task_id!r}")
            tasks[task.task_id] = task
    validate_pairs(tasks.values())
    return list(tasks.values())


def write_tasks_jsonl(path: str, tasks: Iterable[Task]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in tasks:
            fh.write(json.dumps(task_to_record(t), sort_keys=True) + "\n")


def read_travel_matrix_csv(path: str) -> TravelModel:
    """Travel matrix CSV: header row of location ids, entries in seconds."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty travel matrix file")
    ids = [cell.strip() for cell in rows[0]]
    body = rows[1:]
    if len(body) != len(ids):
        raise ValueError(
            f"travel matrix has {len(body)} rows for {len(ids)} location ids"
        )
    seconds = np.array([[float(cell) for cell in row] for row in body])
    return TravelModel.matrix(ids, seconds)


def write_travel_matrix_csv(
    path: str, location_ids: Sequence[str], seconds: np.ndarray
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(location_ids)
        for row in np.asarray(seconds, dtype=float):
            writer.writerow([f"{v:g}" for v in row])


def vehicle_to_record(v: Vehicle) -> dict:
    return {
        "vehicle_id": v.vehicle_id,
        "x": v.start_location[0],
        "y": v.start_location[1],
        "speed_mps": v.speed,
        "capacity": v.capacity,
        "return_home": v.return_home,
    }


def vehicle_from_record(rec: dict) -> Vehicle:
    """A roster record as a `Vehicle`, its values taken as they are typed."""
    missing = {"vehicle_id", "x", "y"} - rec.keys()
    if missing:
        raise ValueError(f"missing vehicle fields {sorted(missing)}")
    vid = str(rec["vehicle_id"])
    capacity, home = rec.get("capacity", 1), rec.get("return_home", False)
    if type(capacity) not in (int, float) or not float(capacity).is_integer():
        raise ValueError(f"vehicle {vid!r}: capacity must be an integer, got {capacity!r}")
    if type(home) is not bool:
        raise ValueError(f"vehicle {vid!r}: return_home must be true or false, got {home!r}")
    return Vehicle(
        vehicle_id=vid,
        start_location=(float(rec["x"]), float(rec["y"])),
        speed=float(rec.get("speed_mps", 10.0)),
        capacity=int(capacity),
        return_home=home,
    )


def read_vehicles_json(path: str) -> list[Vehicle]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("vehicle roster must be a JSON list")
    vehicles: dict[str, Vehicle] = {}
    for rec in data:
        v = vehicle_from_record(rec)
        if v.vehicle_id in vehicles:
            raise ValueError(f"duplicate vehicle_id {v.vehicle_id!r} in roster")
        vehicles[v.vehicle_id] = v
    return list(vehicles.values())


def write_vehicles_json(path: str, vehicles: Iterable[Vehicle]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([vehicle_to_record(v) for v in vehicles], fh, indent=2, sort_keys=True)
        fh.write("\n")
