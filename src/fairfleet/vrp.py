"""Weighted-VRP solver layer.

Solves  argmax_schedule  w . x(schedule)  subject to per-vehicle budget,
deadline, and pickup/dropoff constraints, where x is the per-customer
throughput allocation.  Three entry points:

* exact_vrp       -- branch and bound over task sequences with an
                     admissible remaining-weight bound and dominance
                     pruning; provably optimal on small instances.
* heuristic_vrp   -- cheapest insertion by marginal weighted gain per
                     second from empty paths, then local search; the
                     best vetted warm start, taken unchanged, is the
                     floor it must beat.  A path is a list of
                     rows of the round's `RoundTable` of travel
                     seconds, which every solve of the round reads.
                     Each path keeps its insertion offers until it
                     changes, so a step rescans only the path the last
                     insertion changed.  A pool of at most _SMALL_POOL
                     insertion candidates is screened and ordered in
                     Python lists, a larger one in NumPy arrays, to the
                     same bits (`_Pool`).  The 2-opt, relocate and swap
                     passes list their scans for one loop
                     (`_Heuristic._search`): it charges the effort
                     (`_charge`), skips a scan the table knows void,
                     and decides each move the screen lets through (a
                     few table lookups, within _GUARD of the threshold)
                     by one rule on exact path costs (`_take`), so
                     results match evaluating every move exactly.  The
                     table memoizes for all solves of the round each
                     pair's best placement, each insertion screen and
                     each scan that ended without a move, under one key
                     rule (`RoundTable`).
* greedy_alpha_heuristic -- fairness-guided construction by greatest
                     return-on-investment.

A `SolverRequest` holds each solve setting once: its round's
`RoundTable`, which owns the travel model, budget and round start, its
commitments, whose two rules only this module reads (`_task_weight`,
`may_serve`), and its `SolverConfig`.  Every solver returns untimed
paths (`model.Path`, a task order); the emulator times the one plan it
commits.

Ties on the weighted objective are broken toward larger unweighted total
throughput.  All solvers are deterministic for a fixed (instance, weights,
commitments, config).
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .boundary import TOL_FACE
from .fairness import alpha_fair_utility, is_leximin
from .model import (
    Instance,
    Path,
    PathState,
    Schedule,
    Task,
    TravelModel,
    Vehicle,
    allocation_of,
    empty_schedule,
    path_violation,
    riders_on_board,
    step_of,
    task_count,
    travel_time,
)

logger = logging.getLogger(__name__)

# The weight of a committed task, which forces it into a replan.
COMMIT_WEIGHT_RATIO = 1e6

# Local-search effort per configured solver second; the budget is derived
# numerically from time_limit_s so results never depend on wall-clock speed.
_EVALS_PER_SECOND = 60_000

_VALUE_TOL = 1e-9


@dataclass
class SolverConfig:
    """Backend selection and limits (config keys under `solver.`).

    `time_limit_s` is an effort budget, not a wall-clock cap: a heuristic
    solve makes `max(10_000, 60_000 * time_limit_s)` move evaluations.
    The exact backend ignores it.
    """

    backend: str = "auto"
    time_limit_s: float = 10.0
    seed: int = 0
    exact_task_limit: int = 10
    exact_vehicle_limit: int = 3

    def __post_init__(self) -> None:
        if self.backend not in ("exact", "heuristic", "auto"):
            raise ValueError(f"unknown solver backend {self.backend!r}")
        if not 0 < self.time_limit_s < math.inf:
            raise ValueError("time_limit_s must be > 0 and finite")
        for name in ("exact_task_limit", "exact_vehicle_limit"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def picks_exact(self, n_tasks: int, n_vehicles: int) -> bool:
        """The backend rule: `exact`, or `auto` within the exact cutoff."""
        if self.backend == "auto":
            return n_tasks <= self.exact_task_limit and n_vehicles <= self.exact_vehicle_limit
        return self.backend == "exact"


@dataclass(frozen=True)
class SolverRequest:
    """One weighted-VRP instance on its round's `table`.

    The table owns the travel model, the budget and the round start;
    `tasks` and `vehicles` must be among its own (`RoundTable.covers`).
    `weights` aligns with `customers` (canonical sorted order).  Negative
    weights are clamped to zero before solving.  `committed` maps a
    task_id to the vehicle it was promised to: the task weighs
    COMMIT_WEIGHT_RATIO in place of its customer's weight, and only that
    vehicle may serve it (`may_serve`).  `config` names the backend, the
    effort budget, the seed and the exact cutoff.
    """

    tasks: tuple[Task, ...]
    vehicles: tuple[Vehicle, ...]
    customers: tuple[str, ...]
    weights: np.ndarray
    table: RoundTable = field(repr=False, compare=False)
    committed: Optional[Mapping[str, str]] = None
    warm_starts: tuple[Schedule, ...] = ()
    config: SolverConfig = field(default_factory=SolverConfig)
    ride_counts_as: int = 1

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.customers),):
            raise ValueError("weights must align with customers")
        if np.any(w < 0):
            logger.warning("negative weights clamped to 0: %s", w)
            w = np.maximum(w, 0.0)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        if not self.table.covers(self):
            raise ValueError("the request's tasks and vehicles must be its table's")


def _customer_weights(req: SolverRequest) -> dict[str, float]:
    """Each customer's weight as a float, read once per solve."""
    return dict(zip(req.customers, req.weights.tolist()))


def may_serve(committed: Optional[Mapping[str, str]], task: Task, vehicle: Vehicle) -> bool:
    """Whether the commitments let `vehicle` serve `task`: a committed
    task only on its own vehicle, any other task anywhere."""
    want = committed.get(task.task_id) if committed else None
    return want is None or want == vehicle.vehicle_id


def _task_weight(req: SolverRequest, task: Task, weights: dict[str, float]) -> float:
    if req.committed and task.task_id in req.committed:
        return COMMIT_WEIGHT_RATIO
    return weights.get(task.customer_id, 0.0)


def _contribution(req: SolverRequest, task: Task, weights: dict[str, float]) -> float:
    """Weighted objective gain of completing this task (w . x terms);
    `weights` is `_customer_weights(req)`."""
    minutes = req.table.budget / 60.0
    return _task_weight(req, task, weights) * task_count(task, req.ride_counts_as) / minutes


def schedule_value(req: SolverRequest, schedule: Schedule) -> tuple[float, float]:
    """(weighted objective, unweighted total count) of a schedule."""
    weights = _customer_weights(req)
    value = 0.0
    count = 0.0
    for t in schedule.all_tasks():
        value += _contribution(req, t, weights)
        count += task_count(t, req.ride_counts_as)
    return value, count


# ---------------------------------------------------------------------------
# Exact branch and bound
# ---------------------------------------------------------------------------


class ExactSizeError(ValueError):
    """Instance exceeds the exact solver's size cutoff."""


def exact_vrp(req: SolverRequest) -> Schedule:
    """Provably optimal weighted schedule by branch and bound.

    Branches append one task at a time to the current vehicle's path, in
    canonical task order, by `PathState.step` with the leg from the
    round's `RoundTable`, and close a path where
    `PathState.closes`; riders on board are those `riders_on_board`
    finds in the request.  Pruning: the path rules, `may_serve`, the
    admissible remaining-weight bound, and a dominance table keyed on
    (vehicle, served-set, last-task) keeping the earliest completion
    clock.  Ties on w . x resolve toward larger total task count, then
    first-found in canonical order.
    """
    task_limit, vehicle_limit = req.config.exact_task_limit, req.config.exact_vehicle_limit
    if len(req.tasks) > task_limit or len(req.vehicles) > vehicle_limit:
        raise ExactSizeError(
            f"{len(req.tasks)} tasks / {len(req.vehicles)} vehicles exceed the "
            f"exact cutoff ({task_limit} tasks, {vehicle_limit} vehicles)"
        )

    tasks = sorted(req.tasks, key=lambda t: t.task_id)
    vehicles = list(req.vehicles)
    n = len(tasks)
    nv = len(vehicles)
    weights = _customer_weights(req)
    contrib = [_contribution(req, t, weights) for t in tasks]
    counts = [task_count(t, req.ride_counts_as) for t in tasks]
    serves = [[may_serve(req.committed, t, veh) for t in tasks] for veh in vehicles]

    # Travel seconds from the round's table: legs[v][row][row], where a
    # path starts at its vehicle's home row and moves to rows[i].
    table = req.table
    legs = [table.seconds[v.vehicle_id] for v in vehicles]
    homes = [table.home[v.vehicle_id] for v in vehicles]
    rows = [table.row[t.task_id] for t in tasks]
    onboard = riders_on_board(tasks)

    def start(v: int) -> PathState:
        return PathState(vehicles[v], table.travel, table.budget, table.round_start, onboard)

    best = {
        "value": -np.inf,
        "count": -1.0,
        "paths": None,
    }
    seq_memo: dict[tuple[int, int, int], float] = {}
    closed_memo: set[tuple[int, int]] = set()

    def leaf(value: float, count: float, paths: tuple) -> None:
        if value > best["value"] + _VALUE_TOL or (
            value > best["value"] - _VALUE_TOL and count > best["count"]
        ):
            best["value"] = value
            best["count"] = count
            best["paths"] = paths

    # The bound's sums per served set, each summed once in index order.
    rem_memo: dict[int, tuple[float, float]] = {}

    def remaining(mask: int) -> tuple[float, float]:
        rem = rem_memo.get(mask)
        if rem is None:
            rv = rc = 0.0
            for i in range(n):
                if not mask & (1 << i):
                    rv += contrib[i]
                    rc += counts[i]
            rem = rem_memo[mask] = (rv, rc)
        return rem

    def search(
        v: int,
        mask: int,
        last: int,
        state: PathState,
        value: float,
        count: float,
        paths: tuple,
        current: tuple,
    ) -> None:
        rem_v, rem_c = remaining(mask)
        if value + rem_v < best["value"] - _VALUE_TOL:
            return
        if value + rem_v < best["value"] + _VALUE_TOL and count + rem_c <= best["count"]:
            return

        # Close this vehicle and move on (or finish).
        if state.closes():
            done = paths + (current,)
            if v + 1 == nv:
                leaf(value, count, done)
            elif (v + 1, mask) not in closed_memo:
                closed_memo.add((v + 1, mask))
                search(v + 1, mask, homes[v + 1], start(v + 1), value, count, done, ())

        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            if not serves[v][i]:
                continue
            hop = legs[v][last][rows[i]]
            # Dominance, from the child's clock before the child is built.
            key = (v, mask | bit, i)
            t_clock = state.clock + hop + tasks[i].service_time
            prev_clock = seq_memo.get(key)
            if prev_clock is not None and prev_clock <= t_clock + 1e-12:
                continue
            child = state.step(tasks[i], hop)
            if child is None:
                continue
            seq_memo[key] = child.clock
            search(
                v, mask | bit, rows[i], child,
                value + contrib[i], count + counts[i],
                paths, current + (i,),
            )

    if n and nv:
        search(0, 0, homes[0], start(0), 0.0, 0.0, (), ())

    if best["paths"] is None:
        return empty_schedule(req.vehicles, table.budget)

    built = tuple(
        Path(v.vehicle_id, tuple(tasks[i] for i in idxs))
        for v, idxs in zip(vehicles, best["paths"])
    )
    return Schedule(paths=built, round_duration=table.budget)


# ---------------------------------------------------------------------------
# Insertion + local-search heuristic
# ---------------------------------------------------------------------------

# A screened move delta (a few travel-table lookups) differs from the
# exact difference of two path costs only by rounding, many orders of
# magnitude below this many seconds.  A trial whose screened value lies
# more than _GUARD beyond a decision threshold is decided on the screen;
# every other trial is decided on its exact cost.
_GUARD = 1e-6


def _offer_key(gain: float, delta: float, task_id: str) -> tuple:
    """Insertion preference: positive gain per second of added cost, then
    the cheaper placement, then the task id."""
    if gain > 0:
        return (True, gain / max(delta, 1e-9), -delta, task_id)
    return (False, -delta, -delta, task_id)


class RoundTable:
    """Travel seconds between the tasks and vehicle starts of one round.

    Built from the round's `Instance`, the table owns its travel model,
    budget and round start, which every request it carries solves under;
    `budget_slack` holds each vehicle's budget less its ready offset.
    Rows 0..n-1 are the tasks, `task_at[row]` the task of a row, then one
    row per vehicle start.  A heuristic path is a list of rows, and the
    schedule a solve returns holds their tasks in order, untimed.
    `seconds` holds one row per point, each entry `travel_time` of its
    two points, filled once per distinct vehicle speed (the matrix model
    ignores speed).  `screen` holds the same values as one array per
    speed for the vectorized insertion screen of a large pool, so either
    side of the screen reads the legs every exact cost and
    `path_violation` read.

    The memos below serve every heuristic solve of the round.  One rule
    keys them all: a key names what an outcome reads that varies inside
    the round, so a hit gives the bits a fresh computation would.  A
    path is its id in `path_ids`, interned from its vehicle id and task
    sequence (`_Heuristic._path_id`); a solve's commitments are their id
    in `contexts`, interned from the sorted commitments.  No outcome
    reads the weights, the effort budget or the random draws.

    * `pair_fits[(path id, pickup row)]`: where a pickup and its dropoff
      fit best on the path, `(i, j, delta)`, or None if nowhere.
    * `screens[(path id, pool key)]`: the insertion screen's cheapest
      fitting delta and its position for each plain candidate of the
      pool's rows, as the pool's side holds them: lists of floats and
      ints for a small pool, keyed by a tuple of its rows, or arrays,
      the positions int32 to keep the memo small, keyed by the rows'
      bytes.
    * `void[(pass, commitments id, path ids...)]`: every local-search
      scan that ended without a move, voided as it ends: one path under
      2-opt, one ordered pair of paths under swap, and under relocate
      one task to one path, keyed (source path id, task position,
      destination path id).  A skipped scan still charges the
      evaluations it would have charged, and its pass still shuffles,
      whose draws depend on the list's length alone: the effort budget
      and the random stream, and so every later choice, come out as if
      the scan had run.
    * `vetted[(id(s), commitments id)]`: each warm start's sanitized
      paths and their feasibility, for solves over the whole round.

    Most paths recur across the suite and the `|K| + stages` calls of a
    round: every solve searches from empty paths, and the paths it passes
    through often repeat an earlier solve's.
    """

    def __init__(self, instance: Instance):
        tasks, vehicles = instance.tasks, instance.vehicles
        self.travel = travel = instance.travel
        self.budget, self.round_start = instance.budget, instance.round_start
        self.tasks = {t.task_id: t for t in tasks}
        self.vehicles = {v.vehicle_id: v for v in vehicles}
        self.budget_slack = {v.vehicle_id: instance.budget - v.ready_offset for v in vehicles}
        self.row = {t.task_id: i for i, t in enumerate(tasks)}
        self.task_at = list(tasks)
        self.home = {v.vehicle_id: len(tasks) + k for k, v in enumerate(vehicles)}
        self.svc = [t.service_time for t in tasks]
        self.svc_array = np.array(self.svc, dtype=float)
        points = [t.location for t in tasks] + [v.start_location for v in vehicles]
        self.seconds: dict[str, list[list[float]]] = {}
        self.screen: dict[str, np.ndarray] = {}
        by_key: dict = {}
        for v in vehicles:
            key = v.speed if travel.variant == "euclidean" else None
            if key not in by_key:
                rows = [[travel_time(a, b, travel, v) for b in points] for a in points]
                by_key[key] = (rows, np.array(rows))
            self.seconds[v.vehicle_id], self.screen[v.vehicle_id] = by_key[key]
        self.vetted: dict[tuple, tuple[Schedule, Optional[dict[str, list[int]]]]] = {}
        self.pair_fits: dict[tuple, Optional[tuple[int, int, float]]] = {}
        self.screens: dict[tuple, tuple] = {}
        self.void: set[tuple] = set()
        self.contexts: dict[tuple, int] = {}
        self.path_ids: dict[tuple, int] = {}

    def covers(self, req: SolverRequest) -> bool:
        """Whether the request's tasks and vehicles are the table's."""
        return (
            all(self.vehicles.get(v.vehicle_id) == v for v in req.vehicles)
            and all(self.tasks.get(t.task_id) == t for t in req.tasks)
        )


class _Route:
    """Mutable path of one vehicle during heuristic search.

    The path is `seq`, its tasks' rows in the round table; `table` is
    the vehicle's travel seconds between rows and `home` the row of its
    start location; `screen` is the vehicle's array of the same legs;
    `cost` is the exact cost of the sequence; `key` is its id in the
    round table's `path_ids`, None until a memo reads it.
    """

    __slots__ = ("vehicle", "table", "screen", "home", "seq", "cost", "key")

    def __init__(self, vehicle: Vehicle, table: list, screen: np.ndarray, home: int):
        self.vehicle = vehicle
        self.table = table
        self.screen = screen
        self.home = home
        self.seq: list[int] = []
        self.cost = 0.0
        self.key: Optional[int] = None

    @property
    def tail(self) -> Optional[int]:
        """Row the path ends at after its last task, if it must return."""
        return self.home if self.vehicle.return_home else None


# Pools of at most this many candidates screen and order their offers in
# Python lists and floats: below it, NumPy's cost per call outweighs what
# vectorizing saves (the crossover measured on pools of 4-64 candidates
# and paths of 1-30 tasks).  Larger pools use arrays.
_SMALL_POOL = 12


class _Pool:
    """The plain insertion candidates of one insertion phase, in task-id
    order, with their table rows, service seconds and gains; `up` marks a
    positive gain and `live` those still unscheduled.  `key` names the
    rows in the table's screen memo.

    A pool of at most _SMALL_POOL candidates holds these in lists and
    screens and orders its candidates in Python (`_screen_lists`,
    `_order_lists`), a larger one in arrays (`_screen_arrays`,
    `_order_arrays`).  Both sides give the same bits: the same float
    operations in the same order, the same fit test and the same
    first-min tie-break.  (Only a tie between 0.0 and -0.0, which needs
    legs and a service time of -0.0, may keep a different sign; no
    comparison tells them apart.)
    """

    def __init__(self, heur: "_Heuristic", tasks: list[Task]):
        self.tasks = tasks
        self.index = {t.task_id: u for u, t in enumerate(tasks)}
        self.euclidean = heur.table.travel.variant == "euclidean"
        rows = [heur.row[t.task_id] for t in tasks]
        gain = [heur.contrib[r] for r in rows]
        # `may_serve` lets a vehicle serve the candidates nobody committed
        # and those committed to it.
        committed = heur.req.committed or {}
        free = [t.task_id not in committed for t in tasks]
        self.promised: dict[str, list[int]] = {}
        for u, t in enumerate(tasks):
            if not free[u]:
                self.promised.setdefault(committed[t.task_id], []).append(u)
        self._pins: dict[str, list[bool] | np.ndarray] = {}
        self.small = len(tasks) <= _SMALL_POOL
        if self.small:
            self.rows, self.key = rows, tuple(rows)
            self.svc = [heur.svc[r] for r in rows]
            self.gain, self.free = gain, free
            self.up = [g > 0 for g in gain]
            self.live = [True] * len(tasks)
        else:
            self.rows = np.array(rows, dtype=np.intp)
            self.key = self.rows.tobytes()
            self.svc = heur.table.svc_array[self.rows][:, None]
            self.gain = np.array(gain, dtype=float)
            self.free = np.array(free, dtype=bool)
            self.up = self.gain > 0
            self.live = np.ones(len(tasks), dtype=bool)
            self.span = np.arange(len(tasks))
            self._legs: dict[int, np.ndarray] = {}

    def drop(self, task_id: str) -> None:
        """Mark a task scheduled or dropped; pickups are not in the pool."""
        u = self.index.get(task_id)
        if u is not None:
            self.live[u] = False

    def pins(self, vehicle: Vehicle) -> list[bool] | np.ndarray:
        """Which candidates the commitments let `vehicle` serve."""
        mask = self._pins.get(vehicle.vehicle_id)
        if mask is None:
            mask = self._pins[vehicle.vehicle_id] = self.free.copy()
            for u in self.promised.get(vehicle.vehicle_id, ()):
                mask[u] = True
        return mask

    def screen(self, state: _Route, slack: float) -> tuple:
        """Each candidate's least insertion delta on the path over the
        positions where it fits `slack` (inf if none), and the first
        position that gives it."""
        if self.small:
            return self._screen_lists(state, slack)
        return self._screen_arrays(state, slack)

    def order(self, best, pins) -> list[int]:
        """The live candidates that fit (`best` < inf) and that `pins`,
        if given, allows, in descending `_offer_key` order."""
        if self.small:
            return self._order_lists(best, pins)
        return self._order_arrays(best, pins)

    def _screen_lists(self, state: _Route, slack: float) -> tuple[list[float], list[int]]:
        """`screen`, one candidate at a time."""
        table, seq, tail = state.table, state.seq, state.tail
        prev = [state.home] + seq
        ends = seq + [tail]
        base = [0.0 if b is None else table[a][b] for a, b in zip(prev, ends)]
        into = [table[a] for a in prev]
        euclidean, limit, inf = self.euclidean, slack + 1e-9, float("inf")
        best, pos = [], []
        for r, s in zip(self.rows, self.svc):
            out = table[r]
            # The leg into the candidate, the leg on to where its position
            # ends (none after the last without a return home), less the
            # leg they replace, plus its service.
            fitting = [
                d if (d := (out[a] if euclidean else row[r])
                      + (0.0 if b is None else out[b]) - c + s) <= limit else inf
                for a, row, b, c in zip(prev, into, ends, base)
            ]
            low = min(fitting)
            best.append(low)
            pos.append(fitting.index(low))
        return best, pos

    def _order_lists(self, best: list[float], pins: Optional[list[bool]]) -> list[int]:
        """`order` by one sort on the `_offer_key` terms, task-id order
        last."""
        inf = float("inf")
        live = self.live if pins is None else [a and b for a, b in zip(self.live, pins)]
        keys = [
            (up, g / (b if b > 1e-9 else 1e-9) if up else -b, -b, u)
            for u, (b, up, g, ok) in enumerate(zip(best, self.up, self.gain, live))
            if ok and b < inf
        ]
        keys.sort(reverse=True)
        return [k[-1] for k in keys]

    def _screen_arrays(self, state: _Route, slack: float) -> tuple[np.ndarray, np.ndarray]:
        """`screen`, vectorized over the pool; the positions are int32 to
        keep the round's memo of screens small."""
        m = len(state.seq)
        prev = [state.home] + state.seq
        base_legs = np.array([
            0.0 if b is None else state.table[a][b]
            for a, b in zip(prev, state.seq + [state.tail])
        ])
        # d_in[u, i]: the leg from the point before position i into
        # candidate u; d_out[u, i]: the leg from u to that point.  Only
        # a matrix tells the two directions apart.
        legs = self._legs.get(id(state.screen))
        if legs is None:
            legs = self._legs[id(state.screen)] = state.screen[self.rows]
        d_out = legs[:, prev]
        if self.euclidean:
            d_in = d_out
        else:
            d_in = state.screen[prev][:, self.rows].T
        # The leg out of position i ends where position i + 1 starts.
        d_next = np.zeros((len(self.tasks), m + 1))
        d_next[:, :m] = d_out[:, 1:]
        if state.vehicle.return_home:
            d_next[:, m] = d_out[:, 0]
        delta = d_in + d_next - base_legs[None, :] + self.svc

        fitting = np.where(delta <= slack + 1e-9, delta, np.inf)
        return fitting.min(axis=1), fitting.argmin(axis=1).astype(np.int32)

    def _order_arrays(self, best: np.ndarray, pins: Optional[np.ndarray]) -> list[int]:
        """`order` by one lexsort on the `_offer_key` terms, task-id
        order last."""
        ok = self.live & (best < np.inf)
        if pins is not None:
            ok &= pins
        fit = np.count_nonzero(ok)
        if not fit:
            return []
        second = np.where(self.up, self.gain / np.maximum(best, 1e-9), -best)
        order = np.lexsort((self.span, -best, second, self.up, ok))[::-1]
        return order[:fit].tolist()


class _Offers:
    """One path's insertion offers until the path changes.

    An offer is (`_offer_key`, task, position), where the position of a
    pair is the (i, j) of `_place_pair`; no two offers share a key, as
    each names its own task.  The plain placements are the pool's
    screen of the path, with `order` indexing those that fit in
    descending key order; one becomes an offer only when it is the best
    still open.  `pairs` holds the pair offers in ascending order, so the
    best is last.
    """

    __slots__ = ("pool", "order", "delta", "pos", "k", "head", "pairs")

    def __init__(self, pool: _Pool, plain: tuple, pairs: list[tuple]):
        self.pool = pool
        self.order, self.delta, self.pos = plain
        self.k = 0
        self.head: Optional[tuple] = None
        self.pairs = pairs

    def best(self, unscheduled: dict[str, Task]) -> Optional[tuple]:
        """The greatest-key offer whose task is still unscheduled.  A
        pair's halves are scheduled together, so its pickup tells."""
        head = self.head
        if head is None or head[1].task_id not in unscheduled:
            head = None
            while self.k < len(self.order):
                u = self.order[self.k]
                t = self.pool.tasks[u]
                if t.task_id in unscheduled:
                    key = _offer_key(float(self.pool.gain[u]), float(self.delta[u]), t.task_id)
                    head = (key, t, int(self.pos[u]))
                    break
                self.k += 1
            self.head = head
        pairs = self.pairs
        while pairs and pairs[-1][1].task_id not in unscheduled:
            pairs.pop()
        if pairs and (head is None or pairs[-1][0] > head[0]):
            return pairs[-1]
        return head


class _Heuristic:
    def __init__(self, req: SolverRequest):
        self.req = req
        self.rng = random.Random(req.config.seed)
        self.evals = max(10_000, int(req.config.time_limit_s * _EVALS_PER_SECOND))
        self.has_deadlines = any(t.deadline is not None for t in req.tasks)
        self.table = table = req.table
        self.row = row = table.row
        self.svc, self.home = table.svc, table.home
        weights = _customer_weights(req)
        self.contrib = {row[t.task_id]: _contribution(req, t, weights) for t in req.tasks}
        self.count = {row[t.task_id]: task_count(t, req.ride_counts_as) for t in req.tasks}
        commitments = tuple(sorted((req.committed or {}).items()))
        self.commit_id = table.contexts.setdefault(commitments, len(table.contexts))

    # -- path states --------------------------------------------------------

    def _state(self, vehicle: Vehicle, seq: list[int]) -> _Route:
        vid = vehicle.vehicle_id
        state = _Route(vehicle, self.table.seconds[vid], self.table.screen[vid], self.home[vid])
        self._assign(state, seq)
        return state

    def _assign(self, state: _Route, seq: list[int], cost: Optional[float] = None) -> None:
        state.seq = seq
        state.cost = self._cost(state, seq) if cost is None else cost
        state.key = None

    def _path_id(self, state: _Route) -> int:
        """The state's path as an int, the same for every solve of the
        round: the one name a memo gives a path."""
        if state.key is None:
            ids = self.table.path_ids
            state.key = ids.setdefault((state.vehicle.vehicle_id, tuple(state.seq)), len(ids))
        return state.key

    def _cost(self, state: _Route, seq: Sequence[int]) -> float:
        """Travel plus service seconds of `seq` on the state's vehicle.

        Adds the legs in the order of `model.sequence_cost`, so the result
        is bit-identical to it.
        """
        table, svc = state.table, self.svc
        cost = 0.0
        prev = state.home
        for i in seq:
            cost += table[prev][i] + svc[i]
            prev = i
        if state.vehicle.return_home and seq:
            cost += table[prev][state.home]
        return cost

    # -- screened move deltas ----------------------------------------------
    #
    # Each returns the cost change of a move from a few table lookups;
    # rounding makes it differ from the exact difference of the two path
    # costs by far less than _GUARD.  An empty path that returns home is
    # treated as the leg from the start to itself, which is zero (matrix
    # diagonals are within TIME_TOL of it).

    def _insert_deltas(self, state: _Route, base: list[int], x: int) -> list[float]:
        """Inserting row `x` at each position of `base` on the state's
        vehicle."""
        table, sx, from_x = state.table, self.svc[x], state.table[x]
        prevs = [state.home] + base
        out = [table[prev][x] + sx + (from_x[nxt] - table[prev][nxt])
               for prev, nxt in zip(prevs, base)]
        # After the last position the path ends, or returns home.
        last, tail = table[prevs[-1]], state.tail
        out.append(last[x] + sx if tail is None else last[x] + sx + (from_x[tail] - last[tail]))
        return out

    def _removal_delta(self, state: _Route, pos: int) -> float:
        """Removing the task at `pos`."""
        table, seq = state.table, state.seq
        prev = state.home if pos == 0 else seq[pos - 1]
        nxt = seq[pos + 1] if pos + 1 < len(seq) else state.tail
        x = seq[pos]
        d = -table[prev][x] - self.svc[x]
        if nxt is not None:
            d += table[prev][nxt] - table[x][nxt]
        return d

    def _reversal_deltas(self, state: _Route) -> list[list[float]]:
        """Reversing seq[i..j], at [i][j - i - 2] for every j >= i + 2.

        The reversed inner legs come from prefix sums of the legs walked
        forward and backward, so one formula serves asymmetric tables.
        """
        seq, table, tail = state.seq, state.table, state.tail
        m = len(seq)
        fwd = [0.0] * m
        bwd = [0.0] * m
        for k in range(1, m):
            fwd[k] = fwd[k - 1] + table[seq[k - 1]][seq[k]]
            bwd[k] = bwd[k - 1] + table[seq[k]][seq[k - 1]]
        out = []
        for i in range(m - 1):
            first = seq[i]
            into = table[state.home if i == 0 else seq[i - 1]]
            base = into[first] + bwd[i] - fwd[i]
            row = []
            for j in range(i + 2, m):
                last = seq[j]
                d = into[last] - base + bwd[j] - fwd[j]
                nxt = seq[j + 1] if j + 1 < m else tail
                if nxt is not None:
                    d += table[first][nxt] - table[last][nxt]
                row.append(d)
            out.append(row)
        return out

    def _swap_deltas(self, a: _Route, b: _Route) -> list[list[float]]:
        """Exchanging a's task at i with b's task at j, at [i][j]; the sum
        of both paths' changes."""
        svc = self.svc
        ends_a, ends_b = self._neighbours(a), self._neighbours(b)
        out = []
        for xa, (pa, na, out_a) in zip(a.seq, ends_a):
            into_a = a.table[pa]
            from_a = b.table[xa]
            row = []
            for xb, (pb, nb, out_b) in zip(b.seq, ends_b):
                d = into_a[xb] + svc[xb] - out_a + b.table[pb][xa] + svc[xa] - out_b
                if na is not None:
                    d += a.table[xb][na]
                if nb is not None:
                    d += from_a[nb]
                row.append(d)
            out.append(row)
        return out

    def _neighbours(self, state: _Route) -> list[tuple[int, Optional[int], float]]:
        """(previous row, next row, legs plus service) around each task."""
        table, seq = state.table, state.seq
        out = []
        for prev, x, nxt in zip([state.home] + seq, seq, seq[1:] + [state.tail]):
            legs = table[prev][x] + self.svc[x]
            if nxt is not None:
                legs += table[x][nxt]
            out.append((prev, nxt, legs))
        return out

    def _pair_deltas(self, state: _Route, p: int, d: int) -> list[list[float]]:
        """Inserting pickup `p` before position i and dropoff `d` before
        position j of the original sequence, at [i][j - i] for j >= i."""
        table, seq = state.table, state.seq
        ins_p = self._insert_deltas(state, seq, p)
        ins_d = self._insert_deltas(state, seq, d)
        p_then_d = self.svc[p] + table[p][d] + self.svc[d]
        out = []
        for i, (prev, nxt) in enumerate(zip([state.home] + seq, seq + [state.tail])):
            # back to back in one leg, then apart in two legs
            both = table[prev][p] + p_then_d
            if nxt is not None:
                both += table[d][nxt] - table[prev][nxt]
            out.append([both] + [ins_p[i] + ins_d[j] for j in range(i + 1, len(seq) + 1)])
        return out

    # -- geometry helpers ---------------------------------------------------

    def _feasible(self, vehicle: Vehicle, seq: list[int]) -> bool:
        table = self.table
        tasks = list(map(table.task_at.__getitem__, seq))
        return path_violation(tasks, vehicle, table.travel, table.budget, table.round_start) is None

    def _value(self, paths: dict[str, list[int]]) -> tuple[float, float]:
        """`schedule_value` of these paths, summed in the same order."""
        value = count = 0.0
        for v in self.req.vehicles:
            for r in paths[v.vehicle_id]:
                value += self.contrib[r]
                count += self.count[r]
        return value, count

    # -- warm starts --------------------------------------------------------

    def _vet(self, schedule: Schedule) -> Optional[dict[str, list[int]]]:
        """The warm start's paths as rows, cut to the live tasks each
        vehicle may serve and to whole pairs; None if one is infeasible."""
        live = {t.task_id: t for t in self.req.tasks}
        vmap = {v.vehicle_id: v for v in self.req.vehicles}
        out: dict[str, list[int]] = {vid: [] for vid in vmap}
        for p in schedule.paths:
            veh = vmap.get(p.vehicle_id)
            if veh is None:
                continue
            kept = [
                live[t.task_id]
                for t in p.tasks
                if t.task_id in live and may_serve(self.req.committed, live[t.task_id], veh)
            ]
            ids = {t.task_id for t in kept}
            out[p.vehicle_id] = [
                self.row[t.task_id] for t in kept if t.pair_id is None or t.pair_id in ids
            ]
        return out if all(self._feasible(v, out[v.vehicle_id]) for v in vmap.values()) else None

    def _best_seed(self) -> tuple[tuple[float, float], dict[str, list[int]]]:
        """The best vetted warm start, the first among equals: its
        `(value, count)` and its row paths, which the round table may
        share and so are only read.  With none, `(-inf, -inf)`."""
        req, table = self.req, self.table
        # A solve over all of the table's tasks and vehicles shares the
        # table's verdicts with the other solves of the round that have
        # the same commitments.
        full = len(req.tasks) == len(table.tasks) and len(req.vehicles) == len(table.vehicles)
        memo = table.vetted if full else {}
        best: tuple[tuple[float, float], dict[str, list[int]]] = ((-np.inf, -np.inf), {})
        for s in req.warm_starts:
            key = (id(s), self.commit_id)
            if key not in memo:
                memo[key] = (s, self._vet(s))  # holding s keeps its id unique
            paths = memo[key][1]
            if paths is None:
                continue
            value = self._value(paths)
            if value > best[0]:
                best = (value, paths)
        return best

    def _to_schedule(self, paths: dict[str, list[int]]) -> Schedule:
        table = self.table
        built = tuple(
            Path(v.vehicle_id, tuple(table.task_at[r] for r in paths[v.vehicle_id]))
            for v in self.req.vehicles
        )
        return Schedule(paths=built, round_duration=table.budget)

    # -- insertion ----------------------------------------------------------

    def _plain_offers(self, state: _Route, pool: _Pool) -> tuple:
        """Each live plain task's cheapest placement on this path that fits
        the budget: the order of those that fit, and the delta and the
        position of every candidate."""
        veh = state.vehicle
        slack = self.table.budget_slack[veh.vehicle_id] - state.cost
        if slack <= 0 or not pool.tasks:
            return [], [], []
        key = (self._path_id(state), pool.key)
        screen = self.table.screens.get(key)
        if screen is None:
            screen = self.table.screens[key] = pool.screen(state, slack)
        best, pos = screen
        pins = pool.pins(veh) if self.req.committed else None
        return pool.order(best, pins), best, pos

    def _verify_insert(self, state: _Route, task: Task, pos: int) -> Optional[list[int]]:
        trial = state.seq[:pos] + [self.row[task.task_id]] + state.seq[pos:]
        if self.has_deadlines or task.deadline is not None:
            if not self._feasible(state.vehicle, trial):
                return None
        return trial

    def _try_insert_pair(
        self, state: _Route, pickup: Task, dropoff: Task
    ) -> Optional[tuple[int, int, float]]:
        """Cheapest feasible (pickup, dropoff) placement on this path, as
        `_place_pair` gives it, from the table's memo when an earlier solve
        of the round placed the pair on the same path."""
        committed = self.req.committed
        if not (may_serve(committed, pickup, state.vehicle) and may_serve(committed, dropoff, state.vehicle)):
            return None
        p, d = self.row[pickup.task_id], self.row[dropoff.task_id]
        key = (self._path_id(state), p)
        memo = self.table.pair_fits
        if key not in memo:
            memo[key] = self._place_pair(state, p, d)
        return memo[key]

    def _place_pair(self, state: _Route, p: int, d: int) -> Optional[tuple[int, int, float]]:
        """The placement `_try_insert_pair` takes, as (i, j, delta): in
        scan order, each placement that fits and costs more than 1e-12
        less than the best so far replaces it."""
        seq = state.seq
        slack = self.table.budget_slack[state.vehicle.vehicle_id] - state.cost
        trials = sorted(
            (est, i, j)
            for i, row in enumerate(self._pair_deltas(state, p, d))
            for j, est in enumerate(row, start=i)
            if est <= slack + 1e-9 + _GUARD
        )
        # Try placements from the cheapest screened one.  None beyond
        # _GUARD past the first that fits can be the best, so path_violation
        # runs only on placements that might be.
        fits = []
        limit = None
        for est, i, j in trials:
            if limit is not None and est > limit:
                break
            trial = seq[:i] + [p] + seq[i:j] + [d] + seq[j:]
            delta = self._cost(state, trial) - state.cost
            if delta > slack + 1e-9:
                continue
            if not self._feasible(state.vehicle, trial):
                continue
            fits.append((i, j, delta))
            if limit is None:
                limit = est + _GUARD
        best: Optional[tuple[int, int, float]] = None
        for fit in sorted(fits):
            if best is None or fit[2] < best[2] - 1e-12:
                best = fit
        return best

    def _offers(
        self, state: _Route, pool: _Pool, pickups: list[Task], unscheduled: dict[str, Task]
    ) -> _Offers:
        """Every placement of a candidate on this path."""
        contrib, row = self.contrib, self.row
        pairs = []
        for t in pickups:
            step = step_of(t, unscheduled) if t.task_id in unscheduled else None
            if step is None:
                continue
            _, drop = step
            fit = self._try_insert_pair(state, t, drop)
            if fit is not None:
                i, j, delta = fit
                gain = contrib[row[t.task_id]] + contrib[row[drop.task_id]]
                pairs.append((_offer_key(gain, delta, t.task_id), t, (i, j)))
        return _Offers(pool, self._plain_offers(state, pool), sorted(pairs))

    def _insertion_phase(self, states: list[_Route], unscheduled: dict[str, Task]) -> None:
        """Insert tasks until nothing fits or the effort budget runs out.

        Each step takes the greatest offer key over all paths, the first
        path in order on a tie.  A path keeps its offers until it changes
        and sheds those whose task was scheduled meanwhile, so a step
        rescans only the path the last step changed.
        """
        order = sorted(
            (t for t in unscheduled.values() if not t.is_dropoff),
            key=lambda t: t.task_id,
        )
        if not order:
            return
        pool = _Pool(self, [t for t in order if not t.is_pickup])
        pickups = [t for t in order if t.is_pickup]
        left = len(order)  # candidates still unscheduled
        offers: dict[int, _Offers] = {}
        while left:
            best = None
            for s_i, state in enumerate(states):
                mine = offers.get(s_i)
                if mine is None:
                    mine = offers[s_i] = self._offers(state, pool, pickups, unscheduled)
                top = mine.best(unscheduled)
                if top is not None and (best is None or top[0] > best[1][0]):
                    best = (s_i, top)
            if best is None:
                break
            s_i, (_, task, pos) = best
            state = states[s_i]
            del offers[s_i]
            if task.is_pickup:
                i, j = pos
                p, d = self.row[task.task_id], self.row[task.pickup_of]
                seq = state.seq
                trial = seq[:i] + [p] + seq[i:j] + [d] + seq[j:]
                inserted = [task.task_id, task.pickup_of]
            else:
                trial = self._verify_insert(state, task, pos)
                if trial is None:
                    # deadline push-forward made this placement invalid;
                    # drop the candidate from this round of insertion
                    unscheduled.pop(task.task_id)
                    pool.drop(task.task_id)
                    left -= 1
                    continue
                inserted = [task.task_id]
            self._assign(state, trial)
            for tid in inserted:
                unscheduled.pop(tid, None)
            pool.drop(task.task_id)
            if not self._charge(1, left):  # the step weighed every open candidate
                break
            left -= 1

    # -- local search -------------------------------------------------------

    def _charge(self, n: int, each: int = 1) -> bool:
        """Charge `n` trials of `each` evaluations as if one at a time,
        stopping at the first that leaves none; False if they ran out."""
        if self.evals > n * each:
            self.evals -= n * each
            return True
        stop = max(1, -(-self.evals // each))  # the trial that leaves none
        self.evals -= min(n, stop) * each
        return n < stop

    def _take(self, move: list[tuple[_Route, list[int], float]]) -> bool:
        """Give each path of the move its new rows and exact cost if that
        lowers their total cost by more than 1e-9 and each new path fits
        its budget and the path rules."""
        if not sum(cost for *_, cost in move) < sum(s.cost for s, *_ in move) - _VALUE_TOL:
            return False
        slack = self.table.budget_slack
        if any(cost > slack[s.vehicle.vehicle_id] + 1e-9 for s, _, cost in move):
            return False
        if not all(self._feasible(s.vehicle, seq) for s, seq, _ in move):
            return False
        for state, seq, cost in move:
            self._assign(state, seq, cost)
        return True

    def _search(self, scans: Iterable[tuple]) -> bool:
        """Run a pass's scans, in its order, until one makes a move (True)
        or the effort runs out.

        A scan is (void key, number of trials, evaluations per trial, a
        function and its arguments); the call yields the trials the
        screen lets through as (index in the scan, move), and a move
        lists each path it changes as (state, seq, exact cost).
        Every trial is charged in scan order, those the screen left out
        in one batch per gap.  A scan the round table knows void replays
        only its charge, without the call; a scan that ends without a
        move becomes void.
        """
        void = self.table.void
        for key, n, each, trials, args in scans:
            if key in void:
                if not self._charge(n, each):
                    return False
                continue
            done = 0
            for k, move in trials(*args):
                if not self._charge(k + 1 - done, each):
                    return False
                done = k + 1
                if self._take(move):
                    return True
            if done < n and not self._charge(n - done, each):
                return False
            void.add(key)
        return False

    def _two_opt_pass(self, state: _Route) -> bool:
        """First-improvement segment reversal; cost-only (membership fixed)."""
        m = len(state.seq)
        task_at = self.table.task_at
        if m < 3 or any(task_at[r].pair_id is not None for r in state.seq):
            return False
        idx = list(range(m - 1))
        self.rng.shuffle(idx)
        key = ("2-opt", self.commit_id, self._path_id(state))
        return self._search([(key, (m - 1) * (m - 2) // 2, 1, self._reversals, (state, idx))])

    def _reversals(self, state: _Route, idx: list[int]) -> Iterator[tuple]:
        """Reversing seq[i..j], for each i in `idx` order and j > i + 1."""
        seq = state.seq
        deltas = self._reversal_deltas(state)
        k = 0
        for i in idx:
            for d, est in enumerate(deltas[i]):
                if est <= _GUARD - 1e-9:
                    j = i + d + 2
                    trial = seq[:i] + seq[i:j + 1][::-1] + seq[j + 1:]
                    yield k + d, [(state, trial, self._cost(state, trial))]
            k += len(deltas[i])

    def _relocate_pass(self, states: list[_Route]) -> bool:
        """Move one plain task to its cheapest position on a path: a scan
        per task and path, of one trial that weighs every position."""
        task_at = self.table.task_at
        order = [
            (s_i, t_i)
            for s_i, s in enumerate(states)
            for t_i, r in enumerate(s.seq)
            if task_at[r].pair_id is None
        ]
        self.rng.shuffle(order)
        committed = self.req.committed or {}
        ids = [self._path_id(s) for s in states]
        everywhere = range(len(states))

        def scans():
            for s_i, t_i in order:
                src = states[s_i]
                # A committed task sits on its own vehicle (see `_swap_pass`),
                # the one path that may take it.
                for d_i in (s_i,) if task_at[src.seq[t_i]].task_id in committed else everywhere:
                    dst = states[d_i]
                    key = ("relocate", self.commit_id, ids[s_i], t_i, ids[d_i])
                    # one evaluation per position
                    yield (key, 1, len(dst.seq) + (d_i != s_i),
                           self._relocation, (src, t_i, dst))

        return self._search(scans())

    def _relocation(self, src: _Route, t_i: int, dst: _Route) -> Iterator[tuple]:
        """Moving src's task at `t_i` to its cheapest position on `dst`."""
        same = src is dst
        x = src.seq[t_i]
        removed = src.seq[:t_i] + src.seq[t_i + 1:]
        base = removed if same else dst.seq
        deltas = self._insert_deltas(dst, base, x)
        # On its own path, position t_i puts the task back where it was:
        # the path as it is, which no move improves.  Only another
        # position can, and only if it screens improving.
        others = deltas[:t_i] + deltas[t_i + 1:] if same else deltas
        if not others or self._removal_delta(src, t_i) + min(others) > _GUARD - 1e-9:
            return
        removed_cost = self._cost(src, removed)
        base_cost = removed_cost if same else dst.cost
        # Cheapest position by the ordered `< best - 1e-12` rule.
        # Positions beyond _GUARD of the screened minimum cannot change
        # its outcome, so only the others are costed.
        low = min(deltas)
        best = None
        for pos, est in enumerate(deltas):
            if est <= low + _GUARD:
                trial_seq = base[:pos] + [x] + base[pos:]
                cost = self._cost(dst, trial_seq)
                if best is None or cost - base_cost < best[0] - 1e-12:
                    best = (cost - base_cost, pos, trial_seq, cost)
        _, pos, trial_seq, cost = best
        move = [(dst, trial_seq, cost)]
        yield 0, move if same else move + [(src, removed, removed_cost)]

    def _swap_pass(self, states: list[_Route]) -> bool:
        """Exchange two plain tasks across paths: a scan per pair of paths
        that both have a task that may leave."""
        pairs = list(combinations(range(len(states)), 2))
        self.rng.shuffle(pairs)
        # The plain tasks that may leave each path.  A committed task sits
        # on its own vehicle (insertion and every move keep `may_serve`),
        # so it may leave for none.
        committed = self.req.committed or {}
        task_at = self.table.task_at
        movers = [
            [i for i, r in enumerate(s.seq)
             if task_at[r].pair_id is None and task_at[r].task_id not in committed]
            for s in states
        ]

        def scans():
            for a_i, b_i in pairs:
                ia, ib = movers[a_i], movers[b_i]
                if ia and ib:
                    a, b = states[a_i], states[b_i]
                    key = ("swap", self.commit_id, self._path_id(a), self._path_id(b))
                    yield key, len(ia) * len(ib), 1, self._swaps, (a, b, ia, ib)

        return self._search(scans())

    def _swaps(self, a: _Route, b: _Route, ia: list[int], ib: list[int]) -> Iterator[tuple]:
        """Exchanging a's task at i with b's task at j, for i in `ia`, j in `ib`."""
        deltas = self._swap_deltas(a, b)
        for x, i in enumerate(ia):
            for y, j in enumerate(ib):
                if deltas[i][j] <= _GUARD - 1e-9:
                    ta = a.seq[:i] + [b.seq[j]] + a.seq[i + 1:]
                    tb = b.seq[:j] + [a.seq[i]] + b.seq[j + 1:]
                    yield x * len(ib) + y, [(a, ta, self._cost(a, ta)), (b, tb, self._cost(b, tb))]

    # -- main loop ----------------------------------------------------------

    def _improve(self, states: list[_Route]) -> None:
        """Insert what fits, then local search, until a round of passes
        finds no move or the effort runs out."""
        while True:
            done = {r for s in states for r in s.seq}
            remaining = {t.task_id: t for t in self.req.tasks if self.row[t.task_id] not in done}
            if remaining:
                self._insertion_phase(states, remaining)
            if self.evals <= 0:
                return
            found = [self._two_opt_pass(s) for s in states]
            found += [self._relocate_pass(states), self._swap_pass(states)]
            if not any(found):
                return

    def run(self) -> Schedule:
        # One search, from empty paths; the best warm start, taken
        # unchanged, is the floor it must beat, and a tie goes to the
        # search.
        floor, floor_paths = self._best_seed()
        states = [self._state(v, []) for v in self.req.vehicles]
        self._improve(states)
        paths = {s.vehicle.vehicle_id: s.seq for s in states}
        return self._to_schedule(paths if self._value(paths) >= floor else floor_paths)


def heuristic_vrp(req: SolverRequest) -> Schedule:
    """Insertion + local search from empty paths, or the best vetted warm
    start if that scores higher on the weighted objective."""
    return _Heuristic(req).run()


# ---------------------------------------------------------------------------
# Constructive loops: the greedy construction and the round-robin baseline
# ---------------------------------------------------------------------------

# A chooser of the next step for a vehicle: given its walk so far and the
# unserved tasks, a `step_of` that keeps the walk valid, or None.
Pick = Callable[[PathState, dict[str, Task]], Optional[tuple[Task, ...]]]


def construct(instance: Instance, pick: Pick) -> Schedule:
    """A schedule built one step at a time.  The vehicles take turns in
    id order; on its turn a vehicle asks `pick` for its next step, given
    its walk so far and the unserved tasks in task-id order, and takes it
    at once, so `pick` may note the step as taken.  A vehicle that gets
    None takes no further turn; the loop ends when none is left.  Paths
    come back in the instance's vehicle order."""
    unserved = {t.task_id: t for t in sorted(instance.tasks, key=lambda t: t.task_id)}
    # Each path's walk so far: a candidate is checked as one appended
    # step, not by re-walking the path.
    walks = {
        v.vehicle_id: PathState(v, instance.travel, instance.budget, instance.round_start)
        for v in instance.vehicles
    }
    paths: dict[str, list[Task]] = {vid: [] for vid in walks}
    active = sorted(walks)
    while active:
        still = []
        for vid in active:
            step = pick(walks[vid], unserved)
            if step is None:
                continue
            walks[vid].advance(step)
            paths[vid].extend(step)
            for t in step:
                del unserved[t.task_id]
            still.append(vid)
        active = still
    built = tuple(Path(v.vehicle_id, tuple(paths[v.vehicle_id])) for v in instance.vehicles)
    return Schedule(paths=built, round_duration=instance.budget)


def greedy_alpha_heuristic(
    tasks: Sequence[Task],
    vehicles: Sequence[Vehicle],
    budget: float,
    alpha: float,
    travel: TravelModel,
    round_start: float = 0.0,
    ride_counts_as: int = 1,
) -> Schedule:
    """Fairness-guided construction: each vehicle repeatedly appends the
    feasible step with greatest return-on-investment

        R(l) = (U_alpha(x after l) - U_alpha(x)) / travel cost to l,

    where x counts fulfilled tasks per customer over the budget, the
    first such step in task-id order on a tie.  In max-min mode the pick
    is the worst-off customer's cheapest step.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    instance = Instance(tasks, vehicles, travel, budget, round_start)
    table = RoundTable(instance)
    row = table.row
    cindex = {c: i for i, c in enumerate(instance.customers)}
    minutes = budget / 60.0
    maxmin = is_leximin(alpha)
    h = np.zeros(len(cindex))
    # The table row each path ends at: its last task, or its start.
    ends = dict(table.home)

    def pick(walk: PathState, unserved: dict[str, Task]) -> Optional[tuple[Task, ...]]:
        vid = walk.vehicle.vehicle_id
        legs = table.seconds[vid]
        from_end = legs[ends[vid]]
        best = None
        # The utility gain depends on the candidate only through its
        # customer and count, so it is computed once per pair of them.
        gains: dict[tuple[int, float], float] = {}
        for t in unserved.values():
            step = step_of(t, unserved)
            if step is None:
                continue
            cost = from_end[row[t.task_id]]
            inc = task_count(t, ride_counts_as)
            if len(step) == 2:
                cost += legs[row[t.task_id]][row[step[1].task_id]]
                inc += task_count(step[1], ride_counts_as)
            k = cindex[t.customer_id]
            if maxmin:
                key = (-h[k], -cost)
            else:
                du = gains.get((k, inc))
                if du is None:
                    x_new = h.copy()
                    x_new[k] += inc
                    du = gains[k, inc] = alpha_fair_utility(
                        x_new / minutes, alpha
                    ) - alpha_fair_utility(h / minutes, alpha)
                key = (du / max(cost, 1e-9), -cost)
            # A candidate that cannot displace `best` needs no check.
            if (best is None or key > best[0]) and walk.violation(step) is None:
                best = (key, k, inc, step)
        if best is None:
            return None
        _, k, inc, step = best
        h[k] += inc
        ends[vid] = row[step[-1].task_id]
        return step

    return construct(instance, pick)


# ---------------------------------------------------------------------------
# Warm starts
# ---------------------------------------------------------------------------


def dedicated_partition(vehicles: Sequence[Vehicle], customers: Sequence[str]) -> dict[str, list[Vehicle]]:
    """Round-robin vehicle split by index; extra vehicles go to the
    lowest customer indices.  Requires |V| >= |K|."""
    if len(vehicles) < len(customers):
        raise ValueError("dedicated baseline needs at least one vehicle per customer")
    out: dict[str, list[Vehicle]] = {c: [] for c in customers}
    for i, v in enumerate(vehicles):
        out[customers[i % len(customers)]].append(v)
    return out


def build_warm_start_suite(
    instance: Instance,
    seed: int = 0,
    ride_counts_as: int = 1,
    table: Optional[RoundTable] = None,
) -> list[Schedule]:
    """Warm starts: the max-throughput insertion solve, then a dedicated
    vehicle partition when |V| >= |K|, both counting a ride as
    `ride_counts_as`.  Every solve reads `table`, the instance's round
    table, built here if not given.  An instance with no customers has
    no warm start."""
    customers = instance.customers
    if not customers:
        return []
    suite: list[Schedule] = []
    base = SolverRequest(
        tasks=instance.tasks,
        vehicles=instance.vehicles,
        customers=customers,
        weights=np.ones(len(customers)),
        table=RoundTable(instance) if table is None else table,
        config=SolverConfig(time_limit_s=0.5, seed=seed),
        ride_counts_as=ride_counts_as,
    )
    suite.append(heuristic_vrp(base))

    if len(instance.vehicles) >= len(customers):
        groups = dedicated_partition(instance.vehicles, customers)
        paths = []
        for cust in customers:
            own = tuple(t for t in instance.tasks if t.customer_id == cust)
            sub = replace(base, tasks=own, vehicles=tuple(groups[cust]))
            paths.extend(heuristic_vrp(sub).paths)
        suite.append(Schedule(paths=tuple(paths), round_duration=instance.budget))
    return suite


# ---------------------------------------------------------------------------
# Backend dispatch and the counting facade
# ---------------------------------------------------------------------------


def solve_weighted_vrp(req: SolverRequest) -> Schedule:
    """Dispatch to the backend `req.config.picks_exact` names."""
    if req.config.picks_exact(len(req.tasks), len(req.vehicles)):
        return exact_vrp(req)
    return heuristic_vrp(req)


class RoundSolver:
    """Per-round solver facade: counts calls, passes the round's
    commitments (task_id -> vehicle_id) and config with each call, and
    keeps every result as a warm start for the next: a heuristic solve
    returns the best of them, unchanged, when its own search scores
    lower.  Once a result serves every task of the instance, each later
    call returns it without a solve; it still counts.

    Every call of a round reads one travel table, whichever backend
    solves it.  The cache starts from `warm_starts` when given: a replan
    passes the plan it replaces, which each heuristic solve sanitizes to
    this instance and vets on its vehicles.  Given none, a
    heuristic-backed round fills the cache with the warm-start suite,
    built on the same table.  Either way the warm starts stay outside
    the call count, which verifies the |K| + stages budget per round.
    """

    def __init__(
        self,
        instance: Instance,
        config: Optional[SolverConfig] = None,
        committed: Optional[Mapping[str, str]] = None,
        ride_counts_as: int = 1,
        customers: Optional[Sequence[str]] = None,
        warm_starts: Optional[Sequence[Schedule]] = None,
    ):
        self.instance = instance
        self.config = config or SolverConfig()
        self.committed = dict(committed or {})
        self.ride_counts_as = ride_counts_as
        self.customers = tuple(customers) if customers is not None else instance.customers
        self.calls = 0
        self._serves_all: Optional[Schedule] = None
        self._table = RoundTable(instance)
        if warm_starts is not None:
            self._cache = list(warm_starts)
        elif self.config.picks_exact(len(instance.tasks), len(instance.vehicles)):
            self._cache = []
        else:
            self._cache = build_warm_start_suite(
                instance, self.config.seed, ride_counts_as, table=self._table
            )

    @property
    def warm_start_count(self) -> int:
        """Schedules a solve may fall back to: the initial warm starts
        and every result so far."""
        return len(self._cache)

    def solve(self, weights: np.ndarray) -> tuple[np.ndarray, Schedule]:
        """One counted weighted-VRP call; returns (allocation, schedule).

        Once a result of this round serves every task, later calls return
        the earliest such result without searching: the weights are
        clamped to >= 0, so it maximizes every customer's count at once
        and a search could only tie it.  Warm starts never qualify."""
        self.calls += 1
        if self._serves_all is not None:
            schedule = self._serves_all
            return allocation_of(schedule, self.customers, self.ride_counts_as), schedule
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0):
            # Entries within TOL_FACE of zero are rounding noise.
            if np.any(w < -TOL_FACE):
                logger.warning("clamping negative face weights to 0: %s", w)
            w = np.maximum(w, 0.0)
        total = w.sum()
        if total > 0:
            w = w / total
        req = SolverRequest(
            tasks=self.instance.tasks,
            vehicles=self.instance.vehicles,
            customers=self.customers,
            weights=w,
            table=self._table,
            committed=self.committed,
            warm_starts=tuple(self._cache),
            config=self.config,
            ride_counts_as=self.ride_counts_as,
        )
        schedule = solve_weighted_vrp(req)
        self._cache.append(schedule)
        if schedule.total_tasks() == len(self.instance.tasks):
            self._serves_all = schedule
        allocation = allocation_of(schedule, self.customers, self.ride_counts_as)
        return allocation, schedule
