"""Brute-force ground truth for small instances.

Enumerates every feasible allocation by trying all task subsets,
vehicle assignments, and visit orders; derives the Pareto frontier and
the convex-boundary corners from the enumeration.  Capped at 8 tasks
and 2 vehicles; used by tests and the `oracle` CLI command.  The hull
tests load SciPy's HiGHS LP when they first run, so importing this
module (as `fairfleet` and its CLI do) leaves SciPy unloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Instance,
    Path,
    PathState,
    Schedule,
    Task,
    Vehicle,
    allocation_of,
    riders_on_board,
)

ORACLE_TASK_CAP = 8
ORACLE_VEHICLE_CAP = 2
_DEDUP_DECIMALS = 9


@dataclass(frozen=True)
class FeasibleSet:
    """All distinct feasible allocations with one witness schedule each."""

    entries: tuple[tuple[np.ndarray, Schedule], ...]
    customers: tuple[str, ...]

    def allocations(self) -> list[np.ndarray]:
        return [a for a, _ in self.entries]


def _vehicle_feasible_orders(
    vehicle: Vehicle,
    tasks: Sequence[Task],
    instance: Instance,
) -> dict[frozenset, tuple[int, ...]]:
    """Every servable task subset for one vehicle, with the first
    feasible visit order found as witness: every order `PathState.step`
    reaches, kept where `PathState.closes`."""
    out: dict[frozenset, tuple[int, ...]] = {}

    def dfs(state: PathState, mask: int, seq: tuple[int, ...]) -> None:
        if state.closes():
            out.setdefault(frozenset(seq), seq)
        for i, t in enumerate(tasks):
            if not mask & (1 << i):
                child = state.step(t)
                if child is not None:
                    dfs(child, mask | (1 << i), seq + (i,))

    onboard = riders_on_board(tasks)
    start = PathState(vehicle, instance.travel, instance.budget, instance.round_start, onboard)
    dfs(start, 0, ())
    return out


def enumerate_feasible_allocations(instance: Instance, ride_counts_as: int = 1) -> FeasibleSet:
    """All distinct feasible allocations of the instance, counting a
    ride as `ride_counts_as`.

    Tries every subset of tasks, every split across vehicles, and every
    visit order; deduplicates allocations to 1e-9.  Refuses instances
    above the hard cap (8 tasks, 2 vehicles).
    """
    if len(instance.tasks) > ORACLE_TASK_CAP:
        raise ValueError(
            f"{len(instance.tasks)} tasks exceed the oracle cap ({ORACLE_TASK_CAP})"
        )
    if len(instance.vehicles) > ORACLE_VEHICLE_CAP:
        raise ValueError(
            f"{len(instance.vehicles)} vehicles exceed the oracle cap ({ORACLE_VEHICLE_CAP})"
        )
    customers = instance.customers
    tasks = sorted(instance.tasks, key=lambda t: t.task_id)
    vehicles = list(instance.vehicles)

    per_vehicle = [_vehicle_feasible_orders(v, tasks, instance) for v in vehicles]

    seen: dict[tuple, tuple[np.ndarray, Schedule]] = {}

    def record(orders: Sequence[tuple[int, ...]]) -> None:
        paths = tuple(
            Path(v.vehicle_id, tuple(tasks[i] for i in order))
            for v, order in zip(vehicles, orders)
        )
        schedule = Schedule(paths=paths, round_duration=instance.budget)
        alloc = allocation_of(schedule, customers, ride_counts_as)
        key = tuple(np.round(alloc, _DEDUP_DECIMALS))
        if key not in seen:
            seen[key] = (alloc, schedule)

    if len(vehicles) == 1:
        for key in sorted(per_vehicle[0], key=lambda s: sorted(s)):
            record([per_vehicle[0][key]])
    else:
        keys0 = sorted(per_vehicle[0], key=lambda s: sorted(s))
        keys1 = sorted(per_vehicle[1], key=lambda s: sorted(s))
        for k0 in keys0:
            for k1 in keys1:
                if k0 & k1:
                    continue
                record([per_vehicle[0][k0], per_vehicle[1][k1]])

    entries = tuple(seen[k] for k in sorted(seen))
    return FeasibleSet(entries=entries, customers=customers)


def _weakly_dominated(a: np.ndarray, others: Sequence[np.ndarray]) -> bool:
    for b in others:
        if np.all(b >= a - 1e-12) and np.any(b > a + 1e-12):
            return True
    return False


def pareto_frontier(fs: FeasibleSet) -> FeasibleSet:
    """Feasible allocations not dominated by any other (componentwise >=
    everywhere and > somewhere)."""
    allocs = fs.allocations()
    kept = tuple(
        (a, s)
        for a, s in fs.entries
        if not _weakly_dominated(a, [b for b in allocs if b is not a])
    )
    return FeasibleSet(entries=kept, customers=fs.customers)


def _is_vertex(p: np.ndarray, others: Sequence[np.ndarray]) -> bool:
    """True iff p is outside the convex hull of the other points: the
    LP for convex weights that give p is infeasible."""
    from scipy.optimize import linprog

    if not others:
        return True
    a_eq = np.vstack([np.stack(others, axis=1), np.ones(len(others))])
    b_eq = np.append(p, 1.0)
    res = linprog(
        c=np.zeros(len(others)),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * len(others),
        method="highs",
    )
    if res.status not in (0, 2):
        raise _lp_failure(res)
    return res.status == 2


def _nonneg_supported(p: np.ndarray, others: Sequence[np.ndarray]) -> bool:
    """True iff some nonnegative weight vector attains its maximum over
    the set at p (p lies on a face with nonnegative outward normal)."""
    from scipy.optimize import linprog

    if not others:
        return True
    k = len(p)
    # variables: w (k), margin e; maximize e subject to w.(p - q) >= e,
    # sum w = 1, w >= 0
    a_ub = []
    for q in others:
        a_ub.append(np.append(-(p - q), 1.0))
    a_ub = np.array(a_ub)
    b_ub = np.zeros(len(others))
    a_eq = np.array([np.append(np.ones(k), 0.0)])
    b_eq = np.array([1.0])
    c = np.append(np.zeros(k), -1.0)
    bounds = [(0, None)] * k + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise _lp_failure(res)
    return float(res.x[-1]) >= -1e-9


def _lp_failure(res) -> RuntimeError:
    """An LP that ended without a verdict (iteration limit, numerical
    trouble, or an outcome its formulation rules out) decides nothing
    about the point."""
    return RuntimeError(f"oracle LP failed: status {res.status}: {res.message}")


def convex_boundary(fs: FeasibleSet) -> list[np.ndarray]:
    """Corners of the feasible set's upper convex boundary: hull
    vertices supported by a nonnegative normal and not weakly dominated,
    in lexicographic order."""
    allocs = fs.allocations()
    corners = []
    for i, p in enumerate(allocs):
        others = [q for j, q in enumerate(allocs) if j != i]
        if _weakly_dominated(p, others):
            continue
        if not _is_vertex(p, others):
            continue
        if not _nonneg_supported(p, others):
            continue
        corners.append(p)
    corners.sort(key=lambda p: tuple(np.round(p, _DEDUP_DECIMALS)))
    return corners


def oracle_report(instance: Instance, ride_counts_as: int = 1) -> dict:
    """JSON-ready payload for the `oracle` CLI command."""
    fs = enumerate_feasible_allocations(instance, ride_counts_as)
    pareto = pareto_frontier(fs)
    corners = convex_boundary(fs)
    return {
        "customers": list(fs.customers),
        "feasible": [[float(v) for v in a] for a in fs.allocations()],
        "pareto": [[float(v) for v in a] for a in pareto.allocations()],
        "boundary_corners": [[float(v) for v in c] for c in corners],
    }
