"""Synthetic scenario generator.

Builds the two-customer map layouts used by the microbenchmarks (dense
near cluster vs. far cluster, interleaved rings, overlapping fields),
plus a small exact-backend variant and a large fleet stress layout.
All presets follow the same conventions: 10 s service, 10 m/s vehicles,
at most 40 tasks per customer per round, Euclidean travel.

Static arrival model: every preset describes one round's task set; the
emitted trace renews that set each round (fulfilled or not), with
arrivals at the round start and deadlines at the round end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .emulator import Trace
from .model import (
    Task,
    TravelModel,
    Vehicle,
    write_tasks_jsonl,
    write_vehicles_json,
)

SERVICE_S = 10.0
SPEED_MPS = 10.0
TASK_CAP = 40


@dataclass
class Scenario:
    """One generated scenario: a single-round task layout plus fleet and
    round parameters, renewable into a multi-round trace."""

    name: str
    tasks: tuple[Task, ...]
    vehicles: tuple[Vehicle, ...]
    round_s: float
    rounds: int = 50
    alpha: float = 64.0
    seed: int = 0
    params: dict = field(default_factory=dict)

    @property
    def customers(self) -> tuple[str, ...]:
        return tuple(sorted({t.customer_id for t in self.tasks}))

    @property
    def travel(self) -> TravelModel:
        return TravelModel.euclidean()

    def trace(self, rounds: Optional[int] = None) -> Trace:
        """Static-renewal trace: each round re-emits every task with
        arrival at the round start and deadline at the round end."""
        rounds = rounds if rounds is not None else self.rounds
        out = []
        for r in range(rounds):
            start = r * self.round_s
            for t in self.tasks:
                out.append(
                    Task(
                        task_id=f"r{r:03d}-{t.task_id}",
                        customer_id=t.customer_id,
                        location=t.location,
                        service_time=t.service_time,
                        arrival_time=start,
                        deadline=start + self.round_s,
                        pickup_of=f"r{r:03d}-{t.pickup_of}" if t.pickup_of else None,
                        dropoff_of=f"r{r:03d}-{t.dropoff_of}" if t.dropoff_of else None,
                    )
                )
        return Trace(
            tasks=tuple(out),
            duration=rounds * self.round_s,
            customers=self.customers,
        )


def _params(given: dict, **defaults) -> list:
    """A preset's parameters in the order of `defaults`, each the given
    value as its default's type, else the default; a key the preset does
    not take, or a float that is not finite, raises ValueError."""
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown parameter {unknown[0]!r}; the preset takes {sorted(defaults)}")
    values = [type(value)(given.get(key, value)) for key, value in defaults.items()]
    for key, value in zip(defaults, values):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"parameter {key!r} must be finite, got {value!r}")
    return values


def _grid(center: tuple[float, float], n: int, spacing: float, cols: int) -> list[tuple[float, float]]:
    """Deterministic compact grid of n points around a center."""
    pts = []
    rows = math.ceil(n / cols)
    x0 = center[0] - (cols - 1) * spacing / 2
    y0 = center[1] - (rows - 1) * spacing / 2
    for i in range(n):
        r, c = divmod(i, cols)
        pts.append((x0 + c * spacing, y0 + r * spacing))
    return pts


def _tasks(customer: str, points, start_index: int = 0) -> list[Task]:
    return [
        Task(
            task_id=f"{customer}-{start_index + i:03d}",
            customer_id=customer,
            location=(float(x), float(y)),
            service_time=SERVICE_S,
        )
        for i, (x, y) in enumerate(points)
    ]


def _fleet(
    n: int,
    depot: tuple[float, float],
    return_home: bool,
    starts: Optional[list[tuple[float, float]]] = None,
) -> tuple[Vehicle, ...]:
    return tuple(
        Vehicle(
            vehicle_id=f"v{i}",
            start_location=starts[i] if starts else depot,
            speed=SPEED_MPS,
            return_home=return_home,
        )
        for i in range(n)
    )


def map_a_small(seed: int = 0, **params) -> Scenario:
    """Exact-backend two-cluster layout: one vehicle, a handful of
    customer-1 tasks on the way out of the depot and a far dense
    customer-2 cluster.  Any schedule touching the far cluster can fit
    six stops; skipping it frees almost the whole round (customer 1's
    five tasks alone).  The boundary is the single face x1 + x2 = const
    with its max-min point strictly inside."""
    far_x, n_each, round_s, rounds, alpha = _params(
        params, far_x=2680.0, n_each=5, round_s=600.0, rounds=50, alpha=64.0)
    c1 = _tasks("c1", [(10.0 + 0.0 * i, 0.0) for i in range(n_each)])
    c2 = _tasks("c2", [(far_x, 0.0) for _ in range(n_each)])
    vehicles = _fleet(1, (0.0, 0.0), return_home=True)
    return Scenario(
        name="map_a_small",
        tasks=tuple(c1 + c2),
        vehicles=vehicles,
        round_s=round_s,
        rounds=rounds,
        alpha=alpha,
        seed=seed,
        params={"far_x": far_x, "n_each": n_each},
    )


def map_a(seed: int = 0, **params) -> Scenario:
    """Skewed demand with an en-route pooling incentive: customer 1
    holds two dense clusters east and west of the depot; customer 2's
    tasks sit in small pods dispersed along both corridors, just off
    the direct routes.

    Max throughput sends both vehicles to the clusters and starves the
    strip (each strip stop costs more than a cluster hop and the round
    budget is exhausted).  A dedicated customer-2 vehicle pays a full
    cross-map round trip for one strip while its partner covers only
    one cluster.  Pooled excursions sweep a strip as a cheap extension
    of the cluster visit, so the fair allocation keeps almost all of
    the max throughput."""
    return _two_clusters("map_a", seed, params, east_strip=True)


def _two_clusters(name: str, seed: int, params: dict, east_strip: bool) -> Scenario:
    """Map A's layout; without `east_strip` customer 2 lines only the
    west cluster."""
    (cluster_x, n_cluster, strip_offset, strip_spacing, n_strip, pod_y, n_vehicles,
     round_s, rounds, alpha) = _params(
        params, cluster_x=1800.0, n_cluster=20, strip_offset=30.0, strip_spacing=15.0,
        n_strip=9, pod_y=40.0, n_vehicles=2, round_s=600.0, rounds=10, alpha=64.0)
    west = _grid((-cluster_x, 0.0), n_cluster, spacing=12.0, cols=5)
    east = _grid((cluster_x, 0.0), n_cluster, spacing=12.0, cols=5)
    c1 = _tasks("c1", west + east)
    strip_w = [
        (-(cluster_x + strip_offset + j * strip_spacing), pod_y) for j in range(n_strip)
    ]
    strip_e = [
        (cluster_x + strip_offset + j * strip_spacing, pod_y) for j in range(n_strip)
    ] if east_strip else []
    c2 = _tasks("c2", strip_w + strip_e)
    vehicles = _fleet(n_vehicles, (0.0, 0.0), return_home=True)
    return Scenario(
        name=name,
        tasks=tuple(c1 + c2),
        vehicles=vehicles,
        round_s=round_s,
        rounds=rounds,
        alpha=alpha,
        seed=seed,
        params={"cluster_x": cluster_x, "n_cluster": n_cluster, "n_strip": n_strip},
    )


def map_b(seed: int = 0, **params) -> Scenario:
    """Interleaved ring: both customers' tasks alternate around one
    loop, so pooling both customers on one route is far cheaper than
    dedicating vehicles (a dedicated vehicle hops twice the arc between
    stops of its own customer)."""
    n_each, radius, n_vehicles, round_s, rounds, alpha = _params(
        params, n_each=30, radius=550.0, n_vehicles=2, round_s=600.0, rounds=10, alpha=64.0)
    pts1, pts2 = [], []
    for i in range(2 * n_each):
        angle = 2 * math.pi * i / (2 * n_each)
        p = (radius * math.cos(angle), radius * math.sin(angle))
        (pts1 if i % 2 == 0 else pts2).append(p)
    tasks = _tasks("c1", pts1) + _tasks("c2", pts2)
    starts = [
        (
            radius * math.cos(2 * math.pi * i / n_vehicles),
            radius * math.sin(2 * math.pi * i / n_vehicles),
        )
        for i in range(n_vehicles)
    ]
    vehicles = _fleet(n_vehicles, (radius, 0.0), return_home=True, starts=starts)
    return Scenario(
        name="map_b",
        tasks=tuple(tasks),
        vehicles=vehicles,
        round_s=round_s,
        rounds=rounds,
        alpha=alpha,
        seed=seed,
        params={"n_each": n_each, "radius": radius},
    )


def map_c(seed: int = 0, **params) -> Scenario:
    """Map A's layout skewed toward customer 1: the two dense clusters
    stay, but customer 2's strip lines only the west cluster, capping
    customer 2's ceiling at what one pooled excursion can sweep."""
    return _two_clusters("map_c", seed, params, east_strip=False)


def map_d(seed: int = 0, **params) -> Scenario:
    """Symmetric overlap: both customers draw the same number of tasks
    from the same uniform field, so every scheme is roughly fair and
    the boundary is symmetric about the equal-rate line."""
    n_each, side, n_vehicles, round_s, rounds, alpha = _params(
        params, n_each=40, side=1400.0, n_vehicles=2, round_s=600.0, rounds=30, alpha=64.0)
    rng = np.random.default_rng(seed)
    pts1 = [(float(x), float(y)) for x, y in rng.uniform(-side / 2, side / 2, size=(n_each, 2))]
    pts2 = [(float(x), float(y)) for x, y in rng.uniform(-side / 2, side / 2, size=(n_each, 2))]
    tasks = _tasks("c1", pts1) + _tasks("c2", pts2)
    vehicles = _fleet(n_vehicles, (0.0, 0.0), return_home=True)
    return Scenario(
        name="map_d",
        tasks=tuple(tasks),
        vehicles=vehicles,
        round_s=round_s,
        rounds=rounds,
        alpha=alpha,
        seed=seed,
        params={"n_each": n_each, "side": side},
    )


def scale(seed: int = 0, **params) -> Scenario:
    """Fleet-scale stress layout: 6 customers, 999 tasks, 24 vehicles
    spread over a metropolitan-sized square; exercises the heuristic
    backend only."""
    n_customers, n_tasks, n_vehicles, side, round_s, rounds, alpha = _params(
        params, n_customers=6, n_tasks=999, n_vehicles=24, side=8000.0, round_s=5400.0,
        rounds=1, alpha=1.0)
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n_tasks):
        c = f"c{(i % n_customers) + 1}"
        x, y = rng.uniform(-side / 2, side / 2, size=2)
        tasks.append(
            Task(
                task_id=f"{c}-{i:04d}",
                customer_id=c,
                location=(float(x), float(y)),
                service_time=SERVICE_S,
            )
        )
    vehicles = tuple(
        Vehicle(
            vehicle_id=f"v{i:02d}",
            start_location=(
                float(rng.uniform(-side / 4, side / 4)),
                float(rng.uniform(-side / 4, side / 4)),
            ),
            speed=SPEED_MPS,
            return_home=False,
        )
        for i in range(n_vehicles)
    )
    return Scenario(
        name="scale",
        tasks=tuple(tasks),
        vehicles=vehicles,
        round_s=round_s,
        rounds=rounds,
        alpha=alpha,
        seed=seed,
        params={"n_customers": n_customers, "n_tasks": n_tasks, "n_vehicles": n_vehicles},
    )


PRESETS = {
    "map_a": map_a,
    "map_a_small": map_a_small,
    "map_b": map_b,
    "map_c": map_c,
    "map_d": map_d,
    "scale": scale,
}


def generate(preset: str, seed: int = 0, **params) -> Scenario:
    """Build a preset scenario; unknown preset names raise ValueError."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    scenario = PRESETS[preset](seed=seed, **params)
    per_customer: dict[str, int] = {}
    for t in scenario.tasks:
        per_customer[t.customer_id] = per_customer.get(t.customer_id, 0) + 1
    if preset != "scale":
        for c, n in per_customer.items():
            if n > TASK_CAP:
                raise ValueError(f"{c} has {n} tasks; presets cap at {TASK_CAP} per round")
    return scenario


def write_scenario(scenario: Scenario, out_dir: str | Path, rounds: Optional[int] = None) -> dict:
    """Write tasks.jsonl (one round), trace.jsonl (static renewal),
    vehicles.json, and config.json into `out_dir`; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rounds = rounds if rounds is not None else scenario.rounds
    trace = scenario.trace(rounds)
    write_tasks_jsonl(out / "tasks.jsonl", scenario.tasks)
    write_tasks_jsonl(out / "trace.jsonl", trace.tasks)
    write_vehicles_json(out / "vehicles.json", scenario.vehicles)
    config = {
        "preset": scenario.name,
        "seed": scenario.seed,
        "round_s": scenario.round_s,
        "alpha": scenario.alpha,
        "duration_s": trace.duration,
        "trace": "trace.jsonl",
        "tasks": "tasks.jsonl",
        "vehicles": "vehicles.json",
        "travel": "euclidean",
        "params": scenario.params,
    }
    with open(out / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config
