"""Round loop: track long-term throughput, search the boundary each
round, pick the corner that maximizes cumulative fairness, and honor
commitments across replanning windows.

One planning round = init_face + search_boundary + select_allocation
(`run_round`), then update_history.  `Scheduler.run_round` is the one
place a round is folded into the history, over the full customer
roster; `run_static_rounds` and the emulator's mobius policy both drive
a `Scheduler`.  The fold uses the planned allocation of the chosen
corner; under the static arrival model the realized allocation matches
it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .boundary import EmptyRoundError, Face, embed, init_face, search_boundary
from .fairness import utility_key
from .model import Instance, Schedule, empty_schedule
from .vrp import RoundSolver, SolverConfig


@dataclass(frozen=True)
class History:
    """Long-term per-customer throughput (tasks/min).

    Running-average mode keeps the duration-weighted mean of past round
    allocations; discounted mode applies a fixed exponential factor,
    suiting fleets whose customers come and go.
    """

    xbar: np.ndarray
    t: int = 0
    discount: Optional[float] = None
    weight_total: float = 0.0

    def __post_init__(self) -> None:
        x = np.asarray(self.xbar, dtype=float)
        if np.any(x < 0):
            raise ValueError("history throughput must be nonnegative")
        if self.t < 0:
            raise ValueError("round count must be >= 0")
        if self.discount is not None and not (0 < self.discount <= 1):
            raise ValueError("discount must lie in (0, 1]")
        object.__setattr__(self, "xbar", x)

    @staticmethod
    def zeros(k: int, discount: Optional[float] = None) -> "History":
        return History(xbar=np.zeros(k), discount=discount)

    @property
    def gamma(self) -> float:
        """Mixing weight of the upcoming round's allocation."""
        if self.discount is not None:
            return self.discount
        return 1.0 / (self.t + 1)


def update_history(h: History, x: np.ndarray, duration: Optional[float] = None) -> History:
    """Fold one round's allocation into the history.

    Running average: xbar <- x/(t+1) + xbar*t/(t+1) for equal rounds,
    duration-weighted mean when `duration` varies.  Discounted:
    xbar <- g*x + (1-g)*xbar with the fixed factor g.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != h.xbar.shape:
        raise ValueError("allocation dimension does not match history")
    if h.discount is not None:
        new = h.discount * x + (1.0 - h.discount) * h.xbar
        return replace(h, xbar=new, t=h.t + 1)
    d = 1.0 if duration is None else float(duration)
    if d <= 0:
        raise ValueError("duration must be > 0")
    total = h.weight_total + d
    new = x * (d / total) + h.xbar * (h.weight_total / total)
    return replace(h, xbar=new, t=h.t + 1, weight_total=total)


@dataclass
class RoundConfig:
    """Per-round knobs (config keys: round_s, replan_s, alpha, discount,
    return_home_every_s, prune_after_rounds, ride_counts_as, expiry_s)."""

    round_s: float = 900.0
    replan_s: Optional[float] = None
    alpha: float = 1.0
    discount: Optional[float] = None
    return_home_every_s: Optional[float] = None
    prune_after_rounds: int = 10
    ride_counts_as: int = 1
    expiry_s: float = 600.0

    def __post_init__(self) -> None:
        # Each range check is written so that NaN fails it too.
        if not 0 < self.round_s < math.inf:
            raise ValueError("round_s must be > 0 and finite")
        if self.replan_s is None:
            self.replan_s = self.round_s
        if not (0 < self.replan_s <= self.round_s):
            raise ValueError("need 0 < replan_s <= round_s")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        # Unset already means never; an infinite period only computes 0 * inf.
        if self.return_home_every_s is not None and not 0 < self.return_home_every_s < math.inf:
            raise ValueError("return_home_every_s must be > 0 and finite")
        if not self.expiry_s > 0:
            raise ValueError("expiry_s must be > 0")
        if self.prune_after_rounds < 0:
            raise ValueError("prune_after_rounds must be >= 0")
        if self.discount is not None and not (0 < self.discount <= 1):
            raise ValueError("discount must lie in (0, 1]")
        if self.ride_counts_as not in (1, 2):
            raise ValueError("ride_counts_as must be 1 or 2")


@dataclass(frozen=True)
class RoundResult:
    """Outcome of one planning round."""

    schedule: Schedule
    allocation: np.ndarray
    face: Optional[Face]
    calls: int
    stages: int


def select_allocation(
    face: Face, h: History, alpha: float
) -> tuple[Schedule, np.ndarray]:
    """Corner of `face` maximizing cumulative fairness
    U_alpha(g*x + (1-g)*xbar), leximin comparison in max-min mode.
    Ties break toward larger total throughput, then lowest corner index.
    Returns the corner's stored schedule and its allocation embedded in
    history dimensions.
    """
    if not face.corners:
        raise ValueError("face has no corners")
    dim = len(h.xbar)
    g = h.gamma
    best = None
    for idx in range(len(face.corners)):
        x = embed(face, face.corners[idx], dim)
        key = (utility_key(g * x + (1.0 - g) * h.xbar, alpha), float(np.sum(x)))
        if best is None or key > best[0]:
            best = (key, idx, x)
    _, idx, x = best
    return face.schedules[idx], x


def run_round(
    instance: Instance,
    history: History,
    cfg: RoundConfig,
    solver_config: Optional[SolverConfig] = None,
    customers: Optional[Sequence[str]] = None,
    committed: Optional[Mapping[str, str]] = None,
    warm_starts: Optional[Sequence[Schedule]] = None,
) -> RoundResult:
    """Boundary search and corner pick for one round on one
    `vrp.RoundSolver`, which holds `committed` (task_id -> vehicle_id)
    for every solve and floors each at `warm_starts`, or at the
    warm-start suite when none are given; an empty round plans nothing
    and allocates zero.  The history is read, not folded."""
    customers = tuple(customers if customers is not None else instance.customers)
    k = len(customers)
    if k != len(history.xbar):
        raise ValueError("history dimension does not match customers")
    solver = RoundSolver(
        instance,
        solver_config,
        committed=committed,
        ride_counts_as=cfg.ride_counts_as,
        customers=customers,
        warm_starts=warm_starts,
    )
    face = None
    if customers and instance.tasks:
        try:
            face = init_face(customers, solver)
        except EmptyRoundError:
            pass
    if face is None:
        schedule = empty_schedule(instance.vehicles, instance.budget)
        return RoundResult(schedule, np.zeros(k), None, solver.calls, 0)
    face = search_boundary(face, cfg.alpha, solver)
    schedule, allocation = select_allocation(face, history, cfg.alpha)
    return RoundResult(schedule, allocation, face, solver.calls, solver.calls - k)


class Scheduler:
    """Owns the mutable cross-round state: the customer roster, the
    throughput history over it, and per-customer idle counts used to
    prune dead customers from the round geometry (history retained)."""

    def __init__(
        self,
        cfg: RoundConfig,
        solver_config: Optional[SolverConfig] = None,
        customers: Sequence[str] = (),
    ):
        self.cfg = cfg
        self.solver_config = solver_config or SolverConfig()
        self.roster: list[str] = list(customers)
        self.history = History.zeros(len(self.roster), discount=cfg.discount)
        self.idle: dict[str, int] = {c: 0 for c in self.roster}
        self.last_cancelled: tuple[str, ...] = ()

    def observe(self, customers: Sequence[str]) -> None:
        """Admit new customers with zero history."""
        added = [c for c in sorted(set(customers)) if c not in self.idle]
        if not added:
            return
        self.roster.extend(added)
        for c in added:
            self.idle[c] = 0
        self.history = replace(
            self.history,
            xbar=np.concatenate([self.history.xbar, np.zeros(len(added))]),
        )

    def geometry(self, instance: Instance) -> list[str]:
        """Roster members participating in this round's boundary search."""
        present = {t.customer_id for t in instance.tasks}
        geom = []
        for c in self.roster:
            if c in present or self.idle[c] < self.cfg.prune_after_rounds:
                geom.append(c)
        return geom

    def run_round(
        self,
        instance: Instance,
        committed: Optional[Mapping[str, str]] = None,
        warm_starts: Optional[Sequence[Schedule]] = None,
    ) -> RoundResult:
        """Plan one round over the geometry and fold its allocation into
        the full-roster history.  Every solve honours `committed`
        (`vrp.RoundTable`) and takes `warm_starts`, or the warm-start
        suite when none are given, as its floor; once a solve serves
        every task, the later ones return it unsearched
        (`vrp.RoundSolver`).  Committed tasks the plan leaves out are
        reported, sorted, in `last_cancelled`."""
        present = {t.customer_id for t in instance.tasks}
        self.observe(present)
        for c in self.roster:
            self.idle[c] = 0 if c in present else self.idle[c] + 1
        geom = self.geometry(instance)
        gidx = [self.roster.index(c) for c in geom]
        sub_history = replace(self.history, xbar=self.history.xbar[gidx])
        result = run_round(
            instance, sub_history, self.cfg, self.solver_config, customers=geom,
            committed=committed, warm_starts=warm_starts,
        )
        self.last_cancelled = tuple(sorted(set(committed or ()) - result.schedule.task_ids()))
        full_alloc = np.zeros(len(self.roster))
        full_alloc[gidx] = result.allocation
        self.history = update_history(self.history, full_alloc, duration=instance.budget)
        return replace(result, allocation=full_alloc)


@dataclass
class StaticRunResult:
    """Trajectory of repeated rounds on one fixed instance."""

    allocations: list[np.ndarray] = field(default_factory=list)
    xbars: list[np.ndarray] = field(default_factory=list)
    calls: list[int] = field(default_factory=list)
    stages: list[int] = field(default_factory=list)

    @property
    def final_xbar(self) -> np.ndarray:
        return self.xbars[-1]


def run_static_rounds(
    instance: Instance,
    cfg: RoundConfig,
    rounds: int,
    solver_config: Optional[SolverConfig] = None,
) -> StaticRunResult:
    """Repeat the round loop on a fixed instance (static arrival model:
    the task set renews every round, so the feasible set is constant)."""
    sched = Scheduler(cfg, solver_config, customers=instance.customers)
    out = StaticRunResult()
    for _ in range(rounds):
        result = sched.run_round(instance)
        out.allocations.append(result.allocation)
        out.xbars.append(sched.history.xbar.copy())
        out.calls.append(result.calls)
        out.stages.append(result.stages)
    return out
