"""Weighted-VRP backends: exact branch and bound, heuristic, greedy."""

import logging
import math
from dataclasses import replace
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    EUCLID,
    brute_best_value,
    construction_instances,
    mk_task,
    mk_vehicle,
    random_instance,
    ride_instance,
)
from fairfleet import vrp
from fairfleet.emulator import baseline_round_robin
from fairfleet.fairness import LEXIMIN_ALPHA, alpha_fair_utility
from fairfleet.model import (
    Instance,
    Path,
    PathState,
    Schedule,
    Task,
    TravelModel,
    Vehicle,
    allocation_of,
    path_times,
    path_violation,
    sequence_cost,
    task_count,
    travel_time,
)
from fairfleet.vrp import (
    _GUARD,
    ExactSizeError,
    RoundSolver,
    RoundTable,
    SolverConfig,
    SolverRequest,
    _Heuristic,
    build_warm_start_suite,
    exact_vrp,
    greedy_alpha_heuristic,
    heuristic_vrp,
    may_serve,
    schedule_value,
    solve_weighted_vrp,
)


def request_for(instance, weights, **kw):
    return SolverRequest(
        tasks=instance.tasks,
        vehicles=instance.vehicles,
        customers=instance.customers,
        weights=np.asarray(weights, dtype=float),
        table=RoundTable(instance),
        **kw,
    )


def rows_of(heur, tasks):
    """The tasks' rows in the heuristic's round table: a path as a
    `_Route` holds it."""
    return [heur.row[t.task_id] for t in tasks]


class TestExact:
    def test_matches_independent_brute_force(self):
        # Plain random instances, then the hard cases of the path rules:
        # pairs, deadlines, capacity, return home, asymmetric matrix
        # travel, late vehicles, a late round start and both ride counts.
        rng = np.random.default_rng(11)
        cases = [(random_instance(rng, max_tasks=5, max_vehicles=2), 1) for _ in range(12)]
        rng = np.random.default_rng(7)
        cases += [(ride_instance(rng), 1 + i % 2) for i in range(60)]
        for inst, ride_counts_as in cases:
            w = rng.uniform(0.1, 2.0, len(inst.customers))
            req = request_for(inst, w, ride_counts_as=ride_counts_as)
            sched = exact_vrp(req)
            by_id = {v.vehicle_id: v for v in inst.vehicles}
            for p in sched.paths:
                assert path_violation(p.tasks, by_id[p.vehicle_id], inst.travel,
                                      inst.budget, inst.round_start) is None
            got = schedule_value(req, sched)[0]
            want = brute_best_value(inst, w, ride_counts_as)
            assert got == pytest.approx(want, abs=1e-9)

    def test_schedules_always_feasible(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            inst = random_instance(rng, max_tasks=6, max_vehicles=2, allow_pairs=True)
            req = request_for(inst, np.ones(len(inst.customers)))
            sched = exact_vrp(req)
            by_id = {v.vehicle_id: v for v in inst.vehicles}
            for p in sched.paths:
                assert path_violation(p.tasks, by_id[p.vehicle_id], EUCLID,
                                      inst.budget, inst.round_start) is None

    def test_total_throughput_tiebreak(self):
        # Zero-weight tasks add no value but the solver still packs them
        # when capacity is free: ties on value break toward more tasks.
        tasks = (
            mk_task("a", "c1", 50, 0),
            mk_task("b", "c2", 100, 0),
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=600.0)
        sched = exact_vrp(request_for(inst, [1.0, 0.0]))
        assert sched.task_ids() == {"a", "b"}

    def test_pinned_task_stays_on_its_vehicle(self):
        tasks = (mk_task("a", "c1", 100, 0),)
        v_near = mk_vehicle("near", 90, 0)
        v_far = mk_vehicle("far", -200, 0)
        inst = Instance(tasks=tasks, vehicles=(v_near, v_far), travel=EUCLID, budget=600.0)
        sched = exact_vrp(request_for(inst, [1.0], committed={"a": "far"}))
        by_vehicle = {p.vehicle_id: p.task_ids for p in sched.paths}
        assert by_vehicle["far"] == ("a",)
        assert by_vehicle.get("near", ()) == ()

    def test_size_cutoff(self):
        tasks = tuple(mk_task(f"t{i}", "c1", i * 10, 0) for i in range(11))
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=600.0)
        with pytest.raises(ExactSizeError):
            exact_vrp(request_for(inst, [1.0], config=SolverConfig(exact_task_limit=10)))
        # The cutoff is the request's config, not a default.
        exact_vrp(request_for(inst, [1.0], config=SolverConfig(exact_task_limit=11)))


class TestHeuristic:
    def test_never_below_best_warm_start(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(rng, max_tasks=14, max_vehicles=3, span=1600.0)
            w = rng.uniform(0.0, 2.0, len(inst.customers))
            suite = build_warm_start_suite(inst, seed=0)
            req = request_for(inst, w, warm_starts=tuple(suite),
                              config=SolverConfig(time_limit_s=1.0))
            hval = schedule_value(req, heuristic_vrp(req))[0]
            best_start = max(schedule_value(req, s)[0] for s in suite)
            assert hval >= best_start - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, max_tasks=14, max_vehicles=3, span=1600.0)
        req = request_for(inst, np.ones(len(inst.customers)),
                          config=SolverConfig(time_limit_s=1.0, seed=5))
        a = heuristic_vrp(req)
        b = heuristic_vrp(req)
        assert [p.task_ids for p in a.paths] == [p.task_ids for p in b.paths]

    def test_schedules_always_feasible(self):
        rng = np.random.default_rng(15)
        table_rng = np.random.default_rng(16)
        for _ in range(12):
            inst = random_instance(rng, max_tasks=16, max_vehicles=3,
                                   span=1600.0, allow_pairs=True)
            # The same points again, with a random table whose two
            # directions differ.
            pts = sorted({t.location for t in inst.tasks}
                         | {v.start_location for v in inst.vehicles})
            seconds = table_rng.uniform(0.0, 500.0, (len(pts), len(pts)))
            np.fill_diagonal(seconds, 0.0)
            asymmetric = TravelModel.matrix([f"{x!r};{y!r}" for x, y in pts], seconds)
            by_id = {v.vehicle_id: v for v in inst.vehicles}
            for travel in (EUCLID, asymmetric):
                req = request_for(replace(inst, travel=travel),
                                  np.ones(len(inst.customers)),
                                  config=SolverConfig(time_limit_s=0.5))
                sched = heuristic_vrp(req)
                for p in sched.paths:
                    assert path_violation(p.tasks, by_id[p.vehicle_id], travel,
                                          inst.budget, inst.round_start) is None

    @pytest.mark.parametrize("weights",
                             [(1.0, 1.0), (1.0, 0.2), (0.2, 1.0), (1.0, 0.0), (0.0, 1.0)])
    def test_relocate_keeps_the_path_it_takes_a_task_from(self, weights):
        """A matrix without the triangle inequality: moving x from A's
        path [x, y] to B's [z] saves 70 s in total, but leaves A with
        [y], 10 s past the budget.  Every returned path stays valid."""
        names = ["hA", "hB", "x", "y", "z"]
        seconds = np.full((5, 5), 1000.0)
        np.fill_diagonal(seconds, 0.0)
        for a, b, s in [("hA", "x", 50), ("x", "y", 50), ("hA", "y", 160),
                        ("hB", "z", 140), ("hB", "x", 5), ("x", "z", 5)]:
            seconds[names.index(a), names.index(b)] = s
        pts = {n: (float(i), 0.0) for i, n in enumerate(names)}
        travel = TravelModel.matrix(names, seconds, coordinates=pts)
        x, y, z = (mk_task(n, c, *pts[n], service=0.0) for n, c in zip("xyz", ("c1", "c2", "c1")))
        a, b = mk_vehicle("A", *pts["hA"]), mk_vehicle("B", *pts["hB"])
        inst = Instance(tasks=(x, y, z), vehicles=(a, b), travel=travel, budget=150.0)
        warm = Schedule(paths=(Path("A", (x, y)), Path("B", (z,))), round_duration=150.0)
        sched = heuristic_vrp(request_for(inst, weights, warm_starts=(warm,)))
        for v, p in zip(inst.vehicles, sched.paths):
            assert path_violation(p.tasks, v, travel, inst.budget) is None

    def test_respects_pins(self):
        tasks = (mk_task("a", "c1", 100, 0), mk_task("b", "c1", -100, 0))
        v1, v2 = mk_vehicle("v1", 90, 0), mk_vehicle("v2", -90, 0)
        inst = Instance(tasks=tasks, vehicles=(v1, v2), travel=EUCLID, budget=600.0)
        req = request_for(inst, [1.0], committed={"a": "v2", "b": "v1"},
                          config=SolverConfig(time_limit_s=0.2))
        sched = heuristic_vrp(req)
        placed = {t.task_id: p.vehicle_id for p in sched.paths for t in p.tasks}
        assert placed.get("a") in (None, "v2")
        assert placed.get("b") in (None, "v1")


# How many of 300 drawn requests the heuristic solves to the exact
# optimum, as measured when the floor was set: a better heuristic raises
# it, and none may lower it.  With deadlines, the exact check after the
# insertion screen (`_verify_insert`) turns placements down.
@pytest.mark.parametrize("pairs, deadlines, max_tasks, max_vehicles, floor",
                         [(False, False, 8, 2, 270), (True, False, 10, 3, 266),
                          (False, True, 8, 2, 182)],
                         ids=["plain", "pairs", "deadlines"])
def test_heuristic_against_exact(pairs, deadlines, max_tasks, max_vehicles, floor):
    """The heuristic never beats `exact_vrp`, and matches it at least
    `floor` times, on random requests with Dirichlet weights."""
    rng = np.random.default_rng(2026)
    matched = 0
    for _ in range(300):
        inst = random_instance(rng, max_tasks=max_tasks, max_vehicles=max_vehicles,
                               allow_pairs=pairs, deadlines=deadlines)
        req = request_for(inst, rng.dirichlet(np.ones(len(inst.customers))),
                          config=SolverConfig(time_limit_s=0.5))
        best = schedule_value(req, exact_vrp(req))[0]
        got = schedule_value(req, heuristic_vrp(req))[0]
        assert got <= best + 1e-9
        matched += got >= best - 1e-9
    assert matched >= floor


class TestGreedy:
    def test_first_pick_is_nearest_feasible(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            inst = random_instance(rng, max_tasks=10, max_vehicles=1, span=1500.0)
            v0 = inst.vehicles[0]
            sched = greedy_alpha_heuristic(inst.tasks, [v0], inst.budget, 0.0, EUCLID)
            first = sched.paths[0].tasks[0]
            feasible = [
                t for t in inst.tasks
                if not t.is_dropoff
                and path_violation([t], v0, EUCLID, inst.budget) is None
            ]
            nearest = min(
                travel_time(v0.start_location, t.location, EUCLID, v0)
                for t in feasible
            )
            got = travel_time(v0.start_location, first.location, EUCLID, v0)
            assert got == pytest.approx(nearest, abs=1e-9)

    def test_construction_paths_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            inst = random_instance(rng, max_tasks=12, max_vehicles=3,
                                   span=1500.0, allow_pairs=True)
            sched = greedy_alpha_heuristic(inst.tasks, inst.vehicles, inst.budget,
                                           2.0, EUCLID)
            by_id = {v.vehicle_id: v for v in inst.vehicles}
            for p in sched.paths:
                assert path_violation(p.tasks, by_id[p.vehicle_id], EUCLID,
                                      inst.budget) is None

    def test_maxmin_mode_serves_worst_off_customer(self):
        # c2 has the distant tasks; max-min still alternates customers
        # because the worst-off customer is picked each step.
        tasks = tuple(
            [mk_task(f"n{i}", "c1", 50 + i, 0) for i in range(3)]
            + [mk_task(f"f{i}", "c2", -300 - i, 0) for i in range(3)]
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=200.0)
        sched = greedy_alpha_heuristic(inst.tasks, inst.vehicles, inst.budget,
                                       64.0, EUCLID)
        alloc = allocation_of(sched, inst.customers)
        assert alloc[1] > 0


# Task-id sequences of the construction, recorded from the loop
# that re-checked the whole path for every candidate.
GREEDY_GOLDEN = [
    ("ties", 0.0, {"v0": ("a2", "a3", "a1", "a7", "b2", "a8", "b0", "a4", "a6", "a5", "b1")}),
    ("ties", 1.0, {"v0": ("a2", "b0", "a4", "b3", "b6", "a6", "a5", "b1", "a1", "a7", "b2",
                          "a3")}),
    ("ties", 64.0, {"v0": ("a2", "b0", "a4", "b3", "b6", "a6", "a5", "b1", "a1", "b2", "a3")}),
    ("pins_deadlines", 0.0, {"fast": ("d01", "d08", "d07", "d15", "d06", "d12", "d22"),
                             "late": ("d16", "d00", "d18", "d23", "d02"),
                             "slow": ("d19", "d17", "d20", "d04", "d13", "d10")}),
    ("pins_deadlines", 1.0, {"fast": ("d01", "d09", "d05", "d22", "d16", "d19", "d10"),
                             "late": ("d08", "d07", "d18", "d15", "d23", "d02"),
                             "slow": ("d00", "d17", "d20", "d04", "d13", "d12")}),
    ("pins_deadlines", 64.0, {"fast": ("d01", "d09", "d05", "d22", "d16", "d12", "d10", "d13"),
                              "late": ("d08", "d07", "d18", "d15", "d23", "d02"),
                              "slow": ("d00", "d17", "d19", "d20", "d04")}),
    ("pairs", 0.0, {"r0": ("s4", "s2", "p6", "q6", "p4", "q4", "s0"),
                    "r1": ("s5", "s3", "s1", "p2", "q2", "p0", "q0")}),
    ("pairs", 1.0, {"r0": ("s4", "s2", "p6", "q6", "p4", "q4", "p5", "q5"),
                    "r1": ("s5", "s3", "s1", "p2", "q2", "s0", "p3", "q3")}),
    ("pairs", 64.0, {"r0": ("s4", "s2", "p6", "q6", "p4", "q4", "p2", "q2"),
                     "r1": ("s5", "s3", "s1", "p5", "q5", "p3", "q3")}),
    ("matrix", 0.0, {"v0": ("m05", "m06", "m07", "m03", "m13", "m10", "m00"),
                     "v1": ("m02", "m01", "m09", "m04", "m12")}),
    ("matrix", 1.0, {"v0": ("m05", "m06", "m07", "m00", "m08", "m11"),
                     "v1": ("m02", "m01", "m09", "m04", "m13", "m10", "m12")}),
    ("matrix", 64.0, {"v0": ("m05", "m06", "m07", "m03", "m13", "m09"),
                      "v1": ("m02", "m01", "m04", "m12", "m10")}),
]


@pytest.mark.parametrize("name, alpha, expected", GREEDY_GOLDEN)
def test_greedy_golden_schedules(name, alpha, expected):
    inst, _ = construction_instances()[name]
    sched = greedy_alpha_heuristic(inst.tasks, inst.vehicles, inst.budget, alpha,
                                   inst.travel, inst.round_start)
    assert {p.vehicle_id: p.task_ids for p in sched.paths} == expected
    for v, p in zip(inst.vehicles, sched.paths):
        assert path_violation(p.tasks, v, inst.travel, inst.budget, inst.round_start) is None


# Reference copies of the constructive loops as they were before they
# shared `construct`: each turn checks every candidate step against the
# path rules first, then takes the first best one.


def _eager_turns(inst, choose):
    """Vehicles take turns in id order; `choose(vehicle, end, feasible,
    unserved)` picks one of the feasible steps or None."""
    by_id = {t.task_id: t for t in inst.tasks}
    unserved = dict(sorted(by_id.items()))
    paths = {v.vehicle_id: [] for v in inst.vehicles}
    walks = {v.vehicle_id: PathState(v, inst.travel, inst.budget, inst.round_start)
             for v in inst.vehicles}
    active = sorted(inst.vehicles, key=lambda v: v.vehicle_id)
    while active:
        still = []
        for veh in active:
            path = paths[veh.vehicle_id]
            feasible = []
            for t in unserved.values():
                if t.is_dropoff:
                    continue
                step = [t]
                if t.is_pickup:
                    extra = by_id.get(t.pickup_of)
                    if extra is None or extra.task_id not in unserved:
                        continue
                    step.append(extra)
                if walks[veh.vehicle_id].violation(step) is None:
                    feasible.append(step)
            end = path[-1].location if path else veh.start_location
            step = choose(veh, end, feasible)
            if step is None:
                continue
            path.extend(step)
            walks[veh.vehicle_id].advance(step)
            for t in step:
                unserved.pop(t.task_id)
            still.append(veh)
        active = still
    return {v.vehicle_id: Path(v.vehicle_id, tuple(paths[v.vehicle_id])) for v in inst.vehicles}


def eager_greedy(inst, alpha, ride_counts_as=1):
    customers = inst.customers
    cindex = {c: i for i, c in enumerate(customers)}
    minutes = inst.budget / 60.0
    h = np.zeros(len(customers))

    def choose(veh, end, feasible):
        best = None
        for step in feasible:
            t = step[0]
            cost = travel_time(end, t.location, inst.travel, veh)
            inc = task_count(t, ride_counts_as)
            if len(step) == 2:
                cost += travel_time(t.location, step[1].location, inst.travel, veh)
                inc += task_count(step[1], ride_counts_as)
            k = cindex[t.customer_id]
            if alpha > LEXIMIN_ALPHA:
                key = (-h[k], -cost)
            else:
                x_new = h.copy()
                x_new[k] += inc
                du = (alpha_fair_utility(x_new / minutes, alpha)
                      - alpha_fair_utility(h / minutes, alpha))
                key = (du / max(cost, 1e-9), -cost)
            if best is None or key > best[0]:
                best = (key, k, inc, step)
        if best is None:
            return None
        _, k, inc, step = best
        h[k] += inc
        return step

    return _eager_turns(inst, choose)


def eager_round_robin(inst, pinned=None):
    customers = inst.customers
    cycle = {v.vehicle_id: 0 for v in inst.vehicles}

    def choose(veh, end, feasible):
        allowed = [s for s in feasible
                   if (pinned or {}).get(s[0].task_id) in (None, veh.vehicle_id)]
        k = len(customers)
        for off in range(k):
            c = customers[(cycle[veh.vehicle_id] + off) % k]
            best = None
            for step in allowed:
                if step[0].customer_id != c:
                    continue
                d = travel_time(end, step[0].location, inst.travel, veh)
                if best is None or d < best[0] - 1e-12:
                    best = (d, step)
            if best is not None:
                cycle[veh.vehicle_id] = (cycle[veh.vehicle_id] + off + 1) % k
                return best[1]
        return None

    return _eager_turns(inst, choose)


def _timed(inst, paths):
    """Each path's task order and its timings on the instance's vehicle."""
    return {v.vehicle_id: (paths[v.vehicle_id].task_ids,
                           path_times(v, paths[v.vehicle_id].tasks, inst.travel, inst.round_start))
            for v in inst.vehicles}


@st.composite
def construction_cases(draw):
    """A random instance, plain and paired (`random_instance`), perhaps
    on a 100 m lattice where many steps tie, or with deadlines, ready
    offsets, a late round start and matrix travel (`ride_instance`); its
    fleet in drawn order, and drawn pins."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        inst = random_instance(rng, max_tasks=12, max_vehicles=3, allow_pairs=True)
        if draw(st.booleans()):
            snap = lambda p: (round(p[0], -2), round(p[1], -2))
            inst = replace(
                inst,
                tasks=tuple(replace(t, location=snap(t.location)) for t in inst.tasks),
                vehicles=tuple(replace(v, start_location=snap(v.start_location))
                               for v in inst.vehicles),
            )
    else:
        inst = ride_instance(rng, max_tasks=9, max_vehicles=3)
    inst = replace(inst, vehicles=tuple(draw(st.permutations(list(inst.vehicles)))))
    ids = [v.vehicle_id for v in inst.vehicles]
    pins = {t.task_id: draw(st.sampled_from(ids)) for t in inst.tasks if draw(st.booleans())}
    return inst, pins or None


class TestConstruct:
    @given(case=construction_cases(), rides=st.sampled_from([1, 2]))
    @settings(max_examples=150, deadline=None)
    def test_greedy_matches_the_eager_loop(self, case, rides):
        inst, _ = case
        for alpha in (0.0, 1.0, 64.0):
            sched = greedy_alpha_heuristic(inst.tasks, inst.vehicles, inst.budget, alpha,
                                           inst.travel, inst.round_start,
                                           ride_counts_as=rides)
            assert [p.vehicle_id for p in sched.paths] == [v.vehicle_id for v in inst.vehicles]
            got = {p.vehicle_id: p for p in sched.paths}
            assert _timed(inst, got) == _timed(inst, eager_greedy(inst, alpha, rides))

    @given(case=construction_cases())
    @settings(max_examples=150, deadline=None)
    def test_round_robin_matches_the_eager_loop(self, case):
        inst, pins = case
        sched = baseline_round_robin(inst, pins)
        assert [p.vehicle_id for p in sched.paths] == [v.vehicle_id for v in inst.vehicles]
        got = {p.vehicle_id: p for p in sched.paths}
        assert _timed(inst, got) == _timed(inst, eager_round_robin(inst, pins))


class TestWarmStarts:
    def test_suite_members_and_selection(self):
        # Seeded with the whole suite, a heuristic solve ends no worse
        # than the suite member best under its weights.
        rng = np.random.default_rng(19)
        inst = random_instance(rng, max_tasks=10, max_vehicles=2, span=1200.0)
        suite = build_warm_start_suite(inst, seed=0)
        assert len(suite) >= 1
        w = np.ones(len(inst.customers))
        req = request_for(inst, w, warm_starts=tuple(suite),
                          config=SolverConfig(time_limit_s=0.5))
        best_member = max(schedule_value(req, s)[0] for s in suite)
        assert schedule_value(req, heuristic_vrp(req))[0] >= best_member - 1e-12

    def test_dedicated_member_skipped_when_fleet_small(self):
        tasks = (mk_task("a", "c1", 10, 0), mk_task("b", "c2", 20, 0))
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=600.0)
        suite = build_warm_start_suite(inst)
        assert len(suite) == 1

    def test_dedicated_member_covers_multi_vehicle_groups(self):
        # More vehicles than customers: each customer's tasks are solved
        # jointly over its vehicle group, so no task lands on two paths.
        tasks = tuple(mk_task(f"t{i}", f"c{i % 2 + 1}", 30 * i, 10) for i in range(8))
        vehicles = tuple(mk_vehicle(f"v{i}", 0, -10 * i) for i in range(5))
        inst = Instance(tasks=tasks, vehicles=vehicles, travel=EUCLID, budget=600.0)
        suite = build_warm_start_suite(inst)
        assert len(suite) == 2


class TestDispatchAndFacade:
    def test_auto_uses_exact_within_cutoff(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, max_tasks=5, max_vehicles=2)
        w = np.ones(len(inst.customers))
        req = request_for(inst, w)
        auto = solve_weighted_vrp(replace(req, config=SolverConfig(backend="auto")))
        exact = exact_vrp(req)
        assert schedule_value(req, auto)[0] == pytest.approx(
            schedule_value(req, exact)[0], abs=1e-12
        )

    def test_committed_task_is_forced_in_on_its_vehicle(self):
        # Each vehicle's budget fits one task.  Left alone, both serve a
        # near task; committed to v1, the far one outweighs them there.
        tasks = (
            mk_task("near1", "c1", 100, 0, service=20.0),
            mk_task("near2", "c1", -100, 0, service=20.0),
            mk_task("far", "c2", 400, 0, service=20.0),
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle("v0"), mk_vehicle("v1")),
                        travel=EUCLID, budget=65.0)
        for backend in ("exact", "heuristic"):
            config = SolverConfig(backend=backend, time_limit_s=0.1)
            plain = solve_weighted_vrp(request_for(inst, [1.0, 0.1], config=config))
            assert plain.task_ids() == {"near1", "near2"}
            forced = solve_weighted_vrp(
                request_for(inst, [1.0, 0.1], committed={"far": "v1"}, config=config))
            by_vehicle = {p.vehicle_id: p.task_ids for p in forced.paths}
            assert by_vehicle["v1"] == ("far",)
            assert by_vehicle["v0"] in (("near1",), ("near2",))

    def test_task_committed_to_an_absent_vehicle_is_served_by_none(self):
        # The dedicated baseline splits the fleet, so a sub-solve can hold
        # a task committed to a vehicle of another group.  Both backends
        # leave it out, as `may_serve` lets no vehicle of the request
        # serve it; the plain task is served either way.
        tasks = (mk_task("a", "c1", 100, 0), mk_task("b", "c2", 0, 100))
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle("v0"), mk_vehicle("v1", x=50.0)),
                        travel=EUCLID, budget=600.0)
        for backend in ("exact", "heuristic"):
            config = SolverConfig(backend=backend, time_limit_s=0.1)
            sched = solve_weighted_vrp(
                request_for(inst, [1.0, 1.0], committed={"a": "v9"}, config=config))
            assert sched.task_ids() == {"b"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SolverConfig(backend="quantum")

    def test_round_solver_counts_calls(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, max_tasks=5, max_vehicles=2)
        solver = RoundSolver(inst, SolverConfig(backend="exact"))
        assert solver.calls == 0
        k = len(inst.customers)
        solver.solve(np.ones(k))
        solver.solve(np.eye(k)[0])
        assert solver.calls == 2

    def test_round_solver_returns_allocation_of_schedule(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng, max_tasks=5, max_vehicles=2)
        solver = RoundSolver(inst, SolverConfig(backend="exact"))
        alloc, sched = solver.solve(np.ones(len(inst.customers)))
        assert np.allclose(alloc, allocation_of(sched, inst.customers))

    def test_round_solver_clamps_negative_weights(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, max_tasks=5, max_vehicles=2)
        solver = RoundSolver(inst, SolverConfig(backend="exact"))
        w = np.ones(len(inst.customers))
        w[0] = -0.5
        alloc, _ = solver.solve(w)
        assert np.all(alloc >= 0)

    def test_round_solver_warns_on_negative_weights_beyond_noise(self, caplog):
        # Rounding noise is clamped as before but silently; a real
        # negative entry, as in a face found on a ride replay, warns.
        tasks = tuple(mk_task(f"t{i}", f"c{i % 3 + 1}", 60 * i - 150, 40) for i in range(6))
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=90.0)
        solver = RoundSolver(inst, SolverConfig(backend="exact"))
        ids = lambda s: {p.vehicle_id: p.task_ids for p in s.paths}
        with caplog.at_level(logging.WARNING, logger="fairfleet.vrp"):
            _, noisy = solver.solve(np.array([0.473, 0.527, -8.7e-16]))
            assert caplog.records == []
            _, clean = solver.solve(np.array([0.473, 0.527, 0.0]))
            assert ids(noisy) == ids(clean)
            solver.solve(np.array([-0.0196, 0.0196, 1.0]))
        assert [r.getMessage().startswith("clamping negative face weights")
                for r in caplog.records] == [True]

    def test_heuristic_facade_seeds_cache_with_suite(self):
        rng = np.random.default_rng(24)
        inst = random_instance(rng, max_tasks=12, max_vehicles=2, span=1200.0)
        solver = RoundSolver(inst, SolverConfig(backend="heuristic", time_limit_s=0.5))
        assert solver.warm_start_count >= 2
        before = solver.warm_start_count
        solver.solve(np.ones(len(inst.customers)))
        assert solver.warm_start_count == before + 1

    def test_carried_plan_replaces_the_suite(self):
        """Given the plan it replaces, a round solver builds no suite, and
        no solve returns less than that plan's value once vetted on the
        new instance: some of its tasks done, the rest still live."""
        rng = np.random.default_rng(31)
        config = SolverConfig(backend="heuristic", time_limit_s=0.2)
        with mock.patch.object(vrp, "build_warm_start_suite",
                               wraps=vrp.build_warm_start_suite) as suite:
            for _ in range(6):
                inst = random_instance(rng, max_tasks=14, max_vehicles=3, span=1600.0,
                                       allow_pairs=True, deadlines=True)
                plan = heuristic_vrp(request_for(inst, np.ones(len(inst.customers)),
                                                 config=config))
                done = {t.task_id for t in plan.all_tasks() if t.pair_id is None}
                done = set(sorted(done)[::2])
                later = replace(inst, tasks=tuple(t for t in inst.tasks
                                                  if t.task_id not in done))
                solver = RoundSolver(later, config, warm_starts=(plan,))
                assert solver.warm_start_count == 1
                for _ in range(3):
                    w = rng.uniform(0.1, 2.0, len(later.customers))
                    _, got = solver.solve(w)
                    req = request_for(later, w / w.sum(), config=config)
                    heur = _Heuristic(req)
                    vetted = heur._to_schedule(heur._vet(plan))
                    assert vetted.task_ids() == plan.task_ids() - done
                    assert schedule_value(req, got)[0] >= schedule_value(req, vetted)[0] - 1e-9
                assert solver.calls == 3
        assert suite.call_count == 0

    def test_one_search_per_heuristic_solve(self, monkeypatch):
        """A solve whose vetted warm start holds tasks searches once, from
        empty paths; the warm start is a floor, not a second search."""
        req = _golden_asymmetric_matrix()
        (warm,) = req.warm_starts
        assert any(_Heuristic(req)._vet(warm).values())
        searches = []
        improve = _Heuristic._improve

        def count(self, states):
            searches.append([list(s.seq) for s in states])
            improve(self, states)

        monkeypatch.setattr(_Heuristic, "_improve", count)
        heuristic_vrp(req)
        assert searches == [[[] for _ in req.vehicles]]

    def test_round_solver_reuses_a_result_that_serves_every_task(self, monkeypatch):
        """Once a result of the round serves every task, later calls count
        but reach no backend, return that result and its allocation, and
        add nothing to the warm starts.  A warm start serving every task
        does not qualify, and a round that cannot serve every task
        searches on every call."""
        backend = []

        def counted(req):
            backend.append(req)
            return solve_weighted_vrp(req)

        monkeypatch.setattr(vrp, "solve_weighted_vrp", counted)
        tasks = tuple(mk_task(f"t{i}", f"c{i % 2 + 1}", 50.0 * i, 0.0) for i in range(4))
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=600.0)
        solver = RoundSolver(inst, SolverConfig(backend="exact"))
        alloc, full = solver.solve(np.array([1.0, 0.0]))
        assert full.total_tasks() == len(tasks)
        for w in ([0.0, 1.0], [0.3, 0.7], [-0.2, 1.0]):
            got_alloc, got = solver.solve(np.array(w))
            assert got is full
            assert np.array_equal(got_alloc, alloc)
        assert (solver.calls, len(backend), solver.warm_start_count) == (4, 1, 1)

        carried = RoundSolver(inst, SolverConfig(backend="exact"), warm_starts=(full,))
        carried.solve(np.ones(2))
        carried.solve(np.ones(2))
        assert (carried.calls, len(backend)) == (2, 2)

        short = replace(inst, budget=30.0)
        solver = RoundSolver(short, SolverConfig(backend="exact"))
        for w in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
            _, got = solver.solve(np.array(w))
            assert got.total_tasks() < len(tasks)
        assert (solver.calls, len(backend)) == (3, 5)


@st.composite
def servable_rounds(draw):
    """A small round, near its vehicles, whose tasks hold pairs and, in
    half the rounds, deadlines; some are committed to a vehicle.  Returns
    the instance, the commitments and `ride_counts_as`."""
    coord = st.floats(min_value=-300, max_value=300, allow_nan=False)
    deadline = st.one_of(st.none(), st.floats(min_value=60, max_value=600))
    if not draw(st.booleans()):
        deadline = st.none()
    tasks = []
    for k in range(draw(st.integers(min_value=0, max_value=2))):
        cust = f"c{k % 2 + 1}"
        tasks.append(Task(f"p{k}", cust, (draw(coord), draw(coord)), 10.0, pickup_of=f"q{k}"))
        tasks.append(Task(f"q{k}", cust, (draw(coord), draw(coord)), 10.0,
                          deadline=draw(deadline), dropoff_of=f"p{k}"))
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        tasks.append(Task(f"s{k}", f"c{k % 2 + 1}", (draw(coord), draw(coord)), 10.0,
                          deadline=draw(deadline)))
    vehicles = tuple(
        Vehicle(f"v{j}", (draw(coord), draw(coord)), speed=10.0,
                capacity=draw(st.integers(min_value=1, max_value=2)),
                return_home=draw(st.booleans()))
        for j in range(2)
    )
    budget = draw(st.sampled_from([300.0, 600.0, 1200.0]))
    committed = {t.task_id: draw(st.sampled_from(vehicles)).vehicle_id
                 for t in tasks if draw(st.integers(min_value=0, max_value=3)) == 0}
    inst = Instance(tuple(tasks), vehicles, EUCLID, budget)
    return inst, committed, draw(st.sampled_from([1, 2]))


weight_pairs = st.lists(st.floats(min_value=0, max_value=2), min_size=2, max_size=2)


@given(case=servable_rounds(), first=weight_pairs, later=weight_pairs)
@settings(max_examples=150, deadline=None)
def test_a_schedule_serving_every_task_is_optimal_for_any_weights(case, first, later):
    """Whenever some schedule serves every task, `exact_vrp` at any
    nonnegative weights scores what that schedule scores: the premise on
    which `RoundSolver` stops searching once a result serves every task."""
    inst, committed, rides = case
    table = RoundTable(inst)

    def request(weights):
        return SolverRequest(tasks=inst.tasks, vehicles=inst.vehicles, customers=("c1", "c2"),
                             weights=np.array(weights), table=table, committed=committed,
                             config=SolverConfig(backend="exact"), ride_counts_as=rides)

    full = exact_vrp(request(first))
    assume(full.total_tasks() == len(inst.tasks))
    req = request(later)
    got = exact_vrp(req)
    assert got.total_tasks() == len(inst.tasks)
    assert schedule_value(req, got) == pytest.approx(schedule_value(req, full), rel=1e-12)


class TestScheduleValue:
    def test_ride_counts_as_two_counts_both_halves(self):
        p = mk_task("p", "c1", 10, 0, pickup_of="d")
        d = mk_task("d", "c1", 20, 0, dropoff_of="p")
        inst = Instance(tasks=(p, d), vehicles=(mk_vehicle(),), travel=EUCLID, budget=60.0)
        req1 = request_for(inst, [1.0])
        req2 = request_for(inst, [1.0], ride_counts_as=2)
        sched = exact_vrp(req1)
        assert sched.task_ids() == {"p", "d"}
        assert schedule_value(req1, sched)[1] == 1.0
        assert schedule_value(req2, sched)[1] == 2.0


@st.composite
def travel_tables(draw):
    """A heuristic over random tasks and two vehicles, with disjoint task
    sequences for each and the leftover tasks.

    Euclidean requests give the vehicles different speeds; matrix requests
    use an asymmetric table.  `return_home` is drawn per vehicle.
    """
    coord = st.floats(min_value=-2000, max_value=2000, allow_nan=False)
    n = draw(st.integers(min_value=2, max_value=9))
    points = [(draw(coord), draw(coord)) for _ in range(n + 2)]
    tasks = tuple(
        Task(f"t{i}", "c1", points[i], draw(st.floats(min_value=0, max_value=60)))
        for i in range(n)
    )
    vehicles = (
        Vehicle("a", points[n], speed=10.0, return_home=draw(st.booleans())),
        Vehicle("b", points[n + 1], speed=7.5, return_home=draw(st.booleans())),
    )
    if draw(st.booleans()):
        travel = TravelModel.euclidean()
    else:
        distinct = sorted(set(points))
        k = len(distinct)
        cells = draw(st.lists(st.floats(min_value=0, max_value=500),
                              min_size=k * k, max_size=k * k))
        seconds = np.array(cells).reshape(k, k)
        np.fill_diagonal(seconds, 0.0)
        travel = TravelModel.matrix([f"{x!r};{y!r}" for x, y in distinct], seconds)
    req = request_for(Instance(tasks, vehicles, travel, 600.0), np.ones(1))
    order = draw(st.permutations(list(tasks)))
    cut_a = draw(st.integers(min_value=0, max_value=n))
    cut_b = draw(st.integers(min_value=cut_a, max_value=n))
    return _Heuristic(req), order[:cut_a], order[cut_a:cut_b], order[cut_b:]


class TestTravelTable:
    @given(case=travel_tables())
    @settings(max_examples=150, deadline=None)
    def test_table_cost_is_sequence_cost(self, case):
        heur, seq_a, seq_b, rest = case
        travel = heur.table.travel
        for vehicle, tasks in zip(heur.req.vehicles, (seq_a, seq_b + rest)):
            state = heur._state(vehicle, rows_of(heur, tasks))
            assert state.cost == sequence_cost(tasks, vehicle, travel)

    @given(case=travel_tables())
    @settings(max_examples=150, deadline=None)
    def test_screened_deltas_match_exact_costs(self, case):
        heur, seq_a, seq_b, rest = case
        a = heur._state(heur.req.vehicles[0], rows_of(heur, seq_a))
        b = heur._state(heur.req.vehicles[1], rows_of(heur, seq_b))
        tol = 1e-9
        assert tol < _GUARD / 100

        def cost(state, seq):
            tasks = [heur.req.tasks[r] for r in seq]
            return sequence_cost(tasks, state.vehicle, heur.table.travel)

        for i, row in enumerate(heur._reversal_deltas(a)):
            for j, est in enumerate(row, start=i + 2):
                trial = a.seq[:i] + a.seq[i:j + 1][::-1] + a.seq[j + 1:]
                assert est == pytest.approx(cost(a, trial) - a.cost, abs=tol)
        for pos in range(len(a.seq)):
            removed = a.seq[:pos] + a.seq[pos + 1:]
            assert heur._removal_delta(a, pos) == pytest.approx(
                cost(a, removed) - a.cost, abs=tol)
            x = a.seq[pos]
            for at, est in enumerate(heur._insert_deltas(a, removed, x)):
                trial = removed[:at] + [x] + removed[at:]
                assert est == pytest.approx(cost(a, trial) - cost(a, removed), abs=tol)
            for at, est in enumerate(heur._insert_deltas(b, b.seq, x)):
                trial = b.seq[:at] + [x] + b.seq[at:]
                assert est == pytest.approx(cost(b, trial) - b.cost, abs=tol)
        for i, row in enumerate(heur._swap_deltas(a, b)):
            for j, est in enumerate(row):
                ta = a.seq[:i] + [b.seq[j]] + a.seq[i + 1:]
                tb = b.seq[:j] + [a.seq[i]] + b.seq[j + 1:]
                exact = cost(a, ta) + cost(b, tb) - a.cost - b.cost
                assert est == pytest.approx(exact, abs=tol)
        if len(rest) >= 2:
            p, d = heur.row[rest[0].task_id], heur.row[rest[1].task_id]
            for state in (a, b):
                for i, row in enumerate(heur._pair_deltas(state, p, d)):
                    for j, est in enumerate(row, start=i):
                        trial = state.seq[:i] + [p] + state.seq[i:j] + [d] + state.seq[j:]
                        assert est == pytest.approx(cost(state, trial) - state.cost, abs=tol)

    @pytest.mark.parametrize("variant", ["euclidean", "matrix"])
    def test_screen_arrays_hold_the_scalar_legs(self, variant):
        # Each speed's array equals its scalar rows bit for bit, and every
        # entry is `travel_time` of its two points: the insertion screen
        # reads the legs every exact cost reads.  Two tasks share a point.
        rng = np.random.default_rng(7)
        pts = [(float(x), float(y)) for x, y in rng.uniform(-2000, 2000, (60, 2))]
        pts[49] = pts[0]
        if variant == "euclidean":
            travel = TravelModel.euclidean()
        else:
            distinct = list(dict.fromkeys(pts))
            seconds = rng.uniform(0, 500, (len(distinct), len(distinct)))
            np.fill_diagonal(seconds, 0.0)
            travel = TravelModel.matrix([f"{x!r};{y!r}" for x, y in distinct], seconds)
        tasks = tuple(Task(f"t{i:02d}", "c1", pts[i], 5.0) for i in range(50))
        vehicles = tuple(Vehicle(f"v{j}", pts[50 + j], speed=(10.0, 7.5)[j % 2])
                         for j in range(10))
        table = RoundTable(Instance(tasks, vehicles, travel, 600.0))
        for v in vehicles:
            rows = table.seconds[v.vehicle_id]
            assert table.screen[v.vehicle_id].tolist() == rows
            for a, row in zip(pts, rows):
                assert row == [travel_time(a, b, travel, v) for b in pts]


@st.composite
def insertion_pools(draw):
    """A heuristic, vehicle a's path, and the other tasks as one pool's
    candidates, some of them no longer live, with a slack that may be
    zero or less.

    Tasks share points (exact ties), some have no service time, and
    some are committed to a or b; the customers' weights include zero.
    Travel is Euclidean or an asymmetric matrix, and `return_home` is
    drawn per vehicle.
    """
    coord = st.floats(min_value=-2000, max_value=2000, allow_nan=False)
    n = draw(st.integers(min_value=1, max_value=24))
    spots = [(draw(coord), draw(coord)) for _ in range(draw(st.integers(1, n + 2)))]
    spot = st.sampled_from(spots)
    tasks = tuple(
        Task(f"t{i:02d}", draw(st.sampled_from(["c1", "c2", "c3"])), draw(spot),
             draw(st.sampled_from([0.0, 12.5])) if draw(st.booleans())
             else draw(st.floats(min_value=0, max_value=60)))
        for i in range(n)
    )
    vehicles = (
        Vehicle("a", draw(spot), speed=10.0, return_home=draw(st.booleans())),
        Vehicle("b", draw(spot), speed=7.5, return_home=draw(st.booleans())),
    )
    if draw(st.booleans()):
        travel = TravelModel.euclidean()
    else:
        distinct = sorted(set(spots))
        k = len(distinct)
        cells = draw(st.lists(st.floats(min_value=0, max_value=500),
                              min_size=k * k, max_size=k * k))
        seconds = np.array(cells).reshape(k, k)
        np.fill_diagonal(seconds, 0.0)
        travel = TravelModel.matrix([f"{x!r};{y!r}" for x, y in distinct], seconds)
    committed = {t.task_id: draw(st.sampled_from(["a", "b"]))
                 for t in tasks if draw(st.integers(0, 3)) == 0}
    weights = np.array([draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in range(3)])
    budget = draw(st.floats(min_value=1, max_value=3000))
    req = SolverRequest(tasks=tasks, vehicles=vehicles, customers=("c1", "c2", "c3"),
                        weights=weights,
                        table=RoundTable(Instance(tasks, vehicles, travel, budget)),
                        committed=committed or None)
    order = draw(st.permutations(list(tasks)))
    cut = draw(st.integers(min_value=0, max_value=n - 1))
    pool = sorted(order[cut:], key=lambda t: t.task_id)
    dead = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    # An int names the candidate whose cheapest delta the fit limit
    # should equal exactly.
    slack = draw(st.floats(min_value=-100, max_value=3000) | st.integers(0, len(pool) - 1))
    return _Heuristic(req), list(order[:cut]), pool, dead, slack


def slack_at(delta: float) -> float:
    """A slack whose fit limit, slack + 1e-9, is `delta` if one is."""
    slack = delta - 1e-9
    for _ in range(8):
        if slack + 1e-9 == delta:
            break
        slack = math.nextafter(slack, math.inf if slack + 1e-9 < delta else -math.inf)
    return slack


def both_pools(heur, tasks, dead):
    """The same candidates in a pool of lists and in a pool of arrays."""
    pools = []
    for limit in (len(tasks), len(tasks) - 1):
        with mock.patch.object(vrp, "_SMALL_POOL", limit):
            pool = vrp._Pool(heur, tasks)
        for t in dead:
            pool.drop(t.task_id)
        pools.append(pool)
    assert pools[0].small and not pools[1].small
    return pools


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@given(case=insertion_pools())
@settings(max_examples=300, deadline=None)
def test_pool_sides_give_the_same_bits(case):
    """A pool's two sides screen to the same bits and positions and order
    the same offers, for any slack and with or without the pins; so do
    `_plain_offers` over each, each from its own screen memo."""
    heur, seq, tasks, dead, slack = case
    state = heur._state(heur.req.vehicles[0], rows_of(heur, seq))
    lists, arrays = both_pools(heur, tasks, dead)
    if isinstance(slack, int):
        slack = slack_at(float(arrays.screen(state, math.inf)[0][slack]))
    best, pos = lists.screen(state, slack)
    best_a, pos_a = arrays.screen(state, slack)
    assert bits(best) == bits(best_a)
    assert pos == pos_a.tolist()
    assert lists.order(best, None) == arrays.order(best_a, None)
    vehicle = state.vehicle
    assert lists.order(best, lists.pins(vehicle)) == arrays.order(best_a, arrays.pins(vehicle))
    order, best, pos = heur._plain_offers(state, lists)
    order_a, best_a, pos_a = heur._plain_offers(state, arrays)
    assert order == order_a
    assert bits(best) == bits(best_a) and list(pos) == list(pos_a)


def _golden_asymmetric_matrix():
    """Asymmetric matrix travel, no return home, a committed task and a
    warm start."""
    rng = np.random.default_rng(101)
    pts = [(float(x), float(y)) for x, y in np.round(rng.uniform(-900, 900, (20, 2)), 1)]
    arr = np.array(pts)
    base = np.hypot(arr[:, None, 0] - arr[None, :, 0], arr[:, None, 1] - arr[None, :, 1]) / 9.0
    seconds = np.round(base * rng.uniform(0.8, 1.4, base.shape), 3)
    np.fill_diagonal(seconds, 0.0)
    travel = TravelModel.matrix([f"{x};{y}" for x, y in pts], seconds)
    tasks = tuple(
        Task(f"m{i:02d}", f"c{i % 3 + 1}", pts[i], float(5 + (i * 7) % 30))
        for i in range(17)
    )
    vehicles = tuple(Vehicle(f"v{j}", pts[17 + j]) for j in range(3))
    warm = Schedule(
        paths=(Path("v0", (tasks[3], tasks[8], tasks[1])), Path("v1", (tasks[12], tasks[5]))),
        round_duration=420.0,
    )
    return request_for(
        Instance(tasks, vehicles, travel, 420.0), np.array([1.0, 0.6, 1.7]),
        committed={"m04": "v2"}, warm_starts=(warm,),
        config=SolverConfig(time_limit_s=0.3, seed=3),
    )


def _golden_deadlines_two_speeds():
    """Euclidean travel at two speeds, deadlines, a late-ready vehicle and
    one that returns home."""
    rng = np.random.default_rng(202)
    tasks = []
    for i in range(22):
        x, y = (float(v) for v in np.round(rng.uniform(-1500, 1500, 2), 2))
        deadline = float(np.round(rng.uniform(150, 600), 1)) if i % 3 == 0 else None
        tasks.append(Task(f"d{i:02d}", f"c{i % 2 + 1}", (x, y), float(5 + i % 4 * 8),
                          deadline=deadline))
    vehicles = (
        Vehicle("fast", (100.0, -50.0), speed=14.0, return_home=True),
        Vehicle("slow", (-200.0, 300.0), speed=8.0),
        Vehicle("late", (0.0, 0.0), speed=8.0, ready_offset=60.0),
    )
    return request_for(
        Instance(tasks, vehicles, EUCLID, 600.0), np.array([0.4, 1.0]),
        config=SolverConfig(time_limit_s=0.4, seed=9),
    )


def _golden_pairs_capacity_two():
    """Pickup/dropoff pairs on capacity-2 vehicles among plain tasks, one
    dropoff with a deadline."""
    rng = np.random.default_rng(303)
    tasks = []
    for i in range(6):
        px, py, dx, dy = (float(v) for v in np.round(rng.uniform(-1000, 1000, 4), 2))
        cust = f"c{i % 2 + 1}"
        tasks.append(Task(f"p{i}", cust, (px, py), 20.0, pickup_of=f"q{i}"))
        tasks.append(Task(f"q{i}", cust, (dx, dy), 15.0, dropoff_of=f"p{i}",
                          deadline=700.0 if i == 2 else None))
    for i in range(8):
        x, y = (float(v) for v in np.round(rng.uniform(-1000, 1000, 2), 2))
        tasks.append(Task(f"s{i}", f"c{i % 2 + 1}", (x, y), 12.0))
    vehicles = (
        Vehicle("r0", (0.0, 0.0), capacity=2, return_home=True),
        Vehicle("r1", (300.0, -300.0), capacity=2),
    )
    return request_for(
        Instance(tasks, vehicles, EUCLID, 900.0), np.array([1.0, 1.0]),
        config=SolverConfig(time_limit_s=0.3, seed=1),
        ride_counts_as=2,
    )


def _golden_shared_best_deadline_drops():
    """Four identical vehicles at one depot, so each insertion step finds
    the same best offer on several paths and the first path in order
    takes it; deadlines on every fourth task make some placements fail
    the exact check after the screen picked them."""
    rng = np.random.default_rng(6)
    tasks = []
    for i in range(24):
        x, y = (float(v) for v in np.round(rng.uniform(-1200, 1200, 2), 1))
        deadline = float(np.round(rng.uniform(120, 400), 1)) if i % 4 == 0 else None
        tasks.append(Task(f"g{i:02d}", f"c{i % 3 + 1}", (x, y), 10.0, deadline=deadline))
    vehicles = tuple(Vehicle(f"u{j}", (0.0, 0.0), speed=10.0) for j in range(4)) + (
        Vehicle("w", (500.0, 500.0), speed=12.0, return_home=True),)
    return request_for(
        Instance(tasks, vehicles, EUCLID, 500.0), np.array([1.0, 0.5, 2.0]),
        config=SolverConfig(time_limit_s=0.2, seed=5),
    )


# Task-id sequences recorded from the full-rebuild evaluator the travel
# table replaced; the matrix sequences were recorded again once the
# insertion screen read each leg of an asymmetric table in its own
# direction.  The shared-best instance was recorded from the insertion
# step that rescanned every path after each insertion.  The matrix
# instance was recorded again when its pin became a commitment, which
# also weighs COMMIT_WEIGHT_RATIO, so m04 is now served.  A change here
# changes which schedules the heuristic returns.
GOLDEN = [
    (_golden_asymmetric_matrix, {
        "v0": ("m10", "m08", "m15", "m11", "m06"),
        "v1": ("m02", "m12", "m16", "m14"),
        "v2": ("m09", "m13", "m01", "m05", "m07", "m00", "m03", "m04"),
    }),
    (_golden_deadlines_two_speeds, {
        "fast": ("d02", "d04", "d14", "d21", "d10", "d16", "d11", "d00", "d12", "d05"),
        "slow": ("d20", "d15", "d09", "d07"),
        "late": ("d06", "d01", "d08", "d03", "d13"),
    }),
    (_golden_shared_best_deadline_drops, {
        "u0": ("g02", "g10", "g14", "g01", "g23", "g19", "g06"),
        "u1": ("g13", "g00", "g17", "g09", "g07", "g04"),
        "u2": ("g21", "g08", "g16", "g12", "g18", "g11"),
        "u3": ("g15", "g03", "g22", "g05"),
        "w": (),
    }),
    (_golden_pairs_capacity_two, {
        "r0": ("s1", "p5", "s2", "s0", "p2", "q2", "p0", "q5", "p4", "q4", "q0", "s4"),
        "r1": ("p1", "p3", "s6", "q3", "s3", "q1", "s5", "s7"),
    }),
]


@pytest.mark.parametrize("build, expected", GOLDEN, ids=lambda v: getattr(v, "__name__", ""))
def test_heuristic_golden_schedules(build, expected):
    req = build()
    sched = heuristic_vrp(req)
    assert {p.vehicle_id: p.task_ids for p in sched.paths} == expected
    for v, p in zip(req.vehicles, sched.paths):
        assert path_violation(p.tasks, v, req.table.travel, req.table.budget) is None


def test_golden_shared_best_exercises_verify_drops(monkeypatch):
    """The shared-best golden instance does reach the drop of a
    placement that fails its deadline check."""
    verify = _Heuristic._verify_insert
    dropped = []

    def counted(self, state, task, pos):
        trial = verify(self, state, task, pos)
        if trial is None:
            dropped.append(task.task_id)
        return trial

    monkeypatch.setattr(_Heuristic, "_verify_insert", counted)
    heuristic_vrp(_golden_shared_best_deadline_drops())
    assert dropped


def fresh_table(req, table):
    """A new table over the request's own tasks and vehicles, on the
    travel model, budget and round start of `table`."""
    return RoundTable(Instance(req.tasks, req.vehicles, table.travel, table.budget,
                               table.round_start))


@st.composite
def round_tables(draw):
    """A round of tasks and vehicles with its table, and one request over
    a subset of them on a table of its own: a dedicated-style sub-solve
    when the subset is proper, with drawn commitments, two speeds and
    Euclidean or matrix travel.  With `moved`, the round's table was
    built for one of the request's tasks at another point."""
    coord = st.floats(min_value=-1500, max_value=1500, allow_nan=False)
    n = draw(st.integers(min_value=1, max_value=9))
    points = [(draw(coord), draw(coord)) for _ in range(n + 4)]
    tasks = []
    for i in range(n):
        deadline = draw(st.one_of(st.none(), st.floats(min_value=100, max_value=600)))
        tasks.append(Task(f"t{i}", f"c{i % 2 + 1}", points[i],
                          draw(st.floats(min_value=0, max_value=40)), deadline=deadline))
    if n >= 2 and draw(st.booleans()):
        tasks[0] = replace(tasks[0], pickup_of="t1", deadline=None)
        tasks[1] = replace(tasks[1], dropoff_of="t0")
    vehicles = tuple(
        Vehicle(f"v{j}", points[n + j], speed=(10.0, 7.5)[j % 2],
                capacity=draw(st.integers(min_value=1, max_value=2)),
                return_home=draw(st.booleans()))
        for j in range(3)
    )
    moved = draw(st.booleans()) and points[n + 3] != tasks[-1].location
    if draw(st.booleans()):
        travel = TravelModel.euclidean()
    else:
        distinct = sorted(set(points) | {points[n + 3]})
        k = len(distinct)
        cells = draw(st.lists(st.floats(min_value=0, max_value=400),
                              min_size=k * k, max_size=k * k))
        seconds = np.array(cells).reshape(k, k)
        np.fill_diagonal(seconds, 0.0)
        travel = TravelModel.matrix([f"{x!r};{y!r}" for x, y in distinct], seconds)
    in_table = list(tasks)
    if moved:
        in_table[-1] = replace(in_table[-1], location=points[n + 3])
    table = RoundTable(Instance(in_table, vehicles, travel, 600.0))
    sub_tasks = tuple(t for t in tasks if draw(st.booleans())) or tuple(tasks)
    sub_vehicles = tuple(v for v in vehicles if draw(st.booleans())) or vehicles[:1]
    committed = {
        t.task_id: draw(st.sampled_from(sub_vehicles)).vehicle_id
        for t in sub_tasks if draw(st.integers(min_value=0, max_value=3)) == 0
    }
    req = SolverRequest(
        tasks=sub_tasks, vehicles=sub_vehicles,
        customers=("c1", "c2"),
        weights=np.array([draw(st.floats(min_value=0, max_value=2)), 1.0]),
        table=RoundTable(Instance(sub_tasks, sub_vehicles, travel, 600.0)),
        committed=committed or None,
        config=SolverConfig(time_limit_s=0.05, seed=draw(st.integers(0, 9))),
    )
    return req, table, moved and tasks[-1] in sub_tasks


@st.composite
def shared_rounds(draw):
    """A round's table, and a few requests on it in the order a round
    would solve them.  The requests differ in commitments, weights and
    seed, and some cover a subset of the tasks; each later request
    carries the earlier results as warm starts, as `RoundSolver` does.
    The tasks hold pairs and, in half the rounds, deadlines; the vehicles hold capacity 1 or 2; travel is
    Euclidean or an asymmetric matrix."""
    coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
    service = st.floats(min_value=0, max_value=30)
    if draw(st.booleans()):
        window = st.floats(min_value=150, max_value=700)
        deadline = st.one_of(st.none(), window, window)
    else:
        deadline = st.none()
    n_pairs = draw(st.integers(min_value=1, max_value=3))
    n_plain = draw(st.integers(min_value=1, max_value=5))
    points = [(draw(coord), draw(coord)) for _ in range(2 * n_pairs + n_plain + 3)]
    at = iter(points)
    tasks = []
    for k in range(n_pairs):
        cust = f"c{k % 2 + 1}"
        tasks.append(Task(f"p{k}", cust, next(at), draw(service), pickup_of=f"q{k}"))
        tasks.append(Task(f"q{k}", cust, next(at), draw(service), deadline=draw(deadline),
                          dropoff_of=f"p{k}"))
    for k in range(n_plain):
        tasks.append(Task(f"s{k}", f"c{k % 2 + 1}", next(at), draw(service),
                          deadline=draw(deadline)))
    vehicles = tuple(
        Vehicle(f"v{j}", next(at), speed=(10.0, 7.5)[j % 2],
                capacity=draw(st.integers(min_value=1, max_value=2)),
                return_home=draw(st.booleans()))
        for j in range(3)
    )
    if draw(st.booleans()):
        travel = TravelModel.euclidean()
    else:
        distinct = sorted(set(points))
        k = len(distinct)
        cells = draw(st.lists(st.floats(min_value=0, max_value=250),
                              min_size=k * k, max_size=k * k))
        seconds = np.array(cells).reshape(k, k)
        np.fill_diagonal(seconds, 0.0)
        travel = TravelModel.matrix([f"{x!r};{y!r}" for x, y in distinct], seconds)
    budget = draw(st.sampled_from([200.0, 400.0, 600.0]))
    round_start = draw(st.sampled_from([0.0, 150.0, 300.0]))
    table = RoundTable(Instance(tasks, vehicles, travel, budget, round_start))
    requests = []
    for _ in range(draw(st.integers(min_value=3, max_value=6))):
        sub = tuple(tasks)
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            sub = tuple(t for t in tasks if draw(st.booleans())) or sub
        committed = {}
        if draw(st.booleans()):
            committed = {
                t.task_id: draw(st.sampled_from(vehicles)).vehicle_id
                for t in sub if draw(st.integers(min_value=0, max_value=2)) == 0
            }
        requests.append(SolverRequest(
            tasks=sub, vehicles=vehicles,
            customers=("c1", "c2"),
            weights=np.array([draw(st.floats(min_value=0, max_value=2)), 1.0]),
            table=table,
            committed=committed or None,
            config=SolverConfig(time_limit_s=0.05, seed=draw(st.integers(0, 9))),
        ))
    return table, requests


class TestRoundTable:
    @given(case=shared_rounds())
    @settings(max_examples=200, deadline=None)
    def test_shared_table_matches_fresh_tables(self, case):
        """Solves that share one table, and so its placement memos, in
        drawn order give the paths each gives on a table of its own."""
        table, requests = case
        ids = lambda s: {p.vehicle_id: p.task_ids for p in s.paths}
        done = []
        for req in requests:
            req = replace(req, warm_starts=tuple(done))
            shared = heuristic_vrp(req)
            assert ids(shared) == ids(heuristic_vrp(replace(req, table=fresh_table(req, table))))
            done.append(shared)

    @given(case=shared_rounds())
    @settings(max_examples=150, deadline=None)
    def test_best_warm_start_is_a_floor(self, case):
        """Each solve of a round returns the better, on `(weighted value,
        count)`, of its search without warm starts and its best vetted
        warm start (the first among equals), taken unchanged; the search
        wins a tie.  The table's vetted warm starts are left as they
        were."""
        table, requests = case
        ids = lambda s: {p.vehicle_id: p.task_ids for p in s.paths}
        done = []
        for req in requests:
            req = replace(req, warm_starts=tuple(done))
            heur = _Heuristic(req)
            floor, floor_paths = (-math.inf, -math.inf), None
            for warm in done:
                paths = heur._vet(warm)
                if paths is not None and heur._value(paths) > floor:
                    floor, floor_paths = heur._value(paths), paths
            got = heuristic_vrp(req)
            searched = heuristic_vrp(replace(req, warm_starts=()))
            if schedule_value(req, searched) >= floor:
                assert ids(got) == ids(searched)
            else:
                assert ids(got) == ids(heur._to_schedule(floor_paths))
            vetted = {k: repr(paths) for k, (_, paths) in table.vetted.items()}
            heuristic_vrp(req)
            assert {k: repr(paths) for k, (_, paths) in table.vetted.items()} == vetted
            done.append(got)

    @given(case=round_tables())
    @settings(max_examples=120, deadline=None)
    def test_round_table_gives_the_same_schedule(self, case):
        """A request on the round's table solves as on a table of its
        own; one naming a task the round's table holds elsewhere is
        refused."""
        req, table, moved = case
        assert table.covers(req) is not moved
        if moved:
            with pytest.raises(ValueError, match="must be its table's"):
                replace(req, table=table)
            return
        with_table = replace(req, table=table)
        assert _Heuristic(with_table).table is table
        ids = lambda s: {p.vehicle_id: p.task_ids for p in s.paths}
        assert ids(heuristic_vrp(with_table)) == ids(heuristic_vrp(req))

    def test_round_solver_shares_one_table(self, monkeypatch):
        """Every heuristic solve of a round, the suite's included, reads
        the table the RoundSolver built."""
        inst = construction_instances()["pins_deadlines"][0]
        seen = []
        init = _Heuristic.__init__

        def spy(self, req):
            init(self, req)
            seen.append(self.table)

        monkeypatch.setattr(_Heuristic, "__init__", spy)
        solver = RoundSolver(inst, SolverConfig(backend="heuristic", time_limit_s=0.1))
        solver.solve(np.ones(len(inst.customers)))
        assert len(seen) >= 3
        assert all(t is solver._table for t in seen)


# A reference copy of the three local-search passes as they were before
# the round table kept void scans: every pass scans every move.


class ScanEveryMove(_Heuristic):
    def _two_opt_pass(self, state) -> bool:
        """First-improvement segment reversal; cost-only (membership fixed)."""
        seq = state.seq
        m = len(seq)
        task_at = self.table.task_at
        if m < 3 or any(task_at[r].pair_id is not None for r in seq):
            return False
        idx = list(range(m - 1))
        self.rng.shuffle(idx)
        deltas = self._reversal_deltas(state)
        for i in idx:
            for j, est in enumerate(deltas[i], start=i + 2):
                self.evals -= 1
                if self.evals <= 0:
                    return False
                if est > _GUARD - 1e-9:
                    continue
                trial_seq = seq[:i] + seq[i:j + 1][::-1] + seq[j + 1:]
                cost = self._cost(state, trial_seq)
                if cost < state.cost - 1e-9:
                    if self._feasible(state.vehicle, trial_seq):
                        self._assign(state, trial_seq, cost)
                        return True
        return False

    def _relocate_pass(self, states) -> bool:
        """Move one plain task to the cheapest position anywhere."""
        task_at = self.table.task_at
        order = [
            (s_i, t_i)
            for s_i, s in enumerate(states)
            for t_i, r in enumerate(s.seq)
            if task_at[r].pair_id is None
        ]
        self.rng.shuffle(order)
        committed = self.req.committed
        for s_i, t_i in order:
            src = states[s_i]
            x = src.seq[t_i]
            task = task_at[x]
            removed = src.seq[:t_i] + src.seq[t_i + 1:]
            removal = self._removal_delta(src, t_i)
            removed_cost: Optional[float] = None
            for d_i, dst in enumerate(states):
                if not may_serve(committed, task, dst.vehicle):
                    continue
                same = d_i == s_i
                base = removed if same else dst.seq
                # one evaluation per position
                self.evals -= len(base) + 1
                if self.evals <= 0:
                    return False
                deltas = self._insert_deltas(dst, base, x)
                low = min(deltas)
                if removal + low > _GUARD - 1e-9:
                    continue
                if removed_cost is None:
                    removed_cost = self._cost(src, removed)
                base_cost = removed_cost if same else dst.cost
                # Cheapest position by the ordered `< best - 1e-12` rule.
                # Positions beyond _GUARD of the screened minimum cannot
                # change its outcome, so only the others are costed.
                best = None
                for pos, est in enumerate(deltas):
                    if est > low + _GUARD:
                        continue
                    trial_seq = base[:pos] + [x] + base[pos:]
                    cost = self._cost(dst, trial_seq)
                    delta = cost - base_cost
                    if best is None or delta < best[0] - 1e-12:
                        best = (delta, pos, trial_seq, cost)
                _, pos, trial_seq, cost = best
                old_total = src.cost + (0.0 if same else dst.cost)
                new_total = cost if same else removed_cost + cost
                if new_total < old_total - 1e-9:
                    if self.table.budget_slack[dst.vehicle.vehicle_id] < cost - 1e-9:
                        continue
                    if not self._feasible(dst.vehicle, trial_seq):
                        continue
                    # Without the triangle inequality, taking a task out
                    # can lengthen the path it leaves.
                    if not (same or self._feasible(src.vehicle, removed)):
                        continue
                    if not same:
                        self._assign(src, removed, removed_cost)
                    self._assign(dst, trial_seq, cost)
                    return True
        return False

    def _swap_pass(self, states) -> bool:
        """Exchange two plain tasks across paths when it lowers total cost."""
        pairs = []
        for a_i in range(len(states)):
            for b_i in range(a_i + 1, len(states)):
                pairs.append((a_i, b_i))
        self.rng.shuffle(pairs)
        committed = self.req.committed
        task_at = self.table.task_at
        for a_i, b_i in pairs:
            a, b = states[a_i], states[b_i]
            deltas = self._swap_deltas(a, b)
            for i, ta in enumerate(map(task_at.__getitem__, a.seq)):
                if ta.pair_id is not None or not may_serve(committed, ta, b.vehicle):
                    continue
                for j, tb in enumerate(map(task_at.__getitem__, b.seq)):
                    if tb.pair_id is not None or not may_serve(committed, tb, a.vehicle):
                        continue
                    self.evals -= 1
                    if self.evals <= 0:
                        return False
                    if deltas[i][j] > _GUARD - 1e-9:
                        continue
                    ta_seq = a.seq[:i] + [b.seq[j]] + a.seq[i + 1:]
                    tb_seq = b.seq[:j] + [a.seq[i]] + b.seq[j + 1:]
                    ca = self._cost(a, ta_seq)
                    cb = self._cost(b, tb_seq)
                    if ca + cb < a.cost + b.cost - 1e-9:
                        if ca > self.table.budget_slack[a.vehicle.vehicle_id] + 1e-9:
                            continue
                        if cb > self.table.budget_slack[b.vehicle.vehicle_id] + 1e-9:
                            continue
                        if not (self._feasible(a.vehicle, ta_seq) and self._feasible(b.vehicle, tb_seq)):
                            continue
                        self._assign(a, ta_seq, ca)
                        self._assign(b, tb_seq, cb)
                        return True
        return False


def _solve_both(req, table, ref_table, effort):
    """The heuristic on `table` and the reference on `ref_table`, each
    with `effort` evaluations if given; both solvers and schedules."""
    out = []
    for cls, tab in ((_Heuristic, table), (ScanEveryMove, ref_table)):
        heur = cls(replace(req, table=tab))
        if effort is not None:
            heur.evals = effort
        out.append((heur, heur.run()))
    return out


def _same_bits(got, want):
    (heur, sched), (ref, ref_sched) = got, want
    table, vehicles = heur.table, {v.vehicle_id: v for v in heur.req.vehicles}
    timed = lambda s: [(p.vehicle_id, p.task_ids,
                        path_times(vehicles[p.vehicle_id], p.tasks, table.travel, table.round_start))
                       for p in s.paths]
    assert timed(sched) == timed(ref_sched)
    assert heur.evals == ref.evals
    assert heur.rng.getstate() == ref.rng.getstate()


effort_budgets = st.sampled_from([None, None, 40, 150, 600, 2500])


class TestVoidScans:
    @given(case=shared_rounds(), effort=effort_budgets)
    @settings(max_examples=200, deadline=None)
    def test_round_of_solves_keeps_the_bits(self, case, effort):
        """Solves in drawn order on one table skip the scans an earlier
        solve, or an earlier pass, found void; each gives the paths, the
        completion times, the effort left and the random state of
        scanning every move, also when the effort runs out mid-pass."""
        table, requests = case
        ref_table = RoundTable(Instance(list(table.tasks.values()), list(table.vehicles.values()),
                                        table.travel, table.budget, table.round_start))
        done = []
        for req in requests:
            got, want = _solve_both(replace(req, warm_starts=tuple(done)), table, ref_table,
                                    effort)
            _same_bits(got, want)
            done.append(got[1])

    @given(case=round_tables(), effort=effort_budgets)
    @settings(max_examples=120, deadline=None)
    def test_sub_solves_keep_the_bits(self, case, effort):
        """A sub-solve with commitments, solved twice on the round's
        table, the second seeded with the first; on its own table when
        the round's table holds one of its tasks elsewhere."""
        req, table, moved = case
        if moved:
            table = req.table
        ref_table = RoundTable(Instance(list(table.tasks.values()), list(table.vehicles.values()),
                                        table.travel, table.budget, table.round_start))
        first = _solve_both(req, table, ref_table, effort)
        _same_bits(*first)
        again = _solve_both(replace(req, warm_starts=(first[0][1],)), table, ref_table, effort)
        _same_bits(*again)
