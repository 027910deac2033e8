"""Core data model: timing arithmetic, feasibility, counting, file formats."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EUCLID, mk_task, mk_vehicle
from fairfleet.model import (
    Instance,
    Path,
    PathState,
    Schedule,
    Task,
    TravelModel,
    Vehicle,
    allocation_of,
    count_fulfilled,
    customers_of,
    empty_schedule,
    path_times,
    path_violation,
    read_tasks_jsonl,
    read_travel_matrix_csv,
    read_vehicles_json,
    sequence_cost,
    step_of,
    travel_time,
    validate_pairs,
    write_tasks_jsonl,
    write_travel_matrix_csv,
    write_vehicles_json,
)


class TestTaskValidation:
    def test_negative_service_rejected(self):
        with pytest.raises(ValueError, match="service_time"):
            mk_task("t0", "c1", 0, 0, service=-1.0)

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            Task(task_id="t0", customer_id="c1", location=(0, 0),
                 service_time=1.0, arrival_time=10.0, deadline=5.0)

    def test_pickup_and_dropoff_exclusive(self):
        with pytest.raises(ValueError, match="both pickup and dropoff"):
            Task(task_id="t0", customer_id="c1", location=(0, 0),
                 service_time=1.0, pickup_of="a", dropoff_of="b")

    @pytest.mark.parametrize("field, value", [
        ("location", (math.nan, 0.0)), ("location", (0.0, math.inf)),
        ("service_time", math.nan), ("service_time", math.inf),
        ("arrival_time", math.nan), ("arrival_time", -math.inf),
        ("deadline", math.nan), ("deadline", math.inf),
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        """Every comparison with NaN is false, so each number is checked
        to be finite: a NaN or infinite one passed every range check."""
        fields = dict(task_id="t0", customer_id="c1", location=(0.0, 0.0), service_time=1.0)
        with pytest.raises(ValueError, match=f"task t0: {field} must be"):
            Task(**{**fields, field: value})

    def test_location_coerced_to_floats(self):
        t = mk_task("t0", "c1", 3, 4)
        assert t.location == (3.0, 4.0)

    def test_pair_id(self):
        p = mk_task("p", "c1", 0, 0, pickup_of="d")
        d = mk_task("d", "c1", 1, 0, dropoff_of="p")
        assert p.pair_id == "d" and d.pair_id == "p"
        assert p.is_pickup and not p.is_dropoff
        assert d.is_dropoff and not d.is_pickup
        assert mk_task("t", "c1", 0, 0).pair_id is None


class TestVehicleValidation:
    def test_bad_speed(self):
        with pytest.raises(ValueError, match="speed"):
            mk_vehicle(speed=0.0)

    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            mk_vehicle(capacity=0)

    def test_bad_ready_offset(self):
        with pytest.raises(ValueError, match="ready_offset"):
            mk_vehicle(ready_offset=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("start_location", (math.nan, 0.0)), ("start_location", (0.0, -math.inf)),
        ("speed", math.nan), ("speed", math.inf),
        ("ready_offset", math.nan), ("ready_offset", math.inf),
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        """An infinite speed teleports; a NaN one passed `speed > 0`'s
        negation and served nothing."""
        with pytest.raises(ValueError, match=f"vehicle v0: {field} must be"):
            Vehicle(**{"vehicle_id": "v0", "start_location": (0.0, 0.0), field: value})


class TestTravel:
    def test_euclidean_uses_vehicle_speed(self):
        v = mk_vehicle(speed=20.0)
        assert travel_time((0, 0), (60, 80), EUCLID, v) == pytest.approx(5.0)

    def test_matrix_binds_xy_ids(self):
        m = TravelModel.matrix(["0;0", "30;40"], [[0, 7], [9, 0]])
        v = mk_vehicle(speed=1.0)
        assert travel_time((0, 0), (30, 40), m, v) == 7.0
        assert travel_time((30, 40), (0, 0), m, v) == 9.0

    def test_matrix_rejects_unregistered_point(self):
        m = TravelModel.matrix(["0;0", "1;1"], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="unregistered"):
            travel_time((5, 5), (0, 0), m, mk_vehicle())

    def test_matrix_shape_and_diagonal_checks(self):
        with pytest.raises(ValueError, match="shape"):
            TravelModel.matrix(["a", "b"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        with pytest.raises(ValueError, match="diagonal"):
            TravelModel.matrix(["0;0", "1;0"], [[3, 1], [1, 0]])

    def test_matrix_rejects_nan_entries(self):
        """A NaN leg once passed the `>= 0` check, and `path_violation`
        then took any path over it."""
        with pytest.raises(ValueError, match="entries must be >= 0, not NaN"):
            TravelModel.matrix(["0;0", "1;0"], [[0, math.nan], [1, 0]])

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            TravelModel(variant="teleport")


class TestBuildPath:
    """`path_times`, the one routine that times a planned path."""

    # Derived by hand: speed 10 m/s, legs 100 m then 40 m.
    def test_timings(self):
        v = mk_vehicle()
        t1 = mk_task("t1", "c1", 100, 0, service=10.0)
        t2 = mk_task("t2", "c1", 100, 40, service=5.0)
        assert path_times(v, [t1, t2], EUCLID) == [(0.0, 10.0, 20.0), (20.0, 24.0, 29.0)]

    def test_round_start_and_ready_offset_shift_clock(self):
        v = mk_vehicle(ready_offset=7.0)
        t1 = mk_task("t1", "c1", 100, 0, service=10.0)
        assert path_times(v, [t1], EUCLID, round_start=600.0) == [(607.0, 617.0, 627.0)]


class TestCosts:
    def test_sequence_cost_without_return(self):
        v = mk_vehicle()
        seq = [mk_task("t1", "c1", 100, 0), mk_task("t2", "c1", 100, 40, service=5.0)]
        # 10s + 10s service + 4s + 5s service
        assert sequence_cost(seq, v, EUCLID) == pytest.approx(29.0)

    def test_sequence_cost_with_return_home(self):
        v = mk_vehicle(return_home=True)
        seq = [mk_task("t1", "c1", 100, 0), mk_task("t2", "c1", 100, 40, service=5.0)]
        back = math.hypot(100, 40) / 10.0
        assert sequence_cost(seq, v, EUCLID) == pytest.approx(29.0 + back)

    def test_empty_sequence_is_free(self):
        assert sequence_cost([], mk_vehicle(return_home=True), EUCLID) == 0.0


class TestPathViolation:
    def test_feasible_sequence(self):
        v = mk_vehicle()
        seq = [mk_task("t1", "c1", 100, 0)]
        assert path_violation(seq, v, EUCLID, budget=30.0) is None

    def test_budget_violation(self):
        v = mk_vehicle()
        seq = [mk_task("t1", "c1", 100, 0)]
        assert "budget" in path_violation(seq, v, EUCLID, budget=19.0)

    def test_return_leg_counts_against_budget(self):
        v = mk_vehicle(return_home=True)
        seq = [mk_task("t1", "c1", 100, 0)]
        assert path_violation(seq, v, EUCLID, budget=25.0) is not None
        assert path_violation(seq, v, EUCLID, budget=30.0) is None

    def test_deadline_violation(self):
        v = mk_vehicle()
        late = Task(task_id="t1", customer_id="c1", location=(100, 0),
                    service_time=10.0, deadline=15.0)
        assert "deadline" in path_violation([late], v, EUCLID, budget=600.0)

    def test_dropoff_before_pickup(self):
        v = mk_vehicle()
        p = mk_task("p", "c1", 10, 0, pickup_of="d")
        d = mk_task("d", "c1", 20, 0, dropoff_of="p")
        assert "precedes" in path_violation([d, p], v, EUCLID, budget=600.0)
        assert path_violation([p, d], v, EUCLID, budget=600.0) is None

    def test_capacity_bound(self):
        v = mk_vehicle(capacity=1)
        p1 = mk_task("p1", "c1", 10, 0, pickup_of="d1")
        d1 = mk_task("d1", "c1", 20, 0, dropoff_of="p1")
        p2 = mk_task("p2", "c1", 30, 0, pickup_of="d2")
        d2 = mk_task("d2", "c1", 40, 0, dropoff_of="p2")
        assert "capacity" in path_violation([p1, p2, d1, d2], v, EUCLID, budget=600.0)
        v2 = mk_vehicle(capacity=2)
        assert path_violation([p1, p2, d1, d2], v2, EUCLID, budget=600.0) is None

    def test_ready_offset_erodes_budget(self):
        v = mk_vehicle(ready_offset=15.0)
        seq = [mk_task("t1", "c1", 100, 0)]
        assert path_violation(seq, v, EUCLID, budget=30.0) is not None
        assert path_violation(seq, v, EUCLID, budget=35.0) is None

    def test_empty_path_breaks_no_rule(self):
        # A vehicle busy past the round's end still has a valid plan:
        # no new task.
        v = mk_vehicle(ready_offset=45.0, return_home=True)
        assert path_violation([], v, EUCLID, budget=30.0) is None
        assert PathState(v, EUCLID, 30.0).closes()

    def test_pair_left_open(self):
        v = mk_vehicle()
        p = mk_task("p", "c1", 10, 0, pickup_of="d")
        assert "never dropped off" in path_violation([p], v, EUCLID, budget=600.0)



def _walk_case(seed, travel_kind, return_home, ready_offset, capacity, round_start,
               lone_pickup=False, lattice=False):
    """A shuffled mix of plain tasks and pickup/dropoff pairs, some with
    deadlines, and a vehicle and budget that some prefixes break.  With
    `lone_pickup`, one more pickup whose dropoff is not in the mix; with
    `lattice`, the points shrunk threefold onto a 100 m lattice and half
    of them moved on by one ulp in x, so that legs tie or come within
    1e-12 s of each other."""
    rng = np.random.default_rng(seed)
    n_plain, n_pairs = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    n_points = n_plain + 2 * n_pairs + 2
    xy = np.round(rng.uniform(-600, 600, (n_points, 2)), 1)
    if lattice:
        xy = np.round(xy / 300.0) * 100.0
        nudge = rng.random(n_points) < 0.5
        xy[nudge, 0] = np.nextafter(xy[nudge, 0], np.inf)
    pts = [(float(x), float(y)) for x, y in xy]
    speed = 13.0
    if travel_kind == "matrix":
        arr = np.array(pts)
        base = np.hypot(arr[:, None, 0] - arr[None, :, 0], arr[:, None, 1] - arr[None, :, 1])
        seconds = np.round(base / 9.0 * rng.uniform(0.5, 1.6, base.shape), 3)
        np.fill_diagonal(seconds, 0.0)
        travel = TravelModel.matrix([f"{x};{y}" for x, y in pts], seconds)
    else:
        travel = EUCLID
        speed = 7.0 if travel_kind == "slow" else 13.0

    def deadline():
        return round_start + float(rng.uniform(60, 400)) if rng.random() < 0.3 else None

    tasks = [Task(f"s{i}", "c1", pts[i], float(rng.uniform(0, 30)), deadline=deadline())
             for i in range(n_plain)]
    for j in range(n_pairs):
        tasks.append(Task(f"p{j}", "c1", pts[n_plain + 2 * j], 10.0, pickup_of=f"d{j}",
                          deadline=deadline()))
        tasks.append(Task(f"d{j}", "c1", pts[n_plain + 2 * j + 1], 5.0, dropoff_of=f"p{j}",
                          deadline=deadline()))
    if lone_pickup:
        tasks.append(Task("lone", "c1", pts[-2], 10.0, pickup_of="gone", deadline=deadline()))
    order = rng.permutation(len(tasks))
    seq = [tasks[i] for i in order]
    vehicle = Vehicle("v0", pts[-1], speed=speed, capacity=capacity,
                      return_home=return_home, ready_offset=ready_offset)
    budget = float(rng.uniform(150, 700))
    return seq, vehicle, travel, budget


def _snapshot(state):
    return (state.clock, state.loc, state.open_pairs, state.length)


def _first_stop(seq, vehicle, travel, budget, round_start):
    """Index of the first task that misses its deadline, exceeds the
    capacity, precedes its pickup or completes past the budget's end;
    len(seq) if none does."""
    times = path_times(vehicle, seq, travel, round_start)
    open_pairs = set()
    for k, (t, (_, _, done)) in enumerate(zip(seq, times)):
        if done > round_start + budget + 1e-9:
            return k
        if t.deadline is not None and done > t.deadline + 1e-9:
            return k
        if t.pickup_of is not None:
            if len(open_pairs) >= vehicle.capacity:
                return k
            open_pairs.add(t.task_id)
        elif t.dropoff_of is not None:
            if t.dropoff_of not in open_pairs:
                return k
            open_pairs.discard(t.dropoff_of)
    return len(seq)


class TestPathState:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        travel_kind=st.sampled_from(["fast", "slow", "matrix"]),
        return_home=st.booleans(),
        # 800 s puts every task past the end of any budget drawn.
        ready_offset=st.sampled_from([0.0, 37.5, 800.0]),
        capacity=st.integers(min_value=1, max_value=3),
        round_start=st.sampled_from([0.0, 600.0]),
        lone_pickup=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_resumed_walk_equals_full_walk(self, seed, travel_kind, return_home,
                                           ready_offset, capacity, round_start,
                                           lone_pickup):
        seq, vehicle, travel, budget = _walk_case(seed, travel_kind, return_home,
                                                  ready_offset, capacity, round_start,
                                                  lone_pickup)
        # Stepping task by task stops at the first task that breaks a
        # per-task rule or completes past the budget's end.  Every state
        # it reaches closes exactly when its prefix is a valid path, and
        # has the clock and location a walk of that prefix reaches.
        stop = _first_stop(seq, vehicle, travel, budget, round_start)
        state = PathState(vehicle, travel, budget, round_start)
        for k in range(stop + 1):
            assert state.closes() == (
                path_violation(seq[:k], vehicle, travel, budget, round_start) is None
            )
            if k == len(seq):
                break
            child = state.step(seq[k])
            if k == stop:
                assert child is None
                break
            assert (child.length, child.loc) == (k + 1, seq[k].location)
            assert child.clock == path_times(vehicle, seq[:k + 1], travel,
                                             round_start)[-1][2]
            assert state.length == k  # stepping leaves the state as it is
            state = child

        valid = [k for k in range(len(seq) + 1)
                 if path_violation(seq[:k], vehicle, travel, budget, round_start) is None]
        for k in valid:
            # Advance by the whole prefix, and by its valid sub-prefixes.
            whole = PathState(vehicle, travel, budget, round_start)
            whole.advance(seq[:k])
            chunked = PathState(vehicle, travel, budget, round_start)
            done = 0
            for cut in [c for c in valid if 0 < c <= k]:
                chunked.advance(seq[done:cut])
                done = cut
            assert _snapshot(chunked) == _snapshot(whole)
            assert whole.length == k
            for state in (whole, chunked):
                for end in range(k, len(seq) + 1):
                    before = _snapshot(state)
                    got = state.violation(seq[k:end])
                    assert got == path_violation(seq[:end], vehicle, travel, budget,
                                                 round_start)
                    assert _snapshot(state) == before

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        travel_kind=st.sampled_from(["fast", "slow", "matrix"]),
        return_home=st.booleans(),
        ready_offset=st.sampled_from([0.0, 37.5, 800.0]),
        capacity=st.integers(min_value=1, max_value=3),
        round_start=st.sampled_from([0.0, 600.0]),
        lone_pickup=st.booleans(),
        lattice=st.booleans(),
        cut=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_nearest_matches_the_scan(self, seed, travel_kind, return_home, ready_offset,
                                      capacity, round_start, lone_pickup, lattice, cut):
        seq, vehicle, travel, budget = _walk_case(seed, travel_kind, return_home,
                                                  ready_offset, capacity, round_start,
                                                  lone_pickup, lattice)
        valid = [k for k in range(len(seq) + 1)
                 if path_violation(seq[:k], vehicle, travel, budget, round_start) is None]
        cut = valid[cut % len(valid)]
        state = PathState(vehicle, travel, budget, round_start)
        state.advance(seq[:cut])
        unserved = {t.task_id: t for t in sorted(seq[cut:], key=lambda t: t.task_id)}
        offered = [t for t in unserved.values() if t.dropoff_of is None]

        def scan():
            # The round-robin scan `nearest` replaces, leg by leg.
            best = None
            for t in offered:
                d = travel_time(state.loc, t.location, travel, vehicle)
                if best is not None and not d < best[0] - 1e-12:
                    continue
                step = step_of(t, unserved)
                if step is not None and state.violation(step) is None:
                    best = (d, step)
            return best

        before = _snapshot(state)
        got = state.nearest(offered, unserved)
        assert got == scan()
        assert _snapshot(state) == before
        if got is not None:
            leg, step = got
            assert leg.hex() == travel_time(state.loc, step[0].location, travel,
                                            vehicle).hex()

    def test_clock_matches_build_path(self):
        v = mk_vehicle(speed=7.0, ready_offset=3.25)
        seq = [mk_task("t1", "c1", 100.3, 7.1), mk_task("t2", "c1", -40.9, 33.3, service=4.7)]
        state = PathState(v, EUCLID, 600.0, round_start=1200.0)
        state.advance(seq)
        assert state.clock == path_times(v, seq, EUCLID, 1200.0)[-1][2]
        assert state.loc == seq[-1].location

    def test_advance_past_a_broken_rule_raises(self):
        state = PathState(mk_vehicle(), EUCLID, 19.0)
        with pytest.raises(ValueError, match="budget"):
            state.advance([mk_task("t1", "c1", 100, 0)])


class TestCounting:
    def test_plain_tasks_count_once(self):
        tasks = [mk_task("a", "c1", 0, 0), mk_task("b", "c2", 0, 0), mk_task("c", "c1", 0, 0)]
        counts = count_fulfilled(tasks, ("c1", "c2"))
        assert counts.tolist() == [2.0, 1.0]

    def test_pair_counts_once_on_dropoff(self):
        p = mk_task("p", "c1", 0, 0, pickup_of="d")
        d = mk_task("d", "c1", 1, 0, dropoff_of="p")
        assert count_fulfilled([p, d], ("c1",)).tolist() == [1.0]
        assert count_fulfilled([p], ("c1",)).tolist() == [0.0]

    def test_ride_counts_as_two(self):
        p = mk_task("p", "c1", 0, 0, pickup_of="d")
        d = mk_task("d", "c1", 1, 0, dropoff_of="p")
        assert count_fulfilled([p, d], ("c1",), ride_counts_as=2).tolist() == [2.0]

    def test_allocation_is_per_minute(self):
        v = mk_vehicle()
        sched = Schedule(
            paths=(Path(v.vehicle_id, (mk_task("a", "c1", 10, 0),)),),
            round_duration=120.0,
        )
        assert allocation_of(sched, ("c1",)).tolist() == [0.5]

    def test_customers_of_sorted(self):
        tasks = [mk_task("a", "zeta", 0, 0), mk_task("b", "alpha", 0, 0)]
        assert customers_of(tasks) == ("alpha", "zeta")


class TestScheduleInvariants:
    def test_duplicate_task_rejected(self):
        v1, v2 = mk_vehicle("v1"), mk_vehicle("v2")
        t = mk_task("t", "c1", 10, 0)
        with pytest.raises(ValueError, match="two paths"):
            Schedule(
                paths=(Path(v1.vehicle_id, (t,)), Path(v2.vehicle_id, (t,))),
                round_duration=600.0,
            )

    def test_empty_schedule(self):
        s = empty_schedule([mk_vehicle("v1"), mk_vehicle("v2")], 600.0)
        assert s.total_tasks() == 0 and s.task_ids() == set()
        assert len(s.paths) == 2

    def test_bad_duration(self):
        with pytest.raises(ValueError, match="round_duration"):
            Schedule(paths=(), round_duration=0.0)


class TestPairsAndMaps:
    def test_validate_pairs_requires_backreference(self):
        p = mk_task("p", "c1", 0, 0, pickup_of="d")
        d = mk_task("d", "c1", 1, 0, dropoff_of="other")
        with pytest.raises(ValueError, match="reference back"):
            validate_pairs([p, d])

    def test_validate_pairs_same_customer(self):
        p = mk_task("p", "c1", 0, 0, pickup_of="d")
        d = mk_task("d", "c2", 1, 0, dropoff_of="p")
        with pytest.raises(ValueError, match="two customers"):
            validate_pairs([p, d])

    def test_validate_pairs_missing_partner(self):
        with pytest.raises(ValueError, match="unknown pair"):
            validate_pairs([mk_task("p", "c1", 0, 0, pickup_of="ghost")])


class TestInstance:
    def test_budget_check(self):
        with pytest.raises(ValueError, match="budget"):
            Instance(tasks=(), vehicles=(), travel=EUCLID, budget=0.0)

    def test_customers_property(self):
        inst = Instance(
            tasks=(mk_task("a", "c2", 0, 0), mk_task("b", "c1", 0, 0)),
            vehicles=(mk_vehicle(),),
            travel=EUCLID,
            budget=600.0,
        )
        assert inst.customers == ("c1", "c2")


class TestFileFormats:
    def test_tasks_jsonl_round_trip(self, tmp_path):
        tasks = [
            mk_task("a", "c1", 1.5, -2.25, service=12.0),
            Task(task_id="p", customer_id="c2", location=(3, 4), service_time=5.0,
                 arrival_time=30.0, deadline=500.0, pickup_of="d"),
            Task(task_id="d", customer_id="c2", location=(5, 6), service_time=5.0,
                 arrival_time=30.0, dropoff_of="p"),
        ]
        path = tmp_path / "tasks.jsonl"
        write_tasks_jsonl(str(path), tasks)
        back = read_tasks_jsonl(str(path))
        assert back == tasks

    def test_tasks_jsonl_error_names_line(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        good = '{"customer": "c1", "task_id": "a", "x": 0, "y": 0, "service_s": 1}'
        path.write_text(good + "\n" + "{not json}\n")
        with pytest.raises(ValueError, match="line 2"):
            read_tasks_jsonl(str(path))

    def test_tasks_jsonl_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"customer": "c1", "task_id": "a", "x": 0, "y": 0, "service_s": 1, "color": "red"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_tasks_jsonl(str(path))

    def test_tasks_jsonl_rejects_a_repeated_task_id(self, tmp_path):
        """A task id one customer already used names the id and its line,
        instead of the later task replacing the earlier one."""
        path = tmp_path / "tasks.jsonl"
        write_tasks_jsonl(str(path), [mk_task("t1", "c1", 0, 0), mk_task("t2", "c1", 5, 0),
                                      mk_task("t1", "c2", 9, 0)])
        with pytest.raises(ValueError, match="line 3: duplicate task_id 't1'"):
            read_tasks_jsonl(str(path))

    def test_vehicles_json_rejects_a_repeated_vehicle_id(self, tmp_path):
        path = tmp_path / "vehicles.json"
        write_vehicles_json(str(path), [mk_vehicle("v0"), mk_vehicle("v1", 5), mk_vehicle("v0", 9)])
        with pytest.raises(ValueError, match="duplicate vehicle_id 'v0'"):
            read_vehicles_json(str(path))

    @pytest.mark.parametrize("field, value, message", [
        ("capacity", 2.5, "vehicle 'v0': capacity must be an integer, got 2.5"),
        ("capacity", True, "vehicle 'v0': capacity must be an integer, got True"),
        ("return_home", "false", "vehicle 'v0': return_home must be true or false, got 'false'"),
    ])
    def test_vehicles_json_rejects_coerced_values(self, tmp_path, field, value, message):
        """A capacity that is not an integer, or a return_home that is not
        a JSON bool, names the vehicle and the field; once they ran as 2,
        1 and True."""
        path = tmp_path / "vehicles.json"
        write_vehicles_json(str(path), [mk_vehicle("v0")])
        records = json.loads(path.read_text())
        records[0][field] = value
        path.write_text(json.dumps(records))
        with pytest.raises(ValueError, match=re.escape(message)):
            read_vehicles_json(str(path))

    def test_vehicles_json_takes_integral_float_capacity(self, tmp_path):
        path = tmp_path / "vehicles.json"
        path.write_text(json.dumps([{"vehicle_id": "v0", "x": 0, "y": 0, "capacity": 2.0}]))
        assert read_vehicles_json(str(path))[0].capacity == 2

    def test_vehicles_json_round_trip(self, tmp_path):
        vehicles = [
            mk_vehicle("v1", 10, 20, speed=7.5, capacity=2, return_home=True),
            mk_vehicle("v2", -5, 0),
        ]
        path = tmp_path / "vehicles.json"
        write_vehicles_json(str(path), vehicles)
        assert read_vehicles_json(str(path)) == vehicles

    def test_travel_matrix_round_trip(self, tmp_path):
        m = TravelModel.matrix(["0;0", "100;0", "0;100"],
                               [[0, 10, 11], [10, 0, 12], [11, 12, 0]])
        path = tmp_path / "travel.csv"
        write_travel_matrix_csv(str(path), m.location_ids, m.seconds)
        back = read_travel_matrix_csv(str(path))
        assert back.location_ids == m.location_ids
        assert np.array_equal(back.seconds, m.seconds)
        v = mk_vehicle()
        assert travel_time((100, 0), (0, 100), back, v) == 12.0


def test_step_of_takes_a_pair_whole_and_no_lone_dropoff():
    plain = mk_task("a", "c1", 10.0, 0.0)
    pick = mk_task("p", "c1", 20.0, 0.0, pickup_of="d")
    drop = mk_task("d", "c1", 30.0, 0.0, dropoff_of="p")
    unserved = {t.task_id: t for t in (plain, pick, drop)}
    assert step_of(plain, unserved) == (plain,)
    assert step_of(pick, unserved) == (pick, drop)
    assert step_of(drop, unserved) is None
    assert step_of(pick, {"a": plain, "p": pick}) is None
    assert step_of(drop, {"d": drop}) is None
