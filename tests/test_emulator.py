"""Trace replay: task lifecycle, vehicle motion, baselines, metrics."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EUCLID, construction_instances, mk_task, mk_vehicle
from fairfleet import emulator, vrp
from fairfleet.emulator import (
    COMMITTED,
    COMPLETED,
    EXPIRED,
    PENDING,
    Metrics,
    SimState,
    Trace,
    _build_metrics,
    _cancel,
    _commit,
    _planning_instance,
    _return_home_now,
    _snapshot_vehicles,
    baseline_dedicated,
    baseline_max_throughput,
    baseline_round_robin,
    dedicated_partition,
    run_trace,
    step,
)
from fairfleet.fairness import jain_index
from fairfleet.gen import Scenario, map_a_small
from fairfleet.model import Instance, Path, Schedule, path_times, path_violation, task_count
from fairfleet.scheduler import RoundConfig, Scheduler
from fairfleet.vrp import SolverConfig

EXACT = SolverConfig(backend="exact")


def one_task_trace(x=1000.0, duration=600.0, customer="c1"):
    task = mk_task("t1", customer, x, 0.0, arrival_time=0.0)
    return Trace(tasks=(task,), duration=duration, customers=("c1",))


class TestTrace:
    def test_sorts_by_arrival_then_id(self):
        tasks = (
            mk_task("b", "c1", 0.0, 0.0, arrival_time=50.0),
            mk_task("a", "c1", 0.0, 0.0, arrival_time=50.0),
            mk_task("z", "c1", 0.0, 0.0, arrival_time=10.0),
        )
        tr = Trace(tasks=tasks, duration=100.0, customers=())
        assert [t.task_id for t in tr.tasks] == ["z", "a", "b"]

    def test_customers_derived_sorted(self):
        tasks = (
            mk_task("a", "c2", 0.0, 0.0),
            mk_task("b", "c1", 0.0, 0.0),
        )
        tr = Trace(tasks=tasks, duration=100.0, customers=())
        assert tr.customers == ("c1", "c2")

    def test_late_arrival_rejected(self):
        tasks = (mk_task("a", "c1", 0.0, 0.0, arrival_time=200.0),)
        with pytest.raises(ValueError, match="after the trace ends"):
            Trace(tasks=tasks, duration=100.0, customers=())

    def test_explicit_roster_lists_every_task_customer(self):
        """A roster that leaves out a task's customer is rejected; a
        listed customer without tasks is legal, and its metrics row
        reads zero."""
        tasks = (mk_task("a", "c1", 100.0, 0.0), mk_task("b", "c2", -100.0, 0.0))
        with pytest.raises(ValueError, match="'c2' is not among"):
            Trace(tasks=tasks, duration=600.0, customers=("c1",))
        trace = Trace(tasks=tasks[:1], duration=600.0, customers=("c1", "c2"))
        m = run_trace(trace, "round_robin", RoundConfig(round_s=600.0), [mk_vehicle()], EUCLID)
        assert m.customers == ("c1", "c2")
        assert m.xbar[1] == 0.0 and m.completion_fraction["c2"] == 1.0


class TestStep:
    def test_arrivals_enter_at_their_time(self):
        tasks = (
            mk_task("t1", "c1", 0.0, 0.0, arrival_time=0.0),
            mk_task("t2", "c1", 0.0, 0.0, arrival_time=30.0),
        )
        sim = SimState(Trace(tasks=tasks, duration=600.0, customers=()), [])
        step(sim, 10.0)
        assert set(sim.tasks) == {"t1"}
        step(sim, 30.0)
        assert set(sim.tasks) == {"t1", "t2"}

    def test_pending_expires_after_wait(self):
        tasks = (mk_task("t1", "c1", 0.0, 0.0, arrival_time=100.0),)
        sim = SimState(Trace(tasks=tasks, duration=2000.0, customers=()), [])
        step(sim, 699.0)
        assert sim.tasks["t1"].status == PENDING
        step(sim, 700.0)  # arrival + default 600 s patience
        assert sim.tasks["t1"].status == EXPIRED
        assert sim.tasks["t1"].expired_at == 700.0

    def test_deadline_beats_patience(self):
        tasks = (mk_task("t1", "c1", 0.0, 0.0, arrival_time=0.0, deadline=200.0),)
        sim = SimState(Trace(tasks=tasks, duration=2000.0, customers=()), [])
        step(sim, 250.0)
        assert sim.tasks["t1"].status == EXPIRED
        assert sim.tasks["t1"].expired_at == 200.0

    def test_one_step_past_both_expires_at_the_earlier(self):
        tasks = (mk_task("t1", "c1", 0.0, 0.0, arrival_time=0.0, deadline=200.0),)
        sim = SimState(Trace(tasks=tasks, duration=2000.0, customers=()), [], expiry_s=600.0)
        step(sim, 700.0)
        assert sim.tasks["t1"].status == EXPIRED
        assert sim.tasks["t1"].expired_at == 200.0

    def test_committed_tasks_complete_on_schedule(self):
        trace = one_task_trace()
        veh = mk_vehicle()
        sim = SimState(trace, [veh])
        step(sim, 0.0)
        path = Path(veh.vehicle_id, (sim.tasks["t1"].task,))
        _commit(sim, Schedule(paths=(path,), round_duration=600.0), 0.0, {},
                EUCLID, [veh])
        assert sim.tasks["t1"].status == COMMITTED
        step(sim, 105.0)  # arrive 100, complete 110: still in service
        assert sim.tasks["t1"].status == COMMITTED
        step(sim, 110.0)
        ts = sim.tasks["t1"]
        assert ts.status == COMPLETED
        assert ts.service_start == 100.0 and ts.completion == 110.0
        assert ts.vehicle_id == "v0"
        assert sim.vehicles["v0"].position == (1000.0, 0.0)

    def test_committed_tasks_do_not_expire(self):
        trace = one_task_trace(x=100.0, duration=2000.0)
        veh = mk_vehicle()
        sim = SimState(trace, [veh])
        step(sim, 0.0)
        path = Path(veh.vehicle_id, (sim.tasks["t1"].task,))
        _commit(sim, Schedule(paths=(path,), round_duration=600.0), 0.0, {},
                EUCLID, [veh])
        stale = SimState(trace, [veh])
        step(stale, 650.0)
        assert stale.tasks["t1"].status == EXPIRED  # uncommitted twin expires
        step(sim, 650.0)
        assert sim.tasks["t1"].status == COMPLETED

    def test_cannot_step_backwards(self):
        sim = SimState(one_task_trace(), [])
        step(sim, 100.0)
        with pytest.raises(ValueError, match="backwards"):
            step(sim, 50.0)


class TestHomeLeg:
    def setup_sim(self, go_home=True):
        trace = one_task_trace()  # 1000 m out: arrive 100, complete 110
        veh = mk_vehicle(return_home=go_home)
        sim = SimState(trace, [veh])
        step(sim, 0.0)
        path = Path(veh.vehicle_id, (sim.tasks["t1"].task,))
        _commit(sim, Schedule(paths=(path,), round_duration=600.0), 0.0, {},
                EUCLID, [veh])
        return sim

    def test_leg_planned_after_last_stop(self):
        sim = self.setup_sim()
        stop, leg = sim.vehicles["v0"].legs
        assert stop.task.task_id == "t1" and leg.task is None
        assert leg.depart == 110.0 and leg.arrive == leg.complete == 210.0
        assert leg.origin == (1000.0, 0.0) and leg.dest == (0.0, 0.0)

    def test_position_interpolates_along_leg(self):
        sim = self.setup_sim()
        vs = sim.vehicles["v0"]
        assert vs.position_at(50.0) == pytest.approx((500.0, 0.0))  # outbound
        step(sim, 160.0)  # stop done, homebound halfway
        assert sim.tasks["t1"].status == COMPLETED
        assert vs.position_at(160.0) == pytest.approx((500.0, 0.0))

    def test_vehicle_lands_at_base(self):
        sim = self.setup_sim()
        step(sim, 300.0)
        vs = sim.vehicles["v0"]
        assert vs.position == (0.0, 0.0)
        assert vs.legs == []

    def test_no_leg_when_staying_out(self):
        sim = self.setup_sim(go_home=False)
        assert [leg.task.task_id for leg in sim.vehicles["v0"].legs] == ["t1"]
        step(sim, 300.0)
        assert sim.vehicles["v0"].position == (1000.0, 0.0)

    def test_snapshot_flag_decides_the_drive_home(self):
        """The snapshot's `return_home`, which the cadence overrides,
        decides the drive home, not the roster vehicle's."""
        for roster, forced in ((False, True), (True, False)):
            sim = SimState(one_task_trace(), [mk_vehicle(return_home=roster)])
            step(sim, 0.0)
            snapshot, _ = _snapshot_vehicles(sim, 0.0, forced)
            path = Path("v0", (sim.tasks["t1"].task,))
            _commit(sim, Schedule(paths=(path,), round_duration=600.0), 0.0, {},
                    EUCLID, snapshot)
            assert len(sim.vehicles["v0"].legs) == (2 if forced else 1)

    def test_inflight_leg_survives_empty_replan(self):
        sim = self.setup_sim()
        step(sim, 160.0)  # homebound
        _commit(sim, Schedule(paths=(), round_duration=600.0), 160.0, {},
                EUCLID, [mk_vehicle()])
        assert [leg.task for leg in sim.vehicles["v0"].legs] == [None]
        step(sim, 210.0)
        assert sim.vehicles["v0"].position == (0.0, 0.0)

    def test_kept_leg_moves_from_its_origin(self):
        sim = self.setup_sim()
        step(sim, 160.0)  # homebound, at (500, 0)
        _commit(sim, Schedule(paths=(), round_duration=600.0), 160.0, {},
                EUCLID, [mk_vehicle()])
        # Three quarters of the drive from (1000, 0), not a quarter of
        # the way on from the replan point.
        assert sim.vehicles["v0"].position_at(185.0) == pytest.approx((250.0, 0.0))

    def test_future_leg_dropped_on_replan(self):
        sim = self.setup_sim()
        step(sim, 50.0)  # still outbound; the old plan is abandoned
        _commit(sim, Schedule(paths=(), round_duration=600.0), 50.0, {},
                EUCLID, [mk_vehicle()])
        assert sim.vehicles["v0"].legs == []
        assert sim.vehicles["v0"].position == pytest.approx((500.0, 0.0))


class TestSnapshot:
    def mid_service_sim(self):
        trace = one_task_trace(x=100.0)  # arrive 10, complete 20
        veh = mk_vehicle()
        sim = SimState(trace, [veh])
        step(sim, 0.0)
        path = Path(veh.vehicle_id, (sim.tasks["t1"].task,))
        _commit(sim, Schedule(paths=(path,), round_duration=600.0), 0.0, {},
                EUCLID, [veh])
        step(sim, 15.0)
        return sim

    def test_mid_service_stop_locks(self):
        sim = self.mid_service_sim()
        vehicles, locked = _snapshot_vehicles(sim, 15.0, None)
        assert set(locked) == {"v0"}
        assert locked["v0"].task.task_id == "t1"
        v = vehicles[0]
        assert v.start_location == (100.0, 0.0)
        assert v.ready_offset == pytest.approx(5.0)

    def test_idle_vehicle_ready_immediately(self):
        sim = SimState(one_task_trace(), [mk_vehicle()])
        step(sim, 0.0)
        vehicles, locked = _snapshot_vehicles(sim, 0.0, None)
        assert locked == {}
        assert vehicles[0].ready_offset == 0.0

    def test_return_home_override(self):
        sim = SimState(one_task_trace(), [mk_vehicle(return_home=False)])
        step(sim, 0.0)
        keep, _ = _snapshot_vehicles(sim, 0.0, None)
        force, _ = _snapshot_vehicles(sim, 0.0, True)
        assert keep[0].return_home is False
        assert force[0].return_home is True

    def test_locked_stop_survives_replan(self):
        sim = self.mid_service_sim()
        t2 = mk_task("t2", "c1", 300.0, 0.0, arrival_time=0.0)
        sim.arrive(t2)
        vehicles, locked = _snapshot_vehicles(sim, 15.0, None)
        inst = _planning_instance(sim, 15.0, RoundConfig(round_s=600.0), EUCLID,
                                  locked, vehicles)
        assert [t.task_id for t in inst.tasks] == ["t2"]  # locked one excluded
        sched = baseline_max_throughput(inst, EXACT)
        _commit(sim, sched, 15.0, locked, EUCLID, vehicles)
        # The plan is timed on the snapshot vehicle from the replan time:
        # its first leg departs when the locked stop completes.
        planned = sim.vehicles["v0"].legs[1:]
        assert [(leg.depart, leg.arrive, leg.complete) for leg in planned] == path_times(
            vehicles[0], sched.paths[0].tasks, EUCLID, 15.0)
        assert planned[0].depart == 20.0
        step(sim, 600.0)
        assert sim.tasks["t1"].status == COMPLETED
        assert sim.tasks["t2"].status == COMPLETED
        assert sim.tasks["t2"].service_start >= 20.0  # after t1's service


class TestReturnHomeCadence:
    def test_disabled_when_unset(self):
        assert _return_home_now(RoundConfig(round_s=600.0), 0.0) is None

    def test_window_containing_mark_triggers(self):
        cfg = RoundConfig(round_s=600.0, return_home_every_s=1800.0)
        assert _return_home_now(cfg, 0.0) is False
        assert _return_home_now(cfg, 600.0) is False
        assert _return_home_now(cfg, 1200.0) is True  # window holds t=1800
        assert _return_home_now(cfg, 1800.0) is False


class TestBaselines:
    def test_dedicated_partition_round_robins(self):
        vehicles = [mk_vehicle(f"v{i}") for i in range(3)]
        part = dedicated_partition(vehicles, ("c1", "c2"))
        assert [v.vehicle_id for v in part["c1"]] == ["v0", "v2"]
        assert [v.vehicle_id for v in part["c2"]] == ["v1"]

    def test_dedicated_needs_enough_vehicles(self):
        with pytest.raises(ValueError, match="at least one vehicle"):
            dedicated_partition([mk_vehicle()], ("c1", "c2"))

    def test_dedicated_schedules_only_own_tasks(self):
        tasks = (
            mk_task("a1", "c1", 100.0, 0.0),
            mk_task("a2", "c1", 150.0, 0.0),
            mk_task("b1", "c2", -100.0, 0.0),
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle("v0"), mk_vehicle("v1")),
                        travel=EUCLID, budget=600.0)
        sched = baseline_dedicated(inst, EXACT)
        by_vehicle = {p.vehicle_id: set(p.task_ids) for p in sched.paths}
        assert by_vehicle["v0"] == {"a1", "a2"}  # v0 serves c1
        assert by_vehicle["v1"] == {"b1"}

    def test_round_robin_alternates_customers(self):
        tasks = (
            mk_task("a1", "c1", 100.0, 0.0),
            mk_task("a2", "c1", 200.0, 0.0),
            mk_task("b1", "c2", -100.0, 0.0),
            mk_task("b2", "c2", -200.0, 0.0),
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID,
                        budget=600.0)
        sched = baseline_round_robin(inst)
        order = [t.customer_id for t in sched.paths[0].tasks]
        assert order == ["c1", "c2", "c1", "c2"]
        assert sched.total_tasks() == 4

    def test_round_robin_skips_starved_customer(self):
        tasks = (
            mk_task("a1", "c1", 100.0, 0.0),
            mk_task("b1", "c2", 1e6, 0.0),  # unreachable
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID,
                        budget=600.0)
        sched = baseline_round_robin(inst)
        assert sched.task_ids() == {"a1"}


# Task-id sequences recorded from the loop that re-checked the whole
# path for every candidate.  A change here changes which schedules the
# round-robin baseline returns.
ROUND_ROBIN_GOLDEN = {
    "ties": {"v0": ("a1", "b1", "a5", "b4", "a6", "b3", "a4", "b0", "a2", "b2", "a3")},
    "pins_deadlines": {"fast": ("d00", "d07", "d08", "d15", "d04", "d13"),
                       "late": ("d18", "d19", "d17"),
                       "slow": ("d06", "d16", "d20")},
    "pairs": {"r0": ("p4", "q4", "s3", "p2", "q2", "s1", "s2", "p6", "q6"),
              "r1": ("s4", "p5", "q5", "p0", "q0", "s5")},
    "matrix": {"v0": ("m06", "m07", "m00", "m05"),
               "v1": ("m02", "m01", "m04", "m13", "m10", "m03")},
}


@pytest.mark.parametrize("name", sorted(ROUND_ROBIN_GOLDEN))
def test_round_robin_golden_schedules(name):
    inst, pins = construction_instances()[name]
    sched = baseline_round_robin(inst, pins)
    pins = pins or {}
    assert {p.vehicle_id: p.task_ids for p in sched.paths} == ROUND_ROBIN_GOLDEN[name]
    for v, p in zip(inst.vehicles, sched.paths):
        assert path_violation(p.tasks, v, inst.travel, inst.budget, inst.round_start) is None
        assert all(pins.get(t.task_id, v.vehicle_id) == v.vehicle_id for t in p.tasks)


def tiny_scenario():
    tasks = (
        mk_task("a1", "c1", 100.0, 0.0),
        mk_task("a2", "c1", 150.0, 0.0),
        mk_task("a3", "c1", 200.0, 0.0),
        mk_task("b1", "c2", -100.0, 0.0),
        mk_task("b2", "c2", -150.0, 0.0),
        mk_task("b3", "c2", -200.0, 0.0),
    )
    vehicles = (mk_vehicle("v0", 0.0, 0.0), mk_vehicle("v1", 50.0, 0.0))
    return Scenario(name="tiny", tasks=tasks, vehicles=vehicles, round_s=600.0)


class TestRunTrace:
    def test_unknown_policy_rejected(self):
        scn = tiny_scenario()
        with pytest.raises(ValueError, match="unknown policy"):
            run_trace(scn.trace(1), "fifo", RoundConfig(round_s=600.0),
                      scn.vehicles, scn.travel, EXACT)

    @pytest.mark.parametrize("policy", ["mobius", "max_throughput", "dedicated",
                                        "round_robin"])
    def test_easy_load_fully_served(self, policy):
        scn = tiny_scenario()
        cfg = RoundConfig(round_s=600.0, alpha=64.0)
        m = run_trace(scn.trace(2), policy, cfg, scn.vehicles, scn.travel, EXACT)
        assert m.completion_fraction == {"c1": 1.0, "c2": 1.0}
        assert m.jain == pytest.approx(1.0)
        assert m.total_throughput == pytest.approx(0.6)  # 6 tasks / 10 min
        assert m.cancellations == 0

    def test_deterministic_replay(self):
        scn = map_a_small()
        cfg = RoundConfig(round_s=600.0, alpha=64.0)
        runs = [
            run_trace(scn.trace(3), "mobius", cfg, scn.vehicles, scn.travel, EXACT)
            for _ in range(2)
        ]
        assert runs[0].rounds == runs[1].rounds
        assert runs[0].events == runs[1].events
        assert np.array_equal(runs[0].xbar, runs[1].xbar)

    def test_two_cluster_trace_matches_static_analysis(self):
        # Derived by hand: alternating corners (0.5,0.1)/(0.1,0.5) average
        # to (0.3, 0.3) after an even number of rounds.
        scn = map_a_small()
        cfg = RoundConfig(round_s=600.0, alpha=64.0)
        m = run_trace(scn.trace(4), "mobius", cfg, scn.vehicles, scn.travel, EXACT)
        assert m.xbar == pytest.approx([0.3, 0.3], abs=1e-9)
        assert m.solver_calls == [3, 3, 3, 3]

    def test_unreachable_tasks_expire(self):
        tasks = (
            mk_task("a1", "c1", 100.0, 0.0),
            mk_task("b1", "c2", 1e6, 0.0),
        )
        scn = Scenario(name="starved", tasks=tasks,
                       vehicles=(mk_vehicle(),), round_s=600.0)
        cfg = RoundConfig(round_s=600.0, alpha=64.0)
        m = run_trace(scn.trace(1), "mobius", cfg, scn.vehicles, scn.travel, EXACT)
        assert m.completion_fraction["c1"] == 1.0
        assert m.completion_fraction["c2"] == 0.0
        by_customer = {r["customer"]: r for r in m.rounds}
        assert by_customer["c2"]["expired"] == 1
        assert by_customer["c1"]["completed"] == 1

    def test_midround_replan_keeps_commitments(self):
        scn = map_a_small()
        cfg = RoundConfig(round_s=600.0, replan_s=300.0, alpha=64.0)
        m = run_trace(scn.trace(2), "mobius", cfg, scn.vehicles, scn.travel, EXACT)
        assert m.cancellations == 0
        done = sum(r["completed"] for r in m.rounds if r["round"] == 1)
        # The opening plan serves 6 tasks; the mid-round replan finds the
        # vehicle already at the far cluster and tops the round up with the
        # co-located leftovers, so all 10 complete each round (cumulative).
        assert done == 20

    @pytest.mark.parametrize("ride_counts_as, expected", [(1, [0.1, 0.1]),
                                                          (2, [0.2, 0.1])])
    def test_realized_ride_counts_as_planned(self, ride_counts_as, expected):
        # One ride for c1, one plain task for c2: the realized x-bar
        # counts the ride as the planner does, not once per half.
        tasks = (
            mk_task("p", "c1", 100.0, 0.0, pickup_of="d"),
            mk_task("d", "c1", 200.0, 0.0, dropoff_of="p"),
            mk_task("b", "c2", -100.0, 0.0),
        )
        trace = Trace(tasks=tasks, duration=600.0, customers=())
        cfg = RoundConfig(round_s=600.0, alpha=1.0, ride_counts_as=ride_counts_as)
        m = run_trace(trace, "mobius", cfg, (mk_vehicle(),), EUCLID, EXACT)
        assert m.completion_fraction == {"c1": 1.0, "c2": 1.0}
        assert m.events[0]["allocation"] == pytest.approx(expected, abs=1e-12)
        assert m.xbar.tolist() == pytest.approx(m.events[0]["allocation"], abs=1e-12)

    @pytest.mark.parametrize("policy", ["max_throughput", "dedicated"])
    @pytest.mark.parametrize("ride_counts_as, scheduled, xbar", [(1, 1, 0.1), (2, 2, 0.2)])
    def test_baselines_plan_with_configured_ride_count(
        self, policy, ride_counts_as, scheduled, xbar
    ):
        # The budget fits either the ride or the plain task, not both.
        # They tie at ride_counts_as=1, where the plain task wins; at 2
        # the ride is worth twice as much.
        tasks = (
            mk_task("plain", "c1", 2500.0, 0.0),
            mk_task("rp", "c1", -2500.0, 0.0, pickup_of="rd"),
            mk_task("rd", "c1", -2800.0, 0.0, dropoff_of="rp"),
        )
        trace = Trace(tasks=tasks, duration=600.0, customers=())
        cfg = RoundConfig(round_s=600.0, ride_counts_as=ride_counts_as)
        m = run_trace(trace, policy, cfg, (mk_vehicle(),), EUCLID, EXACT)
        assert m.events[0]["scheduled"] == scheduled
        assert m.xbar.tolist() == pytest.approx([xbar])


class TestCancel:
    def test_cancel_marks_expired_and_logs(self):
        sim = SimState(one_task_trace(x=100.0), [mk_vehicle()])
        step(sim, 0.0)
        veh = sim.vehicles["v0"].vehicle
        path = Path(veh.vehicle_id, (sim.tasks["t1"].task,))
        _commit(sim, Schedule(paths=(path,), round_duration=600.0), 0.0, {},
                EUCLID, [veh])
        _cancel(sim, ["t1", "missing"], 42.0)
        assert sim.tasks["t1"].status == EXPIRED
        assert sim.tasks["t1"].expired_at == 42.0
        assert sim.cancellations == [(42.0, "t1")]
        assert_live_index(sim)


def assert_live_index(sim):
    """The live index is the pending-or-committed status scan, in arrival
    order, holding the same task states."""
    scan = [(tid, ts) for tid, ts in sim.tasks.items() if ts.status in (PENDING, COMMITTED)]
    assert [(tid, id(ts)) for tid, ts in sim.live.items()] == [(tid, id(ts)) for tid, ts in scan]


class TestLifecycleInvariants:
    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_arrival_holds_one_status(self, n, seed):
        rng = np.random.default_rng(seed)
        tasks = tuple(
            mk_task(f"t{i}", f"c{i % 2 + 1}", float(rng.uniform(-500, 500)), 0.0,
                    arrival_time=float(rng.integers(0, 500)))
            for i in range(n)
        )
        sim = SimState(Trace(tasks=tasks, duration=1500.0, customers=()), [])
        checkpoints = sorted(rng.uniform(0.0, 1500.0, size=4)) + [2000.0]
        for now in checkpoints:
            step(sim, now)
            assert_live_index(sim)
            counts = sim.counts()
            arrived = sum(1 for t in tasks if t.arrival_time <= now + 1e-9)
            assert sum(counts.values()) == arrived == len(sim.tasks)
            for ts in sim.tasks.values():
                if ts.status == PENDING:
                    assert now < ts.task.arrival_time + 600.0
                elif ts.status == EXPIRED:
                    assert ts.expired_at == ts.task.arrival_time + 600.0
                    assert ts.expired_at <= now + 1e-9
        assert sim.counts()[EXPIRED] == n  # nothing committed: all time out

    @pytest.mark.parametrize("policy", emulator.POLICIES)
    def test_dropped_commitments_are_cancelled(self, policy, monkeypatch):
        # After every tick each committed task is on a vehicle's plan: a
        # commitment the new schedule leaves out is cancelled, under every
        # policy.  Every policy cancels some commitments on this trace.
        rng = np.random.default_rng(1)
        tasks = []
        for r in range(3):
            for j in range(6):
                arrival = r * 600.0 + float(rng.integers(0, 500))
                px, py, dx, dy = (float(v) for v in rng.uniform(-900, 900, 4))
                common = dict(customer=f"c{j % 3 + 1}", arrival_time=arrival)
                if j % 2:
                    tasks.append(mk_task(f"r{r}-p{j}", x=px, y=py, pickup_of=f"r{r}-d{j}",
                                         **common))
                    tasks.append(mk_task(f"r{r}-d{j}", x=dx, y=dy, dropoff_of=f"r{r}-p{j}",
                                         deadline=arrival + float(rng.uniform(200, 700)),
                                         **common))
                else:
                    tasks.append(mk_task(f"r{r}-s{j}", x=px, y=py, **common))
        trace = Trace(tasks=tuple(tasks), duration=1800.0, customers=())
        vehicles = (mk_vehicle("v0", capacity=2), mk_vehicle("v1", 400.0, 0.0, capacity=2),
                    mk_vehicle("v2", 0.0, 0.0, capacity=2, return_home=True))
        cfg = RoundConfig(round_s=600.0, replan_s=200.0, expiry_s=400.0)
        real_commit = emulator._commit

        def checked_commit(sim, *args):
            real_commit(sim, *args)
            planned = {leg.task.task_id for vs in sim.vehicles.values() for leg in vs.legs
                       if leg.task is not None}
            assert {ts.task.task_id for ts in sim.by_status(COMMITTED)} <= planned

        monkeypatch.setattr(emulator, "_commit", checked_commit)
        solver = SolverConfig(backend="heuristic", time_limit_s=0.05)
        metrics = run_trace(trace, policy, cfg, vehicles, EUCLID, solver)
        assert metrics.cancellations > 0


def reference_rounds(sim, cfg, customers):
    """The metrics rows and final x-bar as the per-round rescan of every
    task computed them."""
    n_rounds = int(sim.trace.duration // cfg.round_s)
    minutes = cfg.round_s / 60.0
    k = len(customers)
    cidx = {c: i for i, c in enumerate(customers)}
    completed = sim.by_status(COMPLETED)
    xbar = np.zeros(k)
    rows = []
    for r in range(n_rounds):
        lo, hi = r * cfg.round_s, (r + 1) * cfg.round_s
        x = np.zeros(k)
        for ts in completed:
            if lo < ts.completion <= hi:
                x[cidx[ts.task.customer_id]] += task_count(ts.task, cfg.ride_counts_as)
        x /= minutes
        xbar = x / (r + 1) + xbar * (r / (r + 1))
        done = np.zeros(k)
        expired = np.zeros(k)
        for ts in sim.tasks.values():
            i = cidx.get(ts.task.customer_id)
            if i is None:
                continue
            if ts.status == COMPLETED and ts.completion <= hi:
                done[i] += 1
            if ts.status == EXPIRED and ts.expired_at is not None and ts.expired_at <= hi:
                expired[i] += 1
        j = jain_index(xbar)
        for c in customers:
            i = cidx[c]
            rows.append({"round": r, "customer": c, "xbar": float(xbar[i]),
                         "completed": int(done[i]), "expired": int(expired[i]),
                         "jain_total": j})
    return rows, xbar


def assert_metrics_match_reference(metrics, sim, cfg, customers):
    rows, xbar = reference_rounds(sim, cfg, customers)
    assert metrics.rounds == rows
    assert metrics.xbar.tolist() == xbar.tolist()
    assert metrics.jain == jain_index(xbar)


class TestBuildMetrics:
    @given(seed=st.integers(min_value=0, max_value=10**6),
           duration=st.sampled_from([1800.0, 2100.5, 2399.0]),
           ride_counts_as=st.sampled_from([1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_one_pass_equals_rescan(self, seed, duration, ride_counts_as):
        # Completions and expiries exactly at round ends, at 0, inside
        # rounds and after the last whole round.
        rng = np.random.default_rng(seed)
        round_s = 600.0
        edges = [0.0, 600.0, 1200.0, 1800.0, 2400.0, duration]
        tasks = []
        for i in range(int(rng.integers(1, 14))):
            cust = f"c{int(rng.integers(1, 4))}"
            if rng.random() < 0.3:
                tasks.append(mk_task(f"p{i}", cust, 0.0, 0.0, pickup_of=f"q{i}"))
                tasks.append(mk_task(f"q{i}", cust, 0.0, 0.0, dropoff_of=f"p{i}"))
            else:
                tasks.append(mk_task(f"t{i}", cust, 0.0, 0.0))
        sim = SimState(Trace(tasks=tuple(tasks), duration=duration, customers=()), [])
        for t in sim.trace.tasks:
            ts = sim.arrive(t)
            when = (edges[int(rng.integers(len(edges)))] if rng.random() < 0.5
                    else float(rng.uniform(0.0, duration)))
            ts.status = (PENDING, COMMITTED, COMPLETED, EXPIRED)[int(rng.integers(4))]
            if ts.status == COMPLETED:
                ts.service_start = max(when - 10.0, 0.0)
                ts.completion = when
            elif ts.status == EXPIRED:
                ts.expired_at = None if rng.random() < 0.1 else when
        cfg = RoundConfig(round_s=round_s, ride_counts_as=ride_counts_as)
        customers = sim.trace.customers
        metrics = _build_metrics(sim, cfg, customers, [])
        assert_metrics_match_reference(metrics, sim, cfg, customers)

    @pytest.mark.parametrize("policy", ["round_robin", "max_throughput"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ride_traces_match_rescan(self, policy, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        round_s, rounds = 600.0, 3
        tasks = []
        for r in range(rounds):
            start = r * round_s
            # At the vehicle's base: one task completes at the round end,
            # one the moment it is served.
            tasks.append(mk_task(f"r{r}-edge", "c1", 0.0, 0.0, service=round_s,
                                 arrival_time=start))
            tasks.append(mk_task(f"r{r}-zero", "c2", 0.0, 0.0, service=0.0,
                                 arrival_time=start))
            for j in range(4):
                cust = f"c{j % 3 + 1}"
                arrival = start + float(rng.integers(0, 500))
                px, py, dx, dy = (float(v) for v in rng.uniform(-900, 900, 4))
                if j % 2:
                    tasks.append(mk_task(f"r{r}-p{j}", cust, px, py, pickup_of=f"r{r}-d{j}",
                                         arrival_time=arrival))
                    tasks.append(mk_task(f"r{r}-d{j}", cust, dx, dy, dropoff_of=f"r{r}-p{j}",
                                         arrival_time=arrival,
                                         deadline=arrival + float(rng.uniform(200, 700))))
                else:
                    tasks.append(mk_task(f"r{r}-s{j}", cust, px, py, arrival_time=arrival))
        trace = Trace(tasks=tuple(tasks), duration=rounds * round_s + 250.0, customers=())
        vehicles = (mk_vehicle("v0", capacity=2), mk_vehicle("v1", 400.0, 0.0, capacity=2),
                    mk_vehicle("v2", 0.0, 0.0, capacity=2, return_home=True))
        cfg = RoundConfig(round_s=round_s, replan_s=250.0, expiry_s=400.0)
        sims = []
        real_step = emulator.step

        def checked_step(sim, until):
            assert_live_index(sim)
            real_step(sim, until)
            assert_live_index(sim)
            sims.append(sim)
            return sim

        monkeypatch.setattr(emulator, "step", checked_step)
        metrics = run_trace(trace, policy, cfg, vehicles, EUCLID,
                            SolverConfig(backend="heuristic", time_limit_s=0.05))
        sim = sims[-1]
        assert sim.counts()[COMPLETED] > 0
        assert any(ts.completion == round_s for ts in sim.tasks.values())
        assert_metrics_match_reference(metrics, sim, cfg, trace.customers)


# Recorded before the planner memoized placements per round; the memo
# must not move it.
RIDE_TRACE_DIGEST = "56bec386298472586d8aef730ec71ff7e0d7f618b6dd0a7251f39377f18ce633"


def ride_trace_digest(metrics):
    """sha256 over the events and the metrics rows, one sorted-key JSON
    line each, as the CLI writes them."""
    h = hashlib.sha256()
    for row in metrics.events + metrics.rounds:
        h.update((json.dumps(row, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def golden_ride_trace():
    """Three 600 s rounds of rides and plain tasks for three customers,
    some with deadlines, and four vehicles of capacity 2."""
    rng = np.random.default_rng(5)
    round_s, rounds = 600.0, 3
    tasks = []
    for r in range(rounds):
        for j in range(8):
            cust = f"c{j % 3 + 1}"
            arrival = r * round_s + float(rng.integers(0, 500))
            px, py, dx, dy = (float(v) for v in rng.uniform(-900, 900, 4))
            if j % 2:
                tasks.append(mk_task(f"r{r}-p{j}", cust, px, py, pickup_of=f"r{r}-d{j}",
                                     arrival_time=arrival))
                tasks.append(mk_task(f"r{r}-d{j}", cust, dx, dy, dropoff_of=f"r{r}-p{j}",
                                     arrival_time=arrival,
                                     deadline=arrival + float(rng.uniform(300, 900))))
            else:
                deadline = arrival + float(rng.uniform(300, 900)) if j % 4 == 0 else None
                tasks.append(mk_task(f"r{r}-s{j}", cust, px, py, arrival_time=arrival,
                                     deadline=deadline))
    trace = Trace(tasks=tuple(tasks), duration=rounds * round_s, customers=())
    vehicles = (mk_vehicle("v0", capacity=2), mk_vehicle("v1", 400.0, 0.0, capacity=2),
                mk_vehicle("v2", -300.0, 200.0, capacity=2),
                mk_vehicle("v3", 0.0, 0.0, capacity=2, return_home=True))
    return trace, vehicles


def test_ride_trace_golden_digest():
    """A 3-round mobius replay of a ride trace on the heuristic backend,
    with pairs, deadlines, capacity 2 and three replans a round, gives
    the events and metrics rows recorded for it."""
    trace, vehicles = golden_ride_trace()
    round_s = 600.0
    cfg = RoundConfig(round_s=round_s, replan_s=round_s / 3, expiry_s=400.0)
    metrics = run_trace(trace, "mobius", cfg, vehicles, EUCLID,
                        SolverConfig(backend="heuristic", time_limit_s=0.05))
    assert len(metrics.rounds) == 3 * len(trace.customers)
    assert ride_trace_digest(metrics) == RIDE_TRACE_DIGEST


def replay_recording_warm_starts(trace, vehicles, cfg, monkeypatch):
    """Replay `trace` under mobius on the heuristic backend.  Returns the
    round starts at which the warm-start suite was built, and per planned
    tick its start, its open task ids, the warm starts it was given and
    the plan it made.  Every tick that builds the suite holds no live
    commitment: a committed open task is in the last plan, so the tick
    carries that plan instead."""
    built, ticks, commitments = [], [], []
    real_suite = vrp.build_warm_start_suite
    real_run_round = Scheduler.run_round

    def counted_suite(*args, **kwargs):
        built.append(args[0].round_start)
        commitments.append(args[0].committed)
        return real_suite(*args, **kwargs)

    def recorded_run_round(self, instance, committed=None, warm_starts=None):
        result = real_run_round(self, instance, committed=committed, warm_starts=warm_starts)
        ticks.append((instance.round_start, {t.task_id for t in instance.tasks},
                      warm_starts, result.schedule))
        return result

    monkeypatch.setattr(vrp, "build_warm_start_suite", counted_suite)
    monkeypatch.setattr(Scheduler, "run_round", recorded_run_round)
    run_trace(trace, "mobius", cfg, vehicles, EUCLID,
              SolverConfig(backend="heuristic", time_limit_s=0.05))
    assert commitments == [{}] * len(built)
    return built, ticks


def assert_cold_start_rule(built, ticks, round_s):
    """A tick takes its last plan as its one warm start when that plan is
    of its round or holds one of its open tasks; every other tick, and
    only such a tick, builds the suite."""
    cold = []
    for i, (now, planned, warm_starts, _) in enumerate(ticks):
        if i and (ticks[i - 1][0] // round_s == now // round_s
                  or planned & ticks[i - 1][3].task_ids()):
            assert warm_starts is not None and len(warm_starts) == 1
            assert warm_starts[0] is ticks[i - 1][3]
        else:
            assert warm_starts is None
            cold.append(now)
    assert built == cold


@pytest.mark.parametrize("replans, suites", [(1, [0.0, 600.0, 1200.0]), (3, [0.0, 600.0])],
                         ids=["1", "3"])
def test_mid_round_replans_seed_from_the_last_plan(replans, suites, monkeypatch):
    """A mobius tick seeds its solves from its last plan when that plan
    was made in its round or still holds one of its open tasks; only the
    other, cold, ticks build the warm-start suite.  A task arriving at
    each round's start makes every tick plan.  With three replans a
    round, the plan made at 1000 s still holds an open task at 1200 s."""
    trace, vehicles = golden_ride_trace()
    round_s = 600.0
    openers = tuple(mk_task(f"r{r}-open", "c1", 100.0, 0.0, arrival_time=r * round_s)
                    for r in range(3))
    trace = Trace(tasks=trace.tasks + openers, duration=trace.duration, customers=())
    cfg = RoundConfig(round_s=round_s, replan_s=round_s / replans, expiry_s=400.0)
    built, ticks = replay_recording_warm_starts(trace, vehicles, cfg, monkeypatch)
    assert len(ticks) == 3 * replans
    assert_cold_start_rule(built, ticks, round_s)
    assert built == suites


# A plan made at 300 s sends the one vehicle to three tasks in a line,
# and at 600 s it is still on its way: the round opening carries it.
OUTLIVES_ITS_ROUND = (mk_task("s", "c1", 100.0, 0.0, arrival_time=0.0),
                      mk_task("a", "c1", 2500.0, 0.0, arrival_time=300.0),
                      mk_task("b", "c2", 3000.0, 0.0, arrival_time=300.0),
                      mk_task("c", "c1", 3500.0, 0.0, arrival_time=300.0))
# Every planned task completes within its round: each opening is cold.
DONE_WITHIN_ITS_ROUND = (mk_task("s0", "c1", 100.0, 0.0, arrival_time=0.0),
                         mk_task("m0", "c2", 150.0, 0.0, arrival_time=300.0),
                         mk_task("s1", "c1", 200.0, 0.0, arrival_time=600.0),
                         mk_task("s2", "c2", 300.0, 0.0, arrival_time=1200.0))


@pytest.mark.parametrize("tasks, duration, planned, suites", [
    (OUTLIVES_ITS_ROUND, 1200.0, [0.0, 300.0, 600.0], [0.0]),
    (DONE_WITHIN_ITS_ROUND, 1800.0, [0.0, 300.0, 600.0, 1200.0], [0.0, 600.0, 1200.0]),
], ids=["outlives", "done-within"])
def test_round_opening_builds_the_suite_only_when_cold(tasks, duration, planned, suites,
                                                       monkeypatch):
    """A round-opening tick whose last plan still holds one of its open
    tasks carries that plan and builds no suite; one whose last plan's
    tasks all completed in their round builds it."""
    trace = Trace(tasks=tasks, duration=duration, customers=())
    cfg = RoundConfig(round_s=600.0, replan_s=300.0)
    built, ticks = replay_recording_warm_starts(trace, (mk_vehicle(),), cfg, monkeypatch)
    assert [now for now, *_ in ticks] == planned
    assert_cold_start_rule(built, ticks, 600.0)
    assert built == suites


# Recorded with the exact backend's own copy of the path rules, before
# it stepped through `model.PathState`.
EXACT_RIDE_TRACE_DIGEST = "e4e7c27c3cc7ae0fb208e3f421d5e726f67d6f75062188ae537ff4c95765f575"


def test_exact_ride_trace_golden_digest():
    """A 3-round mobius replay of a ride trace on the exact backend, with
    two vehicles of capacity 2 and replans every 200 s.  Riders picked
    up before a replan reach the next plan as lone dropoffs; the exact
    backend keeps carrying them, so nothing is cancelled."""
    rng = np.random.default_rng(9)
    round_s, rounds = 600.0, 3
    tasks = []
    for r in range(rounds):
        for j in range(6):
            cust = f"c{j % 3 + 1}"
            arrival = r * round_s + float(rng.integers(0, 400))
            px, py, dx, dy = (float(v) for v in rng.uniform(-900, 900, 4))
            if j % 2:
                tasks.append(mk_task(f"r{r}-p{j}", cust, px, py, pickup_of=f"r{r}-d{j}",
                                     arrival_time=arrival))
                tasks.append(mk_task(f"r{r}-d{j}", cust, dx, dy, dropoff_of=f"r{r}-p{j}",
                                     arrival_time=arrival,
                                     deadline=arrival + float(rng.uniform(400, 900))))
            else:
                tasks.append(mk_task(f"r{r}-s{j}", cust, px, py, arrival_time=arrival))
    trace = Trace(tasks=tuple(tasks), duration=rounds * round_s, customers=())
    vehicles = (mk_vehicle("v0", capacity=2), mk_vehicle("v1", 400.0, 0.0, capacity=2))
    cfg = RoundConfig(round_s=round_s, replan_s=200.0, expiry_s=400.0)
    metrics = run_trace(trace, "mobius", cfg, vehicles, EUCLID, SolverConfig(backend="exact"))
    assert metrics.cancellations == 0
    assert ride_trace_digest(metrics) == EXACT_RIDE_TRACE_DIGEST


class TestMetricsHelpers:
    def test_plot_rows_translate_round_to_time(self):
        m = Metrics(customers=("c1",),
                    rounds=[{"round": 0, "customer": "c1", "xbar": 0.5,
                             "completed": 3, "expired": 0, "jain_total": 1.0}])
        assert m.plot_rows(600.0) == [{"t_s": 600.0, "customer": "c1", "xbar": 0.5}]

    def test_wait_histogram_bins(self):
        m = Metrics(customers=("c1", "c2"),
                    wait_samples={"c1": [30.0, 70.0, 70.0], "c2": []})
        rows = m.wait_histogram(bin_s=60.0)
        assert rows == [
            {"customer": "c1", "bin_start_s": 0.0, "bin_end_s": 60.0, "count": 1},
            {"customer": "c1", "bin_start_s": 60.0, "bin_end_s": 120.0, "count": 2},
        ]
