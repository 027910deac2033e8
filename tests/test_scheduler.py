"""Round loop: history folding, corner selection, replanning, pruning."""

import numpy as np
import pytest

from conftest import EUCLID, mk_task, mk_vehicle
from fairfleet.boundary import Face
from fairfleet.gen import map_a_small
from fairfleet.model import Instance, empty_schedule
from fairfleet.scheduler import (
    History,
    RoundConfig,
    Scheduler,
    run_round,
    run_static_rounds,
    select_allocation,
    update_history,
)
from fairfleet.vrp import SolverConfig

EXACT = SolverConfig(backend="exact")


def small_instance():
    scn = map_a_small()
    return Instance(tasks=scn.tasks, vehicles=scn.vehicles,
                    travel=scn.travel, budget=scn.round_s)


class TestHistory:
    def test_zeros(self):
        h = History.zeros(3)
        assert np.array_equal(h.xbar, np.zeros(3))
        assert h.t == 0 and h.gamma == 1.0

    def test_gamma_running_average(self):
        h = History(xbar=np.zeros(2), t=4)
        assert h.gamma == pytest.approx(0.2)

    def test_gamma_discounted(self):
        h = History.zeros(2, discount=0.3)
        h = update_history(h, np.array([1.0, 0.0]))
        assert h.gamma == 0.3  # fixed, independent of t

    def test_running_average_equal_durations(self):
        h = History.zeros(2)
        h = update_history(h, np.array([1.0, 0.0]), duration=600.0)
        h = update_history(h, np.array([0.0, 1.0]), duration=600.0)
        assert h.xbar == pytest.approx([0.5, 0.5])
        assert h.t == 2

    def test_duration_weighted_mean(self):
        h = History.zeros(2)
        h = update_history(h, np.array([1.0, 0.0]), duration=100.0)
        h = update_history(h, np.array([0.0, 1.0]), duration=300.0)
        assert h.xbar == pytest.approx([0.25, 0.75])

    def test_discounted_update(self):
        h = History.zeros(2, discount=0.5)
        h = update_history(h, np.array([1.0, 0.0]))
        h = update_history(h, np.array([0.0, 1.0]))
        assert h.xbar == pytest.approx([0.25, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            History(xbar=np.array([-0.1]))
        with pytest.raises(ValueError, match="discount"):
            History.zeros(1, discount=1.5)
        with pytest.raises(ValueError, match="round count"):
            History(xbar=np.zeros(1), t=-1)
        h = History.zeros(2)
        with pytest.raises(ValueError, match="dimension"):
            update_history(h, np.array([1.0]))
        with pytest.raises(ValueError, match="duration"):
            update_history(h, np.zeros(2), duration=0.0)


def two_corner_face(a, b):
    s_a = empty_schedule([mk_vehicle()], 600.0)
    s_b = empty_schedule([mk_vehicle()], 601.0)  # distinguishable marker
    from fairfleet.boundary import make_face

    f = make_face([np.asarray(a, float), np.asarray(b, float)], [s_a, s_b], (0, 1))
    return f


class TestSelectAllocation:
    def test_symmetric_tie_takes_lowest_index(self):
        face = two_corner_face((0.5, 0.1), (0.1, 0.5))
        sched, x = select_allocation(face, History.zeros(2), alpha=1.0)
        assert x == pytest.approx([0.5, 0.1])
        assert sched.round_duration == 600.0

    def test_history_flips_the_pick(self):
        face = two_corner_face((0.5, 0.1), (0.1, 0.5))
        h = History(xbar=np.array([0.5, 0.1]), t=1, weight_total=600.0)
        sched, x = select_allocation(face, h, alpha=1.0)
        assert x == pytest.approx([0.1, 0.5])
        assert sched.round_duration == 601.0

    def test_equal_utility_prefers_larger_total(self):
        # sqrt utility: 2(.5+.5) == 2(.7+.3) but totals differ
        face = two_corner_face((0.25, 0.25), (0.49, 0.09))
        _, x = select_allocation(face, History.zeros(2), alpha=0.5)
        assert x == pytest.approx([0.49, 0.09])

    def test_leximin_mode_maximizes_minimum(self):
        face = two_corner_face((0.6, 0.1), (0.35, 0.3))
        _, x = select_allocation(face, History.zeros(2), alpha=64.0)
        assert x == pytest.approx([0.35, 0.3])

    def test_empty_face_rejected(self):
        face = Face(corners=(), w=np.array([1.0, 1.0]), c=1.0,
                    schedules=(), active=(0, 1))
        with pytest.raises(ValueError, match="no corners"):
            select_allocation(face, History.zeros(2), alpha=1.0)


class TestRunRound:
    @pytest.mark.parametrize("backend, n_vehicles",
                             [("exact", 1), ("heuristic", 1), ("auto", 4)])
    def test_empty_instance_records_zero_round(self, backend, n_vehicles):
        """Every backend plans nothing for a task-free round, the
        heuristic's warm-start suite included."""
        vehicles = tuple(mk_vehicle(f"v{i}") for i in range(n_vehicles))
        inst = Instance(tasks=(), vehicles=vehicles, travel=EUCLID, budget=600.0)
        config = SolverConfig(backend=backend)
        res = run_round(inst, History.zeros(2), RoundConfig(round_s=600.0), config,
                        customers=("c1", "c2"))
        assert res.face is None
        assert np.array_equal(res.allocation, np.zeros(2))
        assert res.schedule.total_tasks() == 0
        assert res.calls == 0
        # The scheduler still folds the empty round into the history.
        s = Scheduler(RoundConfig(round_s=600.0), config, customers=("c1", "c2"))
        assert s.run_round(inst).calls == 0
        assert s.history.t == 1
        assert np.array_equal(s.history.xbar, np.zeros(2))

    def test_single_customer_shortcut(self):
        tasks = [mk_task("t1", "c1", 100.0, 0.0), mk_task("t2", "c1", 200.0, 0.0)]
        inst = Instance(tasks=tuple(tasks), vehicles=(mk_vehicle(),),
                        travel=EUCLID, budget=600.0)
        res = run_round(inst, History.zeros(1), RoundConfig(round_s=600.0), EXACT)
        assert res.calls == 1
        assert res.stages == 0
        assert len(res.face.corners) == 1
        assert res.allocation[0] > 0

    def test_calls_equal_customers_plus_stages(self):
        inst = small_instance()
        res = run_round(inst, History.zeros(2),
                        RoundConfig(round_s=600.0, alpha=64.0), EXACT)
        assert res.calls == 2 + res.stages

    def test_history_dimension_mismatch(self):
        inst = small_instance()
        with pytest.raises(ValueError, match="dimension"):
            run_round(inst, History.zeros(1), RoundConfig(round_s=600.0), EXACT)


def replan_fixture():
    tasks = (
        mk_task("t1", "c1", 950.0, 0.0),
        mk_task("t2", "c2", 50.0, 0.0),
    )
    vehicles = (mk_vehicle("v0", 0.0, 0.0), mk_vehicle("v1", 1000.0, 0.0))
    return Instance(tasks=tasks, vehicles=vehicles, travel=EUCLID, budget=600.0)


class TestReplan:
    """A replanning tick: committed tasks are forced in and pinned to
    their vehicles; those the plan leaves out are reported."""

    def test_commitment_pins_vehicle(self):
        inst = replan_fixture()
        # v1 sits next to t1; the commitment forces it onto v0 anyway.
        s = Scheduler(RoundConfig(round_s=600.0), EXACT)
        res = s.run_round(inst, committed={"t1": "v0"})
        assert s.last_cancelled == ()
        by_vehicle = {p.vehicle_id: p.task_ids for p in res.schedule.paths}
        assert "t1" in by_vehicle["v0"]

    def test_missing_task_cancelled(self):
        s = Scheduler(RoundConfig(round_s=600.0), EXACT)
        s.run_round(replan_fixture(), committed={"t2": "v1", "ghost": "v0"})
        assert s.last_cancelled == ("ghost",)

    def test_expired_deadline_cancelled(self):
        inst = replan_fixture()
        tasks = tuple(
            t if t.task_id != "t1" else mk_task("t1", "c1", 950.0, 0.0, deadline=100.0)
            for t in inst.tasks
        )
        inst = Instance(tasks=tasks, vehicles=inst.vehicles, travel=EUCLID,
                        budget=400.0, round_start=200.0)
        s = Scheduler(RoundConfig(round_s=400.0), EXACT, customers=("c1", "c2"))
        res = s.run_round(inst, committed={"t1": "v1"})
        assert s.last_cancelled == ("t1",)
        assert "t1" not in res.schedule.task_ids()

    def test_unreachable_commitment_cancelled(self):
        tasks = (
            mk_task("far", "c1", 50_000.0, 0.0),
            mk_task("t2", "c2", 50.0, 0.0),
        )
        inst = Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID,
                        budget=600.0)
        s = Scheduler(RoundConfig(round_s=600.0), EXACT)
        s.run_round(inst, committed={"far": "v0"})
        assert s.last_cancelled == ("far",)


class TestScheduler:
    def cfg(self, **kw):
        kw.setdefault("round_s", 600.0)
        kw.setdefault("prune_after_rounds", 2)
        return RoundConfig(**kw)

    def inst_ab(self):
        tasks = (mk_task("a1", "c1", 100.0, 0.0), mk_task("b1", "c2", -100.0, 0.0))
        return Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID,
                        budget=600.0)

    def inst_a(self):
        tasks = (mk_task("a1", "c1", 100.0, 0.0),)
        return Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID,
                        budget=600.0)

    def test_observe_admits_with_zero_history(self):
        s = Scheduler(self.cfg(), EXACT, customers=("c1",))
        s.history = update_history(s.history, np.array([2.0]), duration=600.0)
        s.observe(["c2", "c1"])
        assert s.roster == ["c1", "c2"]
        assert s.history.xbar == pytest.approx([2.0, 0.0])

    def test_roster_grows_from_tasks(self):
        s = Scheduler(self.cfg(), EXACT)
        s.run_round(self.inst_ab())
        assert s.roster == ["c1", "c2"]

    def test_idle_customer_kept_then_pruned(self):
        s = Scheduler(self.cfg(), EXACT)
        s.run_round(self.inst_ab())
        r2 = s.run_round(self.inst_a())  # c2 idle 1 < 2: still in geometry
        assert len(r2.allocation) == 2 and r2.allocation[1] == 0.0
        assert r2.calls == 2  # c2 still probed, then dropped as zero
        r3 = s.run_round(self.inst_a())  # c2 idle 2: pruned from geometry
        assert r3.calls == 1  # single-customer shortcut
        assert s.roster == ["c1", "c2"]  # history slot retained
        assert len(s.history.xbar) == 2

    def test_returning_customer_resets_idle(self):
        s = Scheduler(self.cfg(), EXACT)
        s.run_round(self.inst_ab())
        s.run_round(self.inst_a())
        s.run_round(self.inst_ab())
        assert s.idle["c2"] == 0

    def test_committed_path_sets_last_cancelled(self):
        s = Scheduler(self.cfg(), EXACT)
        assert s.last_cancelled == ()
        s.run_round(self.inst_ab(), committed={"ghost": "v0"})
        assert s.last_cancelled == ("ghost",)
        s.run_round(self.inst_ab())
        assert s.last_cancelled == ()


class TestStaticRounds:
    def test_two_cluster_oscillation(self):
        # Derived by hand: the max-min pick alternates between the two hull
        # corners (0.5,0.1) and (0.1,0.5), so even-round averages sit at
        # exactly (0.3, 0.3).
        inst = small_instance()
        out = run_static_rounds(inst, RoundConfig(round_s=600.0, alpha=64.0),
                                rounds=6, solver_config=EXACT)
        corners = {(0.5, 0.1), (0.1, 0.5)}
        allocs = [tuple(np.round(a, 9)) for a in out.allocations]
        assert set(allocs) == corners
        for a, b in zip(allocs, allocs[1:]):
            assert a != b  # strict alternation
        for r in (1, 3, 5):  # rounds 2, 4, 6
            assert out.xbars[r] == pytest.approx([0.3, 0.3], abs=1e-12)
        assert out.calls == [3] * 6
        assert out.stages == [1] * 6
        assert out.final_xbar == pytest.approx([0.3, 0.3])
