"""Brute-force enumeration ground truth on tiny instances."""

import numpy as np
import pytest
import scipy.optimize

from conftest import EUCLID, mk_task, mk_vehicle, random_instance
from fairfleet.model import Instance, empty_schedule
from fairfleet.vrp import RoundSolver, SolverConfig
from fairfleet.oracle import (
    ORACLE_TASK_CAP,
    ORACLE_VEHICLE_CAP,
    FeasibleSet,
    convex_boundary,
    enumerate_feasible_allocations,
    oracle_report,
    pareto_frontier,
)


def tiny_instance(budget=600.0):
    """One vehicle, one task per customer on a line east of the depot."""
    tasks = (
        mk_task("a", "c1", 100, 0, service=10.0),
        mk_task("b", "c2", 200, 0, service=10.0),
    )
    return Instance(tasks=tasks, vehicles=(mk_vehicle(),), travel=EUCLID, budget=budget)


def fs_of(allocs):
    """FeasibleSet literal for frontier tests; schedules are placeholders."""
    dummy = empty_schedule([mk_vehicle()], 600.0)
    entries = tuple((np.array(a, dtype=float), dummy) for a in allocs)
    return FeasibleSet(entries=entries, customers=("c1", "c2"))


class TestEnumeration:
    def test_all_allocations_of_tiny_instance(self):
        # Derived by hand: 600 s fits any subset, so the distinct
        # allocations are exactly {(0,0), (1,0), (0,1), (1,1)} tasks
        # per 10 min round.
        fs = enumerate_feasible_allocations(tiny_instance())
        got = sorted(tuple(np.round(a, 9)) for a in fs.allocations())
        assert got == [(0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1)]

    def test_tight_budget_forces_tradeoff(self):
        # Derived by hand: serving both takes 40 s, either alone at most
        # 30 s, so with a 35 s budget the pair is infeasible.
        fs = enumerate_feasible_allocations(tiny_instance(budget=35.0))
        got = {tuple(np.round(a, 6)) for a in fs.allocations()}
        per_min = round(60.0 / 35.0, 6)
        assert got == {(0.0, 0.0), (per_min, 0.0), (0.0, per_min)}

    def test_pairs_never_count_half(self):
        p = mk_task("p", "c1", 50, 0, service=5.0, pickup_of="d")
        d = mk_task("d", "c1", 150, 0, service=5.0, dropoff_of="p")
        lone = mk_task("z", "c2", -100, 0, service=5.0)
        inst = Instance(tasks=(p, d, lone), vehicles=(mk_vehicle(),),
                        travel=EUCLID, budget=600.0)
        fs = enumerate_feasible_allocations(inst)
        for a in fs.allocations():
            # c1 throughput is 0 or 1 ride per 10 min, never a half
            assert round(a[0] * 10.0, 9) in (0.0, 1.0)

    def test_return_home_shrinks_feasible_set(self):
        inst = tiny_instance(budget=41.0)
        fs_free = enumerate_feasible_allocations(inst)
        inst_rh = Instance(tasks=inst.tasks,
                           vehicles=(mk_vehicle(return_home=True),),
                           travel=EUCLID, budget=41.0)
        fs_home = enumerate_feasible_allocations(inst_rh)
        assert len(fs_home.entries) < len(fs_free.entries)

    def test_caps_enforced(self):
        many = tuple(mk_task(f"t{i}", "c1", i, 0) for i in range(ORACLE_TASK_CAP + 1))
        with pytest.raises(ValueError, match="cap"):
            enumerate_feasible_allocations(
                Instance(tasks=many, vehicles=(mk_vehicle(),), travel=EUCLID, budget=600.0)
            )
        vehicles = tuple(mk_vehicle(f"v{i}") for i in range(ORACLE_VEHICLE_CAP + 1))
        with pytest.raises(ValueError, match="cap"):
            enumerate_feasible_allocations(
                Instance(tasks=(mk_task("a", "c1", 1, 0),), vehicles=vehicles,
                         travel=EUCLID, budget=600.0)
            )

    def test_deterministic(self):
        inst = tiny_instance()
        a = [tuple(x) for x in enumerate_feasible_allocations(inst).allocations()]
        b = [tuple(x) for x in enumerate_feasible_allocations(inst).allocations()]
        assert a == b


class TestParetoFrontier:
    def test_weak_dominance(self):
        fs = pareto_frontier(fs_of([(1, 0), (0, 1), (1, 1)]))
        assert [tuple(a) for a in fs.allocations()] == [(1.0, 1.0)]

    def test_incomparable_points_survive(self):
        fs = pareto_frontier(fs_of([(2, 0), (0, 2), (1, 1)]))
        assert sorted(tuple(a) for a in fs.allocations()) == [
            (0.0, 2.0), (1.0, 1.0), (2.0, 0.0),
        ]

    def test_strictly_dominated_removed(self):
        fs = pareto_frontier(fs_of([(1, 1), (2, 2)]))
        assert [tuple(a) for a in fs.allocations()] == [(2.0, 2.0)]


class TestConvexBoundary:
    def test_interior_point_dropped(self):
        # (1, 1) is under the segment (2,0)-(0,2) and is not a vertex
        corners = convex_boundary(fs_of([(2, 0), (0, 2), (0.9, 0.9), (0, 0)]))
        assert sorted(tuple(c) for c in corners) == [(0.0, 2.0), (2.0, 0.0)]

    def test_midpoint_on_edge_dropped(self):
        corners = convex_boundary(fs_of([(2, 0), (0, 2), (1, 1)]))
        assert sorted(tuple(c) for c in corners) == [(0.0, 2.0), (2.0, 0.0)]

    def test_bulge_kept(self):
        corners = convex_boundary(fs_of([(2, 0), (0, 2), (1.5, 1.5)]))
        assert sorted(tuple(c) for c in corners) == [
            (0.0, 2.0), (1.5, 1.5), (2.0, 0.0),
        ]

    def test_corners_subset_of_pareto(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = random_instance(rng, max_tasks=5, max_vehicles=2)
            fs = enumerate_feasible_allocations(inst)
            pareto = {tuple(np.round(a, 9)) for a in pareto_frontier(fs).allocations()}
            for c in convex_boundary(fs):
                assert tuple(np.round(c, 9)) in pareto

    def test_corners_attain_every_nonnegative_support(self):
        # max of w.x over corners equals the max over all feasible points
        # for any w >= 0; checked on a probe grid
        rng = np.random.default_rng(4)
        for _ in range(5):
            inst = random_instance(rng, max_tasks=5, max_vehicles=2)
            fs = enumerate_feasible_allocations(inst)
            corners = convex_boundary(fs)
            assert corners
            k = len(fs.customers)
            probes = list(np.eye(k)) + [np.ones(k)] + [
                np.linspace(1, 2, k), np.linspace(2, 1, k),
            ]
            for w in probes:
                over_all = max(float(w @ a) for a in fs.allocations())
                over_corners = max(float(w @ c) for c in corners)
                assert over_corners == pytest.approx(over_all, abs=1e-9)


class TestLpFailure:
    """An LP that stops without a verdict raises instead of deciding."""

    @staticmethod
    def failing(lp, status, monkeypatch):
        """Make the hull LP (`lp="hull"`, no inequality rows) or the
        support LP (`lp="support"`) end with `status`; the other one
        reports infeasible, which reads as "vertex"."""
        def linprog(c, A_ub=None, **kwargs):
            if (A_ub is None) == (lp == "hull"):
                return scipy.optimize.OptimizeResult(status=status, success=False,
                                                     message="stopped")
            return scipy.optimize.OptimizeResult(status=2, success=False,
                                                 message="infeasible")

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)

    @pytest.mark.parametrize("status", [1, 3, 4])
    def test_hull_lp_failure_raises(self, monkeypatch, status):
        self.failing("hull", status, monkeypatch)
        with pytest.raises(RuntimeError, match=f"status {status}: stopped"):
            convex_boundary(fs_of([(2, 0), (0, 2), (1.5, 1.5)]))

    @pytest.mark.parametrize("status", [1, 2, 3, 4])
    def test_support_lp_failure_raises(self, monkeypatch, status):
        self.failing("support", status, monkeypatch)
        with pytest.raises(RuntimeError, match=f"status {status}: stopped"):
            convex_boundary(fs_of([(2, 0), (0, 2), (1.5, 1.5)]))


def ride_and_errand():
    """One vehicle, a ride p->d for c1 and a plain task q for c2, all
    served within the one-minute round."""
    p = mk_task("p", "c1", 50, 0, service=5.0, pickup_of="d")
    d = mk_task("d", "c1", 100, 0, service=5.0, dropoff_of="p")
    q = mk_task("q", "c2", 150, 0, service=5.0)
    return Instance(tasks=(p, d, q), vehicles=(mk_vehicle(),), travel=EUCLID, budget=60.0)


class TestOracleReport:
    @pytest.mark.parametrize("ride_counts_as", [1, 2])
    def test_ride_counts_as_matches_the_planner(self, ride_counts_as):
        inst = ride_and_errand()
        report = oracle_report(inst, ride_counts_as=ride_counts_as)
        solver = RoundSolver(inst, SolverConfig(backend="exact"),
                             ride_counts_as=ride_counts_as)
        planned, _ = solver.solve(np.ones(2))
        assert report["boundary_corners"] == [[float(ride_counts_as), 1.0]]
        assert planned.tolist() == report["boundary_corners"][0]

    def test_payload_shape(self):
        report = oracle_report(tiny_instance())
        assert report["customers"] == ["c1", "c2"]
        assert [0.1, 0.1] in report["feasible"]
        assert report["pareto"] == [[0.1, 0.1]]
        assert report["boundary_corners"] == [[0.1, 0.1]]
        import json

        json.dumps(report)
