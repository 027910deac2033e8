"""The benchmark's traced run patches fairfleet at named module
attributes (see perfbench/tracing.py).  A rename here would leave those
patches pointing at nothing; this replays a small ride trace through the
full patch set and checks what the traced run relies on."""

import sys
from pathlib import Path

import pytest

from fairfleet import cli, emulator, gen, model, scheduler, vrp
from fairfleet.vrp import SolverConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (cli, emulator, gen, scheduler, vrp, scheduler.Scheduler)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    yield tracing, workloads
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


def attributes():
    return {(id(o), name): value for o in OWNERS for name, value in vars(o).items()}


def test_traced_ride_replay(perfbench):
    tracing, workloads = perfbench
    trace, vehicles = workloads.rides_scenario(7, 2, 600.0)
    cfg = scheduler.RoundConfig(round_s=600.0, replan_s=200.0)
    solver = SolverConfig(backend="heuristic", time_limit_s=0.05, seed=7)
    before = attributes()
    rec = tracing.Recorder()
    rec.install(full=True)
    try:
        assert scheduler.run_round is not before[(id(scheduler), "run_round")]
        metrics = emulator.run_trace(trace, "mobius", cfg, vehicles,
                                     model.TravelModel.euclidean(), solver)
    finally:
        rec.uninstall()

    attempted, failed, problems = workloads.check_replays(rec.replays)
    assert (attempted, failed, problems) == (len(metrics.events), 0, [])
    planned = [e for e in metrics.events if e["calls"] is not None]
    assert len(planned) == len(rec.replays[0].geometry_sizes) > 1
    assert any(e["committed"] for e in planned)
    assert rec.round_calls == sum(e["calls"] for e in planned)
    assert rec.round_stages == sum(e["stages"] for e in planned)
    assert rec.cancelled <= metrics.cancellations
    # The suite and the solves are called through their module attributes,
    # so the spans that time them are recorded.
    for name in ("boundary.init_face", "boundary.search", "scheduler.select",
                 "vrp.suite", "vrp.solve"):
        assert rec.named(name)
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
