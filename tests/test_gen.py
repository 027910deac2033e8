"""Scenario presets: layouts, caps, renewal traces, on-disk bundles."""

import hashlib
import json

import pytest

from conftest import mk_task, mk_vehicle
from fairfleet.gen import PRESETS, Scenario, generate, write_scenario
from fairfleet.model import read_tasks_jsonl, read_vehicles_json


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_build_clean_scenarios(self, name):
        scn = generate(name)
        assert scn.name == name
        ids = [t.task_id for t in scn.tasks]
        assert len(ids) == len(set(ids))
        per = {}
        for t in scn.tasks:
            per[t.customer_id] = per.get(t.customer_id, 0) + 1
        if name != "scale":
            assert max(per.values()) <= 40
        assert all(v.speed == 10.0 for v in scn.vehicles)
        assert all(t.service_time == 10.0 for t in scn.tasks)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_same_seed_reproduces(self, name):
        a, b = generate(name, seed=3), generate(name, seed=3)
        assert a.tasks == b.tasks
        assert a.vehicles == b.vehicles

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            generate("map_z")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError, match="unknown parameter 'n_eachh'"):
            generate(name, n_eachh=10)

    def test_per_round_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            generate("map_a", n_cluster=45)

    def test_random_field_varies_with_seed(self):
        a, b = generate("map_d", seed=1), generate("map_d", seed=2)
        assert a.tasks != b.tasks

    def test_two_cluster_small_geometry(self):
        scn = generate("map_a_small")
        assert len(scn.vehicles) == 1
        assert scn.round_s == 600.0 and scn.alpha == 64.0
        assert scn.customers == ("c1", "c2")
        c1_x = {t.location[0] for t in scn.tasks if t.customer_id == "c1"}
        c2_x = {t.location[0] for t in scn.tasks if t.customer_id == "c2"}
        assert c1_x == {10.0} and c2_x == {2680.0}
        assert sum(t.customer_id == "c1" for t in scn.tasks) == 5

    def test_param_overrides_flow_through(self):
        scn = generate("map_a_small", n_each=3)
        assert len(scn.tasks) == 6
        assert scn.params["n_each"] == 3

    def test_stress_layout_dimensions(self):
        scn = generate("scale")
        assert len(scn.tasks) == 999
        assert len(scn.vehicles) == 24
        assert len(scn.customers) == 6
        assert scn.round_s == 5400.0

    def test_ring_alternates_customers(self):
        scn = generate("map_b")
        per = {}
        for t in scn.tasks:
            per[t.customer_id] = per.get(t.customer_id, 0) + 1
        assert per == {"c1": 30, "c2": 30}
        # both customers sample the same circle
        r1 = {round((t.location[0] ** 2 + t.location[1] ** 2) ** 0.5)
              for t in scn.tasks}
        assert r1 == {550}


class TestTrace:
    def test_static_renewal_structure(self):
        scn = generate("map_a_small")
        tr = scn.trace(rounds=3)
        assert tr.duration == 3 * 600.0
        assert len(tr.tasks) == 3 * len(scn.tasks)
        assert tr.customers == ("c1", "c2")
        by_round = {}
        for t in tr.tasks:
            r = int(t.task_id.split("-")[0][1:])
            by_round.setdefault(r, []).append(t)
            assert t.task_id.startswith(f"r{r:03d}-")
            assert t.arrival_time == r * 600.0
            assert t.deadline == (r + 1) * 600.0
        assert sorted(by_round) == [0, 1, 2]

    def test_pair_links_renamed_per_round(self):
        tasks = (
            mk_task("p", "c1", 10.0, 0.0, pickup_of="d"),
            mk_task("d", "c1", 50.0, 0.0, dropoff_of="p"),
        )
        scn = Scenario(name="pairs", tasks=tasks,
                       vehicles=(mk_vehicle(),), round_s=300.0)
        tr = scn.trace(rounds=2)
        by_id = {t.task_id: t for t in tr.tasks}
        assert by_id["r001-p"].pickup_of == "r001-d"
        assert by_id["r001-d"].dropoff_of == "r001-p"

    def test_default_rounds_from_scenario(self):
        scn = generate("map_a_small", rounds=4)
        assert len(scn.trace().tasks) == 4 * 10


class TestWriteScenario:
    def test_bundle_files_and_manifest(self, tmp_path):
        scn = generate("map_a_small")
        manifest = write_scenario(scn, tmp_path, rounds=2)
        tasks = read_tasks_jsonl(str(tmp_path / "tasks.jsonl"))
        trace_tasks = read_tasks_jsonl(str(tmp_path / "trace.jsonl"))
        vehicles = read_vehicles_json(str(tmp_path / "vehicles.json"))
        assert len(tasks) == 10
        assert len(trace_tasks) == 20
        assert len(vehicles) == 1
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg == manifest
        assert cfg["preset"] == "map_a_small"
        assert cfg["round_s"] == 600.0
        assert cfg["duration_s"] == 1200.0
        assert cfg["trace"] == "trace.jsonl"
        assert cfg["travel"] == "euclidean"

    # sha256 of tasks.jsonl and config.json for each preset at seed 0.
    GOLDEN = {
        "map_a": ("68377286d2534e22dcb0d2323e1629aee67752c4695a146a460388d31b8b61c8",
                  "51fc1e5989676207801257dee7242cca0eda606528ff1cd87fb200aa21db7ce8"),
        "map_b": ("1e00a48604e78cd5db3eca02bec336a5e3df5ca1a4b22e324d97eaf3fdec4e52",
                  "afe3acbff9aa3474ae983cf0cf5bb23e1c908b21e593cc5a602d7efda30c90cc"),
        "map_c": ("65333fe3ccbe3b523102875ece2534dd5c15e8e89a04fe10e5a8b2a8d71c8fcd",
                  "8a2a19986fd7fdecef110b614e0332c70dd4d8b808f2a866c64e8c16bc3a618e"),
        "map_a_small": ("946f14d0c29566473a6fd9f65930b5cf78c08ca1c8b3d49441c7e0dcddf9c582",
                        "57803a4462e655eb89f717b050e59426099b9f8576cb71c37e2e9ccdf49b3d52"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bundle_digests(self, tmp_path, name):
        write_scenario(generate(name, seed=0), tmp_path)
        digests = tuple(
            hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in ("tasks.jsonl", "config.json")
        )
        assert digests == self.GOLDEN[name]

    def test_round_trip_preserves_tasks(self, tmp_path):
        scn = generate("map_b")
        write_scenario(scn, tmp_path, rounds=1)
        back = read_tasks_jsonl(str(tmp_path / "tasks.jsonl"))
        assert tuple(back) == scn.tasks
