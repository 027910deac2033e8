"""Command-line interface: artifacts, config handling, exit codes."""

import csv
import hashlib
import json

import pytest

from conftest import mk_task, mk_vehicle
from fairfleet.cli import METRICS_COLUMNS, load_config, main
from fairfleet.gen import Scenario, write_scenario


def gen_bundle(tmp_path, *extra):
    out = tmp_path / "bundle"
    rc = main(["gen", "--preset", "map_a_small", "--rounds", "2",
               "--out", str(out), *extra])
    assert rc == 0
    return out / "config.json"


def tiny_bundle(tmp_path):
    """Two vehicles and six easy tasks: every policy (dedicated included)
    can run it with the exact backend."""
    tasks = (
        mk_task("a1", "c1", 100.0, 0.0),
        mk_task("a2", "c1", 150.0, 0.0),
        mk_task("a3", "c1", 200.0, 0.0),
        mk_task("b1", "c2", -100.0, 0.0),
        mk_task("b2", "c2", -150.0, 0.0),
        mk_task("b3", "c2", -200.0, 0.0),
    )
    scn = Scenario(name="tiny", tasks=tasks,
                   vehicles=(mk_vehicle("v0"), mk_vehicle("v1", 50.0)),
                   round_s=600.0)
    out = tmp_path / "tiny"
    write_scenario(scn, out, rounds=2)
    return out / "config.json"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_writes_bundle_and_prints_manifest(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        out = cfg.parent
        for name in ("tasks.jsonl", "trace.jsonl", "vehicles.json", "config.json"):
            assert (out / name).is_file()
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["preset"] == "map_a_small"
        assert manifest["duration_s"] == 1200.0

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--preset", "map_z", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_set_overrides_generator_params(self, tmp_path):
        cfg = gen_bundle(tmp_path, "--set", "n_each=3")
        lines = (cfg.parent / "tasks.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6

    def test_unknown_generator_param_is_usage_error(self, tmp_path, capsys):
        """A key the preset does not take stops `gen` with exit 2, as
        `run` stops on an unknown config key, and writes nothing."""
        out = tmp_path / "g"
        rc = main(["gen", "--preset", "map_b", "--set", "n_eachh=10", "--out", str(out)])
        assert rc == 2
        assert "unknown parameter 'n_eachh'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rounds", ["0", "-2"])
    def test_rounds_below_one_is_usage_error(self, tmp_path, capsys, rounds):
        """`gen --rounds` below 1 stops with exit 2 and writes nothing,
        instead of an empty trace with a negative duration."""
        out = tmp_path / "g"
        rc = main(["gen", "--preset", "map_b", "--rounds", rounds, "--out", str(out)])
        assert rc == 2
        assert "--rounds must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_small_preset_takes_round_s(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["gen", "--preset", "map_a_small", "--rounds", "2", "--set", "round_s=300",
                   "--out", str(out)])
        assert rc == 0
        config = json.loads((out / "config.json").read_text())
        assert (config["round_s"], config["duration_s"]) == (300.0, 600.0)


# sha256 of each `run --policy all` artifact on two rounds of a map under
# the heuristic backend (`solver.time_limit_s=0.1`, `solver.seed=11`).
MAPS_ARTIFACT_SHA256 = {
    "map_a": {
        "events_dedicated.jsonl":
            "1c83904d038ebc9d8fdcbd895c4bb422e79bb7d0c01d4a5f19d477b44d33993e",
        "events_max_throughput.jsonl":
            "a9168747cfc97c1f59513974c00138be33e8c8f315a9c7a9ab95f49780271bdf",
        "events_mobius.jsonl":
            "ab15d26353b1065eb62bc19ddc8f1b48548d9e1153b597721a79427c43e04d8d",
        "events_round_robin.jsonl":
            "9e88aa0d9b8b82a40606a4a9bc32e7af324f64a6104f098dcc7bf2c68c618eea",
        "metrics_dedicated.csv":
            "4dc913102b3ca2f188b612c06c016f43331a824c5ab1f4e8124bf8c4962f97f6",
        "metrics_max_throughput.csv":
            "ba0e383bd14a4bf505c4cd1ef4dae7c2190f43f0b9e819e13fc210db9adc23b3",
        "metrics_mobius.csv":
            "4026e51bd4edf9a41c531c33ed373166f10943e6cdb03068aa6195319a7e92bf",
        "metrics_round_robin.csv":
            "4dc913102b3ca2f188b612c06c016f43331a824c5ab1f4e8124bf8c4962f97f6",
    },
    "map_b": {
        "events_dedicated.jsonl":
            "060361285ea8d7f3760ac62e3fa052a0c424fe510cd532189cd0a0a1c99e61d1",
        "events_max_throughput.jsonl":
            "1e3b1b2e8b66235f4e6a561bf3adb43b84f09b206d5b2892d9d6f74e54e506f1",
        "events_mobius.jsonl":
            "4974101770136f3ab50f777259293a09089cb027c975f58498bd145ab115eb50",
        "events_round_robin.jsonl":
            "9d7e31d46d7f2d2c3da304a48ceb0afc878cc31312fc9d2bd554cb9ea04fbd5e",
        "metrics_dedicated.csv":
            "3a69476949082e99dd5d4de5556cfa592cf8749865aaff7fc2072bd5b7dadd0e",
        "metrics_max_throughput.csv":
            "11e7804527dc46c30da74b1ed5a911b5b93751e8c1caedd4f81290a2c60fbcaf",
        "metrics_mobius.csv":
            "11e7804527dc46c30da74b1ed5a911b5b93751e8c1caedd4f81290a2c60fbcaf",
        "metrics_round_robin.csv":
            "3a69476949082e99dd5d4de5556cfa592cf8749865aaff7fc2072bd5b7dadd0e",
    },
    "map_c": {
        "events_dedicated.jsonl":
            "c3f921103b24de1abdcf3e01a6a84689c257d1051bc699f407c021a159719e2f",
        "events_max_throughput.jsonl":
            "555af84edf08475f85071027ed3095c7e075c69089767b7f03cdff43ba4fa3cd",
        "events_mobius.jsonl":
            "106577284f425cdee6c7a30d54efd50259c19d19ad3296cf5cf7bfbfd191387b",
        "events_round_robin.jsonl":
            "51ac16d636113cf1d9639364cf317d72f481a29095ad6f044e2fcd36c2b6c799",
        "metrics_dedicated.csv":
            "7c1c80dbaf3c393d7a43d435dcaf72ce94d38357b144f6dd4a9359497862b848",
        "metrics_max_throughput.csv":
            "4d18fbd7495f96613aa805564a057012394f159fac76626fb8853cd1effea1c2",
        "metrics_mobius.csv":
            "1f955095a8700de4f614f41821a44c35272fc25e5ab46ce974b86278ce9ea4a0",
        "metrics_round_robin.csv":
            "7c1c80dbaf3c393d7a43d435dcaf72ce94d38357b144f6dd4a9359497862b848",
    },
}


class TestRun:
    def test_produces_run_artifacts(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        out = tmp_path / "run1"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "summary.json" in capsys.readouterr().out
        rows = read_csv(out / "metrics.csv")
        assert list(rows[0]) == METRICS_COLUMNS
        assert {r["round"] for r in rows} == {"0", "1"}
        for line in (out / "events.jsonl").read_text().splitlines():
            event = json.loads(line)
            assert event["policy"] == "mobius"
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["policies"]) == {"mobius"}
        assert summary["config"]["alpha"] == 64.0

    def test_two_round_metrics_balance_out(self, tmp_path):
        # Derived by hand: corners (0.5,0.1)/(0.1,0.5) alternate, so after
        # round 2 each customer holds xbar 0.3 with 6 done and 4 expired.
        cfg = gen_bundle(tmp_path)
        out = tmp_path / "run1"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        final = [r for r in read_csv(out / "metrics.csv") if r["round"] == "1"]
        for row in final:
            assert float(row["xbar"]) == pytest.approx(0.3)
            assert int(row["completed"]) == 6
            assert int(row["expired"]) == 4
            assert float(row["jain_total"]) == pytest.approx(1.0)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = gen_bundle(tmp_path)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("metrics.csv", "events.jsonl"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b

    def test_policy_all_writes_suffixed_files(self, tmp_path):
        cfg = tiny_bundle(tmp_path)
        out = tmp_path / "all"
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--policy", "all"])
        assert rc == 0
        policies = ("mobius", "max_throughput", "dedicated", "round_robin")
        for p in policies:
            assert (out / f"metrics_{p}.csv").is_file()
            assert (out / f"events_{p}.jsonl").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["policies"]) == set(policies)
        for p in policies:
            assert summary["policies"][p]["completion_fraction"] == {
                "c1": 1.0, "c2": 1.0}

    def test_policy_all_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_bundle(tmp_path)
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--policy", "all"]) == 0
        for p in ("mobius", "max_throughput", "dedicated", "round_robin"):
            for name in (f"metrics_{p}.csv", f"events_{p}.jsonl"):
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("preset", sorted(MAPS_ARTIFACT_SHA256))
    def test_heuristic_maps_artifacts_are_pinned(self, tmp_path, preset):
        """`run --policy all` on a two-round map under the heuristic
        writes the recorded bytes: every artifact but `summary.json`,
        which holds the output paths."""
        bundle = tmp_path / "bundle"
        assert main(["gen", "--preset", preset, "--rounds", "2", "--out", str(bundle)]) == 0
        out = tmp_path / "run"
        assert main(["run", "--config", str(bundle / "config.json"), "--out", str(out),
                     "--policy", "all",
                     "--set", "solver.backend=heuristic",
                     "--set", "solver.time_limit_s=0.1",
                     "--set", "solver.seed=11"]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(out.iterdir()) if f.name != "summary.json"}
        assert digests == MAPS_ARTIFACT_SHA256[preset]

    def test_optional_artifacts_behind_emit_keys(self, tmp_path):
        cfg = gen_bundle(tmp_path)
        out = tmp_path / "run1"
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--set", "emit.plot_data=true",
                   "--set", "emit.wait_histogram=true"])
        assert rc == 0
        plot = read_csv(out / "plot.csv")
        assert list(plot[0]) == ["t_s", "customer", "xbar"]
        hist = read_csv(out / "wait_histogram.csv")
        assert list(hist[0]) == ["customer", "bin_start_s", "bin_end_s", "count"]

    def test_unknown_policy_is_usage_error(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        rc = main(["run", "--config", str(cfg), "--policy", "fifo"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err


class TestConfigHandling:
    def test_missing_trace_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"trace": "missing.jsonl",
                                   "vehicles": "missing.json"}))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        assert "file not found" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("{ not json\n")
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_unknown_key_in_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"rond_s": 600}))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key 'rond_s'" in capsys.readouterr().err

    def test_unknown_set_key(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        rc = main(["run", "--config", str(cfg), "--set", "alpa=2"])
        assert rc == 2
        assert "unknown config key 'alpa'" in capsys.readouterr().err

    def test_gen_takes_round_s_and_alpha_from_set(self, tmp_path):
        out = tmp_path / "b"
        rc = main(["gen", "--preset", "map_b", "--rounds", "3", "--out", str(out),
                   "--set", "round_s=300", "--set", "alpha=2", "--set", "n_each=10"])
        assert rc == 0
        config = json.loads((out / "config.json").read_text())
        assert (config["round_s"], config["alpha"]) == (300.0, 2.0)
        assert config["duration_s"] == 3 * 300.0
        assert config["params"]["n_each"] == 10

    def test_set_requires_equals(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        rc = main(["run", "--config", str(cfg), "--set", "alpha"])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err

    def test_ride_counts_as_out_of_range(self, tmp_path, capsys):
        cfg = tiny_bundle(tmp_path)
        for command in ("run", "boundary"):
            rc = main([command, "--config", str(cfg), "--set", "ride_counts_as=3"])
            assert rc == 2
            assert "ride_counts_as must be 1 or 2" in capsys.readouterr().err
            for key, value, rule in (("return_home_every_s", "0", "> 0"),
                                     ("expiry_s", "0", "> 0"),
                                     ("round_s", "0", "> 0"),
                                     ("round_s", "-5", "> 0"),
                                     ("round_s", "nan", "> 0"),
                                     ("round_s", "inf", "> 0 and finite"),
                                     ("alpha", "nan", ">= 0"),
                                     ("alpha", "-1", ">= 0"),
                                     ("return_home_every_s", "nan", "> 0"),
                                     ("return_home_every_s", "inf", "> 0 and finite"),
                                     ("expiry_s", "nan", "> 0"),
                                     ("prune_after_rounds", "-3", ">= 0")):
                rc = main([command, "--config", str(cfg), "--set", f"{key}={value}"])
                assert rc == 2
                assert f"{key} must be {rule}" in capsys.readouterr().err
            for value in ("1", "2"):
                out = tmp_path / command / value
                rc = main([command, "--config", str(cfg), "--out", str(out),
                           "--set", f"ride_counts_as={value}",
                           "--set", "solver.backend=exact"])
                assert rc == 0

    def test_solver_time_limit_out_of_range(self, tmp_path, capsys):
        """A NaN, infinite, zero or negative effort budget stops `run` before
        the first solve, under the heuristic backend that reads it."""
        cfg = tiny_bundle(tmp_path)
        for value in ("nan", "-3", "0", "inf"):
            rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / value),
                       "--set", "solver.backend=heuristic",
                       "--set", f"solver.time_limit_s={value}"])
            assert rc == 2
            assert "time_limit_s must be > 0 and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("prune_after_rounds", "2.5", "config key 'prune_after_rounds' must be an integer"),
        ("ride_counts_as", "1.9", "config key 'ride_counts_as' must be an integer"),
        ("ride_counts_as", "true", "config key 'ride_counts_as' must be an integer"),
        ("solver.seed", "3.7", "config key 'solver.seed' must be an integer"),
        ("solver.seed", "nan", "config key 'solver.seed' must be an integer"),
        ("solver.exact_vehicle_limit", "2.5",
         "config key 'solver.exact_vehicle_limit' must be an integer"),
        ("solver.exact_task_limit", "-4", "exact_task_limit must be >= 0"),
        ("alpha", "abc", "config key 'alpha' must be a number, got 'abc'"),
        ("round_s", "true", "config key 'round_s' must be a number, got True"),
        ("replan_s", "9999", "need 0 < replan_s <= round_s"),
        ("solver.backend", "fast", "unknown solver backend 'fast'"),
    ])
    def test_integer_keys_take_only_integers(self, tmp_path, capsys, key, value, message):
        """An integer key with a fractional, boolean or non-numeric value,
        a float key that is not a number, or a value a range check
        refuses, stops `run` as a usage error naming the key, where the
        value was once truncated, failed with a bare int() or float()
        error, or exited 1."""
        cfg = tiny_bundle(tmp_path)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--set", f"{key}={value}"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_roster_value_of_the_wrong_type_is_usage_error(self, tmp_path, capsys):
        """A roster value of the wrong type stops `run` with exit 2,
        naming the vehicle and the field, where it once ran coerced."""
        cfg = tiny_bundle(tmp_path)
        roster = cfg.parent / "vehicles.json"
        records = json.loads(roster.read_text())
        records[0]["return_home"] = "false"
        roster.write_text(json.dumps(records))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        message = "vehicle 'v0': return_home must be true or false, got 'false'"
        assert message in capsys.readouterr().err

    def test_integral_floats_pass_as_integers(self, tmp_path):
        """A float with an integral value, as a JSON config may hold, runs
        as that integer: the events and metrics match, byte for byte."""
        cfg = tiny_bundle(tmp_path)
        runs = []
        for value in ("2", "2.0"):
            out = tmp_path / value
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--set", f"ride_counts_as={value}",
                         "--set", f"solver.seed={value}"]) == 0
            runs.append([(out / name).read_bytes() for name in ("events.jsonl", "metrics.csv")])
        assert runs[0] == runs[1]

    def test_duplicate_task_id_is_usage_error(self, tmp_path, capsys):
        """A trace that gives one task id to two customers stops `run`
        with exit 2, naming the id and its line, instead of dropping the
        first customer's task."""
        cfg = tiny_bundle(tmp_path)
        trace = cfg.parent / "trace.jsonl"
        lines = trace.read_text().splitlines()
        twin = dict(json.loads(lines[0]), customer="c2")
        trace.write_text("\n".join(lines + [json.dumps(twin)]) + "\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--policy", "all"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}: duplicate task_id {twin['task_id']!r}" in err

    def test_duplicate_vehicle_id_is_usage_error(self, tmp_path, capsys):
        """A roster that lists one vehicle twice stops `run` with exit 2,
        instead of running the two as one."""
        cfg = tiny_bundle(tmp_path)
        roster = cfg.parent / "vehicles.json"
        vehicles = json.loads(roster.read_text())
        roster.write_text(json.dumps(vehicles + [dict(vehicles[0], x=75.0)]))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--policy", "all"])
        assert rc == 2
        assert f"duplicate vehicle_id {vehicles[0]['vehicle_id']!r}" in capsys.readouterr().err

    def test_seed_is_provenance_only(self, tmp_path, capsys):
        """Solves read `solver.seed` and `gen` takes `--seed`, so `seed`
        is no runtime key; a generated config, which records its seed,
        still runs as it is."""
        assert "seed" not in load_config(None, {})
        cfg = gen_bundle(tmp_path, "--seed", "4")
        assert json.loads(cfg.read_text())["seed"] == 4
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        rc = main(["gen", "--preset", "map_a_small", "--out", str(tmp_path / "g"),
                   "--set", "seed=5"])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, monkeypatch):
        cfg = gen_bundle(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0


class TestCompare:
    def test_all_policies_in_one_table(self, tmp_path, capsys):
        cfg = tiny_bundle(tmp_path)
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "comparison.csv")
        assert list(rows[0]) == ["policy", "customer", "xbar",
                                 "total_throughput", "jain",
                                 "completion_fraction"]
        assert len(rows) == 8  # 4 policies x 2 customers
        assert len(capsys.readouterr().out.strip().splitlines()) == 8
        summary = json.loads((out / "summary.json").read_text())
        assert all("error" not in v for v in summary["policies"].values())

    def test_undersized_fleet_skips_dedicated(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)  # one vehicle, two customers
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "skipping dedicated" in capsys.readouterr().err
        rows = read_csv(out / "comparison.csv")
        assert {r["policy"] for r in rows} == {"mobius", "max_throughput",
                                               "round_robin"}
        summary = json.loads((out / "summary.json").read_text())
        assert "error" in summary["policies"]["dedicated"]

    def test_run_all_skips_what_compare_skips(self, tmp_path, capsys):
        """`run --policy all` on a fleet too small for the dedicated
        policy skips it as `compare` does: same stderr line, same
        summary entries; the other policies' files are written."""
        cfg = gen_bundle(tmp_path)  # one vehicle, two customers
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"),
                     "--policy", "all"]) == 0
        run_err = capsys.readouterr().err
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 0
        cmp_err = capsys.readouterr().err
        assert run_err == cmp_err
        assert run_err.count("fairfleet: skipping dedicated: ") == 1
        ran = json.loads((tmp_path / "run" / "summary.json").read_text())["policies"]
        compared = json.loads((tmp_path / "cmp" / "summary.json").read_text())["policies"]
        assert ran == compared
        assert ran["dedicated"] == {
            "error": "dedicated baseline needs at least one vehicle per customer"}
        for p in ("mobius", "max_throughput", "round_robin"):
            assert "error" not in ran[p]
            assert (tmp_path / "run" / f"metrics_{p}.csv").is_file()
        assert not (tmp_path / "run" / "metrics_dedicated.csv").exists()
        assert not (tmp_path / "run" / "events_dedicated.jsonl").exists()

    def test_single_policy_the_fleet_cannot_run_fails(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--policy", "dedicated"]) == 1
        assert "ValueError: dedicated baseline needs" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestBoundary:
    def test_geometry_payload(self, tmp_path):
        cfg = gen_bundle(tmp_path)
        out = tmp_path / "bnd"
        rc = main(["boundary", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "boundary.json").read_text())
        assert payload["customers"] == ["c1", "c2"]
        corners = sorted(tuple(c) for c in payload["corners"])
        assert corners == [(0.1, 0.5), (0.5, 0.1)]
        assert payload["target"] == pytest.approx([0.3, 0.3])
        assert payload["faces"] >= 1
        assert payload["solver_calls"] >= 3

    def test_alpha_zero_targets_the_largest_total(self, tmp_path):
        """At alpha 0 the objective is linear, with no stationary point
        inside a face, so the target is the corner with the largest total;
        the command once failed there with exit 1."""
        out = tmp_path / "bundle"
        assert main(["gen", "--preset", "map_a", "--rounds", "2", "--out", str(out)]) == 0
        payloads = {}
        for alpha in ("0", "1"):
            dest = tmp_path / f"bnd{alpha}"
            rc = main(["boundary", "--config", str(out / "config.json"), "--out", str(dest),
                       "--set", f"alpha={alpha}", "--set", "solver.time_limit_s=0.2"])
            assert rc == 0
            payloads[alpha] = json.loads((dest / "boundary.json").read_text())
        targets = {alpha: payload["target"] for alpha, payload in payloads.items()}
        assert targets["0"] == max(payloads["0"]["corners"], key=sum)
        assert targets["0"] == pytest.approx([4.0, 0.2])
        assert targets["1"] == pytest.approx([2.2, 1.8])

    def test_snapshot_after_expiry_is_empty(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)
        rc = main(["boundary", "--config", str(cfg),
                   "--snapshot-time", "700"])
        assert rc == 2
        assert "no live tasks" in capsys.readouterr().err


class TestOracle:
    def test_over_cap_is_runtime_failure(self, tmp_path, capsys):
        cfg = gen_bundle(tmp_path)  # 10 tasks > the 8-task cap
        rc = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "exceed the oracle cap" in capsys.readouterr().err

    def test_small_instance_report(self, tmp_path):
        cfg = gen_bundle(tmp_path, "--set", "n_each=3")
        out = tmp_path / "o"
        rc = main(["oracle", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "oracle.json").read_text())
        assert report["customers"] == ["c1", "c2"]
        assert report["feasible"]
        feasible = {tuple(a) for a in report["feasible"]}
        for corner in report["boundary_corners"]:
            assert tuple(corner) in feasible
        pareto = {tuple(a) for a in report["pareto"]}
        assert pareto <= feasible

    @pytest.mark.parametrize("ride_counts_as", [1, 2])
    def test_ride_counts_as_reaches_the_report(self, tmp_path, ride_counts_as):
        # One ride for c1 and one errand for c2, both served in the round.
        tasks = (
            mk_task("p", "c1", 50.0, 0.0, pickup_of="d"),
            mk_task("d", "c1", 100.0, 0.0, dropoff_of="p"),
            mk_task("q", "c2", 150.0, 0.0),
        )
        scn = Scenario(name="ride", tasks=tasks, vehicles=(mk_vehicle(),), round_s=600.0)
        write_scenario(scn, tmp_path / "ride", rounds=1)
        out = tmp_path / "o"
        rc = main(["oracle", "--config", str(tmp_path / "ride" / "config.json"),
                   "--out", str(out), "--set", f"ride_counts_as={ride_counts_as}"])
        assert rc == 0
        report = json.loads((out / "oracle.json").read_text())
        assert report["boundary_corners"] == [[ride_counts_as * 0.1, 0.1]]
