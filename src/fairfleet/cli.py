"""Command-line entry point: run traces, compare policies, dump
boundary geometry and oracle ground truth, and generate synthetic
scenarios.

Configuration is a JSON object with flat dotted keys (for example
``solver.backend`` or ``round_s``), overridable per invocation with
``--set key=value``.  Identical config and seed produce byte-identical
artifacts; every command writes a manifest embedding the resolved
config.  Exit codes: 0 success, 1 runtime failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .boundary import full_boundary
from .emulator import POLICIES, Metrics, Trace, run_trace
from .gen import PRESETS, generate, write_scenario
from .model import (
    Instance,
    TravelModel,
    read_tasks_jsonl,
    read_travel_matrix_csv,
    read_vehicles_json,
)
from .oracle import oracle_report
from .scheduler import RoundConfig
from .vrp import RoundSolver, SolverConfig

DEFAULTS: dict = {
    "trace": None,
    "tasks": None,
    "vehicles": None,
    "travel": "euclidean",
    "travel.matrix": None,
    "out_dir": "out",
    "policy": "mobius",
    "duration_s": None,
    "round_s": 600.0,
    "replan_s": None,
    "alpha": 1.0,
    "discount": None,
    "return_home_every_s": None,
    "prune_after_rounds": 10,
    "ride_counts_as": 1,
    "expiry_s": 600.0,
    "snapshot_s": 0.0,
    "emit.plot_data": False,
    "emit.wait_histogram": False,
    "solver.backend": "auto",
    "solver.time_limit_s": 10.0,
    "solver.seed": 0,
    "solver.exact_task_limit": 10,
    "solver.exact_vehicle_limit": 3,
}

# Keys the scenario generator writes into config.json beyond the
# runtime keys above, as provenance; accepted so generated configs run
# unmodified.  Solves read `solver.seed`, and `gen` takes `--seed`.
EXTRA_KEYS = {"preset", "params", "rounds", "seed"}


class UsageError(Exception):
    """Bad invocation: unreadable config, missing file, unknown key."""


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_overrides(pairs: Optional[Sequence[str]]) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = _parse_scalar(value.strip())
    return out


def load_config(path: Optional[str], overrides: dict) -> dict:
    """Defaults <- config file <- --set overrides; relative file paths
    resolve against the config file's directory."""
    resolved = dict(DEFAULTS)
    base = Path.cwd()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            with open(p, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        base = p.parent
        for key, value in data.items():
            if key not in DEFAULTS and key not in EXTRA_KEYS:
                raise UsageError(f"{path}: unknown config key {key!r}")
            resolved[key] = value
    for key, value in overrides.items():
        if key not in DEFAULTS and key not in EXTRA_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        resolved[key] = value
    for key in ("trace", "tasks", "vehicles", "travel.matrix"):
        if resolved.get(key):
            resolved[key] = str((base / str(resolved[key])).resolve())
    return resolved


def _int_value(cfg: dict, key: str) -> int:
    """`cfg[key]` as an int: an int, or a float with an integral value.
    A bool or anything else is a usage error that names the key."""
    value = cfg[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise UsageError(f"config key {key!r} must be an integer, got {value!r}")


def _float_value(cfg: dict, key: str) -> Optional[float]:
    """`cfg[key]` as a float or None; else a usage error naming the key."""
    value = cfg[key]
    if value is None:
        return None
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise UsageError(f"config key {key!r} must be a number, got {value!r}")


def _round_config(cfg: dict) -> RoundConfig:
    try:
        return RoundConfig(
            round_s=_float_value(cfg, "round_s"),
            replan_s=_float_value(cfg, "replan_s"),
            alpha=_float_value(cfg, "alpha"),
            discount=_float_value(cfg, "discount"),
            return_home_every_s=_float_value(cfg, "return_home_every_s"),
            prune_after_rounds=_int_value(cfg, "prune_after_rounds"),
            ride_counts_as=_int_value(cfg, "ride_counts_as"),
            expiry_s=_float_value(cfg, "expiry_s"),
        )
    except ValueError as exc:  # a range check: a usage error, with its message
        raise UsageError(str(exc)) from exc


def _solver_config(cfg: dict) -> SolverConfig:
    try:
        return SolverConfig(
            backend=str(cfg["solver.backend"]),
            time_limit_s=_float_value(cfg, "solver.time_limit_s"),
            seed=_int_value(cfg, "solver.seed"),
            exact_task_limit=_int_value(cfg, "solver.exact_task_limit"),
            exact_vehicle_limit=_int_value(cfg, "solver.exact_vehicle_limit"),
        )
    except ValueError as exc:  # a range check: a usage error, with its message
        raise UsageError(str(exc)) from exc


def _travel_model(cfg: dict) -> TravelModel:
    if cfg["travel"] == "euclidean":
        return TravelModel.euclidean()
    if cfg["travel"] == "matrix":
        path = cfg.get("travel.matrix")
        if not path:
            raise UsageError("travel=matrix requires travel.matrix to point at a CSV")
        return _load(read_travel_matrix_csv, path)
    raise UsageError(f"unknown travel model {cfg['travel']!r}")


def _load(reader, path: str):
    """Wrap file readers so missing/corrupt inputs exit as usage errors."""
    if not Path(path).is_file():
        raise UsageError(f"file not found: {path}")
    try:
        return reader(path)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_trace(cfg: dict, round_s: float) -> Trace:
    if not cfg.get("trace"):
        raise UsageError("config needs a 'trace' path")
    tasks = _load(read_tasks_jsonl, cfg["trace"])
    if not tasks:
        raise UsageError(f"{cfg['trace']}: trace has no tasks")
    last = max(t.arrival_time for t in tasks)
    duration = _float_value(cfg, "duration_s")
    if duration is None:
        duration = (np.floor(last / round_s) + 1) * round_s
    try:
        return Trace(tasks=tuple(tasks), duration=float(duration), customers=())
    except ValueError as exc:  # duration_s out of range, or a task past its end
        raise UsageError(str(exc)) from exc


def _load_vehicles(cfg: dict):
    if not cfg.get("vehicles"):
        raise UsageError("config needs a 'vehicles' path")
    vehicles = _load(read_vehicles_json, cfg["vehicles"])
    if not vehicles:
        raise UsageError(f"{cfg['vehicles']}: roster is empty")
    return vehicles


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _policy_summary(metrics) -> dict:
    return {
        "xbar": {c: float(metrics.xbar[i]) for i, c in enumerate(metrics.customers)},
        "total_throughput": metrics.total_throughput,
        "jain": metrics.jain,
        "completion_fraction": metrics.completion_fraction,
        "cancellations": metrics.cancellations,
        "solver_calls": sum(metrics.solver_calls),
    }


METRICS_COLUMNS = ["round", "customer", "xbar", "completed", "expired", "jain_total"]


def _replay(cfg: dict, policy: str, summary: dict) -> Iterator[tuple[str, Metrics]]:
    """Replay the trace under `policy`, or under each policy for "all",
    yielding each policy with its metrics and noting its summary in
    `summary`.  Under "all", a policy the fleet cannot run (a ValueError,
    e.g. dedicated with fewer vehicles than customers) is skipped with a
    line on stderr and an error entry; a single policy's error stands."""
    round_cfg = _round_config(cfg)
    solver_cfg = _solver_config(cfg)
    trace = _load_trace(cfg, round_cfg.round_s)
    vehicles = _load_vehicles(cfg)
    travel = _travel_model(cfg)
    if policy != "all" and policy not in POLICIES:
        raise UsageError(f"unknown policy {policy!r}; expected one of {POLICIES + ('all',)}")
    Path(cfg["out_dir"]).mkdir(parents=True, exist_ok=True)
    for p in POLICIES if policy == "all" else (policy,):
        try:
            metrics = run_trace(trace, p, round_cfg, vehicles, travel, solver_cfg)
        except ValueError as exc:
            if policy != "all":
                raise
            print(f"fairfleet: skipping {p}: {exc}", file=sys.stderr)
            summary["policies"][p] = {"error": str(exc)}
            continue
        summary["policies"][p] = _policy_summary(metrics)
        yield p, metrics


def cmd_run(cfg: dict) -> int:
    policy = cfg["policy"]
    out = Path(cfg["out_dir"])
    summary: dict = {"config": cfg, "policies": {}}
    for p, metrics in _replay(cfg, policy, summary):
        suffix = f"_{p}" if policy == "all" else ""
        _write_csv(out / f"metrics{suffix}.csv", METRICS_COLUMNS, metrics.rounds)
        with open(out / f"events{suffix}.jsonl", "w", encoding="utf-8") as fh:
            for event in metrics.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        if cfg["emit.plot_data"]:
            _write_csv(
                out / f"plot{suffix}.csv",
                ["t_s", "customer", "xbar"],
                metrics.plot_rows(float(cfg["round_s"])),
            )
        if cfg["emit.wait_histogram"]:
            _write_csv(
                out / f"wait_histogram{suffix}.csv",
                ["customer", "bin_start_s", "bin_end_s", "count"],
                metrics.wait_histogram(),
            )
    _write_json(out / "summary.json", summary)
    print(f"wrote {out / 'summary.json'}")
    return 0


def cmd_compare(cfg: dict) -> int:
    out = Path(cfg["out_dir"])
    rows = []
    summary: dict = {"config": cfg, "policies": {}}
    for p, metrics in _replay(cfg, "all", summary):
        for i, c in enumerate(metrics.customers):
            rows.append(
                {
                    "policy": p,
                    "customer": c,
                    "xbar": float(metrics.xbar[i]),
                    "total_throughput": metrics.total_throughput,
                    "jain": metrics.jain,
                    "completion_fraction": metrics.completion_fraction[c],
                }
            )
    _write_csv(
        out / "comparison.csv",
        ["policy", "customer", "xbar", "total_throughput", "jain", "completion_fraction"],
        rows,
    )
    _write_json(out / "summary.json", summary)
    for row in rows:
        print(
            f"{row['policy']:>15} {row['customer']:>8} "
            f"xbar={row['xbar']:.3f} total={row['total_throughput']:.3f} "
            f"jain={row['jain']:.3f} done={row['completion_fraction']:.2f}"
        )
    return 0


def _snapshot_instance(cfg: dict) -> Instance:
    """Freeze the scenario at `snapshot_s`, a finite number >= 0: tasks
    that have arrived and not yet expired, vehicles at their starting
    posts, and the round starting there."""
    snapshot_s = _float_value(cfg, "snapshot_s")
    if snapshot_s is None or not 0 <= snapshot_s < np.inf:
        raise UsageError(f"snapshot_s must be >= 0 and finite, got {cfg['snapshot_s']!r}")
    source = cfg.get("tasks") or cfg.get("trace")
    if not source:
        raise UsageError("config needs a 'tasks' or 'trace' path")
    tasks = _load(read_tasks_jsonl, source)
    vehicles = _load_vehicles(cfg)
    expiry = float(cfg["expiry_s"])
    live = [
        t for t in tasks
        if t.arrival_time <= snapshot_s + 1e-9 and snapshot_s < t.expires_at(expiry) - 1e-9
    ]
    return Instance(
        tasks=tuple(live),
        vehicles=tuple(vehicles),
        travel=_travel_model(cfg),
        budget=float(cfg["round_s"]),
        round_start=snapshot_s,
    )


def cmd_boundary(cfg: dict) -> int:
    round_cfg = _round_config(cfg)
    instance = _snapshot_instance(cfg)
    snapshot_s = instance.round_start
    if not instance.tasks:
        raise UsageError(f"no live tasks at t={snapshot_s:g}s")
    customers = instance.customers
    solver = RoundSolver(
        instance,
        _solver_config(cfg),
        ride_counts_as=round_cfg.ride_counts_as,
        customers=customers,
    )
    corners, faces, target = full_boundary(customers, solver, alpha=round_cfg.alpha)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": cfg,
        "snapshot_s": snapshot_s,
        "customers": list(customers),
        "corners": [[float(v) for v in c] for c in corners],
        "faces": len(faces),
        "target": None if target is None else [float(v) for v in target],
        "solver_calls": solver.calls,
    }
    _write_json(out / "boundary.json", payload)
    print(f"wrote {out / 'boundary.json'}")
    return 0


def cmd_oracle(cfg: dict) -> int:
    ride_counts_as = _round_config(cfg).ride_counts_as
    instance = _snapshot_instance(cfg)
    report = oracle_report(instance, ride_counts_as)
    report["config"] = cfg
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "oracle.json", report)
    print(f"wrote {out / 'oracle.json'}")
    return 0


def cmd_gen(preset: str, cfg: dict, seed: int, rounds: Optional[int], params: dict) -> int:
    if rounds is not None and rounds < 1:
        raise UsageError("--rounds must be >= 1")
    try:
        scenario = generate(preset, seed=seed, **params)
    except ValueError as exc:  # an unknown preset or parameter, or a value out of range
        raise UsageError(str(exc)) from exc
    manifest = write_scenario(scenario, cfg["out_dir"], rounds=rounds)
    print(json.dumps(manifest, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfleet",
        description="Fairness-aware fleet scheduling: emulation, boundaries, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config with flat dotted keys")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", help="output directory (overrides out_dir)")

    p_run = sub.add_parser("run", help="replay a trace under one policy (or all)")
    common(p_run)
    p_run.add_argument("--policy", help=f"one of {POLICIES + ('all',)}")

    p_cmp = sub.add_parser("compare", help="run all four policies on one trace")
    common(p_cmp)

    p_bnd = sub.add_parser("boundary", help="full boundary geometry at a snapshot")
    common(p_bnd)
    p_bnd.add_argument("--snapshot-time", type=float, help="freeze time in seconds")

    p_orc = sub.add_parser("oracle", help="brute-force ground truth (small instances)")
    common(p_orc)

    p_gen = sub.add_parser("gen", help="generate a synthetic scenario")
    common(p_gen)
    p_gen.add_argument("--preset", required=True, help=f"one of {sorted(PRESETS)}")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--rounds", type=int, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = parse_overrides(args.set)
        if args.command == "gen":
            cfg = dict(DEFAULTS)
            if args.out:
                cfg["out_dir"] = args.out
            if "seed" in overrides:
                raise UsageError("gen takes its seed from --seed")
            return cmd_gen(args.preset, cfg, args.seed, args.rounds, overrides)
        cfg = load_config(args.config, overrides)
        if args.out:
            cfg["out_dir"] = args.out
        if args.command == "run":
            if args.policy:
                cfg["policy"] = args.policy
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "boundary":
            if args.snapshot_time is not None:
                cfg["snapshot_s"] = args.snapshot_time
            return cmd_boundary(cfg)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"fairfleet: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"fairfleet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
