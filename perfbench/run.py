"""fairfleet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload maps_replay --seed 3 --seconds 10 --trace 0

Run from the root of a fairfleet checkout; the package is imported from
its ``src/`` directory.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced iteration (see README.md).  The line
before it holds provenance, check results, artifact digests and the
non-gating fields; the same record is written under ``.bench_out/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one thread: keep BLAS from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _import_fairfleet():
    src = ROOT / "src"
    if not (src / "fairfleet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fairfleet sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import fairfleet

    if Path(fairfleet.__file__).resolve().parent != (src / "fairfleet").resolve():
        sys.exit(f"perfbench: imported fairfleet from {fairfleet.__file__}, not {src}")


# The parent's imports, repeated in a fresh interpreter: sys.path as
# _import_fairfleet sets it, then the modules main() imports.
_IMPORTS = """import sys, time
start = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import fairfleet, tracing, workloads
print(time.perf_counter() - start)
"""


def _child_imports_s() -> float:
    """Seconds a fresh interpreter takes for the benchmark's imports."""
    import subprocess

    code = _IMPORTS.format(bench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _provenance(seed: int) -> dict:
    import platform
    import subprocess

    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_fairfleet()
    import json
    import resource
    import shutil
    import statistics

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(WORKLOADS)}")
    imports_s = time.perf_counter() - PROCESS_START
    workload = WORKLOADS[args.workload](args.seed)
    out_root = ROOT / ".bench_out"
    work_dir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    rec = tracing.Recorder()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # Set-up: the imports (timed above and in fresh interpreters) and
        # the workload's input building, each repeated; set-up time is
        # the sum of the two medians.
        rec.install(full=bool(args.trace))
        prepare_s = []
        generate_s = []
        for _ in range(SETUP_REPEATS):
            rec.reset()
            t0 = time.perf_counter()
            workload.prepare(work_dir)
            prepare_s.append(time.perf_counter() - t0)
            generate_s.append(rec.outer_total("gen.generate"))
        imports = [imports_s] + [_child_imports_s() for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(imports) + statistics.median(prepare_s)
        rec.uninstall()

        rec.install(full=False)
        outcomes = []
        measure_start = time.perf_counter()
        while True:
            # Alternate the iterations between the CPUs: contention from
            # outside can slow one CPU for tens of seconds, and a segment's
            # fastest repeat should not depend on which one the process
            # happened to stay on.
            os.sched_setaffinity(0, {cpus[len(outcomes) % len(cpus)]})
            rec.reset()
            outcomes.append(workload.run(rec))
            # Start no iteration that would end after --seconds.
            elapsed = time.perf_counter() - measure_start
            if args.trace or elapsed + outcomes[-1].wall_s > args.seconds:
                break
        rec.uninstall()
        if args.trace:
            rec.reset()
            rec.install(full=True)
            traced = workload.run(rec)
            rec.uninstall()
            rec.write(out_root / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        os.sched_setaffinity(0, cpus)
        rec.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [p for o in outcomes for p in o.problems]
    first = outcomes[0]
    for o in outcomes[1:]:
        if (o.quality, o.digest) != (first.quality, first.digest):
            problems.append("repeated iteration changed quality or artifacts")
        if (len(o.marks), o.ticks) != (len(first.marks), first.ticks):
            problems.append("repeated iteration changed its call sequence")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    # Every iteration replays the same inputs, so the segment between
    # two marks is the same work each time; each counts at its fastest
    # repeat, which filters out interference from other load on the
    # machine (see README.md).
    same = [o.marks for o in outcomes if len(o.marks) == len(first.marks)]
    clock = tracing.fast_clock(same)
    ticks = [clock[b] - clock[a] for a, b in first.ticks]
    # Inclusive: on maps_replay's small sample the default method sits
    # on the costliest tick.
    p90 = (statistics.quantiles(ticks, n=10, method="inclusive")[-1] if len(ticks) > 1
           else ticks[0])
    beyond_p90 = sum(t > p90 for t in ticks)
    if beyond_p90 < workload.min_beyond_p90:
        problems.append(f"only {beyond_p90} tick samples beyond p90")
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (clock[-1], "s"),
        "tick_ms_p50": (statistics.median(ticks) * 1000.0, "ms"),
        "tick_ms_p90": (p90 * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "total_throughput": (first.quality["total_throughput"], "tasks/min"),
        "jain": (first.quality["jain"], "1"),
        "min_xbar": (first.quality["min_xbar"], "tasks/min"),
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "settings": workload.settings,
        "provenance": _provenance(args.seed),
        "iterations": len(outcomes),
        "iteration_wall_s": [o.wall_s for o in outcomes],
        "segments": len(first.marks) - 1,
        "cpus": cpus,
        "tick_samples": len(ticks),
        "tick_samples_beyond_p90": beyond_p90,
        "failed_frac": failed / attempted if attempted else 0.0,
        "digest": first.digest,
        "extra": first.extra,
        "setup_prepare_s": prepare_s,
        "setup_imports_s": imports,
        "problems": problems,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if args.trace:
        if (traced.quality, traced.digest) != (first.quality, first.digest):
            problems.append("traced iteration changed quality or artifacts")
        problems.extend(traced.problems)
        layers = tracing.layer_metrics(rec)
        layers["gen.generate_s"] = statistics.median(generate_s)
        layers["trace.overhead_frac"] = traced.wall_s / first.wall_s - 1.0
        detail["traced"] = {"wall_s": traced.wall_s, "digest": traced.digest,
                            "quality": traced.quality}
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps(detail, sort_keys=True))
    with open(out_root / f"result-{workload.name}-{args.seed}-{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
