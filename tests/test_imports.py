"""SciPy stays off the planning path: only the oracle loads it.  The
path rules and the travel legs stay in `model`: no other module reads
what the rules check or computes a leg.  The commitment rules stay in
`vrp`, and the heuristic draws random numbers only by shuffling."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fairfleet

SRC = str(Path(fairfleet.__file__).resolve().parent.parent)


def fresh_interpreter(tmp_path, body):
    """Run `body` after `import fairfleet, fairfleet.cli` in a new
    interpreter, with `out` set to `tmp_path`; returns the JSON object
    the script prints last."""
    script = (
        "import json, sys\n"
        "import fairfleet, fairfleet.cli\n"
        "from fairfleet.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        f"{body}\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_planning_commands_never_import_scipy(tmp_path):
    result = fresh_interpreter(tmp_path, """
loaded = {"import": "scipy" in sys.modules}
assert main(["gen", "--preset", "map_a_small", "--rounds", "2", "--out", out + "/b"]) == 0
# A second vehicle, so that the dedicated policy can run too.
with open(out + "/b/vehicles.json") as fh:
    fleet = json.load(fh)
fleet.append(dict(fleet[0], vehicle_id="v1"))
with open(out + "/b/vehicles.json", "w") as fh:
    json.dump(fleet, fh)
cfg = out + "/b/config.json"
# alpha=2 rather than the preset's max-min 64: the search then takes
# the in-face optimum's log-sum-exp.
opts = ["--set", "solver.backend=heuristic", "--set", "alpha=2"]
assert main(["run", "--config", cfg, "--policy", "all", "--out", out + "/r", *opts]) == 0
assert main(["compare", "--config", cfg, "--out", out + "/c", *opts]) == 0
assert main(["boundary", "--config", cfg, "--out", out + "/d", *opts]) == 0
loaded["commands"] = "scipy" in sys.modules
print(json.dumps(loaded))
""")
    assert result == {"import": False, "commands": False}
    for name in ("summary.json", "metrics_mobius.csv", "events_dedicated.jsonl"):
        assert (tmp_path / "r" / name).is_file()
    assert (tmp_path / "c" / "comparison.csv").is_file()
    assert (tmp_path / "d" / "boundary.json").is_file()


def test_oracle_loads_scipy_on_use(tmp_path):
    result = fresh_interpreter(tmp_path, """
assert main(["gen", "--preset", "map_a_small", "--set", "n_each=3", "--out", out + "/t"]) == 0
before = "scipy" in sys.modules
rc = main(["oracle", "--config", out + "/t/config.json", "--out", out + "/o"])
print(json.dumps({"before": before, "rc": rc, "after": "scipy" in sys.modules}))
""")
    assert result == {"before": False, "rc": 0, "after": True}
    report = json.loads((tmp_path / "o" / "oracle.json").read_text())
    assert report["boundary_corners"]


def attribute_reads(path):
    """Names of the attributes a module reads, as `x.name`."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_path_rules_live_in_model_alone():
    """Capacity is read by `model` alone, and the oracle reads no
    deadline: both searches take their rules from `model.PathState`.
    Inside `PathState`, `_walk` alone reads what the rules check."""
    package = Path(fairfleet.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert {m.name for m in modules} >= {"model.py", "oracle.py", "vrp.py"}
    readers = [m.name for m in modules if "capacity" in attribute_reads(m)]
    assert readers == ["model.py"]
    assert "deadline" not in attribute_reads(package / "oracle.py")
    tree = ast.parse((package / "model.py").read_text(encoding="utf-8"))
    state = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "PathState")
    rules = {"deadline", "capacity", "service_time", "return_home"}
    readers = [method.name for method in state.body if isinstance(method, ast.FunctionDef)
               and rules & {node.attr for node in ast.walk(method)
                            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}]
    assert readers == ["_walk"]


def test_only_model_turns_points_into_seconds():
    """No module but `model` calls `hypot`, from `math` or NumPy, or reads
    a travel model's private `_lookup`: every leg comes from
    `model.travel_time`."""
    package = Path(fairfleet.__file__).resolve().parent
    readers = []
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        if {"hypot", "_lookup"} & (names | attribute_reads(module)):
            readers.append(module.name)
    assert readers == ["model.py"]


def package_modules():
    """The package's modules but `__init__.py`, with their parsed trees."""
    package = Path(fairfleet.__file__).resolve().parent
    return {m.name: ast.parse(m.read_text(encoding="utf-8"))
            for m in sorted(package.glob("*.py")) if m.name != "__init__.py"}


def test_path_states_are_built_in_the_loops_alone():
    """Only `model`, the oracle, `vrp.construct` and `vrp.exact_vrp`
    build a `PathState`: the constructive loops share `construct`."""
    builders = {}
    for name, tree in package_modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "PathState"):
                    builders.setdefault(name, set()).add(getattr(top, "name", None))
    assert set(builders) <= {"model.py", "oracle.py", "vrp.py"}
    assert builders["vrp.py"] == {"construct", "exact_vrp"}
    assert "emulator.py" not in builders


def test_commit_weight_is_read_in_vrp_alone():
    """Callers give commitments to the round's `RoundTable`; only `vrp`
    turns one into a weight."""
    readers = sorted(
        name for name, tree in package_modules().items()
        if any(isinstance(node, ast.Name) and node.id == "COMMIT_WEIGHT_RATIO"
               or isinstance(node, ast.Attribute) and node.attr == "COMMIT_WEIGHT_RATIO"
               or isinstance(node, ast.alias) and node.name == "COMMIT_WEIGHT_RATIO"
               for node in ast.walk(tree))
    )
    assert readers == ["vrp.py"]


def test_heuristic_draws_only_by_shuffling():
    """`vrp` reads `_Heuristic.rng` only as `rng.shuffle(...)`.  A local
    search scan that the round table already knows void is skipped while
    its pass still shuffles; that keeps the random stream only because a
    shuffle's draws depend on nothing but the list's length."""
    tree = package_modules()["vrp.py"]
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "rng"
             and isinstance(node.ctx, ast.Load)]
    assert reads
    for node in reads:
        method = parent[node]
        assert isinstance(method, ast.Attribute) and method.attr == "shuffle", node.lineno
        call = parent[method]
        assert isinstance(call, ast.Call) and call.func is method, node.lineno


def test_every_import_is_used():
    """Each top-level name a module imports is read in that module."""
    unused = []
    for name, tree in package_modules().items():
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add((alias.asname or alias.name).split(".")[0])
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{name}: {n}" for n in sorted(imported - read))
    assert unused == []


def innermost_functions(tree):
    """Each node's innermost enclosing function name (None at top level)."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_local_search_charges_and_moves_in_one_place():
    """In `vrp`, `evals` is assigned only in `_Heuristic.__init__` and
    `_charge`, and `_assign` is called only where a path is first built
    (`_state`), where insertion grows it (`_insertion_phase`) and where
    the local search accepts a move (`_take`)."""
    tree = package_modules()["vrp.py"]
    owner = innermost_functions(tree)
    writers = {owner[node] for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "evals"
               and isinstance(node.ctx, ast.Store)}
    callers = {owner[node] for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "_assign"}
    assert writers == {"__init__", "_charge"}
    assert callers == {"_state", "_insertion_phase", "_take"}


def callers_of(name):
    """The package scopes, as `module.Class.function`, that call `name`
    by its bare name or as an attribute."""
    callers = set()

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id == name
                    or isinstance(child.func, ast.Attribute) and child.func.attr == name):
                callers.add(module + scope)
            visit(module, child, inner)

    for module, tree in package_modules().items():
        visit(module.removesuffix(".py"), tree, "")
    return callers


def test_round_tables_are_built_once_per_round():
    """A request carries its round's `RoundTable`, so no solve builds a
    table of its own: the package builds one only in
    `RoundSolver.__init__`, in `greedy_alpha_heuristic` and in
    `emulator.baseline_max_throughput`."""
    assert callers_of("RoundTable") == {
        "vrp.RoundSolver.__init__", "vrp.greedy_alpha_heuristic",
        "emulator.baseline_max_throughput"}


def test_requests_are_built_in_vrp_and_the_baseline_alone():
    """Outside `vrp`, only the max-throughput baseline builds a
    `SolverRequest`: every other solve is a `RoundSolver` call."""
    outside = {c for c in callers_of("SolverRequest") if not c.startswith("vrp.")}
    assert outside == {"emulator.baseline_max_throughput"}


def test_floors_are_vetted_in_one_place():
    """A warm start is vetted once per round, when `RoundSolver` takes it
    as a floor; no solve vets one again."""
    assert callers_of("vet") == {"vrp.RoundSolver.__init__"}


def test_the_fleet_is_split_for_the_dedicated_baseline_alone():
    """No solve splits the fleet by customer: only the dedicated
    baseline calls `dedicated_partition`, which lives beside it."""
    assert callers_of("dedicated_partition") == {"emulator.baseline_dedicated"}


def test_warm_start_suite_is_built_in_one_place():
    """Only `RoundSolver.__init__` builds the warm-start suite, and only
    when given no warm starts, so a replan that carries its plan skips
    it."""
    assert callers_of("build_warm_start_suite") == {"vrp.RoundSolver.__init__"}


def test_pool_side_is_chosen_in_one_place():
    """`vrp._SMALL_POOL` is read in `_Pool.__init__` alone, which picks a
    pool's side from its candidate count, and the list side's functions
    (named `*_lists`) read no NumPy name, so small pools make no array
    call."""
    tree = package_modules()["vrp.py"]
    pool = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Pool")
    init = next(node for node in pool.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    in_init = set(ast.walk(init))
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_SMALL_POOL"
             and isinstance(node.ctx, ast.Load)]
    assert reads and all(node in in_init for node in reads)
    list_side = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name.endswith("_lists")]
    assert {f.name for f in list_side} == {"_screen_lists", "_order_lists"}
    for f in list_side:
        names = {node.id for node in ast.walk(f) if isinstance(node, ast.Name)}
        assert not names & {"np", "numpy"}, f.name


def test_plans_are_timed_where_committed():
    """A planned path is its task order: inside the package only
    `emulator._commit` calls `path_times`, to time the one plan it
    commits, so no solve times the paths it returns."""
    assert callers_of("path_times") == {"emulator._commit"}


def test_counted_solves_pass_the_facade():
    """A counted solve reaches the backend only through `RoundSolver.solve`,
    which returns a result of its round serving every task its backend
    can place without searching again; the max-throughput baseline solves
    outside any round."""
    assert callers_of("solve_weighted_vrp") == {
        "vrp.RoundSolver.solve", "emulator.baseline_max_throughput"}


def test_riders_on_board_are_exempted_in_one_place():
    """Besides the path rules' walks in `exact_vrp` and the oracle, only
    `RoundSolver.__init__` reads `riders_on_board`: it leaves riders'
    dropoffs, which no heuristic schedule holds, out of the tasks a
    heuristic-backed round can place.  Once a rider's dropoff is a step
    of their vehicle, the exemption goes from that one place."""
    assert callers_of("riders_on_board") == {
        "vrp.exact_vrp", "oracle._vehicle_feasible_orders", "vrp.RoundSolver.__init__"}
