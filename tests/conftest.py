"""Shared builders and independent brute-force checkers for the suite."""

import itertools

import numpy as np

from fairfleet.model import Instance, Task, TravelModel, Vehicle, path_violation

EUCLID = TravelModel.euclidean()


def mk_task(tid, customer, x, y, service=10.0, **kw):
    return Task(
        task_id=tid,
        customer_id=customer,
        location=(x, y),
        service_time=service,
        **kw,
    )


def mk_vehicle(vid="v0", x=0.0, y=0.0, speed=10.0, **kw):
    return Vehicle(vehicle_id=vid, start_location=(x, y), speed=speed, **kw)


def random_instance(
    rng,
    max_tasks=8,
    max_vehicles=2,
    span=1200.0,
    budget=None,
    allow_pairs=False,
    deadlines=False,
):
    """Small random planning instance.

    Coordinates stay within `span` of the origin and vehicles near it, so
    with the default budget every task is individually reachable and no
    round is empty.  With `deadlines`, about two in five plain tasks must
    be served within 60-400 s of the round start.
    """
    k = int(rng.integers(2, 4))
    n_tasks = int(rng.integers(k, max_tasks + 1))
    n_veh = int(rng.integers(1, max_vehicles + 1))
    customers = [f"c{j + 1}" for j in range(k)]
    tasks = []
    t = 0
    while t < n_tasks:
        cust = customers[t % k] if t < k else customers[int(rng.integers(0, k))]
        x, y = rng.uniform(-span, span, 2)
        service = float(rng.uniform(5, 40))
        if allow_pairs and t + 1 < n_tasks and rng.random() < 0.25:
            px, py = rng.uniform(-span, span, 2)
            tasks.append(
                Task(
                    task_id=f"t{t:02d}",
                    customer_id=cust,
                    location=(float(x), float(y)),
                    service_time=service,
                    pickup_of=f"t{t + 1:02d}",
                )
            )
            tasks.append(
                Task(
                    task_id=f"t{t + 1:02d}",
                    customer_id=cust,
                    location=(float(px), float(py)),
                    service_time=float(rng.uniform(5, 40)),
                    dropoff_of=f"t{t:02d}",
                )
            )
            t += 2
            continue
        due = float(rng.uniform(60, 400)) if deadlines and rng.random() < 0.4 else None
        tasks.append(mk_task(f"t{t:02d}", cust, float(x), float(y), service, deadline=due))
        t += 1
    vehicles = [
        Vehicle(
            vehicle_id=f"v{v}",
            start_location=(
                float(rng.uniform(-400, 400)),
                float(rng.uniform(-400, 400)),
            ),
            speed=10.0,
            return_home=bool(rng.integers(0, 2)),
            capacity=int(rng.integers(1, 3)) if allow_pairs else 1,
        )
        for v in range(n_veh)
    ]
    b = float(rng.uniform(350, 650)) if budget is None else budget
    return Instance(tasks=tuple(tasks), vehicles=tuple(vehicles), travel=EUCLID, budget=b)


def ride_instance(rng, max_tasks=5, max_vehicles=2):
    """Small random instance with the hard cases of the path rules.

    Plain tasks and pickup/dropoff pairs, deadlines on some, vehicles of
    capacity 1 or 2 that may return home or start late, a round that
    may start at 600 s, and budgets of 60-250 s; travel is Euclidean or
    an asymmetric matrix.
    """
    round_start = float(rng.choice([0.0, 600.0]))
    k = int(rng.integers(1, 4))
    n_tasks = int(rng.integers(1, max_tasks + 1))
    n_veh = int(rng.integers(1, max_vehicles + 1))
    pts = [(float(x), float(y))
           for x, y in np.round(rng.uniform(-500, 500, (n_tasks + n_veh, 2)), 1)]
    if rng.random() < 0.4:
        arr = np.array(pts)
        base = np.hypot(arr[:, None, 0] - arr[None, :, 0], arr[:, None, 1] - arr[None, :, 1])
        seconds = np.round(base / 10.0 * rng.uniform(0.6, 1.5, base.shape), 3)
        np.fill_diagonal(seconds, 0.0)
        travel = TravelModel.matrix([f"{x};{y}" for x, y in pts], seconds)
    else:
        travel = EUCLID

    def deadline():
        return round_start + float(rng.uniform(30, 250)) if rng.random() < 0.3 else None

    tasks = []
    t = 0
    while t < n_tasks:
        cust = f"c{t % k + 1}"
        service = float(rng.uniform(0, 20))
        if t + 1 < n_tasks and rng.random() < 0.5:
            tasks.append(Task(f"t{t:02d}", cust, pts[t], service, deadline=deadline(),
                              pickup_of=f"t{t + 1:02d}"))
            tasks.append(Task(f"t{t + 1:02d}", cust, pts[t + 1], float(rng.uniform(0, 20)),
                              deadline=deadline(), dropoff_of=f"t{t:02d}"))
            t += 2
        else:
            tasks.append(Task(f"t{t:02d}", cust, pts[t], service, deadline=deadline()))
            t += 1
    vehicles = tuple(
        Vehicle(f"v{v}", pts[n_tasks + v], speed=10.0, capacity=int(rng.integers(1, 3)),
                return_home=bool(rng.integers(0, 2)),
                ready_offset=float(rng.choice([0.0, 0.0, 25.0])))
        for v in range(n_veh)
    )
    return Instance(tasks=tuple(tasks), vehicles=vehicles, travel=travel,
                    budget=float(rng.uniform(60, 250)), round_start=round_start)


def brute_best_value(instance, weights, ride_counts_as=1):
    """Best weighted objective over every assignment and visit order.

    Independent of the solvers: plain itertools enumeration with
    path_violation as the only feasibility authority.  The objective of a
    task set does not depend on order, so each vehicle's set only needs
    one feasible permutation to count.  Exponential; keep instances tiny.
    """
    customers = instance.customers
    cindex = {c: i for i, c in enumerate(customers)}
    minutes = instance.budget / 60.0

    def task_value(task):
        if task.is_pickup:
            return 0.0 if ride_counts_as == 1 else 1.0
        if task.is_dropoff:
            return float(ride_counts_as) if ride_counts_as == 1 else 1.0
        return 1.0

    def set_feasible(veh, task_list):
        for order in itertools.permutations(task_list):
            if path_violation(order, veh, instance.travel, instance.budget,
                              instance.round_start) is None:
                return True
        return False

    n = len(instance.tasks)
    vehicles = instance.vehicles
    best = 0.0
    for assign in itertools.product(range(len(vehicles) + 1), repeat=n):
        groups = [[] for _ in vehicles]
        value = 0.0
        for ti, vi in enumerate(assign):
            if vi == len(vehicles):
                continue
            task = instance.tasks[ti]
            groups[vi].append(task)
            value += weights[cindex[task.customer_id]] * task_value(task) / minutes
        if value <= best:
            continue
        if all(set_feasible(v, g) for v, g in zip(vehicles, groups)):
            best = value
    return best


def construction_instances():
    """Named (instance, pins) for the constructive loops' golden schedules.

    * ``ties``: one vehicle on a 100 m lattice, so many candidates are
      equally far; ``a1`` is 4e-13 s farther than ``a2`` from the start,
      inside the 1e-12 s tie tolerance.  The budget runs out.
    * ``pins_deadlines``: three vehicles (one late-ready, one returning
      home, two speeds) in a round that starts at 1200 s, with deadlines
      on every third task and pins.
    * ``pairs``: pickup/dropoff pairs on capacity-1 and capacity-2
      vehicles among plain tasks, dropoff deadlines, a tight budget.
    * ``matrix``: asymmetric matrix travel with a pin.
    """
    out = {}

    tasks = [mk_task("a1", "c1", 100.0 + 4e-12, 0.0), mk_task("a2", "c1", 0.0, 100.0)]
    for i, (x, y) in enumerate([(100, 100), (-100, 0), (0, -100), (-100, -100),
                                (200, 0), (0, 200)]):
        tasks.append(mk_task(f"a{i + 3}", "c1", float(x), float(y)))
    for i, (x, y) in enumerate([(-100, 100), (100, -100), (200, 100), (-200, 0),
                                (0, -200), (300, 300), (-300, 0)]):
        tasks.append(mk_task(f"b{i}", "c2", float(x), float(y), service=5.0))
    out["ties"] = (Instance(tasks=tuple(tasks), vehicles=(mk_vehicle(),), travel=EUCLID,
                            budget=230.0), None)

    rng = np.random.default_rng(404)
    tasks = []
    for i in range(24):
        x, y = (float(v) for v in np.round(rng.uniform(-1200, 1200, 2), 1))
        deadline = 1200.0 + float(np.round(rng.uniform(120, 500), 1)) if i % 3 == 0 else None
        tasks.append(mk_task(f"d{i:02d}", f"c{i % 3 + 1}", x, y, service=float(5 + i % 5 * 6),
                             arrival_time=1000.0, deadline=deadline))
    vehicles = (
        Vehicle("fast", (100.0, -50.0), speed=14.0, return_home=True),
        Vehicle("late", (0.0, 0.0), speed=9.0, ready_offset=45.0),
        Vehicle("slow", (-300.0, 200.0), speed=7.0),
    )
    pins = {"d01": "slow", "d05": "late", "d09": "fast", "d14": "slow"}
    out["pins_deadlines"] = (Instance(tasks=tuple(tasks), vehicles=vehicles, travel=EUCLID,
                                      budget=480.0, round_start=1200.0), pins)

    rng = np.random.default_rng(505)
    tasks = []
    for i in range(7):
        px, py, dx, dy = (float(v) for v in np.round(rng.uniform(-900, 900, 4), 1))
        cust = f"c{i % 2 + 1}"
        tasks.append(mk_task(f"p{i}", cust, px, py, service=20.0, pickup_of=f"q{i}"))
        tasks.append(mk_task(f"q{i}", cust, dx, dy, service=15.0, dropoff_of=f"p{i}",
                             deadline=400.0 if i % 3 == 1 else None))
    for i in range(6):
        x, y = (float(v) for v in np.round(rng.uniform(-900, 900, 2), 1))
        tasks.append(mk_task(f"s{i}", f"c{i % 2 + 1}", x, y, service=12.0))
    vehicles = (Vehicle("r0", (0.0, 0.0), capacity=1, return_home=True),
                Vehicle("r1", (250.0, -250.0), capacity=2))
    out["pairs"] = (Instance(tasks=tuple(tasks), vehicles=vehicles, travel=EUCLID,
                             budget=700.0), None)

    rng = np.random.default_rng(606)
    pts = [(float(x), float(y)) for x, y in np.round(rng.uniform(-800, 800, (16, 2)), 1)]
    arr = np.array(pts)
    base = np.hypot(arr[:, None, 0] - arr[None, :, 0], arr[:, None, 1] - arr[None, :, 1]) / 9.0
    seconds = np.round(base * rng.uniform(0.8, 1.4, base.shape), 3)
    np.fill_diagonal(seconds, 0.0)
    travel = TravelModel.matrix([f"{x};{y}" for x, y in pts], seconds)
    tasks = tuple(mk_task(f"m{i:02d}", f"c{i % 2 + 1}", *pts[i], service=float(5 + i % 4 * 5))
                  for i in range(14))
    vehicles = (Vehicle("v0", pts[14]), Vehicle("v1", pts[15]))
    out["matrix"] = (Instance(tasks=tasks, vehicles=vehicles, travel=travel, budget=360.0),
                     {"m03": "v1"})
    return out
