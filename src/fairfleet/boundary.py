"""Convex-boundary search over feasible throughput allocations.

The feasible allocations of one round form a convex-boundary region in
customer-throughput space.  Rather than enumerate it, the search walks
its upper (Pareto) boundary: start from the per-customer basis solves,
fit the hyperplane through the current corners, ask the weighted-VRP
solver to push past that hyperplane, and recurse into the one candidate
face whose analytic fairness optimum falls inside it.  Each stage after
initialization costs exactly one solver call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fairness import is_leximin, utility_key
from .model import Schedule

logger = logging.getLogger(__name__)

TOL_EXT = 1e-6
TOL_FACE = 1e-9
TOL_BARY = 1e-6
MAX_STAGES = 64


class EmptyRoundError(RuntimeError):
    """No customer has any feasible task this round."""


class DegenerateFaceError(ValueError):
    """Corner set is affinely dependent; no unique face through it."""


@dataclass(frozen=True)
class Face:
    """A candidate boundary facet: the hyperplane w . x = c through one
    allocation corner per retained customer, with the schedule that
    produced each corner.  `active` maps corner dimensions back to
    indices in the round's full customer list."""

    corners: tuple[np.ndarray, ...]
    w: np.ndarray
    c: float
    schedules: tuple[Schedule, ...]
    active: tuple[int, ...]
    degenerate: bool = False

    def __post_init__(self) -> None:
        for x in self.corners:
            if abs(float(np.dot(self.w, x)) - self.c) > TOL_FACE * max(1.0, abs(self.c)) * 1e3:
                if not self.degenerate:
                    raise ValueError("corner off its own face plane")

    @property
    def dim(self) -> int:
        return len(self.active)


def _face_system(corners: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Linear system in (w, c): w . x_i - c = 0 for every corner and
    sum(w) = 1."""
    pts = [np.asarray(p, dtype=float) for p in corners]
    if not pts:
        raise ValueError("no corners")
    k = len(pts[0])
    m = np.zeros((len(pts) + 1, k + 1))
    rhs = np.zeros(len(pts) + 1)
    for i, p in enumerate(pts):
        m[i, :k] = p
        m[i, k] = -1.0
    m[len(pts), :k] = 1.0
    rhs[len(pts)] = 1.0
    return m, rhs


def face_weights(corners: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """Weights and offset of the hyperplane through `corners`.

    Solves w . x_i = c for all corners under the normalization
    sum(w) = 1.  Raises DegenerateFaceError when the corners are
    affinely dependent (singular or badly conditioned system).
    """
    m, rhs = _face_system(corners)
    try:
        if np.linalg.cond(m) > 1e12:
            raise DegenerateFaceError("affinely dependent corners")
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFaceError(str(exc)) from exc
    return sol[:-1], float(sol[-1])


def make_face(
    corners: Sequence[np.ndarray],
    schedules: Sequence[Schedule],
    active: Sequence[int],
) -> Face:
    """Face through `corners`, least-squares-fitted and flagged when the
    corner set is affinely dependent."""
    corners = tuple(np.asarray(p, dtype=float) for p in corners)
    try:
        w, c = face_weights(corners)
        degenerate = False
    except DegenerateFaceError:
        sol, *_ = np.linalg.lstsq(*_face_system(corners), rcond=None)
        w, c = sol[:-1], float(sol[-1])
        degenerate = True
    return Face(
        corners=corners,
        w=w,
        c=c,
        schedules=tuple(schedules),
        active=tuple(active),
        degenerate=degenerate,
    )


def init_face(customers: Sequence[str], solver) -> Face:
    """Initial face from one basis-weight solver call per customer.

    Customer k's call maximizes x_k alone; customers whose own best
    throughput is zero are dropped from the geometry for the round.  A
    single surviving customer gives the one-corner face w = (1,).
    Raises EmptyRoundError when every customer is infeasible.
    """
    customers = tuple(customers)
    k = len(customers)
    if k == 0:
        raise ValueError("init_face needs at least one customer")
    allocations: list[np.ndarray] = []
    schedules: list[Schedule] = []
    for i in range(k):
        e = np.zeros(k)
        e[i] = 1.0
        alloc, sched = solver.solve(e)
        allocations.append(np.asarray(alloc, dtype=float))
        schedules.append(sched)
    active = tuple(i for i in range(k) if allocations[i][i] > 0)
    if not active:
        raise EmptyRoundError("no feasible task for any customer")
    corners = [allocations[i][list(active)] for i in active]
    kept_schedules = [schedules[i] for i in active]
    if len(active) == 1:
        x = corners[0]
        return Face(
            corners=(x,),
            w=np.array([1.0]),
            c=float(x[0]),
            schedules=tuple(kept_schedules),
            active=active,
        )
    return make_face(corners, kept_schedules, active)


def is_valid_extension(face: Face, x_hat: np.ndarray, discovered: Sequence[Face]) -> bool:
    """True iff x_hat lies strictly above `face` and on-or-below every
    other discovered face.  Lying above a second face indicates
    heuristic-solver noise; the extension is rejected with a warning."""
    x_hat = np.asarray(x_hat, dtype=float)
    if float(np.dot(face.w, x_hat)) <= face.c * (1.0 + TOL_EXT):
        return False
    for other in discovered:
        if other is face:
            continue
        if len(other.w) != len(x_hat):
            continue
        if float(np.dot(other.w, x_hat)) > other.c * (1.0 + TOL_EXT):
            logger.warning(
                "extension %s lies above a second discovered face; rejected",
                np.array_str(x_hat, precision=6),
            )
            return False
    return True


def opt_in_face(face: Face, alpha: float) -> tuple[Optional[np.ndarray], bool]:
    """Fairness optimum on the face's hyperplane and whether it falls
    inside the face.

    For 0 < alpha <= the max-min threshold the stationary point of the
    fairness objective on w . x = c is

        x_k* = (lambda w_k)^(-1/alpha),
        lambda = [c / sum_j w_j^(1 - 1/alpha)]^(-alpha),

    evaluated in log space.  In max-min mode the optimum is the equal
    allocation (c/sum(w), ..., c/sum(w)), the plane's max-min point.
    Nonpositive weights or offset admit no real stationary point:
    returns (None, False).  `inside` tests the barycentric coordinates
    of x* with respect to the corners, by least squares so degenerate
    faces still resolve.
    """
    w = np.asarray(face.w, dtype=float)
    c = face.c
    if c <= 0 or np.any(w <= 0):
        return None, False
    k = len(w)
    if is_leximin(alpha):
        x_star = np.full(k, c / float(np.sum(w)))
    else:
        if alpha <= 0:
            raise ValueError("alpha must be > 0 for the stationary point")
        log_w = np.log(w)
        log_s = _logsumexp((1.0 - 1.0 / alpha) * log_w)
        log_lambda = -alpha * (math.log(c) - log_s)
        log_x = -(log_lambda + log_w) / alpha
        x_star = np.exp(log_x)
    return x_star, _inside(face, x_star)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a finite 1-D array, step for step as
    `scipy.special.logsumexp` computes it in SciPy 1.17.1 (after
    Blanchard, Higham and Higham, IMA J. Numer. Anal. 41(4), 2021): the
    maxima are split off the sum and counted.  Matching it bit for bit
    keeps the boundary artifacts what they were with SciPy, and the
    planner does not pay SciPy's import."""
    a_max = np.max(a)
    at_max = a == a_max
    m = np.sum(at_max, dtype=np.float64)
    s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def _inside(face: Face, point: np.ndarray) -> bool:
    """Barycentric membership of `point` in the corner simplex."""
    k = len(face.corners)
    dim = len(point)
    a = np.zeros((dim + 1, k))
    for j, corner in enumerate(face.corners):
        a[:dim, j] = corner
    a[dim, :] = 1.0
    b = np.append(point, 1.0)
    coords, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = np.linalg.norm(a @ coords - b)
    if residual > 1e-6 * max(1.0, float(np.linalg.norm(b))):
        return False
    return bool(np.all(coords >= -TOL_BARY) and np.all(coords <= 1.0 + TOL_BARY))


def embed(face: Face, x: np.ndarray, full_dim: int) -> np.ndarray:
    """`x`, given over the face's active dimensions, in all `full_dim`."""
    out = np.zeros(full_dim)
    for j, idx in enumerate(face.active):
        out[idx] = x[j]
    return out


def _extend(face: Face, w: np.ndarray, solver) -> tuple[np.ndarray, Schedule]:
    """One solver call at face weights `w`; the allocation comes back
    projected onto the face's active dimensions."""
    alloc, sched = solver.solve(embed(face, w, len(solver.customers)))
    return np.asarray(alloc, dtype=float)[list(face.active)], sched


def _replace_corner(face: Face, i: int, x_hat: np.ndarray, sched: Schedule) -> Face:
    """The face through `face`'s corners with corner i replaced by x_hat."""
    corners = list(face.corners)
    schedules = list(face.schedules)
    corners[i] = x_hat
    schedules[i] = sched
    return make_face(corners, schedules, face.active)


def search_boundary(
    initial: Face,
    alpha: float,
    solver,
    max_stages: int = MAX_STAGES,
) -> Face:
    """Walk the boundary from `initial` to the face holding the fairness
    optimum.

    Each stage issues one solver call with the current face weights.  A
    valid extension spawns one candidate face per corner (that corner
    replaced by the extension point); the search recurses into the
    unique candidate whose analytic optimum lies inside it.  Zero inside
    candidates (numerical degeneracy) fall back to the max-utility
    centroid; multiple inside candidates to max utility at the analytic
    optimum; both are logged.  At alpha = 0 the fairness objective is
    total throughput, so a single uniform-weight stage suffices.
    """
    if initial.dim < 2:
        return initial

    if alpha == 0:
        k = initial.dim
        x_hat, sched = _extend(initial, np.full(k, 1.0 / k), solver)
        totals = [float(np.sum(p)) for p in initial.corners]
        if float(np.sum(x_hat)) <= max(totals):
            return initial
        return _replace_corner(initial, int(np.argmin(totals)), x_hat, sched)

    face = initial
    discovered = [initial]
    for _ in range(max_stages):
        x_hat, sched = _extend(face, face.w, solver)
        if not is_valid_extension(face, x_hat, discovered):
            return face

        candidates = [_replace_corner(face, i, x_hat, sched) for i in range(face.dim)]

        inside = []
        for cand in candidates:
            x_star, ok = opt_in_face(cand, alpha)
            if ok:
                inside.append((cand, x_star))
        if len(inside) == 1:
            face = inside[0][0]
        elif not inside:
            logger.warning("no candidate face holds the optimum; centroid fallback")
            face = max(
                candidates,
                key=lambda f: utility_key(np.mean(np.stack(f.corners), axis=0), alpha),
            )
        else:
            logger.warning("%d candidate faces hold the optimum; utility fallback", len(inside))
            face = max(inside, key=lambda pair: utility_key(pair[1], alpha))[0]
        discovered.append(face)
    return face


def full_boundary(
    customers: Sequence[str],
    solver,
    alpha: float = 1.0,
    max_faces: int = 256,
) -> tuple[list[np.ndarray], list[Face], Optional[np.ndarray]]:
    """Construct the whole upper boundary by extending in all directions.

    Unlike search_boundary, every extendable face is split and both
    shards kept, until no face admits a valid extension.  Returns the
    deduplicated corner list (lexicographic order), the final faces, and
    the fairness target (best clipped face optimum for `alpha`).
    """
    initial = init_face(customers, solver)
    if initial.dim < 2:
        target = initial.corners[0]
        return [initial.corners[0]], [initial], target

    final: list[Face] = []
    queue: list[Face] = [initial]
    discovered: list[Face] = [initial]
    while queue and len(final) + len(queue) < max_faces:
        face = queue.pop(0)
        x_hat, sched = _extend(face, face.w, solver)
        if not is_valid_extension(face, x_hat, discovered):
            final.append(face)
            continue
        for i in range(face.dim):
            cand = _replace_corner(face, i, x_hat, sched)
            if cand.degenerate or cand.c <= 0:
                continue
            queue.append(cand)
            discovered.append(cand)
    final.extend(queue)

    seen: dict[tuple, np.ndarray] = {}
    for f in final:
        for p in f.corners:
            key = tuple(np.round(p, 9))
            seen.setdefault(key, p)
    corners = [seen[k] for k in sorted(seen)]

    best_key = None
    target: Optional[np.ndarray] = None
    for f in final:
        x_star, ok = opt_in_face(f, alpha)
        cands = [x_star] if ok and x_star is not None else list(f.corners)
        for x in cands:
            key = utility_key(x, alpha)
            if best_key is None or key > best_key:
                best_key = key
                target = x
    return corners, final, target
