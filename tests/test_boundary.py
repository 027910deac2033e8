"""Boundary geometry: faces, analytic optima, and the search walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import mk_vehicle
from fairfleet.boundary import (
    DegenerateFaceError,
    EmptyRoundError,
    Face,
    face_weights,
    full_boundary,
    init_face,
    is_valid_extension,
    make_face,
    opt_in_face,
    search_boundary,
    _logsumexp,
)
from fairfleet.model import Instance, empty_schedule
from fairfleet.vrp import RoundSolver, SolverConfig

DUMMY = empty_schedule([mk_vehicle()], 600.0)


def basis_face(w, c):
    """Face on the plane w . x = c whose corners are the axis points."""
    w = np.asarray(w, dtype=float)
    k = len(w)
    corners = tuple((c / w[i]) * np.eye(k)[i] for i in range(k))
    return Face(corners=corners, w=w, c=float(c),
                schedules=(DUMMY,) * k, active=tuple(range(k)))


class ScriptedSolver:
    """Canned responses: one-hot weights return the matching basis
    allocation; anything else pops the next scripted extension (the last
    entry repeats once the script runs out)."""

    def __init__(self, basis, extensions):
        self.customers = tuple(f"c{i + 1}" for i in range(len(basis)))
        self.basis = [np.asarray(b, dtype=float) for b in basis]
        self.extensions = [np.asarray(e, dtype=float) for e in extensions]
        self.calls = 0
        self._next = 0

    def solve(self, weights):
        self.calls += 1
        w = np.asarray(weights, dtype=float)
        positive = np.nonzero(w > 0)[0]
        if len(positive) == 1:
            return self.basis[positive[0]], DUMMY
        i = min(self._next, len(self.extensions) - 1)
        self._next += 1
        return self.extensions[i], DUMMY


class TestFaceWeights:
    def test_symmetric_corners(self):
        w, c = face_weights([np.array([2.0, 0.0]), np.array([0.0, 2.0])])
        assert w == pytest.approx([0.5, 0.5])
        assert c == pytest.approx(1.0)

    def test_asymmetric_corners(self):
        # Derived by hand: w1*1 = c, w2*2 = c, w1 + w2 = 1.
        w, c = face_weights([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        assert w == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        assert c == pytest.approx(2.0 / 3.0)

    def test_three_corners(self):
        corners = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
        w, c = face_weights(corners)
        assert w == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert c == pytest.approx(1 / 3)

    def test_degenerate_corners_raise(self):
        with pytest.raises(DegenerateFaceError):
            face_weights([np.array([1.0, 1.0]), np.array([1.0, 1.0])])

    def test_make_face_flags_degenerate(self):
        f = make_face([np.array([1.0, 1.0]), np.array([1.0, 1.0])],
                      [DUMMY, DUMMY], (0, 1))
        assert f.degenerate

    def test_corner_off_plane_rejected(self):
        with pytest.raises(ValueError, match="off its own face"):
            Face(corners=(np.array([5.0, 5.0]),), w=np.array([1.0, 1.0]), c=1.0,
                 schedules=(DUMMY,), active=(0, 1))


class TestInitFace:
    def test_basis_corners(self):
        solver = ScriptedSolver([(1.0, 0.2), (0.1, 0.9)], [])
        face = init_face(("c1", "c2"), solver)
        assert solver.calls == 2
        assert face.active == (0, 1)
        assert np.allclose(face.corners[0], [1.0, 0.2])
        assert np.allclose(face.corners[1], [0.1, 0.9])

    def test_zero_customer_dropped_from_geometry(self):
        solver = ScriptedSolver([(1.0, 0, 0.2), (0, 0, 0), (0.1, 0, 0.9)], [])
        face = init_face(("c1", "c2", "c3"), solver)
        assert face.active == (0, 2)
        assert face.dim == 2
        # corners are projected onto the active dimensions
        assert np.allclose(face.corners[0], [1.0, 0.2])

    def test_all_zero_raises_empty_round(self):
        solver = ScriptedSolver([(0.0, 0.0), (0.0, 0.0)], [])
        with pytest.raises(EmptyRoundError):
            init_face(("c1", "c2"), solver)

    def test_single_survivor_is_point_face(self):
        solver = ScriptedSolver([(1.5, 0.0), (0.0, 0.0)], [])
        face = init_face(("c1", "c2"), solver)
        assert face.dim == 1 and face.active == (0,)
        assert face.c == pytest.approx(1.5)

    def test_one_customer_is_point_face_after_one_call(self):
        solver = ScriptedSolver([(0.7,)], [])
        face = init_face(("c1",), solver)
        assert solver.calls == 1
        assert face.active == (0,) and face.dim == 1
        assert len(face.corners) == 1 and face.corners[0] == pytest.approx([0.7])
        assert face.w == pytest.approx([1.0]) and face.c == pytest.approx(0.7)
        assert face.schedules == (DUMMY,)

    def test_one_customer_zero_raises_empty_round(self):
        solver = ScriptedSolver([(0.0,)], [])
        with pytest.raises(EmptyRoundError):
            init_face(("c1",), solver)
        assert solver.calls == 1

    def test_no_customers_rejected(self):
        with pytest.raises(ValueError, match="at least one customer"):
            init_face((), ScriptedSolver([], []))


class TestIsValidExtension:
    def test_strictly_above_accepted(self):
        face = basis_face([0.5, 0.5], 0.5)
        assert is_valid_extension(face, np.array([0.6, 0.6]), [face])

    def test_on_face_rejected(self):
        face = basis_face([0.5, 0.5], 0.5)
        assert not is_valid_extension(face, np.array([0.5, 0.5]), [face])

    def test_above_second_face_rejected(self):
        face = basis_face([0.5, 0.5], 0.5)
        other = basis_face([0.9, 0.1], 0.5)
        x = np.array([0.7, 0.45])  # above both planes
        assert float(other.w @ x) > other.c
        assert not is_valid_extension(face, x, [face, other])


class TestOptInFace:
    @given(
        k=st.integers(min_value=2, max_value=5),
        alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0, 32.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80)
    def test_optimum_lies_on_the_plane(self, k, alpha, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 5.0, k)
        c = float(rng.uniform(0.1, 10.0))
        x_star, _ = opt_in_face(basis_face(w, c), alpha)
        assert x_star is not None
        assert float(w @ x_star) == pytest.approx(c, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_alpha_one_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        w = rng.uniform(0.05, 5.0, k)
        c = float(rng.uniform(0.1, 10.0))
        x_star, _ = opt_in_face(basis_face(w, c), 1.0)
        assert np.allclose(x_star, c / (k * w), rtol=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 8.0])
    def test_equal_weights_give_equal_split(self, alpha):
        face = basis_face([0.25, 0.25, 0.25, 0.25], 2.0)
        x_star, inside = opt_in_face(face, alpha)
        assert np.allclose(x_star, x_star[0])
        assert float(np.sum(face.w * x_star)) == pytest.approx(2.0)
        assert inside

    def test_leximin_mode_equal_allocation(self):
        face = basis_face([0.2, 0.3, 0.5], 1.5)
        x_star, _ = opt_in_face(face, 64.0)
        assert np.allclose(x_star, 1.5)

    def test_nonpositive_weight_has_no_optimum(self):
        face = Face(corners=(np.array([1.0, 2.0]),), w=np.array([-1.0, 1.0]),
                    c=1.0, schedules=(DUMMY,), active=(0, 1))
        x_star, inside = opt_in_face(face, 1.0)
        assert x_star is None and not inside

    def test_inside_detects_membership(self):
        face = make_face([np.array([2.0, 0.0]), np.array([0.0, 2.0])],
                         [DUMMY, DUMMY], (0, 1))
        x_star, inside = opt_in_face(face, 1.0)
        assert inside and np.allclose(x_star, [1.0, 1.0])
        narrow = make_face([np.array([2.0, 0.0]), np.array([1.9, 0.1])],
                           [DUMMY, DUMMY], (0, 1))
        x_star, inside = opt_in_face(narrow, 1.0)
        assert x_star is not None and not inside

    @given(
        w=st.lists(st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                             st.integers(min_value=1, max_value=4).map(float)),
                   min_size=1, max_size=8),
        alpha=st.one_of(st.just(1.0),
                        st.floats(min_value=0.05, max_value=20.0,
                                  exclude_min=True, exclude_max=True)),
    )
    @settings(max_examples=500)
    def test_logsumexp_matches_scipy_bit_for_bit(self, w, alpha):
        a = (1.0 - 1.0 / alpha) * np.log(np.array(w))
        assert _logsumexp(a).tobytes() == np.float64(logsumexp(a)).tobytes()


class TestSearchBoundary:
    def test_no_extension_returns_initial(self):
        solver = ScriptedSolver([(1.0, 0.0), (0.0, 1.0)], [(0.5, 0.5)])
        initial = init_face(("c1", "c2"), solver)
        face = search_boundary(initial, 1.0, solver)
        assert face is initial
        assert solver.calls == 3  # 2 basis + 1 failed extension

    def test_recurses_into_unique_candidate(self):
        # Derived by hand: extending (1,0)-(0,1) with (0.9, 0.3) leaves the
        # alpha=1 optimum inside the (0.9,0.3)-(0,1) shard only; the next
        # response falls below that face, ending the walk.
        solver = ScriptedSolver([(1.0, 0.0), (0.0, 1.0)],
                                [(0.9, 0.3), (0.45, 0.55)])
        initial = init_face(("c1", "c2"), solver)
        face = search_boundary(initial, 1.0, solver)
        got = sorted(tuple(np.round(c, 9)) for c in face.corners)
        assert got == [(0.0, 1.0), (0.9, 0.3)]
        assert solver.calls == 4  # 2 basis + 2 stages

    def test_point_face_needs_no_search(self):
        solver = ScriptedSolver([(1.5, 0.0), (0.0, 0.0)], [(9.0, 9.0)])
        initial = init_face(("c1", "c2"), solver)
        face = search_boundary(initial, 1.0, solver)
        assert face is initial
        assert solver.calls == 2

    def test_max_stages_zero_returns_initial(self):
        solver = ScriptedSolver([(1.0, 0.0), (0.0, 1.0)], [(0.9, 0.9)])
        initial = init_face(("c1", "c2"), solver)
        face = search_boundary(initial, 1.0, solver, max_stages=0)
        assert face is initial

    def test_alpha_zero_single_stage_improves_total(self):
        solver = ScriptedSolver([(1.0, 0.0), (0.0, 1.0)], [(0.8, 0.7)])
        initial = init_face(("c1", "c2"), solver)
        face = search_boundary(initial, 0.0, solver)
        assert solver.calls == 3
        totals = sorted(float(np.sum(c)) for c in face.corners)
        assert totals == pytest.approx([1.0, 1.5])

    def test_alpha_zero_keeps_initial_when_no_gain(self):
        solver = ScriptedSolver([(1.0, 0.0), (0.0, 1.0)], [(0.4, 0.4)])
        initial = init_face(("c1", "c2"), solver)
        face = search_boundary(initial, 0.0, solver)
        assert face is initial
        assert solver.calls == 3


class TestFullBoundary:
    def test_two_cluster_instance_end_to_end(self):
        # Derived by hand for the small two-cluster scenario: the mixed
        # count cap is 6 tasks per 600 s round, so the hull corners are
        # (0.5, 0.1) and (0.1, 0.5) and the max-min target is (0.3, 0.3).
        from fairfleet.gen import map_a_small

        scn = map_a_small()
        inst = Instance(tasks=scn.tasks, vehicles=scn.vehicles,
                        travel=scn.travel, budget=scn.round_s)
        solver = RoundSolver(inst, SolverConfig(backend="exact"))
        corners, faces, target = full_boundary(inst.customers, solver, alpha=scn.alpha)
        got = sorted(tuple(np.round(c, 9)) for c in corners)
        assert got == [(0.1, 0.5), (0.5, 0.1)]
        assert target == pytest.approx([0.3, 0.3], abs=1e-9)
        assert faces
