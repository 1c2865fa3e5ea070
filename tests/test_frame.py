import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborflow import frame
from gaborflow.frame import (
    FrameBounds,
    GaborSystem,
    analysis_matrix,
    ellipsoid_deform,
    ellipsoid_sweep,
    frame_bounds,
    frame_operator,
    full_phase_space_points,
)
from gaborflow.lattice import (
    Box,
    Ellipsoid,
    PointSet,
    deform_point_set,
    enclosed_indices,
    max_safe_epsilon,
    separable_lattice,
)
from gaborflow import metaplectic, quantum
from gaborflow.metaplectic import metaplectic_lift
from gaborflow.quantum import GridSpec, State, gaussian_window, heisenberg, inner, norm
from gaborflow.symplectic import QuadraticHamiltonian, flow_matrix, standard_J

ALPHA = 2.0 ** -0.5
REF_GRID = GridSpec.centered(N=128, L=12.0)


def reference_system(grid=REF_GRID, box=((-6, 6), (-6, 6))):
    phi = gaussian_window(1j, grid)
    P = separable_lattice(ALPHA, ALPHA, Box.from_pairs(box))
    return GaborSystem(phi, P, grid)


def rowwise_analysis_matrix(sys):
    """The analysis matrix one heisenberg call per row: the batched reference."""
    return np.stack([np.conj(heisenberg(z, sys.window, sys.grid).values) * np.sqrt(sys.grid.dx)
                     for z in sys.points.points])


class TestGaborSystem:
    def test_rejects_unnormalized_window(self):
        g = GridSpec.centered(N=64, L=12.0)
        raw = State(np.ones(64, dtype=complex))
        P = PointSet(np.array([[0.0, 0.0]]), 1.0)
        with pytest.raises(ValueError, match="unit norm"):
            GaborSystem(raw, P, g)

    def test_flags_box_overflow(self):
        g = GridSpec.centered(N=64, L=4.0)
        phi = gaussian_window(1j, g)
        P = PointSet(np.array([[3.0, 0.0]]), 1.0)
        with pytest.warns(UserWarning, match="wrap"):
            GaborSystem(phi, P, g)

    @pytest.mark.parametrize("q, warns", [
        (2.0, False), (2.0 * (1.0 + 1e-13), False), (2.0 * (1.0 + 1e-9), True)])
    def test_wrap_around_warns_only_past_the_box_edge(self, q, warns):
        # |q| = L/2 is the edge of a torus-covering box (torus_sweep.json has
        # points at q = -L/2); the system and its translations warn alike
        g = GridSpec.centered(N=64, L=4.0)
        phi = gaussian_window(1j, g)
        for z in ([q, 0.0], [-q, 0.0]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                GaborSystem(phi, PointSet(np.array([z]), 1.0), g)
                heisenberg(z, phi, g)
            messages = [str(w.message) for w in caught]
            assert any("windows wrap around the box" in m for m in messages) == warns
            assert any("wrap-around regime" in m for m in messages) == warns


class TestAnalysis:
    def test_single_point_coefficient_is_one(self):
        g = GridSpec.centered(N=64, L=12.0)
        phi = gaussian_window(1j, g)
        sys1 = GaborSystem(phi, PointSet(np.array([[0.0, 0.0]]), 1.0), g)
        coeffs = np.array([inner(phi, heisenberg(z, sys1.window, g), g)
                           for z in sys1.points.points])
        assert coeffs.shape == (1,)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_row_norms_are_unit(self):
        sysR = reference_system()
        D = analysis_matrix(sysR)
        norms = np.linalg.norm(D, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_shape(self):
        g = GridSpec.centered(N=1024, L=16.0)
        phi = gaussian_window(1j, g)
        P = separable_lattice(1.0, 1.0, Box.from_pairs([[-2.5, 2.5], [-2.5, 2.5]]))
        D = analysis_matrix(GaborSystem(phi, P, g))
        assert D.shape == (25, 1024)

    def test_empty_point_set_rejected(self):
        g = GridSpec.centered(N=64, L=12.0)
        phi = gaussian_window(1j, g)
        empty = PointSet(np.empty((0, 2)), 1.0)
        with pytest.raises(ValueError, match="empty"):
            analysis_matrix(GaborSystem(phi, empty, g))

    def test_batched_rows_match_heisenberg_bitwise(self):
        sysR = reference_system()
        assert np.array_equal(analysis_matrix(sysR), rowwise_analysis_matrix(sysR))

    def test_batched_rows_past_half_box_warn_and_match(self):
        g = GridSpec.centered(N=64, L=4.0)
        P = PointSet(np.array([[0.0, 0.0], [1.5, -2.0], [3.0, 1.0], [-2.5, 0.5]]), 1.0)
        with pytest.warns(UserWarning, match="wrap"):
            sysW = GaborSystem(gaussian_window(1j, g), P, g)
        with pytest.warns(UserWarning, match="wrap-around"):
            D = analysis_matrix(sysW)
        with pytest.warns(UserWarning, match="wrap-around"):
            ref = rowwise_analysis_matrix(sysW)
        assert np.array_equal(D, ref)

    def test_frame_sum_identity(self):
        # sum over the lattice of |(psi | T(z) phi)|^2 via the matrix equals
        # the direct double loop
        sysR = reference_system()
        rng = np.random.default_rng(9)
        psi = State(rng.normal(size=REF_GRID.N) + 1j * rng.normal(size=REF_GRID.N))
        D = analysis_matrix(sysR)
        via_matrix = REF_GRID.dx * float(np.sum(np.abs(D @ psi.values) ** 2))
        direct = float(sum(abs(inner(psi, heisenberg(z, sysR.window, REF_GRID), REF_GRID)) ** 2
                           for z in sysR.points.points))
        assert via_matrix == pytest.approx(direct, rel=1e-10)


class TestFrameOperator:
    def test_full_system_is_tight_by_random_probes(self):
        g = GridSpec.centered(N=16, L=8.0)
        phi = gaussian_window(1j, g)
        sysF = GaborSystem(phi, full_phase_space_points(g), g)
        S = frame_operator(sysF)
        rng = np.random.default_rng(0)
        for _ in range(4):
            v = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
            ratio = S @ v / v
            assert np.max(np.abs(ratio - g.N)) <= 1e-8 * g.N

    def test_hermitian_psd(self):
        sysR = reference_system()
        S = frame_operator(sysR)
        assert np.max(np.abs(S - S.conj().T)) <= 1e-10
        evals = np.linalg.eigvalsh(S)
        assert evals[0] >= -1e-9 * evals[-1]

    def test_singleton_rank_one(self):
        g = GridSpec.centered(N=64, L=12.0)
        phi = gaussian_window(1j, g)
        sys1 = GaborSystem(phi, PointSet(np.array([[0.0, 0.0]]), 1.0), g)
        fb = frame_bounds(sys1)
        assert fb.A == 0.0
        assert fb.B == pytest.approx(1.0, abs=1e-10)
        assert not fb.is_frame


class TestFrameBounds:
    def test_full_system_tight(self):
        g = GridSpec.centered(N=16, L=8.0)
        sysF = GaborSystem(gaussian_window(1j, g), full_phase_space_points(g), g)
        fb = frame_bounds(sysF)
        assert (fb.B - fb.A) <= 1e-8 * fb.B
        assert fb.A == pytest.approx(g.N, rel=1e-10)

    def test_reference_scenario_regression(self):
        # pinned regression values for the twice-oversampled Gaussian system
        fb = frame_bounds(reference_system())
        assert fb.is_frame
        assert fb.A == pytest.approx(0.84879010471670402, rel=1e-6)
        assert fb.B == pytest.approx(4.8811361146668784, rel=1e-6)
        assert fb.B / fb.A == pytest.approx(5.7507, rel=1e-4)

    def test_monotone_under_point_addition(self):
        g = GridSpec.centered(N=64, L=12.0)
        phi = gaussian_window(1j, g)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        prev = None
        for m in range(1, len(pts) + 1):
            fb = frame_bounds(GaborSystem(phi, PointSet(pts[:m], 1.0), g))
            if prev is not None:
                assert fb.A >= prev.A - 1e-10
                assert fb.B >= prev.B - 1e-10
            prev = fb

    def test_gram_side_matches_frame_operator(self):
        # m = 81 < N = 128: B from the Gram matrix, A = 0 by counting
        sysG = reference_system(box=((-3, 3), (-3, 3)))
        assert len(sysG.points) < REF_GRID.N
        fb = frame_bounds(sysG)
        evals = np.linalg.eigvalsh(frame_operator(sysG))
        assert fb.A == 0.0
        assert not fb.is_frame
        assert abs(fb.B - evals[-1]) <= 1e-14 * fb.B

    def test_frame_operator_side_unchanged(self):
        # m = 289 >= N = 128: the N x N solve, bitwise
        sysR = reference_system()
        evals = np.linalg.eigvalsh(frame_operator(sysR))
        assert frame_bounds(sysR) == FrameBounds.from_extremes(evals[0], evals[-1])

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            FrameBounds(A=2.0, B=1.0, is_frame=True)


def covariant_deform(sys, H, t, z0):
    """Transport the window along the flow with base point z0 and move every
    lattice point by the flow.

    The window becomes T(z_t) U_t T(z0)^{-1} window with z_t = S_t z0; the
    points become S_t applied to the whole set.  For a quadratic Hamiltonian
    the linearized flow is base-point independent, which is the only case
    implemented.
    """
    z0c = np.asarray(z0, dtype=float)
    S = flow_matrix(H, t)
    zt = S.S @ z0c
    U = metaplectic_lift(H.M, t, sys.grid)
    w = heisenberg(-z0c, sys.window, sys.grid)  # T(z0)^{-1} = T(-z0)
    w = U.apply(w)
    w = heisenberg(zt, w, sys.grid)
    new_pts = PointSet._trusted(sys.points.points @ S.S.T, sys.points.delta)
    return GaborSystem(window=w, points=new_pts, grid=sys.grid)


class TestCovariantDeform:
    def test_zero_time_round_trip(self):
        sysR = reference_system()
        H = QuadraticHamiltonian(np.eye(2))
        out = covariant_deform(sysR, H, 0.0, [1.0, 0.5])
        assert np.max(np.abs(out.window.values - sysR.window.values)) <= 1e-12
        assert np.array_equal(out.points.points, sysR.points.points)

    def test_deformed_window_stays_normalized(self):
        sysR = reference_system()
        H = QuadraticHamiltonian(np.eye(2))
        out = covariant_deform(sysR, H, math.pi / 2.0, [1.0, 0.0])
        assert abs(norm(out.window, REF_GRID) - 1.0) <= 1e-12

    @pytest.mark.filterwarnings("ignore:.*wrap")
    def test_base_point_zero_matches_all_enclosing_ellipsoid(self):
        # the rotated corners wrap on this small grid; both code paths wrap
        # identically, which is exactly what this consistency check compares
        sysR = reference_system()
        H = QuadraticHamiltonian(np.eye(2))
        t = 0.6
        via_transport = covariant_deform(sysR, H, t, [0.0, 0.0])
        via_ellipsoid, _ = ellipsoid_deform(sysR, Ellipsoid(H, 40.0), t)
        assert np.max(np.abs(via_transport.window.values
                             - via_ellipsoid.window.values)) <= 1e-12
        assert np.allclose(
            np.sort(via_transport.points.points, axis=0),
            np.sort(via_ellipsoid.points.points, axis=0),
            atol=1e-12,
        )


class TestEllipsoidDeform:
    def test_zero_time_zero_drift(self):
        sysR = reference_system()
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5)
        _, rep = ellipsoid_deform(sysR, ell, 0.0)
        assert rep.rel_dA == 0.0
        assert rep.rel_dB == 0.0
        assert rep.epsilon_used == pytest.approx(1.0 - ALPHA, abs=1e-9)

    def test_nothing_enclosed_still_transports_window(self):
        grid = REF_GRID
        phi = gaussian_window(1j, grid)
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[0.5, 5], [0.5, 5]]))
        sys0 = GaborSystem(phi, P, grid)
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.05)
        t = 0.8
        out, rep = ellipsoid_deform(sys0, ell, t)
        assert rep.moved_count == 0
        assert np.array_equal(out.points.points, P.points)
        U = metaplectic_lift(np.eye(2), t, grid)
        assert np.array_equal(out.window.values, U.apply(phi).values)

    def test_zero_time_cases_bitwise_equal(self):
        sysR = reference_system()
        H = QuadraticHamiltonian(np.eye(2))
        _, rep_all = ellipsoid_deform(sysR, Ellipsoid(H, 40.0), 0.0)
        _, rep_tiny = ellipsoid_deform(sysR, Ellipsoid(H, 0.011), 0.0)
        assert rep_all.bounds_after.A == rep_tiny.bounds_after.A
        assert rep_all.bounds_after.B == rep_tiny.bounds_after.B
        assert rep_all.bounds_before.B == rep_all.bounds_after.B

    def test_report_serialization(self):
        sysR = reference_system()
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5)
        _, rep = ellipsoid_deform(sysR, ell, 0.3)
        row = rep.csv_row()
        assert len(row) == 10
        assert row[2] == rep.epsilon_used
        assert row[3] == rep.moved_count


def per_call_row(sys, ell, t):
    """One deformation report row with nothing hoisted: the sweep's reference."""
    U = metaplectic_lift(ell.H.M, t, sys.grid)
    inside = enclosed_indices(sys.points, ell)
    new_sys = GaborSystem(U.apply(sys.window), deform_point_set(sys.points, inside, ell, t),
                          sys.grid)
    b0, b1 = frame_bounds(sys), frame_bounds(new_sys)
    scale = max(b0.B, b1.B)
    return (t, ell.E, max_safe_epsilon(sys.points, ell), len(inside), b0.A, b0.B, b1.A, b1.B,
            abs(b1.A - b0.A) / max(b0.A, 1e-9 * scale, 1e-300),
            abs(b1.B - b0.B) / max(b0.B, 1e-9 * scale, 1e-300))


def assert_sweep_matches_per_call(sys, ells, ts):
    """Every report of the sweep equals ``per_call_row`` and the bounds of
    its own system bitwise, and the system's analysis matrix equals the one
    built from scratch."""
    swept = list(ellipsoid_sweep(sys, ells, ts))
    assert len(swept) == len(ells) * len(ts)
    for k, (out, rep) in enumerate(swept):
        ell, t = ells[k // len(ts)], ts[k % len(ts)]
        assert rep.csv_row() == per_call_row(sys, ell, t)
        assert frame_bounds(out) == rep.bounds_after
        fresh = GaborSystem(out.window, out.points, out.grid)
        assert np.array_equal(analysis_matrix(out), analysis_matrix(fresh))
    return swept


ANISOTROPIC = QuadraticHamiltonian(np.diag([1.0, 2.0]))
# reference lattices with m = 289 >= N = 128 and m = 81 < N: the frame-operator
# and the Gram side of frame_bounds
BOTH_SIDES = pytest.mark.parametrize("box", [((-6, 6), (-6, 6)), ((-3, 3), (-3, 3))],
                                     ids=["m>=N", "m<N"])


class TestEllipsoidSweep:
    def test_rows_equal_per_call_reports_bitwise(self):
        sysR = reference_system()
        H = QuadraticHamiltonian(np.diag([1.0, 2.0]))
        ells = [Ellipsoid(H, E) for E in (0.5, 2.0)]
        ts = [0.0, 0.4, 1.1]
        swept = list(ellipsoid_sweep(sysR, ells, ts))
        assert len(swept) == len(ells) * len(ts)
        for k, (out, rep) in enumerate(swept):
            ell, t = ells[k // len(ts)], ts[k % len(ts)]
            out1, rep1 = ellipsoid_deform(sysR, ell, t)
            assert rep.csv_row() == rep1.csv_row() == per_call_row(sysR, ell, t)
            assert np.array_equal(out.window.values, out1.window.values)
            assert np.array_equal(out.points.points, out1.points.points)
            if t == 0.0:
                assert rep.rel_dA == rep.rel_dB == 0.0

    @BOTH_SIDES
    def test_nothing_enclosed_still_moves_the_window(self, box):
        # the lattice misses the origin, so the small ellipsoid encloses no
        # point; the lifted window alone changes the bounds at t != 0
        sys0 = reference_system(box=box)
        shifted = PointSet(sys0.points.points + 0.25 * ALPHA, sys0.points.delta)
        sys0 = GaborSystem(sys0.window, shifted, sys0.grid)
        swept = assert_sweep_matches_per_call(sys0, [Ellipsoid(ANISOTROPIC, 0.02)],
                                              [0.0, 0.4, 1.1])
        assert all(rep.moved_count == 0 for _, rep in swept)
        assert [rep.bounds_after.B != rep.bounds_before.B for _, rep in swept] == [
            False, True, True]

    @pytest.mark.filterwarnings("ignore:.*wrap")
    @BOTH_SIDES
    def test_every_point_enclosed(self, box):
        sysR = reference_system(box=box)
        swept = assert_sweep_matches_per_call(sysR, [Ellipsoid(ANISOTROPIC, 80.0)],
                                              [0.0, 0.4, 1.1])
        assert all(rep.moved_count == len(sysR.points) for _, rep in swept)

    @BOTH_SIDES
    def test_some_points_enclosed_on_either_side(self, box):
        sysR = reference_system(box=box)
        ells = [Ellipsoid(ANISOTROPIC, E) for E in (0.3, 2.0)]
        swept = assert_sweep_matches_per_call(sysR, ells, [0.0, 0.4, 1.1])
        assert [rep.moved_count for _, rep in swept[::3]] == [
            len(enclosed_indices(sysR.points, ell)) for ell in ells]
        assert 0 < swept[0][1].moved_count < swept[3][1].moved_count < len(sysR.points)

    @BOTH_SIDES
    def test_one_point_set_beside_a_larger_one(self, box):
        # a one-row product X[idx] @ S.T can differ in the last bit from the
        # same row of a larger one, so each energy's moved rows must come
        # from its own coordinates
        sys0 = reference_system(box=box)
        shifted = PointSet(sys0.points.points + 0.25 * ALPHA, sys0.points.delta)
        sys0 = GaborSystem(sys0.window, shifted, sys0.grid)
        ells = [Ellipsoid(ANISOTROPIC, E) for E in (0.11, 2.0)]
        swept = assert_sweep_matches_per_call(sys0, ells, [0.0, 0.05, 0.4])
        assert [rep.moved_count for _, rep in swept[::3]] == [1, 18]

    def test_each_factor_row_is_built_once_per_t(self, monkeypatch):
        built = []
        ramp_and_phase = quantum._ramp_and_phase

        def recording(z, g):
            built.append(len(z))
            return ramp_and_phase(z, g)

        monkeypatch.setattr(quantum, "_ramp_and_phase", recording)
        sysR = reference_system()
        ells = [Ellipsoid(ANISOTROPIC, E) for E in (0.3, 2.0, 0.7)]
        insides = [enclosed_indices(sysR.points, ell) for ell in ells]
        assert min(len(inside) for inside in insides) >= 2
        for _ in ellipsoid_sweep(sysR, ells, [0.0, 0.4, 1.1]):
            pass
        # the fixed rows once, then at each t != 0 one row per point of the
        # union of the enclosed sets
        union = len(np.unique(np.concatenate(insides)))
        assert built == [len(sysR.points), union, union]

    def test_one_solve_per_row_with_t_nonzero(self, monkeypatch):
        solved = []
        bounds = frame._bounds

        def recording(D, z):
            solved.append(len(z))
            return bounds(D, z)

        monkeypatch.setattr(frame, "_bounds", recording)
        g = GridSpec.centered(N=64, L=8.0)
        P = separable_lattice(1.0, 1.0, Box.from_pairs([[-2, 2], [-2, 2]]))
        sysS = GaborSystem(gaussian_window(1j, g), P, g)
        ells = [Ellipsoid(ANISOTROPIC, 0.01), Ellipsoid(ANISOTROPIC, 1.5)]
        rows = [rep for _, rep in ellipsoid_sweep(sysS, ells, [0.0, 0.3, 0.0, 0.9])]
        # the undeformed bounds, then one solve per row with t != 0
        assert len(solved) == sum(1 for rep in rows if rep.t != 0.0) + 1 == 5
        solved.clear()
        frame_bounds(sysS)
        assert solved == [len(P)]

    @pytest.mark.filterwarnings("ignore:.*wrap")
    def test_no_row_bank_outlives_its_t(self):
        # E = 80 moves every point, so each t builds 2m rows beside the m-row
        # workspace: a sweep over three t must peak as one over a single t,
        # with the previous t's rows freed before the next t's are built
        g = GridSpec.centered(N=256, L=16.0)
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-6, 6], [-6, 6]]))
        sysM = GaborSystem(gaussian_window(1j, g), P, g)
        ells = [Ellipsoid(ANISOTROPIC, E) for E in (0.5, 80.0)]
        assert len(enclosed_indices(P, ells[1])) == len(P) == 289

        def sweep(ts):
            for _ in ellipsoid_sweep(sysM, ells, ts):
                pass

        def peak(ts):
            tracemalloc.reset_peak()
            sweep(ts)
            return tracemalloc.get_traced_memory()[1]

        ts = [0.4, 1.1, 0.7]
        sweep(ts)  # warm: every lift's eigenfactors are cached
        tracemalloc.start()
        try:
            one, three = peak(ts[:1]), peak(ts)
        finally:
            tracemalloc.stop()
        assert three <= 1.05 * one

    def test_ellipsoids_of_different_M_raise(self):
        ells = [Ellipsoid(ANISOTROPIC, 1.0), Ellipsoid(QuadraticHamiltonian(np.eye(2)), 1.0)]
        with pytest.raises(ValueError, match="one M"):
            next(ellipsoid_sweep(reference_system(), ells, [0.4]))

    def test_quarter_turn_of_the_torus_keeps_the_bounds(self):
        # alpha = beta = 1/2 on [-8, 7.5]^2 covers the torus of N = 256,
        # L = 16 (N / L = 16), with a live A since m = 1024 > N.  With M = I
        # and t = pi/2 the flow is a quarter turn, which maps the lattice and
        # every enclosed disc onto themselves modulo the torus, and U_t is a
        # Fourier transform, so the deformed system is unitarily equivalent:
        # an exact identity for the window alone (E = 0.01 moves only the
        # origin), part of the points and all of them
        g = GridSpec.centered(N=256, L=16.0)
        P = separable_lattice(0.5, 0.5, Box.from_pairs([[-8, 7.5], [-8, 7.5]]))
        sysQ = GaborSystem(gaussian_window(0.6 + 1.5j, g), P, g)
        ells = [Ellipsoid(QuadraticHamiltonian(np.eye(2)), E) for E in (0.01, 2.0, 1000.0)]
        reports = [rep for _, rep in ellipsoid_sweep(sysQ, ells, [math.pi / 2])]
        assert [rep.moved_count for rep in reports] == [1, 49, 1024]
        for rep in reports:
            before, after = rep.bounds_before, rep.bounds_after
            assert before.A == pytest.approx(3.878496245818993, rel=1e-12)
            assert before.B == pytest.approx(4.121790769877995, rel=1e-12)
            assert after.A == pytest.approx(before.A, rel=1e-12)
            assert after.B == pytest.approx(before.B, rel=1e-12)

    def test_wrap_around_warns_for_every_deformed_system(self):
        # |q| reaches 2.83 > L/2 = 2 on the fixed points; the enclosed ones
        # stay inside the box, so only a check of the whole set warns
        g = GridSpec.centered(N=64, L=4.0)
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3], [-3, 3]]))
        with pytest.warns(UserWarning, match="wrap"):
            sysW = GaborSystem(gaussian_window(1j, g), P, g)
        ell = Ellipsoid(ANISOTROPIC, 0.5)
        ts = [0.0, 0.4, 1.1]
        sweep = ellipsoid_sweep(sysW, [ell], ts)
        for t in ts:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out, rep = next(sweep)
            messages = [str(w.message) for w in caught]
            assert np.max(np.abs(out.points.points[enclosed_indices(P, ell), 0])) < 2.0
            assert any("windows wrap around the box" in m for m in messages)
            if t != 0.0:
                assert any("wrap-around regime" in m for m in messages)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert rep.csv_row() == per_call_row(sysW, ell, t)
                assert frame_bounds(out) == rep.bounds_after

    def test_cold_lifts_run_before_the_factors(self):
        # the fixed rows' factors (0.66 MB here) must not be held while the
        # cold eigendecomposition of the lift runs: then the cold sweep's
        # peak is the larger of the lift's own and the warm sweep's.  Peaks
        # count from tracemalloc.start, so the warm one includes the cached
        # eigenfactors that the cold sweep adds.
        g = GridSpec.centered(N=256, L=16.0)
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3], [-3, 3]]))
        sysM = GaborSystem(gaussian_window(1j, g), P, g)
        ells = [Ellipsoid(ANISOTROPIC, 1.0)]
        ts = [0.0, 0.4, 1.1]

        def peak(run):
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1]

        def sweep():
            for _ in ellipsoid_sweep(sysM, ells, ts):
                pass

        tracemalloc.start()
        try:
            metaplectic._eig_cache.clear()
            lift = peak(lambda: metaplectic_lift(ANISOTROPIC.M, 0.4, g))
            metaplectic._eig_cache.clear()
            cold = peak(sweep)
            warm = peak(sweep)
        finally:
            tracemalloc.stop()
        assert cold <= 1.05 * max(lift, warm)


class TestCompareReports:
    def test_moved_count_jumps_with_count_oracle(self):
        # z = alpha (a, b) with alpha^2 = 1/2 on [-6, 6]^2: |a| <= 8, and
        # H(z) <= E reads a^2 + b^2 <= 4E in integer arithmetic
        sysR = reference_system()
        H = QuadraticHamiltonian(np.eye(2))
        energies = [0.2, 0.3, 0.45, 0.55, 0.8, 1.1]
        reps = [ellipsoid_deform(sysR, Ellipsoid(H, E), 0.1)[1] for E in energies]
        ks = range(-8, 9)
        exact = [sum(1 for a in ks for b in ks if a * a + b * b <= 4 * Fraction(repr(E)))
                 for E in energies]
        assert exact == [1, 5, 5, 9, 9, 13]
        assert [rep.moved_count for rep in reps] == exact


def one_block_bounds(sys):
    """The frame bounds from one dense solve on the smaller side, without
    the parity split."""
    D = analysis_matrix(sys)
    if D.shape[0] >= D.shape[1]:
        evals = np.linalg.eigvalsh(frame_operator(sys))
        return FrameBounds.from_extremes(evals[0], evals[-1])
    G = D @ D.conj().T
    return FrameBounds.from_extremes(0.0, np.linalg.eigvalsh(0.5 * (G + G.conj().T))[-1])


def torus_system(N, gamma, pairs, origin):
    """An even Gaussian window on the grid with L = sqrt(N), so dx = dp, and
    the points (i dx, j dp) of the integer pairs, their negations and, if
    asked, the origin.  A modulation on the dp-lattice is periodic and a
    shift by a multiple of dx permutes the grid, so the system commutes with
    the grid parity to roundoff wherever its atoms reach."""
    g = GridSpec.centered(N=N, L=math.sqrt(N))
    ij = np.asarray(pairs, dtype=float).reshape(-1, 2)
    pts = np.concatenate([ij, -ij] + ([np.zeros((1, 2))] if origin else []))
    pts = pts * [g.dx, g.dp]
    return GaborSystem(gaussian_window(gamma, g), PointSet(pts, min(g.dx, g.dp)), g)


def half_plane(N, step):
    """One integer pair (i, j) of each pair +-(i, j), |i|, |j| < N/2, on
    multiples of step."""
    k = (N // 2 - 1) // step
    return [(i * step, j * step) for i in range(k + 1) for j in range(-k, k + 1)
            if i > 0 or j > 0]


def wide_and_dense(sc):
    """perfbench's `wide` (m = 289 < N = 512, atoms far from the seam) and
    `dense` (m = 529 > N = 256, atoms at the seam) systems, M = I."""
    N, L, half_box = {"wide": (512, 30.0, 6.0), "dense": (256, 16.0, 8.0)}[sc]
    g = GridSpec.centered(N=N, L=L)
    P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-half_box, half_box]] * 2))
    return GaborSystem(gaussian_window(1j, g), P, g)


def odd_window(g):
    x = g.xs()
    v = x * gaussian_window(1j, g).values
    return State(v / math.sqrt(float(np.sum(np.abs(v) ** 2)) * g.dx))


def fallback_systems():
    """Systems that the first test of the split rejects, by name."""
    g = GridSpec.centered(N=128, L=16.0)
    phi = gaussian_window(0.3 + 1j, g)
    sym = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3], [-3, 3]]))
    return {
        # atoms reach the seam x = -L/2 with modulations off the dp-lattice
        "seam": reference_system(),
        "asymmetric box": GaborSystem(
            phi, separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3.6], [-3, 3]])), g),
        "odd window": GaborSystem(odd_window(g), sym, g),
        "unpaired point": GaborSystem(phi, PointSet(sym.points[1:], sym.delta), g),
    }


class TestParitySplit:
    @settings(max_examples=40, deadline=None)
    @given(N=st.sampled_from([32, 64, 128]),
           re=st.floats(0.1, 1.0), sign=st.sampled_from([-1.0, 1.0]), im=st.floats(0.5, 2.0),
           step=st.sampled_from([1, 2, 4]), many=st.booleans(), share=st.floats(0.0, 1.0),
           origin=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # origin-free with m = N: the even block has N/2 rows for N/2 + 1 columns
    @example(N=32, re=0.5, sign=1.0, im=1.0, step=1, many=True, share=0.0, origin=False, seed=0)
    def test_bounds_equal_the_one_block_solve(self, N, re, sign, im, step, many, share,
                                              origin, seed):
        half = half_plane(N, step)
        # m >= N takes at least N/2 pairs, up to 2N of them; m < N fewer than N/2
        lo, hi = (N // 2, min(len(half), 2 * N)) if many else (1, N // 2 - 1)
        count = lo + round(share * (hi - lo))
        chosen = np.random.default_rng(seed).choice(len(half), size=count, replace=False)
        sysT = torus_system(N, complex(sign * re, im), [half[i] for i in chosen], origin)
        assert (len(sysT.points) >= N) == many
        ref, got = one_block_bounds(sysT), frame_bounds(sysT)
        assert (got.A == 0.0) == (ref.A == 0.0)
        assert got.is_frame == ref.is_frame
        assert abs(got.A - ref.A) <= 1e-12 * ref.A
        assert abs(got.B - ref.B) <= 1e-12 * ref.B
        if ref.A == 0.0:
            # the guard's tolerance is then relative to B, which it meets here
            assert frame._parity_split(analysis_matrix(sysT), sysT.points.points) == got

    def test_symmetric_box_away_from_the_seam_splits(self):
        g = GridSpec.centered(N=128, L=16.0)
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3], [-3, 3]]))
        sysS = GaborSystem(gaussian_window(0.3 + 1j, g), P, g)
        got = frame._parity_split(analysis_matrix(sysS), P.points)
        ref = one_block_bounds(sysS)
        assert got is not None and got.A == ref.A == 0.0
        assert abs(got.B - ref.B) <= 1e-12 * ref.B

    @pytest.mark.parametrize("name, sysF", fallback_systems().items())
    def test_fallback_is_the_one_block_solve(self, name, sysF, monkeypatch):
        def no_fold(psi):
            raise AssertionError("folded a system that the first test rejects")

        # rejected before any fold: by the pairing or the self-mirrored columns
        monkeypatch.setattr(frame, "_fold", no_fold)
        assert frame._parity_split(analysis_matrix(sysF), sysF.points.points) is None
        assert frame_bounds(sysF) == one_block_bounds(sysF)

    def test_guard_rejects_an_odd_part_that_the_first_test_misses(self):
        # the pairs sit where the window's odd part x g(x) is negligible at
        # x = 0 and at the seam, so only the folded remainder sees it
        g = GridSpec.centered(N=128, L=16.0)
        x = g.xs()
        v = (1.0 + 0.5 * x) * gaussian_window(1j, g).values
        window = State(v / math.sqrt(float(np.sum(np.abs(v) ** 2)) * g.dx))
        P = PointSet(np.array([[-3.0, 0.5], [0.0, 0.0], [3.0, -0.5]]), 1.0)
        sysO = GaborSystem(window, P, g)
        D = analysis_matrix(sysO)
        assert np.max(np.abs(D[:, [0, 64]] - D[::-1, [0, 64]])) < 1e-12
        assert frame._parity_split(D, P.points) is None
        assert frame_bounds(sysO) == one_block_bounds(sysO)

    @pytest.mark.parametrize("sc, energies, sizes", [("wide", (1.3, 40.0), [145, 144]),
                                                     ("dense", (1.3, 20.0), [256])])
    def test_every_wide_solve_splits_and_no_dense_one(self, sc, energies, sizes, monkeypatch):
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            solved.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        H = QuadraticHamiltonian(np.eye(2))
        # E = 40 moves every point of `wide`
        ells = [Ellipsoid(H, E) for E in energies]
        ts = [0.0, math.pi / 8, math.pi / 2]
        reports = [rep for _, rep in ellipsoid_sweep(wide_and_dense(sc), ells, ts)]
        # the undeformed bounds, then one solve per row with t != 0
        solves = 1 + sum(rep.t != 0.0 for rep in reports)
        assert solved == sizes * solves


def seam_free_odd_window(g):
    """x e^{-pi x^2} at unit norm, with its seam sample (x = -L/2) set to 0 so
    that it is exactly odd on the grid."""
    v = g.xs() * gaussian_window(1j, g).values
    v[0] = 0.0
    return State(v / math.sqrt(float(np.sum(np.abs(v) ** 2)) * g.dx))


def torus_lattice(g, alpha, beta):
    """alpha Z x beta Z on [-L/2, L/2 - alpha] x [-P/2, P/2 - beta], P = N/L:
    the grid's torus, covered once."""
    P = g.N / g.L
    box = Box.from_pairs([[-g.L / 2, g.L / 2 - alpha], [-P / 2, P / 2 - beta]])
    return separable_lattice(alpha, beta, box)


TORUS_GRIDS = pytest.mark.parametrize("N, L", [(128, 8.0), (256, 16.0)])


class TestNegativeControl:
    """An odd window gives no frame on alpha Z x beta Z at alpha beta = 1/2
    (Lyubarskii & Nes, Appl. Comput. Harmon. Anal. 34, 2013); the Gaussian
    does, and so does the odd window at alpha beta = 1/4."""

    @TORUS_GRIDS
    @pytest.mark.parametrize("alpha, beta", [(1.0, 0.5), (0.5, 1.0)])
    def test_odd_window_is_no_frame_at_half_density(self, N, L, alpha, beta):
        g = GridSpec.centered(N=N, L=L)
        P = torus_lattice(g, alpha, beta)
        sysO = GaborSystem(seam_free_odd_window(g), P, g)
        bounds = frame_bounds(sysO)
        assert bounds.A == 0.0 and not bounds.is_frame
        # a kernel of dimension two, not a small lower bound
        assert np.max(np.abs(np.linalg.eigvalsh(frame_operator(sysO))[:2])) <= 1e-13
        gauss = frame_bounds(GaborSystem(gaussian_window(1j, g), P, g))
        assert gauss.A == pytest.approx(1.1715565326, rel=1e-10)
        assert gauss.B == pytest.approx(2.8495942824, rel=1e-10)

    @TORUS_GRIDS
    def test_odd_window_is_a_frame_at_quarter_density(self, N, L):
        g = GridSpec.centered(N=N, L=L)
        P = torus_lattice(g, 0.5, 0.5)
        bounds = frame_bounds(GaborSystem(seam_free_odd_window(g), P, g))
        assert bounds.is_frame
        assert bounds.A == pytest.approx(3.6530608885, rel=1e-10)

    def test_deformed_odd_window_is_a_frame_only_of_the_torus(self):
        # M = diag(4, 1/4), E = 1.3 moves 13 points; P = N/L = 16 throughout.
        # In the plane the deformed odd system is still no frame: its A' on
        # the torus (3.91e-4, 1.018e-4, 2.57e-5 at t = pi/4) falls about
        # fourfold per doubling of L, while the Gaussian's bounds settle
        H = QuadraticHamiltonian(np.diag([4.0, 0.25]))
        ts = [math.pi / 8, math.pi / 4]
        odd, gauss = [], []
        for N, L in [(128, 8.0), (256, 16.0), (512, 32.0)]:
            g = GridSpec.centered(N=N, L=L)
            P = torus_lattice(g, 1.0, 0.5)
            for window, reports in ((seam_free_odd_window(g), odd),
                                    (gaussian_window(1j, g), gauss)):
                sweep = ellipsoid_sweep(GaborSystem(window, P, g), [Ellipsoid(H, 1.3)], ts)
                reports.append([rep.bounds_after for _, rep in sweep])
        odd_A = [after[1].A for after in odd]
        assert all(after[1].is_frame for after in odd)
        assert odd_A[0] >= 3.0 * odd_A[1] and odd_A[1] >= 3.0 * odd_A[2]
        for k in range(2):
            A = [after[k].A for after in gauss]
            assert max(A) - min(A) <= 1e-11 * min(A)
            assert gauss[2][k].B == pytest.approx(gauss[1][k].B, rel=1e-10)


def test_live_lower_bound_is_a_plane_quantity():
    # the Gaussian on the torus-covering lattice at alpha = beta = 1/2, with
    # M = diag(4, 1/4): on two grids of one P = N/L = 16, A' of every
    # deformed system agrees within 1e-10, so it carries no O(1/L) torus
    # term.  At t = pi/4, moving the 35 points of E = 1.3 lowers it well
    # below A_w, the window-only bound of E = 0.01, which moves only the
    # origin, a fixed point of S_t
    H = QuadraticHamiltonian(np.diag([4.0, 0.25]))
    ells = [Ellipsoid(H, E) for E in (0.01, 1.3)]
    A = []
    for N, L in [(256, 16.0), (512, 32.0)]:
        g = GridSpec.centered(N=N, L=L)
        sysG = GaborSystem(gaussian_window(1j, g), torus_lattice(g, 0.5, 0.5), g)
        sweep = ellipsoid_sweep(sysG, ells, [math.pi / 8, math.pi / 4])
        A.append([rep.bounds_after.A for _, rep in sweep])
    for coarse, fine in zip(*A):
        assert abs(fine - coarse) <= 1e-10 * fine
    # rows (E, t): (0.01, pi/8), (0.01, pi/4), (1.3, pi/8), (1.3, pi/4)
    assert A[1][3] == pytest.approx(2.7689232945935, rel=1e-9)
    assert A[1][3] <= 0.8 * A[1][1]


class TestTorusShears:
    """The lifts of diag(1, 0), a chirp, and of diag(0, 1), a Fourier
    multiplier, with every point of a torus-covering lattice moved by the
    shear S_t = I + t J M: at t = 1/2 and 1 the deformed system keeps the
    bounds of the undeformed one (at t = 0.3 it does not, by up to 2.4e-3).
    S_1 maps the lattice onto itself modulo the torus, so the lift at t = 1/2
    is pinned up to U_1, under which the bounds are invariant: U_{-1/2}
    passes as well, U_0 and U_{0.3} do not."""

    @TORUS_GRIDS
    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize("M", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                             ids=["chirp", "multiplier"])
    @pytest.mark.filterwarnings("ignore:.*wrap")
    def test_shear_of_window_and_points_keeps_the_bounds(self, N, L, t, M):
        g = GridSpec.centered(N=N, L=L)
        P = torus_lattice(g, 0.5, 0.5)
        window = gaussian_window(0.6 + 1.5j, g)
        before = frame_bounds(GaborSystem(window, P, g))
        St = np.eye(2) + t * (standard_J(1) @ M)
        moved = PointSet(P.points @ St.T, 0.25)
        after = frame_bounds(GaborSystem(metaplectic_lift(M, t, g).apply(window), moved, g))
        assert before.is_frame
        assert after.A == pytest.approx(before.A, rel=1e-12)
        assert after.B == pytest.approx(before.B, rel=1e-12)
