import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

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
    classify_points,
    deform_point_set,
    max_safe_epsilon,
    separable_lattice,
)
from gaborflow import metaplectic
from gaborflow.metaplectic import metaplectic_lift
from gaborflow.quantum import GridSpec, State, gaussian_window, heisenberg, inner, norm
from gaborflow.symplectic import QuadraticHamiltonian, flow_matrix

ALPHA = 2.0 ** -0.5
REF_GRID = GridSpec.centered(N=128, L=12.0)


def reference_system(grid=REF_GRID, box=((-6, 6), (-6, 6))):
    phi = gaussian_window(1j, grid)
    P = separable_lattice(ALPHA, ALPHA, Box.from_pairs(box), 1)
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
        P = separable_lattice(1.0, 1.0, Box.from_pairs([[-2.5, 2.5], [-2.5, 2.5]]), 1)
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
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[0.5, 5], [0.5, 5]]), 1)
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
    new_sys = GaborSystem(U.apply(sys.window), deform_point_set(sys.points, ell, t), sys.grid)
    b0, b1 = frame_bounds(sys), frame_bounds(new_sys)
    scale = max(b0.B, b1.B)
    return (t, ell.E, max_safe_epsilon(sys.points, ell),
            len(classify_points(sys.points, ell).inside), b0.A, b0.B, b1.A, b1.B,
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
            len(classify_points(sysR.points, ell).inside) for ell in ells]
        assert 0 < swept[0][1].moved_count < swept[3][1].moved_count < len(sysR.points)

    def test_wrap_around_warns_for_every_deformed_system(self):
        # |q| reaches 2.83 > L/2 = 2 on the fixed points; the enclosed ones
        # stay inside the box, so only a check of the whole set warns
        g = GridSpec.centered(N=64, L=4.0)
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3], [-3, 3]]), 1)
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
            assert np.max(np.abs(out.points.points[classify_points(P, ell).inside, 0])) < 2.0
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
        P = separable_lattice(ALPHA, ALPHA, Box.from_pairs([[-3, 3], [-3, 3]]), 1)
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
