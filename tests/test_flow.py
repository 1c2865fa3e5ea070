import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborflow import flow
from gaborflow.cli import main
from gaborflow.flow import (
    FlowStepError,
    NearSurfaceGradient,
    TruncatedHamiltonian,
    chi,
    flow_trajectory,
    grad_chi,
    integrate_flow,
    truncated_hamiltonian_value,
    verify_truncated_flow,
)
from gaborflow.lattice import Ellipsoid
from gaborflow.symplectic import QuadraticHamiltonian, flow_matrix


# starts for the unit circle with eps = 0.3: distance 0.2 from the surface lies
# in the transition shell (0.15, 0.3)
STARTS = {
    "shell": [1.2 * math.cos(0.4), 1.2 * math.sin(0.4)],
    "plateau": [0.5, 0.1],
    "outside": [3.0, 3.0],
}


@pytest.fixture
def circle_truncated(unit_circle):
    return TruncatedHamiltonian(unit_circle, 0.3)


class TestChi:
    def test_enclosed_is_one(self, circle_truncated):
        assert chi([0.1, 0.0], circle_truncated) == 1.0
        assert chi([1.0, 0.0], circle_truncated) == 1.0  # on the surface

    def test_outside_support_is_zero(self, circle_truncated):
        assert chi([3.0, 0.0], circle_truncated) == 0.0
        assert chi([0.0, -1.31], circle_truncated) == 0.0

    def test_midpoint_by_symmetry(self, circle_truncated):
        # s = 3 eps/4 sits at the symmetric center of the transition
        assert chi([1.225, 0.0], circle_truncated) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_radius(self, circle_truncated):
        radii = np.linspace(1.0, 1.4, 81)
        vals = [chi([r, 0.0], circle_truncated) for r in radii]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @given(angle=st.floats(0, 2 * math.pi), r1=st.floats(1.0, 1.5), r2=st.floats(1.0, 1.5))
    @settings(max_examples=20)
    def test_monotone_along_rays(self, angle, r1, r2):
        th = TruncatedHamiltonian(Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5), 0.3)
        lo, hi = sorted([r1, r2])
        u = np.array([math.cos(angle), math.sin(angle)])
        assert chi(lo * u, th) >= chi(hi * u, th)


class TestGradChi:
    def test_zero_on_plateaus(self, circle_truncated):
        assert np.array_equal(grad_chi([0.3, 0.2], circle_truncated), [0.0, 0.0])
        assert np.array_equal(grad_chi([1.0, 1.0], circle_truncated), [0.0, 0.0])

    def test_matches_finite_differences(self, circle_truncated):
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(12):
            r = rng.uniform(1.16, 1.29)
            ang = rng.uniform(0, 2 * math.pi)
            z = r * np.array([math.cos(ang), math.sin(ang)])
            analytic = grad_chi(z, circle_truncated)
            fd = np.zeros(2)
            for i in range(2):
                zp, zm = z.copy(), z.copy()
                zp[i] += step
                zm[i] -= step
                fd[i] = (chi(zp, circle_truncated) - chi(zm, circle_truncated)) / (2 * step)
            assert np.max(np.abs(analytic - fd)) <= 1e-5

    def test_near_surface_flagged(self, circle_truncated):
        z = [math.sqrt(1.0 + 1e-13), 0.0]  # H - E ~ 5e-14, outside branch
        with pytest.warns(NearSurfaceGradient):
            out = grad_chi(z, circle_truncated)
        assert np.array_equal(out, [0.0, 0.0])


class TestTruncatedValue:
    def test_rejects_nonpositive_eps(self, unit_circle):
        with pytest.raises(ValueError, match="eps must be positive"):
            TruncatedHamiltonian(unit_circle, 0.0)

    def test_interior_value(self, circle_truncated):
        assert truncated_hamiltonian_value([0.1, 0.0], circle_truncated) == pytest.approx(
            0.005, abs=1e-15
        )

    def test_outside_support(self, circle_truncated):
        assert truncated_hamiltonian_value([3.0, 0.0], circle_truncated) == 0.0

    def test_mid_shell_cross_check(self, circle_truncated):
        z = [1.22, 0.05]
        c = chi(z, circle_truncated)
        assert 0.0 < c < 1.0
        expect = circle_truncated.ell.H.value(z) * c
        assert truncated_hamiltonian_value(z, circle_truncated) == pytest.approx(expect)


class TestIntegrateFlow:
    def test_exterior_start_fixed_bitwise(self, circle_truncated):
        z0 = np.array([3.0, 3.0])
        out = integrate_flow(z0, circle_truncated, 1.0, 1e-3)
        assert np.array_equal(out, z0)

    def test_interior_matches_rotation(self, circle_truncated):
        out = integrate_flow([0.5, 0.0], circle_truncated, math.pi / 2.0, 1e-3)
        assert np.max(np.abs(out - [0.0, -0.5])) <= 1e-6

    def test_surface_orbit_conserves_H(self, circle_truncated, unit_circle):
        out = integrate_flow([1.0, 0.0], circle_truncated, 2.0, 1e-3)
        assert abs(unit_circle.value(out) - unit_circle.E) <= 1e-6 * unit_circle.E

    def test_returns_a_float_array(self, circle_truncated):
        out = integrate_flow([1, 0], circle_truncated, 0.01, 1e-3)
        assert type(out) is np.ndarray and out.dtype == float and out.shape == (2,)

    def test_zero_time(self, circle_truncated):
        z0 = np.array([0.3, 0.4])
        assert np.array_equal(integrate_flow(z0, circle_truncated, 0.0), z0)

    def test_step_underflow(self, circle_truncated):
        with pytest.raises(FlowStepError):
            integrate_flow([0.5, 0.0], circle_truncated, 1e-13, 1e-3)

    def test_support_fixes_random_exterior_points(self, circle_truncated):
        rng = np.random.default_rng(17)
        count = 0
        while count < 1000:
            z = rng.uniform(-4.0, 4.0, size=2)
            if chi(z, circle_truncated) != 0.0:
                continue
            out = integrate_flow(z, circle_truncated, 0.5, 1e-2)
            assert np.array_equal(out, z)
            count += 1

    def test_energy_conservation_along_trajectories(self, circle_truncated):
        # starts away from the transition endpoints, including mid-shell
        for z0, t in [([0.4, 0.1], 2 * math.pi), ([1.02, 0.0], 2.0), ([1.225, 0.0], 1.0)]:
            h0 = truncated_hamiltonian_value(z0, circle_truncated)
            out = integrate_flow(z0, circle_truncated, t, 1e-3)
            h1 = truncated_hamiltonian_value(out, circle_truncated)
            assert abs(h1 - h0) <= 1e-6 * (1.0 + abs(h0))

    def test_interior_linearity_full_period(self, circle_truncated, unit_circle):
        z0 = np.array([0.45, -0.2])
        out = integrate_flow(z0, circle_truncated, 2 * math.pi, 1e-3)
        ref = flow_matrix(unit_circle.H, 2 * math.pi).S @ z0
        assert np.max(np.abs(out - ref)) <= 1e-6

    def test_anisotropic_interior_linearity(self):
        ell = Ellipsoid(QuadraticHamiltonian(np.diag([4.0, 1.0])), 0.5)
        th = TruncatedHamiltonian(ell, 0.2)
        z0 = np.array([0.2, 0.3])
        out = integrate_flow(z0, th, 1.5, 1e-3)
        ref = flow_matrix(ell.H, 1.5).S @ z0
        assert np.max(np.abs(out - ref)) <= 1e-6


class TestVerifyTruncatedFlow:
    def test_zero_time_all_zero(self, z2_lattice, circle_truncated):
        rep = verify_truncated_flow(z2_lattice, circle_truncated, 0.0)
        assert rep.max_dev_moved == 0.0
        assert rep.max_dev_fixed == 0.0

    def test_quarter_turn_deviations(self, z2_lattice, circle_truncated):
        rep = verify_truncated_flow(z2_lattice, circle_truncated, math.pi / 2.0)
        assert rep.moved_count == 5
        assert rep.fixed_count == 44
        assert rep.max_dev_moved <= 1e-6
        assert rep.max_dev_fixed == 0.0

    def test_oversized_shell_rejected(self, z2_lattice, unit_circle):
        th = TruncatedHamiltonian(unit_circle, 0.42)
        with pytest.raises(ValueError, match="shell"):
            verify_truncated_flow(z2_lattice, th, 0.5)
        # the offending diagonal neighbours are named
        try:
            verify_truncated_flow(z2_lattice, th, 0.5)
        except ValueError as exc:
            assert "[1.0, 1.0]" in str(exc) or "[-1.0, -1.0]" in str(exc)


class TestTrajectory:
    def test_exterior_rows_constant(self, circle_truncated, tmp_path):
        times, pts, hvals = flow_trajectory([3.0, 3.0], circle_truncated, 0.05, 1e-2)
        assert np.all(pts == pts[0])
        assert np.all(hvals == 0.0)
        # the CLI's flow.csv on the same run: the unit circle with eps = 0.3 is
        # the built-in scenario
        out = tmp_path / "out"
        assert main(["flow", "--out", str(out), "--no-timestamp",
                     "--override", "flow.z0=[3.0,3.0]", "--override", "flow.t=0.05",
                     "--override", "flow.dt_max=0.01"]) == 0
        lines = (out / "flow.csv").read_text().splitlines()
        assert lines[0] == "t,x1,p1,H_eps"
        assert lines[1:] == [",".join(format(v, ".17g") for v in (t, *z, h))
                             for t, z, h in zip(times, pts, hvals)]

    def test_records_every_step(self, circle_truncated):
        times, pts, hvals = flow_trajectory([0.5, 0.0], circle_truncated, 0.02, 1e-3)
        assert times.size == 21
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.02)

    @pytest.mark.parametrize("kind", STARTS)
    def test_h_column_is_truncated_value_of_each_row(self, circle_truncated, kind):
        _, pts, hvals = flow_trajectory(STARTS[kind], circle_truncated, 0.05, 1e-3)
        expect = [truncated_hamiltonian_value(z, circle_truncated) for z in pts]
        assert np.array_equal(hvals, expect)

    @pytest.mark.parametrize("kind", STARTS)
    def test_integrate_flow_is_last_row(self, circle_truncated, kind):
        _, pts, _ = flow_trajectory(STARTS[kind], circle_truncated, 0.05, 1e-3)
        end = integrate_flow(STARTS[kind], circle_truncated, 0.05, 1e-3)
        assert np.array_equal(end, pts[-1])

    def test_one_classification_per_rk4_point(self, circle_truncated, monkeypatch):
        calls = []
        region = flow._region

        def counting(zc, th):
            calls.append(zc)
            return region(zc, th)

        monkeypatch.setattr(flow, "_region", counting)
        k = 20
        _, _, hvals = flow_trajectory(STARTS["shell"], circle_truncated, 0.02, 1e-3)
        # every row lies in the shell, so no step is skipped
        assert np.all((hvals > 0.0) & (hvals < circle_truncated.ell.value(STARTS["shell"])))
        # four RK4 stages per step, the first of which also gives the row's H
        assert len(calls) == 4 * k + 1
