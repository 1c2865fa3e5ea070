import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborflow import flow
from gaborflow.cli import main
from gaborflow.flow import (
    FlowStepError,
    TruncatedHamiltonian,
    flow_trajectory,
    hamiltonian_field,
    integrate_flow,
    verify_truncated_flow,
)
from gaborflow.lattice import Ellipsoid, distance_to_ellipsoid
from gaborflow.symplectic import QuadraticHamiltonian, flow_matrix, standard_J


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


def cutoff(z, th):
    """The cutoff at z as the flow classifies it: h of the shell coordinate
    (s - eps/2)/(eps/2), which is <= 0 on the plateau (h = 1) and >= 1
    outside the support (h = 0)."""
    s = flow._region(np.asarray(z, dtype=float).tolist(), th)[1]
    half = th.eps / 2.0
    return flow._h_and_slope((s - half) / half)[0]


class TestChi:
    def test_enclosed_is_one(self, circle_truncated):
        th = circle_truncated
        assert hamiltonian_field([0.1, 0.0], th)[1] == th.ell.H.value([0.1, 0.0])
        assert hamiltonian_field([1.0, 0.0], th)[1] == th.ell.H.value([1.0, 0.0])  # on the surface

    def test_outside_support_is_zero(self, circle_truncated):
        assert hamiltonian_field([3.0, 0.0], circle_truncated)[1] == 0.0
        assert hamiltonian_field([0.0, -1.31], circle_truncated)[1] == 0.0

    def test_midpoint_by_symmetry(self, circle_truncated):
        # s = 3 eps/4 sits at the symmetric center of the transition
        z = [1.225, 0.0]
        ratio = hamiltonian_field(z, circle_truncated)[1] / circle_truncated.ell.H.value(z)
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_radius(self, circle_truncated):
        radii = np.linspace(1.0, 1.4, 81)
        vals = [cutoff([r, 0.0], circle_truncated) for r in radii]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @given(angle=st.floats(0, 2 * math.pi), r1=st.floats(1.0, 1.5), r2=st.floats(1.0, 1.5))
    @settings(max_examples=20)
    def test_monotone_along_rays(self, angle, r1, r2):
        th = TruncatedHamiltonian(Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5), 0.3)
        lo, hi = sorted([r1, r2])
        u = np.array([math.cos(angle), math.sin(angle)])
        assert cutoff(lo * u, th) >= cutoff(hi * u, th)


class TestGradChi:
    # the cutoff's gradient enters the field J grad(H chi) only in the shell:
    # on both plateaus the field is J M z and 0, bitwise
    def test_zero_on_plateaus(self, circle_truncated):
        assert hamiltonian_field([0.3, 0.2], circle_truncated)[0] == [0.2, -0.3]
        assert hamiltonian_field([1.0, 1.0], circle_truncated)[0] == [0.0, 0.0]

    def test_matches_finite_differences(self, circle_truncated):
        # J grad(H chi) against J times central differences of H chi
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(12):
            r = rng.uniform(1.16, 1.29)
            ang = rng.uniform(0, 2 * math.pi)
            z = r * np.array([math.cos(ang), math.sin(ang)])
            analytic = np.array(hamiltonian_field(z, circle_truncated)[0])
            fd = np.zeros(2)
            for i in range(2):
                zp, zm = z.copy(), z.copy()
                zp[i] += step
                zm[i] -= step
                hp = hamiltonian_field(zp, circle_truncated)[1]
                hm = hamiltonian_field(zm, circle_truncated)[1]
                fd[i] = (hp - hm) / (2 * step)
            assert np.max(np.abs(analytic - standard_J(1) @ fd)) <= 1e-5

    def test_near_surface_flagged(self, circle_truncated):
        z = [math.sqrt(1.0 + 1e-13), 0.0]  # H - E ~ 5e-14, just outside the surface
        # within the inner half-shell: the plateau field, no cutoff gradient
        field, _ = hamiltonian_field(z, circle_truncated)
        assert field == (standard_J(1) @ circle_truncated.ell.H.M @ z).tolist()


class TestTruncatedValue:
    def test_rejects_nonpositive_eps(self, unit_circle):
        with pytest.raises(ValueError, match="eps must be positive"):
            TruncatedHamiltonian(unit_circle, 0.0)

    def test_interior_value(self, circle_truncated):
        h = hamiltonian_field([0.1, 0.0], circle_truncated)[1]
        assert h == pytest.approx(0.005, abs=1e-15)

    def test_outside_support(self, circle_truncated):
        assert hamiltonian_field([3.0, 0.0], circle_truncated)[1] == 0.0

    def test_mid_shell_cross_check(self, circle_truncated):
        z = [1.22, 0.05]
        c = cutoff(z, circle_truncated)
        assert 0.0 < c < 1.0
        expect = circle_truncated.ell.H.value(z) * c
        assert hamiltonian_field(z, circle_truncated)[1] == pytest.approx(expect)


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
        assert abs(unit_circle.H.value(out) - unit_circle.E) <= 1e-6 * unit_circle.E

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
            if cutoff(z, circle_truncated) != 0.0:
                continue
            out = integrate_flow(z, circle_truncated, 0.5, 1e-2)
            assert np.array_equal(out, z)
            count += 1

    def test_energy_conservation_along_trajectories(self, circle_truncated):
        # starts away from the transition endpoints, including mid-shell
        for z0, t in [([0.4, 0.1], 2 * math.pi), ([1.02, 0.0], 2.0), ([1.225, 0.0], 1.0)]:
            h0 = hamiltonian_field(z0, circle_truncated)[1]
            out = integrate_flow(z0, circle_truncated, t, 1e-3)
            h1 = hamiltonian_field(out, circle_truncated)[1]
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
        expect = [hamiltonian_field(z, circle_truncated)[1] for z in pts]
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
        assert np.all((hvals > 0.0) & (hvals < circle_truncated.ell.H.value(STARTS["shell"])))
        # four RK4 stages per step, the first of which also gives the row's H
        assert len(calls) == 4 * k + 1

    def test_one_evaluation_of_H_per_shell_field(self, circle_truncated, monkeypatch):
        # the shell projection reuses the H(z) of the classification
        calls = []
        H = circle_truncated.ell.H
        evaluate = type(H).gradient_and_value

        def counting(self, z):
            calls.append(z)
            return evaluate(self, z)

        monkeypatch.setattr(type(H), "gradient_and_value", counting)
        z = list(STARTS["shell"])
        region = flow._region(z, circle_truncated)[0]
        assert region == flow._SHELL and len(calls) == 1
        calls.clear()
        hamiltonian_field(z, circle_truncated)
        assert len(calls) == 1
        calls.clear()
        flow_trajectory(z, circle_truncated, 0.02, 1e-3)
        assert len(calls) == 4 * 20 + 1


def numpy_field(z, th):
    """J grad(H chi) and H chi at z evaluated with numpy on the point and
    classified by the exact surface distance: the reference for the float
    kernel of ``hamiltonian_field``."""
    zc = np.asarray(z, dtype=float)
    M = th.ell.H.M
    H = 0.5 * float(zc @ M @ zc)
    grad = M @ zc
    hp = 0.0
    if H > th.ell.E:
        d, proj = distance_to_ellipsoid(zc, th.ell)
        half = th.eps / 2.0
        if d >= th.eps:
            return np.zeros(zc.size), 0.0, 0.0
        if d > half:
            u = (d - half) / half
            c, hp = flow._h_and_slope(u)
            grad = c * grad + H * hp * (2.0 / th.eps) * (zc - proj) / d
            H = H * c
    n = zc.size // 2
    # the size of the terms the field sums, which bounds its rounding error
    size = float(np.linalg.norm(M @ zc)) + abs(H * hp) * 2.0 / th.eps
    return np.concatenate((grad[n:], -grad[:n])), H, size


M4 = np.array(
    [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0], [0.0, 0.2, 1.5, 0.4], [0.1, 0.0, 0.4, 0.8]]
)


def surface_point(ell, u):
    """The surface point in direction u and the outward unit normal there."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    y = math.sqrt(2.0 * ell.E / float(u @ ell.H.M @ u)) * u
    n = ell.H.M @ y
    return y, n / np.linalg.norm(n)


class TestFieldKernel:
    @pytest.mark.parametrize("M", [[[2.0, 0.3], [0.3, 0.7]], M4], ids=["n=1", "n=2"])
    def test_matches_the_numpy_field(self, M):
        ell = Ellipsoid(QuadraticHamiltonian(M), 0.9)
        th = TruncatedHamiltonian(ell, 0.3)
        rng = np.random.default_rng(37)
        pts = []
        for s in rng.uniform(-0.6, 0.45, 200):
            y, n = surface_point(ell, rng.normal(size=len(M)))
            # inside, the inner half-shell, the transition shell and outside
            pts.append(y + s * n if s >= 0.0 else (1.0 + s) * y)
        kinds = set()
        for z in pts:
            field, value = hamiltonian_field(z, th)
            ref, ref_value, size = numpy_field(z, th)
            scale = 8.0 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(z)))
            assert type(field) is list and len(field) == len(M)
            assert np.max(np.abs(np.array(field) - ref)) <= scale * (1.0 + size), z
            assert abs(value - ref_value) <= scale * (1.0 + abs(ref_value)), z
            if ref_value == 0.0:
                kinds.add("outside")
            else:
                kinds.add("shell" if ref_value < ell.H.value(z) else "plateau")
        assert kinds == {"outside", "shell", "plateau"}


class TestFlowInFourDimensions:
    # n = 2: a 4 x 4 M, E = 0.9, eps = 0.3, t = 1
    ell = Ellipsoid(QuadraticHamiltonian(M4), 0.9)
    th = TruncatedHamiltonian(ell, 0.3)

    def starts(self):
        y, n = surface_point(self.ell, [0.5, -0.3, 0.7, 0.2])
        # the shell start is 0.22 from the surface, inside (eps/2, eps)
        return {"shell": y + 0.22 * n, "plateau": 0.5 * y,
                "outside": (self.ell.outer_radius + 0.5) * y / np.linalg.norm(y)}

    @pytest.mark.parametrize("kind", ["shell", "plateau", "outside"])
    def test_conserves_H_eps(self, kind):
        _, _, hvals = flow_trajectory(self.starts()[kind], self.th, 1.0, 1e-3)
        assert np.max(np.abs(hvals - hvals[0])) <= 1e-7

    def test_shell_start_moves_inside_the_shell(self):
        z0 = self.starts()["shell"]
        _, pts, hvals = flow_trajectory(z0, self.th, 1.0, 1e-3)
        assert np.all((hvals > 0.0) & (hvals < self.ell.H.value(z0)))
        assert np.linalg.norm(pts[-1] - z0) > 0.1

    def test_plateau_start_follows_the_linear_flow(self):
        z0 = self.starts()["plateau"]
        end = integrate_flow(z0, self.th, 1.0, 1e-3)
        assert np.max(np.abs(end - flow_matrix(self.ell.H, 1.0).S @ z0)) <= 1e-6

    def test_outside_start_fixed_bitwise(self):
        z0 = self.starts()["outside"]
        _, pts, hvals = flow_trajectory(z0, self.th, 1.0, 1e-3)
        assert np.array_equal(pts, np.broadcast_to(z0, pts.shape))
        assert np.all(hvals == 0.0)


class TestWrongLengthPoints:
    # every entry of the float kernel rejects a point whose length is not 2n,
    # in each region, instead of computing on a prefix or freezing it
    @pytest.mark.parametrize("z0", [[0.5, 0.0], [0.5, 0.0, 0.1, 0.0, 0.0]])
    def test_flow_in_four_dimensions(self, z0):
        with pytest.raises(ValueError, match="dimension"):
            flow_trajectory(z0, TestFlowInFourDimensions.th, 1.0, 1e-2)

    @pytest.mark.parametrize("kind", ["shell", "plateau", "outside"])
    @pytest.mark.parametrize("as_list", [True, False])
    def test_every_entry_on_the_circle(self, circle_truncated, kind, as_list):
        z = STARTS[kind] + [0.0]
        if not as_list:
            z = np.array(z)
        with pytest.raises(ValueError, match="dimension"):
            hamiltonian_field(z, circle_truncated)
        with pytest.raises(ValueError, match="dimension"):
            flow_trajectory(z, circle_truncated, 0.5, 1e-2)
