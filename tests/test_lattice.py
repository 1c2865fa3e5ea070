import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborflow.lattice import (
    _NEGLIGIBLE,
    ON_SURFACE_REL_TOL,
    Box,
    Ellipsoid,
    PointSet,
    _secular_root,
    deform_point_set,
    distance_to_ellipsoid,
    enclosed_indices,
    _nearest_distance,
    max_safe_epsilon,
    off_surface_distances,
    separable_lattice,
)
from gaborflow.symplectic import QuadraticHamiltonian


def surface_samples(ell, samples=1_000_000):
    """Dense sampling of the surface {H = E} of a 2-D ellipse."""
    mu, Q = np.linalg.eigh(ell.H.M)
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    # parametrize {1/2 mu_1 a^2 + 1/2 mu_2 b^2 = E} by the angle
    a = np.sqrt(2.0 * ell.E / mu[0]) * np.cos(theta)
    b = np.sqrt(2.0 * ell.E / mu[1]) * np.sin(theta)
    return np.stack([a, b], axis=-1) @ Q.T


def surface_sampling_distance(z, ell, samples=1_000_000):
    """Independent distance oracle: densely sample the surface and minimize."""
    pts = surface_samples(ell, samples)
    return float(np.min(np.linalg.norm(pts - np.asarray(z), axis=1)))


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Box.from_pairs([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="even"):
            Box(np.array([0.0]), np.array([1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Box.from_pairs([[math.nan, 1.0], [0.0, 1.0]])


class TestPointSet:
    def test_separation_enforced(self):
        with pytest.raises(ValueError, match="separation"):
            PointSet(np.array([[0.0, 0.0], [0.1, 0.0]]), delta=1.0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointSet(np.array([[1.0, 0.0], [1.0, 0.0]]), delta=0.5)


def brute_nearest(pts, rows):
    """Double loop over the pairs with at least one point in ``rows``."""
    return min(math.dist(pts[i], pts[j]) for i in rows for j in range(len(pts)) if j != i)


def assert_within_ulps(got, ref):
    # each distance is 2n <= 4 rounded squared differences, their sum and a
    # square root: within 4 units in the last place of math.dist's value
    assert abs(got - ref) <= 4.0 * math.ulp(ref)


class TestNearestDistance:
    @pytest.mark.parametrize("n", [1, 2])
    def test_separation_check_against_double_loop(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(2, 40)), 2 * n))
            dmin = brute_nearest(pts, range(len(pts)))
            assert_within_ulps(_nearest_distance(pts, np.arange(len(pts))), dmin)
            PointSet(pts, delta=dmin)
            with pytest.raises(ValueError, match="separation"):
                PointSet(pts, delta=dmin * (1.0 + 1e-8))

    @pytest.mark.parametrize("n", [1, 2])
    def test_move_points_delta_against_double_loop(self, n):
        rng = np.random.default_rng(40 + n)
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2 * n)), 1.0)
        for _ in range(20):
            m = int(rng.integers(2, 40))
            pts = 1.5 * rng.normal(size=(m, 2 * n))
            P = PointSet(pts, delta=brute_nearest(pts, range(m)))
            moved = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            out = deform_point_set(P, moved, ell, float(rng.uniform(-3.0, 3.0)))
            assert_within_ulps(out.delta, min(P.delta, brute_nearest(out.points, moved)))

    def test_closest_pair_moved_and_fixed(self, unit_circle):
        # (0.5, 0) turns onto (0, -0.5), 0.8 from the fixed (0, -1.3); the
        # fixed pair (2, 2), (3, 2) keeps the old separation 1
        pts = np.array([[0.5, 0.0], [0.0, -1.3], [2.0, 2.0], [3.0, 2.0]])
        P = PointSet(pts, delta=1.0)
        out = deform_point_set(P, np.array([0]), unit_circle, math.pi / 2.0)
        assert out.delta == pytest.approx(0.8, rel=1e-12)
        assert_within_ulps(out.delta, math.dist(out.points[0], pts[1]))
        assert_within_ulps(out.delta, brute_nearest(out.points, range(4)))


class TestSeparableLattice:
    def test_unit_lattice_count(self):
        P = separable_lattice(1.0, 1.0, Box.from_pairs([[-2.5, 2.5], [-2.5, 2.5]]))
        assert len(P) == 25
        assert P.delta == 1.0

    def test_mixed_spacing_count(self):
        P = separable_lattice(1.0, 2.0, Box.from_pairs([[-2.5, 2.5], [-2.5, 2.5]]))
        assert len(P) == 15  # 5 x 3
        assert P.delta == 1.0

    def test_scaled_lattice_by_enumeration(self):
        a = 2.0 ** -0.5
        P = separable_lattice(a, a, Box.from_pairs([[-2, 2], [-2, 2]]))
        # oracle: enumerate indices k with |k * a| <= 2, i.e. k in -2..2
        ks = [k for k in range(-10, 11) if abs(k * a) <= 2.0 + 1e-12]
        assert len(P) == len(ks) ** 2 == 25

    def test_empty_intersection_flagged(self):
        with pytest.warns(UserWarning, match="no lattice points"):
            P = separable_lattice(10.0, 10.0, Box.from_pairs([[1.0, 2.0], [1.0, 2.0]]))
        assert len(P) == 0


class TestClassifyPoints:
    def test_radius_1p5_circle(self, z2_lattice):
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 1.125)
        enclosed = enclosed_indices(z2_lattice, ell)
        # brute-force oracle over all 49 candidates
        expect = {
            tuple(z) for z in z2_lattice.points if 0.5 * (z[0] ** 2 + z[1] ** 2) <= 1.125
        }
        got = {tuple(z2_lattice.points[i]) for i in enclosed}
        assert got == expect
        assert len(got) == 9

    def test_radius_2_circle_gauss_count(self, z2_lattice):
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 2.0)
        assert len(enclosed_indices(z2_lattice, ell)) == 13

    def test_unit_circle_split(self, z2_lattice, unit_circle):
        # the center inside and four points on the surface
        on = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
        idx = enclosed_indices(z2_lattice, unit_circle)
        assert {tuple(z) for z in z2_lattice.points[idx]} == on | {(0.0, 0.0)}
        idx, _ = off_surface_distances(z2_lattice, unit_circle)
        assert {tuple(z) for z in np.delete(z2_lattice.points, idx, axis=0)} == on

    def test_partition_is_exact(self, z2_lattice, unit_circle):
        rng = np.random.default_rng(5)
        ells = [unit_circle]
        for _ in range(5):
            H = QuadraticHamiltonian(np.diag(rng.uniform(0.3, 3.0, 2)))
            ells.append(Ellipsoid(H, rng.uniform(0.2, 4.0)))
        for ell in ells:
            idx = enclosed_indices(z2_lattice, ell)
            # ascending and unique, and exactly the brute-force enclosed set
            assert np.all(np.diff(idx) > 0)
            brute = [i for i, z in enumerate(z2_lattice.points)
                     if ell.H.value(z) <= ell.E * (1.0 + 1e-9)]
            assert idx.tolist() == brute


class TestDistanceToEllipsoid:
    def test_radial_point(self, unit_circle):
        d, proj = distance_to_ellipsoid([2.0, 0.0], unit_circle)
        assert d == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(proj, [1.0, 0.0], atol=1e-9)

    def test_center_convention(self, unit_circle):
        d, proj = distance_to_ellipsoid([0.0, 0.0], unit_circle)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(proj, [1.0, 0.0], atol=1e-12)

    def test_diagonal_point_against_sampling(self, unit_circle):
        d, proj = distance_to_ellipsoid([1.0, 1.0], unit_circle)
        oracle = surface_sampling_distance([1.0, 1.0], unit_circle)
        assert d == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)
        assert d == pytest.approx(oracle, abs=1e-9)
        assert abs(unit_circle.H.value(proj) - unit_circle.E) <= 1e-10 * unit_circle.E

    def test_anisotropic_against_sampling(self):
        ell = Ellipsoid(QuadraticHamiltonian(np.diag([4.0, 1.0])), 0.5)
        d, proj = distance_to_ellipsoid([1.0, 0.0], ell)
        assert d == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(proj, [0.5, 0.0], atol=1e-9)
        oracle = surface_sampling_distance([1.0, 0.0], ell)
        assert d == pytest.approx(oracle, abs=1e-9)

    def test_interior_point_off_axis_projection(self):
        # interior point on the long axis projects to the short-axis side
        ell = Ellipsoid(QuadraticHamiltonian(np.diag([4.0, 1.0])), 0.5)
        z = [0.0, 1e-4]
        d, proj = distance_to_ellipsoid(z, ell)
        oracle = surface_sampling_distance(z, ell)
        assert d == pytest.approx(oracle, abs=1e-8)
        assert abs(ell.H.value(proj) - ell.E) <= 1e-10 * ell.E

    def test_zero_distance_iff_on_surface(self, unit_circle):
        d_on, proj_on = distance_to_ellipsoid([1.0, 0.0], unit_circle)
        assert d_on == 0.0
        assert np.array_equal(proj_on, [1.0, 0.0])
        # just off the 1e-10 relative band: strictly positive distance
        z = [1.0 + 1e-9, 0.0]
        d_off, _ = distance_to_ellipsoid(z, unit_circle)
        assert d_off > 0.0

    def test_projection_is_a_new_float_array(self):
        ell = Ellipsoid(QuadraticHamiltonian([[2.0, 0.3], [0.3, 0.7]]), 0.5)
        # exterior, interior, the center (pole case) and a surface point
        for z in ([2.0, 1.0], [0.1, 0.2], [0.0, 0.0], [1.0 / math.sqrt(2.0), 0.0]):
            z = np.array(z)
            _, proj = distance_to_ellipsoid(z, ell)
            assert type(proj) is np.ndarray and proj.dtype == float and proj.shape == (2,)
            assert not np.shares_memory(proj, z)

    def test_reads_the_stored_eigenbasis(self, monkeypatch):
        ell = Ellipsoid(QuadraticHamiltonian([[2.0, 0.3], [0.3, 0.7]]), 0.5)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a) or eigh(*a))
        # exterior, interior, the center (pole case) and a surface point
        for z in ([2.0, 1.0], [0.1, 0.2], [0.0, 0.0], [1.0 / math.sqrt(2.0), 0.0]):
            distance_to_ellipsoid(z, ell)
        assert calls == []

    def test_dimension_mismatch(self, unit_circle):
        with pytest.raises(ValueError, match="dimension"):
            distance_to_ellipsoid([1.0, 0.0, 0.0, 0.0], unit_circle)

    def test_non_finite_point_rejected(self, unit_circle):
        with pytest.raises(ValueError, match="finite"):
            distance_to_ellipsoid([math.nan, 0.0], unit_circle)

    def test_circle_exact_to_float_resolution(self, unit_circle):
        # the circle has a repeated eigenvalue; oracle: d = ||z| - sqrt(2E)|
        rng = np.random.default_rng(23)
        radii = np.concatenate(
            [rng.uniform(1.0 + 1e-6, 4.0, 2000), rng.uniform(0.0, 1.0 - 1e-6, 2000)]
        )
        angles = rng.uniform(0.0, 2.0 * math.pi, radii.size)
        pts = list(radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1))
        # the 7th sample of TestGradChi.test_matches_finite_differences, where
        # the cutoff's finite-difference quotient used to miss its bound, and
        # the stencil points its truncated H is evaluated at there
        fd_rng = np.random.default_rng(5)
        for _ in range(7):
            r = fd_rng.uniform(1.16, 1.29)
            ang = fd_rng.uniform(0, 2 * math.pi)
        z7 = r * np.array([math.cos(ang), math.sin(ang)])
        pts += [z7] + [z7 + h * e for h in (1e-6, -1e-6) for e in np.eye(2)]
        for z in pts:
            rz = math.hypot(*z)
            d, proj = distance_to_ellipsoid(z, unit_circle)
            assert abs(d - abs(rz - 1.0)) <= 1e-14 * (1.0 + rz)
            assert np.max(np.abs(proj - z / rz)) <= 1e-14 * (1.0 + rz)

    def test_anisotropic_ellipse_optimality(self):
        # sharp checks: the projection is on the surface, z - proj is normal
        # there, and no densely sampled surface point is nearer than d
        ell = Ellipsoid(QuadraticHamiltonian(np.array([[2.0, 0.3], [0.3, 0.7]])), 1.3)
        surface = surface_samples(ell)
        rng = np.random.default_rng(29)
        for z in rng.uniform(-4.0, 4.0, size=(16, 2)):
            scale = 1.0 + float(np.linalg.norm(z))
            d, w = distance_to_ellipsoid(z, ell)
            normal = ell.H.M @ w
            assert abs(ell.H.value(w) - ell.E) <= 1e-14 * ell.E
            assert abs(d - np.linalg.norm(z - w)) <= 1e-14 * scale
            cross = (z - w)[0] * normal[1] - (z - w)[1] * normal[0]
            assert abs(cross) <= 1e-14 * scale * np.linalg.norm(normal)
            # exterior points project along the outward normal, interior inward
            assert np.sign((z - w) @ normal) == np.sign(ell.H.value(z) - ell.E)
            oracle = float(np.min(np.linalg.norm(surface - z, axis=1)))
            assert d <= oracle + 1e-14 * scale
            assert oracle - d <= 1e-9

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_axes_and_center_closed_form(self, angle):
        # semi-axes 1/2 along the first and 1 along the second principal
        # direction; rotated by `angle`, so axis points carry rounding-level
        # components off the axis
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        ell = Ellipsoid(QuadraticHamiltonian(R @ np.diag([4.0, 1.0]) @ R.T), 0.5)

        def long_axis_inside(p):
            # inside the evolute cusp (|p| < 3/4) the nearest point leaves the axis
            if abs(p) < 0.75:
                return 0.5 * math.sqrt(1.0 - p * p / 0.75)
            return 1.0 - abs(p)

        cases = [((x, 0.0), abs(abs(x) - 0.5)) for x in (-2.0, -0.7, -0.3, 0.1, 0.49, 0.6, 3.0)]
        cases += [((0.0, p), abs(abs(p) - 1.0)) for p in (-3.0, -1.2, 1.01, 2.5)]
        inside_p = (-0.9, -0.75, -0.5, 1e-9, 0.3, 0.74, 0.8)
        cases += [((0.0, p), long_axis_inside(p)) for p in inside_p]
        # components far below float resolution on the short axis, down to
        # the smallest subnormal: the distance is 1-Lipschitz, so unchanged
        tiny = (1e-40, 1e-300, 5e-324)
        cases += [((x, p), long_axis_inside(p)) for x in tiny for p in (0.3, 0.74)]
        cases += [((0.0, 0.0), 0.5)]
        for y, expect in cases:
            z = R @ np.array(y)
            d, proj = distance_to_ellipsoid(z, ell)
            scale = 1.0 + float(np.linalg.norm(z))
            assert abs(d - expect) <= 1e-14 * scale, (y, d, expect)
            assert abs(ell.H.value(proj) - ell.E) <= 1e-14 * ell.E
        # the center projects onto an end of the short axis
        _, proj = distance_to_ellipsoid([0.0, 0.0], ell)
        assert np.max(np.abs(np.abs(R.T @ proj) - [0.5, 0.0])) <= 1e-14


def numpy_distance(z, ell):
    """The surface projection evaluated with numpy on the point, as the
    package computed it before its kernel moved to plain floats: the same
    bracket, pole point, negligible-coordinate drop and secular solve."""
    zc = np.asarray(z, dtype=float)
    E = ell.E
    Hz = 0.5 * float(zc @ ell.H.M @ zc)
    if abs(Hz - E) <= ON_SURFACE_REL_TOL * E:
        return 0.0, zc.copy()
    mu, Q = ell.H.eigenvalues, ell.H.eigenvectors
    y = Q.T @ zc
    r = mu / mu[-1]
    c = 1.0 - r
    nz = np.abs(y) > _NEGLIGIBLE * (1.0 + float(np.linalg.norm(zc)))
    mu_n, r_n, c_n, y_n = mu[nz], r[nz], c[nz], y[nz]

    def psi(s):
        den = c_n + s * r_n
        w2 = (y_n / den) ** 2
        q = 0.5 * float(mu_n @ w2) / E
        slope = float(mu_n @ (r_n * w2 / den)) / (2.0 * E * q**1.5)
        return 1.0 / math.sqrt(q) - 1.0, slope

    if Hz > E:
        lo = max(1.0, math.sqrt(Hz / E))
        hi = max(lo, mu[-1] * math.sqrt(float(y**2 @ (1.0 / mu)) / (2.0 * E)))
    else:
        hi = 1.0
        top = c_n == 0.0
        if np.any(top):
            lo = min(hi, math.hypot(*y_n[top]) * math.sqrt(mu[-1] / (2.0 * E)))
        elif 0.5 * float(mu_n @ (y_n / c_n) ** 2) > E:
            lo = 0.0
        else:
            top = c == 0.0
            w = np.zeros_like(y)
            w[~top] = (y * nz)[~top] / c[~top]
            spare = 2.0 * E - float(mu @ w**2)
            w[np.argmax(top)] = math.sqrt(max(spare, 0.0) / mu[-1])
            return float(np.linalg.norm(y - w)), Q @ w
    s = _secular_root(psi, lo, hi)
    w = np.zeros_like(y)
    w[nz] = y_n / (c_n + s * r_n)
    return float(np.linalg.norm(y - w)), Q @ w


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# the circle, three ellipses (one rotated off its axes) and one n = 2 ellipsoid
KERNEL_ELLIPSOIDS = {
    "circle": (np.eye(2), 0.5),
    "axis-aligned": (np.diag([4.0, 1.0]), 0.5),
    "coupled": (np.array([[2.0, 0.3], [0.3, 0.7]]), 1.3),
    "rotated": (_rotation(0.3) @ np.diag([16.0, 1.0]) @ _rotation(0.3).T, 2.0),
    "n=2": (
        np.array(
            [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0], [0.0, 0.2, 1.5, 0.4], [0.1, 0.0, 0.4, 0.8]]
        ),
        0.9,
    ),
}


def kernel_points(ell, rng, count=40):
    """Seeded exterior, interior and shell points, then points on the
    principal axes (inside and outside) and the center."""
    dim = 2 * ell.dim
    u = rng.normal(size=(count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # the surface point in direction u and the outward unit normal there
    y = np.sqrt(2.0 * ell.E / ell.H.values(u))[:, None] * u
    n = y @ ell.H.M
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    pts = [y[i] + s * n[i] for i, s in enumerate(rng.uniform(0.01, 0.5, count))]
    pts += list(rng.uniform(1.1, 4.0, (count, 1)) * y)
    pts += list(rng.uniform(0.0, 0.95, (count, 1)) * y)
    axes = [np.zeros(dim)]
    Q = ell.H.eigenvectors
    for k in range(dim):
        semi = math.sqrt(2.0 * ell.E / ell.H.eigenvalues[k])
        axes += [f * semi * Q[:, k] for f in (-2.5, -0.6, 0.2, 0.9, 1.3)]
    return pts, axes


class TestFloatKernel:
    @pytest.mark.parametrize("name", KERNEL_ELLIPSOIDS)
    def test_matches_the_numpy_projection(self, name):
        M, E = KERNEL_ELLIPSOIDS[name]
        ell = Ellipsoid(QuadraticHamiltonian(M), E)
        Q = ell.H.eigenvectors
        pts, axes = kernel_points(ell, np.random.default_rng(31))
        for z in pts + axes:
            tol = 8.0 * np.finfo(float).eps * (1.0 + float(np.linalg.norm(z)))
            d, proj = distance_to_ellipsoid(z, ell)
            d_ref, proj_ref = numpy_distance(z, ell)
            assert abs(d - d_ref) <= tol, (z, d, d_ref)
            if any(z is a for a in axes):
                # an axis point inside the evolute has mirror-image nearest
                # points; rounding noise off the axis picks one of them, so
                # compare the eigenbasis coordinates up to sign
                proj, proj_ref = np.abs(Q.T @ proj), np.abs(Q.T @ proj_ref)
            assert np.max(np.abs(proj - proj_ref)) <= tol, (z, proj, proj_ref)


    @pytest.mark.parametrize("name", KERNEL_ELLIPSOIDS)
    def test_list_tuple_and_array_agree_bitwise(self, name):
        # a list of 2n coordinates is used as it is, anything else is
        # converted first; the arithmetic must not depend on which
        M, E = KERNEL_ELLIPSOIDS[name]
        ell = Ellipsoid(QuadraticHamiltonian(M), E)
        pts, axes = kernel_points(ell, np.random.default_rng(31))
        for z in pts + axes:
            d, proj = distance_to_ellipsoid(z, ell)
            for form in (z.tolist(), tuple(z.tolist())):
                d_form, proj_form = distance_to_ellipsoid(form, ell)
                assert np.float64(d_form).tobytes() == np.float64(d).tobytes(), (z, form)
                assert proj_form.dtype == float and proj_form.tobytes() == proj.tobytes(), z

    @pytest.mark.parametrize("M, z", [
        (np.eye(2), [1.0, 0.0, 0.0]),
        (KERNEL_ELLIPSOIDS["n=2"][0], [0.5, 0.0, 0.1, 0.0, 0.0]),
        (KERNEL_ELLIPSOIDS["n=2"][0], [0.5, 0.0, 0.1]),
    ])
    def test_a_list_of_the_wrong_length_raises(self, M, z):
        # the kernel sums with zip, which would stop at the shorter sequence
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance_to_ellipsoid(z, Ellipsoid(QuadraticHamiltonian(M), 0.5))

    def test_int_list_on_the_surface_gives_a_float_projection(self, unit_circle):
        z = [1, 0]
        d, proj = distance_to_ellipsoid(z, unit_circle)
        assert d == 0.0
        assert type(proj) is np.ndarray and proj.dtype == np.float64
        assert proj.tolist() == [1.0, 0.0]


class TestSecularRoot:
    def test_sharp_bend_converges_in_few_steps(self):
        # psi = 1 - 1/s is concave with its root 30 decades above lo: plain
        # Newton from lo only doubles s per step and would exhaust the cap
        from gaborflow.lattice import _secular_root

        evals = []

        def psi(s):
            evals.append(s)
            return 1.0 - 1.0 / s, 1.0 / s**2

        root = _secular_root(psi, 1e-30, 1e6)
        assert abs(root - 1.0) <= 4.0 * np.finfo(float).eps
        assert len(evals) <= 20


class TestOffSurfaceDistances:
    def test_scan_matches_per_point_distances(self, z2_lattice):
        ell = Ellipsoid(QuadraticHamiltonian([[2.0, 0.3], [0.3, 0.7]]), 2.0)
        idx, d = off_surface_distances(z2_lattice, ell)
        vals = ell.H.values(z2_lattice.points)
        assert np.array_equal(idx, np.nonzero(np.abs(vals - ell.E) > 1e-9 * ell.E)[0])
        expect = [distance_to_ellipsoid(z2_lattice.points[i], ell)[0] for i in idx]
        assert np.array_equal(d, expect)
        assert max_safe_epsilon(z2_lattice, ell) == np.min(d)

    def test_surface_points_left_out(self, z2_lattice, unit_circle):
        idx, d = off_surface_distances(z2_lattice, unit_circle)
        on = [i for i, z in enumerate(z2_lattice.points.tolist()) if z[0] ** 2 + z[1] ** 2 == 1]
        assert len(on) == 4
        assert np.array_equal(idx, np.setdiff1d(np.arange(49), on))
        assert float(np.min(d)) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


class TestMaxSafeEpsilon:
    def test_unit_circle_value(self, z2_lattice, unit_circle):
        eps = max_safe_epsilon(z2_lattice, unit_circle)
        # brute-force oracle over all 49 points
        best = math.inf
        for z in z2_lattice.points:
            if abs(unit_circle.H.value(z) - unit_circle.E) <= 1e-9 * unit_circle.E:
                continue
            best = min(best, surface_sampling_distance(z, unit_circle, samples=200_000))
        assert eps == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)
        assert eps == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("E", [1.3, 4.3])
    def test_deformation_lattice_closed_form(self, E):
        # the lattice and circles of the mixed deformation sweep
        a = 2.0 ** -0.5
        P = separable_lattice(a, a, Box.from_pairs([[-6, 6], [-6, 6]]))
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), E)
        off = np.abs(ell.H.values(P.points) - E) > 1e-9 * E
        radii = np.hypot(P.points[off, 0], P.points[off, 1])
        closed_form = float(np.min(np.abs(radii - math.sqrt(2.0 * E))))
        assert abs(max_safe_epsilon(P, ell) - closed_form) <= 1e-14

    def test_empty_set_returns_cap(self, unit_circle):
        empty = PointSet(np.empty((0, 2)), delta=1.0)
        assert max_safe_epsilon(empty, unit_circle) == 1.0

    def test_all_points_on_surface_returns_cap(self, unit_circle):
        P = PointSet(np.array([[1.0, 0.0]]), delta=0.5)
        assert max_safe_epsilon(P, unit_circle) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
        theta=st.floats(0.0, math.pi),
        E=st.floats(0.05, 20.0),
        coords=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                        min_size=1, max_size=30),
        radial=st.lists(st.floats(0.0, 2.0), max_size=4),
    )
    # the round circle: every axis point ties with its quarter turns
    @example(mu=(1.0, 1.0), theta=0.0, E=0.5, coords=[(1.0, 1.0), (2.0, 0.0)],
             radial=[0.5, 1.0, 2.0])
    def test_equals_exhaustive_minimum_bitwise(self, mu, theta, E, coords, radial):
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        M = R @ np.diag(mu) @ R.T
        M[1, 0] = M[0, 1]
        ell = Ellipsoid(QuadraticHamiltonian(M), E)
        w, Q = np.linalg.eigh(M)
        rows = [np.array(z) for z in coords]
        # the radial points of the surface, which the bounds use
        rows += [z * math.sqrt(E / ell.H.value(z)) for z in rows[:5] if ell.H.value(z) > 0.0]
        rows.append(np.zeros(2))  # the center
        # points on both axes, inside, on and outside the surface
        rows += [s * math.sqrt(2.0 * E / w[k]) * Q[:, k] for s in radial for k in (0, 1)]
        # a point set keeps points at least 1e-6 apart
        pts = []
        for z in rows:
            if all(np.linalg.norm(z - y) >= 1e-6 for y in pts):
                pts.append(z)
        P = PointSet(np.array(pts), delta=1e-6)
        _, d = off_surface_distances(P, ell)
        expect = float(np.min(d)) if d.size else 1.0
        assert max_safe_epsilon(P, ell) == expect

    def test_thickening_property(self, z2_lattice, unit_circle):
        eps_star = max_safe_epsilon(z2_lattice, unit_circle)
        rng = np.random.default_rng(11)
        dists = np.array(
            [distance_to_ellipsoid(z, unit_circle)[0] for z in z2_lattice.points]
        )
        on_surface = (
            np.abs(unit_circle.H.values(z2_lattice.points) - unit_circle.E)
            <= 1e-9 * unit_circle.E
        )
        for eps in rng.uniform(0.0, eps_star, size=100):
            captured = dists <= eps
            assert np.all(on_surface[captured])


def deform(P, ell, t):
    """Find the enclosed set, then move it: the sweep's two steps."""
    return deform_point_set(P, enclosed_indices(P, ell), ell, t)


class TestDeformPointSet:
    def test_zero_time_is_identity(self, z2_lattice, unit_circle):
        out = deform(z2_lattice, unit_circle, 0.0)
        assert np.array_equal(out.points, z2_lattice.points)

    def test_nothing_enclosed_nothing_moves(self):
        # quadrant lattice avoiding the origin; tiny ellipsoid encloses nothing
        P = separable_lattice(1.0, 1.0, Box.from_pairs([[0.5, 3], [0.5, 3]]))
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.05)
        out = deform(P, ell, 1.3)
        assert out is P

    def test_quarter_turn_maps_enclosed_set_to_itself(self, z2_lattice):
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.72)
        out = deform(z2_lattice, ell, math.pi / 2.0)
        # oracle: apply [[0,1],[-1,0]] to the five enclosed points directly
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expect = {tuple(np.round(z, 12)) for z in z2_lattice.points}
        got = {tuple(np.round(z, 12)) for z in out.points}
        assert got == expect
        five = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        for z in five:
            assert tuple(np.round(R @ z, 12)) in expect

    def test_eighth_turn_moves_boundary_point(self, z2_lattice):
        ell = Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.72)
        out = deform(z2_lattice, ell, math.pi / 4.0)
        s = math.sqrt(2.0) / 2.0
        assert any(np.allclose(z, [s, -s], atol=1e-12) for z in out.points)
        assert len(out) == len(z2_lattice)

    def test_exterior_points_bitwise_fixed(self, z2_lattice, unit_circle):
        out = deform(z2_lattice, unit_circle, 0.77)
        ext = unit_circle.H.values(z2_lattice.points) > unit_circle.E * (1 + 1e-9)
        assert np.array_equal(out.points[ext], z2_lattice.points[ext])

    def test_enclosed_points_conserve_H(self, z2_lattice):
        ell = Ellipsoid(QuadraticHamiltonian(np.array([[2.0, 0.5], [0.5, 1.0]])), 1.7)
        out = deform(z2_lattice, ell, 1.234)
        before = ell.H.values(z2_lattice.points)
        after = ell.H.values(out.points)
        enclosed = before <= ell.E * (1 + 1e-9)
        assert np.all(np.abs(after[enclosed] - before[enclosed]) <= 1e-9 * ell.E)

    def test_boundary_points_stay_on_surface(self, z2_lattice, unit_circle):
        out = deform(z2_lattice, unit_circle, 0.4)
        onb = np.abs(unit_circle.H.values(z2_lattice.points) - 0.5) <= 1e-9 * 0.5
        after = unit_circle.H.values(out.points[onb])
        assert np.all(np.abs(after - 0.5) <= 1e-9 * 0.5)

    def test_collision_warns_and_flags(self, unit_circle):
        # A = (1 + 0.45e-9, 0), within the surface band, rotates to within
        # 1e-10 of the fixed point B = (0, -1 - 0.55e-9) just outside the band,
        # inside the collision tolerance 1e-9
        P = PointSet(np.array([[1.0 + 0.45e-9, 0.0], [0.0, -1.0 - 0.55e-9]]), delta=1.0)
        assert enclosed_indices(P, unit_circle).tolist() == [0]
        with pytest.warns(UserWarning, match="separation lowered"):
            out = deform(P, unit_circle, math.pi / 2.0)
        assert out.delta <= 2e-10


class TestCountInEllipsoid:
    """The count of the enclosed set, surface included, that ``gaborflow count``
    prints: the length of ``enclosed_indices``."""

    def test_counts(self, z2_lattice):
        H = QuadraticHamiltonian(np.eye(2))
        counts = [len(enclosed_indices(z2_lattice, Ellipsoid(H, E))) for E in (0.5, 1.125, 2.0)]
        assert counts == [5, 9, 13]

    def test_against_brute_force(self, z2_lattice):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.uniform(-1, 1, (2, 2))
            H = QuadraticHamiltonian(A @ A.T + 0.4 * np.eye(2))
            E = rng.uniform(0.3, 4.0)
            ell = Ellipsoid(H, E)
            brute = sum(1 for z in z2_lattice.points if H.value(z) <= E)
            assert len(enclosed_indices(z2_lattice, ell)) == brute
