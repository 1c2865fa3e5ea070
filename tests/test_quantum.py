import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborflow.quantum import (
    GridSpec,
    State,
    apply_heisenberg,
    gaussian_window,
    heisenberg,
    heisenberg_factors,
    inner,
    load_state,
    norm,
    save_state,
)
from gaborflow.symplectic import standard_J

GRID = GridSpec.centered(N=256, L=16.0)


class TestGridSpec:
    def test_derived_quantities(self):
        g = GridSpec.centered(N=1024, L=16.0)
        assert g.L == pytest.approx(16.0)
        assert g.dp == pytest.approx(2 * math.pi * g.hbar / 16.0)
        assert g.xs()[0] == -8.0
        assert g.momenta()[0] == 0.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec.centered(N=12)
        with pytest.raises(ValueError, match="power of two"):
            GridSpec.centered(N=100)
        with pytest.raises(ValueError):
            GridSpec(N=64, dx=-0.1)

    # x_min + j dx, as the grid was once built, is not exactly odd on these
    # L, whose dx is not dyadic
    @pytest.mark.parametrize("L", [10.3, 12.7])
    @pytest.mark.parametrize("N", [64, 256])
    def test_grid_and_gaussian_are_exactly_parity_symmetric(self, N, L):
        g = GridSpec.centered(N=N, L=L)
        x = g.xs()
        assert np.array_equal(x[1:], -x[:0:-1])
        phi = gaussian_window(0.6 + 1.5j, g).values
        assert np.array_equal(phi, phi[-np.arange(N) % N])

    def test_state_finite(self):
        with pytest.raises(ValueError, match="finite"):
            State(np.array([1.0, np.nan] + [0.0] * 14, dtype=complex))


class TestInner:
    def test_normalized_gaussian(self):
        phi = gaussian_window(1j, GRID)
        assert inner(phi, phi, GRID).real == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(phi, phi, GRID).imag) <= 1e-14

    def test_disjoint_deltas_orthogonal(self):
        a = np.zeros(GRID.N, dtype=complex)
        b = np.zeros(GRID.N, dtype=complex)
        a[10] = 1.0
        b[20] = 1.0
        assert inner(State(a), State(b), GRID) == 0.0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10)
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = State(rng.normal(size=GRID.N) + 1j * rng.normal(size=GRID.N))
        b = State(rng.normal(size=GRID.N) + 1j * rng.normal(size=GRID.N))
        assert inner(a, b, GRID) == pytest.approx(np.conj(inner(b, a, GRID)))

    def test_grid_mismatch(self):
        phi = gaussian_window(1j, GRID)
        other = GridSpec.centered(N=128, L=16.0)
        with pytest.raises(ValueError, match="does not match"):
            inner(phi, phi, other)


class TestHeisenberg:
    def test_zero_is_identity(self):
        phi = gaussian_window(1j, GRID)
        out = heisenberg([0.0, 0.0], phi, GRID)
        assert np.max(np.abs(out.values - phi.values)) <= 1e-13

    def test_integer_shift_is_circular(self):
        phi = gaussian_window(1j, GRID)
        for k in (3, -17):
            out = heisenberg([k * GRID.dx, 0.0], phi, GRID)
            assert np.max(np.abs(out.values - np.roll(phi.values, k))) <= 1e-13

    def test_composition_law_pins_sign_convention(self):
        # T(z0) T(z1) = exp(i sigma(z0,z1) / (2 hbar)) T(z0+z1)
        phi = gaussian_window(1j, GRID)
        rng = np.random.default_rng(23)
        for _ in range(8):
            z0 = rng.uniform(-10 * GRID.dx, 10 * GRID.dx, 2)
            z1 = rng.uniform(-10 * GRID.dx, 10 * GRID.dx, 2)
            lhs = heisenberg(z0, heisenberg(z1, phi, GRID), GRID).values
            phase = np.exp(0.5j * ((standard_J(1) @ z0) @ z1) / GRID.hbar)
            rhs = phase * heisenberg(z0 + z1, phi, GRID).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @given(q=st.floats(-3, 3), p=st.floats(-3, 3))
    @settings(max_examples=15)
    def test_unitarity(self, q, p):
        phi = gaussian_window(1j, GRID)
        out = heisenberg([q, p], phi, GRID)
        assert abs(norm(out, GRID) - 1.0) <= 1e-12

    def test_inverse_cancels_exactly(self):
        phi = gaussian_window(1j, GRID)
        z = np.array([0.83, -1.21])
        out = heisenberg(-z, heisenberg(z, phi, GRID), GRID)
        assert np.max(np.abs(out.values - phi.values)) <= 1e-10

    def test_wraparound_warns(self):
        phi = gaussian_window(1j, GRID)
        with pytest.warns(UserWarning, match="wrap-around"):
            heisenberg([GRID.L / 2 + 1.0, 0.0], phi, GRID)

    def test_nonfinite_rejected(self):
        phi = gaussian_window(1j, GRID)
        with pytest.raises(ValueError, match="finite"):
            heisenberg([np.inf, 0.0], phi, GRID)

    def test_rows_do_not_depend_on_the_other_points(self):
        # what a sweep's shared rows rest on: a row of any subset, one row
        # included, is bitwise the row built with all the points
        phi = gaussian_window(0.4 + 1j, GRID)
        z = np.random.default_rng(5).uniform(-2.0, 2.0, (6, 2))
        rows = apply_heisenberg(heisenberg_factors(z, GRID), phi.values, GRID)
        for subset in ([4, 1], [2], [0, 5, 3]):
            part = apply_heisenberg(heisenberg_factors(z[subset], GRID), phi.values, GRID)
            assert np.array_equal(part, rows[subset])


class TestGaussianWindow:
    def test_even_symmetry_on_centered_grid(self):
        g = GridSpec.centered(N=1024, L=16.0)
        phi = gaussian_window(1j, g).values
        ks = np.arange(1, g.N)
        assert np.max(np.abs(phi[ks] - phi[(g.N - ks) % g.N])) <= 1e-12

    def test_norm_one_for_any_parameter(self):
        for Gamma in (1j, 2j, 0.7 + 0.4j, -1.5 + 3j):
            phi = gaussian_window(Gamma, GRID)
            assert abs(norm(phi, GRID) - 1.0) <= 1e-12

    def test_variance_halves_when_width_doubles(self):
        # quadrature oracle for the second moment
        x = GRID.xs()
        v1 = gaussian_window(1j, GRID).values
        v2 = gaussian_window(2j, GRID).values
        var1 = float(np.sum(x**2 * np.abs(v1) ** 2) * GRID.dx)
        var2 = float(np.sum(x**2 * np.abs(v2) ** 2) * GRID.dx)
        assert var2 == pytest.approx(var1 / 2.0, rel=1e-10)
        assert var1 == pytest.approx(GRID.hbar / 2.0, rel=1e-10)

    def test_boundary_tail_controlled(self):
        g = GridSpec.centered(N=1024, L=12.0)
        phi = gaussian_window(1j, g).values
        peak = float(np.max(np.abs(phi)))
        assert abs(phi[0]) <= 1e-14 * peak

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError, match="Im"):
            gaussian_window(1.0 - 0.5j, GRID)
        with pytest.raises(ValueError, match="Im"):
            gaussian_window(2.0, GRID)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        phi = heisenberg([0.37, -1.9], gaussian_window(0.3 + 1.7j, GRID), GRID)
        path = tmp_path / "state.bin"
        save_state(path, phi, GRID)
        back, g2 = load_state(path)
        assert g2 == GRID
        assert np.array_equal(back.values, phi.values)

    def test_truncated_payload_rejected(self, tmp_path):
        phi = gaussian_window(1j, GRID)
        path = tmp_path / "state.bin"
        save_state(path, phi, GRID)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="doubles"):
            load_state(path)
