import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborflow.symplectic import (
    QuadraticHamiltonian,
    SymplecticMatrix,
    _symplectic_defect,
    flow_matrix,
    standard_J,
)


def random_pd_matrix(rng, n):
    A = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
    return A @ A.T + 0.3 * np.eye(2 * n)


# strategies for property tests: modest entries keep ||tJM|| in the accurate range
def pd_hamiltonians(n):
    return st.lists(
        st.floats(-1.0, 1.0), min_size=4 * n * n, max_size=4 * n * n
    ).map(lambda vals: QuadraticHamiltonian(
        (lambda A: A @ A.T + 0.3 * np.eye(2 * n))(np.array(vals).reshape(2 * n, 2 * n))
    ))


times = st.floats(-3.0, 3.0)


class TestStandardJ:
    def test_n1(self):
        assert np.array_equal(standard_J(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_n2_block_form_and_square(self):
        J = standard_J(2)
        assert np.array_equal(J[:2, 2:], np.eye(2))
        assert np.array_equal(J[2:, :2], -np.eye(2))
        assert np.array_equal(J @ J, -np.eye(4))
        assert np.array_equal(J.T, -J)

    def test_form_evaluation(self):
        # direct evaluation of (Jz).z' with J = [[0,1],[-1,0]]:
        # sigma((x,p),(x',p')) = p x' - x p'
        J = standard_J(1)
        assert (J @ [1.0, 0.0]) @ [0.0, 1.0] == -1.0
        assert (J @ [0.0, 1.0]) @ [1.0, 0.0] == 1.0
        assert (J @ [1.0, 0.0]) @ [1.0, 0.0] == 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            standard_J(0)


class TestQuadraticHamiltonian:
    def test_exposes_extreme_eigenvalues(self):
        H = QuadraticHamiltonian(np.diag([4.0, 1.0]))
        assert H.min_eigenvalue == pytest.approx(1.0)
        assert H.max_eigenvalue == pytest.approx(4.0)
        assert H.value([1.0, 1.0]) == pytest.approx(2.5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_stored_eigenpairs_reconstruct_M(self, n):
        M = random_pd_matrix(np.random.default_rng(30 + n), n)
        H = QuadraticHamiltonian(M)
        mu, Q = H.eigenvalues, H.eigenvectors
        assert np.all(np.diff(mu) >= 0.0)
        assert (H.min_eigenvalue, H.max_eigenvalue) == (mu[0], mu[-1])
        scale = np.linalg.norm(M, 2)
        assert np.max(np.abs((Q * mu) @ Q.T - M)) <= 1e-14 * scale
        assert np.max(np.abs(Q.T @ Q - np.eye(2 * n))) <= 1e-14
        assert not (mu.flags.writeable or Q.flags.writeable)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian([[1.0, 1e-6], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticHamiltonian(np.diag([1.0, -0.5]))

    def test_rejects_nan(self):
        # a NaN entry makes the symmetry defect NaN, which compares false
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticHamiltonian([[math.nan, 0.0], [0.0, 1.0]])

    def test_rejects_a_nan_eigenvalue(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (np.array([math.nan, 1.0]), np.eye(2)))
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticHamiltonian(np.eye(2))

    @pytest.mark.parametrize("n, z", [(1, [1.0, 0.0, 0.0]), (1, [1.0]), (2, [0.5, 0.0])])
    def test_value_rejects_a_point_of_the_wrong_length(self, n, z):
        # the float kernel sums with zip; a short or long point must not be
        # evaluated on a prefix
        with pytest.raises(ValueError, match="dimension"):
            QuadraticHamiltonian(np.eye(2 * n)).value(z)


class TestSymplecticMatrix:
    def test_validates(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMatrix(np.diag([2.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not symplectic"):
            SymplecticMatrix([[math.nan, 0.0], [0.0, 1.0]])

    def test_rejects_a_nan_determinant(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "det", lambda S: math.nan)
        with pytest.raises(ValueError, match="det 1"):
            SymplecticMatrix(np.eye(2))

    def test_freezes_a_copy(self):
        raw = np.array([[2.0, 1.0], [1.0, 1.0]])
        S = SymplecticMatrix(raw)
        raw[0, 0] = 3.0
        assert S.S[0, 0] == 2.0
        with pytest.raises(ValueError):
            S.S[0, 0] = 3.0

    def test_has_no_validation_bypass(self):
        with pytest.raises(TypeError):
            SymplecticMatrix(np.diag([2.0, 2.0]), validate=False)


class TestIsSymplectic:
    def test_identity(self):
        assert _symplectic_defect(np.eye(2)) <= 1e-12

    def test_area_preserving_diagonal(self):
        assert _symplectic_defect(np.diag([2.0, 0.5])) <= 1e-12

    def test_rejects_scaling(self):
        assert not (_symplectic_defect(np.diag([2.0, 2.0])) <= 1e-6)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="2n x 2n"):
            SymplecticMatrix(np.eye(3))


class TestFlowMatrix:
    def test_zero_time_identity(self):
        H = QuadraticHamiltonian(np.diag([4.0, 1.0]))
        assert np.array_equal(flow_matrix(H, 0.0).S, np.eye(2))

    def test_quarter_period_against_power_series(self):
        # independent oracle: truncated power series of exp(tJ) with 40 terms
        H = QuadraticHamiltonian(np.eye(2))
        t = math.pi / 2.0
        A = t * standard_J(1)
        series = np.zeros((2, 2))
        term = np.eye(2)
        for k in range(40):
            series = series + term
            term = term @ A / (k + 1)
        S = flow_matrix(H, t).S
        assert np.allclose(S, series, atol=1e-12)
        assert np.allclose(S, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_against_rk4_ode_oracle(self):
        # integrate zdot = J M z from the two basis vectors with tiny steps
        M = np.diag([4.0, 1.0])
        H = QuadraticHamiltonian(M)
        t = 0.83
        JM = standard_J(1) @ M
        steps = 20000
        dt = t / steps
        cols = []
        for e in np.eye(2):
            z = e.copy()
            for _ in range(steps):
                k1 = JM @ z
                k2 = JM @ (z + 0.5 * dt * k1)
                k3 = JM @ (z + 0.5 * dt * k2)
                k4 = JM @ (z + dt * k3)
                z = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            cols.append(z)
        oracle = np.stack(cols, axis=-1)
        assert np.allclose(flow_matrix(H, t).S, oracle, atol=1e-8)

    def test_reads_the_stored_eigenbasis(self, monkeypatch):
        H = QuadraticHamiltonian(random_pd_matrix(np.random.default_rng(12), 2))
        args = []
        eigh = np.linalg.eigh

        def counting(a, *rest, **kw):
            args.append(a)
            return eigh(a, *rest, **kw)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        flow_matrix(H, 0.9)
        # the one remaining solve is of the Hermitian i R J R, never of M
        assert len(args) == 1 and np.iscomplexobj(args[0])

    def test_n2_against_power_series(self):
        # independent oracle: truncated power series of exp(tJM) with 60 terms;
        # ||tJM|| is below 4, so the omitted terms are far below rounding
        M = random_pd_matrix(np.random.default_rng(11), 2)
        H = QuadraticHamiltonian(M)
        t = 0.9
        A = t * standard_J(2) @ M
        series = np.zeros((4, 4))
        term = np.eye(4)
        for k in range(60):
            series = series + term
            term = term @ A / (k + 1)
        assert np.allclose(flow_matrix(H, t).S, series, rtol=0.0, atol=1e-12)

    def test_full_rotation_returns_to_identity(self):
        H = QuadraticHamiltonian(np.eye(2))
        grid = np.linspace(0.0, 2.0 * math.pi, 100)
        path = [flow_matrix(H, t).S for t in grid]
        assert np.max(np.abs(path[-1] - np.eye(2))) <= 1e-9
        for S in path[::9]:
            assert _symplectic_defect(S) <= 1e-9


class TestFlowProperties:
    @given(H=pd_hamiltonians(1), t=times)
    def test_flow_is_symplectic_n1(self, H, t):
        assert _symplectic_defect(flow_matrix(H, t).S) <= 1e-9

    @given(H=pd_hamiltonians(2), t=times)
    @settings(max_examples=15)
    def test_flow_is_symplectic_n2(self, H, t):
        assert _symplectic_defect(flow_matrix(H, t).S) <= 1e-9

    @given(H=pd_hamiltonians(1), t=times, s=times)
    def test_group_law(self, H, t, s):
        St = flow_matrix(H, t).S
        Ss = flow_matrix(H, s).S
        Sts = flow_matrix(H, t + s).S
        assert np.max(np.abs(St @ Ss - Sts)) <= 1e-9

    @given(H=pd_hamiltonians(1), t=times)
    def test_inverse_flow(self, H, t):
        St = flow_matrix(H, t).S
        Sm = flow_matrix(H, -t).S
        assert np.max(np.abs(St @ Sm - np.eye(2))) <= 1e-9

    @given(H=pd_hamiltonians(1), t=times, zx=st.floats(-3, 3), zp=st.floats(-3, 3))
    def test_energy_invariance(self, H, t, zx, zp):
        z = np.array([zx, zp])
        before = H.value(z)
        after = H.value(flow_matrix(H, t).S @ z)
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))

    @given(H=pd_hamiltonians(2), t=times, z=st.lists(st.floats(-3, 3), min_size=4, max_size=4))
    @settings(max_examples=15)
    def test_energy_invariance_n2(self, H, t, z):
        z = np.array(z)
        before = H.value(z)
        after = H.value(flow_matrix(H, t).S @ z)
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))
