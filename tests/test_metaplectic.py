import math
import tracemalloc

import numpy as np
import pytest

from gaborflow import metaplectic
from gaborflow.metaplectic import (
    covariance_defect,
    gaussian_mobius,
    metaplectic_lift,
    momentum_operator,
    quantize_quadratic,
)
from gaborflow.quantum import GridSpec, State, gaussian_window, inner
from gaborflow.symplectic import QuadraticHamiltonian, SymplecticMatrix, flow_matrix

SMALL = GridSpec.centered(N=128, L=16.0)
DEFAULT = GridSpec.centered(N=1024, L=16.0)

ORACLE_MATRICES = [
    np.eye(2),
    np.diag([4.0, 1.0]),
    np.array([[1.0, 0.5], [0.5, 2.0]]),
]


def phase_aligned_distance(a, b, g):
    """||a - e^{i theta} b|| minimized over the global phase, unit vectors."""
    ip = inner(b, a, g)
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(ip)))


def dense_operator_quantization(M, g):
    """The Weyl quantization with X held as a dense diagonal matrix: the
    four-product formula that ``quantize_quadratic`` must reproduce bitwise."""
    X = np.diag(g.xs()).astype(complex)
    P = momentum_operator(g)
    H = 0.5 * (M[0, 0] * (X @ X) + M[1, 1] * (P @ P))
    if M[0, 1] != 0.0:
        H = H + 0.5 * M[0, 1] * (X @ P + P @ X)
    return 0.5 * (H + H.conj().T)


def dense(U, g):
    """Matrix of the propagator: column k is U applied to the k-th basis vector."""
    return np.column_stack([U.apply(State(e)).values for e in np.eye(g.N)])


class TestQuantizeQuadratic:
    def test_free_particle_diagonal_in_fourier_basis(self):
        H = quantize_quadratic(np.diag([0.0, 1.0]), SMALL)
        F = np.fft.fft(np.eye(SMALL.N), axis=0) / math.sqrt(SMALL.N)
        HF = F @ H @ F.conj().T
        off = HF - np.diag(np.diag(HF))
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(np.diag(HF).imag)) <= 1e-12
        expect = 0.5 * SMALL.momenta() ** 2
        assert np.allclose(np.diag(HF).real, expect, atol=1e-10)

    def test_oscillator_ground_energy(self):
        H = quantize_quadratic(np.eye(2), DEFAULT)
        ground = float(np.linalg.eigvalsh(H)[0])
        assert abs(ground - DEFAULT.hbar / 2.0) <= 1e-3 * DEFAULT.hbar

    def test_cross_term_hermitian(self):
        H = quantize_quadratic(np.array([[1.0, 0.7], [0.7, 2.0]]), SMALL)
        assert type(H) is np.ndarray and H.shape == (SMALL.N, SMALL.N)
        assert np.array_equal(H, H.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            quantize_quadratic(np.array([[1.0, 0.1], [0.0, 1.0]]), SMALL)

    def test_rejects_nan_off_diagonal(self):
        with pytest.raises(ValueError, match="symmetric"):
            quantize_quadratic(np.array([[1.0, math.nan], [math.nan, 1.0]]), SMALL)

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize(
        "M",
        [np.eye(2), np.diag([16.0, 1.0]), np.diag([0.0, 1.0]), np.array([[1.0, 0.7], [0.7, 2.0]])],
        ids=["round", "squeezed", "free", "coupled"],
    )
    def test_equals_dense_operator_formula_bitwise(self, M, N):
        g = GridSpec.centered(N=N, L=8.0)
        assert np.array_equal(quantize_quadratic(M, g), dense_operator_quantization(M, g))

    def test_canonical_commutator(self):
        # [X, P] = i hbar on concentrated states
        X = np.diag(SMALL.xs()).astype(complex)
        P = momentum_operator(SMALL)
        C = X @ P - P @ X
        phi = gaussian_window(1j, SMALL).values
        assert np.max(np.abs(C @ phi - 1j * SMALL.hbar * phi)) <= 1e-10


class TestMetaplecticLift:
    def test_zero_time_exact_identity(self):
        U = metaplectic_lift(np.eye(2), 0.0, SMALL)
        assert np.array_equal(dense(U, SMALL), np.eye(SMALL.N))
        phi = gaussian_window(1j, SMALL)
        assert np.array_equal(U.apply(phi).values, phi.values)

    def test_quarter_period_fixes_round_gaussian(self):
        U = metaplectic_lift(np.eye(2), math.pi / 2.0, DEFAULT)
        phi = gaussian_window(1j, DEFAULT)
        assert phase_aligned_distance(U.apply(phi), phi, DEFAULT) <= 1e-6

    def test_group_law(self):
        t, s = 0.37, -0.81
        Ut = metaplectic_lift(np.diag([4.0, 1.0]), t, SMALL)
        Us = metaplectic_lift(np.diag([4.0, 1.0]), s, SMALL)
        Uts = metaplectic_lift(np.diag([4.0, 1.0]), t + s, SMALL)
        assert np.max(np.abs(dense(Ut, SMALL) @ dense(Us, SMALL) - dense(Uts, SMALL))) <= 1e-9

    def test_unitarity(self):
        U = dense(metaplectic_lift(np.array([[1.0, 0.5], [0.5, 2.0]]), 0.9, SMALL), SMALL)
        assert np.max(np.abs(U.conj().T @ U - np.eye(SMALL.N))) <= 1e-9

    def test_apply_equals_eigenfactor_formula_and_copies_no_matrix(self):
        g = GridSpec.centered(N=512, L=16.0)
        M = np.array([[1.0, 0.3], [0.3, 2.0]])
        U = metaplectic_lift(M, 0.45, g)
        _, V = metaplectic._eig_factors(M, g)
        rng = np.random.default_rng(11)
        psi = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
        ref = V @ (U.phases * (V.conj().T @ psi))
        assert np.array_equal(U.apply(State(psi)).values, ref)
        tracemalloc.start()
        try:
            U.apply(State(psi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * g.N**2

    def test_cache_key_cannot_alias_shapes(self):
        # the key is M's bytes alone, so the flat array shares a 2x2 M's key
        g = GridSpec.centered(N=32, L=8.0)
        M = np.array([[1.0, 0.3], [0.3, 2.0]])
        metaplectic_lift(M, 0.2, g)
        with pytest.raises(ValueError, match="2x2"):
            metaplectic_lift(M.ravel(), 0.2, g)

    def test_rejects_nan_off_diagonal(self):
        with pytest.raises(ValueError, match="symmetric"):
            metaplectic_lift([[1.0, math.nan], [math.nan, 1.0]], 0.2, SMALL)

    def test_nan_generator_is_not_cached(self, monkeypatch):
        # the unitarity defect of NaN eigenfactors is NaN, which compares false
        from collections import OrderedDict

        monkeypatch.setattr(metaplectic, "_eig_cache", OrderedDict())
        g = GridSpec.centered(N=32, L=8.0)
        with pytest.raises(np.linalg.LinAlgError, match="not unitary"):
            metaplectic_lift([[math.nan, 0.0], [0.0, 1.0]], 0.2, g)
        assert len(metaplectic._eig_cache) == 0

    def test_signed_zero_spellings_share_one_cache_entry(self, monkeypatch):
        from collections import OrderedDict

        monkeypatch.setattr(metaplectic, "_eig_cache", OrderedDict())
        g = GridSpec.centered(N=32, L=8.0)
        metaplectic_lift([[1.0, 0.0], [0.0, 2.0]], 0.2, g)
        metaplectic_lift([[1.0, -0.0], [-0.0, 2.0]], 0.2, g)
        assert len(metaplectic._eig_cache) == 1

    def test_inverse_is_reverse_time(self):
        U = metaplectic_lift(np.eye(2), 0.6, SMALL)
        phi = gaussian_window(1j, SMALL)
        back = U.inverse().apply(U.apply(phi))
        assert np.max(np.abs(back.values - phi.values)) <= 1e-10

    def test_concurrent_lifts_share_cache_safely(self):
        # the eigendecomposition cache is single-writer/multi-reader; hammer it
        # from several threads and check every result agrees
        import concurrent.futures

        g = GridSpec.centered(N=64, L=12.0)
        M = np.array([[1.0, 0.25], [0.25, 1.5]])
        phi = gaussian_window(1j, g)

        def work(_):
            return metaplectic_lift(M, 0.4, g).apply(phi).values

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(16)))
        for r in results[1:]:
            assert np.array_equal(r, results[0])

    def test_cache_evicts_least_recently_used_within_budget(self, monkeypatch):
        from collections import OrderedDict

        g = GridSpec.centered(N=32, L=8.0)
        factor = 16 * g.N**2 + 8 * g.N
        monkeypatch.setattr(metaplectic, "_eig_cache", OrderedDict())
        monkeypatch.setattr(metaplectic, "EIG_CACHE_BYTES", 2 * factor)
        computed = []

        def counting(M, grid):
            computed.append(float(M[0, 0]))
            return quantize_quadratic(M, grid)

        monkeypatch.setattr(metaplectic, "quantize_quadratic", counting)
        Ms = [np.diag([a, 1.0]) for a in (1.0, 2.0, 3.0)]
        first = metaplectic_lift(Ms[0], 0.3, g).apply(gaussian_window(1j, g)).values
        metaplectic_lift(Ms[1], 0.3, g)
        # a hit is not recomputed and makes M0 the most recently used
        again = metaplectic_lift(Ms[0], 0.3, g).apply(gaussian_window(1j, g)).values
        assert computed == [1.0, 2.0]
        assert np.array_equal(first, again)
        # the third factor exceeds the budget: M1, least recently used, goes
        metaplectic_lift(Ms[2], 0.3, g)
        assert computed == [1.0, 2.0, 3.0]
        assert len(metaplectic._eig_cache) == 2
        metaplectic_lift(Ms[0], 0.3, g)
        metaplectic_lift(Ms[2], 0.3, g)
        assert computed == [1.0, 2.0, 3.0]
        metaplectic_lift(Ms[1], 0.3, g)
        assert computed == [1.0, 2.0, 3.0, 2.0]


class TestGaussianOracle:
    @pytest.mark.parametrize("M", ORACLE_MATRICES, ids=["round", "squeezed", "coupled"])
    def test_lift_matches_mobius_parameter(self, M):
        for t in (-1.0, -0.5, 0.3, 0.7, 1.0):
            U = metaplectic_lift(M, t, DEFAULT)
            evolved = U.apply(gaussian_window(1j, DEFAULT))
            St = flow_matrix(QuadraticHamiltonian(M), t)
            ref = gaussian_window(gaussian_mobius(1j, St), DEFAULT)
            assert phase_aligned_distance(evolved, ref, DEFAULT) <= 1e-5


class TestGaussianMobius:
    def test_identity(self):
        S = SymplecticMatrix(np.eye(2))
        assert gaussian_mobius(0.3 + 1.2j, S) == 0.3 + 1.2j

    def test_fourier_fixes_round_gaussian(self):
        J = SymplecticMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert gaussian_mobius(1j, J) == pytest.approx(1j)

    def test_rotation_family_fixes_round_gaussian(self):
        H = QuadraticHamiltonian(np.eye(2))
        for t in np.linspace(-2.0, 2.0, 9):
            out = gaussian_mobius(1j, flow_matrix(H, t))
            assert out == pytest.approx(1j, abs=1e-12)

    def test_upper_half_plane_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A = rng.uniform(-1, 1, (2, 2))
            H = QuadraticHamiltonian(A @ A.T + 0.4 * np.eye(2))
            S = flow_matrix(H, rng.uniform(-2, 2))
            Gamma = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
            assert gaussian_mobius(Gamma, S).imag > 0.0

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError, match="Im"):
            gaussian_mobius(1.0 - 1j, SymplecticMatrix(np.eye(2)))

    def test_degenerate_caustic(self):
        # det = 1 makes [[2,1],[1,1]] symplectic; Gamma -> -2 pushes a+b*Gamma to 0
        S = SymplecticMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="caustic"):
            gaussian_mobius(complex(-2.0, 1e-30), S)


class TestCovarianceDefect:
    def test_zero_time(self):
        assert covariance_defect(np.eye(2), 0.0, [1.0, 0.0], SMALL) <= 1e-12

    def test_rotation_on_default_grid(self):
        d = covariance_defect(np.eye(2), math.pi / 2.0, [1.0, 0.0], DEFAULT)
        assert d <= 1e-3

    def test_squeezed_case_on_default_grid(self):
        d = covariance_defect(np.diag([4.0, 1.0]), 0.7, [0.5, 0.5], DEFAULT)
        assert d <= 1e-3

    @pytest.mark.filterwarnings("ignore:.*wrap")
    def test_outside_reliable_box_warns(self):
        # the huge displacement also wraps spatially, which warns separately
        with pytest.warns(UserWarning, match="reliable box"):
            covariance_defect(np.eye(2), 0.1, [0.0, 100.0], SMALL)

    def test_deterministic(self):
        a = covariance_defect(np.diag([4.0, 1.0]), 0.7, [0.5, 0.5], SMALL)
        b = covariance_defect(np.diag([4.0, 1.0]), 0.7, [0.5, 0.5], SMALL)
        assert a == b
