import math
import tracemalloc

import numpy as np
import pytest

from gaborflow import metaplectic
from gaborflow.metaplectic import (
    covariance_defect,
    gaussian_mobius,
    metaplectic_lift,
    quantize_quadratic,
)
from gaborflow.quantum import GridSpec, State, gaussian_window, heisenberg, inner
from gaborflow.symplectic import QuadraticHamiltonian, SymplecticMatrix, flow_matrix

SMALL = GridSpec.centered(N=128, L=16.0)
DEFAULT = GridSpec.centered(N=1024, L=16.0)

ORACLE_MATRICES = [
    np.eye(2),
    np.diag([4.0, 1.0]),
    np.array([[1.0, 0.5], [0.5, 2.0]]),
]


QUANTIZED_MATRICES = pytest.mark.parametrize(
    "M",
    [np.eye(2), np.diag([16.0, 1.0]), np.diag([0.0, 1.0]), np.array([[1.0, 0.7], [0.7, 2.0]])],
    ids=["round", "squeezed", "free", "coupled"],
)


COUPLED = {f"m12={m12}": np.array([[1.0, m12], [m12, m22]])
           for m12, m22 in ((0.5, 2.0), (0.7, 2.0), (0.3, 2.0), (0.25, 1.5))}
COUPLED_MATRICES = pytest.mark.parametrize("M", list(COUPLED.values()), ids=list(COUPLED))


def uncoupled_and_chirp(M, g):
    """M' = diag(m11 - c m12, m22) and the chirp exp(i c x^2 / (2 hbar)),
    c = m12 / m22, of the factorization M = S_c^T M' S_c."""
    c = M[0, 1] / M[1, 1]
    x = g.dx * (np.arange(g.N) - g.N // 2)
    Mp = np.array([[M[0, 0] - c * M[0, 1], 0.0], [0.0, M[1, 1]]])
    return Mp, np.exp(1j * c * (x * x) / (2.0 * g.hbar))


def phase_aligned_distance(a, b, g):
    """||a - e^{i theta} b|| minimized over the global phase, unit vectors."""
    ip = inner(b, a, g)
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(ip)))


def momentum_matrix(g):
    """FFT-conjugated multiplication by the signed discrete momenta, dense."""
    eye = np.eye(g.N, dtype=complex)
    return np.fft.ifft(g.momenta()[:, None] * np.fft.fft(eye, axis=0), axis=0)


def parity_symbols(g):
    """x, and the vectors of the circulants P^2 and P' = P without its Nyquist
    mode (divided by i), each exactly even or odd under j -> -j mod N."""
    N, h = g.N, g.N // 2
    x = g.dx * (np.arange(N) - h)
    p = g.momenta()
    c = np.fft.ifft(p * p).real
    c[h + 1:] = c[h - 1:0:-1]
    p[h] = 0.0
    b = np.fft.ifft(p).imag
    b[[0, h]] = 0.0
    b[h + 1:] = -b[h - 1:0:-1]
    return x, c, b


def dense_circulant(c):
    """Column k is c shifted down by k: entry (j, k) is c[(j - k) mod N]."""
    return np.column_stack([np.roll(c, k) for k in range(c.size)])


def dense_operator_quantization(M, g):
    """The Weyl quantization with X held as a dense diagonal matrix and P^2,
    P' as dense circulants: the four-product formula whose uncoupled case
    ``quantize_quadratic`` must reproduce bitwise.  The cross term's X and P
    have their self-mirrored modes, x = -L/2 and the Nyquist momentum, set
    to 0: an independent quantization of a coupled M."""
    x, c, b = parity_symbols(g)
    X = np.diag(x)
    H = 0.5 * (M[0, 0] * (X @ X) + M[1, 1] * dense_circulant(c))
    if M[0, 1] != 0.0:
        x[0] = 0.0
        Xs = np.diag(x).astype(complex)
        Ps = 1j * dense_circulant(b)
        H = H + 0.5 * M[0, 1] * (Xs @ Ps + Ps @ Xs)
    return H


def four_product_quantization(M, g):
    """The quantization with the full X and P, which the grid parity does not
    fix at x = -L/2 and at the Nyquist momentum."""
    X = np.diag(g.xs()).astype(complex)
    P = momentum_matrix(g)
    H = 0.5 * (M[0, 0] * (X @ X) + M[1, 1] * (P @ P))
    H = H + 0.5 * M[0, 1] * (X @ P + P @ X)
    return 0.5 * (H + H.conj().T)


def grid_parity(g):
    """Index map of psi(x) -> psi(-x): j -> -j mod N."""
    return (-np.arange(g.N)) % g.N


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
    @QUANTIZED_MATRICES
    def test_equals_dense_operator_formula_bitwise(self, M, N):
        # a coupled M is C^* H(M') C, formed entrywise and averaged with its adjoint
        g = GridSpec.centered(N=N, L=8.0)
        if M[0, 1] == 0.0:
            ref = dense_operator_quantization(M, g)
        else:
            Mp, chirp = uncoupled_and_chirp(M, g)
            ref = np.outer(chirp.conj(), chirp) * dense_operator_quantization(Mp, g)
            ref = 0.5 * (ref + ref.conj().T)
        assert np.array_equal(quantize_quadratic(M, g), ref)

    # 10.3 is not dyadic; x is exactly odd on every L all the same
    @pytest.mark.parametrize("L", [8.0, 10.3])
    @pytest.mark.parametrize("N", [16, 64, 1024])
    @QUANTIZED_MATRICES
    def test_commutes_with_grid_parity_bitwise(self, M, N, L):
        g = GridSpec.centered(N=N, L=L)
        H = quantize_quadratic(M, g)
        par = grid_parity(g)
        assert np.array_equal(H[np.ix_(par, par)], H)

    @pytest.mark.parametrize("m12", [0.0, -0.0, 0.3, -1e-300])
    def test_real_exactly_when_uncoupled(self, m12):
        H = quantize_quadratic(np.array([[1.0, m12], [m12, 2.0]]), SMALL)
        assert (H.dtype == np.float64) == (m12 == 0.0)

    def test_resolved_spectrum_matches_four_product_formula(self):
        # the split changes H only where x = -L/2 or p is the Nyquist momentum.
        # On a grid with dx = dp the ellipse of level N/2, area N/2 of the
        # torus's N, stays clear of both, so the lower half of the spectrum
        # agrees; levels that reach them are unresolved in either formula
        g = GridSpec.centered(N=512, L=math.sqrt(512))
        M = np.array([[1.0, 0.5], [0.5, 1.0]])
        low = g.N // 2
        split = np.linalg.eigvalsh(quantize_quadratic(M, g))[:low]
        four = np.linalg.eigvalsh(four_product_quantization(M, g))[:low]
        assert np.max(np.abs(split - four) / four) <= 1e-10
        exact = g.hbar * math.sqrt(np.linalg.det(M)) * (np.arange(low) + 0.5)
        assert np.max(np.abs(split - exact) / exact) <= 1e-10

    def test_canonical_commutator(self):
        # [X, P] = i hbar on concentrated states
        X = np.diag(SMALL.xs()).astype(complex)
        P = momentum_matrix(SMALL)
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
        N, h = g.N, g.N // 2
        t = 0.45
        rng = np.random.default_rng(11)
        psi = rng.normal(size=N) + 1j * rng.normal(size=N)
        r = math.sqrt(0.5)
        # coupled: the real factors of M' between chirps; squeezed: no chirp
        for M in (np.array([[1.0, 0.3], [0.3, 2.0]]), np.diag([4.0, 1.0])):
            U = metaplectic_lift(M, t, g)
            Mp, chirp = uncoupled_and_chirp(M, g)
            (we, Ve), (wo, Vo) = metaplectic_lift(Mp, t, g)._blocks
            assert Ve.shape == (h + 1, h + 1) and Vo.shape == (h - 1, h - 1)
            assert np.isrealobj(Ve) and np.isrealobj(Vo)
            # the even and odd coordinates of C psi, evolved blockwise,
            # unfolded and multiplied by conj(C)
            cpsi = chirp * psi
            even = np.concatenate(([cpsi[0]], (cpsi[1:h] + cpsi[:h:-1]) * r, [cpsi[h]]))
            odd = (cpsi[1:h] - cpsi[:h:-1]) * r
            e = Ve @ (np.exp(-1j * t * we / g.hbar) * (Ve.conj().T @ even))
            o = Vo @ (np.exp(-1j * t * wo / g.hbar) * (Vo.conj().T @ odd))
            ref = np.concatenate(([e[0]], (e[1:h] + o) * r, [e[h]], ((e[1:h] - o) * r)[::-1]))
            ref *= chirp.conj()
            got = U.apply(State(psi)).values
            # a real factor multiplies the real and imaginary parts as two
            # float columns, which sum in another order
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(psi))
            tracemalloc.start()
            try:
                U.apply(State(psi))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a copy or complex cast of one block factor takes over 2 N^2 bytes
            assert peak < g.N**2

    def test_cache_key_cannot_alias_shapes(self):
        # the flat array of a 2x2 M's bytes is rejected, not read as that M
        g = GridSpec.centered(N=32, L=8.0)
        M = np.array([[1.0, 0.3], [0.3, 2.0]])
        metaplectic_lift(M, 0.2, g)
        with pytest.raises(ValueError, match="2x2"):
            metaplectic_lift(M.ravel(), 0.2, g)

    def test_rejects_nan_off_diagonal(self):
        with pytest.raises(ValueError, match="symmetric"):
            metaplectic_lift([[1.0, math.nan], [math.nan, 1.0]], 0.2, SMALL)

    def test_nan_generator_raises(self):
        # the unitarity defect of NaN eigenfactors is NaN, which compares false
        g = GridSpec.centered(N=32, L=8.0)
        with pytest.raises(np.linalg.LinAlgError, match="not unitary"):
            metaplectic_lift([[math.nan, 0.0], [0.0, 1.0]], 0.2, g)

    def test_inverse_is_reverse_time(self):
        U = metaplectic_lift(np.eye(2), 0.6, SMALL)
        phi = gaussian_window(1j, SMALL)
        back = U.inverse().apply(U.apply(phi))
        assert np.max(np.abs(back.values - phi.values)) <= 1e-10

    def test_coupled_inverse_keeps_the_chirp(self):
        U = metaplectic_lift(np.array([[1.0, 0.5], [0.5, 2.0]]), 0.6, SMALL)
        phi = gaussian_window(1j, SMALL)
        back = U.inverse().apply(U.apply(phi))
        assert np.max(np.abs(back.values - phi.values)) <= 1e-10

    @pytest.mark.parametrize("M", [np.diag([4.0, 1.0]), np.array([[1.0, 0.5], [0.5, 2.0]])],
                             ids=["squeezed", "coupled"])
    def test_at_moves_one_lift_in_time_bitwise(self, M):
        U = metaplectic_lift(M, 0.3, SMALL)
        phi = gaussian_window(1j, SMALL)
        for s in (0.0, -0.8, 1.1):
            V = U.at(s)
            assert V.t == s and V.grid == SMALL and np.array_equal(V.M, M)
            fresh = metaplectic_lift(M, s, SMALL)
            assert np.array_equal(V.apply(phi).values, fresh.apply(phi).values)

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

    @pytest.mark.parametrize("M", [np.diag([4.0, 1.0]), np.array([[1.0, 0.5], [0.5, 2.0]])],
                             ids=["squeezed", "coupled"])
    def test_split_lift_equals_dense_complex_eigh(self, M):
        # the lift is the exponential of quantize_quadratic(M), coupled or not
        w, V = np.linalg.eigh(quantize_quadratic(M, SMALL).astype(complex))
        t = 0.8
        ref = V @ np.diag(np.exp(-1j * t * w / SMALL.hbar)) @ V.conj().T
        assert np.max(np.abs(dense(metaplectic_lift(M, t, SMALL), SMALL) - ref)) <= 1e-10

    @pytest.mark.parametrize("M", [[[1.0, 0.5], [0.5, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
                             ids=["m22=0", "m11=m22=0"])
    def test_indefinite_coupled_generator_is_rejected(self, M):
        # m12 != 0 = m22 has no shear factorization
        with pytest.raises(ValueError, match="m12 != 0 = m22"):
            quantize_quadratic(M, SMALL)
        with pytest.raises(ValueError, match="m12 != 0 = m22"):
            metaplectic_lift(M, 0.8, SMALL)

    @COUPLED_MATRICES
    def test_coupled_lift_evolves_resolved_levels_by_their_phase(self, M):
        # the lowest N/8 levels of the cross-term quantization of M are
        # resolved on this grid, and there the chirp factorization must agree
        # with it
        g = GridSpec.centered(N=256, L=16.0)
        w, V = np.linalg.eigh(dense_operator_quantization(M, g))
        low = g.N // 8
        t = 0.8
        got = metaplectic_lift(M, t, g).apply_columns(V[:, :low])
        ref = V[:, :low] * np.exp(-1j * t * w[:low] / g.hbar)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_coupled_factors_are_the_real_factors_of_its_uncoupled_M(self):
        g = GridSpec.centered(N=64, L=8.0)
        M = np.array([[1.0, 0.3], [0.3, 2.0]])
        Mp, _ = uncoupled_and_chirp(M, g)
        blocks = metaplectic_lift(M, 0.4, g)._blocks
        for (w, V), (wp, Vp) in zip(blocks, metaplectic_lift(Mp, 0.4, g)._blocks):
            assert np.isrealobj(w) and np.isrealobj(V)
            assert np.array_equal(w, wp) and np.array_equal(V, Vp)

    @COUPLED_MATRICES
    def test_coupled_lift_commutes_with_grid_parity_bitwise(self, M):
        g = GridSpec.centered(N=128, L=10.3)
        rng = np.random.default_rng(5)
        psis = rng.normal(size=(g.N, 3)) + 1j * rng.normal(size=(g.N, 3))
        par = grid_parity(g)
        U = metaplectic_lift(M, 0.7, g)
        assert np.array_equal(U.apply_columns(psis[par]), U.apply_columns(psis)[par])


class TestGaussianOracle:
    @pytest.mark.parametrize("M", ORACLE_MATRICES, ids=["round", "squeezed", "coupled"])
    def test_lift_matches_mobius_parameter(self, M):
        for t in (-1.0, -0.5, 0.3, 0.7, 1.0):
            U = metaplectic_lift(M, t, DEFAULT)
            evolved = U.apply(gaussian_window(1j, DEFAULT))
            St = flow_matrix(QuadraticHamiltonian(M), t)
            ref = gaussian_window(gaussian_mobius(1j, St), DEFAULT)
            assert phase_aligned_distance(evolved, ref, DEFAULT) <= 1e-5


def odd_window(Gamma, g):
    """h_Gamma(x) = x exp(i Gamma x^2 / (2 hbar)) at unit norm, with its seam
    sample (x = -L/2) set to 0 so that it is exactly odd on the grid."""
    x = g.xs()
    v = x * np.exp(1j * Gamma * x * x / (2.0 * g.hbar))
    v[0] = 0.0
    return State(v / math.sqrt(float(np.sum(np.abs(v) ** 2)) * g.dx))


def phase_free_distance(a, b, g):
    """||a - e^{i theta} b|| for the phase theta of <b, a>, computed from the
    difference so that it resolves far below sqrt(eps)."""
    ip = inner(b, a, g)
    return float(np.linalg.norm(a.values - (ip / abs(ip)) * b.values)) * math.sqrt(g.dx)


class TestOddWindowOracle:
    """(P - Gamma X) annihilates the Gaussian g_Gamma, and U X U^* is a
    combination of X and P, so the lift maps X g_Gamma to a multiple of
    X g_Gamma' with the Gaussian's Moebius image Gamma' (Folland, ch. 4)."""

    @pytest.mark.parametrize("M", [*COUPLED.values(), np.diag([4.0, 0.25])],
                             ids=[*COUPLED, "diag(4,1/4)"])
    def test_lift_maps_odd_window_to_its_mobius_image(self, M):
        g = GridSpec.centered(N=512, L=16.0)
        Gamma = 0.6 + 1.5j
        U = metaplectic_lift(M, 0.0, g)
        for t in (0.3, math.pi / 4, 1.3):
            image = gaussian_mobius(Gamma, flow_matrix(QuadraticHamiltonian(M), t))
            got = U.at(t).apply(odd_window(Gamma, g))
            assert phase_free_distance(got, odd_window(image, g), g) <= 1e-11


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


def defect(M, t, z, g):
    return covariance_defect(metaplectic_lift(M, t, g), z)


class TestCovarianceDefect:
    def test_zero_time(self):
        assert defect(np.eye(2), 0.0, [1.0, 0.0], SMALL) <= 1e-12

    def test_rotation_on_default_grid(self):
        d = defect(np.eye(2), math.pi / 2.0, [1.0, 0.0], DEFAULT)
        assert d <= 1e-3

    def test_squeezed_case_on_default_grid(self):
        d = defect(np.diag([4.0, 1.0]), 0.7, [0.5, 0.5], DEFAULT)
        assert d <= 1e-3

    def test_coupled_case_on_default_grid(self):
        d = defect(np.array([[1.0, 0.5], [0.5, 2.0]]), 0.7, [0.5, 0.5], DEFAULT)
        assert d <= 1e-3

    @pytest.mark.filterwarnings("ignore:.*wrap")
    def test_outside_reliable_box_warns(self):
        # the huge displacement also wraps spatially, which warns separately
        with pytest.warns(UserWarning, match="reliable box"):
            defect(np.eye(2), 0.1, [0.0, 100.0], SMALL)

    @pytest.mark.parametrize("z", [[0.3, -1.7], [-2.45, 0.6]])
    def test_batched_translation_equals_heisenberg_bitwise(self, z):
        g = GridSpec.centered(N=256, L=12.0)
        rng = np.random.default_rng(3)
        psis = rng.normal(size=(g.N, 8)) + 1j * rng.normal(size=(g.N, 8))
        for block in (psis, np.asfortranarray(psis)):
            got = metaplectic._translate_columns(z, block, g)
            assert got.flags.c_contiguous
            for k in range(block.shape[1]):
                assert np.array_equal(got[:, k], heisenberg(z, State(block[:, k]), g).values)

    def test_deterministic(self):
        a = defect(np.diag([4.0, 1.0]), 0.7, [0.5, 0.5], SMALL)
        b = defect(np.diag([4.0, 1.0]), 0.7, [0.5, 0.5], SMALL)
        assert a == b
