"""Metaplectic lift of linear symplectic flows on the discrete model.

The lift of S_t = exp(t J M) is realized as the quantum propagator
U_t = exp(-i t H_op / hbar) of the symmetrically quantized quadratic
Hamiltonian H_op of H(z) = (1/2) M z . z.  Functional calculus through
eigendecompositions makes U_t automatically unitary and continuous in t
through the identity, which selects one of the two possible lifts
canonically and sidesteps kernel-formula caustics.

An uncoupled M (m12 = 0) quantizes as the real (1/2)(m11 X^2 + m22 P^2).  A
coupled M (m12 != 0, m22 != 0) is M' = diag(m11 - c m12, m22) pulled back
by the shear S_c = [[1, 0], [c, 1]], c = m12 / m22, which lifts to the chirp
C = exp(i c x^2 / (2 hbar)) (G. B. Folland, Harmonic Analysis in Phase
Space, 1989, ch. 4).  Since C^* P C = P + c X, H_op(M) = C^* H_op(M') C, so
U_t = C^* U_t(M') C and every generator factorized is real.  The indefinite
m12 != 0 = m22 has no such factorization and is rejected.

Every metaplectic operator commutes with the parity psi(x) -> psi(-x),
because parity lifts -I, which is central in Sp(2, R).  On the grid the
parity is j -> -j mod N, and H_op and the chirp are built to commute with
it exactly, so the eigendecomposition splits into an even and an odd block
of half the size.  The closed-form Moebius action on Gaussian parameters
serves as an independent oracle for the lift.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .quantum import (_SQRT_HALF, GridSpec, State, _fold, apply_heisenberg, gaussian_parameter,
                      gaussian_window, heisenberg_factors)
from .symplectic import SYMMETRY_TOL, QuadraticHamiltonian, SymplecticMatrix, flow_matrix

__all__ = [
    "Propagator",
    "quantize_quadratic",
    "metaplectic_lift",
    "covariance_defect",
    "gaussian_mobius",
]

UNITARITY_TOL = 1e-9

_PROBE_SEED = 20260314
_PROBE_COUNT = 8
_PROBE_SPREAD = 0.4


def _circulant(c: np.ndarray) -> np.ndarray:
    """Read-only view of the N x N matrix with entries c[(j - k) mod N]."""
    N = c.size
    r = np.roll(c[::-1], 1)  # r[k] = c[-k mod N]
    # row j is the window of (r, r) that starts at N - j
    return sliding_window_view(np.concatenate((r, r)), N)[N:0:-1]


def _uncoupled(M, g: GridSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """M' and the chirp C on g of M = S_c^T M' S_c (module docstring), for M
    checked to be a symmetric 2 x 2 matrix; M itself and None when m12 = 0.
    C is exactly parity-even, as g's x is exactly odd.  m12 != 0 = m22 raises
    ``ValueError``."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"M must be 2x2, got shape {M.shape}")
    if not (abs(M[0, 1] - M[1, 0]) <= SYMMETRY_TOL):
        raise ValueError("M must be symmetric")
    m12, m22 = M[0, 1], M[1, 1]
    if m12 == 0.0:
        return M, None
    if m22 == 0.0:
        raise ValueError("M with m12 != 0 = m22 has no shear factorization")
    c = m12 / m22
    x = g.xs()
    chirp = np.exp(1j * c * (x * x) / (2.0 * g.hbar))
    return np.array([[M[0, 0] - c * m12, 0.0], [0.0, m22]]), chirp


def quantize_quadratic(M, g: GridSpec) -> np.ndarray:
    """Symmetric (Weyl) quantization of H(z) = (1/2) M z . z for n = 1.

    Returns the dense N x N matrix H_op, built from symbol vectors:
    (1/2)(m11 X^2 + m22 P^2) for m12 = 0, and C^* H_op(M') C (module
    docstring), averaged with its adjoint, otherwise.

    - X^2 is the diagonal of x^2, x = ``g.xs()``.
    - P^2 is the real circulant of ifft(p^2), p the signed FFT momenta.

    Each symbol vector and the chirp are exactly even or odd under
    j -> -j mod N (x as the grid builds it, the circulant's vector by
    mirroring its first half), so H commutes with the grid parity bitwise,
    and it is Hermitian bitwise.  H is real when m12 = 0.  An M with
    m12 != 0 = m22 raises ``ValueError``.
    """
    M, chirp = _uncoupled(M, g)
    N, h = g.N, g.N // 2
    x = g.xs()
    p = g.momenta()
    c = np.fft.ifft(p * p).real
    c[h + 1:] = c[h - 1:0:-1]
    H = M[1, 1] * _circulant(c)
    H[np.diag_indices(N)] += M[0, 0] * (x * x)
    H *= 0.5
    if chirp is not None:
        H = np.outer(chirp.conj(), chirp) * H
        H = 0.5 * (H + H.conj().T)
    return H


def _parity_blocks(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even (N/2 + 1) and odd (N/2 - 1) blocks of a real parity-even H,
    read from its rows 0..N/2.

    They are H in the orthonormal bases of ``_fold``.  Parity gives
    H[N - j, k] = H[j, N - k], so an even entry is H[j, k] + H[j, N - k] and
    an odd one H[j, k] - H[j, N - k], 0 < j, k < N/2; an even entry with one
    self-mirrored index (0 or N/2) is H[j, k] sqrt 2, and one with two is
    H[j, k].  Both blocks are real and symmetric bitwise.
    """
    N = H.shape[0]
    h = N // 2
    top = H[:h + 1]
    mirror = top[:, N - 1:h:-1]  # column N - k for k = 1..h-1
    even = top[:, :h + 1].copy()
    even[:, 1:h] += mirror
    odd = top[1:h, 1:h] - mirror[1:h]
    even[[0, h], 1:h] *= _SQRT_HALF
    even[1:h, [0, h]] = even[[0, h], 1:h].T
    return even, odd


def _unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The (N, k) block whose ``_fold`` is (even, odd)."""
    h = even.shape[0] - 1
    psi = np.empty((2 * h,) + even.shape[1:], dtype=complex)
    psi[[0, h]] = even[[0, h]]
    psi[1:h] = (even[1:h] + odd) * _SQRT_HALF
    psi[:h:-1] = (even[1:h] - odd) * _SQRT_HALF
    return psi


def _dot(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A @ z for a real factor A and a C-contiguous complex block z.  A
    multiplies the float view of z, whose 2k columns hold its real and
    imaginary parts, so A is never cast to complex."""
    return (A @ z.view(np.float64)).view(complex)


def _evolve(evals: np.ndarray, evecs: np.ndarray, z: np.ndarray, t: float):
    """V diag(exp(-i t w / hbar)) V^T z for one block's real eigenfactors
    (w, V), with V^T a view, so no matrix is copied."""
    phases = np.exp(-1j * t * evals / GridSpec.hbar)
    return _dot(evecs, phases[:, None] * _dot(evecs.T, z))


def _factorize(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of one real symmetric block, held to the
    unitarity guard.  A block with a NaN has no eigenbasis: LAPACK then
    stops without converging or returns NaN eigenvalues, at times beside
    finite vectors, and either fails the guard."""
    defect = math.nan
    try:
        evals, evecs = np.linalg.eigh(block)
    except np.linalg.LinAlgError:
        pass
    else:
        if np.all(np.isfinite(evals)):
            gram = evecs.T @ evecs
            gram[np.diag_indices_from(gram)] -= 1.0
            defect = float(np.max(np.abs(gram)))
    if not (defect <= UNITARITY_TOL):
        raise np.linalg.LinAlgError(
            f"eigenbasis not unitary within {UNITARITY_TOL}: defect {defect:.3e}"
        )
    return evals, evecs


class Propagator:
    """Unitary U_t = exp(-i t H_op / hbar) of a 2 x 2 M on the grid g, held as
    the eigenfactors of the even and odd parity blocks of H_op(M'), and for a
    coupled M the chirp C that makes it C^* U_t(M') C.  It keeps M, g and t;
    ``at(s)`` is U_s from the same factors, so one factorization serves every
    time.

    An apply multiplies psi by C, folds it into its even and odd parts,
    applies each block's V diag(exp(-i t w / hbar)) V^H, two half-size
    products per direction, unfolds and multiplies by conj(C); it copies no
    matrix.  The chirp is parity-even, so the split still holds.  t = 0 is
    the exact identity, which keeps zero-time deformation experiments
    bitwise trivial.
    """

    def __init__(self, M: np.ndarray, g: GridSpec, blocks, chirp: np.ndarray | None, t: float):
        self.M = M
        self.grid = g
        self._blocks = blocks
        self._chirp = chirp
        self.t = float(t)

    def apply(self, psi: State) -> State:
        return State(self.apply_columns(psi.values[:, None])[:, 0])

    def apply_columns(self, psis: np.ndarray) -> np.ndarray:
        """U_t applied to every column of an (N, k) block, one product per
        block factor and direction."""
        psis = np.asarray(psis, dtype=complex)
        if self.t == 0.0:
            return psis.copy()
        chirp = self._chirp
        if chirp is not None:
            psis = chirp[:, None] * psis
        (we, Ve), (wo, Vo) = self._blocks
        even, odd = _fold(psis)
        out = _unfold(_evolve(we, Ve, even, self.t), _evolve(wo, Vo, odd, self.t))
        if chirp is not None:
            out *= chirp.conj()[:, None]
        return out

    def at(self, t: float) -> "Propagator":
        return Propagator(self.M, self.grid, self._blocks, self._chirp, t)

    def inverse(self) -> "Propagator":
        return self.at(-self.t)


def metaplectic_lift(M, t: float, g: GridSpec) -> Propagator:
    """Lift of the flow exp(t J M) through the identity at t = 0.

    It is exp(-i t H_op / hbar) for H_op = ``quantize_quadratic(M, g)``,
    held as C^* U_t(M') C (module docstring).  Every call factorizes the
    parity blocks of the real generator of M'; a caller that needs several
    times lifts once and moves the result with ``Propagator.at``.  An M
    with m12 != 0 = m22 raises ``ValueError``.
    """
    M = np.array(M, dtype=float)
    Mp, chirp = _uncoupled(M, g)
    blocks = tuple(_factorize(b) for b in _parity_blocks(quantize_quadratic(Mp, g)))
    return Propagator(M, g, blocks, chirp, t)


def _probe_block(g: GridSpec) -> np.ndarray:
    """The fixed seeded probes, concentrated states near the origin, as the
    columns of an (N, 8) block."""
    rng = np.random.default_rng(_PROBE_SEED)
    gauss = gaussian_window(1j, g)
    ws = rng.uniform(-_PROBE_SPREAD, _PROBE_SPREAD, size=(_PROBE_COUNT, 2))
    return np.ascontiguousarray(apply_heisenberg(heisenberg_factors(ws, g), gauss.values, g).T)


def _translate_columns(z, psis: np.ndarray, g: GridSpec) -> np.ndarray:
    """T(z) applied to every column of an (N, k) block, each bitwise as
    ``heisenberg`` applies it, as one C-contiguous block, as ``_dot``'s
    float view needs."""
    rows = apply_heisenberg(heisenberg_factors(np.reshape(z, (1, -1)), g), psis.T, g)
    return np.ascontiguousarray(rows.T)


def covariance_defect(U: Propagator, z) -> float:
    """Deviation of the discrete model from exact symplectic covariance.

    Returns max over a fixed seeded family of concentrated probe states of
    ||U_t T(z) U_t^{-1} psi - T(S_t z) psi|| / ||psi|| for the lift
    U = U_t of S_t = exp(t J M), on the grid, M and t that U keeps.  Small
    values certify that conjugating a phase-space translation by the lift
    matches the translated flow image on the grid in use.  U_t^{-1} and U_t
    act on the probes as one block.  Probes and therefore results are
    deterministic.
    """
    g = U.grid
    zc = np.asarray(z, dtype=float)
    qlim = (g.N / 4) * g.dx
    plim = (g.N / 4) * g.dp
    if abs(zc[0]) > qlim or abs(zc[1]) > plim:
        warnings.warn(
            f"z={zc.tolist()} outside the reliable box |q|<={qlim:g}, |p|<={plim:g}; "
            "defect may be resolution-limited",
            stacklevel=2,
        )
    St = flow_matrix(QuadraticHamiltonian(U.M), U.t).S
    probes = _probe_block(g)
    lhs = U.apply_columns(_translate_columns(zc, U.inverse().apply_columns(probes), g))
    rhs = _translate_columns(St @ zc, probes, g)
    dev = np.linalg.norm(lhs - rhs, axis=0) / np.linalg.norm(probes, axis=0)
    return float(np.max(dev))


def gaussian_mobius(Gamma: complex, S: SymplecticMatrix) -> complex:
    """Action of a 2x2 symplectic matrix on the Gaussian parameter.

    For S = [[a, b], [c, d]] the evolved parameter is (c + d*Gamma)/(a +
    b*Gamma); the upper half-plane Im > 0 is preserved.  This is the
    closed-form counterpart of applying the lift to a Gaussian window and is
    used as an independent oracle for it.
    """
    Gamma = gaussian_parameter(Gamma)
    Smat = S.S
    if Smat.shape != (2, 2):
        raise ValueError(f"S must be 2x2, got shape {Smat.shape}")
    a, b = Smat[0, 0], Smat[0, 1]
    c, d = Smat[1, 0], Smat[1, 1]
    denom = a + b * Gamma
    if abs(denom) <= 1e-12 * (abs(a) + abs(b * Gamma) + 1e-300):
        raise ValueError(f"degenerate caustic: a + b*Gamma = {denom!r}")
    out = (c + d * Gamma) / denom
    if not (out.imag > 0.0):
        raise ValueError(f"Moebius image left the upper half-plane: {out!r}")
    return out

