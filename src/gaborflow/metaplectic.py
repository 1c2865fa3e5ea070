"""Metaplectic lift of linear symplectic flows on the discrete model.

The lift of S_t = exp(t J M) is realized as the quantum propagator
U_t = exp(-i t H_op / hbar) of the symmetrically quantized quadratic
Hamiltonian H_op = (1/2)(m11 X^2 + m12 (XP + PX) + m22 P^2).  Functional
calculus through one Hermitian eigendecomposition makes U_t automatically
unitary and continuous in t through the identity, which selects one of the
two possible lifts canonically and sidesteps kernel-formula caustics.  The
closed-form Moebius action on Gaussian parameters serves as an independent
oracle for the lift.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict

import numpy as np

from .quantum import GridSpec, State, gaussian_window, heisenberg
from .symplectic import QuadraticHamiltonian, SymplecticMatrix, flow_matrix

__all__ = [
    "Propagator",
    "momentum_operator",
    "quantize_quadratic",
    "metaplectic_lift",
    "covariance_defect",
    "gaussian_mobius",
]

UNITARITY_TOL = 1e-9

_PROBE_SEED = 20260314
_PROBE_COUNT = 8
_PROBE_SPREAD = 0.4


def momentum_operator(g: GridSpec) -> np.ndarray:
    """FFT-conjugated multiplication by the signed discrete momenta."""
    eye = np.eye(g.N, dtype=complex)
    return np.fft.ifft(g.momenta()[:, None] * np.fft.fft(eye, axis=0), axis=0)


def quantize_quadratic(M, g: GridSpec) -> np.ndarray:
    """Symmetric (Weyl) quantization of H(z) = (1/2) M z . z for n = 1.

    Returns the dense N x N matrix of H_op = (1/2)(m11 X^2 + m12 (XP + PX) +
    m22 P^2).  X is the diagonal of the grid coordinates x, so X^2 is the
    diagonal of x^2 and XP, PX scale P's rows and columns by x; P^2 is the
    only matrix product.  It is Hermitian bitwise: the last step replaces H by
    (H + H^H) / 2, whose (k, j) entry sums the conjugates of the two terms of
    its (j, k) entry in swapped order, and conjugation and halving are exact
    in floating point.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError(f"M must be 2x2, got shape {M.shape}")
    if not (abs(M[0, 1] - M[1, 0]) <= 1e-12):
        raise ValueError("M must be symmetric")
    x = g.xs()
    P = momentum_operator(g)
    H = 0.5 * (M[0, 0] * np.diag(x * x) + M[1, 1] * (P @ P))
    if M[0, 1] != 0.0:
        H = H + 0.5 * M[0, 1] * (x[:, None] * P + P * x)
    return 0.5 * (H + H.conj().T)


# Eigendecompositions are expensive (dense N x N); cache per (M, grid) under a
# single-writer lock so concurrent readers never observe a partial entry.  The
# cache is an LRU within a byte budget, room for four N = 2048 factors (about
# 256 MiB), so that sweeps over many M cannot grow it without limit.
EIG_CACHE_BYTES = 4 * (16 * 2048**2 + 8 * 2048)
_eig_cache: OrderedDict = OrderedDict()
_eig_lock = threading.Lock()


def _eig_factors(M: np.ndarray, g: GridSpec):
    # + 0.0 turns -0.0 into 0.0, so that both spellings of one M share an entry
    key = ((M + 0.0).tobytes(), g)
    with _eig_lock:
        got = _eig_cache.get(key)
        if got is not None:
            _eig_cache.move_to_end(key)
            return got
        evals, evecs = np.linalg.eigh(quantize_quadratic(M, g))
        gram = evecs.conj().T @ evecs
        gram[np.diag_indices(g.N)] -= 1.0
        defect = float(np.max(np.abs(gram)))
        if not (defect <= UNITARITY_TOL):
            raise np.linalg.LinAlgError(
                f"eigenbasis not unitary within {UNITARITY_TOL}: defect {defect:.3e}"
            )
        _eig_cache[key] = (evals, evecs)
        held = sum(w.nbytes + V.nbytes for w, V in _eig_cache.values())
        while held > EIG_CACHE_BYTES and len(_eig_cache) > 1:
            w, V = _eig_cache.popitem(last=False)[1]
            held -= w.nbytes + V.nbytes
        return evals, evecs


class Propagator:
    """Unitary U_t = exp(-i t H_op / hbar) held in eigenfactor form.

    ``apply`` costs two dense matrix-vector products and copies no matrix:
    V^H psi is formed as conj(conj(psi) V).  t = 0 is the exact
    identity, which keeps zero-time deformation experiments bitwise trivial.
    """

    def __init__(self, evals: np.ndarray, evecs: np.ndarray, t: float, grid: GridSpec):
        self._evals = evals
        self._evecs = evecs
        self.t = float(t)
        self.grid = grid

    @property
    def phases(self) -> np.ndarray:
        return np.exp(-1j * self.t * self._evals / self.grid.hbar)

    def apply(self, psi: State) -> State:
        if self.t == 0.0:
            return State(psi.values)
        V = self._evecs
        return State(V @ (self.phases * (psi.values.conj() @ V).conj()))

    def inverse(self) -> "Propagator":
        return Propagator(self._evals, self._evecs, -self.t, self.grid)


def metaplectic_lift(M, t: float, g: GridSpec) -> Propagator:
    """Lift of the flow exp(t J M) through the identity at t = 0.

    The Hermitian eigendecomposition of the quantized generator is computed
    once per (M, grid) and reused across t, so sweeps over time are cheap.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2) or not (abs(M[0, 1] - M[1, 0]) <= 1e-12):
        raise ValueError("M must be a symmetric 2x2 matrix")
    evals, evecs = _eig_factors(M, g)
    return Propagator(evals, evecs, t, g)


def _probe_states(g: GridSpec, rng: np.random.Generator) -> list[State]:
    base = gaussian_window(1j, g)
    probes = []
    for _ in range(_PROBE_COUNT):
        w = rng.uniform(-_PROBE_SPREAD, _PROBE_SPREAD, size=2)
        probes.append(heisenberg(w, base, g))
    return probes


def covariance_defect(M, t: float, z, g: GridSpec) -> float:
    """Deviation of the discrete model from exact symplectic covariance.

    Returns max over a fixed seeded family of concentrated probe states of
    ||U_t T(z) U_t^{-1} psi - T(S_t z) psi|| / ||psi||.  Small values certify
    that conjugating a phase-space translation by the lift matches the
    translated flow image on the grid in use.  Probes and therefore results
    are deterministic.
    """
    zc = np.asarray(z, dtype=float)
    qlim = (g.N / 4) * g.dx
    plim = (g.N / 4) * g.dp
    if abs(zc[0]) > qlim or abs(zc[1]) > plim:
        warnings.warn(
            f"z={zc.tolist()} outside the reliable box |q|<={qlim:g}, |p|<={plim:g}; "
            "defect may be resolution-limited",
            stacklevel=2,
        )
    St = flow_matrix(QuadraticHamiltonian(M), t).S
    U = metaplectic_lift(M, t, g)
    Uinv = U.inverse()
    rng = np.random.default_rng(_PROBE_SEED)
    worst = 0.0
    for psi in _probe_states(g, rng):
        lhs = U.apply(heisenberg(zc, Uinv.apply(psi), g))
        rhs = heisenberg(St @ zc, psi, g)
        dev = float(np.linalg.norm(lhs.values - rhs.values))
        ref = float(np.linalg.norm(psi.values))
        worst = max(worst, dev / ref)
    return worst


def gaussian_mobius(Gamma: complex, S: SymplecticMatrix) -> complex:
    """Action of a 2x2 symplectic matrix on the Gaussian parameter.

    For S = [[a, b], [c, d]] the evolved parameter is (c + d*Gamma)/(a +
    b*Gamma); the upper half-plane Im > 0 is preserved.  This is the
    closed-form counterpart of applying the lift to a Gaussian window and is
    used as an independent oracle for it.
    """
    Gamma = complex(Gamma)
    if not (Gamma.imag > 0.0):
        raise ValueError(f"requires Im(Gamma) > 0, got {Gamma!r}")
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

