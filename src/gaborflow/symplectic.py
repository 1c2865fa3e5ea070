"""Linear symplectic geometry: the standard form, quadratic Hamiltonians and
their matrix flows.

Conventions used throughout the package: phase-space points are plain float
arrays ordered z = (x_1..x_n, p_1..p_n) (lists of Python floats inside the
per-point kernels of the projection and the truncated flow), the standard form matrix is
J = [[0, I], [-I, 0]], and the symplectic product is sigma(z, z') = (J z) . z'.
With these choices Hamilton's equations for H(z) = (1/2) M z . z read
zdot = J M z and the flow is the matrix exponential exp(t J M).
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

__all__ = [
    "QuadraticHamiltonian",
    "SymplecticMatrix",
    "standard_J",
    "flow_matrix",
]

SYMPLECTIC_DEFECT_TOL = 1e-10
DET_TOL = 1e-9
SYMMETRY_TOL = 1e-12


def _dot(a, b) -> float:
    """sum_i a_i b_i of two sequences of floats, accumulated from 0.0 in
    coordinate order: the inner product of the per-point kernels.  Their
    hot paths inline this same loop, which rounds exactly as this call does,
    to save a call per pair; ``sum()`` is not used because from Python 3.12
    on it sums floats with compensation."""
    total = 0.0
    for ai, bi in zip(a, b):
        total += ai * bi
    return total


def _floats(z, dim: int) -> list:
    """One point of R^{2 dim} as a list of Python floats, the form the
    per-point kernels take.  Anything but 2 dim coordinates in one row raises
    ValueError: the kernels sum with ``zip``, which would silently stop at
    the shorter sequence."""
    a = np.asarray(z, dtype=float)
    if a.shape != (2 * dim,):
        raise ValueError(
            f"dimension mismatch: point has shape {a.shape}, expected {2 * dim} coords (n={dim})"
        )
    return a.tolist()


def standard_J(n: int) -> np.ndarray:
    """Standard form matrix [[0, I_n], [-I_n, 0]] on R^{2n}."""
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """H(z) = (1/2) M z . z with M symmetric positive definite.

    The eigendecomposition M = Q diag(mu) Q^T is computed once at
    construction: ``eigenvalues`` mu in ascending order, ``eigenvectors`` Q
    column-wise, and their ends ``min_eigenvalue`` and ``max_eigenvalue``.
    Positive definiteness is required so that level sets {H = E} are compact
    ellipsoids.  The rows of M are also kept as Python floats, for the
    per-point evaluation in ``gradient_and_value``, and so is the eigenbasis,
    for the projection onto level sets.
    """

    M: np.ndarray
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)
    min_eigenvalue: float = field(init=False)
    max_eigenvalue: float = field(init=False)
    _rows: list = field(init=False, repr=False)
    _eigenbasis: tuple = field(init=False, repr=False)

    def __post_init__(self):
        M = np.array(self.M, dtype=float, copy=True)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"M must be square, got shape {M.shape}")
        side = M.shape[0]
        if side == 0 or side % 2 != 0:
            raise ValueError(f"M must be 2n x 2n with n >= 1, got side {side}")
        defect = np.max(np.abs(M - M.T))
        if not (defect <= SYMMETRY_TOL):
            raise ValueError(f"M must be symmetric within {SYMMETRY_TOL}, defect {defect:.3e}")
        mu, Q = np.linalg.eigh(M)
        lam_min = float(mu[0])
        if not (lam_min > 0.0):
            raise ValueError(f"M must be positive definite, smallest eigenvalue {lam_min:.3e}")
        for a in (M, mu, Q):
            a.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "dim", side // 2)
        object.__setattr__(self, "eigenvalues", mu)
        object.__setattr__(self, "eigenvectors", Q)
        object.__setattr__(self, "min_eigenvalue", lam_min)
        object.__setattr__(self, "max_eigenvalue", float(mu[-1]))
        object.__setattr__(self, "_rows", M.tolist())
        object.__setattr__(self, "_eigenbasis", _float_eigenbasis(mu, Q))

    def gradient_and_value(self, z) -> tuple[list, float]:
        """grad H = M z and H(z) at one point, z a list of 2n floats as made
        by ``_floats`` (its length is not checked again here).

        Plain float arithmetic: on a single point of a few coordinates,
        numpy's per-call overhead costs far more than the sums themselves.
        The sums are ``_dot``'s, inlined.
        """
        grad = []
        h = 0.0
        for row, zi in zip(self._rows, z):
            g = 0.0
            for mij, zj in zip(row, z):
                g += mij * zj
            grad.append(g)
            h += zi * g
        return grad, 0.5 * h

    def value(self, z) -> float:
        return self.gradient_and_value(_floats(z, self.dim))[1]

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized H over rows of an (m, 2n) array."""
        pts = np.asarray(pts, dtype=float)
        return 0.5 * np.einsum("ij,jk,ik->i", pts, self.M, pts)


def _float_eigenbasis(mu: np.ndarray, Q: np.ndarray) -> tuple:
    """(mu, r, c, rows of Q, columns of Q) as lists of floats, with
    r = mu / mu_max and c = 1 - r: the projection's per-Hamiltonian data."""
    mu = mu.tolist()
    r = [m / mu[-1] for m in mu]
    # exact for r >= 1/2, zero on the top eigenspace
    c = [1.0 - ri for ri in r]
    return mu, r, c, Q.tolist(), Q.T.tolist()


@dataclass(frozen=True, eq=False)
class SymplecticMatrix:
    """A real 2n x 2n matrix S with S^T J S = J (and hence det S = 1).

    Construction validates both properties and freezes a copy of S.
    """

    S: np.ndarray

    def __post_init__(self):
        S = np.array(self.S, dtype=float, copy=True)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
            raise ValueError(f"S must be 2n x 2n, got shape {S.shape}")
        defect = _symplectic_defect(S)
        if not (defect <= SYMPLECTIC_DEFECT_TOL):
            raise ValueError(
                f"matrix is not symplectic: max|S^T J S - J| = {defect:.3e} "
                f"> {SYMPLECTIC_DEFECT_TOL}"
            )
        det = float(np.linalg.det(S))
        if not (abs(det - 1.0) <= DET_TOL):
            raise ValueError(f"symplectic matrix must have det 1, got {det!r}")
        S.setflags(write=False)
        object.__setattr__(self, "S", S)


def _symplectic_defect(S: np.ndarray) -> float:
    n = S.shape[0] // 2
    J = standard_J(n)
    return float(np.max(np.abs(S.T @ J @ S - J)))


def flow_matrix(H: QuadraticHamiltonian, t: float) -> SymplecticMatrix:
    """Flow map S_t = exp(t J M) of the linear Hamiltonian system zdot = J M z.

    With R = M^{1/2} from the eigendecomposition of M, J M = R^{-1} K R where
    K = R J R is real antisymmetric, so iK is Hermitian with eigenpairs
    (lam, V) and exp(tK) = V diag(exp(-i t lam)) V^H.  The flow is assembled
    as S_t = I + R^{-1} Re(V diag(exp(-i t lam) - 1) V^H) R, with
    exp(-i t lam) - 1 = -2 sin^2(t lam / 2) - i sin(t lam): this keeps small
    t accurate and makes S_0 exactly the identity.  The result is validated
    against the symplecticity tolerance at construction.
    """
    t = float(t)
    mu, Q = H.eigenvalues, H.eigenvectors
    R = (Q * np.sqrt(mu)) @ Q.T
    R_inv = (Q / np.sqrt(mu)) @ Q.T
    lam, V = np.linalg.eigh(1j * (R @ standard_J(H.dim) @ R))
    phase_m1 = -2.0 * np.sin(0.5 * t * lam) ** 2 - 1j * np.sin(t * lam)
    X = ((V * phase_m1) @ V.conj().T).real
    return SymplecticMatrix(np.eye(2 * H.dim) + R_inv @ X @ R)
