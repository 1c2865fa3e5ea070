"""Discretized 1-D state space at hbar = 1/(2 pi): centered periodized grids,
phase-space translation (Heisenberg) operators, and Gaussian windows.

The phase-space translation by z = (q, p) acts as

    (T(z) psi)(x) = exp{(i/hbar)(p x - p q / 2)} psi(x - q)

with the symmetric half-phase convention; the composition law
T(z0) T(z1) = exp{(i/2 hbar) sigma(z0, z1)} T(z0 + z1) is verified numerically
by the test suite, which pins the sign convention of the symplectic product.
Translations by arbitrary real q are realized as FFT-based fractional circular
shifts, which are exactly unitary on the discrete model.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "State",
    "inner",
    "norm",
    "heisenberg",
    "heisenberg_factors",
    "apply_heisenberg",
    "gaussian_parameter",
    "gaussian_window",
    "save_state",
    "load_state",
]

HBAR_GABOR = 1.0 / (2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid x_j = (j - N/2) dx, j = 0..N-1, centered on the origin,
    at the Gabor normalization hbar = 1/(2 pi).

    N must be a power of two (>= 16).  The spatial period is L = N dx and the
    momentum lattice spacing is dp = 2 pi hbar / L.  x is exactly odd under
    j -> -j mod N, so the grid parity psi(x) -> psi(-x) is exact.
    """

    N: int
    dx: float
    hbar = HBAR_GABOR

    def __post_init__(self):
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 16, got {self.N}")
        if not (self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx!r}")

    @classmethod
    def centered(cls, N: int = 1024, L: float = 16.0) -> "GridSpec":
        """The grid of period L: dx = L/N."""
        return cls(N=N, dx=L / N)

    @property
    def L(self) -> float:
        return self.N * self.dx

    @property
    def dp(self) -> float:
        return 2.0 * math.pi * self.hbar / self.L

    def xs(self) -> np.ndarray:
        return self.dx * (np.arange(self.N) - self.N // 2)

    def momenta(self) -> np.ndarray:
        """Momentum samples hbar * 2*pi * f in signed FFT ordering."""
        return 2.0 * math.pi * self.hbar * np.fft.fftfreq(self.N, d=self.dx)


@dataclass(frozen=True, eq=False)
class State:
    """Complex N-vector of samples psi(x_k); entries must be finite."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"state must be a nonempty 1-D vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


def _fold(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the columns of an (N, k) block in the grid parity's
    even basis e_0, (e_j + e_{N-j}) / sqrt 2 for 0 < j < N/2, e_{N/2}, and
    its odd basis (e_j - e_{N-j}) / sqrt 2 for 0 < j < N/2.

    The parity is psi(x) -> psi(-x), that is j -> -j mod N on a grid
    centered on the origin: e_0 (x = -L/2, the periodic seam) and e_{N/2}
    (x = 0) are their own mirrors.  Both parts keep psi's memory order, so
    the parts of a transposed block come out transposed.
    """
    N = psi.shape[0]
    h = N // 2
    mirror = psi[N - 1:h:-1]
    even = np.copy(psi[:h + 1])
    even[1:h] = (psi[1:h] + mirror) * _SQRT_HALF
    return even, (psi[1:h] - mirror) * _SQRT_HALF


def _check_grid(a: State, g: GridSpec):
    if len(a) != g.N:
        raise ValueError(f"state length {len(a)} does not match grid N={g.N}")


def inner(a: State, b: State, g: GridSpec) -> complex:
    """Riemann-sum pairing sum_k conj(a_k) b_k dx, conjugate-linear in the
    first slot (physics convention)."""
    _check_grid(a, g)
    _check_grid(b, g)
    return complex(np.vdot(a.values, b.values) * g.dx)


def norm(a: State, g: GridSpec) -> float:
    return math.sqrt(abs(inner(a, a, g).real))


def heisenberg(z, psi: State, g: GridSpec) -> State:
    """Apply the phase-space translation T(z) for z = (q, p), n = 1.

    The translation part is an FFT fractional circular shift (exact and
    unitary on the band-limited discrete model, so deformed phase-space
    points may land between grid nodes); the modulation and the symmetric
    half-phase are applied pointwise.  It warns of wrap-around as
    ``heisenberg_factors`` does.
    """
    return State(apply_heisenberg(heisenberg_factors(np.reshape(z, (1, -1)), g), psi.values, g)[0])


def heisenberg_factors(points, g: GridSpec) -> tuple:
    """Shift ramps and modulations of T(z_j) for every row z_j = (q_j, p_j) of
    an (m, 2) array, as two read-only (m, N) complex arrays ``(ramp, phase)``.

    They depend on the points and the grid, not on the window, so a sweep of
    windows over one point set builds them once (``apply_heisenberg`` does
    the rest).  Each row is built alone, bitwise as in any point set holding
    z_j.  One wrap-around warning is emitted when some q_j lies past the box
    edge (``_past_edge``).
    """
    factors = _ramp_and_phase(_phase_points(points, g), g)
    for f in factors:
        f.setflags(write=False)
    return factors


def _phase_points(points, g: GridSpec) -> np.ndarray:
    """points as an (m, 2) float array of finite phase points, with
    ``heisenberg_factors``' wrap-around warning."""
    z = np.asarray(points, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError(f"heisenberg requires 2-D phase points (n=1), got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("phase point must be finite")
    qmax = _past_edge(z[:, 0], g)
    if qmax is not None:
        warnings.warn(
            f"translation |q|={qmax!r} > L/2={g.L / 2.0:g}: wrap-around regime",
            stacklevel=4,
        )
    return z


def _past_edge(q, g: GridSpec) -> float | None:
    """The largest |q| of the positions q if it lies past the box edge L/2,
    where translated windows wrap around the periodic grid; None otherwise.
    |q| within 1e-12 relative of L/2 is on the edge, as at the seam of a
    torus-covering box."""
    qmax = float(np.max(np.abs(q), initial=0.0))
    return qmax if qmax > (g.L / 2.0) * (1.0 + 1e-12) else None


def _ramp_and_phase(z: np.ndarray, g: GridSpec) -> tuple:
    # row by row elementwise, so a row's factors do not depend on the others
    # and each exponential runs in place in its argument
    q, p = z[:, :1], z[:, 1:]
    ramp = -2j * math.pi * np.fft.fftfreq(g.N, d=g.dx) * q
    phase = 1j * (p * g.xs() - 0.5 * p * q) / g.hbar
    return np.exp(ramp, out=ramp), np.exp(phase, out=phase)


def apply_heisenberg(factors, psi: np.ndarray, g: GridSpec) -> np.ndarray:
    """T(z_j) psi from the ``heisenberg_factors`` of the z_j, for samples psi
    whose last axis is the grid: one row per z_j for one state, T(z) of each
    row for a (k, N) block and one z.  The spectrum of psi times the shift
    ramps, an inverse FFT along the rows (the band-limited circular shift
    psi(x) -> psi(x - q_j)) and the modulations, in place, each row as if
    built alone; two arrays of the output's shape are allocated.  The
    products keep their operand order, spectrum * ramp and phase * shifted,
    because numpy's complex product rounds differently with its operands
    swapped.
    """
    if np.shape(psi)[-1:] != (g.N,):
        raise ValueError(f"samples of shape {np.shape(psi)} do not match grid N={g.N}")
    ramp, phase = factors
    out = np.fft.ifft(np.multiply(np.fft.fft(psi), ramp), axis=-1)
    return np.multiply(phase, out, out=out)


def gaussian_parameter(Gamma) -> complex:
    """Gamma as a complex number, checked to give a Gaussian window:
    Im(Gamma) > 0."""
    Gamma = complex(Gamma)
    if not (Gamma.imag > 0.0):
        raise ValueError(f"gaussian window requires Im(Gamma) > 0, got {Gamma!r}")
    return Gamma


def gaussian_window(Gamma: complex, g: GridSpec) -> State:
    """Unit-norm samples of exp{i Gamma x^2 / (2 hbar)} for Im(Gamma) > 0.

    Gamma = i gives the standard Gaussian exp{-x^2/(2 hbar)} up to
    normalization; larger Im(Gamma) narrows the window.
    """
    Gamma = gaussian_parameter(Gamma)
    x = g.xs()
    v = np.exp(1j * Gamma * x**2 / (2.0 * g.hbar))
    nrm = math.sqrt(float(np.sum(np.abs(v) ** 2)) * g.dx)
    return State(v / nrm)


def save_state(path, psi: State, g: GridSpec) -> None:
    """Binary dump: one JSON header line with the grid (N, x_min = -L/2, dx
    and hbar), then little-endian float64 samples interleaved (re, im)."""
    _check_grid(psi, g)
    header = json.dumps({"N": g.N, "x_min": -g.L / 2.0, "dx": g.dx, "hbar": g.hbar})
    inter = np.empty(2 * g.N, dtype="<f8")
    inter[0::2] = psi.values.real
    inter[1::2] = psi.values.imag
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(inter.tobytes())


def load_state(path) -> tuple[State, GridSpec]:
    """The state and grid of a ``save_state`` file.  A header that is not an
    object with the keys N, x_min, dx and hbar, or whose grid is not centered
    at hbar = 1/(2 pi), or whose N is not an integer, raises ``ValueError``."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii")
        raw = fh.read()
    meta = json.loads(header)
    try:
        N = float(meta["N"])
        if not N.is_integer():
            raise ValueError(f"state header N={meta['N']!r} is not an integer")
        g = GridSpec(N=int(N), dx=float(meta["dx"]))
        x_min, hbar = float(meta["x_min"]), float(meta["hbar"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"state header {header.strip()!r} is not an object of the "
                         "numbers N, x_min, dx and hbar") from exc
    if x_min != -g.L / 2.0 or hbar != g.hbar:
        raise ValueError(f"state grid x_min={x_min!r}, hbar={hbar!r} is not centered "
                         "at hbar = 1/(2 pi)")
    inter = np.frombuffer(raw, dtype="<f8")
    if inter.size != 2 * g.N:
        raise ValueError(f"payload holds {inter.size} doubles, expected {2 * g.N}")
    return State(inter[0::2] + 1j * inter[1::2]), g
