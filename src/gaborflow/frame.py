"""Gabor systems on the discrete model, frame operators and bounds, and the
window/lattice deformation experiments.

All frame statements here concern the finite, box-truncated system: bounds
are the extremal eigenvalues of the dense frame operator, measured in the
dx-weighted inner product.  The deformation experiments transport the window
with the metaplectic lift and the lattice with the exact linear flow (either
every point, or only those enclosed by an ellipsoid) and report the relative
drift of the bounds; the mixed case is an empirical probe and is reported,
not asserted.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .lattice import (
    BOUNDARY_TOL_DEFAULT,
    Ellipsoid,
    PointSet,
    classify_points,
    max_safe_epsilon,
    move_points,
)
from .metaplectic import metaplectic_lift
from .quantum import GridSpec, State, apply_heisenberg, heisenberg_factors, norm

__all__ = [
    "GaborSystem",
    "FrameBounds",
    "DeformationReport",
    "analysis_matrix",
    "frame_operator",
    "frame_bounds",
    "full_phase_space_points",
    "ellipsoid_deform",
    "ellipsoid_sweep",
    "REPORT_COLUMNS",
]

WINDOW_NORM_TOL = 1e-10
FRAME_THRESHOLD = 1e-10  # A > threshold * B counts as a frame

REPORT_COLUMNS = ("t", "E", "eps", "moved", "A", "B", "A_prime", "B_prime", "rel_dA", "rel_dB")


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """A unit-norm window, a finite 2-D phase-space point set, and a grid.

    ``_base`` is empty, or ``(build, rows)`` where ``build()`` returns the
    ``heisenberg_factors`` of a point set that agrees with ``points`` outside
    the indices ``rows``.  The analysis then splices the system's factors
    from those.
    """

    window: State
    points: PointSet
    grid: GridSpec
    _base: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.points.dim != 1:
            raise ValueError("Gabor systems are built on 2-D phase points (n = 1)")
        if len(self.window) != self.grid.N:
            raise ValueError("window length does not match grid")
        w = norm(self.window, self.grid)
        if abs(w - 1.0) > WINDOW_NORM_TOL:
            raise ValueError(f"window must have unit norm within {WINDOW_NORM_TOL}, got {w!r}")
        if len(self.points):
            qmax = float(np.max(np.abs(self.points.points[:, 0])))
            if qmax > self.grid.L / 2.0:
                warnings.warn(
                    f"lattice reaches |q|={qmax:g} beyond L/2={self.grid.L / 2.0:g}: "
                    "windows wrap around the box",
                    stacklevel=2,
                )


@dataclass(frozen=True)
class FrameBounds:
    """Extremal frame-operator eigenvalues A <= B and the frame verdict.

    Lower bounds beneath the numerical-rank threshold (A <= 1e-10 * B) are
    reported as exactly 0.0 so rank-deficient systems behave
    deterministically.
    """

    A: float
    B: float
    is_frame: bool

    def __post_init__(self):
        if self.A < 0.0 or self.B < self.A:
            raise ValueError(f"need 0 <= A <= B, got A={self.A!r}, B={self.B!r}")

    @classmethod
    def from_extremes(cls, lam_min: float, lam_max: float) -> "FrameBounds":
        B = max(float(lam_max), 0.0)
        A = max(float(lam_min), 0.0)
        if A <= FRAME_THRESHOLD * B:
            A = 0.0
        return cls(A=A, B=B, is_frame=A > FRAME_THRESHOLD * B)


def analysis_matrix(sys: GaborSystem) -> np.ndarray:
    """Analysis map as an m x N matrix: row j is conj(T(z_j) window) * sqrt(dx).

    With this scaling the Euclidean eigenvalues of the frame operator are the
    frame bounds of the dx-weighted inequality; rows have unit Euclidean norm
    because the translations are unitary.
    """
    if len(sys.points) == 0:
        raise ValueError("analysis matrix of an empty point set")
    base = sys._base
    if base:
        build, rows = base
        base = (build(), rows)
    factors = heisenberg_factors(sys.points.points, sys.grid, *base)
    T = apply_heisenberg(factors, sys.window, sys.grid)
    return np.conj(T) * np.sqrt(sys.grid.dx)


def frame_operator(sys: GaborSystem) -> np.ndarray:
    """Dense Hermitian PSD frame operator S = D* D (N x N)."""
    D = analysis_matrix(sys)
    S = D.conj().T @ D
    return 0.5 * (S + S.conj().T)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extremal frame-operator eigenvalues via a dense Hermitian solve on the
    smaller side.

    With m >= N points the N x N frame operator S = D* D is solved.  With
    m < N the m x m Gram matrix D D* is solved instead: it shares the nonzero
    spectrum of S, so B is its largest eigenvalue, and A = 0 exactly because
    S has rank at most m < N.  Intended for min(m, N) <= 2048; certified
    extremal eigenvalues at desk scale are preferred over iterative solvers
    that would need convergence tuning.
    """
    if len(sys.points) >= sys.grid.N:
        evals = np.linalg.eigvalsh(frame_operator(sys))
        return FrameBounds.from_extremes(evals[0], evals[-1])
    D = analysis_matrix(sys)
    G = D @ D.conj().T
    evals = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    return FrameBounds.from_extremes(0.0, evals[-1])


def full_phase_space_points(g: GridSpec) -> PointSet:
    """All N translations x N modulations of the grid: (k*dx, j*dp), centered.

    The associated Gabor system is a tight frame of the discrete model for
    any window; it serves as the completeness oracle in the tests.
    """
    ks = (np.arange(g.N) - g.N // 2) * g.dx
    js = (np.arange(g.N) - g.N // 2) * g.dp
    K, Jm = np.meshgrid(ks, js, indexing="ij")
    pts = np.stack([K.ravel(), Jm.ravel()], axis=-1)
    return PointSet(pts, delta=min(g.dx, g.dp))


@dataclass(frozen=True)
class DeformationReport:
    """Frame bounds before/after a deformation and their relative drifts."""

    bounds_before: FrameBounds
    bounds_after: FrameBounds
    rel_dA: float
    rel_dB: float
    moved_count: int
    epsilon_used: float
    t: float
    E: float

    def csv_row(self) -> tuple:
        return (
            self.t,
            self.E,
            self.epsilon_used,
            self.moved_count,
            self.bounds_before.A,
            self.bounds_before.B,
            self.bounds_after.A,
            self.bounds_after.B,
            self.rel_dA,
            self.rel_dB,
        )


def _rel_drift(before: float, after: float, scale: float) -> float:
    # the floor keeps drifts of numerically-zero lower bounds meaningful
    return abs(after - before) / max(before, 1e-9 * scale, 1e-300)


def _make_report(bounds0: FrameBounds, bounds1: FrameBounds, moved: int, eps: float,
                 t: float, E: float) -> DeformationReport:
    scale = max(bounds0.B, bounds1.B)
    return DeformationReport(
        bounds_before=bounds0,
        bounds_after=bounds1,
        rel_dA=_rel_drift(bounds0.A, bounds1.A, scale),
        rel_dB=_rel_drift(bounds0.B, bounds1.B, scale),
        moved_count=moved,
        epsilon_used=eps,
        t=t,
        E=E,
    )


def ellipsoid_sweep(
    sys: GaborSystem,
    ells,
    ts,
    boundary_tol: float = BOUNDARY_TOL_DEFAULT,
) -> Iterator[tuple[GaborSystem, DeformationReport]]:
    """Deform the window by the lift and only the enclosed points by the flow,
    for every ellipsoid in ``ells`` and every time in ``ts``.

    Yields ``(deformed system, report)`` for each (E, t), ellipsoid-major.
    The window becomes U_t window (base point 0); the points enclosed by the
    ellipsoid move along the exact flow while the rest stay fixed.  The safe
    thickening radius of the surface is recorded in the report to certify
    that a cutoff flow realizing this piecewise motion exists for the set.
    Frame bounds of both systems and their relative drifts make up the
    report.

    The sweep runs in three passes.  First it lifts the window once per
    distinct (M, t), so that no (m, N) array is held while a cold
    eigendecomposition runs.  Then it solves the undeformed system, whose
    analysis builds the points' ``heisenberg_factors``; the sweep keeps them.
    Last, per ellipsoid it finds eps* and the enclosed set, and per (E, t)
    the deformed system's analysis rebuilds the factors of the enclosed rows
    only.  At t = 0 the deformed system is the undeformed one (S_0 = I and
    U_0 is the identity exactly), so its report reuses the undeformed bounds.
    """
    ells, ts, g = list(ells), list(ts), sys.grid
    windows = {}
    for ell in ells:
        for t in ts:
            key = (ell.H.M.tobytes(), t)
            if key not in windows:
                windows[key] = metaplectic_lift(ell.H.M, t, g).apply(sys.window)
    # built once, within the first analysis, so that its time counts there
    fixed = cache(partial(heisenberg_factors, sys.points.points, g))
    bounds0 = frame_bounds(GaborSystem(sys.window, sys.points, g, (fixed, ())))
    for ell in ells:
        eps = max_safe_epsilon(sys.points, ell, boundary_tol)
        inside = classify_points(sys.points, ell, boundary_tol).inside
        for t in ts:
            window = windows[ell.H.M.tobytes(), t]
            points = move_points(sys.points, inside, ell, t)
            if t == 0.0:
                new_sys, bounds1 = GaborSystem(window, points, g), bounds0
            else:
                new_sys = GaborSystem(window, points, g, (fixed, inside))
                bounds1 = frame_bounds(new_sys)
            yield new_sys, _make_report(bounds0, bounds1, len(inside), eps, t, ell.E)


def ellipsoid_deform(
    sys: GaborSystem,
    ell: Ellipsoid,
    t: float,
    boundary_tol: float = BOUNDARY_TOL_DEFAULT,
) -> tuple[GaborSystem, DeformationReport]:
    """One (E, t) step of ``ellipsoid_sweep``: the deformed system and its
    report."""
    return next(ellipsoid_sweep(sys, [ell], [t], boundary_tol))

