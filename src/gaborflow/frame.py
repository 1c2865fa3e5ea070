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

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lattice import (
    Ellipsoid,
    PointSet,
    deform_point_set,
    enclosed_indices,
    max_safe_epsilon,
)
from .metaplectic import metaplectic_lift
from .quantum import (
    _SQRT_HALF,
    GridSpec,
    State,
    _fold,
    _past_edge,
    _phase_points,
    apply_heisenberg,
    heisenberg_factors,
    norm,
)

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
PARITY_SPLIT_TOL = 1e-12  # the parity split's largest error, relative to A (B if A = 0)

REPORT_COLUMNS = ("t", "E", "eps", "moved", "A", "B", "A_prime", "B_prime", "rel_dA", "rel_dB")


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """A unit-norm window, a finite 2-D phase-space point set, and a grid."""

    window: State
    points: PointSet
    grid: GridSpec

    def __post_init__(self):
        if self.points.dim != 1:
            raise ValueError("Gabor systems are built on 2-D phase points (n = 1)")
        if len(self.window) != self.grid.N:
            raise ValueError("window length does not match grid")
        w = norm(self.window, self.grid)
        if abs(w - 1.0) > WINDOW_NORM_TOL:
            raise ValueError(f"window must have unit norm within {WINDOW_NORM_TOL}, got {w!r}")
        qmax = _past_edge(self.points.points[:, 0], self.grid)
        if qmax is not None:
            warnings.warn(
                f"lattice reaches |q|={qmax!r} beyond L/2={self.grid.L / 2.0:g}: "
                "windows wrap around the box",
                stacklevel=3,  # past the dataclass __init__
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
    return _conj_scaled(apply_heisenberg(heisenberg_factors(sys.points.points, sys.grid),
                                         sys.window.values, sys.grid), sys.grid)


def _conj_scaled(rows: np.ndarray, g: GridSpec) -> np.ndarray:
    """The rows T(z_j) window made analysis rows in place: conjugated, times
    sqrt(dx)."""
    if len(rows) == 0:
        raise ValueError("analysis matrix of an empty point set")
    np.conj(rows, out=rows)
    return np.multiply(rows, np.sqrt(g.dx), out=rows)


def frame_operator(sys: GaborSystem) -> np.ndarray:
    """Dense Hermitian PSD frame operator S = D* D (N x N)."""
    return _gram(analysis_matrix(sys))


def _gram(D: np.ndarray) -> np.ndarray:
    """D* D, made exactly Hermitian by averaging with its adjoint."""
    S = D.conj().T @ D
    return 0.5 * (S + S.conj().T)


def frame_bounds(sys: GaborSystem) -> FrameBounds:
    """Extremal frame-operator eigenvalues via dense Hermitian solves on the
    smaller side, split by parity where the system allows it.

    With m >= N points the N x N frame operator S = D* D is solved.  With
    m < N the m x m Gram matrix D D* is solved instead: it shares the nonzero
    spectrum of S, so B is its largest eigenvalue, and A = 0 exactly because
    S has rank at most m < N.  Intended for min(m, N) <= 2048; certified
    extremal eigenvalues at desk scale are preferred over iterative solvers
    that would need convergence tuning.

    Every metaplectic operator commutes with the parity psi(x) -> psi(-x),
    so a point set symmetric under z -> -z with an even window gives an S
    that commutes with the grid parity, up to the seam x = -L/2 and the
    Nyquist momentum.  Such a system is solved as two blocks of about half
    the size (``_parity_split``); the split is measured on D and used only
    when it provably moves neither bound by more than ``PARITY_SPLIT_TOL``
    relative.  Any other system gets the one-block solve.  ``ellipsoid_sweep``
    solves the analysis matrices it gathers from shared rows the same way.
    """
    return _bounds(analysis_matrix(sys), sys.points.points)


def _bounds(D: np.ndarray, z: np.ndarray) -> FrameBounds:
    """Frame bounds of the analysis matrix D of the points z: the parity
    split where it is safe, the one-block solve otherwise."""
    bounds = _parity_split(D, z)
    return FrameBounds.from_extremes(*_extremes(D)) if bounds is None else bounds


def _extremes(D: np.ndarray) -> tuple[float, float]:
    """Lowest and highest eigenvalue of D* D from one dense Hermitian solve
    on the smaller side of D; the lowest is 0 exactly when D has fewer rows
    than columns."""
    if D.shape[0] >= D.shape[1]:
        evals = np.linalg.eigvalsh(_gram(D))
        return evals[0], evals[-1]
    return 0.0, np.linalg.eigvalsh(_gram(D.conj().T))[-1]


def _negation_partners(z: np.ndarray) -> np.ndarray | None:
    """partner[i], the index of the point -z[i], for every row of z; None
    when some point's negation is not in the set."""
    order = np.lexsort(z.T[::-1])
    mirrored = np.lexsort(-z.T[::-1])
    if not np.array_equal(z[order], -z[mirrored]):
        return None
    partner = np.empty(len(z), dtype=np.intp)
    partner[order] = mirrored
    return partner


def _parity_split(D: np.ndarray, z: np.ndarray) -> FrameBounds | None:
    """Frame bounds of the analysis matrix D of the points z from its even
    and odd parity blocks, or None when the split is not safe.

    Each pair of rows r_a, r_b of points a = -b becomes (r_a + r_b)/sqrt 2
    and (r_a - r_b)/sqrt 2, a self-paired point (the origin) keeps its row,
    and the columns are written in the bases of ``_fold``.  That is a
    unitary change of both sides, so D*D keeps its spectrum.  The sums and
    the self-paired rows in the even basis form the even block, (N/2 + 1)
    columns; the differences in the odd basis form the odd block, (N/2 - 1)
    columns.  Each is solved on its smaller side: B is the larger block top,
    A the smaller block bottom.

    What the blocks leave out is the cross-parity remainder R: the odd
    parts of the sums and of the self-paired rows, and the even parts of
    the differences, read from the same folded matrix.  By Weyl's inequality for singular values, no eigenvalue of
    D*D lies further than err = |R|_F (2 sqrt(B) + |R|_F) from the blocks'.
    The blocks' bounds are returned only when err is at most
    ``PARITY_SPLIT_TOL`` times the smaller nonzero bound and no spectrum
    within err changes the frame verdict.  Before any fold, a first O(m)
    test reads R at the two self-mirrored columns, the seam x = -L/2 and
    x = 0: beyond PARITY_SPLIT_TOL sqrt(m), R alone would fail the guard,
    because B <= |D|_F^2 = m for unit-norm rows.
    """
    partner = _negation_partners(z)
    if partner is None:
        return None
    m, N = D.shape
    h = N // 2
    a = np.flatnonzero(partner > np.arange(m))
    own = np.flatnonzero(partner == np.arange(m))
    if a.size == 0:
        return None
    ends = D[:, [0, h]]
    seam = ends[a] - ends[partner[a]]
    if math.sqrt(0.5 * np.vdot(seam, seam).real) > PARITY_SPLIT_TOL * math.sqrt(m):
        return None
    # rows: the sums, the self-paired rows, the differences
    ke = a.size + own.size
    mixed = np.empty_like(D)
    sums, diffs = mixed[:a.size], mixed[ke:]
    Da, Db = D[a], D[partner[a]]
    np.add(Da, Db, out=sums)
    np.subtract(Da, Db, out=diffs)
    del Da, Db
    sums *= _SQRT_HALF
    diffs *= _SQRT_HALF
    mixed[a.size:ke] = D[own]
    even, odd = (part.T for part in _fold(mixed.T))
    r = math.sqrt(sum(np.vdot(c, c).real for c in (even[ke:], odd[:ke])))
    (lo_e, hi_e), (lo_o, hi_o) = _extremes(even[:ke]), _extremes(odd[ke:])
    lo, hi = min(lo_e, lo_o), max(hi_e, hi_o)
    err = r * (2.0 * math.sqrt(max(hi, 0.0)) + r)
    bounds = FrameBounds.from_extremes(lo, hi)
    if err > PARITY_SPLIT_TOL * (bounds.A or bounds.B):
        return None
    verdict_holds = (lo - err > FRAME_THRESHOLD * (hi + err)
                     or lo + err <= FRAME_THRESHOLD * (hi - err))
    return bounds if verdict_holds else None


def full_phase_space_points(g: GridSpec) -> PointSet:
    """All N translations x N modulations of the grid: (k*dx, j*dp), centered.

    The associated Gabor system is a tight frame of the discrete model for
    any window; it serves as the completeness oracle in the tests.
    """
    ks = g.xs()
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
    sys: GaborSystem, ells, ts
) -> Iterator[tuple[GaborSystem, DeformationReport]]:
    """Deform the window by the lift and only the enclosed points by the flow,
    for every ellipsoid in ``ells``, all of one M (``ValueError`` otherwise),
    and every time in ``ts``.

    Yields ``(deformed system, report)`` for each (E, t), ellipsoid-major.
    The window becomes U_t window (lifted about the origin); the points
    enclosed by the ellipsoid move along the exact flow while the rest stay
    fixed.  The safe thickening radius of the surface is recorded in the
    report to certify that a cutoff flow realizing this piecewise motion
    exists for the set.  Frame bounds of both systems and their relative
    drifts make up the report.

    The lifts run first, so that no (m, N) array is held while a cold
    eigendecomposition runs.  Then the points' ``heisenberg_factors`` are
    built once and kept, and the undeformed bounds are solved from them.
    The sweep then runs t-major, yielding each report once those before it
    are solved.  At each t != 0 it builds the kept factors' rows under
    U_t window and one row per distinct moved point over all energies,
    freed before the next t's.  Each energy's analysis matrix is gathered
    from them into one reused workspace and solved there (``_bounds``).  At
    t = 0 the deformed system is the undeformed one (S_0 = I, U_0 = 1
    exactly), so its report reuses the undeformed bounds.
    """
    ells, ts, g = list(ells), list(ts), sys.grid
    if not ells:
        return
    if not all(np.array_equal(ell.H.M, ells[0].H.M) for ell in ells):
        raise ValueError("the ellipsoids of a sweep must share one M")
    windows = {t: metaplectic_lift(ells[0].H.M, t, g).apply(sys.window) for t in dict.fromkeys(ts)}
    fixed = heisenberg_factors(sys.points.points, g)
    bounds0 = _bounds(_conj_scaled(apply_heisenberg(fixed, sys.window.values, g), g),
                      sys.points.points)
    eps = [max_safe_epsilon(sys.points, ell) for ell in ells]
    insides = [enclosed_indices(sys.points, ell) for ell in ells]
    ends = np.cumsum([len(inside) for inside in insides])[:-1]
    workspace = np.empty((len(sys.points), g.N), dtype=complex)
    done, k = {}, 0
    for i, t in enumerate(ts):
        deformed = [deform_point_set(sys.points, ins, ell, t) for ell, ins in zip(ells, insides)]
        # one row per moved point to the bit: energies' coordinates can differ in the last bit
        moved = np.concatenate([P.points[inside] for P, inside in zip(deformed, insides)])
        _, first, where = np.unique(moved.view("V16"), return_index=True, return_inverse=True)
        if t != 0.0:
            moved_rows = apply_heisenberg(heisenberg_factors(moved[first], g), windows[t].values, g)
            fixed_rows = apply_heisenberg(fixed, windows[t].values, g)
        for e, (P, inside, at) in enumerate(zip(deformed, insides, np.split(where.ravel(), ends))):
            bounds1 = bounds0
            if t != 0.0:
                _phase_points(P.points, g)  # heisenberg_factors' checks of the deformed set
                np.copyto(workspace, fixed_rows)
                workspace[inside] = moved_rows[at]
                bounds1 = _bounds(_conj_scaled(workspace, g), P.points)
            report = _make_report(bounds0, bounds1, len(inside), eps[e], t, ells[e].E)
            done[e * len(ts) + i] = GaborSystem(windows[t], P, g), report
        moved_rows = fixed_rows = None  # freed before the next t's rows are built
        while k in done:
            yield done.pop(k)
            k += 1


def ellipsoid_deform(
    sys: GaborSystem, ell: Ellipsoid, t: float
) -> tuple[GaborSystem, DeformationReport]:
    """One (E, t) step of ``ellipsoid_sweep``: the deformed system and its
    report."""
    return next(ellipsoid_sweep(sys, [ell], [t]))

