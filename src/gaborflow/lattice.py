"""Finite separated phase-space point sets, ellipsoid geometry, safe
thickening radii, and the flow-driven point-set deformation.

The central objects are a finite delta-separated point set standing in for a
lattice and an ellipsoid {H = E} given by a positive definite quadratic
Hamiltonian.  ``max_safe_epsilon`` returns the largest thickening radius of
the ellipsoid surface that captures no lattice points beyond those already on
the surface; ``enclosed_indices`` finds the points on or inside the surface
and ``deform_point_set`` moves them along the exact linear flow, leaving the
rest untouched.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symplectic import QuadraticHamiltonian, _dot, _floats, flow_matrix

__all__ = [
    "Box",
    "PointSet",
    "Ellipsoid",
    "ProjectionError",
    "separable_lattice",
    "enclosed_indices",
    "distance_to_ellipsoid",
    "off_surface_distances",
    "max_safe_epsilon",
    "deform_point_set",
]

# the surface band |H(z) - E| <= BOUNDARY_TOL*E: lattice coordinates held as
# doubles make exact incidence fragile
BOUNDARY_TOL = 1e-9
EPS_MAX = 1.0
COLLISION_TOL = 1e-9
ON_SURFACE_REL_TOL = 1e-10
# relative slack absorbing float noise in the separation / box membership checks
_REL_SLACK = 1e-9
# Newton on the secular equation converges in a handful of steps; the cap
# turns a solve that does not settle into a ProjectionError
_SECULAR_MAX_ITER = 100
# float resolution of the secular solve: a few units in the last place
_SECULAR_TOL = 4.0 * np.finfo(float).eps
# coordinates of z below this (relative to 1 + |z|) are set to zero; the
# distance is 1-Lipschitz in z, so that moves it by far less than one ulp
_NEGLIGIBLE = np.finfo(float).eps ** 2


class ProjectionError(RuntimeError):
    """Nearest-point projection onto the ellipsoid could not be certified."""


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box in R^{2n}: componentwise lower < upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float, copy=True)
        hi = np.array(self.upper, dtype=float, copy=True)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0 or lo.size % 2 != 0:
            raise ValueError("box bounds must be matching 1-D vectors of even length")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def from_pairs(cls, pairs) -> "Box":
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("expected a sequence of (lower, upper) pairs")
        return cls(arr[:, 0], arr[:, 1])

    @property
    def dim(self) -> int:
        return self.lower.size // 2


def _nearest_distance(pts: np.ndarray, rows: np.ndarray) -> float:
    """Smallest distance from a point pts[i], i in ``rows``, to any other point.

    Squared differences are summed into a (len(rows), m) array one
    coordinate at a time, in coordinate order, as a pairwise-distance loop
    rounds them; broadcasting to (len(rows), m, 2n) and reducing the last
    axis instead is slower.
    """
    d2 = np.zeros((len(rows), pts.shape[0]))
    for j in range(pts.shape[1]):
        d2 += np.subtract.outer(pts[rows, j], pts[:, j]) ** 2
    d2[np.arange(len(rows)), rows] = np.inf
    return float(np.sqrt(np.min(d2)))


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite collection of phase-space points with a certified separation.

    ``points`` is an (m, 2n) array; ``delta`` is a lower bound on pairwise
    distances, checked exhaustively at construction (O(m^2), fine at desk
    scale).  ``deform_point_set`` builds its result without the check and
    gives it the measured minimum distance when a moved point lands within
    the collision tolerance of another point.
    """

    points: np.ndarray
    delta: float
    _checked: bool = True

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.size == 0:
            pts = pts.reshape(0, 2 if pts.ndim < 2 else pts.shape[-1])
        if pts.ndim != 2 or pts.shape[1] % 2 != 0 or pts.shape[1] == 0:
            raise ValueError(f"points must form an (m, 2n) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if self._checked and pts.shape[0] > 1:
            dmin = _nearest_distance(pts, np.arange(pts.shape[0]))
            if dmin == 0.0:
                raise ValueError("duplicate points are not allowed")
            if dmin < self.delta * (1.0 - _REL_SLACK):
                raise ValueError(
                    f"separation violated: min pairwise distance {dmin:.6e} < delta {self.delta:.6e}"
                )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _trusted(cls, points, delta) -> "PointSet":
        return cls(points, delta, _checked=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1] // 2

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Level set {z : H(z) = E} of a positive definite quadratic Hamiltonian.

    E > 0 and positive definiteness make the surface compact; it bounds the
    compact region {H <= E}.  The radii and the gradient floor are computed
    once per ellipsoid, on first use.
    """

    H: QuadraticHamiltonian
    E: float

    def __post_init__(self):
        if not (self.E > 0.0):
            raise ValueError(f"energy E must be positive, got {self.E!r}")

    @property
    def dim(self) -> int:
        return self.H.dim

    @cached_property
    def inner_radius(self) -> float:
        """Smallest semi-axis sqrt(2E / mu_max)."""
        return math.sqrt(2.0 * self.E / self.H.max_eigenvalue)

    @cached_property
    def outer_radius(self) -> float:
        """Largest semi-axis sqrt(2E / mu_min)."""
        return math.sqrt(2.0 * self.E / self.H.min_eigenvalue)

    @cached_property
    def gradient_floor(self) -> float:
        """Lower bound on |grad H| anywhere on or outside the surface."""
        return self.H.min_eigenvalue * self.inner_radius


def separable_lattice(alpha: float, beta: float, box: Box) -> PointSet:
    """All points of (alpha Z)^n x (beta Z)^n inside the box, n = box.dim.

    The certified separation is min(alpha, beta).  An empty intersection is
    allowed and flagged with a warning.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("alpha and beta must be positive")
    n = box.dim
    axes = []
    for i in range(2 * n):
        spacing = alpha if i < n else beta
        lo, hi = box.lower[i], box.upper[i]
        slack = _REL_SLACK * max(1.0, abs(lo), abs(hi))
        kmin = math.ceil((lo - slack) / spacing)
        kmax = math.floor((hi + slack) / spacing)
        axes.append(np.arange(kmin, kmax + 1, dtype=float) * spacing)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    if pts.shape[0] == 0:
        warnings.warn("separable_lattice: box contains no lattice points", stacklevel=2)
    return PointSet(pts, min(alpha, beta))


def _surface_band(P: PointSet, ell: Ellipsoid):
    """H at the points of P and the mask of those on the surface,
    |H(z) - E| <= BOUNDARY_TOL*E, a band relative to E."""
    if P.dim != ell.dim:
        raise ValueError(f"dimension mismatch: points n={P.dim}, ellipsoid n={ell.dim}")
    vals = ell.H.values(P.points) if len(P) else np.empty(0)
    return vals, np.abs(vals - ell.E) <= BOUNDARY_TOL * ell.E


def enclosed_indices(P: PointSet, ell: Ellipsoid) -> np.ndarray:
    """Ascending indices of the enclosed set of P: the points on the surface
    and those inside it, H(z) < E*(1 - BOUNDARY_TOL)."""
    vals, on = _surface_band(P, ell)
    return np.nonzero(on | (vals < ell.E - BOUNDARY_TOL * ell.E))[0]


def _secular_root(psi, lo, hi):
    """Root of an increasing concave psi on [lo, hi] with psi(lo) <= 0 <= psi(hi).

    ``psi(s)`` returns (value, slope).  Newton steps from ``lo`` climb onto the
    root without overshooting.  A step that leaves the bracket (rounding near
    the root) or is not half the one before it (slow creep where psi bends
    sharply) is replaced by bisection, geometric while the bracket spans more
    than a factor 2.  Stops at float resolution, when psi is down to its
    rounding floor (psi is scaled to be O(1)) or the Newton step to a few units
    in the last place of s, and returns that last Newton iterate.  Returns nan
    if that takes more than ``_SECULAR_MAX_ITER`` steps.
    """
    s = lo
    prev = older = math.inf
    for _ in range(_SECULAR_MAX_ITER):
        val, slope = psi(s)
        if val < 0.0:
            lo = s
        elif val > 0.0:
            hi = s
        else:
            return s
        nxt = s - val / slope
        step = abs(nxt - s)
        if abs(val) <= _SECULAR_TOL or step <= _SECULAR_TOL * s:
            return nxt if lo <= nxt <= hi else s
        if not (lo < nxt < hi and step <= 0.5 * older):
            nxt = math.sqrt(lo) * math.sqrt(hi) if 0.0 < 2.0 * lo < hi else 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return s
            step = abs(nxt - s)
        prev, older = step, prev
        s = nxt
    return math.nan


def distance_to_ellipsoid(
    z, ell: Ellipsoid, Hz: float | None = None
) -> tuple[float, np.ndarray]:
    """Euclidean distance from z to the surface {H = E} and the nearest point.

    The nearest point is w = (I + lam*M)^{-1} z, where the Lagrange
    multiplier of the global minimum satisfies lam >= -1/mu_max (mu the
    eigenvalues of M).  Bracketed root-find after D. Eberly, "Distance from a
    Point to an Ellipse, an Ellipsoid, or a Hyperellipsoid" (Geometric Tools,
    2013): in the eigenbasis of M, with s = 1 + lam*mu_max and r = mu/mu_max,
    the coordinates are w_i = y_i / ((1 - r_i) + s*r_i).  These denominators
    are sums of nonnegative terms, so they carry no cancellation, also at
    repeated eigenvalues.  H(w(s)) falls from +inf to 0 on s > 0, and s is
    the unique root of psi(s) = (E / H(w(s)))^{1/2} - 1: in (1, inf) for
    exterior points, in (0, 1) for interior ones.  Like the trust-region
    secular function, psi is increasing, concave and nearly linear, so
    Newton from a closed-form lower bracket climbs onto the root; bisection
    guards the steps, and the solve runs to float resolution.  An interior
    point with no component in the top eigenspace (the center, points on the
    long axes) may have its multiplier at the pole s = 0; that case is solved
    in closed form.

    The distance is accurate to a few units in the last place of 1 + |z|
    (the tests hold it to 1e-14 * (1 + |z|) on the circle, an ellipse, the
    axes and the center).  The cutoff of the truncated flow is a function of
    this distance and relies on that: the tests hold the field of
    ``hamiltonian_field`` to 1e-5 of central differences of its own H_eps
    with step h = 1e-6, and such a difference sees the distance error
    amplified by 1/h.

    Points already on the surface within 1e-10 relative in H return distance
    exactly 0 with a copy of z as the projection.  The projection is always a
    new float array, never the caller's.

    The solve runs on Python floats, with the eigenbasis that the
    Hamiltonian keeps as floats: on one point of a few coordinates, numpy's
    per-call overhead would cost several times the arithmetic.  A list of
    exactly 2n coordinates is used as it is, as ``hamiltonian_field`` passes
    its stages; any other z is converted first, and a wrong number of
    coordinates raises ValueError.  A list, a tuple and an array of the same
    floats give bitwise-equal results.  A caller that already holds H(z),
    as ``H.gradient_and_value`` computes it for that list, passes it as
    ``Hz`` and saves its second evaluation.

    Raises
    ------
    ProjectionError
        If the solve does not land on the surface within 1e-10 * E in H; the
        message reports the scanned bracket rather than returning a wrong
        point.
    """
    H = ell.H
    zs = z if type(z) is list and len(z) == 2 * H.dim else _floats(z, H.dim)
    E = ell.E
    if Hz is None:
        Hz = H.gradient_and_value(zs)[1]
    if not math.isfinite(Hz):
        raise ValueError(f"point must be finite with finite H, got {zs}")
    if abs(Hz - E) <= ON_SURFACE_REL_TOL * E:
        return 0.0, np.array(zs, dtype=float)

    # the sums below inline _dot's loop (the cold pole case calls it)
    mu, r, c, Q, Qt = H._eigenbasis
    zz = 0.0
    for zi in zs:
        zz += zi * zi
    # coordinates that are zero or negligible have w = 0 and drop out of the
    # secular equation
    floor = _NEGLIGIBLE * (1.0 + math.sqrt(zz))
    y, nz, terms = [], [], []
    for i, col in enumerate(Qt):
        yi = 0.0
        for qij, zj in zip(col, zs):
            yi += qij * zj
        y.append(yi)
        if abs(yi) > floor:
            nz.append(i)
            terms.append((mu[i], r[i], c[i], yi))

    def psi(s):
        q = slope = 0.0
        for m, ri, ci, yi in terms:
            den = ci + s * ri
            wi = yi / den
            w2 = wi * wi
            q += m * w2
            slope += m * (ri * w2 / den)
        q = 0.5 * q / E
        return 1.0 / math.sqrt(q) - 1.0, slope / (2.0 * E * q**1.5)

    if Hz > E:
        # s*r_i <= (1 - r_i) + s*r_i <= s for s >= 1 bounds H(w(s)) both ways
        lo = max(1.0, math.sqrt(Hz / E))
        spread = 0.0
        for yi, m in zip(y, mu):
            spread += (yi * yi) * (1.0 / m)
        hi = max(lo, mu[-1] * math.sqrt(spread / (2.0 * E)))
    else:
        hi = 1.0
        top = [yi for _, _, ci, yi in terms if ci == 0.0]
        if top:
            # the top-eigenspace terms alone reach E at this s
            lo = min(hi, math.hypot(*top) * math.sqrt(mu[-1] / (2.0 * E)))
        else:
            # no component in the top eigenspace: w = y / (1 - mu/mu_max) off
            # it.  If that leaves energy to spare (the center, interior points
            # on the long axes), the multiplier sits at the pole
            # lam = -1/mu_max and the spare energy goes into the first top
            # eigenvector
            w = [0.0] * len(y)
            for i, (_, _, ci, yi) in zip(nz, terms):
                w[i] = yi / ci
            held = _dot(mu, [wi * wi for wi in w])
            if 0.5 * held > E:
                lo = 0.0
            else:
                w[c.index(0.0)] = math.sqrt(max(2.0 * E - held, 0.0) / mu[-1])
                return _distance_and_point(y, w, Q)

    s = _secular_root(psi, lo, hi)
    w = [0.0] * len(y)
    for i, (_, ri, ci, yi) in zip(nz, terms):
        w[i] = yi / (ci + s * ri)
    held = 0.0
    for m, wi in zip(mu, w):
        held += m * (wi * wi)
    if not abs(0.5 * held - E) <= ON_SURFACE_REL_TOL * E:
        raise ProjectionError(
            f"no admissible projection found for z={zs}: scanned the "
            f"multiplier bracket s = 1 + lam*mu_max in [{lo:.6e}, {hi:.6e}]"
        )
    return _distance_and_point(y, w, Q)


def _distance_and_point(y, w, Q) -> tuple[float, np.ndarray]:
    """|y - w| and the surface point Q w, for w given in the eigenbasis,
    with ``_dot``'s sums inlined."""
    dd = 0.0
    for yi, wi in zip(y, w):
        diff = yi - wi
        dd += diff * diff
    proj = []
    for row in Q:
        acc = 0.0
        for qij, wj in zip(row, w):
            acc += qij * wj
        proj.append(acc)
    return math.sqrt(dd), np.array(proj)


def off_surface_distances(P: PointSet, ell: Ellipsoid) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the points of P off the surface, |H(z) - E| > BOUNDARY_TOL*E,
    in ascending order, and their distances to the surface."""
    idx = np.nonzero(~_surface_band(P, ell)[1])[0]
    # rows as lists of floats take the projection's fast path
    return idx, np.array([distance_to_ellipsoid(z, ell)[0] for z in P.points[idx].tolist()])


def max_safe_epsilon(P: PointSet, ell: Ellipsoid) -> float:
    """Largest thickening radius of the surface that captures no new points.

    Returns min over off-surface points of their distance to the surface; any
    thickening with radius strictly below this value contains exactly the
    points already on the surface.  If P is empty or every point lies on the
    surface, returns the cap ``EPS_MAX`` (a finite cap keeps cutoff supports
    bounded).

    The minimum equals that of ``off_surface_distances`` bitwise, but only
    the points that can attain it are projected.  Each off-surface point z,
    at radius r, gets certified bounds on its distance from its H(z) alone
    (R_in, R_out the smallest and largest semi-axes, mu_max the largest
    eigenvalue of M):

    - above: the radial point z sqrt(E / H(z)) lies on the surface; the
      center is at distance R_in
    - below, outside: max(r - R_out, (H - E) / (mu_max max(r, R_out))), as
      the surface lies within R_out and |grad H| <= mu_max |y| along the
      segment to the nearest point
    - below, inside: max(R_in - r, (E - H) / (mu_max R_out)), the segment
      lying in the convex region

    A point whose lower bound exceeds the smallest upper bound, with a slack
    of 1e-9 times 1 + max(r, R_out), cannot attain the minimum.  The slack
    covers the rounding of the bounds and of the projection.
    """
    vals, on = _surface_band(P, ell)
    off = np.nonzero(~on)[0]
    if off.size == 0:
        return EPS_MAX
    z, Hz, E = P.points[off], vals[off], ell.E
    r = np.sqrt(np.einsum("ij,ij->i", z, z))
    r_in, r_out, mu = ell.inner_radius, ell.outer_radius, ell.H.max_eigenvalue
    with np.errstate(all="ignore"):  # the center, and H underflowing near it
        upper = np.where(r > 0.0, r * np.abs(1.0 - np.sqrt(E / Hz)), r_in)
    lower = np.where(Hz > E,
                     np.maximum(r - r_out, (Hz - E) / (mu * np.maximum(r, r_out))),
                     np.maximum(r_in - r, (E - Hz) / (mu * r_out)))
    cut = np.min(upper) + 1e-9 * (1.0 + max(float(np.max(r)), r_out))
    # rows as lists of floats take the projection's fast path
    return min(distance_to_ellipsoid(zi, ell)[0] for zi in z[lower <= cut].tolist())


def deform_point_set(
    P: PointSet,
    moved: np.ndarray,
    ell: Ellipsoid,
    t: float,
) -> PointSet:
    """Move the points at indices ``moved`` along the flow S_t = exp(t J M)
    of the ellipsoid Hamiltonian; the rest keep bitwise-equal coordinates.

    With ``moved = enclosed_indices(P, ell)`` this is (P minus F) union
    S_t(F), F the enclosed set.  Surface points stay on the surface because
    it is an energy level set of the driving Hamiltonian.

    If a moved point lands within ``COLLISION_TOL`` of any other point, a
    warning is issued instead of failing, and the certified separation is
    lowered to the measured minimum distance.
    """
    if moved.size == 0:
        return P
    S = flow_matrix(ell.H, t).S
    new_pts = np.array(P.points, copy=True)
    new_pts[moved] = P.points[moved] @ S.T
    if new_pts.shape[0] > 1:
        # pairs of two fixed points keep their certified separation
        dmin = _nearest_distance(new_pts, moved)
    else:
        dmin = P.delta
    if dmin < COLLISION_TOL:
        warnings.warn(
            f"deform_point_set: moved point within {COLLISION_TOL:g} of another point "
            f"(min distance {dmin:.3e}); separation lowered",
            stacklevel=2,
        )
    delta_new = min(P.delta, dmin) if dmin > 0.0 else P.delta
    return PointSet._trusted(new_pts, delta_new)
