"""Smooth cutoff of a quadratic Hamiltonian outside an ellipsoid and the
numerical flow of the truncated Hamiltonian.

The cutoff equals 1 on the enclosed region and its inner half-shell, 0 outside
the full shell, and interpolates with a C-infinity bump quotient in between.
The transition variable is the Euclidean distance to the ellipsoid surface, so
supports match metric thickenings by closed balls.  The truncated flow is
integrated with fixed-step classical RK4: reproducible trajectories, order-4
convergence thanks to the smooth cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    Ellipsoid,
    PointSet,
    distance_to_ellipsoid,
    enclosed_indices,
    off_surface_distances,
)
from .symplectic import _floats, flow_matrix

__all__ = [
    "TruncatedHamiltonian",
    "FlowStepError",
    "hamiltonian_field",
    "integrate_flow",
    "flow_trajectory",
    "verify_truncated_flow",
    "FlowCheckReport",
]

DT_MIN = 1e-12


class FlowStepError(RuntimeError):
    """Step size underflow in the fixed-step integrator."""


@dataclass(frozen=True, eq=False)
class TruncatedHamiltonian:
    """H restricted by the cutoff of an ellipsoid with shell width eps > 0:
    value H(z) * chi(z), support inside the enclosed region plus the full
    shell.

    With s the distance to the enclosed region, the cutoff chi is 1 for
    s <= eps/2, 0 for s >= eps, and h((s - eps/2)/(eps/2)) in between, where
    h(u) = g(1-u)/(g(u)+g(1-u)) and g(u) = exp(-1/u) for u > 0.

    When driving lattice deformation experiments eps must not exceed
    ``max_safe_epsilon`` of the point set in play; that is checked at the
    experiment level, not here.
    """

    ell: Ellipsoid
    eps: float

    def __post_init__(self):
        if not (self.eps > 0.0):
            raise ValueError(f"eps must be positive, got {self.eps!r}")


def _h_and_slope(u: float) -> tuple[float, float]:
    """h(u) = g(1-u)/(g(u)+g(1-u)) and h'(u), with g(u) = exp(-1/u) for
    u > 0, from one pair of exponentials: (1, 0) for u <= 0, (0, 0) for
    u >= 1."""
    if u <= 0.0:
        return 1.0, 0.0
    if u >= 1.0:
        return 0.0, 0.0
    # each exponential underflows cleanly to 0.0 near its end of (0, 1)
    a = math.exp(-1.0 / u)
    b = math.exp(-1.0 / (1.0 - u))
    return b / (a + b), -a * b * (1.0 / u**2 + 1.0 / (1.0 - u) ** 2) / (a + b) ** 2


_PLATEAU, _SHELL, _OUTSIDE = 0, 1, 2


def _region(z: list, th: TruncatedHamiltonian):
    """Classify z, a list of 2n floats, against the cutoff plateaus:
    (region, s, projection, grad H(z), H(z)).

    For H(z) > E, certified bounds on the surface distance settle most
    plateau/outside calls without the Lagrange projection, which matters
    inside RK4 stage evaluations.  Upper: descending along the gradient
    reaches the surface within (H - E)/inf|grad H|, with the inf taken over
    {H >= E}.  Lower: the mean value theorem along the projection segment
    plus the enclosing-ball bound.  The projection, a list of floats, is
    only available (non-None) when the exact solve ran; it reuses H(z), so
    H is evaluated once per call.
    """
    ell = th.ell
    grad, Hval = ell.H.gradient_and_value(z)
    if Hval <= ell.E:
        return _PLATEAU, 0.0, None, grad, Hval
    half = th.eps / 2.0
    delta = Hval - ell.E
    d_hi = delta / ell.gradient_floor
    if d_hi <= half:
        return _PLATEAU, d_hi, None, grad, Hval
    zz = 0.0
    for zi in z:
        zz += zi * zi
    r = math.sqrt(zz)
    reach = max(r, ell.outer_radius)
    d_lo = max(r - ell.outer_radius, delta / (ell.H.max_eigenvalue * reach))
    if d_lo >= th.eps:
        return _OUTSIDE, d_lo, None, grad, Hval
    d, proj = distance_to_ellipsoid(z, ell, Hval)
    proj = proj.tolist()
    if d <= half:
        return _PLATEAU, d, proj, grad, Hval
    if d >= th.eps:
        return _OUTSIDE, d, proj, grad, Hval
    return _SHELL, d, proj, grad, Hval


def hamiltonian_field(z, th: TruncatedHamiltonian) -> tuple[list, float]:
    """Hamiltonian vector field J grad(H * chi) and the value H * chi at z.

    One classification of z gives both.  The field is exactly zero outside
    the support and exactly J M z on the plateau where the cutoff is
    identically 1.  J acts as the block swap (x, p) -> (p, -x).

    This is the per-point kernel of the flow, on plain floats: numpy's
    per-call overhead on one point of a few coordinates costs far more than
    the arithmetic.  A list of 2n floats is used as it is, any other point
    is converted first (a wrong number of coordinates raises ValueError), and
    the field comes back as a list of 2n floats.  The classification's sums
    are ``_dot``'s loop inlined, its shell projection is the public
    ``distance_to_ellipsoid`` on the same list, and a shell point takes the
    cutoff and its slope from one pair of exponentials.
    """
    if type(z) is not list or len(z) != 2 * th.ell.dim:
        z = _floats(z, th.ell.dim)
    region, d, proj, grad, Hval = _region(z, th)
    if region == _OUTSIDE:
        return [0.0] * len(z), 0.0
    if region == _SHELL:
        half = th.eps / 2.0
        c, hp = _h_and_slope((d - half) / half)
        if hp != 0.0:
            a = Hval * hp * (2.0 / th.eps)
            grad = [c * g + a * (zi - pi) / d for g, zi, pi in zip(grad, z, proj)]
        else:
            grad = [c * g for g in grad]
        Hval = Hval * c
    n = len(grad) // 2
    return grad[n:] + [-g for g in grad[:n]], Hval


def _step_plan(t: float, dt_max: float):
    if dt_max <= 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max!r}")
    steps = max(1, math.ceil(abs(t) / dt_max))
    dt = t / steps
    if abs(dt) < DT_MIN:
        raise FlowStepError(f"step size underflow: |dt| = {abs(dt):.3e} < {DT_MIN}")
    return steps, dt


def integrate_flow(z0, th: TruncatedHamiltonian, t: float, dt_max: float = 1e-3) -> np.ndarray:
    """Integrate zdot = J grad(H*chi) from z0 over time t with fixed-step RK4.

    The last row of ``flow_trajectory``: starting points outside the support
    are returned bitwise unchanged, and starting points in the enclosed region
    follow the exact linear flow up to the integrator error.
    """
    return flow_trajectory(z0, th, t, dt_max)[1][-1]


def flow_trajectory(z0, th: TruncatedHamiltonian, t: float, dt_max: float = 1e-3):
    """Full RK4 trajectory: arrays (times, points, truncated H values).

    Rows are recorded at every step including the initial time.  The field
    evaluation at a recorded point gives both its H value and the first
    stage of the next step.  Once the field vanishes the point is a fixed
    point of the truncated flow (the field is identically zero outside the
    support): the remaining rows repeat it bitwise instead of accumulating
    arithmetic.
    """
    z = _floats(z0, th.ell.dim)
    steps, dt = _step_plan(t, dt_max) if t != 0.0 else (0, 0.0)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    k1, hval = hamiltonian_field(z, th)
    pts, hvals = [z], [hval]
    for _ in range(steps):
        if not any(k1):
            break
        k2, _ = hamiltonian_field([a + half_dt * b for a, b in zip(z, k1)], th)
        k3, _ = hamiltonian_field([a + half_dt * b for a, b in zip(z, k2)], th)
        k4, _ = hamiltonian_field([a + dt * b for a, b in zip(z, k3)], th)
        z = [a + sixth_dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
        k1, hval = hamiltonian_field(z, th)
        pts.append(z)
        hvals.append(hval)
    frozen = steps + 1 - len(pts)
    times = np.concatenate(([0.0], np.arange(1, steps + 1) * dt))
    pts = np.concatenate((pts, np.broadcast_to(z, (frozen, len(z)))))
    return times, pts, np.concatenate((hvals, np.full(frozen, hval)))


@dataclass(frozen=True, eq=False)
class FlowCheckReport:
    """Measured deviation of the integrated truncated flow from its predicted
    piecewise form: exact linear flow on the enclosed set, identity outside."""

    t: float
    eps: float
    moved_count: int
    fixed_count: int
    max_dev_moved: float
    max_dev_fixed: float
    deviations: np.ndarray


def verify_truncated_flow(
    P: PointSet, th: TruncatedHamiltonian, t: float, dt_max: float = 1e-3
) -> FlowCheckReport:
    """Check every lattice point against the predicted truncated flow.

    Precondition: eps <= max_safe_epsilon(P, ellipsoid), so no lattice point
    sits inside the ambiguous transition shell.  Violations raise a ValueError
    naming the offending points.  Enclosed points are integrated and compared
    with the exact linear flow; points outside the support must come back
    bitwise identical.
    """
    ell = th.ell
    eps = th.eps
    idx, dists = off_surface_distances(P, ell)
    offenders = idx[dists < eps]
    if offenders.size:
        raise ValueError(
            f"eps={eps:g} exceeds the safe thickening radius: points inside "
            f"the shell: {P.points[offenders].tolist()}"
        )
    enclosed = np.zeros(len(P), dtype=bool)
    enclosed[enclosed_indices(P, ell)] = True
    S = flow_matrix(ell.H, t).S
    devs = np.zeros(len(P))
    moved = fixed = 0
    max_moved = max_fixed = 0.0
    for i, row in enumerate(P.points):
        out = integrate_flow(row, th, t, dt_max)
        if enclosed[i]:
            ref = S @ row
            devs[i] = float(np.max(np.abs(out - ref)))
            max_moved = max(max_moved, devs[i])
            moved += 1
        else:
            devs[i] = float(np.max(np.abs(out - row)))
            max_fixed = max(max_fixed, devs[i])
            fixed += 1
    return FlowCheckReport(
        t=t,
        eps=eps,
        moved_count=moved,
        fixed_count=fixed,
        max_dev_moved=max_moved,
        max_dev_fixed=max_fixed,
        deviations=devs,
    )
