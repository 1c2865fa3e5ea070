"""The benchmark's three workloads: inputs, operations and output checks.

Every operation is one or more in-process calls of ``gaborflow.cli.main``,
the users' path minus interpreter start-up.  Each workload builds its inputs
from the seed, gives the argument lists of operation ``k``, reads back the
files an operation wrote and checks them against references computed here,
apart from the program: closed forms, an independent construction of the
Gabor system and the symmetries the method must have.  A check never
compares with a stored copy of earlier output.

``read`` and ``verify`` are separate so that a test can feed ``verify`` a
perturbed copy of real output.  ``verify`` returns a list of failure
messages, empty when the output passes.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

HBAR = 1.0 / (2.0 * math.pi)
ALPHA = 2.0 ** -0.5

# t on [0, pi/2], symmetric about pi/4: row k mirrors row 8 - k
T_VALUES = [float(t) for t in np.linspace(0.0, math.pi / 2.0, 9)]


def flow_map(M, t: float) -> np.ndarray:
    """exp(t J M) for a 2x2 positive definite M, in closed form.

    J M has trace 0 and determinant det M, so (J M)^2 = -det(M) I and the
    exponential is cos(w t) I + sin(w t)/w J M with w = sqrt(det M).
    """
    M = np.asarray(M, dtype=float)
    w = math.sqrt(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    JM = np.array([[M[1, 0], M[1, 1]], [-M[0, 0], -M[0, 1]]])
    return math.cos(w * t) * np.eye(2) + (math.sin(w * t) / w) * JM


def _read_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


# ---------------------------------------------------------------- deform_sweep

class Scenario:
    """A deformation scenario: M = I, alpha = beta = 2^-1/2, nine times t."""

    def __init__(self, name, N, L, half_box, energies):
        self.name = name
        self.N = N
        self.L = L
        self.half_box = half_box
        self.energies = energies

    def config(self) -> dict:
        b = self.half_box
        return {
            "grid": {"N": self.N, "L": self.L},
            "lattice": {"alpha": ALPHA, "beta": ALPHA, "box": [[-b, b], [-b, b]]},
            "ellipsoid": {"M": [[1.0, 0.0], [0.0, 1.0]], "E": self.energies},
            "deformation": {"t_values": T_VALUES},
        }

    def lattice_indices(self) -> np.ndarray:
        """Integer pairs (a, b) with (a alpha, b alpha) in the box."""
        kmax = math.floor(self.half_box / ALPHA + 1e-9)
        ks = np.arange(-kmax, kmax + 1)
        A, B = np.meshgrid(ks, ks, indexing="ij")
        return np.stack([A.ravel(), B.ravel()], axis=-1)

    def undeformed_bounds(self) -> tuple[float, float]:
        """Frame bounds from the Gram matrix of closed-form Gabor vectors.

        Row z = (q, p) samples exp{(i/hbar)(p x - p q / 2)} times the Gaussian
        exp(-x^2 / (2 hbar)) periodized with period L and centred at q, scaled
        by the discrete norm of the unshifted samples.  The nonzero spectrum
        of the N x N frame operator is that of the m x m Gram matrix, so
        B = its largest eigenvalue and A = its N-th largest when m >= N, and
        A = 0 by counting when m < N.
        """
        dx = self.L / self.N
        x = -self.L / 2.0 + dx * np.arange(self.N)
        c = 1.0 / math.sqrt(float(np.sum(np.exp(-(x**2) / HBAR))) * dx)
        pts = self.lattice_indices() * ALPHA
        q = pts[:, :1]
        p = pts[:, 1:]
        bump = sum(np.exp(-((x - q - j * self.L) ** 2) / (2.0 * HBAR)) for j in (-1, 0, 1))
        V = c * np.exp(1j * (p * x - 0.5 * p * q) / HBAR) * bump
        G = dx * (V.conj() @ V.T)
        evals = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
        m = len(pts)
        A = float(evals[m - self.N]) if m >= self.N else 0.0
        return A, float(evals[-1])

    def enclosed(self, E: float) -> tuple[int, float]:
        """Moved count and eps* for M = I in exact lattice arithmetic.

        With z = alpha (a, b) and alpha^2 = 1/2, x^2 + p^2 <= 2E reads
        a^2 + b^2 <= 4E; the points with equality lie on the surface.
        """
        ab = self.lattice_indices()
        r2 = ab[:, 0] ** 2 + ab[:, 1] ** 2
        four_e = 4 * Fraction(repr(E))
        moved = sum(1 for v in r2 if v <= four_e)
        off = np.array([float(v) for v in r2 if v != four_e])
        eps = float(np.min(np.abs(np.sqrt(off / 2.0) - math.sqrt(2.0 * E))))
        return moved, eps


# criterion-8 scenario: m = 289 < N, so A = 0 by counting
WIDE = Scenario("wide", 512, 30.0, 6.0, [1.3, 4.3, 40.0])
# the box covers the grid's torus [-L/2, L/2) x [-N/(2L), N/(2L)): m = 529 > N, A live
DENSE = Scenario("dense", 256, 16.0, 8.0, [1.3, 4.3, 20.0])

DEFORM_COLUMNS = ("t", "E", "eps", "moved", "A", "B", "A_prime", "B_prime", "rel_dA", "rel_dB")
SYM_TOL = 1e-10        # symmetry and Gram checks, relative to B
EPS_TOL = 1e-13        # eps* against its closed form, relative to 1 + sqrt(2E)
ALL_ENCLOSED_DB = 5e-3  # rel_dB bound when every point of `wide` moves


class DeformSweep:
    """``gaborflow deform`` on the `wide` and `dense` scenarios.

    The paper's experiment has no random input, so the seed does not change
    it.
    """

    scenarios = (WIDE, DENSE)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.argvs = []
        for sc in self.scenarios:
            cfg = _write_json(workdir / f"{sc.name}.json", sc.config())
            out = workdir / sc.name
            self.argvs.append(["deform", "--config", str(cfg), "--out", str(out),
                               "--no-timestamp"])

    def references(self) -> dict:
        refs = {}
        for sc in self.scenarios:
            A, B = sc.undeformed_bounds()
            refs[sc.name] = {"A": A, "B": B,
                             "enclosed": {E: sc.enclosed(E) for E in sc.energies}}
        return refs

    def op_argvs(self, k: int) -> list:
        return self.argvs

    def read(self, k: int) -> dict:
        return {sc.name: _read_csv(self.workdir / sc.name / "deform.csv")
                for sc in self.scenarios}

    def verify(self, k: int, out: dict, refs: dict) -> list:
        col = {c: i for i, c in enumerate(DEFORM_COLUMNS)}
        bad = []
        for sc in self.scenarios:
            rows = out[sc.name]
            ref = refs[sc.name]
            nt = len(T_VALUES)
            if rows.shape != (nt * len(sc.energies), len(DEFORM_COLUMNS)):
                return bad + [f"{sc.name}: deform.csv has shape {rows.shape}"]
            tol = SYM_TOL * ref["B"]
            for i, E in enumerate(sc.energies):
                blk = rows[i * nt:(i + 1) * nt]
                tag = f"{sc.name} E={E}"
                if not (np.array_equal(blk[:, col["t"]], T_VALUES)
                        and np.all(blk[:, col["E"]] == E)):
                    bad.append(f"{tag}: t or E column differs from the input")
                moved, eps = ref["enclosed"][E]
                if np.any(blk[:, col["moved"]] != moved):
                    bad.append(f"{tag}: moved {blk[0, col['moved']]:g}, expected {moved}")
                if np.max(np.abs(blk[:, col["eps"]] - eps)) > EPS_TOL * (1 + math.sqrt(2 * E)):
                    bad.append(f"{tag}: eps {blk[0, col['eps']]!r}, expected {eps!r}")
                for c in ("A", "B"):
                    if np.max(np.abs(blk[:, col[c]] - ref[c])) > tol:
                        bad.append(f"{tag}: undeformed {c} differs from the Gram matrix")
                t0 = blk[0]
                if not (t0[col["A_prime"]] == t0[col["A"]] and t0[col["B_prime"]] == t0[col["B"]]
                        and t0[col["rel_dA"]] == 0.0 and t0[col["rel_dB"]] == 0.0):
                    bad.append(f"{tag}: the t = 0 row is not exact")
                for c in ("A", "B"):
                    moved_c = blk[:, col[c + "_prime"]]
                    if abs(moved_c[-1] - ref[c]) > tol:
                        bad.append(f"{tag}: {c}' at t = pi/2 differs from {c}")
                    if np.max(np.abs(moved_c - moved_c[::-1])) > tol:
                        bad.append(f"{tag}: {c}' differs between t and pi/2 - t")
            if sc is WIDE:
                blk = rows[(len(sc.energies) - 1) * nt:]
                if np.max(blk[:, col["rel_dB"]]) > ALL_ENCLOSED_DB:
                    bad.append(f"wide E={sc.energies[-1]}: rel_dB above {ALL_ENCLOSED_DB}")
        return bad


# ------------------------------------------------------------------ lift_cold

LIFT_L = 16.0
LIFT_GRIDS = [512, 1024]
DEFECT_TOL = 1e-9
GAUSSIAN_TOL = 1e-5


class LiftCold:
    """``gaborflow covariance`` for a fresh anisotropic M on every op.

    Op k draws M = R(theta) diag(mu1, mu2) R(theta)^T with mu1 in
    [0.5, 0.9], mu2 in [1.2, 2.0] and theta in [0, pi), and three cases
    (t, q, p) with t in [0.2, 1.4] and |q|, |p| <= 1.5, from the generator
    seeded with (seed, k).  Every op therefore misses the eigen cache.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "covariance"
        self.config = _write_json(workdir / "lift.json", {
            "grid": {"N": LIFT_GRIDS[0], "L": LIFT_L},
            "covariance": {"grids": LIFT_GRIDS},
        })

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        mu = [rng.uniform(0.5, 0.9), rng.uniform(1.2, 2.0)]
        th = rng.uniform(0.0, math.pi)
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        M = R @ np.diag(mu) @ R.T
        M[1, 0] = M[0, 1]
        cases = [[float(rng.uniform(0.2, 1.4)), float(rng.uniform(-1.5, 1.5)),
                  float(rng.uniform(-1.5, 1.5))] for _ in range(3)]
        return M.tolist(), cases

    def references(self) -> dict:
        return {}

    def op_argvs(self, k: int) -> list:
        M, cases = self.inputs(k)
        return [["covariance", "--config", str(self.config), "--out", str(self.out),
                 "--no-timestamp", "--override", f"ellipsoid.M={json.dumps(M)}",
                 "--override", f"covariance.cases={json.dumps(cases)}"]]

    def read(self, k: int) -> dict:
        """The CSV rows, and the N = 1024 lift of the Gaussian at each case's t.

        The lift is taken after the op, from the program's eigen cache.
        """
        from gaborflow.metaplectic import metaplectic_lift
        from gaborflow.quantum import GridSpec, gaussian_window

        M, cases = self.inputs(k)
        g = GridSpec.centered(N=LIFT_GRIDS[-1], L=LIFT_L)
        w = gaussian_window(1j, g)
        lifted = [metaplectic_lift(M, t, g).apply(w).values for t, _, _ in cases]
        return {"rows": _read_csv(self.out / "covariance.csv"), "lifted": lifted}

    def verify(self, k: int, out: dict, refs: dict) -> list:
        M, cases = self.inputs(k)
        rows = out["rows"]
        bad = []
        if rows.shape != (len(cases), 3 + len(LIFT_GRIDS) + 1):
            return [f"covariance.csv has shape {rows.shape}"]
        if not np.array_equal(rows[:, :3], np.array(cases)):
            bad.append("covariance.csv cases differ from the input")
        defects = rows[:, 3:3 + len(LIFT_GRIDS)]
        if not np.all(defects <= DEFECT_TOL):
            bad.append(f"covariance defect {np.max(defects):.3e} above {DEFECT_TOL}")
        N = LIFT_GRIDS[-1]
        dx = LIFT_L / N
        x = -LIFT_L / 2.0 + dx * np.arange(N)
        for (t, _, _), psi in zip(cases, out["lifted"]):
            (a, b), (c, d) = flow_map(M, t)
            gamma = (c + d * 1j) / (a + b * 1j)
            ref = np.exp(1j * gamma * x**2 / (2.0 * HBAR))
            ref /= math.sqrt(float(np.sum(np.abs(ref) ** 2)) * dx)
            overlap = np.vdot(ref, psi)
            phase = overlap / abs(overlap) if overlap != 0 else 1.0
            dist = math.sqrt(dx) * float(np.linalg.norm(psi - phase * ref))
            if not dist <= GAUSSIAN_TOL:
                bad.append(f"t={t}: lifted Gaussian {dist:.3e} from its Moebius image")
        return bad


# -------------------------------------------------------------- truncated_flow

FLOW_M = [[2.0, 0.3], [0.3, 0.7]]
FLOW_E = 0.5
FLOW_EPS = 0.3
FLOW_T = 3.0
FLOW_DT = 1e-3
# largest semi-axis of {H <= E}: sqrt(2E / smallest eigenvalue of M)
OUTER_RADIUS = math.sqrt(2.0 * FLOW_E / float(np.linalg.eigvalsh(FLOW_M)[0]))
H_DRIFT_TOL = 1e-7
PLATEAU_TOL = 1e-6


def _surface_point(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Point y on {H = E} in direction theta and the outward unit normal there."""
    M = np.array(FLOW_M)
    u = np.array([math.cos(theta), math.sin(theta)])
    y = math.sqrt(2.0 * FLOW_E / float(u @ M @ u)) * u
    n = M @ y
    return y, n / np.linalg.norm(n)


def _energy(z) -> float:
    z = np.asarray(z, dtype=float)
    return 0.5 * float(z @ np.array(FLOW_M) @ z)


class TruncatedFlow:
    """``gaborflow flow`` from four seeded starts.

    A point y + s n on the outward normal of the convex region {H <= E}
    projects onto y, so its distance to the surface is s exactly.  The two
    shell starts take s in [0.19, 0.26], inside the transition shell
    (eps/2, eps) = (0.15, 0.3).  The outside start lies at radius R + s with
    s in [0.45, 1.0], where R is the largest semi-axis, so its distance is
    at least s and the cutoff's cheap distance bounds place it outside on
    every row, whatever the seed.  The plateau start lies inside with
    H(z0)/E in [0.2, 0.8].  Directions are uniform on the circle.
    """

    kinds = ("shell", "shell", "plateau", "outside")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.starts = []
        for kind in self.kinds:
            y, n = _surface_point(rng.uniform(0.0, 2.0 * math.pi))
            if kind == "shell":
                z = y + rng.uniform(0.19, 0.26) * n
            elif kind == "outside":
                z = (OUTER_RADIUS + rng.uniform(0.45, 1.0)) * y / np.linalg.norm(y)
            else:
                z = math.sqrt(rng.uniform(0.2, 0.8)) * y
            self.starts.append([float(v) for v in z])
        cfg = _write_json(workdir / "flow.json", {
            "ellipsoid": {"M": FLOW_M, "E": FLOW_E},
            "flow": {"t": FLOW_T, "dt_max": FLOW_DT, "eps": FLOW_EPS},
        })
        self.argvs = [["flow", "--config", str(cfg), "--out", str(workdir / f"start{i}"),
                       "--no-timestamp", "--override", f"flow.z0={json.dumps(z)}"]
                      for i, z in enumerate(self.starts)]

    def references(self) -> dict:
        S = flow_map(FLOW_M, FLOW_T)
        return {"plateau_end": [S @ np.array(z) for z in self.starts]}

    def op_argvs(self, k: int) -> list:
        return self.argvs

    def read(self, k: int) -> list:
        return [_read_csv(self.workdir / f"start{i}" / "flow.csv")
                for i in range(len(self.starts))]

    def verify(self, k: int, out: list, refs: dict) -> list:
        steps = math.ceil(FLOW_T / FLOW_DT)
        bad = []
        for i, (kind, z0, traj) in enumerate(zip(self.kinds, self.starts, out)):
            tag = f"{kind} start {i}"
            if traj.shape != (steps + 1, 4):
                bad.append(f"{tag}: flow.csv has shape {traj.shape}")
                continue
            z, h = traj[:, 1:3], traj[:, 3]
            if not np.array_equal(z[0], z0):
                bad.append(f"{tag}: first row is not the start")
            drift = float(np.max(np.abs(h - h[0])))
            if not drift <= H_DRIFT_TOL:
                bad.append(f"{tag}: H_eps drifts by {drift:.3e}")
            if kind == "shell" and not np.all((h > 0.0) & (h < _energy(z0))):
                bad.append(f"{tag}: H_eps leaves (0, H(z0))")
            elif kind == "plateau":
                err = float(np.max(np.abs(z[-1] - refs["plateau_end"][i])))
                if not err <= PLATEAU_TOL:
                    bad.append(f"{tag}: ends {err:.3e} from exp(tJM) z0")
            elif kind == "outside" and not (np.all(z == np.array(z0)) and np.all(h == 0.0)):
                bad.append(f"{tag}: moved or has nonzero H_eps")
        return bad


WORKLOADS = {
    "deform_sweep": DeformSweep,
    "lift_cold": LiftCold,
    "truncated_flow": TruncatedFlow,
}
