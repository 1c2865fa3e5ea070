#!/usr/bin/env python3
"""Mixed-region deformation experiment.

Sweeps the deformation time and the ellipsoid energy on the twice-oversampled
Gaussian scenario, moving only the enclosed lattice points while the window is
transported by the metaplectic lift, and reports how far the frame bounds
drift.  This is the empirical probe of the bound-preservation claim: drifts
are reported, not asserted.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from gaborflow.frame import REPORT_COLUMNS, GaborSystem, compare_reports, ellipsoid_sweep
from gaborflow.lattice import Box, Ellipsoid, separable_lattice
from gaborflow.quantum import GridSpec, gaussian_window
from gaborflow.symplectic import QuadraticHamiltonian


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=512)
    ap.add_argument("--L", type=float, default=30.0)
    ap.add_argument("--box", type=float, default=6.0, help="lattice box half-width")
    ap.add_argument("--energies", type=float, nargs="+", default=[1.3, 4.3, 40.0])
    ap.add_argument("--steps", type=int, default=9, help="time steps on [0, pi/2]")
    ap.add_argument("--out", type=Path, default=Path("deform_sweep.csv"))
    args = ap.parse_args()

    g = GridSpec.centered(N=args.N, L=args.L)
    phi = gaussian_window(1j, g)
    alpha = 2.0 ** -0.5
    box = Box.from_pairs([[-args.box, args.box]] * 2)
    sys0 = GaborSystem(phi, separable_lattice(alpha, alpha, box, 1), g)
    H = QuadraticHamiltonian(np.eye(2))

    ells = [Ellipsoid(H, E) for E in args.energies]
    ts = [float(t) for t in np.linspace(0.0, math.pi / 2.0, args.steps)]
    reports = []
    for _, rep in ellipsoid_sweep(sys0, ells, ts):
        reports.append(rep)
        print(
            f"E={rep.E:8.3f} t={rep.t:6.4f} moved={rep.moved_count:4d} "
            f"rel_dA={rep.rel_dA:.3e} rel_dB={rep.rel_dB:.3e}"
        )

    summary = compare_reports(reports)
    lines = [",".join(REPORT_COLUMNS)]
    for row in summary.rows:
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row))
    args.out.write_text("\n".join(lines) + "\n")
    print(f"\nmax rel_dA={summary.max_rel_dA:.3e} max rel_dB={summary.max_rel_dB:.3e}")
    print(f"wrote {len(summary.rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
