"""Command-line front end: configure scenarios, run experiments, emit CSV.

Subcommands: bounds, deform, flow, epsilon, count, covariance.  Outputs are
deterministic: identical configs produce byte-identical files once the
timestamp header is suppressed with --no-timestamp.  Exit codes: 0 success,
2 configuration error, 3 numerical or IO failure; any other exception is a
bug and propagates with its traceback.

BLAS reads its thread count from its own environment variables
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``) when numpy loads; set them
when launching the process.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from pathlib import Path

from numpy.linalg import LinAlgError

from .config import ConfigError, ScenarioConfig
from .flow import FlowStepError, flow_trajectory
from .frame import REPORT_COLUMNS, GaborSystem, ellipsoid_sweep, frame_bounds
from .lattice import ProjectionError, enclosed_indices, max_safe_epsilon
from .metaplectic import covariance_defect, metaplectic_lift

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows, timestamp: bool) -> None:
    lines = []
    if timestamp:
        lines.append(f"# generated {datetime.datetime.now().isoformat()}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _load_config(args):
    cfg = ScenarioConfig.from_json_file(args.config) if args.config else ScenarioConfig()
    cfg.apply_overrides(args.override or [])
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out) if args.out else Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    g = cfg.build_grid()
    sys_ = GaborSystem(cfg.build_window(g), cfg.build_lattice(), g)
    fb = frame_bounds(sys_)
    rows = [(fb.A, fb.B, fb.is_frame, len(sys_.points), g.N)]
    _write_csv(_outdir(args) / "bounds.csv", ("A", "B", "is_frame", "num_points", "N"),
               rows, not args.no_timestamp)
    print(f"A={_fmt(fb.A)} B={_fmt(fb.B)} is_frame={_fmt(fb.is_frame)}")
    return EXIT_OK


def cmd_deform(args) -> int:
    cfg = _load_config(args)
    g = cfg.build_grid()
    sys_ = GaborSystem(cfg.build_window(g), cfg.build_lattice(), g)
    ells = [cfg.build_ellipsoid(E) for E in cfg.ellipsoid.E]
    sweep = ellipsoid_sweep(sys_, ells, cfg.deformation.t_values)
    rows = [report.csv_row() for _, report in sweep]
    _write_csv(_outdir(args) / "deform.csv", REPORT_COLUMNS, rows, not args.no_timestamp)
    print(f"wrote {len(rows)} deformation rows")
    return EXIT_OK


def cmd_flow(args) -> int:
    cfg = _load_config(args)
    times, pts, hvals = flow_trajectory(cfg.flow.z0, cfg.build_flow(), cfg.flow.t,
                                        cfg.flow.dt_max)
    n = pts.shape[1] // 2
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
              + ["H_eps"])
    # Python floats format faster than numpy scalars, to the same text
    rows = [(t, *z, h) for t, z, h in zip(times.tolist(), pts.tolist(), hvals.tolist())]
    out = _outdir(args) / "flow.csv"
    _write_csv(out, header, rows, not args.no_timestamp)
    print(f"wrote {times.size} trajectory rows to {out}")
    return EXIT_OK


def cmd_epsilon(args) -> int:
    cfg = _load_config(args)
    ells = [cfg.build_ellipsoid(E) for E in cfg.ellipsoid.E]
    P = cfg.build_lattice()
    rows = [(ell.E, max_safe_epsilon(P, ell)) for ell in ells]
    for _, eps in rows:
        print(_fmt(eps))
    if args.out:
        _write_csv(_outdir(args) / "epsilon.csv", ("E", "eps_star"), rows, not args.no_timestamp)
    return EXIT_OK


def cmd_count(args) -> int:
    cfg = _load_config(args)
    P = cfg.build_lattice()
    rows = []
    for E in cfg.ellipsoid.E:
        # the enclosed set, surface included: the points that deform moves
        enclosed = enclosed_indices(P, cfg.build_ellipsoid(E))
        rows.append((E, len(enclosed)))
    _write_csv(_outdir(args) / "count.csv", ("E", "count"), rows, not args.no_timestamp)
    for E, c in rows:
        print(f"E={_fmt(E)} count={c}")
    return EXIT_OK


def cmd_covariance(args) -> int:
    cfg = _load_config(args)
    M = cfg.build_ellipsoid().H.M
    # the scenario grid when no grids are set
    grids = [cfg.build_grid(n) for n in cfg.covariance.grids or [cfg.grid.N]]
    header = ["t", "q", "p"] + [f"defect_N{g.N}" for g in grids]
    if len(grids) == 2:
        header.append("ratio")
    lifts = [metaplectic_lift(M, 0.0, g) for g in grids]
    rows = []
    for t, q, p in cfg.covariance.cases:
        defects = [covariance_defect(U.at(t), [q, p]) for U in lifts]
        row = [t, q, p] + defects
        if len(grids) == 2:
            row.append(defects[1] / max(defects[0], 1e-300))
        rows.append(tuple(row))
    _write_csv(_outdir(args) / "covariance.csv", header, rows, not args.no_timestamp)
    print(f"wrote {len(rows)} covariance rows")
    return EXIT_OK


_COMMANDS = {
    "bounds": cmd_bounds,
    "deform": cmd_deform,
    "flow": cmd_flow,
    "epsilon": cmd_epsilon,
    "count": cmd_count,
    "covariance": cmd_covariance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborflow",
        description="Phase-space deformation experiments for Gabor frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="JSON scenario config (defaults built in)")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="suppress the timestamp header line (reproducible output)")
        p.add_argument("--override", action="append", metavar="SECTION.KEY=JSON",
                       help="override a config value, e.g. grid.N=512")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LinAlgError, ProjectionError, FlowStepError, ValueError, OSError) as exc:
        # numerical and IO failures; anything else is a bug and keeps its traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
