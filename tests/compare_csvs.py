"""Compare the CLI's CSV output of this checkout with that of another revision.

    python tests/compare_csvs.py PARENT_REV

Runs the six subcommands with ``--no-timestamp`` on these configs: the
built-in default, the tests' ``SMALL_CONFIG`` (read from
``tests/test_config_cli.py``) and every ``scenarios/*.json``.  Those flows
start on the plateau, so ``flow`` also runs from two starts in the cutoff's
transition shell, where every RK4 stage projects onto the ellipsoid: one on
a coupled 2 x 2 M and one on a 4 x 4 M (n = 2).  Every config above that
lifts a window or runs ``covariance`` has m12 = 0, so ``covariance`` and
``deform`` also run on a coupled M, whose lift goes through the shear's
chirp.  It runs
them once on this checkout's ``src``, uncommitted edits included, and once
on PARENT_REV's, unpacked with ``git archive`` into a temporary directory.
For each CSV it prints "byte-identical" or, per column, the largest
absolute and relative deviation; a differing exit code or a missing file is
printed too.  It exits 1 when a CSV differs, a CSV is written on one side
only or an exit code differs, and 0 otherwise.

The bytes depend on the BLAS build, so this is a tool for comparing two
revisions on one machine, not a test; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("bounds", "deform", "flow", "epsilon", "count", "covariance")
# configs beyond the default and the scenarios: name -> (config, commands)
EXTRA_CONFIGS = {
    # flow starts at distance 0.27 from the surface, inside the transition
    # shell (eps/2, eps) = (0.15, 0.3)
    "shell_flow": ({
        "ellipsoid": {"M": [[2.0, 0.3], [0.3, 0.7]], "E": 0.5},
        "flow": {"z0": [0.2, 1.4], "eps": 0.3},
    }, ("flow",)),
    "shell_flow_n2": ({
        "ellipsoid": {
            "M": [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0],
                  [0.0, 0.2, 1.5, 0.4], [0.1, 0.0, 0.4, 0.8]],
            "E": 0.9,
        },
        "flow": {"z0": [1.1, 0.2, -0.4, 0.5], "t": 1.0, "eps": 0.3},
    }, ("flow",)),
    # a coupled lift, with cases inside N = 512's reliable box |q| <= 4, |p| <= 8
    "coupled_lift": ({
        "grid": {"N": 512, "L": 16.0},
        "ellipsoid": {"M": [[1.0, 0.3], [0.3, 2.0]]},
        "covariance": {"grids": [512, 1024],
                       "cases": [[0.3, 0.5, -0.4], [0.8, -1.0, 0.7], [1.4, 1.2, 1.1]]},
    }, ("covariance", "deform")),
}


def _small_config() -> dict:
    tree = ast.parse((ROOT / "tests" / "test_config_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SMALL_CONFIG" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_config_cli.py defines no SMALL_CONFIG")


def _configs(workdir: Path) -> dict:
    """Config name -> (path of its JSON file, or None for the built-in
    default; the commands to run on it)."""
    small = workdir / "small_config.json"
    small.write_text(json.dumps(_small_config()))
    configs = {"default": (None, COMMANDS), "small_config": (small, COMMANDS)}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        configs[path.stem] = (path, COMMANDS)
    for name, (cfg, commands) in EXTRA_CONFIGS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        configs[name] = (path, commands)
    return configs


def _unpack(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def _run_all(src: Path, configs: dict, out: Path) -> dict:
    """Run every command on every config; (config, command) -> exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out.mkdir()
    codes = {}
    for name, (path, commands) in configs.items():
        for cmd in commands:
            argv = [sys.executable, "-m", "gaborflow.cli", cmd, "--out",
                    str(out / name / cmd), "--no-timestamp"]
            if path is not None:
                argv += ["--config", str(path)]
            proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, text=True)
            codes[name, cmd] = proc.returncode
    return codes


def _rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _deviation(a: str, b: str):
    """(absolute, relative) deviation of two numeric cells, None if either
    is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    dev = abs(x - y)
    return dev, dev / max(abs(x), abs(y))


def _compare(new: Path, old: Path) -> list[str]:
    if new.read_bytes() == old.read_bytes():
        return ["byte-identical"]
    (head_new, rows_new), (head_old, rows_old) = _rows(new), _rows(old)
    if head_new != head_old or len(rows_new) != len(rows_old):
        return [f"shape differs: {head_new} x {len(rows_new)} rows vs "
                f"{head_old} x {len(rows_old)} rows"]
    lines = []
    for j, col in enumerate(head_new):
        devs = [_deviation(rn[j], ro[j]) for rn, ro in zip(rows_new, rows_old)]
        if any(d is None for d in devs):
            same = all(rn[j] == ro[j] for rn, ro in zip(rows_new, rows_old))
            lines.append(f"{col}: {'identical' if same else 'text differs'}")
        elif all(d == (0.0, 0.0) for d in devs):
            lines.append(f"{col}: identical")
        else:
            lines.append(f"{col}: max abs {max(d[0] for d in devs):.3e}, "
                         f"max rel {max(d[1] for d in devs):.3e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_csvs-") as tmp:
        tmp = Path(tmp)
        configs = _configs(tmp)
        old_src = _unpack(args.parent_rev, tmp / "parent")
        sides = {"new": ROOT / "src", "old": old_src}
        codes = {side: _run_all(src, configs, tmp / side) for side, src in sides.items()}
        identical = total = codes_differ = 0
        for name, (_, commands) in configs.items():
            for cmd in commands:
                key = (name, cmd)
                if codes["new"][key] != codes["old"][key]:
                    codes_differ += 1
                    print(f"{name} {cmd}: exit {codes['new'][key]} here, "
                          f"{codes['old'][key]} at {args.parent_rev}")
                new_dir, old_dir = tmp / "new" / name / cmd, tmp / "old" / name / cmd
                files = sorted({p.name for d in (new_dir, old_dir) if d.exists()
                                for p in d.glob("*.csv")})
                for fname in files:
                    total += 1
                    if not (new_dir / fname).exists() or not (old_dir / fname).exists():
                        print(f"{name} {cmd} {fname}: written on one side only")
                        continue
                    lines = _compare(new_dir / fname, old_dir / fname)
                    if lines == ["byte-identical"]:
                        identical += 1
                        print(f"{name} {cmd} {fname}: byte-identical")
                        continue
                    print(f"{name} {cmd} {fname}: differs")
                    for line in lines:
                        print(f"    {line}")
        print(f"{identical} of {total} CSVs byte-identical to {args.parent_rev}")
    return int(codes_differ > 0 or identical < total)


if __name__ == "__main__":
    raise SystemExit(main())
