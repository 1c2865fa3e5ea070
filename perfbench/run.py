"""Benchmark of gaborflow: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload deform_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gaborflow is imported from ``src``.
Workloads: deform_sweep, lift_cold, truncated_flow (see README.md).  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer ones.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

The workload runs in a fresh process with one BLAS thread.  Set-up time is
the median over 1 + SETUP_PROBES fresh processes, the workload's own and
SETUP_PROBES that stop after set-up, of the time from starting the process
until it has imported gaborflow's modules and built its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("deform_sweep", "lift_cold", "truncated_flow")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170.0
SETUP_TIMEOUT_S = 30.0
UNITS = {"ops_per_s": "1/s", "op_s.p50": "s", "first_op_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    # OpenBLAS reads these once, when numpy loads; gaborflow's --threads is
    # too late in a process that has already imported numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("GABOR_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _start(args, extra, timeout):
    """Start a worker; return (process, seconds until it printed ``ready``)."""
    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc, timeout)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup


def _stop(proc, timeout) -> str:
    """Wait for the worker and return its output; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gaborflow" / "cli.py").is_file():
        print(f"no gaborflow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    def probe():
        proc, setup = _start(args, ["--setup-only"], SETUP_TIMEOUT_S)
        _stop(proc, SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with code {proc.returncode}")
        return setup

    # half the set-up samples before the workload and half after, so that
    # their median spans the run rather than one moment of it
    probes = 0 if args.trace else SETUP_PROBES
    setups = [probe() for _ in range(probes // 2)]
    proc, setup = _start(args, [], WORKER_TIMEOUT_S)
    setups.append(setup)
    out = _stop(proc, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    setups += [probe() for _ in range(probes - probes // 2)]
    *info, last = out.strip().splitlines()
    print("\n".join(f"{args.workload} {line}" for line in info))
    res = json.loads(last)

    metrics = res["metrics"]
    if args.trace:
        from tracer import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = UNITS
    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(f"{args.workload} ops attempted {res['attempted']}, failed {res['failed']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
