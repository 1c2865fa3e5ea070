"""One workload in one fresh process; started by run.py, not by hand.

The process prints ``ready`` once gaborflow's modules are imported and the
inputs are built, which ends the set-up that run.py times.  With
``--setup-only`` it stops there.  Otherwise it runs the ops, checks each
op's output outside the timing, and prints one JSON line with the counts and
metrics.  run.py sets one BLAS thread in the environment before this process
starts, since OpenBLAS reads it only when numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# the timed part runs at least this many ops after the first, and peak RSS is
# read when they are done, so that it does not grow with the run's length
MIN_TIMED_OPS = 2
# a traced run traces the first op and this many later ones, each paired with
# an untraced op for the overhead; fixed, so that call counts repeat exactly
TRACED_LATER_OPS = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _blas_threads():
    """Threads of numpy's OpenBLAS, or None where it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so*"):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                return int(fn())
    return None


class Runner:
    def __init__(self, workload, cli, refs):
        self.workload = workload
        self.cli = cli
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.times = []

    def op(self, k: int, tracer=None) -> float:
        """Run op k, check its output, return its wall time in seconds."""
        argvs = self.workload.op_argvs(k)
        sink = io.StringIO()
        if tracer is not None:
            tracer.install(k)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    codes = [self.cli.main(argv) for argv in argvs]
                else:
                    codes = [tracer.call("cli", self.cli.main, argv) for argv in argvs]
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        self.times.append(elapsed)
        problems = [f"exit code {c}" for c in codes if c != 0]
        if not problems:
            try:
                problems = self.workload.verify(k, self.workload.read(k), self.refs)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"op {k} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # cli imports the numerical modules lazily; set-up imports them all, so
    # that the first op pays for no import
    from gaborflow import cli, config, flow, frame, lattice, metaplectic, quantum  # noqa: F401
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        threads = _blas_threads()
        if threads not in (None, 1):
            print(f"OpenBLAS runs {threads} threads, not 1", file=sys.stderr)
            return 1
        runner = Runner(workload, cli, workload.references())
        if args.trace:
            spans = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
            metrics = _traced(runner, spans)
        else:
            metrics = _timed(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("op seconds: " + " ".join(f"{t:.3f}" for t in runner.times))
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def _timed(runner: Runner, seconds: float) -> dict:
    first = runner.op(0)
    durations = []
    while len(durations) < MIN_TIMED_OPS or sum(durations) < seconds:
        durations.append(runner.op(len(durations) + 1))
        if len(durations) == MIN_TIMED_OPS:
            rss = _peak_rss_mb()
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_s.p50": statistics.median(durations),
        "first_op_s": first,
        "peak_rss_mb": rss,
    }


def _traced(runner: Runner, spans: Path) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    runner.op(0, tracer)
    plain, traced = [], []
    for i in range(TRACED_LATER_OPS):
        plain.append(runner.op(2 * i + 1))
        traced.append(runner.op(2 * i + 2, tracer))
    metrics = tracer.per_layer(1 + TRACED_LATER_OPS)
    base = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - base
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / base
    tracer.dump(spans)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
