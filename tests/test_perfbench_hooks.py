"""The benchmark's tracer (perfbench/tracer.py) wraps gaborflow functions that
it names in ``TARGETS``: each name must resolve, the span of
``quantize_quadratic`` reads the grid from its second positional argument,
and the truncated flow's work, a sweep's lifts and moves and a deformed
system's solve and analysis run through the traced public names.  The
benchmark's own output checks (perfbench/test_checks.py) run here too, in a
subprocess with one BLAS thread, as the benchmark runs them."""

import importlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return _tracer_module().TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        if "." in attr:
            # "Class.method" is patched on the class itself
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), (module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module, attr)


def test_quantize_quadratic_takes_M_then_g():
    from gaborflow.metaplectic import quantize_quadratic

    assert list(inspect.signature(quantize_quadratic).parameters)[:2] == ["M", "g"]


def test_flow_work_runs_through_the_traced_names():
    # install needs every traced module loaded
    for module in {m for m, _, _ in _targets()}:
        importlib.import_module(module)
    from gaborflow import flow
    from gaborflow.lattice import Ellipsoid
    from gaborflow.symplectic import QuadraticHamiltonian

    th = flow.TruncatedHamiltonian(Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5), 0.3)
    # 0.2 from the unit circle, inside the transition shell (0.15, 0.3)
    z0 = [1.2 * math.cos(0.4), 1.2 * math.sin(0.4)]
    tracer = _tracer_module().Tracer()
    tracer.install(0)
    try:
        flow.flow_trajectory(z0, th, 0.02, 1e-3)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    # 20 steps: four field evaluations per step plus the first row's
    assert names.count("flow.hamiltonian_field") == 81

    def under_trajectory(i):
        while i >= 0:
            if names[i] == "flow.flow_trajectory":
                return True
            i = tracer.spans[i][1]
        return False

    projections = [i for i, name in enumerate(names) if name == "lattice.distance_to_ellipsoid"]
    assert any(under_trajectory(i) for i in projections)


def test_every_deformed_solve_runs_through_the_traced_names():
    for module in {m for m, _, _ in _targets()}:
        importlib.import_module(module)
    from gaborflow import frame
    from gaborflow.lattice import Box, Ellipsoid, separable_lattice
    from gaborflow.quantum import GridSpec, gaussian_window
    from gaborflow.symplectic import QuadraticHamiltonian

    g = GridSpec.centered(N=64, L=8.0)
    P = separable_lattice(1.0, 1.0, Box.from_pairs([[-2, 2], [-2, 2]]))
    sys_ = frame.GaborSystem(gaussian_window(1j, g), P, g)
    H = QuadraticHamiltonian(np.diag([1.0, 2.0]))
    ells = [Ellipsoid(H, 0.01), Ellipsoid(H, 1.5)]
    ts = [0.0, 0.3, 0.0, 0.9]
    tracer = _tracer_module().Tracer()
    tracer.install(0)
    try:
        swept = list(frame.ellipsoid_sweep(sys_, ells, ts))
        # the sweep solves the matrices it gathers without frame_bounds
        # (tests/test_frame.py counts those solves); a deformed system's own
        # solve runs through the public names
        for out, _ in swept:
            frame.frame_bounds(out)
    finally:
        tracer.uninstall()
    rows = [rep for _, rep in swept]
    names = [span[0] for span in tracer.spans]
    solves = [i for i, name in enumerate(names) if name == "frame.frame_bounds"]
    assert len(solves) == len(rows)
    for i in solves:
        beneath = [j for j, span in enumerate(tracer.spans) if span[1] == i]
        assert [names[j] for j in beneath] == ["frame.analysis_matrix"]
    # the enclosed points move through the traced name once per row
    assert names.count("lattice.deform_point_set") == len(rows) == 8
    # one lift per sweep, both ellipsoids sharing M, and one apply per distinct t
    assert names.count("metaplectic.metaplectic_lift") == 1
    assert names.count("metaplectic.Propagator.apply") == 3


def test_the_benchmark_output_checks_pass():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/test_checks.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
