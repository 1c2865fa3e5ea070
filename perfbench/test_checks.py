"""Each output check of the benchmark passes on real output and fails on a
slightly perturbed copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Runs one op of every workload in-process (about 20 s on one core).
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DEFORM_COLUMNS, WORKLOADS, _energy  # noqa: E402

COL = {c: i for i, c in enumerate(DEFORM_COLUMNS)}


def _run_one_op(name, tmp_path_factory):
    from gaborflow import cli

    workload = WORKLOADS[name](7, tmp_path_factory.mktemp(name))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in workload.op_argvs(0)]
    assert codes == [0] * len(codes)
    refs = workload.references()
    out = workload.read(0)
    assert workload.verify(0, out, refs) == []
    return workload, refs, out


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def real(request, tmp_path_factory):
    return request.param, _run_one_op(request.param, tmp_path_factory)


def _deform(workload, out, refs):
    B = refs["dense"]["B"]

    def scale(name, r, c, factor):
        def f(o):
            o[name][r, COL[c]] *= factor
        return f

    def bump_eps(o):
        o["dense"][:, COL["eps"]] += 1e-9

    def bump_moved(o):
        o["wide"][10, COL["moved"]] += 1

    def bump_t(o):
        o["wide"][4, COL["t"]] = np.nextafter(o["wide"][4, COL["t"]], 1.0)

    def t0_ulp(o):
        o["dense"][9, COL["B_prime"]] = np.nextafter(o["dense"][9, COL["B_prime"]], 10.0)

    def mirror(o):
        o["dense"][3, COL["A_prime"]] += 1e-8 * B

    def all_enclosed(o):
        o["wide"][-2, COL["rel_dB"]] = 6e-3

    return [
        (scale("dense", 5, "A", 1 + 1e-8), "undeformed A differs"),
        (scale("wide", 5, "B", 1 + 1e-8), "undeformed B differs"),
        (bump_moved, "moved"),
        (bump_eps, "eps"),
        (bump_t, "t or E column"),
        (t0_ulp, "t = 0 row is not exact"),
        (scale("wide", 17, "B_prime", 1 + 1e-8), "B' at t = pi/2"),
        (mirror, "between t and pi/2 - t"),
        (all_enclosed, "rel_dB above"),
    ]


def _lift(workload, out, refs):
    def defect(o):
        o["rows"][1, 4] = 2e-9

    def case(o):
        o["rows"][2, 1] += 1e-12

    def lifted(o):
        o["lifted"][0] = o["lifted"][0] * (1 + 3e-5)

    return [(defect, "covariance defect"), (case, "cases differ"), (lifted, "Moebius image")]


def _flow(workload, out, refs):
    def first_row(o):
        o[0][0, 1] = np.nextafter(o[0][0, 1], 10.0)

    def drift(o):
        o[1][1500, 3] += 2e-7

    def shell_range(o):
        # what a start certified as plateau would give: H_eps = H(z0) throughout
        o[0][:, 3] = _energy(workload.starts[0])

    def plateau(o):
        o[2][-1, 1] += 2e-6

    def outside(o):
        o[3][-1, 2] = np.nextafter(o[3][-1, 2], 10.0)

    return [(first_row, "first row"), (drift, "drifts"), (shell_range, "leaves (0, H(z0))"),
            (plateau, "ends"), (outside, "moved or has nonzero H_eps")]


PERTURB = {"deform_sweep": _deform, "lift_cold": _lift, "truncated_flow": _flow}


def test_each_check_catches_a_small_perturbation(real):
    name, (workload, refs, out) = real
    for perturb, expect in PERTURB[name](workload, out, refs):
        bad = copy.deepcopy(out)
        perturb(bad)
        problems = workload.verify(0, bad, refs)
        assert any(expect in p for p in problems), (name, expect, problems)
