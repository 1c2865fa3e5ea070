"""Frozen types that hold arrays compare and hash by identity; the small value
types keep value equality (``config`` compares a window file's ``GridSpec``
with the scenario's by value)."""

import numpy as np
import pytest

from gaborflow.flow import FlowCheckReport, TruncatedHamiltonian
from gaborflow.frame import DeformationReport, FrameBounds, GaborSystem
from gaborflow.lattice import Box, Ellipsoid, PointSet
from gaborflow.quantum import GridSpec, State, gaussian_window
from gaborflow.symplectic import QuadraticHamiltonian, SymplecticMatrix

GRID = GridSpec.centered(N=16, L=8.0)


def _ellipsoid():
    return Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5)


def _points():
    return PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)


ARRAY_HOLDERS = {
    "QuadraticHamiltonian": lambda: QuadraticHamiltonian(np.eye(2)),
    "Ellipsoid": _ellipsoid,
    "SymplecticMatrix": lambda: SymplecticMatrix(np.eye(2)),
    "State": lambda: State(np.ones(4)),
    "PointSet": _points,
    "Box": lambda: Box.from_pairs([[-1.0, 1.0], [-1.0, 1.0]]),
    "GaborSystem": lambda: GaborSystem(gaussian_window(1j, GRID), _points(), GRID),
    "TruncatedHamiltonian": lambda: TruncatedHamiltonian(_ellipsoid(), 0.3),
    "FlowCheckReport": lambda: FlowCheckReport(0.0, 0.3, 1, 1, 0.0, 0.0, np.zeros(2)),
}

_BOUNDS = FrameBounds(A=0.5, B=1.0, is_frame=True)
VALUES = {
    "GridSpec": lambda: GridSpec.centered(N=16, L=8.0),
    "FrameBounds": lambda: FrameBounds(A=0.5, B=1.0, is_frame=True),
    "DeformationReport": lambda: DeformationReport(_BOUNDS, _BOUNDS, 0.0, 0.0, 1, 0.3, 0.0, 0.5),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False
    assert hash(a) == hash(a)
    hash(b)


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_value_types_keep_value_equality(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
