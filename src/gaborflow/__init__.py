"""Phase-space flows, cutoff Hamiltonians, metaplectic window transport, and
Gabor frame-bound experiments on a periodized 1-D grid.

The command-line front end, ``gaborflow.cli``, is not imported here, so that
``python -m gaborflow.cli`` loads it once.
"""

from . import config, flow, frame, lattice, metaplectic, quantum, symplectic  # noqa: F401

__version__ = "0.1.0"
