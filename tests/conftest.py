import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "numeric", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("numeric")


@pytest.fixture
def unit_circle():
    from gaborflow.lattice import Ellipsoid
    from gaborflow.symplectic import QuadraticHamiltonian

    return Ellipsoid(QuadraticHamiltonian(np.eye(2)), 0.5)


@pytest.fixture
def z2_lattice():
    """Integer lattice on [-3, 3]^2: the 49-point workhorse."""
    from gaborflow.lattice import Box, separable_lattice

    return separable_lattice(1.0, 1.0, Box.from_pairs([[-3, 3], [-3, 3]]))
