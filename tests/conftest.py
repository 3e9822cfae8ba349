import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from radialma import KahlerModel


@pytest.fixture(scope="session")
def model_n1():
    return KahlerModel(1, 2.0)


@pytest.fixture(scope="session")
def model_n2():
    return KahlerModel(2, 3.0)


def gaussian_bump(grid, amplitude=0.3, center=0.0, width=3.0):
    """Volume-localised perturbation for fixed-point starts.

    Supported where the reference volume lives; a perturbation with mass in
    the far tails is invisible to the equations at double precision.
    """
    s = grid.nodes
    return amplitude * np.exp(-((s - center) ** 2) / (2.0 * width**2))

