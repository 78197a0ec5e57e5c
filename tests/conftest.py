import numpy as np
import pytest

from micromacro import BranchEnsemble


@pytest.fixture
def bell_branch():
    """Beam-splitter input state as a single branch: u=|0>/sqrt2, v=|1>/sqrt2."""
    u = np.zeros((6, 1))
    v = np.zeros((6, 1))
    u[0] = 2.0**-0.5
    v[1] = 2.0**-0.5
    return BranchEnsemble([1.0], u, v)


def random_branches(rng, count=3, dim=8):
    """Random sub-normalized complex branch ensemble for algebra checks."""
    u = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    v = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    scale = np.sqrt((np.abs(u) ** 2 + np.abs(v) ** 2).sum(axis=0)) * 1.3
    weights = rng.uniform(0.1, 0.4, size=count)
    return BranchEnsemble(weights, u / scale, v / scale)
