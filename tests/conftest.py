import warnings

import numpy as np
import pytest

from micromacro import BranchEnsemble


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Report a failed hypothesis test as a failure: hypothesis formats the
    failing example with libcst, whose import raises a DeprecationWarning
    (mypy_extensions.TypedDict) that the error filter would turn into a
    pytest internal error.  Imported here first, outside that filter."""
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
    yield


@pytest.fixture
def bell_branch():
    """Beam-splitter input state as a single branch: u=|0>/sqrt2, v=|1>/sqrt2."""
    amps = np.zeros((2, 6, 1))
    amps[1, 0] = 2.0**-0.5
    amps[0, 1] = 2.0**-0.5
    return BranchEnsemble(amps)


def random_branches(rng, count=3, dim=8, weights=None):
    """Random sub-normalized complex branch ensemble for algebra checks: each
    column scaled by the square root of its mixture weight, drawn uniform in
    [0.1, 0.4] unless ``weights`` is given."""
    u = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    v = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    scale = np.sqrt((np.abs(u) ** 2 + np.abs(v) ** 2).sum(axis=0)) * 1.3
    drawn = rng.uniform(0.1, 0.4, size=count)
    weights = drawn if weights is None else np.asarray(weights)
    return BranchEnsemble(np.stack([v, u]) / scale * np.sqrt(weights))
