import tracemalloc
import warnings

import numpy as np
import pytest

from micromacro import BranchEnsemble, ProjectedDensityMatrix


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


def branches_to_projected(ens: BranchEnsemble) -> ProjectedDensityMatrix:
    """The unnormalized 4x4 block of the branch ensemble: rows 0 and 1 of
    both arm-A halves, ``amps[:, :2]`` flattened, are the block coefficients
    in basis order (|00>, |01>, |10>, |11>) = 2 i_A + j_B, and the block is
    the sum of their outer products, so d = sum_k amps[1, 0, k] amps[0, 1, k]^*
    lands at position [2, 1] (the oracle of ``project_through_loss``)."""
    c = ens.amps[:, :2].reshape(4, len(ens))
    return ProjectedDensityMatrix(c @ c.conj().T)


def spectator_split(ens: BranchEnsemble, eta: float) -> BranchEnsemble:
    """Loss on the two-level arm A as a branch expansion (the oracle of
    ``project_through_loss``'s ``eta_a``): |1>_A decays to |0>_A with weight
    1-eta, and branch b becomes the pair (kept, decayed), columns 2b and 2b+1."""
    if eta == 1.0:
        return ens
    out = np.zeros(ens.amps.shape + (2,), np.result_type(ens.amps, float))
    out[0, :, :, 0] = ens.amps[0]
    out[1, :, :, 0] = np.sqrt(eta) * ens.amps[1]
    out[0, :, :, 1] = np.sqrt(1.0 - eta) * ens.amps[1]
    return BranchEnsemble(out.reshape(2, ens.n_max + 1, -1))


def traced_peak(fn, *args, **kwargs) -> float:
    """Peak traced Python-heap memory (MiB) of one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def xstate(p00, p01, p10, p11, d=0.0, d_prime=0.0) -> ProjectedDensityMatrix:
    """X-state block: populations p_ij, the |10><01| coherence d and the
    |00><11| coherence d_prime, in basis order (|00>, |01>, |10>, |11>)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = p00, p01, p10, p11
    m[2, 1], m[1, 2] = d, np.conj(d)
    m[0, 3], m[3, 0] = d_prime, np.conj(d_prime)
    return ProjectedDensityMatrix(m)


def check_physical(rho: ProjectedDensityMatrix, eps: float = 1e-10) -> None:
    """Raise ValueError unless the block has trace in [0, 1], is Hermitian and
    positive, and keeps both 2x2 coherence bounds (each to ``eps``)."""
    t = rho.trace
    if not (-eps <= t <= 1.0 + eps):
        raise ValueError(f"trace {t} outside [0, 1]")
    herm = np.abs(rho.matrix - rho.matrix.conj().T).max()
    if herm > eps:
        raise ValueError(f"matrix not Hermitian, residual {herm:.3e}")
    if t > eps:
        evals = np.linalg.eigvalsh(rho.matrix / t)
        if evals.min() < -eps:
            raise ValueError(f"negative eigenvalue {evals.min():.3e}")
    if abs(rho.d) ** 2 > rho.p01 * rho.p10 + eps:
        raise ValueError("|d|^2 exceeds p01*p10 block bound")
    if abs(rho.d_prime) ** 2 > rho.p00 * rho.p11 + eps:
        raise ValueError("|d'|^2 exceeds p00*p11 block bound")
