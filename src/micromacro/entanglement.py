"""Two-qubit entanglement metrics on the projected {0,1}x{0,1} block.

The projected matrix lives on the basis (|00>, |01>, |10>, |11>) with index
2*i_A + j_B, where i_A is the photon number in the spectator arm A and j_B
the photon number in arm B.  For the states produced by the amplify/
de-amplify pipeline the matrix is X-structured: populations on the diagonal,
one coherence pair d = <10|rho|01>, and one pair d' = <00|rho|11>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAnXStateError

# Matrix positions allowed to be nonzero for an X-structured state: the
# diagonal and the anti-diagonal.
_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

#: off-X residual above which a block is not treated as an X state
XSTATE_RESIDUAL_TOL = 1e-8
#: negative eigenvalues down to -POSITIVITY_TOL count as roundoff and are clamped
POSITIVITY_TOL = 1e-10

_SIGMA_YY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class ProjectedDensityMatrix:
    """Unnormalized density matrix on the two-qubit photon-number block.

    ``matrix`` holds all sixteen positions so that the off-X residual can be
    audited; the named accessors read the X-structure fields.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"projected matrix must be 4x4, got {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def p00(self) -> float:
        return self.matrix[0, 0].real

    @property
    def p01(self) -> float:
        return self.matrix[1, 1].real

    @property
    def p10(self) -> float:
        return self.matrix[2, 2].real

    @property
    def p11(self) -> float:
        return self.matrix[3, 3].real

    @property
    def d(self) -> complex:
        """Coherence between |1>_A|0>_B and |0>_A|1>_B."""
        return complex(self.matrix[2, 1])

    @property
    def d_prime(self) -> complex:
        """Coherence between |0>_A|0>_B and |1>_A|1>_B."""
        return complex(self.matrix[0, 3])

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def off_x_max(self) -> float:
        """Largest magnitude outside the X positions (zero-structure audit)."""
        return float(np.abs(self.matrix[~_X_MASK]).max())


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value with the attaining branch."""

    value: float
    branch: str  # "d", "d_prime", "zero", or "general"


def xstate_formula(p00, p01, p10, p11, d, d_prime):
    """Raw X-state concurrence arithmetic on the entries as given.

    Returns ``(value, branch)`` with
    value = max{0, 2(|d| - sqrt(p00 p11)), 2(|d'| - sqrt(p01 p10))}.
    No normalization and no positivity check is applied.
    """
    arg_d = 2.0 * (abs(d) - np.sqrt(max(p00, 0.0) * max(p11, 0.0)))
    arg_dp = 2.0 * (abs(d_prime) - np.sqrt(max(p01, 0.0) * max(p10, 0.0)))
    value = max(0.0, arg_d, arg_dp)
    if value == 0.0:
        branch = "zero"
    elif arg_d >= arg_dp:
        branch = "d"
    else:
        branch = "d_prime"
    return value, branch


def concurrence_xstate(rho: ProjectedDensityMatrix) -> ConcurrenceResult:
    """X-state concurrence via the closed-form expression.

    The input must be X-structured (off-X residual below
    ``XSTATE_RESIDUAL_TOL``).  Entries are divided by the trace first, the
    convention used for all pipeline outputs; ``xstate_formula`` gives the
    arithmetic on unnormalized entries.
    """
    off = rho.off_x_max()
    if off >= XSTATE_RESIDUAL_TOL:
        raise NotAnXStateError(
            f"off-X residual {off:.3e} exceeds tolerance {XSTATE_RESIDUAL_TOL:.1e}"
        )
    t = rho.trace
    if t <= 0.0:
        raise ValueError("zero-trace matrix has no normalized concurrence")
    value, branch = xstate_formula(
        rho.p00 / t, rho.p01 / t, rho.p10 / t, rho.p11 / t, rho.d / t, rho.d_prime / t
    )
    return ConcurrenceResult(value=value, branch=branch)


def spin_flip_concurrence(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wootters construction on 4x4 matrices (..., 4, 4), without checks.

    Each matrix m is replaced by its Hermitian part divided by its trace, h.
    Returns h, the raw eigenvalues mu of h (sy (x) sy) h^* (sy (x) sy), and the
    concurrence max(0, lambda_0 - lambda_1 - lambda_2 - lambda_3) with
    lambda_i = sqrt(max(Re mu_i, 0)) decreasing, all over the leading axes;
    the concurrence is 0 where the trace is <= 0.
    """
    h = 0.5 * (m + np.swapaxes(m.conj(), -1, -2))
    t = np.trace(h, axis1=-2, axis2=-1).real
    positive = t > 0
    h = h / np.where(positive, t, 1.0)[..., None, None]
    mu = np.linalg.eigvals(h @ (_SIGMA_YY @ h.conj() @ _SIGMA_YY))
    lam = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)), axis=-1)[..., ::-1]
    value = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return h, mu, np.where(positive, value, 0.0)


def concurrence_general(rho: ProjectedDensityMatrix) -> ConcurrenceResult:
    """Concurrence of the trace-normalized block from the spin-flip
    eigenvalue construction (``spin_flip_concurrence``).

    lambda_i are the decreasing square roots of the eigenvalues of
    rho * (sy (x) sy) rho^* (sy (x) sy); this equals the eigenvalues of
    sqrt(sqrt(rho) rho~ sqrt(rho)) but avoids matrix square roots.  Tiny
    negative eigenvalues (within ``POSITIVITY_TOL``) are clamped to zero;
    larger violations raise.
    """
    if rho.trace <= 0.0:
        raise ValueError("zero-trace matrix has no concurrence")
    h, mu, value = spin_flip_concurrence(rho.matrix)
    evals = np.linalg.eigvalsh(h)
    if evals.min() < -POSITIVITY_TOL:
        raise ValueError(
            f"input not positive semidefinite: eigenvalue {evals.min():.3e}"
        )
    if np.abs(mu.imag).max() > 1e-8:
        raise ValueError("spin-flip product has non-real eigenvalues")
    if mu.real.min() < -POSITIVITY_TOL:
        raise ValueError(
            f"spin-flip product eigenvalue {mu.real.min():.3e} below tolerance"
        )
    if rho.off_x_max() < XSTATE_RESIDUAL_TOL:
        _, branch = xstate_formula(
            h[0, 0].real, h[1, 1].real, h[2, 2].real, h[3, 3].real, h[2, 1], h[0, 3]
        )
        if value == 0.0:
            branch = "zero"
    else:
        branch = "general"
    return ConcurrenceResult(value=float(value), branch=branch)


def success_probability(rho: ProjectedDensityMatrix) -> float:
    """Trace of the unnormalized projected matrix."""
    return rho.trace
