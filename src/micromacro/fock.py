"""Truncated Fock-space engine for the amplified/attenuated mode.

One dynamical bosonic mode (arm B) is tracked on photon numbers 0..n_max,
entangled with a two-level spectator (arm A).  The mixed two-mode state is
one ``BranchEnsemble``: rho = sum_k |b_k><b_k| with |b_k> = sum_i |i>_A (x)
amps[i, :, k], held as one amplitude array of shape (2, n_max+1, K) indexed
by arm A's photon number, arm B's and the branch.  Arm B enters the squeezer
in |0> or |1> only, so the squeezed input is written from the closed-form
squeezed vacuum and squeezed single photon (plain real amplitude arrays).
Every later stage acts on the whole array at once: the binomial photon-loss
Kraus channel (one pass over the Kraus order, each order vectorized over the
branches still live), the spectator loss on arm A (a kept and a decayed
branch each), pruning (a mask), the inverse squeeze unitary
exp(-r (a^2 - a+^2)/2) and the projection onto the {0,1}x{0,1} block (one
contraction).  After a trailing loss the block reads only the leading photon
numbers (``projection_rows``), and a few leading rows of the inverse squeeze
cost as many propagated unit columns.

The squeeze generator is real antisymmetric and couples only n <-> n+-2, so
the even and odd photon sectors decouple into tridiagonal chains, and within
a chain it links the sites n = p (mod 4) only to the sites n = p+2 (mod 4).
Its exponential is therefore real orthogonal and is applied in real
arithmetic from a half-size eigenbasis (see SqueezePropagator), built once
per (r, n_max) and reused across all branch columns of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .entanglement import ProjectedDensityMatrix
from .errors import TruncationError

DEFAULT_TAIL_TOL = 1e-10
N_MAX_CAP = 8192
PRUNE_THRESHOLD = 1e-14


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real**2 + a.imag**2 if np.iscomplexobj(a) else a * a


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


# ---------------------------------------------------------------------------
# the branch ensemble
# ---------------------------------------------------------------------------


@dataclass
class BranchEnsemble:
    """The Fock state as one amplitude array ``amps`` of shape (2, n_max+1, K).

    Axis 0 is the photon number of arm A and axis 1 that of arm B, so column
    k is the pure branch |b_k> = |1>_A (x) amps[1, :, k] + |0>_A (x)
    amps[0, :, k] and the ensemble is rho = sum_k |b_k><b_k|.  Kraus factors
    sit in the (sub-normalized) columns.  The pipeline keeps ``amps`` real;
    complex arrays are accepted everywhere.  ``kraus_orders`` records, per
    input branch, the highest Kraus order of the loss expansion that produced
    the ensemble (empty otherwise).
    """

    amps: np.ndarray
    kraus_orders: tuple[int, ...] = ()

    def __post_init__(self):
        self.amps = np.asarray(self.amps)
        if self.amps.ndim != 3 or self.amps.shape[0] != 2:
            raise ValueError("amps must be a (2, n_max+1, K) array")

    def __len__(self) -> int:
        return self.amps.shape[2]

    @property
    def n_max(self) -> int:
        return self.amps.shape[1] - 1

    @cached_property
    def traces(self) -> np.ndarray:
        """Trace contribution |b_k|^2 of every branch."""
        return np.einsum("ank,ank->ak", self.amps.conj(), self.amps).real.sum(axis=0)

    def truncated(self, n_max: int) -> "BranchEnsemble":
        """The same branches on photon numbers 0..n_max (a view, no copy)."""
        return BranchEnsemble(self.amps[:, : n_max + 1])

    def support(self, mass_tol: float) -> int:
        """Largest photon number from which the ensemble still carries more
        than ``mass_tol`` weight (1 when nothing does)."""
        mass = np.einsum("ank,ank->n", self.amps.conj(), self.amps)
        suffix = np.cumsum(mass.real[::-1])[::-1]
        idx = np.flatnonzero(suffix > mass_tol)
        return int(idx[-1]) if len(idx) else 1

    def unsqueezed(self, prop: "SqueezePropagator", rows: int) -> "BranchEnsemble":
        """Photon numbers 0..rows-1 of the image under the inverse squeeze of
        ``prop``.  The squeeze S is real orthogonal, so those rows of
        S^-1 = S^T are the forward images of the first ``rows`` unit columns:
        one propagator call on ``rows`` columns and one product.  Asked for
        every row, it propagates the columns of each arm-A half."""
        if rows > self.n_max:
            halves = [prop.apply_columns(a, -1) for a in self.amps]
            return BranchEnsemble(np.stack(halves))
        head = prop.apply_columns(np.eye(self.n_max + 1, rows), +1).T
        return BranchEnsemble(head @ self.amps)


# ---------------------------------------------------------------------------
# squeezed states in closed form
# ---------------------------------------------------------------------------


def _log_probs_squeezed(r: float, k: np.ndarray, parity: int) -> np.ndarray:
    # p_{2k+parity} = (2k+parity)! / (4^k (k!)^2) * tanh^{2k} r / cosh^{1+2 parity} r
    lt = math.log(math.tanh(r))
    return (
        -(1 + 2 * parity) * math.log(math.cosh(r))
        + gammaln(2 * k + 1 + parity)
        - 2 * k * math.log(2.0)
        - 2 * gammaln(k + 1)
        + 2 * k * lt
    )


def _log_suffix_tails(logp: np.ndarray, log_ratio_bound: float) -> np.ndarray:
    """log of sum_{j>k} p_j for each k, including a geometric remainder bound
    for the terms beyond the computed range (ratio bounded by exp(log_ratio_bound))."""
    if log_ratio_bound < 0.0:
        rest = logp[-1] + log_ratio_bound - math.log1p(-math.exp(log_ratio_bound))
    else:
        rest = math.inf  # cannot certify the remainder
    padded = np.concatenate([logp[1:], [rest]])
    return np.logaddexp.accumulate(padded[::-1])[::-1]


@lru_cache(maxsize=16)
def _log_tails(r: float, parity: int, top: int) -> np.ndarray:
    """log of sum_{j>k} p_{2j+parity} for k = 0..top (read-only, cached for
    the closed forms that follow choose_n_max).  The terms past ``top`` are
    bounded by a geometric series: the term ratio is q (2k+1)/(2k+2) < q for
    the vacuum family and q (2k+3)/(2k+2), falling with k, for the one
    family (q = tanh^2 r)."""
    log_ratio = 2.0 * math.log(math.tanh(r)) + math.log1p(parity / (2.0 * top + 2.0))
    logp = _log_probs_squeezed(r, np.arange(top + 1), parity)
    tails = _log_suffix_tails(logp, log_ratio)
    tails.flags.writeable = False
    return tails


def choose_n_max(r: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest even truncation whose analytic tail mass is below ``tail_tol``.

    The bound covers both the squeezed vacuum and the squeezed single photon
    (the latter has the heavier tail); suffix sums run in log space so very
    small tolerances remain certifiable.  Raises TruncationError beyond the
    hard cap of 8192 photons.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if tail_tol <= 0:
        raise ValueError("tail_tol must be positive")
    if r == 0.0:
        return 2
    log_tol = math.log(tail_tol)
    top = N_MAX_CAP // 2
    fits = (_log_tails(r, 0, top) < log_tol) & (_log_tails(r, 1, top) < log_tol)
    ok = np.nonzero(fits)[0]
    if len(ok) == 0:
        raise TruncationError(
            f"r={r}: tail below {tail_tol:.1e} needs more than {N_MAX_CAP} photons"
        )
    # index k keeps terms up to photon number 2k+1; round up to even
    return int(2 * ok[0] + 2)


def _squeezed_family(r, n_max, tail_tol, parity) -> np.ndarray:
    name = ("squeezed vacuum", "squeezed one")[parity]
    if r < 0:
        raise ValueError("r must be >= 0")
    if n_max is None:
        n_max = choose_n_max(r, tail_tol)
    if n_max < parity:
        raise TruncationError(f"n_max must be >= {parity} for the {name}")
    amps = np.zeros(n_max + 1)
    if r == 0.0:
        amps[parity] = 1.0
        return amps
    k = np.arange(0, (n_max - parity) // 2 + 1)
    logp = _log_probs_squeezed(r, k, parity)
    # the tail in log space, as in choose_n_max: 1 - sum(p) cannot resolve
    # tolerances below its own rounding (~1e-16)
    tail = math.exp(_log_tails(r, parity, max(k[-1], N_MAX_CAP // 2))[k[-1]])
    if tail > tail_tol:
        raise TruncationError(
            f"{name} at r={r}: tail {tail:.3e} above n_max={n_max} "
            f"exceeds {tail_tol:.1e}"
        )
    amps[2 * k + parity] = np.exp(0.5 * logp) * (-1.0) ** k
    return amps


def squeezed_vacuum(
    r: float, n_max: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """Squeezed vacuum S(r)|0> as real amplitudes, even photon numbers only.

    amps[2k] = cosh(r)^(-1/2) * sqrt((2k)!)/(2^k k!) * (-tanh r)^k, computed
    in log space with sign tracking.  An explicit ``n_max`` that cannot hold
    the tail below ``tail_tol`` raises TruncationError.
    """
    return _squeezed_family(r, n_max, tail_tol, 0)


def squeezed_one(
    r: float, n_max: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """Squeezed single photon S(r)|1>, odd photon numbers only.

    amps[2k+1] = cosh(r)^(-3/2) * sqrt((2k+1)!)/(2^k k!) * (-tanh r)^k.
    """
    return _squeezed_family(r, n_max, tail_tol, 1)


def mean_photon(amps: np.ndarray) -> float:
    """<n> = sum_n n |amps[n]|^2."""
    return float(np.arange(len(amps)) @ _abs2(np.asarray(amps)))


# ---------------------------------------------------------------------------
# squeeze unitary on the truncated space
# ---------------------------------------------------------------------------


def _chain_halves(parity: int, n_max: int):
    """(X, Y, sigma, z) of one parity chain: K = X diag(sigma) Y^T, z spans
    the null space of K^T (None on an even-length chain)."""
    n = np.arange(parity, n_max + 1, 2).astype(float)
    m = len(n)
    half = m // 2
    if m < 2:
        return np.zeros((m, 0)), np.zeros((0, 0)), np.zeros(0), np.ones(m) if m else None
    b = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)) / 2.0
    b[1::2] *= -1.0  # the signs of K's subdiagonal
    evals, evecs = eigh_tridiagonal(np.zeros(m), b)
    top = evecs[:, m - half :]  # the sigma > 0 half, ascending
    X = math.sqrt(2.0) * top[0::2]
    Y = math.sqrt(2.0) * top[1::2]
    z = evecs[0::2, half].copy() if m % 2 else None
    return X, Y, evals[m - half :], z


class SqueezePropagator:
    """Applies exp(sign * r * (a^2 - a+^2)/2) to stacks of Fock columns.

    On a parity chain n = p, p+2, ... the generator is a real antisymmetric
    tridiagonal T with T[j, j+1] = b_j = sqrt((n_j+1)(n_j+2))/2.  It links
    the even chain sites (n = p mod 4) only to the odd ones (n = p+2 mod 4),
    so in that split T = [[0, K], [-K^T, 0]] with K real bidiagonal
    (K[a, a] = b_2a, K[a, a-1] = -b_(2a-1)).  With the SVD
    K = X diag(sigma) Y^T, C = cos(r sigma) and S = sin(r sigma),

        exp(rT) = [[X C X^T + z z^T,  X S Y^T],
                   [   -Y S X^T,      Y C Y^T]],

    where z spans the null space of K^T on an odd-length chain.  The SVD is
    read off one eigh_tridiagonal call on the symmetric [[0, K], [K^T, 0]],
    whose eigenpairs come as +-sigma: the sigma > 0 half, sqrt(2) times its
    even and odd eigenvector rows, gives X and Y, and the zero mode of an
    odd chain gives z.  A step is four real (m/2, m/2) @ (m/2, cols)
    products per parity, and the cache holds half of a dense (m, m) matrix
    per parity.  Complex columns propagate as their real and imaginary
    parts.  The map is orthogonal on the truncated space, hence exactly
    norm-preserving; truncation shows up only as reflection near n_max.
    """

    def __init__(self, r: float, n_max: int):
        if r < 0:
            raise ValueError("r must be >= 0")
        if n_max > N_MAX_CAP:
            raise TruncationError(f"n_max={n_max} exceeds the cap {N_MAX_CAP}")
        self.r = float(r)
        self.n_max = int(n_max)
        self._sectors = []
        for parity in (0, 1):
            X, Y, sigma, z = _chain_halves(parity, self.n_max)
            self._sectors.append(
                (X, Y, np.cos(self.r * sigma)[:, None], np.sin(self.r * sigma)[:, None], z)
            )

    def apply_columns(self, cols: np.ndarray, sign: int = +1) -> np.ndarray:
        """Propagate an (n_max+1,) vector or (n_max+1, m) stack of columns."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        cols = np.asarray(cols)
        if cols.shape[0] != self.n_max + 1:
            raise ValueError("column length does not match the truncation")
        x = cols.reshape(self.n_max + 1, -1)
        if np.iscomplexobj(x):
            width = x.shape[1]
            out = self._apply_real(np.concatenate([x.real, x.imag], axis=1), sign)
            return (out[:, :width] + 1j * out[:, width:]).reshape(cols.shape)
        return self._apply_real(x.astype(float, copy=False), sign).reshape(cols.shape)

    def _apply_real(self, x: np.ndarray, sign: int) -> np.ndarray:
        out = np.empty_like(x)
        for p, (X, Y, c, s, z) in enumerate(self._sectors):
            xe, xo = x[p::4], x[p + 2 :: 4]
            ae, ao = X.T @ xe, Y.T @ xo
            out[p::4] = X @ (c * ae + sign * s * ao)
            out[p + 2 :: 4] = Y @ (c * ao - sign * s * ae)
            if z is not None:
                out[p::4] += np.outer(z, z @ xe)
        return out


@lru_cache(maxsize=8)
def get_propagator(r: float, n_max: int) -> SqueezePropagator:
    """Cached propagator; reused across branches and runs with equal (r, n_max)."""
    return SqueezePropagator(r, n_max)


# ---------------------------------------------------------------------------
# photon loss channel
# ---------------------------------------------------------------------------


def loss_on_branch(
    ens: BranchEnsemble, eta: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> BranchEnsemble:
    """Expand every branch through the binomial loss channel on mode B.

    Branch b becomes branches k = 0..k_b, in branch-major order, with both
    arm-A halves mapped by (E_k psi)[m] = sqrt(C(m+k, k) eta^m (1-eta)^k)
    psi[m+k] (at eta = 0, E_k = |0><k|: the image is row k alone).  One pass
    over k keeps the order-k images of the branches still live and subtracts
    their traces; a branch retires at the first order whose neglected trace
    falls below its share of ``tail_tol`` (its trace over the ensemble's), or
    at its top occupied photon number, where the channel is captured exactly.
    """
    _check_eta(eta)
    if eta == 1.0:
        return ens
    n_max = ens.n_max
    mass = _abs2(ens.amps).sum(axis=0)  # (N, K)
    traces = mass.sum(axis=0)
    total = traces.sum()
    tol = np.maximum(tail_tol * (traces / total if total > 0 else 1.0), 1e-300)
    occupied = mass > 0
    top = np.where(occupied.any(axis=0), n_max - np.argmax(occupied[::-1], axis=0), 0)

    log_fact = gammaln(np.arange(n_max + 1, dtype=float) + 1.0)
    m = np.arange(n_max + 1)
    left = traces.copy()
    orders = np.zeros(len(ens), dtype=int)
    live = np.arange(len(ens))
    images = []
    for k in range(int(top.max()) + 1):
        if eta == 0.0:
            img = ens.amps[:, k : k + 1, live]
        else:
            width = n_max + 1 - k
            log_c = log_fact[k:] - log_fact[k] - log_fact[:width]
            log_c = log_c + m[:width] * math.log(eta) + k * math.log1p(-eta)
            img = np.exp(0.5 * log_c)[:, None] * ens.amps[:, k:, live]
        images.append((live, img))
        left[live] -= _abs2(img).sum(axis=1).sum(axis=0)
        done = (left[live] < tol[live]) | (top[live] == k)
        orders[live[done]] = k
        live = live[~done]
        if not len(live):
            break

    # order k of branch b is column start[b] + k of the branch-major buffer
    start = np.cumsum(orders + 1) - (orders + 1)
    n_out = start[-1] + orders[-1] + 1
    out = np.zeros((2, n_out, n_max + 1), np.result_type(ens.amps, float))
    for k, (cols, img) in enumerate(images):
        out[:, start[cols] + k, : img.shape[1]] = img.transpose(0, 2, 1)
    return BranchEnsemble(out.transpose(0, 2, 1), tuple(int(o) for o in orders))


def loss_on_spectator(ens: BranchEnsemble, eta: float) -> BranchEnsemble:
    """Loss on the two-level arm A: |1>_A decays to |0>_A with weight 1-eta.

    Each branch becomes the pair (kept, decayed), in branch order.
    """
    _check_eta(eta)
    if eta == 1.0:
        return ens
    out = np.zeros(ens.amps.shape + (2,), np.result_type(ens.amps, float))
    out[0, :, :, 0] = ens.amps[0]
    out[1, :, :, 0] = math.sqrt(eta) * ens.amps[1]
    out[0, :, :, 1] = math.sqrt(1.0 - eta) * ens.amps[1]
    return BranchEnsemble(out.reshape(2, ens.n_max + 1, -1))


def prune_branches(
    ens: BranchEnsemble, threshold: float = PRUNE_THRESHOLD
) -> tuple[BranchEnsemble, float]:
    """Drop branches below ``threshold`` trace contribution; report the mass."""
    traces = ens.traces
    keep = traces >= threshold
    dropped = float(traces[~keep].sum())
    if not keep.all():
        ens = BranchEnsemble(ens.amps[:, :, keep])
    return ens, dropped


# ---------------------------------------------------------------------------
# projection onto the {0,1} x {0,1} block
# ---------------------------------------------------------------------------


def branches_to_projected(ens: BranchEnsemble) -> ProjectedDensityMatrix:
    """Accumulate the unnormalized 4x4 block from the branch ensemble.

    Rows 0 and 1 of both arm-A halves, ``amps[:, :2]`` flattened, are the
    block coefficients in basis order (|00>, |01>, |10>, |11>) = 2 i_A + j_B;
    the matrix is the sum of their outer products, so d = sum_k
    amps[1, 0, k] amps[0, 1, k]^* lands at position [2, 1].
    """
    c = ens.amps[:, :2].reshape(4, len(ens))
    return ProjectedDensityMatrix(c @ c.conj().T)


def projection_rows(eta: float, n_max: int, mass_tol: float) -> int:
    """How many leading photon-number rows ``project_through_loss`` needs.

    Kraus order k of the eta loss reads rows k and k+1 into the block, with
    weight at most max(1, eta (k+1)) (1-eta)^k per unit of trace.  The rows
    0..k* - 1 returned hold every order before the first one at which the
    tail of those weights drops below ``mass_tol``: 2 at eta = 1, and all
    n_max + 1 at eta = 0.
    """
    _check_eta(eta)
    k = np.arange(n_max + 1, dtype=float)
    weight = np.maximum(1.0, eta * (k + 1.0)) * np.power(1.0 - eta, k)
    below = np.flatnonzero(np.cumsum(weight[::-1])[::-1] < mass_tol)
    return int(below[0]) + 1 if len(below) else n_max + 1


def project_through_loss(ens: BranchEnsemble, eta: float) -> ProjectedDensityMatrix:
    """Projected block after a trailing loss channel, without branch expansion.

    Only photon numbers 0 and 1 of each Kraus image survive the projection,
    so the k-sum collapses to closed form:
    (E_k w)[0] = (1-eta)^(k/2) w[k] and
    (E_k w)[1] = sqrt(eta (k+1)) (1-eta)^(k/2) w[k+1].
    Algebraically identical to loss_on_branch followed by
    branches_to_projected, summed over all Kraus orders.
    """
    _check_eta(eta)
    n = np.arange(ens.n_max + 1, dtype=float)
    half = np.power(1.0 - eta, n / 2.0)[:, None]
    t1 = np.sqrt(eta * (n[:-1] + 1.0))[:, None] * half[:-1]
    # rows in basis order 2 i_A + j_B, so the block is one Gram contraction
    rows = np.zeros((2, 2) + ens.amps.shape[1:], dtype=ens.amps.dtype)
    rows[:, 0] = half * ens.amps
    rows[:, 1, :-1] = t1 * ens.amps[:, 1:]
    block = np.tensordot(rows, rows.conj(), axes=([2, 3], [2, 3]))
    return ProjectedDensityMatrix(block.reshape(4, 4))
