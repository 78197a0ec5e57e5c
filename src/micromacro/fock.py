"""Truncated Fock-space engine for the amplified/attenuated mode.

One dynamical bosonic mode (arm B) is tracked on photon numbers 0..n_max,
entangled with a two-level spectator (arm A).  The mixed two-mode state is
one ``BranchEnsemble``: rho = sum_k w_k |b_k><b_k| with
|b_k> = |1>_A (x) U[:, k] + |0>_A (x) V[:, k], held as weights (K,) and
amplitude stacks U, V of shape (n_max+1, K).  Arm B enters the squeezer in
|0> or |1> only, so the squeezed input is written from the closed-form
squeezed vacuum and squeezed single photon (plain real amplitude arrays).
Every later stage acts on the whole stack at once: binomial photon-loss
Kraus channels (vectorized over the Kraus order), pruning (a mask), the
inverse squeeze unitary exp(-r (a^2 - a+^2)/2) and the projection onto the
{0,1}x{0,1} block (one contraction).  After a trailing loss the block reads
only the leading photon numbers (``projection_rows``), and a few leading
rows of the inverse squeeze cost as many propagated unit columns.

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
    """Weights (K,) and amplitude stacks U, V of shape (n_max+1, K).

    Column k is the pure branch |1>_A (x) U[:, k] + |0>_A (x) V[:, k]; the
    ensemble is rho = sum_k weights[k] |b_k><b_k|.  Kraus factors are folded
    into the (sub-normalized) columns rather than the weights.  The pipeline
    keeps U and V real; complex stacks are accepted everywhere.
    ``kraus_orders`` records, per input branch, the highest Kraus order of
    the loss expansion that produced the ensemble (empty otherwise).
    """

    weights: np.ndarray
    U: np.ndarray
    V: np.ndarray
    kraus_orders: tuple[int, ...] = ()

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.U = np.asarray(self.U)
        self.V = np.asarray(self.V)
        if self.U.ndim != 2 or self.U.shape != self.V.shape:
            raise ValueError("U and V must be equal-shape (n_max+1, K) stacks")
        if self.weights.shape != (self.U.shape[1],):
            raise ValueError("one weight per branch column is required")
        if np.any(self.weights < 0):
            raise ValueError("branch weights must be nonnegative")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def n_max(self) -> int:
        return self.U.shape[0] - 1

    @cached_property
    def traces(self) -> np.ndarray:
        """Trace contribution w_k (|u_k|^2 + |v_k|^2) of every branch."""
        norms = np.einsum("nk,nk->k", self.U.conj(), self.U)
        norms += np.einsum("nk,nk->k", self.V.conj(), self.V)
        return self.weights * norms.real

    def truncated(self, n_max: int) -> "BranchEnsemble":
        """The same branches on photon numbers 0..n_max (views, no copy)."""
        return BranchEnsemble(self.weights, self.U[: n_max + 1], self.V[: n_max + 1])

    def support(self, mass_tol: float) -> int:
        """Largest photon number from which the ensemble still carries more
        than ``mass_tol`` weight (1 when nothing does)."""
        mass = np.einsum("nk,nk,k->n", self.U.conj(), self.U, self.weights)
        mass += np.einsum("nk,nk,k->n", self.V.conj(), self.V, self.weights)
        suffix = np.cumsum(mass.real[::-1])[::-1]
        idx = np.flatnonzero(suffix > mass_tol)
        return int(idx[-1]) if len(idx) else 1

    def unsqueezed(self, prop: "SqueezePropagator", rows: int) -> "BranchEnsemble":
        """Photon numbers 0..rows-1 of the image under the inverse squeeze of
        ``prop``.  The squeeze S is real orthogonal, so those rows of
        S^-1 = S^T are the forward images of the first ``rows`` unit columns:
        one propagator call on ``rows`` columns and one product per stack.
        Asked for every row, it propagates the stacks themselves."""
        if rows > self.n_max:
            U, V = prop.apply_columns(self.U, -1), prop.apply_columns(self.V, -1)
            return BranchEnsemble(self.weights, U, V)
        head = prop.apply_columns(np.eye(self.n_max + 1, rows), +1).T
        return BranchEnsemble(self.weights, head @ self.U, head @ self.V)


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


def _log_binomial(k, n, eta: float, log_fact: np.ndarray) -> np.ndarray:
    """log(C(n, k) eta^(n-k) (1-eta)^k) for broadcastable k, n; -inf where
    n < k.  At eta = 0 only n = k survives (E_k = |0><k|), with no log(0)."""
    if eta == 0.0:
        return np.where(n == k, 0.0, -np.inf)
    kept = np.maximum(n - k, 0)
    out = log_fact[np.maximum(n, k)] - log_fact[k] - log_fact[kept]
    out = out + kept * math.log(eta) + k * math.log1p(-eta)
    return np.where(n >= k, out, -np.inf)


def _shifted_rows(a: np.ndarray, rows, shifts, fill: float) -> np.ndarray:
    """out[j, m] = a[rows[j], m + shifts[j]], reading ``fill`` past the end
    of a row (shifts stay below the row length)."""
    n_rows, width = a.shape
    padded = np.full((n_rows, 2 * width), fill, dtype=a.dtype)
    padded[:, :width] = a
    windows = np.lib.stride_tricks.sliding_window_view(padded.ravel(), width)
    return windows[rows * 2 * width + shifts]


def loss_on_branch(
    ens: BranchEnsemble, eta: float, tail_tol: float = DEFAULT_TAIL_TOL
) -> BranchEnsemble:
    """Expand every branch through the binomial loss channel on mode B.

    Branch b becomes branches k = 0..k_b, in branch-major order, with
    columns E_k u_b and E_k v_b, where (E_k psi)[n-k] = sqrt(C(n, k)
    eta^(n-k) (1-eta)^k) psi[n].  Each order k_b grows until the branch's
    neglected trace falls below its share of ``tail_tol`` (its trace over the
    ensemble's); k_b never exceeds the branch's top occupied photon number,
    where the channel is captured exactly.
    """
    _check_eta(eta)
    if eta == 1.0:
        return ens
    n_max = ens.n_max
    mass = _abs2(ens.U) + _abs2(ens.V)  # (N, K), unweighted
    traces = ens.weights * mass.sum(axis=0)
    total = traces.sum()
    tol = np.maximum(tail_tol * (traces / total if total > 0 else 1.0), 1e-300)
    occupied = mass > 0
    top = np.where(occupied.any(axis=0), n_max - np.argmax(occupied[::-1], axis=0), 0)

    # Kraus order per branch: the first k whose neglected trace is below tol,
    # scanned in blocks of doubling size over one log-factorial table
    log_fact = gammaln(np.arange(n_max + 1, dtype=float) + 1.0)
    ns = np.arange(n_max + 1)
    orders = top.copy()
    pending = np.ones(len(ens), dtype=bool)
    blocks, cum = [], np.zeros(len(ens))
    lo, width = 0, 64
    while lo <= top.max() and pending.any():
        ks = np.arange(lo, min(lo + width, int(top.max()) + 1))
        blocks.append(_log_binomial(ks[:, None], ns, eta, log_fact))
        run = cum + np.cumsum(ens.weights * (np.exp(blocks[-1]) @ mass), axis=0)
        hit = (traces - run < tol) & (ks[:, None] <= top) & pending
        found = hit.any(axis=0)
        orders[found] = ks[np.argmax(hit, axis=0)[found]]
        pending &= ~found
        cum = run[-1]
        lo, width = lo + width, 2 * width

    # output column j is branch b_of[j] after losing k_of[j] photons: its row
    # m is input row m+k times sqrt(C(m+k, k) eta^m (1-eta)^k)
    counts = orders + 1
    b_of = np.repeat(np.arange(len(ens)), counts)
    k_of = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    fac = np.exp(0.5 * _shifted_rows(np.concatenate(blocks), k_of, k_of, -np.inf))
    return BranchEnsemble(
        ens.weights[b_of],
        (fac * _shifted_rows(ens.U.T, b_of, k_of, 0.0)).T,
        (fac * _shifted_rows(ens.V.T, b_of, k_of, 0.0)).T,
        tuple(int(o) for o in orders),
    )


def loss_on_spectator(ens: BranchEnsemble, eta: float) -> BranchEnsemble:
    """Loss on the two-level arm A: |1>_A decays to |0>_A with weight 1-eta.

    Each branch becomes the pair (kept, decayed), in branch order.
    """
    _check_eta(eta)
    if eta == 1.0:
        return ens
    n_rows, count = ens.U.shape
    U = np.stack([math.sqrt(eta) * ens.U, np.zeros_like(ens.U)], axis=2)
    V = np.stack([ens.V, math.sqrt(1.0 - eta) * ens.U], axis=2)
    return BranchEnsemble(
        np.repeat(ens.weights, 2),
        U.reshape(n_rows, 2 * count),
        V.reshape(n_rows, 2 * count),
    )


def prune_branches(
    ens: BranchEnsemble, threshold: float = PRUNE_THRESHOLD
) -> tuple[BranchEnsemble, float]:
    """Drop branches below ``threshold`` trace contribution; report the mass."""
    traces = ens.traces
    keep = traces >= threshold
    dropped = float(traces[~keep].sum())
    if not keep.all():
        ens = BranchEnsemble(ens.weights[keep], ens.U[:, keep], ens.V[:, keep])
    return ens, dropped


# ---------------------------------------------------------------------------
# projection onto the {0,1} x {0,1} block
# ---------------------------------------------------------------------------


def branches_to_projected(ens: BranchEnsemble) -> ProjectedDensityMatrix:
    """Accumulate the unnormalized 4x4 block from the branch ensemble.

    For |b> = |1>_A u + |0>_A v the block coefficients in basis order
    (|00>, |01>, |10>, |11>) are (v[0], v[1], u[0], u[1]); the matrix is the
    weight-summed outer product, so d = sum_k w_k u_k[0] v_k[1]^* lands at
    position [2, 1].
    """
    c = np.stack([ens.V[0], ens.V[1], ens.U[0], ens.U[1]])  # (4, K)
    return ProjectedDensityMatrix((c * ens.weights) @ c.conj().T)


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
    U, V = ens.U, ens.V
    t1 = np.sqrt(eta * (n[:-1] + 1.0))[:, None] * half[:-1]
    # rows in basis order (0,0), (0,1), (1,0), (1,1) = (i_A, j_B), each
    # scaled by sqrt(w) so the block is one Gram contraction
    rows = np.zeros((4,) + U.shape, dtype=U.dtype)
    rows[0] = half * V
    rows[1, :-1] = t1 * V[1:]
    rows[2] = half * U
    rows[3, :-1] = t1 * U[1:]
    rows *= np.sqrt(ens.weights)
    block = np.tensordot(rows, rows.conj(), axes=([1, 2], [1, 2]))
    return ProjectedDensityMatrix(block)
