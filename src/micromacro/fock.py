"""Truncated Fock-space engine for the amplified/attenuated mode.

One dynamical bosonic mode (arm B) is tracked on photon numbers 0..n_max,
entangled with a two-level spectator (arm A).  The mixed two-mode state is
one ``BranchEnsemble``: rho = sum_k |b_k><b_k| with |b_k> = sum_i |i>_A (x)
amps[i, :, k], held as one amplitude array of shape (2, n_max+1, K) indexed
by arm A's photon number, arm B's and the branch.  Arm B enters the squeezer
in |0> or |1> only, so the squeezed input is written from the closed-form
squeezed vacuum and squeezed single photon (plain real amplitude arrays).
Every later stage acts on the whole array at once: the binomial photon-loss
Kraus channel (its images of nonzero trace), the inverse squeeze unitary
exp(-r (a^2 - a+^2)/2) and the projection onto the {0,1}x{0,1} block (one
contraction, which also takes both arms' detection losses in closed form).

The squeezed input holds one photon parity per arm half (vacuum family
even, one family odd); the squeeze keeps parity and a Kraus order shifts
it, so the loss expands half-length parity parts (chunks of at most
``_CHUNK_ENTRIES`` half-length entries) and neither stage multiplies the
other parity's zeros.  After a trailing loss the block reads only the
leading photon numbers (``projection_rows``), so the loss keeps, in place
of each Kraus image, its product with the same-parity block of those rows
of S^-1 = S^T and never stores the expanded ensemble.  Up to 24 rows come
from the recurrence of the columns S(r)|j> in the photon number
(``_inverse_head``).  SqueezePropagator, exp(rT) of the parity-decoupled
generator from the SVD of a half-size bidiagonal block per parity (read off
the parity chain's symmetric tridiagonal eigenproblem), built once per
(r, n_max), serves taller heads and, at full height (kept states, eta2 = 0),
un-squeezes the assembled images: the loss is the one stage applying S^-1.
scipy loads on first use, never at import: ``scipy.special`` with the first
squeezed state or loss, ``scipy.linalg`` with the first propagator build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .entanglement import ProjectedDensityMatrix
from .errors import TruncationError

DEFAULT_TAIL_TOL = 1e-10
N_MAX_CAP = 8192
PRUNE_THRESHOLD = 1e-14
#: Kraus image entries per chunk of loss orders (1 MiB of float64)
_CHUNK_ENTRIES = 1 << 17


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real**2 + a.imag**2 if np.iscomplexobj(a) else a * a


def _check_eta(*etas: float) -> None:
    for eta in etas:
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
    the ensemble (empty otherwise), and ``neglected_mass`` the trace those
    orders leave out, ``detection_eta`` the losses (eta_A, eta_B) in front of
    the homodyne detectors, not applied to ``amps``.  ``traces`` are always
    the squared norms of the columns of ``amps``.
    """

    amps: np.ndarray
    kraus_orders: tuple[int, ...] = ()
    neglected_mass: float = 0.0
    detection_eta: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        self.amps = np.asarray(self.amps)
        if self.amps.ndim != 3 or self.amps.shape[0] != 2:
            raise ValueError("amps must be a (2, n_max+1, K) array")
        eta_a, eta_b = self.detection_eta = tuple(map(float, self.detection_eta))
        _check_eta(eta_a, eta_b)

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
        return replace(self, amps=self.amps[:, : n_max + 1])

    def support(self, mass_tol: float) -> int:
        """Largest photon number from which the ensemble still carries more
        than ``mass_tol`` weight (1 when nothing does)."""
        mass = np.einsum("ank,ank->n", self.amps.conj(), self.amps)
        suffix = np.cumsum(mass.real[::-1])[::-1]
        idx = np.flatnonzero(suffix > mass_tol)
        return int(idx[-1]) if len(idx) else 1


# ---------------------------------------------------------------------------
# squeezed states in closed form
# ---------------------------------------------------------------------------


def _log_probs_squeezed(r: float, k: np.ndarray, parity: int) -> np.ndarray:
    from scipy.special import gammaln
    # p_{2k+parity} = (2k+parity)! / (4^k (k!)^2) * tanh^{2k} r / cosh^{1+2 parity} r
    lt = math.log(math.tanh(r))
    return (
        -(1 + 2 * parity) * math.log(math.cosh(r))
        + gammaln(2 * k + 1 + parity)
        - 2 * k * math.log(2.0)
        - 2 * gammaln(k + 1)
        + 2 * k * lt
    )


@lru_cache(maxsize=16)
def _log_tails(r: float, parity: int, top: int) -> np.ndarray:
    """log of sum_{j>k} p_{2j+parity} for k = 0..top (read-only, cached for
    the closed forms that follow choose_n_max).  The terms past ``top`` are
    bounded by a geometric series: the term ratio is q (2k+1)/(2k+2) < q for
    the vacuum family and q (2k+3)/(2k+2), falling with k, for the one
    family (q = tanh^2 r)."""
    log_ratio = 2.0 * math.log(math.tanh(r)) + math.log1p(parity / (2.0 * top + 2.0))
    logp = _log_probs_squeezed(r, np.arange(top + 1), parity)
    if log_ratio < 0.0:
        rest = logp[-1] + log_ratio - math.log1p(-math.exp(log_ratio))
    else:
        rest = math.inf  # cannot certify the remainder
    tails = np.logaddexp.accumulate(np.concatenate([logp[1:], [rest]])[::-1])[::-1]
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
    from scipy.linalg import eigh_tridiagonal
    n = np.arange(parity, n_max + 1, 2).astype(float)
    m = len(n)
    half = m // 2
    if m < 2:
        return np.zeros((m, 0)), np.zeros((0, 0)), np.zeros(0), np.ones(m) if m else None
    b = np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0)) / 2.0
    b[1::2] *= -1.0  # the signs of K's subdiagonal
    evals, evecs = eigh_tridiagonal(np.zeros(m), b)
    top = evecs[:, m - half :]  # the sigma > 0 half, ascending
    z = evecs[0::2, half].copy() if m % 2 else None
    return math.sqrt(2.0) * top[0::2], math.sqrt(2.0) * top[1::2], evals[m - half :], z


class SqueezePropagator:
    """Applies exp(sign * r * (a^2 - a+^2)/2) to stacks of Fock columns: the
    heads of S^-1 taller than ``_RECURRENCE_ROWS`` rows (eta2 < 0.88) and,
    in ``loss_on_branch`` at full height (kept states, eta2 = 0), the inverse
    squeeze of every Kraus image.

    On a parity chain n = p, p+2, ... the generator is a real antisymmetric
    tridiagonal T with T[j, j+1] = b_j = sqrt((n_j+1)(n_j+2))/2.  It links
    the even chain sites (n = p mod 4) only to the odd ones (n = p+2 mod 4),
    so in that split T = [[0, K], [-K^T, 0]] with K real lower bidiagonal
    (K[a, a] = b_2a, K[a, a-1] = -b_(2a-1)).  With the SVD
    K = X diag(sigma) Y^T, C = cos(r sigma) and S = sin(r sigma),

        exp(rT) = [[X C X^T + z z^T,  X S Y^T],
                   [   -Y S X^T,      Y C Y^T]],

    where z spans the null space of K^T on an odd-length chain.  The SVD is
    one ``eigh_tridiagonal`` call per parity on the chain's symmetric form
    [[0, K], [K^T, 0]] (Golub & Kahan 1965), whose eigenpairs come as
    +-sigma: the sigma > 0 half, sqrt(2) times its even and odd eigenvector
    rows, gives X and Y, and the zero mode of an odd chain gives z.  A step
    is four real (m/2, m/2) @ (m/2, cols) products per parity; the cache
    holds half of a dense (m, m) matrix per parity.  Complex columns
    propagate as their real and imaginary parts.
    The map is orthogonal on the truncated space, hence exactly
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
        out = np.zeros_like(x)
        for p, (X, Y, c, s, z) in enumerate(self._sectors):
            # columns that are zero on the sector stay exactly zero there
            live = np.flatnonzero(x[p::2].any(axis=0))
            xe, xo = x[p::4, live], x[p + 2 :: 4, live]
            ae, ao = X.T @ xe, Y.T @ xo
            out[p::4, live] = X @ (c * ae + sign * s * ao)
            out[p + 2 :: 4, live] = Y @ (c * ao - sign * s * ae)
            if z is not None:
                out[p::4, live] += np.outer(z, z @ xe)
        return out


@lru_cache(maxsize=8)
def get_propagator(r: float, n_max: int) -> SqueezePropagator:
    """Cached propagator; reused across branches and runs with equal (r, n_max)."""
    return SqueezePropagator(r, n_max)


#: tallest head of S^-1 from the photon-number recurrence, whose worst error
#: (40-digit check) about doubles per column: 2.6e-13 at j = 20, 1.6e-12 at
#: 23 (n in [0.6, 300]), 8.9e-12 at 26.  It holds k* at every eta2 >= 0.88.
_RECURRENCE_ROWS = 24


@lru_cache(maxsize=4)
def _inverse_head(r: float, n_max: int, rows: int) -> tuple[np.ndarray, ...]:
    """Rows 0..rows-1 of S(r)^-1 = S(r)^T on photon numbers 0..n_max as two
    read-only parity blocks (S keeps parity): heads[p][i, j] = S^T[2j + p,
    2i + p] for 2j + p < rows, so row j holds psi_j = S(r)|j>.  Up to
    ``_RECURRENCE_ROWS`` rows they follow from S a S^-1 = cosh r a + sinh r a+
    (Kim, de Oliveira & Knight, PRA 40, 2494 (1989)), the squeezed vacuum psi_0
    and psi_j[0] = <0|S|j> = |psi_0[j]|, each row m+1 from rows <= m:
    psi_j[m+1] = (sqrt(j) psi_{j-1}[m] - sinh r sqrt(m) psi_j[m-1]) / (cosh r sqrt(m+1)),
    i.e. x = h cumsum(b / h) on a parity chain, h = cumprod(-tanh r sqrt((m-1)/m))
    above e^-650 at n_max.  That is S(r)|j> cut at n_max; the propagator's
    head, for the rest, holds the columns of the truncated unitary."""
    if rows <= _RECURRENCE_ROWS and r > 0.0 and n_max * math.log(math.tanh(r)) > -1300.0:
        k, m = np.arange(n_max // 2 + 1), np.arange(1, n_max + 1, dtype=float)
        forward = np.zeros((n_max + 1, rows))
        forward[0::2, 0] = np.exp(0.5 * _log_probs_squeezed(r, k, 0)) * (-1.0) ** k
        a = np.r_[1.0, 1.0, -math.tanh(r) * np.sqrt(1.0 - 1.0 / m[1:])]  # 0, 1 start chains
        h, b = [np.cumprod(a[p::2]) for p in (0, 1)], np.zeros(n_max + 1)
        for j in range(1, rows):
            b[0] = abs(forward[j, 0])
            b[1:] = math.sqrt(j) * forward[:-1, j - 1] / (math.cosh(r) * np.sqrt(m))
            forward[j % 2 :: 2, j] = h[j % 2] * np.cumsum(b[j % 2 :: 2] / h[j % 2])
    else:
        forward = get_propagator(r, n_max).apply_columns(np.eye(n_max + 1, rows), +1)
    heads = tuple(np.ascontiguousarray(forward[p::2, p::2]) for p in (0, 1))
    for head in heads:
        head.flags.writeable = False
    return heads


# ---------------------------------------------------------------------------
# photon loss channel
# ---------------------------------------------------------------------------


def loss_on_branch(
    ens: BranchEnsemble, eta: float, tail_tol: float = DEFAULT_TAIL_TOL,
    r: float | None = None, rows: int | None = None,
) -> BranchEnsemble:
    """Expand every branch through the binomial loss channel on mode B.

    Branch b becomes branches k = 0..k_b, in branch-major order, with both
    arm-A halves mapped by (E_k psi)[m] = sqrt(C(m+k, k) eta^m (1-eta)^k)
    psi[m+k] (at eta = 0, E_k = |0><k|: the image is row k alone).  A
    branch retires at the first order whose neglected trace falls below its
    share of ``tail_tol`` (its trace over the ensemble's), or at its top
    occupied photon number, where the channel is captured exactly; a branch
    of zero trace retires at order 0.  Images of zero trace (a zero-trace
    branch's, odd orders of a one-parity branch at eta = 0, underflowed
    tails) are not emitted; ``neglected_mass`` is the trace left out.

    E_k maps a parity-q part (the rows 2i + q of an arm half) read from
    i + (k+1-q)//2 onto the rows 2i + p, p = q + k (mod 2): in a chunk, the
    orders of one parity are sliding windows of the part, and each
    (q, k mod 2) group is one window-times-factor product.  Each image keeps
    photon numbers 0..rows-1 (all by default), with ``r`` > 0 those of its
    inverse squeeze S(r)^-1, for every ``rows`` up to n_max + 1.  Below full
    height that is one product per group with the parity-p block of those
    rows of S(r)^-1 (``_inverse_head``).  At full height no dense head is
    built: the propagator's ``apply_columns(., -1)`` runs on each arm half
    of the assembled images.
    """
    from scipy.special import gammaln, xlogy
    _check_eta(eta)
    amps = ens.amps
    n_rows, n_branches = amps.shape[1:]
    height = n_rows if rows is None else min(rows, n_rows)
    full = height == n_rows
    if eta == 1.0 and not r and full:
        return ens
    heads = _inverse_head(r, n_rows - 1, height) if r and not full else None
    mass = _abs2(amps).sum(axis=0)  # (N, K)
    traces = mass.sum(axis=0)
    tol = np.maximum(tail_tol * (traces / (traces.sum() or 1.0)), 1e-300)
    occupied = mass > 0
    top = np.where(occupied.any(axis=0), n_rows - 1 - np.argmax(occupied[::-1], axis=0), 0)

    # parts[i, j] = amps[arm[i], 2j + q[i], branch[i]], even first, zero-padded for every window
    split = np.zeros((2, n_rows + 2, 2, n_branches), amps.dtype)
    split.reshape(2, 2 * n_rows + 4, n_branches)[:, :n_rows] = amps
    q, arm, branch = np.nonzero(split.any(axis=1).transpose(1, 0, 2))
    parts = split[arm, :, q, branch]
    # C(m+k, k) eta^m (1-eta)^k = exp(2 (h[m+k] - a[m] - b[k])), h = log(n!)/2
    h = 0.5 * gammaln(np.arange(2 * n_rows, dtype=float) + 1.0)
    a = h[:n_rows] - 0.5 * xlogy(np.arange(n_rows), eta)
    b = h[:n_rows] - 0.5 * xlogy(np.arange(n_rows), 1.0 - eta)

    left = traces.copy()
    orders = np.zeros(n_branches, dtype=int)
    live = np.arange(n_branches)
    images = []  # (arm, branch, order, parity, rows) of the slots of trace > 0
    k0, grow = 0, 16
    while len(live):
        width = 1 if eta == 0.0 else n_rows - k0
        # chunks double up to the entry budget, so few orders cost little
        count = max(1, min(grow, _CHUNK_ENTRIES // (max(1, len(parts)) * ((width + 1) // 2))))
        count = int(min(count, top[live].max() - k0 + 1))
        factors = sliding_window_view(h[k0 : k0 + count + width - 1], width) - a[:width]
        factors -= b[k0 : k0 + count, None]
        np.exp(factors, out=factors)
        local, odd = np.searchsorted(live, branch), np.searchsorted(q, 1)
        windows = sliding_window_view(parts, (width + 1) // 2, axis=1)
        groups, slots, weights = [], [np.zeros(0, int)], [np.zeros(0)]
        for parity, mine in enumerate((slice(0, odd), slice(odd, len(q)))):
            for s in (0, 1):  # orders k0 + s, k0 + s + 2, ...
                p = (parity + k0 + s) % 2
                c, w, d = (count - s + 1) // 2, (width - p + 1) // 2, (k0 + s + 1 - parity) // 2
                if not (c and w and mine.stop > mine.start):
                    continue
                img = factors[s::2, p::2] * windows[mine, d : d + c, :w]
                j = np.arange(s, count, 2)
                slots.append((local[mine][:, None] * count + j).ravel())
                weights.append(np.einsum("ncm,ncm->nc", img, img.conj()).real.ravel())
                if heads is not None:
                    img = (img.reshape(-1, w) @ heads[p][:w]).reshape(len(img), c, -1)
                groups.append((mine, j, p, img[..., : (height - p + 1) // 2]))
        t = np.bincount(np.concatenate(slots), np.concatenate(weights), len(live) * count)
        t = t.reshape(len(live), count)
        left_after = np.subtract.accumulate(np.hstack([left[live, None], t]), axis=1)[:, 1:]
        done = (left_after < tol[live, None]) | (top[live, None] == k0 + np.arange(count))
        retired = done.any(axis=1)
        last = np.where(retired, done.argmax(axis=1), count - 1)
        orders[live[retired]] = k0 + last[retired]
        left[live] = left_after[np.arange(len(live)), last]
        emit = (np.arange(count) <= last[:, None]) & (t > 0.0)
        for mine, j, p, img in groups:
            i, jj = np.nonzero(emit[local[mine][:, None], j])
            images.append((arm[mine][i], branch[mine][i], k0 + j[jj], p, img[i, jj]))
        live = live[~retired]
        on = np.isin(branch, live)
        parts, arm, q, branch = parts[on], arm[on], q[on], branch[on]
        k0, grow = k0 + count, 2 * grow

    # the images of nonzero trace fill the columns in branch-major order (k < n_rows)
    keys = [branch * n_rows + k for _, branch, k, *_ in images]
    keys = np.unique(np.concatenate([np.zeros(0, int)] + keys))
    out = np.zeros((2, len(keys), height), np.result_type(amps, float))
    for arm, branch, k, p, img in images:
        out[:, :, p::2][arm, np.searchsorted(keys, branch * n_rows + k), : img.shape[1]] = img
    out = out.transpose(0, 2, 1)
    if r and full:
        prop = get_propagator(r, n_rows - 1)
        out = np.stack([prop.apply_columns(half, -1) for half in out])
    return BranchEnsemble(out, tuple(int(o) for o in orders), max(float(left.sum()), 0.0))


def prune_branches(ens: BranchEnsemble) -> tuple[BranchEnsemble, float]:
    """Drop a kept state's branches below ``PRUNE_THRESHOLD`` trace; report the mass."""
    traces = ens.traces
    keep = traces >= PRUNE_THRESHOLD
    dropped = float(traces[~keep].sum())
    if not keep.all():
        ens = replace(ens, amps=ens.amps[:, :, keep])
    return ens, dropped


# ---------------------------------------------------------------------------
# projection onto the {0,1} x {0,1} block
# ---------------------------------------------------------------------------


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


def project_through_loss(
    ens: BranchEnsemble, eta: float, eta_a: float = 1.0
) -> ProjectedDensityMatrix:
    """Projected block after trailing losses eta on arm B and ``eta_a`` on A.

    Only photon numbers 0 and 1 of each Kraus image survive the projection,
    so the k-sum collapses to closed form:
    (E_k w)[0] = (1-eta)^(k/2) w[k] and
    (E_k w)[1] = sqrt(eta (k+1)) (1-eta)^(k/2) w[k+1].
    Algebraically identical to loss_on_branch followed by the Gram matrix
    of the images' rows 0 and 1, summed over all Kraus orders.  Arm A never
    leaves {0, 1}, so its loss acts on the block itself, in closed form.
    """
    _check_eta(eta, eta_a)
    n = np.arange(ens.n_max + 1, dtype=float)
    half = np.power(1.0 - eta, n / 2.0)[:, None]
    t1 = np.sqrt(eta * (n[:-1] + 1.0))[:, None] * half[:-1]
    # rows in basis order 2 i_A + j_B, so the block is one Gram contraction
    rows = np.zeros((2, 2) + ens.amps.shape[1:], dtype=ens.amps.dtype)
    rows[:, 0] = half * ens.amps
    rows[:, 1, :-1] = t1 * ens.amps[:, 1:]
    block = np.tensordot(rows, rows.conj(), axes=([2, 3], [2, 3])).reshape(4, 4)
    if eta_a < 1.0:
        block[:2, :2] += (1.0 - eta_a) * block[2:, 2:]
        block[2:] *= math.sqrt(eta_a)
        block[:, 2:] *= math.sqrt(eta_a)
    return ProjectedDensityMatrix(block)
