"""Closed-form two-mode Wigner engine: polynomial times axis-aligned Gaussian.

Every state reachable in this experiment keeps the form
W = poly(X_A, P_A, X_B, P_B) * exp(-g_XA X_A^2 - g_PA P_A^2 - g_XB X_B^2 - g_PB P_B^2)
with polynomial degree at most two per variable, so squeezing (a quadrature
rescale), photon loss (a Gaussian convolution done by completing the square)
and density-matrix extraction (Gaussian moment integrals) are all exact.
Quadrature units put the vacuum variance at 1/2, i.e. the vacuum Wigner
function is exp(-(X^2+P^2))/pi.

Tables may carry leading config axes: widths (..., 4), coefficients
(..., n_XA, n_PA, n_XB, n_PB), eta and r scalars or arrays over them.  One
kernel set serves ``pipeline.run`` (one state, no leading axes) and
``pipeline.sweep`` (its rows on one axis, one numpy pass per stage); each
row gets the arithmetic of its own call, and eta = 1 and r = 0 are exact
identities, so a row can pass through a stage it does not need.

Each operation integrates a Gaussian variable out of a polynomial, from
tables made at import: the moments (k-1)!! of a unit normal, the binomial
coefficients of (a x + b tau)^p and the Wigner transforms of |b><a| on
{0,1}.  A loss acts on its mode's two axes at once, through the Kronecker
product of their matrices; its completed-square algebra is written in terms
of s = 1-eta and D = eta + (1-eta)*gamma, which cancels the 1/(1-eta)
kernel normalization symbolically and stays well-conditioned for eta near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: axis indices into widths/coefficient tensors: (X_A, P_A, X_B, P_B)
MODE_AXES = {"A": (0, 1), "B": (2, 3)}
# each mode's axes flagged, as (4, 1, 1) columns against loss matrices
_MODE_MASKS = {m: np.isin(np.arange(4), axes)[:, None, None] for m, axes in MODE_AXES.items()}

#: highest polynomial degree per variable a table may carry (the states of
#: the pipeline stay at two)
MAX_DEGREE = 4

# Powers below _TABLE_SIZE cover every power an operation reads: the
# 2 * MAX_DEGREE of a homodyne marginal
_TABLE_SIZE = 2 * MAX_DEGREE + 1
_POWERS = np.arange(_TABLE_SIZE)
_HALF_POWERS = (_POWERS // 2).astype(float)  # numpy raises floats to float powers faster

# E[tau^k] of a unit-variance centred normal: (k-1)!! for even k, 0 for odd k
_UNIT_MOMENTS = np.array(
    [math.prod(range(k - 1, 0, -2)) if k % 2 == 0 else 0 for k in _POWERS.tolist()],
    dtype=float,
)

# _BINOMIAL[p, i, p - i] = C(p, i): the coefficient of x^i tau^(p-i) in (x + tau)^p
_P, _I = np.tril_indices(_TABLE_SIZE)
_BINOMIAL = np.zeros((_TABLE_SIZE,) * 3)
_BINOMIAL[_P, _I, _P - _I] = [math.comb(n, k) for n, k in zip(_P.tolist(), _I.tolist())]
# the loss matrix C(p, i) u^i E[tau^(p-i)] / sqrt(D) (see loss_convolve) is
# _LOSS_TABLE[p, i] u^i var^_LOSS_HALF_GAP[p, i] / sqrt(D)
_GAP = np.maximum(_POWERS[:, None] - _POWERS, 0)  # p - i, 0 where i > p
_LOSS_TABLE = _BINOMIAL.sum(axis=2) * _UNIT_MOMENTS[_GAP]
_LOSS_HALF_GAP = _HALF_POWERS[_GAP]
# a squeeze scales X_B^i P_B^j by lam^(i - j) and the widths by these powers
_POWER_GAPS = (_POWERS[:, None] - _POWERS).astype(float)
_SQUEEZE_WIDTH_POWERS = np.array([0.0, 0.0, 2.0, -2.0])

# _SUM_INDEX[i, j, n] = 1 where i + j == n: _SUM_INDEX @ m is the Hankel table m[i + j]
_SUM_INDEX = (np.add.outer(_POWERS, _POWERS)[:, :, None] == _POWERS).astype(float)


def _binomial_table(a: float, b: float, deg: int) -> np.ndarray:
    """B[p, i, k]: the coefficient of x^i tau^k in (a x + b tau)^p, p <= deg."""
    pw = _POWERS[: deg + 1]
    return _BINOMIAL[: deg + 1, : deg + 1, : deg + 1] * (a**pw)[:, None] * b**pw


@dataclass(frozen=True)
class GaussianPolyWigner:
    """Polynomial coefficient table plus the four Gaussian widths.

    ``coeffs[..., p, q, r, s]`` multiplies X_A^p P_A^q X_B^r P_B^s; ``widths``
    are the positive Gaussian decay rates in the same axis order.  Both share
    their leading (config) axes, none for one state.  Normalization is such
    that the full integral equals the trace of the represented operator.
    """

    widths: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.widths, dtype=float).copy()
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if w.ndim < 1 or w.shape[-1] != 4:
            raise ValueError("widths must end in an axis of length 4")
        if np.any(w <= 0):
            raise ValueError("Gaussian widths must be strictly positive")
        if c.ndim < 4 or c.shape[:-4] != w.shape[:-1]:
            raise ValueError(f"coefficients {c.shape} need four axes after those of the widths")
        if max(c.shape[-4:]) > MAX_DEGREE + 1:
            raise ValueError(f"degree per variable is at most {MAX_DEGREE}, got {c.shape}")
        self._freeze(w, c)

    @classmethod
    def _trusted(cls, widths: np.ndarray, coeffs: np.ndarray) -> "GaussianPolyWigner":
        """An operation's output, built from a validated state: float widths
        and complex coefficients, taken without the copy and the checks."""
        W = object.__new__(cls)
        W._freeze(widths, np.ascontiguousarray(coeffs))
        return W

    def _freeze(self, widths: np.ndarray, coeffs: np.ndarray) -> None:
        widths.flags.writeable = coeffs.flags.writeable = False
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "coeffs", coeffs)


# ---------------------------------------------------------------------------
# single-mode building blocks: Wigner transforms of |b><a| on {0,1}
# ---------------------------------------------------------------------------


def _fock_pair_tables() -> np.ndarray:
    """T[a, b, x_pow, p_pow]: polynomial of the Wigner transform of |b><a|.

    All carry the unit Gaussian exp(-(X^2+P^2)); the polynomial parts are
    1/pi, sqrt(2)(X -+ iP)/pi and (-1 + 2X^2 + 2P^2)/pi.
    """
    t = np.zeros((2, 2, 3, 3), dtype=complex)
    t[0, 0, 0, 0] = 1.0
    t[1, 1, 0, 0], t[1, 1, 2, 0], t[1, 1, 0, 2] = -1.0, 2.0, 2.0
    t[0, 1, 1, 0], t[0, 1, 0, 1] = math.sqrt(2.0), -1j * math.sqrt(2.0)
    t[1, 0, 1, 0], t[1, 0, 0, 1] = math.sqrt(2.0), 1j * math.sqrt(2.0)
    return t / math.pi


_PAIR_TABLES = _fock_pair_tables()
# the pair tables on the (X, P) powers they use: _PAIR_TERMS[mode, 2a + b,
# real/imaginary part, term], times the overlap formula's (2 pi)^2 on mode A
_PAIR_X, _PAIR_P = np.nonzero(np.any(_PAIR_TABLES != 0, axis=(0, 1)))
_PAIR_TERMS = np.stack([_PAIR_TABLES.real, _PAIR_TABLES.imag], axis=2)[..., _PAIR_X, _PAIR_P]
_PAIR_TERMS = np.multiply.outer([(2.0 * math.pi) ** 2, 1.0], _PAIR_TERMS.reshape(4, 2, -1))
# the moment of t^(p + power of the term) at width gamma, along each axis, is
# sqrt(pi / gamma) _PAIR_UNITS[axis, p, term] (2 gamma)^-_PAIR_HALVES[axis, p, term]
_PAIR_POWERS = _POWERS[: MAX_DEGREE + 1, None] + np.stack([_PAIR_X, _PAIR_P] * 2)[:, None]
_PAIR_UNITS, _PAIR_HALVES = _UNIT_MOMENTS[_PAIR_POWERS], _HALF_POWERS[_PAIR_POWERS]

# the projector onto (|1>_A|0>_B + |0>_A|1>_B)/sqrt(2) is half the sum of
# |x><y| over x, y in {10, 01}, and |x><y| transforms mode by mode
_INITIAL_COEFFS = 0.5 * sum(
    np.multiply.outer(_PAIR_TABLES[ya, xa], _PAIR_TABLES[yb, xb])
    for xa, xb in ((1, 0), (0, 1))
    for ya, yb in ((1, 0), (0, 1))
)
_INITIAL_COEFFS.flags.writeable = False


def initial_wigner() -> GaussianPolyWigner:
    """Wigner function of (|1>_A|0>_B + |0>_A|1>_B)/sqrt(2).

    Inside the unit Gaussian this is [(2X_A^2 + 2P_A^2 - 1)
    + (2X_B^2 + 2P_B^2 - 1) + 4 X_A X_B + 4 P_A P_B] / (2 pi^2).
    """
    return GaussianPolyWigner._trusted(np.ones(4), _INITIAL_COEFFS)


def squeeze_rescale(W: GaussianPolyWigner, r, sign: int = +1) -> GaussianPolyWigner:
    """Substitute (X_B, P_B) -> (e^{sign r} X_B, e^{-sign r} P_B).

    ``r`` is a scalar or an array over the leading axes.  The substitution
    is area-preserving, so the total integral is unchanged; with sign=+1 a
    unit-width vacuum factor acquires X_B-width e^{2r} (variance e^{-2r}/2).
    r = 0 returns the input exactly.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = np.exp(sign * np.asarray(r, dtype=float))[..., None]
    nx, npow = W.coeffs.shape[-2:]  # the X_B and P_B axes
    c = W.coeffs * lam[..., None, None, None] ** _POWER_GAPS[:nx, :npow]
    w = W.widths * lam**_SQUEEZE_WIDTH_POWERS
    return GaussianPolyWigner._trusted(w, c)


def loss_convolve(W: GaussianPolyWigner, eta, mode: str = "B") -> GaussianPolyWigner:
    """Exact convolution with the transmission-eta attenuation kernel.

    Acts on the quadratures of ``mode`` (default B); ``eta`` is a scalar or
    an array over the leading axes, each in [0, 1].  eta=1 reproduces the
    input exactly and eta=0 traces the mode back to vacuum (the completed
    square at s = 1, D = gamma keeps only the Y^0 terms, at unit width).
    The polynomial degree never grows and the total integral is preserved.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all((eta >= 0.0) & (eta <= 1.0)):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if mode not in MODE_AXES:
        raise ValueError("mode must be 'A' or 'B'")
    x_axis, p_axis = MODE_AXES[mode]
    lead, shape = W.coeffs.shape[:-4], W.coeffs.shape[-4:]
    nx, npow = shape[x_axis], shape[p_axis]
    # For an input term t^p exp(-gamma t^2), completing the square against the
    # kernel exp(-eta/(1-eta) (t - Y/sqrt(eta))^2)/sqrt(pi(1-eta)) leaves
    # exp(-gamma/D Y^2) E[(u Y + tau)^p] / sqrt(D), with tau a centred normal
    # of variance var = s/(2D), s = 1-eta, D = eta + s*gamma, u = sqrt(eta)/D.
    # L[..., axis, p, i] is the Y^i coefficient, over (..., 4 axes, p, i), with
    # eta = 1 (exact identities) on the other mode's axes
    e = np.where(_MODE_MASKS[mode], eta[..., None, None, None], 1.0)
    size, s = max(nx, npow), 1.0 - e
    D = e + s * W.widths[..., None, None]
    L = _LOSS_TABLE[:size, :size] * (np.sqrt(e) / D) ** _POWERS[:size]
    L = L * (s / (2.0 * D)) ** _LOSS_HALF_GAP[:size, :size] / np.sqrt(D)
    # K[(k, l), (i, j)] = Lx[k, i] Lp[l, j] over the coefficients as a matrix
    # of (X_A, P_A) by (X_B, P_B) powers
    K = L[..., x_axis, :nx, None, :nx, None] * L[..., p_axis, None, :npow, None, :npow]
    K = K.reshape(K.shape[:-4] + (nx * npow, nx * npow))
    c = W.coeffs.reshape(lead + (shape[0] * shape[1], shape[2] * shape[3]))
    c = c @ K if mode == "B" else np.swapaxes(K, -1, -2) @ c
    w = W.widths / D[..., 0, 0]
    return GaussianPolyWigner._trusted(w, c.reshape(c.shape[:-2] + shape))


def extract_projected(W: GaussianPolyWigner) -> np.ndarray:
    """Density-matrix blocks on {0,1}x{0,1}, shape (..., 4, 4).

    Element <a|rho|b> = (2 pi)^2 * integral of W times the Wigner transforms
    of |b_A><a_A| and |b_B><a_B|: per mode, the pair polynomials against
    moments at width + 1.  Those few terms are summed in order, without the
    fused multiply-adds of a matrix product, so entries that vanish by
    parity or through 2 X^2 + 2 P^2 - 1 come out exactly 0 (p11 at r = 0).
    The input state gives d = +1/2, which pins the coherence sign.  All
    sixteen positions are returned so the zero structure can be audited.
    """
    lead, shape = W.coeffs.shape[:-4], W.coeffs.shape[-4:]
    size = max(shape)
    gamma = W.widths[..., None, None] + 1.0
    m = np.sqrt(np.pi / gamma) * _PAIR_UNITS[:, :size] * (0.5 / gamma) ** _PAIR_HALVES[:, :size]
    # per mode, X moments times P moments: h[..., mode, p, q, term]
    h = m[..., 0::2, :, None, :] * m[..., 1::2, None, :, :]
    terms = _PAIR_TERMS[:, :, None, None] * h[..., :, None, :, :, None, :]
    # K[..., mode, 2a + b, p, q], real and imaginary parts summed apart
    K = terms.sum(axis=-1).view(complex)[..., 0]
    k_a = K[..., 0, :, : shape[0], : shape[1]].reshape(lead + (4, shape[0] * shape[1]))
    k_b = K[..., 1, :, : shape[2], : shape[3]].reshape(lead + (4, shape[2] * shape[3]))
    c = W.coeffs.reshape(lead + (shape[0] * shape[1], shape[2] * shape[3]))
    # rows (a_A, b_A) by columns (a_B, b_B), reordered to (a_A, a_B) by (b_A, b_B)
    T = k_a @ c @ np.swapaxes(k_b, -1, -2)
    return T.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))


def single_mode_wigner_section(
    state_id: str, r: float, axis_points, axis: str = "x"
) -> np.ndarray:
    """Cross section of the squeezed vacuum / squeezed one-photon Wigner function.

    ``axis='x'`` evaluates W(X, 0) (the squeezed quadrature), ``axis='p'``
    W(0, P) (the stretched one).  The origin value is squeeze-invariant:
    -1/pi for the one-photon family, +1/pi for the vacuum family.
    """
    pts = np.asarray(axis_points, dtype=float)
    key = state_id.upper()
    if key not in ("S0", "S1"):
        raise ValueError("state_id must be 'S0' or 'S1'")
    if axis not in ("x", "p"):
        raise ValueError("axis must be 'x' or 'p'")
    # S(r) maps the |k><k| Wigner function W_k(X, P) to W_k(e^r x, e^-r p)
    zero = np.zeros_like(pts)
    x, p = (math.exp(r) * pts, zero) if axis == "x" else (zero, math.exp(-r) * pts)
    table = _PAIR_TABLES[int(key[1]), int(key[1])].real
    return np.polynomial.polynomial.polyval2d(x, p, table) * np.exp(-(x**2) - p**2)


# ---------------------------------------------------------------------------
# rotated-quadrature marginals (homodyne statistics)
# ---------------------------------------------------------------------------


def _marginalize_mode(W: GaussianPolyWigner, mode: str, theta: float):
    """Reduce one mode to polynomials in the rotated quadrature x_theta.

    Writing X = x cos(t) - s sin(t), P = x sin(t) + s cos(t) and integrating
    over the conjugate coordinate s gives, for each (X-power, P-power) pair,
    a polynomial in x; the shared Gaussian becomes exp(-c_hat x^2).
    Returns (T, c_hat) with T[X-power, P-power] the zero-padded coefficient
    vector of that polynomial in x.
    """
    x_axis, p_axis = MODE_AXES[mode]
    gx, gp = W.widths[x_axis], W.widths[p_axis]
    ct, st = math.cos(theta), math.sin(theta)
    a = gx * st**2 + gp * ct**2
    b = 2.0 * st * ct * (gp - gx)
    c = gx * ct**2 + gp * st**2
    # a s^2 + b x s = a tau^2 - b^2 x^2 / (4a) with s = tau - shift * x, so
    # X = (ct + st shift) x - st tau and P = (st - ct shift) x + ct tau
    shift = b / (2.0 * a)
    deg_x = W.coeffs.shape[x_axis] - 1
    deg_p = W.coeffs.shape[p_axis] - 1
    bx = _binomial_table(ct + st * shift, -st, deg_x)
    bp = _binomial_table(st - ct * shift, ct, deg_p)
    sums = _SUM_INDEX[: deg_x + 1, : deg_p + 1, : deg_x + deg_p + 1]
    # integrals of tau^k exp(-a tau^2), k <= deg_x + deg_p, as a Hankel table
    k = _POWERS[: deg_x + deg_p + 1]
    hankel = sums @ (math.sqrt(math.pi / a) * _UNIT_MOMENTS[k] * (0.5 / a) ** _HALF_POWERS[k])
    tables = np.einsum("aik,bjl,kl,ijn->abn", bx, bp, hankel, sums)
    return tables, c - b**2 / (4.0 * a)


def rotated_quadrature_pdf(W: GaussianPolyWigner, theta_a: float, theta_b: float):
    """Joint homodyne density p(x_A, x_B) at local-oscillator phases theta.

    Marginalizes one state W (no leading axes) along the conjugates of
    X cos(theta) + P sin(theta) in both modes; returns a callable acting
    elementwise on broadcastable arrays.
    """
    tab_a, chat_a = _marginalize_mode(W, "A", theta_a)
    tab_b, chat_b = _marginalize_mode(W, "B", theta_b)
    R = np.einsum("pqrs,pqi,rsj->ij", W.coeffs, tab_a, tab_b)

    def pdf(x_a, x_b):
        xa, xb = np.broadcast_arrays(
            np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
        )
        poly = np.polynomial.polynomial.polyval2d(xa, xb, R)
        return (poly * np.exp(-chat_a * xa**2 - chat_b * xb**2)).real

    return pdf
