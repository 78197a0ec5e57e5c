"""Closed-form two-mode Wigner engine: polynomial times axis-aligned Gaussian.

Every state reachable in this experiment keeps the form
W = poly(X_A, P_A, X_B, P_B) * exp(-g_XA X_A^2 - g_PA P_A^2 - g_XB X_B^2 - g_PB P_B^2)
with polynomial degree at most two per variable, so squeezing (a quadrature
rescale), photon loss (a Gaussian convolution done by completing the square)
and density-matrix extraction (Gaussian moment integrals) are all exact.
Quadrature units put the vacuum variance at 1/2, i.e. the vacuum Wigner
function is exp(-(X^2+P^2))/pi.

Each operation integrates a Gaussian variable out of a polynomial, and each
is one contraction over three primitives built at import:

- ``_normal_moments``: E[tau^k] of a centred normal, from a (k-1)!! table;
- ``_binomial_table``: the coefficients of (a x + b tau)^p, from a C(p, i)
  table;
- ``_PAIR_TABLES``: the Wigner transforms of |b><a| on {0,1}.

The completed-square algebra of the loss is written in terms of s = 1-eta
and D = eta + (1-eta)*gamma, which cancels the 1/(1-eta) kernel
normalization symbolically and stays well-conditioned for eta near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import ProjectedDensityMatrix

#: axis indices into widths/coefficient tensors: (X_A, P_A, X_B, P_B)
MODE_AXES = {"A": (0, 1), "B": (2, 3)}

MAX_QUERY_EXPONENT = 6

#: highest polynomial degree per variable a table may carry (the states of
#: the pipeline stay at two)
MAX_DEGREE = 4

# Powers below _TABLE_SIZE cover every power an operation reads: a moment
# query on a top-degree term, and the 2 * MAX_DEGREE of a homodyne marginal.
_TABLE_SIZE = MAX_DEGREE + max(MAX_DEGREE, MAX_QUERY_EXPONENT) + 1
_POWERS = np.arange(_TABLE_SIZE)
_HALF_POWERS = (_POWERS // 2).astype(float)  # numpy raises floats to float powers faster

# E[tau^k] of a unit-variance centred normal: (k-1)!! for even k, 0 for odd k
_UNIT_MOMENTS = np.array(
    [math.prod(range(k - 1, 0, -2)) if k % 2 == 0 else 0 for k in _POWERS.tolist()],
    dtype=float,
)


def _binomial_coefficients() -> np.ndarray:
    """C[p, i, p - i] = C(p, i): the coefficient of x^i tau^(p-i) in (x + tau)^p."""
    p, i = np.tril_indices(_TABLE_SIZE)
    table = np.zeros((_TABLE_SIZE,) * 3)
    table[p, i, p - i] = [math.comb(n, k) for n, k in zip(p.tolist(), i.tolist())]
    return table


_BINOMIAL = _binomial_coefficients()

# _SUM_INDEX[i, j, n] = 1 where i + j == n: it collects the powers of a
# product, and _SUM_INDEX @ m is the Hankel table m[i + j]
_SUM_INDEX = (np.add.outer(_POWERS, _POWERS)[:, :, None] == _POWERS).astype(float)


def _normal_moments(var: float, count: int) -> np.ndarray:
    """E[tau^k] for k < count, tau a centred normal of variance ``var``."""
    return _UNIT_MOMENTS[:count] * var ** _HALF_POWERS[:count]


def _binomial_table(a: float, b: float, deg: int) -> np.ndarray:
    """B[p, i, k]: the coefficient of x^i tau^k in (a x + b tau)^p, p <= deg."""
    pw = _POWERS[: deg + 1]
    return _BINOMIAL[: deg + 1, : deg + 1, : deg + 1] * (a**pw)[:, None] * b**pw


@dataclass(frozen=True)
class GaussianPolyWigner:
    """Polynomial coefficient table plus the four Gaussian widths.

    ``coeffs[p, q, r, s]`` multiplies X_A^p P_A^q X_B^r P_B^s; ``widths`` are
    the positive Gaussian decay rates in the same axis order.  Normalization
    is such that the full integral equals the trace of the represented
    operator.
    """

    widths: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.widths, dtype=float).copy()
        c = np.asarray(self.coeffs, dtype=complex).copy()
        if w.shape != (4,):
            raise ValueError("widths must be a length-4 vector")
        if np.any(w <= 0):
            raise ValueError("Gaussian widths must be strictly positive")
        if c.ndim != 4:
            raise ValueError("coefficient table must be four-dimensional")
        if max(c.shape) > MAX_DEGREE + 1:
            raise ValueError(
                f"polynomial degree per variable is at most {MAX_DEGREE}, got {c.shape}"
            )
        w.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "widths", w)
        object.__setattr__(self, "coeffs", c)

    @property
    def degrees(self) -> tuple[int, int, int, int]:
        return tuple(s - 1 for s in self.coeffs.shape)

    def evaluate(self, xa, pa, xb, pb) -> np.ndarray:
        """Pointwise W values; inputs broadcast elementwise."""
        pts = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (xa, pa, xb, pb))
        )
        powers = [v[..., None] ** np.arange(n) for v, n in zip(pts, self.coeffs.shape)]
        poly = np.einsum("pqrs,...p,...q,...r,...s->...", self.coeffs, *powers)
        return poly * np.exp(-sum(w * v**2 for w, v in zip(self.widths, pts)))

    def total_integral(self) -> complex:
        return gaussian_moment(self, (0, 0, 0, 0))


def _moments(gamma: float, count: int) -> np.ndarray:
    """Integrals of x^p exp(-gamma x^2) over the real line, p < count."""
    return math.sqrt(math.pi / gamma) * _normal_moments(0.5 / gamma, count)


def gaussian_moment(W: GaussianPolyWigner, query) -> complex:
    """Exact integral of X_A^a P_A^b X_B^c P_B^d against W, query = (a, b, c, d)."""
    exps = tuple(query)
    if len(exps) != 4 or not all(0 <= e <= MAX_QUERY_EXPONENT for e in exps):
        raise ValueError(
            f"a moment query is four exponents in 0..{MAX_QUERY_EXPONENT}, got {query}"
        )
    vectors = [
        _moments(gamma, size + e)[e:]
        for gamma, size, e in zip(W.widths, W.coeffs.shape, exps)
    ]
    return complex(np.einsum("pqrs,p,q,r,s->", W.coeffs, *vectors))


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

# the projector onto (|1>_A|0>_B + |0>_A|1>_B)/sqrt(2) is half the sum of
# |x><y| over x, y in {10, 01}, and |x><y| transforms mode by mode
_INITIAL_COEFFS = 0.5 * sum(
    np.multiply.outer(_PAIR_TABLES[ya, xa], _PAIR_TABLES[yb, xb])
    for xa, xb in ((1, 0), (0, 1))
    for ya, yb in ((1, 0), (0, 1))
)


def initial_wigner() -> GaussianPolyWigner:
    """Wigner function of (|1>_A|0>_B + |0>_A|1>_B)/sqrt(2).

    Inside the unit Gaussian this is [(2X_A^2 + 2P_A^2 - 1)
    + (2X_B^2 + 2P_B^2 - 1) + 4 X_A X_B + 4 P_A P_B] / (2 pi^2).
    """
    return GaussianPolyWigner(widths=np.ones(4), coeffs=_INITIAL_COEFFS)


def squeeze_rescale(W: GaussianPolyWigner, r: float, sign: int = +1) -> GaussianPolyWigner:
    """Substitute (X_B, P_B) -> (e^{sign r} X_B, e^{-sign r} P_B).

    The substitution is area-preserving, so the total integral is unchanged;
    with sign=+1 a unit-width vacuum factor acquires X_B-width e^{2r}
    (variance e^{-2r}/2).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = math.exp(sign * r)
    xb_axis, pb_axis = MODE_AXES["B"]  # the last two axes
    nx, npow = W.coeffs.shape[xb_axis], W.coeffs.shape[pb_axis]
    c = W.coeffs * (lam ** np.arange(nx))[:, None] * (1.0 / lam) ** np.arange(npow)
    w = np.array(W.widths)
    w[xb_axis] *= lam**2
    w[pb_axis] /= lam**2
    return GaussianPolyWigner(widths=w, coeffs=c)


def _loss_matrix(gamma: float, size: int, eta: float) -> tuple[np.ndarray, float]:
    """Attenuation convolution along one quadrature axis as a matrix.

    For an input term t^p exp(-gamma t^2), completing the square against the
    kernel exp(-eta/(1-eta) (t - Y/sqrt(eta))^2)/sqrt(pi(1-eta)) leaves
    exp(-gamma/D Y^2) E[(u Y + tau)^p] / sqrt(D), with tau a centred normal
    of variance s/(2D), s = 1-eta, D = eta + s*gamma and u = sqrt(eta)/D.
    Returns M[i, p], the Y^i coefficient of that output, and the new width.
    """
    s = 1.0 - eta
    D = eta + s * gamma
    binom = _binomial_table(math.sqrt(eta) / D, 1.0, size - 1)
    M = binom @ _normal_moments(s / (2.0 * D), size) / math.sqrt(D)
    return M.T, gamma / D


def loss_convolve(W: GaussianPolyWigner, eta: float, mode: str = "B") -> GaussianPolyWigner:
    """Exact convolution with the transmission-eta attenuation kernel.

    Acts on the quadratures of ``mode`` (default B).  eta must lie in [0, 1];
    eta=1 reproduces the input exactly and eta=0 traces the mode back to
    vacuum (the completed square at s = 1, D = gamma keeps only the Y^0
    terms, at unit width).  The polynomial degree never grows and the total
    integral is preserved.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if mode not in MODE_AXES:
        raise ValueError("mode must be 'A' or 'B'")
    x_axis, p_axis = MODE_AXES[mode]
    w = np.array(W.widths)
    mx, w[x_axis] = _loss_matrix(w[x_axis], W.coeffs.shape[x_axis], eta)
    mp, w[p_axis] = _loss_matrix(w[p_axis], W.coeffs.shape[p_axis], eta)
    # the mode's two axes last, so both matrices act by one matmul each side
    order = (2, 3, 0, 1) if mode == "A" else (0, 1, 2, 3)
    c = mx @ W.coeffs.transpose(order) @ mp.T
    return GaussianPolyWigner(widths=w, coeffs=c.transpose(order))


def _mode_kernel(W: GaussianPolyWigner, mode: str) -> np.ndarray:
    """K[a, b, p, q]: integral of X^p P^q times the |b><a| table of ``mode``.

    Multiplying by a pair table adds 1 to each width, so the integrals are
    the pair polynomials contracted with Hankel tables of the moments at
    width + 1.
    """
    hankel = [
        _SUM_INDEX[: W.coeffs.shape[axis], :3, : W.coeffs.shape[axis] + 2]
        @ _moments(W.widths[axis] + 1.0, W.coeffs.shape[axis] + 2)
        for axis in MODE_AXES[mode]
    ]
    return np.einsum("abij,pi,qj->abpq", _PAIR_TABLES, *hankel)


def extract_projected(W: GaussianPolyWigner) -> ProjectedDensityMatrix:
    """Density-matrix block on {0,1}x{0,1} via overlap moment integrals.

    Element <a|rho|b> = (2 pi)^2 * integral of W times the Wigner transforms
    of |b_A><a_A| and |b_B><a_B|.  The sign convention of the coherence
    blocks is pinned by requiring the beam-splitter input state to give
    d = +1/2.  All sixteen positions are returned so the zero structure can
    be audited.
    """
    block = np.einsum(
        "pqrs,xzpq,ywrs->xyzw", W.coeffs, _mode_kernel(W, "A"), _mode_kernel(W, "B")
    )
    return ProjectedDensityMatrix((2.0 * math.pi) ** 2 * block.reshape(4, 4))


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
    hankel = sums @ _moments(a, deg_x + deg_p + 1)
    tables = np.einsum("aik,bjl,kl,ijn->abn", bx, bp, hankel, sums)
    return tables, c - b**2 / (4.0 * a)


def rotated_quadrature_pdf(W: GaussianPolyWigner, theta_a: float, theta_b: float):
    """Joint homodyne density p(x_A, x_B) at local-oscillator phases theta.

    Marginalizes W along the conjugates of X cos(theta) + P sin(theta) in
    both modes; returns a callable acting elementwise on broadcastable
    arrays.
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
