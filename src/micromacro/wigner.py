"""Closed-form two-mode Wigner engine: polynomial times axis-aligned Gaussian.

Every state reachable in this experiment keeps the form
W = poly(X_A, P_A, X_B, P_B) * exp(-g_XA X_A^2 - g_PA P_A^2 - g_XB X_B^2 - g_PB P_B^2)
with polynomial degree at most two per variable, so squeezing (a quadrature
rescale), photon loss (a Gaussian convolution done by completing the square)
and density-matrix extraction (Gaussian moment integrals) are all exact.
Quadrature units put the vacuum variance at 1/2, i.e. the vacuum Wigner
function is exp(-(X^2+P^2))/pi.

The completed-square algebra below is written in terms of s = 1-eta and
D = eta + (1-eta)*gamma, which cancels the 1/(1-eta) kernel normalization
symbolically and stays well-conditioned for eta near 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import ProjectedDensityMatrix

#: axis indices into widths/coefficient tensors: (X_A, P_A, X_B, P_B)
MODE_AXES = {"A": (0, 1), "B": (2, 3)}

MAX_QUERY_EXPONENT = 6


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


def _double_factorial(n: int) -> int:
    # (-1)!! = 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gauss_moment_1d(p: int, gamma: float) -> float:
    """integral of x^p exp(-gamma x^2) over the real line."""
    if p % 2 == 1:
        return 0.0
    return _double_factorial(p - 1) / (2.0 * gamma) ** (p // 2) * math.sqrt(
        math.pi / gamma
    )


def _moments(gamma: float, count: int) -> np.ndarray:
    """Moment table [_gauss_moment_1d(p, gamma) for p < count]."""
    return np.array([_gauss_moment_1d(p, gamma) for p in range(count)])


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


def initial_wigner() -> GaussianPolyWigner:
    """Wigner function of (|1>_A|0>_B + |0>_A|1>_B)/sqrt(2).

    Expanding the four operator terms of the projector gives, inside the unit
    Gaussian, [(2X_A^2 + 2P_A^2 - 1) + (2X_B^2 + 2P_B^2 - 1)
    + 4 X_A X_B + 4 P_A P_B] / (2 pi^2).
    """
    c = np.zeros((3, 3, 3, 3), dtype=complex)
    pref = 1.0 / (2.0 * math.pi**2)
    c[0, 0, 0, 0] = -2.0 * pref
    c[2, 0, 0, 0] = 2.0 * pref
    c[0, 2, 0, 0] = 2.0 * pref
    c[0, 0, 2, 0] = 2.0 * pref
    c[0, 0, 0, 2] = 2.0 * pref
    c[1, 0, 1, 0] = 4.0 * pref
    c[0, 1, 0, 1] = 4.0 * pref
    return GaussianPolyWigner(widths=np.ones(4), coeffs=c)


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


def _convolve_axis(
    coeffs: np.ndarray, gamma: float, axis: int, eta: float
) -> tuple[np.ndarray, float]:
    """Attenuation convolution along one quadrature axis.

    For an input term t^p exp(-gamma t^2), completing the square against the
    kernel exp(-eta/(1-eta) (t - Y/sqrt(eta))^2)/sqrt(pi(1-eta)) gives
    new width gamma/D and, for each even j <= p, a Y^(p-j) term weighted by
    C(p, j) (j-1)!! (s/(2D))^(j/2) u^(p-j) / sqrt(D),
    with s = 1-eta, D = eta + s*gamma, u = sqrt(eta)/D.
    """
    s = 1.0 - eta
    D = eta + s * gamma
    u = math.sqrt(eta) / D
    out = np.zeros_like(coeffs)
    moved = np.moveaxis(coeffs, axis, 0)
    out_moved = np.moveaxis(out, axis, 0)
    pmax = coeffs.shape[axis] - 1
    for p in range(pmax + 1):
        for j in range(0, p + 1, 2):
            q = p - j
            factor = (
                math.comb(p, j)
                * _double_factorial(j - 1)
                * (s / (2.0 * D)) ** (j // 2)
                * u**q
                / math.sqrt(D)
            )
            out_moved[q] += factor * moved[p]
    return out, gamma / D


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
    c = np.array(W.coeffs, dtype=complex)
    w = np.array(W.widths)
    c, w[x_axis] = _convolve_axis(c, w[x_axis], x_axis, eta)
    c, w[p_axis] = _convolve_axis(c, w[p_axis], p_axis, eta)
    return GaussianPolyWigner(widths=w, coeffs=c)


def _mode_kernel(W: GaussianPolyWigner, mode: str) -> np.ndarray:
    """K[a, b, p, q]: integral of X^p P^q times the |b><a| table of ``mode``.

    Multiplying by a pair table adds 1 to each width, so the integrals are
    the pair polynomials contracted with Hankel tables of the moments at
    width + 1.
    """
    hankel = [
        _moments(W.widths[axis] + 1.0, W.coeffs.shape[axis] + 2)[
            np.add.outer(np.arange(W.coeffs.shape[axis]), np.arange(3))
        ]
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
    e2r = math.exp(2.0 * r)
    if axis == "x":
        x2, p2 = e2r * pts**2, np.zeros_like(pts)
    else:
        x2, p2 = np.zeros_like(pts), pts**2 / e2r
    gauss = np.exp(-x2 - p2) / math.pi
    if key == "S0":
        return gauss
    return (-1.0 + 2.0 * x2 + 2.0 * p2) * gauss


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
    c_hat = c - b**2 / (4.0 * a)
    deg_x = W.coeffs.shape[x_axis] - 1
    deg_p = W.coeffs.shape[p_axis] - 1
    tables = np.zeros((deg_x + 1, deg_p + 1, deg_x + deg_p + 1))
    for alpha in range(deg_x + 1):
        for beta in range(deg_p + 1):
            for i1 in range(alpha + 1):
                for i2 in range(beta + 1):
                    pref = (
                        math.comb(alpha, i1)
                        * ct**i1
                        * (-st) ** (alpha - i1)
                        * math.comb(beta, i2)
                        * st**i2
                        * ct ** (beta - i2)
                    )
                    if pref == 0.0:
                        continue
                    m = (alpha - i1) + (beta - i2)
                    base_pow = i1 + i2
                    # integral of s^m exp(-a s^2 - b x s) ds, x-dependence expanded
                    for j in range(0, m + 1, 2):
                        g_j = (
                            _double_factorial(j - 1)
                            / (2.0 * a) ** (j // 2)
                            * math.sqrt(math.pi / a)
                        )
                        coeff = (
                            pref
                            * math.comb(m, j)
                            * (-b / (2.0 * a)) ** (m - j)
                            * g_j
                        )
                        tables[alpha, beta, base_pow + (m - j)] += coeff
    return tables, c_hat


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
