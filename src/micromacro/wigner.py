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
        xa, pa, xb, pb = np.broadcast_arrays(
            np.asarray(xa, dtype=float),
            np.asarray(pa, dtype=float),
            np.asarray(xb, dtype=float),
            np.asarray(pb, dtype=float),
        )
        total = np.zeros(xa.shape, dtype=complex)
        da, db, dc, dd = self.coeffs.shape
        pow_xa = [xa**i for i in range(da)]
        pow_pa = [pa**i for i in range(db)]
        pow_xb = [xb**i for i in range(dc)]
        pow_pb = [pb**i for i in range(dd)]
        for p in range(da):
            for q in range(db):
                for r in range(dc):
                    for s in range(dd):
                        c = self.coeffs[p, q, r, s]
                        if c != 0:
                            total += c * pow_xa[p] * pow_pa[q] * pow_xb[r] * pow_pb[s]
        g = np.exp(
            -self.widths[0] * xa**2
            - self.widths[1] * pa**2
            - self.widths[2] * xb**2
            - self.widths[3] * pb**2
        )
        return total * g

    def total_integral(self) -> complex:
        return gaussian_moment(self, (0, 0, 0, 0))


@dataclass(frozen=True)
class MomentQuery:
    """Exponent quadruple (a, b, c, d) for <X_A^a P_A^b X_B^c P_B^d>."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for e in (self.a, self.b, self.c, self.d):
            if e < 0 or e > MAX_QUERY_EXPONENT:
                raise ValueError(
                    f"moment exponents must lie in 0..{MAX_QUERY_EXPONENT}"
                )

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


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


def gaussian_moment(W: GaussianPolyWigner, query) -> complex:
    """Exact integral of X_A^a P_A^b X_B^c P_B^d against W."""
    if isinstance(query, MomentQuery):
        exps = query.exponents
    else:
        exps = MomentQuery(*tuple(query)).exponents
    moment_vectors = []
    for axis in range(4):
        size = W.coeffs.shape[axis]
        gamma = W.widths[axis]
        moment_vectors.append(
            np.array([_gauss_moment_1d(p + exps[axis], gamma) for p in range(size)])
        )
    return complex(
        np.einsum(
            "pqrs,p,q,r,s->",
            W.coeffs,
            moment_vectors[0],
            moment_vectors[1],
            moment_vectors[2],
            moment_vectors[3],
        )
    )


# ---------------------------------------------------------------------------
# single-mode building blocks: Wigner transforms of |b><a| on {0,1}
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _fock_pair_table(ket: int, bra: int) -> np.ndarray:
    """2D (x_pow, p_pow) polynomial of the Wigner transform of |ket><bra|.

    All carry the unit Gaussian exp(-(X^2+P^2)); the polynomial parts are
    1/pi, sqrt(2)(X -+ iP)/pi and (-1 + 2X^2 + 2P^2)/pi.
    """
    t = np.zeros((3, 3), dtype=complex)
    if (ket, bra) == (0, 0):
        t[0, 0] = 1.0 / math.pi
    elif (ket, bra) == (1, 1):
        t[0, 0] = -1.0 / math.pi
        t[2, 0] = 2.0 / math.pi
        t[0, 2] = 2.0 / math.pi
    elif (ket, bra) == (1, 0):
        t[1, 0] = _SQRT2 / math.pi
        t[0, 1] = -1j * _SQRT2 / math.pi
    elif (ket, bra) == (0, 1):
        t[1, 0] = _SQRT2 / math.pi
        t[0, 1] = 1j * _SQRT2 / math.pi
    else:
        raise ValueError("only photon numbers 0 and 1 are supported")
    return t


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
    xb_axis, pb_axis = MODE_AXES["B"]
    c = np.array(W.coeffs, dtype=complex)
    nx = c.shape[xb_axis]
    npow = c.shape[pb_axis]
    scale_x = lam ** np.arange(nx)
    scale_p = (1.0 / lam) ** np.arange(npow)
    c = c * scale_x[None, None, :, None] * scale_p[None, None, None, :]
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


def _multiply_mode_tables(
    W: GaussianPolyWigner, table_a: np.ndarray, table_b: np.ndarray
) -> GaussianPolyWigner:
    """Multiply W by per-mode polynomials carrying unit Gaussians."""
    da, dbp = table_a.shape
    dc, dd = table_b.shape
    base = W.coeffs
    shape = (
        base.shape[0] + da - 1,
        base.shape[1] + dbp - 1,
        base.shape[2] + dc - 1,
        base.shape[3] + dd - 1,
    )
    out = np.zeros(shape, dtype=complex)
    for i in range(da):
        for j in range(dbp):
            ca = table_a[i, j]
            if ca == 0:
                continue
            for k in range(dc):
                for l in range(dd):
                    cb = table_b[k, l]
                    if cb == 0:
                        continue
                    out[i : i + base.shape[0], j : j + base.shape[1],
                        k : k + base.shape[2], l : l + base.shape[3]] += (
                        ca * cb * base
                    )
    return GaussianPolyWigner(widths=W.widths + 1.0, coeffs=out)


def extract_projected(W: GaussianPolyWigner) -> ProjectedDensityMatrix:
    """Density-matrix block on {0,1}x{0,1} via overlap moment integrals.

    Element <a|rho|b> = (2 pi)^2 * integral of W times the Wigner transforms
    of |b_A><a_A| and |b_B><a_B|.  The sign convention of the coherence
    blocks is pinned by requiring the beam-splitter input state to give
    d = +1/2.  All sixteen positions are returned so the zero structure can
    be audited.
    """
    m = np.zeros((4, 4), dtype=complex)
    for row in range(4):
        a_A, a_B = divmod(row, 2)
        for col in range(4):
            b_A, b_B = divmod(col, 2)
            product = _multiply_mode_tables(
                W, _fock_pair_table(b_A, a_A), _fock_pair_table(b_B, a_B)
            )
            m[row, col] = (2.0 * math.pi) ** 2 * gaussian_moment(
                product, (0, 0, 0, 0)
            )
    return ProjectedDensityMatrix(m)


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
    Returns (table of coefficient vectors, c_hat).
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
    tables = {}
    for alpha in range(deg_x + 1):
        for beta in range(deg_p + 1):
            poly = np.zeros(alpha + beta + 1, dtype=float)
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
                        poly[base_pow + (m - j)] += coeff
            tables[(alpha, beta)] = poly
    return tables, c_hat


def rotated_quadrature_pdf(W: GaussianPolyWigner, theta_a: float, theta_b: float):
    """Joint homodyne density p(x_A, x_B) at local-oscillator phases theta.

    Marginalizes W along the conjugates of X cos(theta) + P sin(theta) in
    both modes; returns a callable acting elementwise on broadcastable
    arrays.
    """
    tab_a, chat_a = _marginalize_mode(W, "A", theta_a)
    tab_b, chat_b = _marginalize_mode(W, "B", theta_b)
    da = W.coeffs.shape[0] + W.coeffs.shape[1] - 1
    db = W.coeffs.shape[2] + W.coeffs.shape[3] - 1
    R = np.zeros((da, db), dtype=complex)
    for p in range(W.coeffs.shape[0]):
        for q in range(W.coeffs.shape[1]):
            for r in range(W.coeffs.shape[2]):
                for s in range(W.coeffs.shape[3]):
                    cval = W.coeffs[p, q, r, s]
                    if cval == 0:
                        continue
                    pa = tab_a[(p, q)]
                    pb = tab_b[(r, s)]
                    R[: len(pa), : len(pb)] += cval * np.outer(pa, pb)

    def pdf(x_a, x_b):
        x_a = np.asarray(x_a, dtype=float)
        x_b = np.asarray(x_b, dtype=float)
        xa, xb = np.broadcast_arrays(x_a, x_b)
        acc = np.zeros(xa.shape, dtype=complex)
        for i in range(R.shape[0]):
            for j in range(R.shape[1]):
                if R[i, j] != 0:
                    acc += R[i, j] * xa**i * xb**j
        out = acc * np.exp(-chat_a * xa**2 - chat_b * xb**2)
        return out.real

    return pdf
