"""Homodyne detection of the final two-mode state.

Joint quadrature statistics p(x_A, x_B | theta_A, theta_B) are available in
closed form from two independent routes: phase-rotated Hermite-function
wavefunctions summed over the branch mixture, or marginalization of the
Wigner function along the rotated conjugate quadratures.  Sampling uses
inverse-CDF draws of x_A followed by the branch-resolved conditional of x_B,
both on adaptive grids; blocks of samples get independent child seeds from
the master seed, so records are reproducible bit-for-bit.

Reconstruction maps quadrature samples to Fock-basis matrix elements with
pattern-function kernels: rho_mn = E[f_mn(x) e^{i(m-n)theta}] for phases
uniform on [0, pi).  The kernels are computed from the displacement-operator
integral f_mn(x) = (1/2) int |l| e^{ilx} <m|e^{-ilX}|n> dl, which converges
absolutely through the e^{-l^2/4} factor.  Elements of the {0,1}x{0,1} block
are estimated without cutoff bias; diagonal populations up to a cutoff per
mode are reported as diagnostics.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from . import wigner as wg
from .entanglement import ProjectedDensityMatrix, spin_flip_concurrence
from .errors import IllConditionedError
from .fock import BranchEnsemble

RECORD_SCHEMA = "tomography-record v1"
_BLOCK_SIZE = 2048


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Normalized oscillator eigenfunctions phi_0..phi_n_max at points x.

    Vacuum variance 1/2: phi_0(x) = pi^(-1/4) exp(-x^2/2).  The normalized
    three-term recurrence is stable for the supports used here.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * out[n]
            - math.sqrt(n / (n + 1)) * out[n - 1]
        )
    return out


@dataclass(frozen=True)
class QuadratureSample:
    """One joint homodyne outcome at local-oscillator phases (theta_a, theta_b)."""

    theta_a: float
    theta_b: float
    x_a: float
    x_b: float


@dataclass
class TomographyRecord:
    """Columnar sample record, reproducible from (seed, config snapshot)."""

    theta_a: np.ndarray
    theta_b: np.ndarray
    x_a: np.ndarray
    x_b: np.ndarray
    seed: int | None = None
    config_snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(self.theta_a), len(self.theta_b), len(self.x_a), len(self.x_b)}
        if len(lengths) != 1:
            raise ValueError("record columns must have equal length")

    def __len__(self) -> int:
        return len(self.x_a)

    def samples(self):
        for ta, tb, xa, xb in zip(self.theta_a, self.theta_b, self.x_a, self.x_b):
            yield QuadratureSample(ta, tb, xa, xb)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# schema: {RECORD_SCHEMA}\n")
        if self.seed is not None:
            buf.write(f"# seed: {self.seed}\n")
        for key in sorted(self.config_snapshot):
            buf.write(f"# config {key} = {self.config_snapshot[key]}\n")
        buf.write("theta_a,theta_b,x_a,x_b\n")
        for ta, tb, xa, xb in zip(self.theta_a, self.theta_b, self.x_a, self.x_b):
            buf.write(f"{ta:.12f},{tb:.12f},{xa:.12f},{xb:.12f}\n")
        return buf.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def from_csv_text(cls, text: str) -> "TomographyRecord":
        seed = None
        snapshot = {}
        rows = []
        header_seen = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# seed:"):
                    seed = int(line.split(":", 1)[1])
                elif line.startswith("# config ") and "=" in line:
                    key, value = line[len("# config "):].split("=", 1)
                    snapshot[key.strip()] = value.strip()
                continue
            if not header_seen:
                if line.replace(" ", "") != "theta_a,theta_b,x_a,x_b":
                    raise ValueError(f"unexpected header line {line!r}")
                header_seen = True
                continue
            rows.append([float(tok) for tok in line.split(",")])
        if not rows:
            raise ValueError("record contains no samples")
        arr = np.asarray(rows, dtype=float)
        return cls(
            theta_a=arr[:, 0], theta_b=arr[:, 1], x_a=arr[:, 2], x_b=arr[:, 3],
            seed=seed, config_snapshot=snapshot,
        )

    @classmethod
    def from_csv(cls, path) -> "TomographyRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv_text(fh.read())


# ---------------------------------------------------------------------------
# exact joint quadrature densities
# ---------------------------------------------------------------------------


def joint_pdf(state, theta_a: float, theta_b: float):
    """Exact joint density p(x_A, x_B) of homodyne outcomes.

    ``state`` is either the BranchEnsemble from the Fock engine or a
    GaussianPolyWigner; the two routes agree pointwise.  Returns a callable
    acting elementwise on broadcastable arrays.
    """
    if isinstance(state, wg.GaussianPolyWigner):
        return wg.rotated_quadrature_pdf(state, theta_a, theta_b)
    phases_b = np.exp(-1j * theta_b * np.arange(state.n_max + 1))[:, None]
    u_rot, v_rot = phases_b * state.U, phases_b * state.V
    phase_a = np.exp(-1j * theta_a)

    def pdf(x_a, x_b):
        xa, xb = np.broadcast_arrays(
            np.asarray(x_a, dtype=float), np.asarray(x_b, dtype=float)
        )
        phi_a = hermite_functions(1, xa)
        phi_b = hermite_functions(state.n_max, xb)
        u_amp = np.tensordot(u_rot, phi_b, axes=(0, 0))  # (K,) + x shape
        v_amp = np.tensordot(v_rot, phi_b, axes=(0, 0))
        amp = phase_a * phi_a[1] * u_amp + phi_a[0] * v_amp
        return np.tensordot(state.weights, np.abs(amp) ** 2, axes=1)

    return pdf


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid cumulative along the last axis, zero-anchored."""
    seg = 0.5 * (values[..., 1:] + values[..., :-1]) * h
    out = np.zeros(values.shape)
    np.cumsum(seg, axis=-1, out=out[..., 1:])
    return out


def _invert_cdf_rows(
    cdf: np.ndarray, grid: np.ndarray, quantiles: np.ndarray
) -> np.ndarray:
    """Per-row inverse-transform draws from tabulated monotone CDFs.

    Rows are normalized, offset by 2*row so the flattened array stays
    sorted, inverted with one searchsorted, and refined by linear
    interpolation inside the bin.  ``cdf`` is consumed in place.
    """
    n_rows, n_pts = cdf.shape
    tot = cdf[:, -1]
    if np.any(tot <= 0):
        raise ValueError("density rows must carry positive mass")
    cdf /= tot[:, None]
    offsets = 2.0 * np.arange(n_rows)
    cdf += offsets[:, None]
    pos = np.searchsorted(cdf.ravel(), quantiles + offsets, side="right") - 1
    j = np.clip(pos - np.arange(n_rows) * n_pts, 0, n_pts - 2)
    rows = np.arange(n_rows)
    c0 = cdf[rows, j] - offsets
    c1 = cdf[rows, j + 1] - offsets
    denom = np.where(c1 - c0 > 0, c1 - c0, 1.0)
    t = np.clip((quantiles - c0) / denom, 0.0, 1.0)
    return grid[j] + t * (grid[1] - grid[0])


def _inverse_cdf_rows(
    pdf_rows: np.ndarray, grid: np.ndarray, quantiles: np.ndarray
) -> np.ndarray:
    """Inverse-transform draws from tabulated densities (one row per draw)."""
    pdf_rows = np.clip(pdf_rows, 0.0, None)
    return _invert_cdf_rows(
        _cumulative_trapezoid(pdf_rows, grid[1] - grid[0]), grid, quantiles
    )


def _phase_grid(n_phases: int = 6) -> np.ndarray:
    return np.pi * np.arange(n_phases) / n_phases


def sample(
    state: BranchEnsemble,
    n_samples: int,
    phase_policy: str = "uniform_random",
    seed: int = 0,
    config_snapshot: dict | None = None,
) -> TomographyRecord:
    """Draw i.i.d. joint homodyne samples from the branch ensemble.

    Phases are uniform on [0, pi) per sample (default) or cycle through a
    fixed 6x6 grid.  x_A is drawn from its exact marginal, then x_B from the
    conditional given x_A, resolved over branches.  Per-block child seeds
    derived from ``seed`` make the record deterministic.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if phase_policy not in ("uniform_random", "fixed_grid"):
        raise ValueError("phase_policy must be 'uniform_random' or 'fixed_grid'")
    if len(state) == 0:
        raise ValueError("empty branch ensemble")
    support = state.support(1e-12)
    m_dim = support + 1
    weights = state.weights
    u_mat = np.ascontiguousarray(state.U[:m_dim].T)  # (K, M)
    v_mat = np.ascontiguousarray(state.V[:m_dim].T)
    nu = np.einsum("km,km->k", u_mat.conj(), u_mat).real
    nv = np.einsum("km,km->k", v_mat.conj(), v_mat).real
    zeta = np.einsum("km,km->k", v_mat.conj(), u_mat)  # <v_k|u_k>
    a_tot = float(np.sum(weights * nu))
    b_tot = float(np.sum(weights * nv))
    zeta_tot = complex(np.sum(weights * zeta))

    # arm A: the two-level marginal is a fixed 3-basis combination, so its
    # cumulative trapezoids are precomputed once
    xa_lim = 8.0
    grid_a = np.linspace(-xa_lim, xa_lim, 1601)
    h_a = grid_a[1] - grid_a[0]
    phi_a_grid = hermite_functions(1, grid_a)
    cum_a = _cumulative_trapezoid(
        np.stack(
            [phi_a_grid[1] ** 2, phi_a_grid[0] ** 2, phi_a_grid[0] * phi_a_grid[1]]
        ),
        h_a,
    )

    # arm B grid: resolve the fastest oscillation of phi_support
    xb_lim = math.sqrt(2.0 * support + 1.0) + 5.0
    h_target = math.pi / (math.sqrt(2.0 * support + 1.0) * 18.0)
    n_b = int(min(max(2 * xb_lim / h_target, 601), 6001))
    grid_b = np.linspace(-xb_lim, xb_lim, n_b)
    phi_b_grid = hermite_functions(support, grid_b)  # (M, G)

    n_blocks = (n_samples + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    grid_phases = _phase_grid()

    cols = {"theta_a": [], "theta_b": [], "x_a": [], "x_b": []}
    for blk in range(n_blocks):
        rng = np.random.default_rng(children[blk])
        count = min(_BLOCK_SIZE, n_samples - blk * _BLOCK_SIZE)
        if phase_policy == "uniform_random":
            th_a = rng.uniform(0.0, np.pi, count)
            th_b = rng.uniform(0.0, np.pi, count)
        else:
            start = blk * _BLOCK_SIZE
            idx = np.arange(start, start + count)
            th_a = grid_phases[(idx // len(grid_phases)) % len(grid_phases)]
            th_b = grid_phases[idx % len(grid_phases)]

        # x_A from  a*phi1^2 + b*phi0^2 + 2 Re(e^{-i th} zeta) phi0 phi1
        c_s = np.real(np.exp(-1j * th_a) * zeta_tot)
        cdf_a = (a_tot * cum_a[0] + b_tot * cum_a[1]) + 2.0 * np.outer(
            c_s, cum_a[2]
        )
        x_a = _invert_cdf_rows(cdf_a, grid_a, rng.random(count))

        phi_a = hermite_functions(1, x_a)
        f1 = np.exp(-1j * th_a) * phi_a[1]
        f0 = phi_a[0]

        # choose a branch from w_k ||c_k||^2, then x_B from the pure conditional
        qk = weights[:, None] * (
            np.abs(f1[None, :]) ** 2 * nu[:, None]
            + f0[None, :] ** 2 * nv[:, None]
            + 2.0 * (f0 * phi_a[1])[None, :] * np.real(
                np.exp(-1j * th_a)[None, :] * zeta[:, None]
            )
        )
        qk = np.clip(qk, 0.0, None)
        cum_k = np.cumsum(qk, axis=0)
        draws = rng.random(count) * cum_k[-1]
        k_sel = np.argmax(cum_k >= draws[None, :], axis=0)

        coeff = f1[:, None] * u_mat[k_sel] + f0[:, None] * v_mat[k_sel]  # (S, M)
        coeff = coeff * np.exp(-1j * np.outer(th_b, np.arange(m_dim)))
        amp = coeff @ phi_b_grid  # (S, G)
        pdf_b = amp.real**2 + amp.imag**2
        x_b = _inverse_cdf_rows(pdf_b, grid_b, rng.random(count))

        cols["theta_a"].append(th_a)
        cols["theta_b"].append(th_b)
        cols["x_a"].append(x_a)
        cols["x_b"].append(x_b)

    return TomographyRecord(
        theta_a=np.concatenate(cols["theta_a"]),
        theta_b=np.concatenate(cols["theta_b"]),
        x_a=np.concatenate(cols["x_a"]),
        x_b=np.concatenate(cols["x_b"]),
        seed=seed,
        config_snapshot=dict(config_snapshot or {}),
    )


# ---------------------------------------------------------------------------
# pattern-function reconstruction
# ---------------------------------------------------------------------------


def pattern_function(m: int, n: int, x) -> np.ndarray:
    """Tomographic kernel f_mn: rho_mn = E[f_mn(x) e^{i(m-n)theta}].

    f_mn(x) = (1/2) int |l| e^{ilx} <m|e^{-ilX}|n> dl with the matrix element
    sqrt(n!/m!) (-il/sqrt2)^{m-n} e^{-l^2/4} L_n^{(m-n)}(l^2/2); the result is
    real and symmetric in (m, n).  Evaluated by Gauss-Legendre quadrature on
    the half line (the integrand decays like e^{-l^2/4}).
    """
    if m < n:
        m, n = n, m
    x = np.asarray(x, dtype=float)
    nodes, wts = np.polynomial.legendre.leggauss(800)
    lam_max = 14.0
    lam = 0.5 * lam_max * (nodes + 1.0)
    wts = 0.5 * lam_max * wts
    diff = m - n
    pref = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
    g = (
        pref
        * (lam / math.sqrt(2.0)) ** diff
        * np.exp(-(lam**2) / 4.0)
        * eval_genlaguerre(n, diff, lam**2 / 2.0)
    )
    # fold the (-i)^diff phase with e^{+-ilx}: even diff -> cos, odd -> sin
    phase_factor = (-1j) ** diff
    if diff % 2 == 0:
        kernel = np.cos(np.outer(x, lam))
        sign = phase_factor.real  # (-1)^(diff/2)
    else:
        kernel = np.sin(np.outer(x, lam))
        sign = (1j * phase_factor).real  # from i * (-i)^diff
    return sign * kernel @ (lam * g * wts)


@dataclass
class ReconstructionResult:
    """Estimated block with per-element standard errors and diagnostics."""

    block: ProjectedDensityMatrix
    estimate: np.ndarray  # 4x4 complex, Hermitian by construction
    se_real: np.ndarray  # 4x4
    se_imag: np.ndarray  # 4x4
    extended_populations: np.ndarray  # (n_cut+1, n_cut+1) real
    extended_se: np.ndarray
    n_samples: int
    n_cut: int


def _distinct_phase_count(theta: np.ndarray) -> int:
    return len(np.unique(np.round(theta, 9)))


def reconstruct(record: TomographyRecord, n_cut: int = 3) -> ReconstructionResult:
    """Unbiased pattern-function estimates of the {0,1}x{0,1} block.

    Each block element <a|rho|b> is a sample mean of
    f_{m m'}(x_A) e^{i(m-m')theta_A} f_{n n'}(x_B) e^{i(n-n')theta_B};
    standard errors are the sample standard deviations over sqrt(N).
    Diagonal populations up to ``n_cut`` photons per mode are returned as
    diagnostics.  Records whose phases cannot separate the needed harmonics
    raise IllConditionedError.
    """
    needed = n_cut + 1
    if _distinct_phase_count(record.theta_a) < needed or _distinct_phase_count(
        record.theta_b
    ) < needed:
        raise IllConditionedError(
            f"need at least {needed} distinct phases per arm to separate "
            f"harmonics up to order {n_cut}"
        )
    n_samples = len(record)
    x_lim = max(
        10.0, abs(record.x_a).max() + 1.0, abs(record.x_b).max() + 1.0
    )
    x_grid = np.linspace(-x_lim, x_lim, 4001)
    pairs = [(m, n) for m in range(n_cut + 1) for n in range(m + 1)]
    tables = {pair: pattern_function(pair[0], pair[1], x_grid) for pair in pairs}

    def kernel_values(m, n, x, theta):
        key = (m, n) if m >= n else (n, m)
        f = np.interp(x, x_grid, tables[key])
        return f * np.exp(1j * (m - n) * theta)

    est = np.zeros((4, 4), dtype=complex)
    se_re = np.zeros((4, 4))
    se_im = np.zeros((4, 4))
    root_n = math.sqrt(n_samples)
    for row in range(4):
        m_a, m_b = divmod(row, 2)
        for col in range(row, 4):
            n_a, n_b = divmod(col, 2)
            z = kernel_values(m_a, n_a, record.x_a, record.theta_a) * kernel_values(
                m_b, n_b, record.x_b, record.theta_b
            )
            est[row, col] = z.mean()
            se_re[row, col] = z.real.std(ddof=1) / root_n
            se_im[row, col] = z.imag.std(ddof=1) / root_n
            if col != row:
                est[col, row] = np.conj(est[row, col])
                se_re[col, row] = se_re[row, col]
                se_im[col, row] = se_im[row, col]

    ext = np.zeros((n_cut + 1, n_cut + 1))
    ext_se = np.zeros_like(ext)
    for m in range(n_cut + 1):
        fa = np.interp(record.x_a, x_grid, tables[(m, m)])
        for n in range(n_cut + 1):
            fb = np.interp(record.x_b, x_grid, tables[(n, n)])
            z = fa * fb
            ext[m, n] = z.mean()
            ext_se[m, n] = z.std(ddof=1) / root_n

    return ReconstructionResult(
        block=ProjectedDensityMatrix(est),
        estimate=est,
        se_real=se_re,
        se_imag=se_im,
        extended_populations=ext,
        extended_se=ext_se,
        n_samples=n_samples,
        n_cut=n_cut,
    )


def _block_concurrence(matrix: np.ndarray) -> float:
    """Concurrence of a noisy estimate: Hermitian part, normalized; 0 at trace <= 0."""
    m = 0.5 * (matrix + matrix.conj().T)
    t = np.trace(m).real
    return spin_flip_concurrence(m / t)[2] if t > 0 else 0.0


def concurrence_with_uncertainty(
    recon: ReconstructionResult, n_draws: int = 2000, seed: int = 1234
) -> tuple[float, float]:
    """Concurrence of the reconstructed block with a Monte-Carlo error bar.

    Element noise is resampled from the reported standard errors (Hermiticity
    re-imposed per draw); the spread of the resulting concurrence values is
    the quoted uncertainty.
    """
    central = _block_concurrence(recon.estimate)
    rng = np.random.default_rng(seed)
    values = np.empty(n_draws)
    for i in range(n_draws):
        noise = rng.normal(scale=recon.se_real) + 1j * rng.normal(
            scale=recon.se_imag
        )
        values[i] = _block_concurrence(recon.estimate + noise)
    return central, float(values.std(ddof=1))
