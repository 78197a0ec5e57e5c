"""Homodyne detection of the final two-mode state.

Joint quadrature statistics p(x_A, x_B | theta_A, theta_B) are closed form
on the Wigner function (``wigner.rotated_quadrature_pdf``) and, as the test
oracle, on the branch mixture (phase-rotated Hermite wavefunctions).
Sampling reads the arm-A halves u_k = amps[1, :, k] and v_k = amps[0, :, k]
of the Fock state and draws x_A from its exact marginal, a branch given x_A,
then x_B from that branch's pure conditional.  Each CDF is a per-draw linear
combination of cumulative tables built once per call (three basis rows for
x_A, running branch sums, pair products phi_m phi_n for x_B), inverted by
bisection over the grid index.  Blocks of samples get independent child
seeds from the master seed, so records are reproducible bit-for-bit.

Reconstruction maps quadrature samples to Fock-basis matrix elements with
pattern-function kernels: rho_mn = E[f_mn(x) e^{i(m-n)theta}] for phases
uniform on [0, pi).  The kernels are the closed forms of Leonhardt, Paul &
D'Ariano (PRA 52, 4899, 1995) and Richter (Phys. Lett. A 211, 327, 1996),
built on the Dawson function.  Elements of the {0,1}x{0,1} block are
estimated without cutoff bias; diagonal populations up to a cutoff per mode
are reported as diagnostics.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import dawsn

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
    phi0 = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    return _ladder(phi0, math.sqrt(2.0) * x * phi0, x, n_max)


def _ladder(first, second, x: np.ndarray, n_max: int) -> np.ndarray:
    """Rows 0..n_max of the normalized recurrence from rows 0 and 1:
    out[n+1] = (sqrt2 x out[n] - sqrt(n) out[n-1]) / sqrt(n+1) for n >= 1."""
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = first
    if n_max >= 1:
        out[1] = second
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * out[n]
            - math.sqrt(n / (n + 1)) * out[n - 1]
        )
    return out


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
# sampling
# ---------------------------------------------------------------------------


def _cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid cumulative along the last axis, zero-anchored."""
    seg = 0.5 * (values[..., 1:] + values[..., :-1]) * h
    out = np.zeros(values.shape)
    np.cumsum(seg, axis=-1, out=out[..., 1:])
    return out


def _bisect(below, size: int, n: int) -> np.ndarray:
    """Per draw, the last index i < n at which the monotone predicate
    ``below(i)`` holds (index 0 is taken to hold): a searchsorted whose
    values are evaluated only at the probed indices."""
    lo = np.zeros(size, dtype=np.intp)
    hi = np.full(size, n, dtype=np.intp)
    for _ in range((n - 1).bit_length()):
        mid = (lo + hi) >> 1
        ok = below(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return lo


def _draw(coef, table, stride: int, grid, u, density) -> np.ndarray:
    """Inverse-transform draws from the trapezoid CDFs coef[s] . table[i].

    ``table`` holds cumulative trapezoids of basis densities at grid points
    0, stride, 2 stride, ... and the last.  The bin holding quantile u[s] is
    found by bisection and filled with the exact trapezoid of
    ``density(points)`` (stride + 1 values per draw); the draw is the linear
    step inside its grid cell."""
    total = coef @ table[-1]
    if np.any(total <= 0):
        raise ValueError("density rows must carry positive mass")
    target = u * total

    def cdf(i):
        return np.einsum("sp,sp->s", coef, table[i])

    c = _bisect(lambda i: cdf(i) <= target, len(u), len(table) - 1)
    last = len(grid) - 1
    h = grid[1] - grid[0]
    pts = np.minimum(stride * c[:, None] + np.arange(stride + 1), last)
    pdf = density(pts)
    seg = 0.5 * (pdf[:, 1:] + pdf[:, :-1]) * h
    cum = np.cumsum(np.column_stack([cdf(c), seg]), axis=1)
    # cells past the last grid point (clamped in the final bin) are never chosen
    k = np.sum((cum[:, 1:-1] <= target[:, None]) & (pts[:, 1:-1] < last), axis=1)
    c0, c1 = np.take_along_axis(cum, np.stack([k, k + 1], axis=1), axis=1).T
    t = np.clip((target - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0, 1.0)
    return grid[np.take_along_axis(pts, k[:, None], axis=1)[:, 0]] + t * h


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
    u_mat, v_mat = np.ascontiguousarray(state.amps[::-1, :m_dim].transpose(0, 2, 1))
    zeta = np.einsum("km,km->k", v_mat.conj(), u_mat)  # <v_k|u_k>
    # branch k (row k of each (K, M) half) carries ||f1 u_k + f0 v_k||^2, the
    # features (phi1^2, phi0^2, 2 phi0 phi1 cos th_A, 2 phi0 phi1 sin th_A) of
    # a draw times (|u_k|^2, |v_k|^2, Re zeta_k, Im zeta_k); row k + 1 of
    # branch_cum sums those weights over branches 0..k
    norms = [np.einsum("km,km->k", s.conj(), s).real for s in (u_mat, v_mat)]
    per_branch = np.stack(norms + [zeta.real, zeta.imag], 1)
    branch_cum = np.cumsum(np.vstack([np.zeros(4), per_branch]), axis=0)
    a_tot, b_tot, zeta_re, zeta_im = branch_cum[-1]

    # arm A: the two-level marginal a phi1^2 + b phi0^2 + 2 c phi0 phi1 is a
    # 3-basis combination with c = Re(e^{-i th_A} zeta)
    grid_a = np.linspace(-8.0, 8.0, 1601)
    phi0, phi1 = hermite_functions(1, grid_a)
    basis_a = np.stack([phi1**2, phi0**2, 2.0 * phi0 * phi1])
    cum_a = _cumulative_trapezoid(basis_a, grid_a[1] - grid_a[0]).T  # (G, 3)

    # arm B grid: resolve the fastest oscillation of phi_support
    xb_lim = math.sqrt(2.0 * support + 1.0) + 5.0
    h_target = math.pi / (math.sqrt(2.0 * support + 1.0) * 18.0)
    n_b = int(min(max(2 * xb_lim / h_target, 601), 6001))
    grid_b = np.linspace(-xb_lim, xb_lim, n_b)
    phi_b_grid = hermite_functions(support, grid_b)  # (M, G)
    phi_b_rows = np.ascontiguousarray(phi_b_grid.T)  # (G, M)

    # arm B: the cumulative trapezoid of |c.phi|^2 is sum_{m<=n} R_mn T_mn with
    # R_mn = Re(c_m^* c_n) and T_mn that of phi_m phi_n (doubled off the
    # diagonal), kept at every stride-th grid point and the last; the stride
    # is the smallest power of two that keeps the table within the
    # 2 * block * G floats one block's tabulated complex amplitudes would take
    n_pairs = m_dim * (m_dim + 1) // 2
    stride = 1
    while n_pairs * ((n_b - 2) // stride + 2) > 2 * _BLOCK_SIZE * n_b:
        stride *= 2
    coarse = np.append(np.arange(0, n_b - 1, stride), n_b - 1)
    doubled = np.append(1.0, np.full(support, 2.0))[:, None]
    row_start = np.cumsum([0] + [m_dim - m for m in range(m_dim)])
    cum_b = np.concatenate([  # (len(coarse), n_pairs), pairs (m, n >= m) row-major
        _cumulative_trapezoid(
            phi_b_grid[m] * phi_b_grid[m:] * doubled[: m_dim - m], grid_b[1] - grid_b[0]
        )[:, coarse].T
        for m in range(m_dim)
    ], axis=1)

    n_blocks = (n_samples + _BLOCK_SIZE - 1) // _BLOCK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    grid_phases = np.pi * np.arange(6) / 6

    blocks = []
    for blk in range(n_blocks):
        rng = np.random.default_rng(children[blk])
        count = min(_BLOCK_SIZE, n_samples - blk * _BLOCK_SIZE)
        if phase_policy == "uniform_random":
            th_a = rng.uniform(0.0, np.pi, count)
            th_b = rng.uniform(0.0, np.pi, count)
        else:
            idx = blk * _BLOCK_SIZE + np.arange(count)
            th_a = grid_phases[(idx // len(grid_phases)) % len(grid_phases)]
            th_b = grid_phases[idx % len(grid_phases)]
        cos_a, sin_a = np.cos(th_a), np.sin(th_a)

        # x_A from its marginal, then a branch from w_k ||c_k||^2 given x_A
        coef_a = np.tile([a_tot, b_tot, 0.0], (count, 1))
        coef_a[:, 2] = cos_a * zeta_re + sin_a * zeta_im
        x_a = _draw(coef_a, cum_a, 1, grid_a, rng.random(count),
                    lambda pts: np.einsum("psk,sp->sk", basis_a[:, pts], coef_a))

        phi_a = hermite_functions(1, x_a)
        cross = 2.0 * phi_a[0] * phi_a[1]
        feats = np.stack(
            [phi_a[1] ** 2, phi_a[0] ** 2, cross * cos_a, cross * sin_a], axis=1
        )
        draws = rng.random(count) * (feats @ branch_cum[-1])
        k_sel = _bisect(
            lambda k: np.einsum("sf,sf->s", feats, branch_cum[k]) < draws,
            count, len(state),
        )

        # x_B from the chosen branch's pure conditional |c.phi(x)|^2
        coeff = (
            ((cos_a - 1j * sin_a) * phi_a[1])[:, None] * u_mat[k_sel]
            + phi_a[0][:, None] * v_mat[k_sel]
        ) * np.exp(-1j * np.outer(th_b, np.arange(m_dim)))  # (S, M)
        re, im = coeff.real, coeff.imag
        r_mat = np.empty((count, n_pairs))
        for m in range(m_dim):
            r_mat[:, row_start[m]:row_start[m + 1]] = (
                re[:, m:m + 1] * re[:, m:] + im[:, m:m + 1] * im[:, m:]
            )

        def density_b(pts):
            amp = np.einsum("sm,skm->sk", coeff, phi_b_rows[pts])
            return amp.real**2 + amp.imag**2

        x_b = _draw(r_mat, cum_b, stride, grid_b, rng.random(count), density_b)

        blocks.append((th_a, th_b, x_a, x_b))

    return TomographyRecord(
        *(np.concatenate(col) for col in zip(*blocks)),
        seed=seed, config_snapshot=dict(config_snapshot or {}),
    )


# ---------------------------------------------------------------------------
# pattern-function reconstruction
# ---------------------------------------------------------------------------


def pattern_function(m: int, n: int, x) -> np.ndarray:
    """Tomographic kernel f_mn: rho_mn = E[f_mn(x) e^{i(m-n)theta}].

    For m >= n, f_mn = d/dx[psi_m phi_n] (Leonhardt et al., Richter) with the
    irregular oscillator solutions psi_0 = 2 pi^(1/4) e^{x^2/2} D(x), D the
    Dawson function, psi_1 = a^dag psi_0 and the phi_n recurrence above.
    d/dx = (a - a^dag)/sqrt2, with a psi_0 = sqrt2 pi^(1/4) e^{x^2/2} and
    a psi_m = sqrt(m) psi_{m-1} for m >= 1.  The e^{+-x^2/2} factors of psi
    and phi cancel in the product and are never formed.  The result is real
    and symmetric in (m, n).
    """
    if m < n:
        m, n = n, m
    x = np.asarray(x, dtype=float)
    daw = dawsn(x)
    # psi_k pi^(-1/4) e^{-x^2/2} and phi_k pi^(1/4) e^{x^2/2}
    psi = _ladder(2.0 * daw, math.sqrt(2.0) * (2.0 * x * daw - 1.0), x, m + 1)
    phi = _ladder(1.0, math.sqrt(2.0) * x, x, n + 1)
    lowered_psi = math.sqrt(m) * psi[m - 1] if m else math.sqrt(2.0)
    lowered_phi = math.sqrt(n) * phi[n - 1] if n else 0.0
    d_psi = lowered_psi - math.sqrt(m + 1) * psi[m + 1]
    d_phi = lowered_phi - math.sqrt(n + 1) * phi[n + 1]
    return (d_psi * phi[n] + psi[m] * d_phi) / math.sqrt(2.0)


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
    phases = (record.theta_a, record.theta_b)
    if min(len(np.unique(np.round(theta, 9))) for theta in phases) < needed:
        raise IllConditionedError(
            f"need at least {needed} distinct phases per arm to separate "
            f"harmonics up to order {n_cut}"
        )
    n_samples = len(record)
    # each kernel the block and the populations need, once per arm at the samples
    pairs = {(1, 0)} | {(m, m) for m in range(n_cut + 1)}
    arms = []
    for x, theta in ((record.x_a, record.theta_a), (record.x_b, record.theta_b)):
        kernels = {pair: pattern_function(*pair, x) for pair in pairs}
        harmonic = np.exp(1j * theta)
        kernels[0, 1] = kernels[1, 0] * harmonic.conj()
        kernels[1, 0] = kernels[1, 0] * harmonic
        arms.append(kernels)
    kern_a, kern_b = arms

    root_n = math.sqrt(n_samples)
    # all 16 elements: the lower triangle is the exact conjugate of the upper
    z = np.stack([
        kern_a[row // 2, col // 2] * kern_b[row % 2, col % 2]
        for row in range(4) for col in range(4)
    ])
    est = z.mean(axis=1).reshape(4, 4)
    se_re = (z.real.std(axis=1, ddof=1) / root_n).reshape(4, 4)
    se_im = (z.imag.std(axis=1, ddof=1) / root_n).reshape(4, 4)

    pops = np.stack([kern_a[m, m] for m in range(n_cut + 1)])[:, None] * np.stack(
        [kern_b[n, n] for n in range(n_cut + 1)]
    )
    ext = pops.mean(axis=-1)
    ext_se = pops.std(axis=-1, ddof=1) / root_n

    return ReconstructionResult(
        block=ProjectedDensityMatrix(est), estimate=est, se_real=se_re, se_imag=se_im,
        extended_populations=ext, extended_se=ext_se, n_samples=n_samples, n_cut=n_cut,
    )


def _block_concurrence(matrices: np.ndarray) -> np.ndarray:
    """Concurrence of noisy (..., 4, 4) estimates: Hermitian part, normalized;
    0 where the trace is <= 0."""
    m = 0.5 * (matrices + np.swapaxes(matrices.conj(), -1, -2))
    t = np.trace(m, axis1=-2, axis2=-1).real
    positive = t > 0
    values = spin_flip_concurrence(m / np.where(positive, t, 1.0)[..., None, None])[2]
    return np.where(positive, values, 0.0)


def concurrence_with_uncertainty(
    recon: ReconstructionResult, n_draws: int = 2000, seed: int = 1234
) -> tuple[float, float]:
    """Concurrence of the reconstructed block with a Monte-Carlo error bar.

    Element noise is resampled from the reported standard errors (Hermiticity
    re-imposed per draw); the spread of the resulting concurrence values is
    the quoted uncertainty.
    """
    central = float(_block_concurrence(recon.estimate))
    # per draw 16 real then 16 imaginary parts, the order of per-draw
    # rng.normal(scale=se) calls
    noise = np.random.default_rng(seed).standard_normal((n_draws, 2, 4, 4))
    noise = noise[:, 0] * recon.se_real + 1j * (noise[:, 1] * recon.se_imag)
    values = _block_concurrence(recon.estimate + noise)
    return central, float(values.std(ddof=1))
