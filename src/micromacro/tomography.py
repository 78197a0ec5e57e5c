"""Homodyne detection of the final two-mode state.

Joint quadrature statistics p(x_A, x_B | theta_A, theta_B) are closed form
on the Wigner function (``wigner.rotated_quadrature_pdf``) and, as the test
oracle, on the branch mixture (phase-rotated Hermite wavefunctions).
Sampling reads the arm-A halves u_k = amps[1, :, k] and v_k = amps[0, :, k]
of the Fock state and draws x_A from the marginal of arm A's reduced 2x2
state, then x_B from arm B's mixed conditional state given x_A:
phi1^2 U + phi0^2 V + 2 phi0 phi1 (cos th_A (Y + Y^dag)/2 + sin th_A
i(Y^dag - Y)/2) with U = sum_k u_k u_k^dag, V likewise and Y = sum_k
u_k v_k^dag, four fixed blocks whatever the branch count.  A state's
quadrature density at phase theta is sum_d Re(e^{-i d theta} T_d(x)) over
harmonic orders d, so each CDF is a linear combination, weighted by powers
of e^{i theta}, of the cumulative trapezoids of Re and Im T_d of each block,
tabulated once per call without the columns that vanish identically (at most
8 (support + 1), so a draw costs time linear in the support).  A diagonal
arm-A state (tr Y = 0, as photon parity makes it) gives every draw one CDF,
inverted by one search; per-draw CDFs are inverted by a bracketed bisection
over the grid index.  Blocks of samples get independent child seeds from the
master seed, so records are reproducible bit-for-bit.
Detection losses act on the quadratures (Lvovsky & Raymer, RMP 81, 299
(2009)): each block maps x -> sqrt(eta) x + sqrt(1 - eta) z, z ~ N(0, 1/2).

Reconstruction maps quadrature samples to Fock-basis matrix elements with
pattern-function kernels: rho_mn = E[f_mn(x) e^{i(m-n)theta}] for phases
uniform on [0, pi).  The kernels are the closed forms of Leonhardt, Paul &
D'Ariano (PRA 52, 4899, 1995) and Richter (Phys. Lett. A 211, 327, 1996),
built on the Dawson function.  Elements of the {0,1}x{0,1} block are
estimated without cutoff bias, from the kernels f_00, f_11 and f_10 alone,
through the first and second moments of the products of the arms' features
(f00, f11, f10 cos theta, f10 sin theta) summed over chunks of 2^14 samples:
10^5 samples take 0.017 s and 5 MiB (0.033 s and 56 MiB with a per-sample
stack of all 16 kernel products).  scipy (``dawsn``) loads on the first
``reconstruct``, inside ``_pattern_functions``, never at import.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import spin_flip_concurrence
from .errors import IllConditionedError
from .fock import BranchEnsemble
from .io import atomic_write_text

RECORD_SCHEMA = "tomography-record v1"
#: harmonic order per arm that ``reconstruct``'s distinct-phase guard asks
#: a record's phases to separate
N_CUT = 3
#: Monte-Carlo draws of the concurrence error bar
N_DRAWS = 2000
_BLOCK_SIZE = 2048
_KNOT = 16  # table rows between the brackets that start a CDF search
_CHUNK = 1 << 14  # samples per chunk of reconstruct's moment sums


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
        atomic_write_text(path, self.to_csv_text())

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


def _quadrature_table(blocks: np.ndarray, grid: np.ndarray):
    """Cumulative trapezoids on ``grid`` of the quadrature densities of the
    Hermitian (M, M) ``blocks``, split by harmonic order.

    At phase theta, block i has the density sum_d Re(e^{-i d theta} T_id)
    with T_id = w_d sum_n B_i[n+d, n] phi_{n+d} phi_n, w_0 = 1, w_d = 2 for
    d >= 1.  Column j of the (G, C) table is the cumulative Re T_id
    (``cols[1, j]`` = d) or Im T_id (``cols[1, j]`` = M + d) of block
    ``cols[0, j]``; columns that vanish identically are left out.
    """
    n_blocks, m_dim = blocks.shape[:2]
    parts, cols = [], []
    for d in range(m_dim):
        diag = np.diagonal(blocks, -d, axis1=1, axis2=2) * (2.0 if d else 1.0)
        rows = np.concatenate([diag.real, diag.imag]) if d else diag.real  # Im T_i0 = 0
        keep = np.flatnonzero(rows.any(axis=1))
        parts.append(rows[keep])
        cols.append(np.stack([keep % n_blocks, keep // n_blocks * m_dim + d]))
    cols = np.concatenate(cols, axis=1)
    phi = hermite_functions(m_dim - 1, grid).T  # (G, M)
    half_h = 0.5 * (grid[1] - grid[0])
    table = np.zeros((len(grid), cols.shape[1]))
    lo = 0
    for d, rows in enumerate(parts):
        if len(rows):
            dens = (phi[:, d:] * phi[:, : m_dim - d]) @ rows.T
            np.cumsum(half_h * (dens[1:] + dens[:-1]), axis=0,
                      out=table[1:, lo:lo + len(rows)])
            lo += len(rows)
    return table, cols


def _harmonics(weights, theta, m_dim: int, cols) -> np.ndarray:
    """Per draw s, the weights of the table columns ``cols``: weights[s, i]
    times cos(d theta[s]) on Re T_id and sin(d theta[s]) on Im T_id, as a
    C-contiguous (draws, columns) array, from the rows of the (M, draws)
    powers of e^{i theta}, built by repeated products."""
    powers = np.ones((m_dim, len(theta)), dtype=complex)
    powers[1:2] = np.exp(1j * theta)
    for d in range(2, m_dim):
        np.multiply(powers[d - 1], powers[1], out=powers[d])
    trig = np.concatenate([powers.real, powers.imag])
    return np.ascontiguousarray((weights.T[cols[0]] * trig[cols[1]]).T)


def _draw(coef, table, grid, u) -> np.ndarray:
    """Inverse-transform draws from trapezoid CDFs on ``grid``, coef[s] .
    table[i] per draw s, or table @ coef for every draw if ``coef`` is 1-D.
    The draw is the linear step between rows c and c + 1, c the last row
    i < n at or below the target (taken to hold at 0): one ``searchsorted``
    on a shared CDF, else ``_KNOT``-row brackets (one product), bisected."""
    n = len(table) - 1
    total = coef @ table[-1]
    if np.any(total <= 0):
        raise ValueError("density rows must carry positive mass")
    target = u * total
    if coef.ndim == 1:
        cdf = table @ coef
        c = np.maximum(np.searchsorted(cdf[:n], target, side="right") - 1, 0)
        c0, c1 = cdf[c], cdf[c + 1]
    else:
        knots = np.count_nonzero(coef @ table[:n:_KNOT].T <= target[:, None], axis=1)
        c = _KNOT * np.maximum(knots - 1, 0)
        hi = np.minimum(c + _KNOT, n)
        for _ in range((_KNOT - 1).bit_length()):
            mid = (c + hi) >> 1
            ok = np.einsum("sp,sp->s", coef, table[mid]) <= target
            c = np.where(ok, mid, c)
            hi = np.where(ok, hi, mid)
        c0, c1 = (np.einsum("sp,sp->s", coef, table[c + j]) for j in (0, 1))
    t = np.clip((target - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0, 1.0)
    return grid[c] + t * (grid[1] - grid[0])


def sample(
    state: BranchEnsemble,
    n_samples: int,
    phase_policy: str = "uniform_random",
    seed: int = 0,
    config_snapshot: dict | None = None,
) -> TomographyRecord:
    """Draw i.i.d. joint homodyne samples from the branch ensemble.

    Phases are uniform on [0, pi) per sample (default) or cycle through a
    fixed 6x6 grid.  x_A is drawn from its exact marginal, then x_B from arm
    B's mixed conditional state given x_A; ``state.detection_eta`` adds
    vacuum noise.  Per-block child seeds derived from ``seed`` make the
    record deterministic.
    """
    for name, value, low in (("n_samples", n_samples, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if phase_policy not in ("uniform_random", "fixed_grid"):
        raise ValueError("phase_policy must be 'uniform_random' or 'fixed_grid'")
    if len(state) == 0:
        raise ValueError("empty branch ensemble")
    support = state.support(1e-12)
    m_dim = support + 1
    u_mat, v_mat = state.amps[::-1, :m_dim]  # (M, K) halves u_k, v_k
    # arm B's blocks U, V, (Y + Y^dag)/2 and i(Y^dag - Y)/2 (module docstring)
    y_mat = u_mat @ v_mat.conj().T
    blocks_b = np.stack([u_mat @ u_mat.conj().T, v_mat @ v_mat.conj().T,
                         0.5 * (y_mat + y_mat.conj().T), 0.5j * (y_mat.conj().T - y_mat)])
    # arm A's reduced state in the basis (|0>, |1>)
    tr_y = np.trace(y_mat)
    rho_a = [[np.trace(blocks_b[1]), np.conj(tr_y)], [tr_y, np.trace(blocks_b[0])]]
    grid_a = np.linspace(-8.0, 8.0, 1601)
    table_a, cols_a = _quadrature_table(np.array([rho_a]), grid_a)

    # arm B grid: resolve the fastest oscillation of phi_support
    xb_lim = math.sqrt(2.0 * support + 1.0) + 5.0
    h_target = math.pi / (math.sqrt(2.0 * support + 1.0) * 18.0)
    n_b = int(min(max(2 * xb_lim / h_target, 601), 6001))
    grid_b = np.linspace(-xb_lim, xb_lim, n_b)
    table_b, cols_b = _quadrature_table(blocks_b, grid_b)

    eta = np.array(state.detection_eta)[:, None]
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
        coef_a = (_harmonics(np.ones((count, 1)), th_a, 2, cols_a) if cols_a[1].any()
                  else np.ones(cols_a.shape[1]))  # rho_A diagonal: one CDF
        x_a = _draw(coef_a, table_a, grid_a, rng.random(count))
        # the weights of arm B's four blocks given x_A
        phi_a = hermite_functions(1, x_a)
        cross = 2.0 * phi_a[0] * phi_a[1]
        feats = np.stack([phi_a[1] ** 2, phi_a[0] ** 2,
                          cross * np.cos(th_a), cross * np.sin(th_a)]).T
        x_b = _draw(_harmonics(feats, th_b, m_dim, cols_b), table_b, grid_b,
                    rng.random(count))
        if np.any(eta < 1.0):
            vacuum = rng.normal(0.0, math.sqrt(0.5), (2, count))
            x_a, x_b = np.sqrt(eta) * (x_a, x_b) + np.sqrt(1.0 - eta) * vacuum
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
    return _pattern_functions([(m, n)], x)[m, n]


def _pattern_functions(pairs, x) -> dict:
    """``pattern_function`` of each (m, n) in ``pairs`` at the points x, on
    one Dawson evaluation and one pair of ladders."""
    from scipy.special import dawsn
    x = np.asarray(x, dtype=float)
    top = max(max(pair) for pair in pairs)
    daw = dawsn(x)
    # psi_k pi^(-1/4) e^{-x^2/2} and phi_k pi^(1/4) e^{x^2/2}
    psi = _ladder(2.0 * daw, math.sqrt(2.0) * (2.0 * x * daw - 1.0), x, top + 1)
    phi = _ladder(1.0, math.sqrt(2.0) * x, x, top + 1)
    kernels = {}
    for pair in pairs:
        n, m = sorted(pair)
        lowered_psi = math.sqrt(m) * psi[m - 1] if m else math.sqrt(2.0)
        lowered_phi = math.sqrt(n) * phi[n - 1] if n else 0.0
        d_psi = lowered_psi - math.sqrt(m + 1) * psi[m + 1]
        d_phi = lowered_phi - math.sqrt(n + 1) * phi[n + 1]
        kernels[pair] = (d_psi * phi[n] + psi[m] * d_phi) / math.sqrt(2.0)
    return kernels


# one arm's kernels k_mn = f_mn e^{i(m-n)theta}, (m, n) = (0, 0), (0, 1), (1, 0),
# (1, 1), on its features g = (f00, f11, f10 cos theta, f10 sin theta); block
# element (2a + b, 2c + d) is k_ac(x_A) k_bd(x_B), a combination of g_A (x) g_B
_ARM = np.array([[[1, 0, 0, 0], [0, 0, 1, -1j]], [[0, 0, 1, 1j], [0, 1, 0, 0]]])
_BLOCK_WEIGHTS = np.einsum("aci,bdj->abcdij", _ARM, _ARM).reshape(16, 16)


@dataclass
class ReconstructionResult:
    """Estimated block with per-element standard errors and diagnostics."""

    estimate: np.ndarray  # 4x4 complex, Hermitian by construction
    se_real: np.ndarray  # 4x4
    se_imag: np.ndarray  # 4x4
    n_samples: int


def reconstruct(record: TomographyRecord) -> ReconstructionResult:
    """Unbiased pattern-function estimates of the {0,1}x{0,1} block.

    Each block element <a|rho|b> is a sample mean of
    f_{m m'}(x_A) e^{i(m-m')theta_A} f_{n n'}(x_B) e^{i(n-n')theta_B};
    standard errors are the sample standard deviations over sqrt(N).
    Every such product is a fixed combination of the 16 products of the
    arms' features (f00, f11, f10 cos theta, f10 sin theta), so the record
    is read in chunks of ``_CHUNK`` samples into the first and second
    moments of those products, and no per-sample array outlives a chunk.
    Records whose phases cannot separate the needed harmonics raise
    IllConditionedError.
    """
    phases = (record.theta_a, record.theta_b)
    if min(len(np.unique(np.round(theta, 9))) for theta in phases) <= N_CUT:
        raise IllConditionedError(
            f"need at least {N_CUT + 1} distinct phases per arm to separate "
            f"harmonics up to order {N_CUT}"
        )
    n_samples = len(record)
    # sums of the feature products g_A (x) g_B and of their outer squares
    first, second = np.zeros(16), np.zeros((16, 16))
    for lo in range(0, n_samples, _CHUNK):
        feats = []
        for x, theta in ((record.x_a, record.theta_a), (record.x_b, record.theta_b)):
            f = _pattern_functions([(0, 0), (1, 1), (1, 0)], x[lo:lo + _CHUNK])
            theta = theta[lo:lo + _CHUNK]
            feats.append(np.stack([f[0, 0], f[1, 1], f[1, 0] * np.cos(theta),
                                   f[1, 0] * np.sin(theta)]))
        products = (feats[0][:, None] * feats[1][None]).reshape(16, -1)
        first += products.sum(axis=1)
        second += products @ products.T

    # per element, its real then its imaginary part as a combination of g_A (x) g_B
    parts = np.stack([_BLOCK_WEIGHTS.real, _BLOCK_WEIGHTS.imag])
    sums = parts @ first
    squares = np.einsum("pei,ij,pej->pe", parts, second, parts)
    var = np.maximum(squares - sums**2 / n_samples, 0.0) / (n_samples - 1)
    re, im = sums.reshape(2, 4, 4) / n_samples
    se_re, se_im = np.sqrt(var / n_samples).reshape(2, 4, 4)
    upper = np.triu(np.ones((4, 4), dtype=bool))  # the lower triangle mirrors it
    return ReconstructionResult(
        estimate=np.where(upper, re, re.T) + 1j * np.where(upper, im, -im.T),
        se_real=np.where(upper, se_re, se_re.T),
        se_imag=np.where(upper, se_im, se_im.T),
        n_samples=n_samples,
    )


def concurrence_with_uncertainty(
    recon: ReconstructionResult, seed: int = 1234
) -> tuple[float, float]:
    """Concurrence of the reconstructed block with a Monte-Carlo error bar.

    Element noise is resampled from the reported standard errors (Hermiticity
    re-imposed per draw); the spread of the resulting concurrence values is
    the quoted uncertainty.
    """
    central = float(spin_flip_concurrence(recon.estimate)[2])
    # per draw 16 real then 16 imaginary parts, the order of per-draw
    # rng.normal(scale=se) calls
    noise = np.random.default_rng(seed).standard_normal((N_DRAWS, 2, 4, 4))
    noise = noise[:, 0] * recon.se_real + 1j * (noise[:, 1] * recon.se_imag)
    values = spin_flip_concurrence(recon.estimate + noise)[2]
    return central, float(values.std(ddof=1))
