"""Homodyne tomography tests.

The pattern-function estimator is validated against an exact-integration
oracle: for known pure states the phase-and-quadrature average of the kernel
must reproduce each density-matrix element.  The closed-form kernels are
checked against the quadrature of their defining integral, the moment-based
reconstruction against the per-sample mean and standard deviation of every
kernel product, and the table-driven sampler against a per-row tabulated
inverse-CDF sampler on the same grids.  Sampler statistics are checked at
the five-sigma level with fixed seeds, and the memory of ``sample`` and
``reconstruct`` against traced-allocation bounds.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import dawsn, eval_genlaguerre, gammaln

from micromacro import (
    BranchEnsemble,
    ExperimentConfig,
    GaussianPolyWigner,
    IllConditionedError,
    TomographyRecord,
    concurrence_with_uncertainty,
    hermite_functions,
    pattern_function,
    reconstruct,
    rotated_quadrature_pdf,
    run,
    sample,
)
from micromacro import tomography
from micromacro.entanglement import spin_flip_concurrence

from conftest import random_branches, traced_peak


def joint_pdf(state, theta_a: float, theta_b: float):
    """Oracle: exact joint density p(x_A, x_B) of homodyne outcomes.

    ``state`` is a BranchEnsemble (phase-rotated Hermite-function
    wavefunctions summed over the branch mixture) or a GaussianPolyWigner
    (``rotated_quadrature_pdf``); the two routes agree pointwise.  Returns a
    callable acting elementwise on broadcastable arrays.
    """
    if isinstance(state, GaussianPolyWigner):
        return rotated_quadrature_pdf(state, theta_a, theta_b)
    phases_b = np.exp(-1j * theta_b * np.arange(state.n_max + 1))[:, None]
    v_rot, u_rot = phases_b * state.amps
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
        return np.sum(np.abs(amp) ** 2, axis=0)

    return pdf


def _two_mode_vacuum() -> BranchEnsemble:
    return BranchEnsemble([[[1.0], [0.0]], [[0.0], [0.0]]])


def _pipeline_state() -> BranchEnsemble:
    """Kept Fock state at r = 1 with loss on both arms: the 23 branches of
    the eta loss at support 14, with detection losses (0.95, 0.95)."""
    cfg = ExperimentConfig(
        r=1.0, eta1=0.95, eta=0.95, eta2=0.95, loss_on_a=True, engine="fock", seed=1
    )
    return run(cfg, keep_state=True).final_branches


def _complex_state() -> BranchEnsemble:
    """Complex branches (Im <v|u> != 0), one of them with zero weight."""
    return random_branches(
        np.random.default_rng(3), count=5, dim=8, weights=[0.3, 0.0, 0.2, 0.4, 0.1]
    )


def _high_support_state(support: int = 95) -> BranchEnsemble:
    """One real branch reaching photon number ``support``, with no parity
    structure, so arm B's quadrature table keeps about 4 (support + 1)
    columns."""
    rng = np.random.default_rng(4)
    rows = support + 1
    amps = rng.normal(size=(2, rows, 1)) * np.exp(-np.arange(rows) / 60.0)[:, None]
    return BranchEnsemble((amps / np.linalg.norm(amps))[::-1])


def _arm_a_table(state):
    """Arm A's quadrature table on the sampler's grid: its reduced 2x2 state
    in the basis (|0>, |1>), tr Y = sum_k <v_k|u_k> off the diagonal."""
    v_mat, u_mat = state.amps
    tr_y = np.sum(u_mat * v_mat.conj())
    rho_a = np.array([[np.sum(np.abs(v_mat) ** 2), np.conj(tr_y)],
                      [tr_y, np.sum(np.abs(u_mat) ** 2)]])
    grid = np.linspace(-8.0, 8.0, 1601)
    return (*tomography._quadrature_table(rho_a[None], grid), grid)


# ---------------------------------------------------------------------------
# reference sampler: the per-row tabulated inverse CDF on the sampler's grids
# ---------------------------------------------------------------------------


def _ref_cumulative_trapezoid(values, h):
    seg = 0.5 * (values[..., 1:] + values[..., :-1]) * h
    out = np.zeros(values.shape)
    np.cumsum(seg, axis=-1, out=out[..., 1:])
    return out


def _ref_invert_cdf_rows(cdf, grid, quantiles):
    """Per-row inverse-transform draws from tabulated monotone CDFs, each row
    searched on its own (a flattened search over rows offset by 2 * row
    loses about 12 bits of quantile precision by row 2047)."""
    n_rows, n_pts = cdf.shape
    tot = cdf[:, -1]
    assert np.all(tot > 0)
    cdf = cdf / tot[:, None]
    pos = np.array([np.searchsorted(r, q, side="right") for r, q in zip(cdf, quantiles)])
    j = np.clip(pos - 1, 0, n_pts - 2)
    rows = np.arange(n_rows)
    c0 = cdf[rows, j]
    c1 = cdf[rows, j + 1]
    denom = np.where(c1 - c0 > 0, c1 - c0, 1.0)
    t = np.clip((quantiles - c0) / denom, 0.0, 1.0)
    return grid[j] + t * (grid[1] - grid[0])


def _reference_sample(state, n_samples, phase_policy, seed):
    """The sampler with every density tabulated per draw: a (draws, grid)
    CDF for x_A, then for x_B the (draws, grid) sum over branches of the
    squared conditional amplitudes |c_k . phi|^2 given x_A, then the state's
    detection losses on both arms, from vacuum noise drawn after x_B."""
    support = state.support(1e-12)
    m_dim = support + 1
    u_mat = np.ascontiguousarray(state.amps[1, :m_dim].T)
    v_mat = np.ascontiguousarray(state.amps[0, :m_dim].T)
    a_tot = float(np.sum(np.abs(u_mat) ** 2))
    b_tot = float(np.sum(np.abs(v_mat) ** 2))
    zeta_tot = complex(np.sum(v_mat.conj() * u_mat))  # sum_k <v_k|u_k>

    grid_a = np.linspace(-8.0, 8.0, 1601)
    phi_a_grid = hermite_functions(1, grid_a)
    cum_a = _ref_cumulative_trapezoid(
        np.stack([phi_a_grid[1] ** 2, phi_a_grid[0] ** 2, phi_a_grid[0] * phi_a_grid[1]]),
        grid_a[1] - grid_a[0],
    )
    xb_lim = math.sqrt(2.0 * support + 1.0) + 5.0
    h_target = math.pi / (math.sqrt(2.0 * support + 1.0) * 18.0)
    n_b = int(min(max(2 * xb_lim / h_target, 601), 6001))
    grid_b = np.linspace(-xb_lim, xb_lim, n_b)
    phi_b_grid = hermite_functions(support, grid_b)

    block = 2048
    n_blocks = (n_samples + block - 1) // block
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    grid_phases = np.pi * np.arange(6) / 6
    cols = []
    for blk in range(n_blocks):
        rng = np.random.default_rng(children[blk])
        count = min(block, n_samples - blk * block)
        if phase_policy == "uniform_random":
            th_a = rng.uniform(0.0, np.pi, count)
            th_b = rng.uniform(0.0, np.pi, count)
        else:
            idx = np.arange(blk * block, blk * block + count)
            th_a = grid_phases[(idx // 6) % 6]
            th_b = grid_phases[idx % 6]
        c_s = np.real(np.exp(-1j * th_a) * zeta_tot)
        cdf_a = (a_tot * cum_a[0] + b_tot * cum_a[1]) + 2.0 * np.outer(c_s, cum_a[2])
        x_a = _ref_invert_cdf_rows(cdf_a, grid_a, rng.random(count))

        phi_a = hermite_functions(1, x_a)
        f1 = np.exp(-1j * th_a) * phi_a[1]
        f0 = phi_a[0]
        rot_b = np.exp(-1j * np.outer(th_b, np.arange(m_dim)))
        pdf_b = np.zeros((count, len(grid_b)))
        for u_k, v_k in zip(u_mat, v_mat):
            amp = ((f1[:, None] * u_k + f0[:, None] * v_k) * rot_b) @ phi_b_grid
            pdf_b += amp.real**2 + amp.imag**2
        cdf_b = _ref_cumulative_trapezoid(pdf_b, grid_b[1] - grid_b[0])
        x_b = _ref_invert_cdf_rows(cdf_b, grid_b, rng.random(count))
        eta_a, eta_b = state.detection_eta
        if (eta_a, eta_b) != (1.0, 1.0):
            z_a, z_b = rng.normal(0.0, math.sqrt(0.5), (2, count))
            x_a = math.sqrt(eta_a) * x_a + math.sqrt(1.0 - eta_a) * z_a
            x_b = math.sqrt(eta_b) * x_b + math.sqrt(1.0 - eta_b) * z_b
        cols.append((th_a, th_b, x_a, x_b))
    return [np.concatenate(c) for c in zip(*cols)]


class TestHermiteFunctions:
    def test_orthonormal(self):
        x = np.linspace(-12, 12, 4001)
        phi = hermite_functions(10, x)
        gram = np.trapezoid(phi[:, None, :] * phi[None, :, :], x, axis=-1)
        assert np.abs(gram - np.eye(11)).max() < 1e-8

    def test_vacuum_variance_half(self):
        x = np.linspace(-10, 10, 2001)
        phi0 = hermite_functions(0, x)[0]
        assert np.trapezoid(x**2 * phi0**2, x) == pytest.approx(0.5, abs=1e-10)


class TestJointPdf:
    def test_two_mode_vacuum(self):
        state = _two_mode_vacuum()
        x = np.linspace(-3, 3, 11)
        xa, xb = np.meshgrid(x, x)
        for th in (0.0, 0.9, 2.5):
            vals = joint_pdf(state, th, 1.7 - th)(xa, xb)
            expected = np.exp(-(xa**2) - xb**2) / math.pi
            assert np.abs(vals - expected).max() < 1e-12

    def test_input_state_closed_form(self, bell_branch):
        pdf = joint_pdf(bell_branch, 0.0, 0.0)
        x = np.linspace(-3, 3, 11)
        xa, xb = np.meshgrid(x, x)
        expected = np.exp(-(xa**2) - xb**2) * (xa + xb) ** 2 / math.pi
        assert np.abs(pdf(xa, xb) - expected).max() < 1e-12

    def test_routes_agree_on_pipeline_output(self):
        res = run(
            ExperimentConfig(r=1.0, eta=0.95, engine="both"), keep_state=True
        )
        x = np.linspace(-4, 4, 9)
        xa, xb = np.meshgrid(x, x)
        for ta, tb in ((0.0, 0.0), (0.4, 1.2), (2.8, 0.9)):
            p_fock = joint_pdf(res.final_branches, ta, tb)(xa, xb)
            p_wig = joint_pdf(res.final_wigner, ta, tb)(xa, xb)
            assert np.abs(p_fock - p_wig).max() < 1e-8
            assert p_fock.min() >= -1e-12

    def test_normalization(self, bell_branch):
        pdf = joint_pdf(bell_branch, 0.7, 1.3)
        g = np.linspace(-8, 8, 401)
        xa, xb = np.meshgrid(g, g)
        total = np.trapezoid(np.trapezoid(pdf(xa, xb), g, axis=1), g)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSampler:
    def test_deterministic(self, bell_branch):
        a = sample(bell_branch, 5000, seed=42)
        b = sample(bell_branch, 5000, seed=42)
        for field in ("theta_a", "theta_b", "x_a", "x_b"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_different_seeds_differ(self, bell_branch):
        a = sample(bell_branch, 100, seed=1)
        b = sample(bell_branch, 100, seed=2)
        assert not np.array_equal(a.x_a, b.x_a)

    def test_vacuum_variance(self):
        rec = sample(_two_mode_vacuum(), 100000, seed=3)
        for xs in (rec.x_a, rec.x_b):
            var = np.mean(xs**2)
            se = np.std(xs**2) / math.sqrt(len(xs))
            assert abs(var - 0.5) < 5 * se

    def test_input_state_correlation_at_zero_phase(self, bell_branch):
        rec = sample(bell_branch, 180000, phase_policy="fixed_grid", seed=9)
        mask = (rec.theta_a == 0.0) & (rec.theta_b == 0.0)
        assert mask.sum() >= 4000
        prod = rec.x_a[mask] * rec.x_b[mask]
        se = np.std(prod) / math.sqrt(mask.sum())
        assert abs(prod.mean() - 0.5) < 5 * se

    @pytest.mark.parametrize("phase_policy", ["uniform_random", "fixed_grid"])
    @pytest.mark.parametrize("state_name", ["bell", "vacuum", "pipeline", "complex"])
    def test_matches_tabulated_reference(self, bell_branch, state_name, phase_policy):
        state = {
            "bell": lambda: bell_branch,
            "vacuum": _two_mode_vacuum,
            "pipeline": _pipeline_state,
            "complex": _complex_state,
        }[state_name]()
        n_samples = 2 * 2048 + 300  # two full blocks and a partial one
        rec = sample(state, n_samples, phase_policy=phase_policy, seed=7)
        th_a, th_b, x_a, x_b = _reference_sample(state, n_samples, phase_policy, 7)
        assert np.array_equal(rec.theta_a, th_a)
        assert np.array_equal(rec.theta_b, th_b)
        assert np.abs(rec.x_a - x_a).max() < 1e-7
        assert np.abs(rec.x_b - x_b).max() < 1e-7

    def test_high_support_matches_tabulated_reference(self):
        state = _high_support_state()
        assert state.support(1e-12) == 95
        rec = sample(state, 400, seed=3)
        th_a, th_b, x_a, x_b = _reference_sample(state, 400, "uniform_random", 3)
        assert np.array_equal(rec.theta_a, th_a)
        assert np.array_equal(rec.theta_b, th_b)
        assert np.abs(rec.x_a - x_a).max() < 1e-7
        assert np.abs(rec.x_b - x_b).max() < 1e-7

    @pytest.mark.parametrize("state_name", ["pipeline", "complex"])
    def test_record_depends_on_rho_not_on_its_branches(self, state_name):
        # rho = A A^dag is unchanged by A -> A O for a real orthogonal O, so
        # the record must not see how rho is split into branches
        state = {"pipeline": _pipeline_state, "complex": _complex_state}[state_name]()
        count = len(state)
        ortho = np.linalg.qr(np.random.default_rng(11).normal(size=(count, count)))[0]
        mixed = dataclasses.replace(state, amps=state.amps @ ortho)
        a = sample(state, 2 * 2048 + 300, seed=5)
        b = sample(mixed, 2 * 2048 + 300, seed=5)
        assert np.array_equal(a.theta_a, b.theta_a)
        assert np.array_equal(a.theta_b, b.theta_b)
        assert np.abs(a.x_a - b.x_a).max() < 1e-9
        assert np.abs(a.x_b - b.x_b).max() < 1e-9

    @pytest.mark.parametrize("m_dim", [1, 2, 15, 96, 240, 300])
    def test_harmonics_match_cos_and_sin(self, m_dim):
        # e^{i d theta} comes from repeated products of e^{i theta}; their
        # rounding must stay far below the draws' tolerances up to the
        # supports that the memory test reaches
        rng = np.random.default_rng(m_dim)
        count, n_blocks = 700, 3
        weights = rng.uniform(-1.0, 1.0, (count, n_blocks))
        theta = rng.uniform(0.0, np.pi, count)
        cols = np.stack(np.meshgrid(np.arange(n_blocks), np.arange(2 * m_dim))).reshape(2, -1)
        coef = tomography._harmonics(weights, theta, m_dim, cols)
        assert coef.shape == (count, cols.shape[1]) and coef.flags.c_contiguous
        d = cols[1] % m_dim
        trig = np.where(cols[1] < m_dim, np.cos(np.outer(theta, d)), np.sin(np.outer(theta, d)))
        assert np.abs(coef - weights[:, cols[0]] * trig).max() < 1e-12

    def test_shared_cdf_draws_equal_per_draw_search(self):
        # photon parity makes the pipeline's arm-A state diagonal: its table
        # is the one column Re T_0, and every draw shares one CDF
        table, cols, grid = _arm_a_table(_pipeline_state())
        assert cols.tolist() == [[0], [0]]
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)],
                            np.random.default_rng(6).random(5000)])
        shared = tomography._draw(np.ones(1), table, grid, u)
        per_draw = tomography._draw(np.ones((len(u), 1)), table, grid, u)
        assert np.array_equal(shared, per_draw)
        # a coherent arm-A state keeps the per-draw route, which
        # test_matches_tabulated_reference[complex-*] checks
        cols = _arm_a_table(_complex_state())[1]
        assert {1, 3} <= set(cols[1].tolist())  # Re T_1 and Im T_1, M = 2

    @pytest.mark.parametrize(
        "support, n_samples, bound", [(95, 2 * 2048 + 300, 40), (239, 64, 96)],
        ids=["support95", "support239"],
    )
    def test_high_support_memory_is_bounded(self, support, n_samples, bound):
        # whole-block pair products (three live copies) took 282 MiB at support
        # 95; a pair table capped by one block's tabulated amplitudes took 67 MiB
        # there and 221 MiB at 239; arm B's quadrature table of about
        # 4 (support + 1) columns on the full grid takes 29 and 71 MiB
        state = _high_support_state(support)
        assert state.support(1e-12) == support
        assert traced_peak(sample, state, n_samples, seed=3) <= bound

    def test_invalid_args(self, bell_branch):
        with pytest.raises(ValueError):
            sample(bell_branch, 0, seed=1)
        with pytest.raises(ValueError):
            sample(bell_branch, 10, phase_policy="spiral", seed=1)

    @pytest.mark.parametrize(
        "n_samples, seed, name",
        [(1e4, 1, "n_samples"), (True, 1, "n_samples"), (10, 1.5, "seed"),
         (10, True, "seed"), (10, -1, "seed")],
    )
    def test_rejects_non_integer_counts_and_seeds(self, bell_branch, n_samples, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            sample(bell_branch, n_samples, seed=seed)

    def test_numpy_integer_arguments_sample_as_ints(self, bell_branch):
        a = sample(bell_branch, np.int64(50), seed=np.uint32(4))
        b = sample(bell_branch, 50, seed=4)
        assert np.array_equal(a.x_a, b.x_a) and np.array_equal(a.x_b, b.x_b)


class TestRecordCsv:
    def test_round_trip(self, bell_branch):
        rec = sample(bell_branch, 500, seed=5, config_snapshot={"r": "0"})
        text = rec.to_csv_text()
        assert text.startswith("# schema: tomography-record v1")
        back = TomographyRecord.from_csv_text(text)
        assert back.seed == 5
        assert back.config_snapshot == {"r": "0"}
        for field in ("theta_a", "theta_b", "x_a", "x_b"):
            assert np.abs(getattr(back, field) - getattr(rec, field)).max() < 5e-13

    def test_reads_external_record(self):
        text = (
            "# a foreign comment\n"
            "theta_a,theta_b,x_a,x_b\n"
            "0.1,0.2,0.5,-0.5\n"
            "1.0,2.0,0.0,1.25\n"
        )
        rec = TomographyRecord.from_csv_text(text)
        assert len(rec) == 2
        assert rec.x_b[1] == 1.25

    def test_file_round_trip(self, tmp_path, bell_branch):
        rec = sample(bell_branch, 100, seed=8)
        path = tmp_path / "rec.csv"
        rec.to_csv(path)
        back = TomographyRecord.from_csv(path)
        assert len(back) == 100

    def test_failed_write_keeps_previous_file(self, tmp_path, bell_branch, monkeypatch):
        rec = sample(bell_branch, 20, seed=8)
        path = tmp_path / "rec.csv"
        rec.to_csv(path)

        def fail(self):
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(TomographyRecord, "to_csv_text", fail)
        with pytest.raises(RuntimeError):
            rec.to_csv(path)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == rec.to_csv_text()
        assert [p.name for p in tmp_path.iterdir()] == ["rec.csv"]


def _pattern_oracle(psi: np.ndarray, m: int, n: int) -> complex:
    """Exact integration of the estimator for a pure single-mode state."""
    x = np.linspace(-9.0, 9.0, 1501)
    thetas = np.linspace(0.0, np.pi, 241, endpoint=False)
    phi = hermite_functions(len(psi) - 1, x)
    f = pattern_function(m, n, x)
    total = 0.0 + 0.0j
    ells = np.arange(len(psi))
    for th in thetas:
        amp = (psi * np.exp(-1j * ells * th)) @ phi
        p_theta = np.abs(amp) ** 2
        total += np.trapezoid(p_theta * f, x) * np.exp(1j * (m - n) * th)
    return total / len(thetas)


def _quadrature_pattern_function(m, n, x):
    """f_mn(x) = (1/2) int |l| e^{ilx} <m|e^{-ilX}|n> dl by 800-node
    Gauss-Legendre quadrature on [0, 14], where e^{-l^2/4} has decayed."""
    if m < n:
        m, n = n, m
    nodes, wts = np.polynomial.legendre.leggauss(800)
    lam = 7.0 * (nodes + 1.0)
    wts = 7.0 * wts
    diff = m - n
    pref = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
    g = (
        pref * (lam / math.sqrt(2.0)) ** diff * np.exp(-(lam**2) / 4.0)
        * eval_genlaguerre(n, diff, lam**2 / 2.0)
    )
    # fold the (-i)^diff phase with e^{+-ilx}: even diff -> cos, odd -> sin
    if diff % 2 == 0:
        kernel, sign = np.cos(np.outer(x, lam)), ((-1j) ** diff).real
    else:
        kernel, sign = np.sin(np.outer(x, lam)), (1j * (-1j) ** diff).real
    return sign * kernel @ (lam * g * wts)


class TestPatternFunctions:
    def test_closed_form_matches_quadrature(self):
        x = np.linspace(-12.0, 12.0, 2401)
        for m in range(4):
            for n in range(m + 1):
                ref = _quadrature_pattern_function(m, n, x)
                assert np.abs(pattern_function(m, n, x) - ref).max() < 1e-8, (m, n)

    def test_finite_far_out(self):
        x = np.linspace(-40.0, 40.0, 8001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in range(4):
                for n in range(m + 1):
                    assert np.all(np.isfinite(pattern_function(m, n, x)))

    def test_vacuum_kernel_closed_form(self):
        x = np.linspace(-40.0, 40.0, 8001)
        expected = 2.0 - 4.0 * x * dawsn(x)
        assert np.abs(pattern_function(0, 0, x) - expected).max() < 1e-13

    def test_symmetric_in_indices(self):
        x = np.linspace(-4, 4, 101)
        assert np.abs(pattern_function(2, 1, x) - pattern_function(1, 2, x)).max() == 0

    @pytest.mark.parametrize(
        "psi",
        [
            np.array([1.0, 0, 0, 0]),
            np.array([0, 1.0, 0, 0]),
            np.array([1.0, 1.0, 0, 0]) / math.sqrt(2),
            np.array([1.0, 1j, 0, 0]) / math.sqrt(2),
            np.array([0.6, 0, 0.8, 0]),
            np.array([0.5, 0.5, 0.5, 0.5]),
        ],
    )
    def test_unbiased_against_exact_integration(self, psi):
        rho = np.outer(psi, psi.conj())
        for m in range(4):
            for n in range(m + 1):
                est = _pattern_oracle(psi, m, n)
                assert est == pytest.approx(rho[m, n], abs=2e-6)


def _reference_reconstruct(record):
    """The per-sample estimator: the (16, N) stack of kernel products
    f_{m m'}(x_A) e^{i(m-m')theta_A} f_{n n'}(x_B) e^{i(n-n')theta_B}, its
    mean, and its standard deviation (ddof = 1) over sqrt(N)."""
    arms = []
    for x, theta in ((record.x_a, record.theta_a), (record.x_b, record.theta_b)):
        harmonic = np.exp(1j * theta)
        f10 = pattern_function(1, 0, x)
        arms.append({
            (0, 0): pattern_function(0, 0, x), (1, 1): pattern_function(1, 1, x),
            (1, 0): f10 * harmonic, (0, 1): f10 * harmonic.conj(),
        })
    kern_a, kern_b = arms
    z = np.stack([
        kern_a[row // 2, col // 2] * kern_b[row % 2, col % 2]
        for row in range(4) for col in range(4)
    ])
    root_n = math.sqrt(len(record))
    return (
        z.mean(axis=1).reshape(4, 4),
        (z.real.std(axis=1, ddof=1) / root_n).reshape(4, 4),
        (z.imag.std(axis=1, ddof=1) / root_n).reshape(4, 4),
    )


class TestReconstruct:
    @pytest.mark.parametrize(
        "n_samples", [1000, tomography._CHUNK, 3 * tomography._CHUNK + 300]
    )
    @pytest.mark.parametrize("state_name", ["bell", "pipeline", "complex"])
    def test_moments_match_per_sample_reference(self, bell_branch, state_name, n_samples):
        state = {
            "bell": lambda: bell_branch,
            "pipeline": _pipeline_state,
            "complex": _complex_state,
        }[state_name]()
        rec = sample(state, n_samples, seed=29)
        recon = reconstruct(rec)
        est, se_re, se_im = _reference_reconstruct(rec)
        assert np.abs(recon.estimate - est).max() < 1e-12
        for got, ref in ((recon.se_real, se_re), (recon.se_imag, se_im)):
            assert np.array_equal(got == 0, ref == 0)
            nonzero = ref != 0
            assert np.abs(got[nonzero] / ref[nonzero] - 1.0).max() < 1e-10
        assert np.array_equal(recon.estimate, recon.estimate.conj().T)

    @pytest.mark.parametrize("loss_on_a", [False, True])
    def test_detection_noise_reconstructs_the_block(self, loss_on_a):
        # the kept state carries the eta2 losses unexpanded; the sampler's
        # vacuum noise must give the record of the block after them
        cfg = ExperimentConfig(r=1.0, eta1=0.9, eta=0.9, eta2=0.5, loss_on_a=loss_on_a,
                               engine="fock")
        res = run(cfg, keep_state=True)
        assert res.final_branches.detection_eta == (0.5 if loss_on_a else 1.0, 0.5)
        recon = reconstruct(sample(res.final_branches, 100_000, seed=31))
        diff = recon.estimate - res.rho_p.matrix
        for part, se in ((diff.real, recon.se_real), (diff.imag, recon.se_imag)):
            exact = se == 0
            assert np.abs(part[exact]).max(initial=0.0) < 1e-12
            assert np.all(np.abs(part[~exact]) < 5 * se[~exact])
        value, err = concurrence_with_uncertainty(recon)
        assert abs(value - res.concurrence.value) < 5 * err

    def test_workload_closure_holds_on_fixed_seeds(self):
        # the benchmark's tomography closure rule (5 standard errors per
        # element, zero-SE elements to 1e-12, concurrence within 5 error
        # bars) on its state, so a sampler whose distribution moved fails
        # here before a benchmark run does
        cfg = ExperimentConfig(r=1.0, eta1=0.95, eta=0.95, eta2=0.95, loss_on_a=True,
                               engine="fock")
        res = run(cfg, keep_state=True)
        for seed in range(8):
            recon = reconstruct(sample(res.final_branches, 100_000, seed=seed))
            diff = recon.estimate - res.rho_p.matrix
            for part, se in ((diff.real, recon.se_real), (diff.imag, recon.se_imag)):
                exact = se == 0
                assert np.abs(part[exact]).max(initial=0.0) <= 1e-12, seed
                assert np.all(np.abs(part[~exact]) <= 5 * se[~exact]), seed
            value, err = concurrence_with_uncertainty(recon, seed=seed)
            assert math.isfinite(err) and abs(value - res.concurrence.value) <= 5 * err, seed

    def test_memory_is_bounded(self):
        rng = np.random.default_rng(11)
        n = 100_000
        rec = TomographyRecord(
            theta_a=rng.uniform(0.0, np.pi, n), theta_b=rng.uniform(0.0, np.pi, n),
            x_a=rng.normal(size=n), x_b=rng.normal(size=n),
        )
        reconstruct(rec)  # scipy.special loads outside the traced call
        # a per-sample (16, N) stack of kernel products would take 56.5 MiB
        assert traced_peak(reconstruct, rec) <= 12

    def test_input_state_reconstruction(self, bell_branch):
        rec = sample(bell_branch, 100000, seed=17)
        recon = reconstruct(rec)
        truth = np.zeros((4, 4))
        truth[1, 1] = truth[2, 2] = truth[2, 1] = truth[1, 2] = 0.5
        for i in range(4):
            for j in range(4):
                err = max(recon.se_real[i, j], 1e-12) * 3
                assert abs(recon.estimate[i, j].real - truth[i, j]) < err
        assert np.abs(recon.estimate - recon.estimate.conj().T).max() == 0.0
        trace_se = math.sqrt(float(np.sum(np.diag(recon.se_real) ** 2)))
        assert np.trace(recon.estimate).real <= 1.0 + 3.0 * trace_se

    def test_vacuum_one_photon_populations_vanish(self):
        rec = sample(_two_mode_vacuum(), 50000, seed=23)
        recon = reconstruct(rec)
        for idx in (1, 2, 3):
            assert abs(recon.estimate[idx, idx].real) < 3 * recon.se_real[idx, idx]
        assert recon.estimate[0, 0].real == pytest.approx(
            1.0, abs=3 * recon.se_real[0, 0]
        )

    def test_ill_conditioned_flagged(self):
        n = 1000
        rec = TomographyRecord(
            theta_a=np.zeros(n),
            theta_b=np.zeros(n),
            x_a=np.random.default_rng(0).normal(size=n),
            x_b=np.random.default_rng(1).normal(size=n),
        )
        with pytest.raises(IllConditionedError):
            reconstruct(rec)

    def test_error_scaling(self, bell_branch):
        rec_small = sample(bell_branch, 2000, seed=41)
        rec_large = sample(bell_branch, 20000, seed=41)
        se_small = reconstruct(rec_small).se_real[2, 1]
        se_large = reconstruct(rec_large).se_real[2, 1]
        assert se_small / se_large == pytest.approx(math.sqrt(10.0), rel=0.3)

    def test_error_bar_matches_per_draw_loop(self, bell_branch):
        recon = reconstruct(sample(bell_branch, 20000, seed=13))

        def block_concurrence(matrix):
            return float(spin_flip_concurrence(matrix)[2])

        rng = np.random.default_rng(1234)
        values = np.empty(2000)
        for i in range(2000):
            noise = rng.normal(scale=recon.se_real) + 1j * rng.normal(
                scale=recon.se_imag
            )
            values[i] = block_concurrence(recon.estimate + noise)
        expected = (block_concurrence(recon.estimate), values.std(ddof=1))
        assert concurrence_with_uncertainty(recon) == expected

    def test_concurrence_with_uncertainty(self, bell_branch):
        rec = sample(bell_branch, 60000, seed=13)
        recon = reconstruct(rec)
        value, err = concurrence_with_uncertainty(recon)
        assert err > 0
        assert abs(value - 1.0) < 5 * err + 1e-3
