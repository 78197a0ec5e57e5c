"""Homodyne tomography tests.

The pattern-function estimator is validated against an exact-integration
oracle: for known pure states the phase-and-quadrature average of the kernel
must reproduce each density-matrix element.  Sampler statistics are checked
at the five-sigma level with fixed seeds.
"""

import math

import numpy as np
import pytest

from micromacro import (
    BranchEnsemble,
    ExperimentConfig,
    IllConditionedError,
    TomographyRecord,
    concurrence_with_uncertainty,
    hermite_functions,
    joint_pdf,
    pattern_function,
    reconstruct,
    run,
    sample,
)


def _two_mode_vacuum() -> BranchEnsemble:
    return BranchEnsemble([1.0], [[0.0], [0.0]], [[1.0], [0.0]])


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

    def test_invalid_args(self, bell_branch):
        with pytest.raises(ValueError):
            sample(bell_branch, 0, seed=1)
        with pytest.raises(ValueError):
            sample(bell_branch, 10, phase_policy="spiral", seed=1)


class TestRecordCsv:
    def test_round_trip(self, bell_branch):
        rec = sample(bell_branch, 500, seed=5, config_snapshot={"r": "0"})
        text = rec.to_csv_text()
        assert text.startswith("# schema: tomography-record v1")
        back = TomographyRecord.from_csv_text(text)
        assert back.seed == 5
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


class TestPatternFunctions:
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


class TestReconstruct:
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

    def test_extended_populations(self, bell_branch):
        rec = sample(bell_branch, 50000, seed=31)
        recon = reconstruct(rec)
        # one photon split between (1,0) and (0,1); nothing above
        assert recon.extended_populations[1, 0] == pytest.approx(
            0.5, abs=5 * recon.extended_se[1, 0]
        )
        assert abs(recon.extended_populations[2, 2]) < 5 * recon.extended_se[2, 2]

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

    def test_concurrence_with_uncertainty(self, bell_branch):
        rec = sample(bell_branch, 60000, seed=13)
        recon = reconstruct(rec)
        value, err = concurrence_with_uncertainty(recon)
        assert err > 0
        assert abs(value - 1.0) < 5 * err + 1e-3
