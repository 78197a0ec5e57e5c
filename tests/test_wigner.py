"""Phase-space engine tests.

The independent oracles here are numerical: trapezoid quadrature of the
evaluated Wigner function for marginals and for the attenuation-kernel
convolution, against the closed-form algebra.
"""

import math

import numpy as np
import pytest

from micromacro import (
    GaussianPolyWigner,
    MomentQuery,
    extract_projected,
    gaussian_moment,
    initial_wigner,
    loss_convolve,
    rotated_quadrature_pdf,
    single_mode_wigner_section,
    squeeze_rescale,
)


def vacuum_pair() -> GaussianPolyWigner:
    """Product state vacuum(A) x vacuum(B)."""
    c = np.zeros((1, 1, 1, 1), dtype=complex)
    c[0, 0, 0, 0] = 1.0 / math.pi**2
    return GaussianPolyWigner(widths=np.ones(4), coeffs=c)


def one_photon_in_b() -> GaussianPolyWigner:
    """vacuum(A) x |1><1|(B)."""
    c = np.zeros((1, 1, 3, 3), dtype=complex)
    c[0, 0, 0, 0] = -1.0 / math.pi**2
    c[0, 0, 2, 0] = 2.0 / math.pi**2
    c[0, 0, 0, 2] = 2.0 / math.pi**2
    return GaussianPolyWigner(widths=np.ones(4), coeffs=c)


class TestInitialWigner:
    def test_normalized(self):
        assert initial_wigner().total_integral() == pytest.approx(1.0, abs=1e-12)

    def test_origin_value(self):
        w = initial_wigner().evaluate(0.0, 0.0, 0.0, 0.0)
        assert complex(w) == pytest.approx(-1.0 / math.pi**2, abs=1e-14)

    def test_marginal_over_b_is_maximally_mixed_qubit(self):
        # quadrature oracle: integrate the evaluated W over the B plane
        W = initial_wigner()
        g = np.linspace(-6.0, 6.0, 241)
        xb, pb = np.meshgrid(g, g)
        for xa, pa in ((0.0, 0.0), (0.7, -0.3), (1.2, 0.8)):
            vals = W.evaluate(xa, pa, xb, pb).real
            marginal = np.trapezoid(np.trapezoid(vals, g, axis=1), g)
            w00 = math.exp(-(xa**2 + pa**2)) / math.pi
            w11 = (-1.0 + 2.0 * xa**2 + 2.0 * pa**2) * math.exp(
                -(xa**2 + pa**2)
            ) / math.pi
            assert marginal == pytest.approx(0.5 * (w00 + w11), abs=1e-9)

    def test_real_everywhere(self):
        W = initial_wigner()
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(4, 50))
        vals = W.evaluate(*pts)
        assert np.abs(vals.imag).max() < 1e-10


class TestSqueezeRescale:
    def test_identity_at_r_zero(self):
        W = initial_wigner()
        out = squeeze_rescale(W, 0.0, +1)
        assert np.array_equal(out.coeffs, W.coeffs)
        assert np.array_equal(out.widths, W.widths)

    def test_vacuum_width_and_variance(self):
        r = 0.8
        out = squeeze_rescale(vacuum_pair(), r, +1)
        assert out.widths[2] == pytest.approx(math.exp(2 * r))
        assert out.widths[3] == pytest.approx(math.exp(-2 * r))
        # <X_B^2> = e^{-2r}/2, cross-checked through the moment engine
        var = gaussian_moment(out, (0, 0, 2, 0)).real
        assert var == pytest.approx(math.exp(-2 * r) / 2.0, rel=1e-12)

    def test_integral_preserved(self):
        out = squeeze_rescale(initial_wigner(), 1.3, +1)
        assert out.total_integral() == pytest.approx(1.0, abs=1e-12)

    def test_squeeze_then_unsqueeze_exact(self):
        W = initial_wigner()
        back = squeeze_rescale(squeeze_rescale(W, 0.9, +1), 0.9, -1)
        assert np.abs(back.coeffs - W.coeffs).max() < 1e-15
        assert np.abs(back.widths - W.widths).max() < 1e-15


class TestLossConvolve:
    def test_eta_validation(self):
        with pytest.raises(ValueError):
            loss_convolve(vacuum_pair(), -0.1)
        with pytest.raises(ValueError):
            loss_convolve(vacuum_pair(), 1.2)

    def test_eta_zero_traces_mode_to_vacuum(self):
        # completed-square limit s = 1, D = gamma: the mode forgets its input
        W = squeeze_rescale(initial_wigner(), 1.0, +1)
        out = loss_convolve(W, 0.0)
        assert np.abs(out.widths[2:] - 1.0).max() < 1e-15
        assert np.abs(out.coeffs[:, :, 1:, :]).max() == 0.0
        assert np.abs(out.coeffs[:, :, :, 1:]).max() == 0.0
        assert np.isfinite(out.coeffs).all()

    def test_eta_one_is_identity(self):
        W = initial_wigner()
        out = loss_convolve(W, 1.0)
        assert np.abs(out.coeffs - W.coeffs).max() < 1e-15
        assert np.abs(out.widths - W.widths).max() < 1e-15

    @pytest.mark.parametrize("eta", [0.99, 0.7, 0.3])
    def test_vacuum_fixed_point(self, eta):
        W = vacuum_pair()
        out = loss_convolve(W, eta)
        assert np.abs(out.coeffs - W.coeffs).max() < 1e-12
        assert np.abs(out.widths - W.widths).max() < 1e-12

    def test_single_photon_mixture(self):
        # eta=0.9 on |1>: coefficients of 0.9*W11 + 0.1*W00 exactly
        out = loss_convolve(one_photon_in_b(), 0.9)
        expected = np.zeros((1, 1, 3, 3), dtype=complex)
        expected[0, 0, 0, 0] = (0.1 - 0.9) / math.pi**2
        expected[0, 0, 2, 0] = 0.9 * 2.0 / math.pi**2
        expected[0, 0, 0, 2] = 0.9 * 2.0 / math.pi**2
        assert np.abs(out.coeffs - expected).max() < 1e-12
        assert np.abs(out.widths - 1.0).max() < 1e-12

    def test_semigroup(self):
        W = squeeze_rescale(initial_wigner(), 1.0, +1)
        two_step = loss_convolve(loss_convolve(W, 0.9), 0.8)
        one_step = loss_convolve(W, 0.72)
        assert np.abs(two_step.coeffs - one_step.coeffs).max() < 1e-10
        assert np.abs(two_step.widths - one_step.widths).max() < 1e-12

    def test_integral_preserved(self):
        W = squeeze_rescale(initial_wigner(), 1.0, +1)
        out = loss_convolve(W, 0.85)
        assert out.total_integral() == pytest.approx(1.0, abs=1e-12)

    def test_against_numeric_convolution(self):
        # brute-force quadrature of the attenuation integral at r <= 1
        eta = 0.8
        W = squeeze_rescale(initial_wigner(), 1.0, +1)
        out = loss_convolve(W, eta)
        g = np.linspace(-8.0, 8.0, 501)
        xp, pp = np.meshgrid(g, g)
        xa, pa = 0.4, -0.2
        for xb, pb in ((0.0, 0.0), (0.5, -0.7), (1.1, 0.3)):
            kernel = np.exp(
                -eta
                / (1.0 - eta)
                * ((xp - xb / math.sqrt(eta)) ** 2 + (pp - pb / math.sqrt(eta)) ** 2)
            ) / (math.pi * (1.0 - eta))
            integrand = W.evaluate(xa, pa, xp, pp).real * kernel
            numeric = np.trapezoid(np.trapezoid(integrand, g, axis=1), g)
            closed = out.evaluate(xa, pa, xb, pb).real
            assert numeric == pytest.approx(closed, abs=1e-6)

    def test_degree_preserved(self):
        W = initial_wigner()
        out = loss_convolve(squeeze_rescale(W, 1.0, +1), 0.9)
        assert out.degrees == W.degrees


class TestMoments:
    def test_normalization_moment(self):
        assert gaussian_moment(initial_wigner(), (0, 0, 0, 0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_xa_second_moment(self):
        # mixture of vacuum (1/2) and one photon (3/2) in arm A
        val = gaussian_moment(initial_wigner(), MomentQuery(2, 0, 0, 0))
        assert val.real == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            gaussian_moment(initial_wigner(), (7, 0, 0, 0))


class TestExtraction:
    def test_input_state_fixture(self):
        rho = extract_projected(initial_wigner())
        assert rho.p01 == pytest.approx(0.5, abs=1e-12)
        assert rho.p10 == pytest.approx(0.5, abs=1e-12)
        assert rho.d == pytest.approx(0.5, abs=1e-12)
        assert rho.p00 == pytest.approx(0.0, abs=1e-12)
        assert rho.p11 == pytest.approx(0.0, abs=1e-12)
        assert rho.off_x_max() < 1e-12

    def test_lossless_pipeline_identity(self):
        r = 2.6515
        W = squeeze_rescale(squeeze_rescale(initial_wigner(), r, +1), r, -1)
        rho = extract_projected(W)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = expected[2, 1] = expected[1, 2] = 0.5
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_hermitian(self):
        W = loss_convolve(squeeze_rescale(initial_wigner(), 1.2, +1), 0.9)
        rho = extract_projected(W)
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-12


class TestWignerSections:
    def test_vacuum_section(self):
        x = np.linspace(-3, 3, 31)
        vals = single_mode_wigner_section("S0", 0.0, x)
        assert np.abs(vals - np.exp(-(x**2)) / math.pi).max() < 1e-14

    def test_one_photon_dip(self):
        assert single_mode_wigner_section("S1", 0.0, [0.0])[0] == pytest.approx(
            -1.0 / math.pi
        )

    def test_dip_is_squeeze_invariant(self):
        assert single_mode_wigner_section("S1", 2.6, [0.0])[0] == pytest.approx(
            -1.0 / math.pi
        )

    def test_p_axis_section_widths(self):
        r = 1.0
        p = np.linspace(-5, 5, 41)
        vals = single_mode_wigner_section("S0", r, p, axis="p")
        expected = np.exp(-np.exp(-2 * r) * p**2) / math.pi
        assert np.abs(vals - expected).max() < 1e-14

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            single_mode_wigner_section("S2", 1.0, [0.0])
        with pytest.raises(ValueError):
            single_mode_wigner_section("S1", 1.0, [0.0], axis="q")


class TestRotatedQuadraturePdf:
    def test_two_mode_vacuum(self):
        pdf = rotated_quadrature_pdf(vacuum_pair(), 0.7, 2.1)
        x = np.linspace(-3, 3, 13)
        xa, xb = np.meshgrid(x, x)
        expected = np.exp(-(xa**2) - xb**2) / math.pi
        assert np.abs(pdf(xa, xb) - expected).max() < 1e-12

    def test_against_line_integral_oracle(self):
        # marginalize numerically along the conjugate quadrature
        W = loss_convolve(squeeze_rescale(initial_wigner(), 0.8, +1), 0.9)
        theta_a, theta_b = 0.6, 1.9
        pdf = rotated_quadrature_pdf(W, theta_a, theta_b)
        s = np.linspace(-9.0, 9.0, 721)
        sa, sb = np.meshgrid(s, s)
        for xa, xb in ((0.0, 0.0), (0.8, -0.5), (-1.3, 0.2)):
            xrot_a = xa * math.cos(theta_a) - sa * math.sin(theta_a)
            prot_a = xa * math.sin(theta_a) + sa * math.cos(theta_a)
            xrot_b = xb * math.cos(theta_b) - sb * math.sin(theta_b)
            prot_b = xb * math.sin(theta_b) + sb * math.cos(theta_b)
            vals = W.evaluate(xrot_a, prot_a, xrot_b, prot_b).real
            numeric = np.trapezoid(np.trapezoid(vals, s, axis=1), s)
            assert pdf(xa, xb) == pytest.approx(numeric, abs=1e-8)
