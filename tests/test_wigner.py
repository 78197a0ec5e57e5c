"""Phase-space engine tests.

The independent oracles here are numerical: trapezoid quadrature of the
evaluated Wigner function for marginals and for the attenuation-kernel
convolution, against the closed-form algebra.  Pointwise evaluation and the
Gaussian moments of a table are oracles of this file (``evaluate``,
``gaussian_moment``), not package calls.
"""

import math

import numpy as np
import pytest

from micromacro import (
    GaussianPolyWigner,
    ProjectedDensityMatrix,
    extract_projected,
    initial_wigner,
    loss_convolve,
    rotated_quadrature_pdf,
    single_mode_wigner_section,
    squeeze_rescale,
)


def evaluate(W: GaussianPolyWigner, xa, pa, xb, pb) -> np.ndarray:
    """Pointwise values of one state W; the points broadcast elementwise."""
    pts = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (xa, pa, xb, pb)))
    powers = [v[..., None] ** np.arange(n) for v, n in zip(pts, W.coeffs.shape)]
    poly = np.einsum("pqrs,...p,...q,...r,...s->...", W.coeffs, *powers)
    return poly * np.exp(-sum(w * v**2 for w, v in zip(W.widths, pts)))


def gaussian_moment(W: GaussianPolyWigner, query) -> complex:
    """Integral of X_A^a P_A^b X_B^c P_B^d against one state W, query = (a, b,
    c, d), from the integral Gamma((k+1)/2) / gamma^((k+1)/2) of
    x^k exp(-gamma x^2) at even k (0 at odd k)."""

    def moments(gamma, count, shift):
        return [
            math.gamma((k + 1) / 2) / gamma ** ((k + 1) / 2) if k % 2 == 0 else 0.0
            for k in range(shift, shift + count)
        ]

    vectors = [moments(g, n, e) for g, n, e in zip(W.widths, W.coeffs.shape, query)]
    return complex(np.einsum("pqrs,p,q,r,s->", W.coeffs, *vectors))


def total_integral(W: GaussianPolyWigner) -> complex:
    return gaussian_moment(W, (0, 0, 0, 0))


def projected(W: GaussianPolyWigner) -> ProjectedDensityMatrix:
    return ProjectedDensityMatrix(extract_projected(W))


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


def random_table() -> GaussianPolyWigner:
    """Random complex (3, 3, 3, 3) coefficients and widths: unlike the states
    the pipeline reaches, every coefficient is distinct and complex."""
    rng = np.random.default_rng(7)
    shape = (3, 3, 3, 3)
    return GaussianPolyWigner(
        widths=rng.uniform(0.5, 2.0, 4),
        coeffs=rng.normal(size=shape) + 1j * rng.normal(size=shape),
    )


class TestInitialWigner:
    def test_normalized(self):
        assert total_integral(initial_wigner()) == pytest.approx(1.0, abs=1e-12)

    def test_origin_value(self):
        w = evaluate(initial_wigner(), 0.0, 0.0, 0.0, 0.0)
        assert complex(w) == pytest.approx(-1.0 / math.pi**2, abs=1e-14)

    def test_marginal_over_b_is_maximally_mixed_qubit(self):
        # quadrature oracle: integrate the evaluated W over the B plane
        W = initial_wigner()
        g = np.linspace(-6.0, 6.0, 241)
        xb, pb = np.meshgrid(g, g)
        for xa, pa in ((0.0, 0.0), (0.7, -0.3), (1.2, 0.8)):
            vals = evaluate(W, xa, pa, xb, pb).real
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
        vals = evaluate(W, *pts)
        assert np.abs(vals.imag).max() < 1e-10


    def test_evaluate_matches_term_by_term_sum(self):
        rng = np.random.default_rng(4)
        shape = (3, 2, 3, 1)
        W = GaussianPolyWigner(
            widths=rng.uniform(0.5, 2.0, 4),
            coeffs=rng.normal(size=shape) + 1j * rng.normal(size=shape),
        )
        xa, pa, xb, pb = rng.normal(size=(4, 6))
        poly = sum(
            W.coeffs[p, q, r, s] * xa**p * pa**q * xb**r * pb**s
            for p, q, r, s in np.ndindex(shape)
        )
        expected = poly * np.exp(-W.widths @ np.stack([xa, pa, xb, pb]) ** 2)
        got = evaluate(W, xa, pa, xb, pb)
        assert np.abs(got - expected).max() < 1e-13 * np.abs(expected).max()


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
        assert total_integral(out) == pytest.approx(1.0, abs=1e-12)

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
        assert total_integral(out) == pytest.approx(1.0, abs=1e-12)

    def test_against_numeric_convolution(self):
        # brute-force quadrature of the attenuation integral, on the r = 1
        # state in mode B and on a random complex table in both modes
        eta = 0.8
        g = np.linspace(-8.0, 8.0, 501)
        xp, pp = np.meshgrid(g, g)
        spectator = (0.4, -0.2)  # the other mode's (X, P)
        cases = (
            (squeeze_rescale(initial_wigner(), 1.0, +1), "B",
             ((0.0, 0.0), (0.5, -0.7), (1.1, 0.3))),
            (random_table(), "A", ((0.0, 0.0), (1.1, 0.3))),
            (random_table(), "B", ((0.5, -0.7),)),
        )
        for W, mode, points in cases:
            out = loss_convolve(W, eta, mode)
            for x, p in points:
                kernel = np.exp(
                    -eta
                    / (1.0 - eta)
                    * ((xp - x / math.sqrt(eta)) ** 2 + (pp - p / math.sqrt(eta)) ** 2)
                ) / (math.pi * (1.0 - eta))
                if mode == "A":
                    integrand = evaluate(W, xp, pp, *spectator) * kernel
                    closed = evaluate(out, x, p, *spectator)
                else:
                    integrand = evaluate(W, *spectator, xp, pp) * kernel
                    closed = evaluate(out, *spectator, x, p)
                numeric = np.trapezoid(np.trapezoid(integrand, g, axis=1), g)
                assert numeric == pytest.approx(complex(closed), abs=1e-6)

    def test_degree_preserved(self):
        W = initial_wigner()
        out = loss_convolve(squeeze_rescale(W, 1.0, +1), 0.9)
        assert out.coeffs.shape == W.coeffs.shape


class TestMoments:
    def test_normalization_moment(self):
        assert gaussian_moment(initial_wigner(), (0, 0, 0, 0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_xa_second_moment(self):
        # mixture of vacuum (1/2) and one photon (3/2) in arm A
        val = gaussian_moment(initial_wigner(), (2, 0, 0, 0))
        assert val.real == pytest.approx(1.0, abs=1e-12)

    def test_table_degree_bounded(self):
        # the import-time tables hold the powers of degree-4 tables
        GaussianPolyWigner(widths=np.ones(4), coeffs=np.ones((5, 1, 1, 5)))
        with pytest.raises(ValueError, match="at most 4"):
            GaussianPolyWigner(widths=np.ones(4), coeffs=np.ones((1, 6, 1, 1)))


class TestExtraction:
    def test_input_state_fixture(self):
        rho = projected(initial_wigner())
        assert rho.p01 == pytest.approx(0.5, abs=1e-12)
        assert rho.p10 == pytest.approx(0.5, abs=1e-12)
        assert rho.d == pytest.approx(0.5, abs=1e-12)
        assert rho.p00 == pytest.approx(0.0, abs=1e-12)
        assert rho.p11 == pytest.approx(0.0, abs=1e-12)
        assert rho.off_x_max() < 1e-12

    def test_lossless_pipeline_identity(self):
        r = 2.6515
        W = squeeze_rescale(squeeze_rescale(initial_wigner(), r, +1), r, -1)
        rho = projected(W)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = expected[2, 1] = expected[1, 2] = 0.5
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_hermitian(self):
        W = loss_convolve(squeeze_rescale(initial_wigner(), 1.2, +1), 0.9)
        rho = projected(W)
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-12


    def test_against_gauss_hermite_oracle(self):
        # <a|rho|b> = (2 pi)^2 * integral of W times the Wigner transforms of
        # |b_A><a_A| and |b_B><a_B|; 8 Gauss-Hermite nodes per axis integrate
        # these degree <= 4 polynomials exactly.  Random complex coefficients
        # make every element distinct, so index or conjugation slips show.
        rng = np.random.default_rng(5)
        W = GaussianPolyWigner(
            widths=rng.uniform(0.2, 3.0, 4),
            coeffs=rng.normal(size=(3, 3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3, 3)),
        )
        nodes, wts = np.polynomial.hermite.hermgauss(8)
        scale = np.sqrt(W.widths + 1.0)
        grid = np.meshgrid(*(nodes / s for s in scale), indexing="ij")
        weight = np.einsum("i,j,k,l->ijkl", wts, wts, wts, wts) / np.prod(scale)
        poly = evaluate(W, *grid) * np.exp(
            sum(w * g**2 for w, g in zip(W.widths, grid))
        )

        def transform(ket, bra, x, p):
            return {
                (0, 0): np.ones_like(x),
                (1, 1): 2.0 * x**2 + 2.0 * p**2 - 1.0,
                (1, 0): math.sqrt(2.0) * (x - 1j * p),
                (0, 1): math.sqrt(2.0) * (x + 1j * p),
            }[(ket, bra)] / math.pi

        expected = np.empty((4, 4), dtype=complex)
        for row in range(4):
            a_A, a_B = divmod(row, 2)
            for col in range(4):
                b_A, b_B = divmod(col, 2)
                f = (
                    poly
                    * transform(b_A, a_A, grid[0], grid[1])
                    * transform(b_B, a_B, grid[2], grid[3])
                )
                expected[row, col] = (2.0 * math.pi) ** 2 * np.sum(f * weight)
        got = extract_projected(W)
        assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()


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
        # marginalize numerically along the conjugate quadrature, on a lossy
        # squeezed state and on a random complex table at theta = 0 and pi/2
        s = np.linspace(-9.0, 9.0, 721)
        sa, sb = np.meshgrid(s, s)
        cases = (
            (loss_convolve(squeeze_rescale(initial_wigner(), 0.8, +1), 0.9),
             0.6, 1.9, ((0.0, 0.0), (0.8, -0.5), (-1.3, 0.2))),
            (random_table(), 0.0, math.pi / 2, ((0.8, -0.5),)),
            (random_table(), math.pi / 2, 0.0, ((-1.3, 0.2),)),
        )
        for W, theta_a, theta_b, points in cases:
            pdf = rotated_quadrature_pdf(W, theta_a, theta_b)
            for xa, xb in points:
                xrot_a = xa * math.cos(theta_a) - sa * math.sin(theta_a)
                prot_a = xa * math.sin(theta_a) + sa * math.cos(theta_a)
                xrot_b = xb * math.cos(theta_b) - sb * math.sin(theta_b)
                prot_b = xb * math.sin(theta_b) + sb * math.cos(theta_b)
                vals = evaluate(W, xrot_a, prot_a, xrot_b, prot_b).real
                numeric = np.trapezoid(np.trapezoid(vals, s, axis=1), s)
                assert pdf(xa, xb) == pytest.approx(numeric, abs=1e-8)


class TestLeadingAxes:
    """Kernels on stacked tables: every index of the leading axes is one
    state, and equals the kernel called on that state alone."""

    LEAD = (2, 3)

    def stack(self) -> GaussianPolyWigner:
        rng = np.random.default_rng(11)
        shape = self.LEAD + (3, 3, 3, 3)
        return GaussianPolyWigner(
            widths=rng.uniform(0.5, 2.0, self.LEAD + (4,)),
            coeffs=rng.normal(size=shape) + 1j * rng.normal(size=shape),
        )

    @staticmethod
    def row(W: GaussianPolyWigner, i) -> GaussianPolyWigner:
        return GaussianPolyWigner(widths=W.widths[i], coeffs=W.coeffs[i])

    def test_rows_equal_single_calls_bit_for_bit(self):
        W = self.stack()
        # identities (eta = 1, r = 0) next to rows that change
        eta = np.array([[1.0, 0.9, 0.0], [0.35, 1.0, 0.999]])
        r = np.array([[0.0, 0.4, 1.7], [0.0, 3.0, 1.0]])
        kernels = (
            lambda w, e, s: loss_convolve(w, e),
            lambda w, e, s: loss_convolve(w, e, "A"),
            lambda w, e, s: squeeze_rescale(w, s, +1),
            lambda w, e, s: squeeze_rescale(w, s, -1),
        )
        for kernel in kernels:
            stacked = kernel(W, eta, r)
            for i in np.ndindex(self.LEAD):
                one = kernel(self.row(W, i), eta[i], r[i])
                assert np.array_equal(stacked.coeffs[i], one.coeffs)
                assert np.array_equal(stacked.widths[i], one.widths)
        blocks = extract_projected(W)
        assert blocks.shape == self.LEAD + (4, 4)
        for i in np.ndindex(self.LEAD):
            assert np.array_equal(blocks[i], extract_projected(self.row(W, i)))

    def test_identity_rows_are_exact(self):
        W = self.stack()
        ones, zeros = np.ones(self.LEAD), np.zeros(self.LEAD)
        for out in (loss_convolve(W, ones, "A"), squeeze_rescale(W, zeros)):
            assert np.array_equal(out.coeffs, W.coeffs)
            assert np.array_equal(out.widths, W.widths)

    def test_one_state_broadcasts_over_parameters(self):
        W = squeeze_rescale(initial_wigner(), 1.0, +1)
        eta = np.array([0.2, 0.9, 1.0])
        out = loss_convolve(W, eta)
        assert out.widths.shape == (3, 4) and out.coeffs.shape == (3, 3, 3, 3, 3)
        for i, e in enumerate(eta):
            assert np.array_equal(out.coeffs[i], loss_convolve(W, e).coeffs)
        r = np.array([0.0, 0.5])
        squeezed = squeeze_rescale(W, r, -1)
        assert squeezed.widths.shape == (2, 4)
        for i, value in enumerate(r):
            assert np.array_equal(squeezed.coeffs[i], squeeze_rescale(W, value, -1).coeffs)

    def test_leading_axes_must_agree(self):
        with pytest.raises(ValueError, match="four axes after those of the widths"):
            GaussianPolyWigner(widths=np.ones((2, 4)), coeffs=np.ones((3, 1, 1, 1, 1)))
        with pytest.raises(ValueError, match="length 4"):
            GaussianPolyWigner(widths=np.ones(3), coeffs=np.ones((1, 1, 1, 1)))

    def test_eta_checked_on_every_row(self):
        eta = np.full(self.LEAD, 0.5)
        eta[1, 2] = np.nan
        with pytest.raises(ValueError, match="eta must lie"):
            loss_convolve(self.stack(), eta)
