"""Concurrence and success-probability tests.

The eigenvalue (spin-flip) route acts as the oracle for the X-state closed
form on randomly generated physical X states; positivity of those states is
guaranteed by drawing |d| <= sqrt(p01 p10) and |d'| <= sqrt(p00 p11).
"""

import numpy as np
import pytest

from micromacro import (
    NotAnXStateError,
    ProjectedDensityMatrix,
    concurrence_general,
    concurrence_xstate,
    success_probability,
    xstate_formula,
)
from micromacro.entanglement import spin_flip_concurrence

from conftest import check_physical, xstate


def bell_matrix() -> ProjectedDensityMatrix:
    return xstate(0.0, 0.5, 0.5, 0.0, d=0.5)


def unnormalized_xstate(rho: ProjectedDensityMatrix) -> float:
    """The X-state formula on the raw entries, without trace normalization."""
    return xstate_formula(rho.p00, rho.p01, rho.p10, rho.p11, rho.d, rho.d_prime)[0]


def random_physical_xstate(rng) -> ProjectedDensityMatrix:
    p = rng.dirichlet(np.ones(4))
    d = (
        rng.uniform(0.0, 1.0)
        * np.sqrt(p[1] * p[2])
        * np.exp(1j * rng.uniform(0, 2 * np.pi))
    )
    dp = (
        rng.uniform(0.0, 1.0)
        * np.sqrt(p[0] * p[3])
        * np.exp(1j * rng.uniform(0, 2 * np.pi))
    )
    return xstate(p[0], p[1], p[2], p[3], d, dp)


class TestConcurrenceGeneral:
    def test_bell_state(self):
        res = concurrence_general(bell_matrix())
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.branch == "d"

    def test_product_state(self):
        rho = xstate(1.0, 0.0, 0.0, 0.0)
        res = concurrence_general(rho)
        assert res.value == 0.0
        assert res.branch == "zero"

    def test_single_photon_loss_value(self):
        # eta=0.81 loss on the input state: C = sqrt(0.81) = 0.9 exactly
        rho = xstate(0.095, 0.405, 0.5, 0.0, d=0.45)
        assert concurrence_general(rho).value == pytest.approx(0.9, abs=1e-12)

    def test_eigenvalue_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            rho = random_physical_xstate(rng)
            res = concurrence_general(rho)
            _, mu, _ = spin_flip_concurrence(rho.matrix)
            lam = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)))[::-1]
            assert res.value == pytest.approx(
                max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), abs=1e-10
            )

    def test_spin_flip_core_on_a_stack(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(8, 4, 4)) + 1j * rng.normal(size=(8, 4, 4))
        stack = g @ g.conj().swapaxes(-1, -2)
        stack[4:] = [random_physical_xstate(rng).matrix for _ in range(4)]
        stack[3] = -stack[3]  # trace < 0: no concurrence
        h, mu, values = spin_flip_concurrence(stack)
        assert values.shape == (8,) and np.any(values > 0) and values[3] == 0.0
        traces = np.trace(h, axis1=-2, axis2=-1)
        assert np.allclose(np.delete(traces, 3), 1.0)
        for i, m in enumerate(stack):
            h_i, mu_i, value_i = spin_flip_concurrence(m)
            assert np.array_equal(h[i], h_i)
            assert np.array_equal(mu[i], mu_i)
            assert values[i] == value_i

    def test_zero_trace_raises(self):
        rho = ProjectedDensityMatrix(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            concurrence_general(rho)

    def test_nonpositive_raises(self):
        # |d| far above sqrt(p01 p10) violates positivity
        rho = xstate(0.0, 0.5, 0.5, 0.0, d=0.9)
        with pytest.raises(ValueError):
            concurrence_general(rho)

    def test_local_phase_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            rho = random_physical_xstate(rng)
            base = concurrence_general(rho).value
            for which in (0, 1):
                phi = rng.uniform(0, 2 * np.pi)
                if which == 0:
                    u = np.kron(np.diag([1.0, np.exp(1j * phi)]), np.eye(2))
                else:
                    u = np.kron(np.eye(2), np.diag([1.0, np.exp(1j * phi)]))
                rotated = ProjectedDensityMatrix(u @ rho.matrix @ u.conj().T)
                assert concurrence_general(rotated).value == pytest.approx(
                    base, abs=1e-10
                )


class TestConcurrenceXState:
    def test_formula_arithmetic(self):
        # direct plug-in of the closed form, no normalization
        value, branch = xstate_formula(0.1, 0.25, 0.25, 0.1, 0.3, 0.0)
        assert value == pytest.approx(0.4, abs=1e-15)
        assert branch == "d"
        rho = xstate(0.1, 0.25, 0.25, 0.1, d=0.3)
        assert unnormalized_xstate(rho) == pytest.approx(0.4, abs=1e-15)

    def test_bell_state(self):
        assert concurrence_xstate(bell_matrix()).value == pytest.approx(1.0)

    def test_rejects_off_x_weight(self):
        m = np.array(bell_matrix().matrix)
        m[0, 1] = 0.05
        m[1, 0] = 0.05
        with pytest.raises(NotAnXStateError):
            concurrence_xstate(ProjectedDensityMatrix(m))

    def test_agrees_with_general_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = random_physical_xstate(rng)
            fast = concurrence_xstate(rho)
            slow = concurrence_general(rho)
            assert fast.value == pytest.approx(slow.value, abs=1e-10)

    def test_normalization_default(self):
        # scaled Bell matrix: unnormalized trace 0.5, concurrence still 1
        rho = ProjectedDensityMatrix(bell_matrix().matrix * 0.5)
        assert concurrence_xstate(rho).value == pytest.approx(1.0, abs=1e-12)
        assert unnormalized_xstate(rho) == pytest.approx(0.5)

    def test_value_range(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            value = concurrence_xstate(random_physical_xstate(rng)).value
            assert 0.0 <= value <= 1.0 + 1e-12


class TestSuccessProbability:
    def test_bell(self):
        assert success_probability(bell_matrix()) == pytest.approx(1.0)

    def test_unnormalized_trace(self):
        rho = xstate(0.1, 0.2, 0.3, 0.05)
        assert success_probability(rho) == pytest.approx(0.65)


class TestProjectedDensityMatrix:
    def test_validation_passes_for_physical(self):
        rng = np.random.default_rng(2)
        check_physical(random_physical_xstate(rng))

    def test_validation_rejects_block_violation(self):
        rho = xstate(0.0, 0.5, 0.5, 0.0, d=0.6)
        with pytest.raises(ValueError):
            check_physical(rho)

    def test_off_x_max(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1e-3
        assert ProjectedDensityMatrix(m).off_x_max() == pytest.approx(1e-3)
