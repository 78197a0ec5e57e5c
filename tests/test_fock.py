"""Fock-engine tests: closed forms, squeeze unitary, loss channel, projection.

Expected amplitude values were frozen from 40-digit mpmath evaluation of the
squeezed-state series; channel algebra is checked against brute-force dense
Kraus matrices built independently with math.comb, and the squeeze
propagator against scipy.linalg.expm of the dense truncated generator.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from micromacro import (
    BranchEnsemble,
    SqueezePropagator,
    TailToleranceError,
    TruncationError,
    apply_squeeze,
    branches_to_projected,
    choose_n_max,
    loss_on_branch,
    loss_on_spectator,
    mean_photon,
    project_through_loss,
    squeezed_one,
    squeezed_vacuum,
)

from micromacro.fock import prune_branches

from conftest import random_branches

# mpmath oracle, 40 digits: (1/sqrt(cosh r)) * sqrt((2k)!)/(2^k k!) * (-tanh r)^k
SV_05 = {
    0: 0.94171061583167570696,
    2: -0.30771917645837044864,
    4: 0.12315081385423961315,
    6: -0.051951579529423580739,
}
# (1/cosh r^{3/2}) * sqrt((2k+1)!)/(2^k k!) * (-tanh r)^k
SO_05 = {
    1: 0.83512675735461766439,
    3: -0.47266138288293331593,
    5: 0.2442065008782438981,
}
SINH2_1 = 1.3810978455418157  # sinh(1)^2, mpmath
RATIO_26 = 3.022311747061185  # (1+3 sinh^2 2.6)/sinh^2 2.6, mpmath


class TestSqueezedStates:
    def test_r_zero_is_vacuum(self):
        st = squeezed_vacuum(0.0)
        assert st[0] == 1.0
        assert np.all(st[1:] == 0.0)

    def test_r_zero_single_photon(self):
        st = squeezed_one(0.0)
        assert st[1] == 1.0
        assert st[0] == 0.0

    def test_closed_form_amplitudes_r_05(self):
        sv = squeezed_vacuum(0.5)
        for n, ref in SV_05.items():
            assert sv[n] == pytest.approx(ref, abs=1e-14)
        so = squeezed_one(0.5)
        for n, ref in SO_05.items():
            assert so[n] == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0, 2.6])
    def test_parity_support(self, r):
        sv = squeezed_vacuum(r)
        so = squeezed_one(r)
        assert np.all(sv[1::2] == 0.0)
        assert np.all(so[0::2] == 0.0)

    @pytest.mark.parametrize("r", [0.5, 1.5, 2.6])
    def test_norm_within_tail_tolerance(self, r):
        for state in (squeezed_vacuum(r), squeezed_one(r)):
            assert np.sum(state**2) == pytest.approx(1.0, abs=2e-10)

    def test_fig2a_distributions_r26(self):
        # even-only / odd-only photon statistics with the 3:1 mean ratio
        sv = squeezed_vacuum(2.6)
        so = squeezed_one(2.6)
        assert np.all(sv[1::2] ** 2 == 0.0)
        assert np.all(so[0::2] ** 2 == 0.0)
        ratio = mean_photon(so) / mean_photon(sv)
        assert ratio == pytest.approx(RATIO_26, abs=1e-6)

    def test_explicit_n_max_too_small_raises(self):
        with pytest.raises(TruncationError):
            squeezed_vacuum(2.0, n_max=20)
        with pytest.raises(TruncationError):
            squeezed_one(2.0, n_max=20)

    def test_choose_n_max_monotone_and_certified(self):
        previous = 0
        for r in (0.5, 1.0, 1.5, 2.0, 2.65):
            bound = choose_n_max(r)
            assert bound >= previous
            previous = bound
            assert np.sum(squeezed_vacuum(r, bound)[bound - 1 :] ** 2) < 1e-9

    def test_choose_n_max_cap(self):
        with pytest.raises(TruncationError):
            choose_n_max(4.0)


class TestMeanPhoton:
    def test_squeezed_vacuum_r1(self):
        assert mean_photon(squeezed_vacuum(1.0)) == pytest.approx(SINH2_1, rel=1e-8)

    def test_single_photon_r0(self):
        assert mean_photon(squeezed_one(0.0)) == 1.0

    @pytest.mark.parametrize("r", np.linspace(0.0, 2.7, 10))
    def test_closed_forms(self, r):
        s2 = math.sinh(r) ** 2
        n0 = mean_photon(squeezed_vacuum(r))
        n1 = mean_photon(squeezed_one(r))
        assert n0 == pytest.approx(s2, rel=1e-6, abs=1e-12)
        assert n1 == pytest.approx(1.0 + 3.0 * s2, rel=1e-6)


def _fock(n: int, n_max: int) -> np.ndarray:
    out = np.zeros(n_max + 1)
    out[n] = 1.0
    return out


def _dense_generator(n_max: int) -> np.ndarray:
    """Independent oracle: (a^2 - a+^2)/2 as a dense truncated matrix."""
    out = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max - 1):
        b = math.sqrt((n + 1) * (n + 2)) / 2.0
        out[n, n + 2] = b
        out[n + 2, n] = -b
    return out


class TestSqueezePropagator:
    # n_max 5..13 covers even- and odd-length parity chains (the zero mode)
    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 6, 7, 8, 12, 13])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_dense_expm(self, n_max, sign):
        r = 0.8
        oracle = expm(sign * r * _dense_generator(n_max))
        got = SqueezePropagator(r, n_max).apply_columns(np.eye(n_max + 1), sign)
        assert np.abs(got - oracle).max() < 1e-12

    def test_complex_stack_splits_into_parts(self):
        rng = np.random.default_rng(3)
        ens = random_branches(rng, count=4, dim=12)
        stack = np.concatenate([ens.U, ens.V], axis=1)
        prop = SqueezePropagator(0.6, 11)
        for sign in (+1, -1):
            whole = prop.apply_columns(stack, sign)
            parts = prop.apply_columns(stack.real, sign) + 1j * prop.apply_columns(
                stack.imag, sign
            )
            assert np.array_equal(whole, parts)
            assert np.abs(whole - expm(sign * 0.6 * _dense_generator(11)) @ stack).max() < 1e-12

    def test_vector_input_keeps_shape(self):
        out = SqueezePropagator(0.5, 9).apply_columns(_fock(1, 9))
        assert out.shape == (10,)


class TestApplySqueeze:
    def test_matches_closed_form_on_vacuum(self):
        sv = squeezed_vacuum(0.5)
        out = apply_squeeze(_fock(0, len(sv) - 1), 0.5, +1)
        assert np.abs(out - sv).max() < 1e-8

    def test_matches_closed_form_on_one(self):
        so = squeezed_one(1.2)
        out = apply_squeeze(_fock(1, len(so) - 1), 1.2, +1)
        assert np.abs(out - so).max() < 1e-8

    def test_odd_support_preserved(self):
        out = apply_squeeze(_fock(1, 200), 1.0, +1)
        assert np.abs(out[::2]).max() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_random_state(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=21) + 1j * rng.normal(size=21)
        psi /= np.linalg.norm(psi)
        state = np.zeros(1200, dtype=complex)
        state[:21] = psi
        r = float(rng.uniform(0.2, 1.5))
        fwd = apply_squeeze(state, r, +1)
        assert np.vdot(fwd, fwd).real == pytest.approx(1.0, abs=1e-8)
        back = apply_squeeze(fwd, r, -1)
        assert np.abs(back - state).max() < 1e-8

    def test_identity_at_r_zero(self):
        state = _fock(1, 10)
        assert apply_squeeze(state, 0.0, +1) is state

    def test_leak_past_n_max_raises(self):
        with pytest.raises(TruncationError):
            apply_squeeze(_fock(0, 10), 2.0, +1)


def _dense_kraus(n_dim: int, k: int, eta: float) -> np.ndarray:
    """Independent oracle: E_k as a dense matrix from binomial coefficients."""
    out = np.zeros((n_dim, n_dim))
    for n in range(k, n_dim):
        out[n - k, n] = math.sqrt(
            math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k
        )
    return out


def _channel(rho: np.ndarray, eta: float) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in range(rho.shape[0]):
        e = _dense_kraus(rho.shape[0], k, eta)
        out += e @ rho @ e.T
    return out


def _reduced_dm(ens) -> np.ndarray:
    w = ens.weights
    return (ens.U * w) @ ens.U.conj().T + (ens.V * w) @ ens.V.conj().T


def _single(u, v, weight=1.0) -> BranchEnsemble:
    return BranchEnsemble([weight], np.asarray(u)[:, None], np.asarray(v)[:, None])


class TestLossChannel:
    def test_lossless_identity(self, bell_branch):
        out = loss_on_branch(bell_branch, 1.0)
        assert len(out) == 1
        assert out is bell_branch

    def test_single_photon_branches(self):
        out = loss_on_branch(_single(_fock(1, 4), np.zeros(5)), 0.9)
        assert len(out) == 2
        assert out.kraus_orders == (1,)
        assert out.U[1, 0] == pytest.approx(math.sqrt(0.9))
        assert out.U[0, 1] == pytest.approx(math.sqrt(0.1))
        rho = _reduced_dm(out)
        assert rho[1, 1] == pytest.approx(0.9)
        assert rho[0, 0] == pytest.approx(0.1)

    def test_composition_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        branches = random_branches(rng, count=2, dim=11)
        rho_in = _reduced_dm(branches)

        after_a = loss_on_branch(branches, 0.9, tail_tol=1e-30)
        after_ab = loss_on_branch(after_a, 0.8, tail_tol=1e-30)
        combined = loss_on_branch(branches, 0.72, tail_tol=1e-30)

        assert np.abs(_reduced_dm(after_ab) - _reduced_dm(combined)).max() < 1e-10
        # and both agree with the dense superoperator oracle
        oracle = _channel(_channel(rho_in, 0.9), 0.8)
        assert np.abs(_reduced_dm(after_ab) - oracle).max() < 1e-10

    def test_trace_deficit_below_tolerance(self):
        sv = squeezed_vacuum(1.5)
        branch = _single(sv, np.zeros(len(sv)))
        out = loss_on_branch(branch, 0.8, tail_tol=1e-10)
        total = out.traces.sum()
        assert branch.traces.sum() - total < 1e-10
        assert total <= branch.traces.sum() + 1e-12

    def test_explicit_k_max_unreachable(self):
        sv = squeezed_vacuum(1.5)
        branch = _single(sv, np.zeros(len(sv)))
        with pytest.raises(TailToleranceError):
            loss_on_branch(branch, 0.5, tail_tol=1e-10, k_max=1)

    def test_invalid_eta(self, bell_branch):
        for eta in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError):
                loss_on_branch(bell_branch, eta)
        with pytest.raises(ValueError):
            loss_on_branch(bell_branch, 0.9, k_max=-1)

    def test_eta_zero_dumps_to_vacuum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log(0) in the Kraus table
            out = loss_on_branch(_single(_fock(3, 5), np.zeros(6)), 0.0)
        # E_k = |0><k|: only the k = 3 image survives, moved to vacuum
        assert np.abs(out.U[1:]).max() == 0.0
        assert np.flatnonzero(out.U[0]).tolist() == [3]
        rho = _reduced_dm(out)
        assert rho[0, 0] == pytest.approx(1.0)
        assert np.abs(rho - np.diag(np.diag(rho))).max() == 0.0

    def test_matches_dense_kraus_per_order(self):
        rng = np.random.default_rng(8)
        ens = random_branches(rng, count=3, dim=9)
        out = loss_on_branch(ens, 0.7, tail_tol=1e-30)
        assert out.kraus_orders == (8, 8, 8)
        for b in range(3):
            for k in range(9):
                e_k = _dense_kraus(9, k, 0.7)
                j = 9 * b + k
                assert np.abs(out.U[:, j] - e_k @ ens.U[:, b]).max() < 1e-14
                assert np.abs(out.V[:, j] - e_k @ ens.V[:, b]).max() < 1e-14
                assert out.weights[j] == ens.weights[b]

    def test_spectator_loss(self, bell_branch):
        out = loss_on_spectator(bell_branch, 0.8)
        assert out.traces.sum() == pytest.approx(bell_branch.traces.sum())
        assert out.U[0, 0] == pytest.approx(math.sqrt(0.8) / math.sqrt(2))
        assert out.V[0, 1] == pytest.approx(math.sqrt(0.2) / math.sqrt(2))


class TestEnsemble:
    def test_len_is_branch_count(self):
        ens = random_branches(np.random.default_rng(1), count=5, dim=4)
        assert len(ens) == 5
        assert ens.n_max == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BranchEnsemble([1.0, 1.0], np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            BranchEnsemble([1.0], np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            BranchEnsemble([-1.0], np.zeros((3, 1)), np.zeros((3, 1)))

    def test_support_is_weighted_suffix_scan(self):
        u = np.zeros((8, 2))
        v = np.zeros((8, 2))
        u[2, 0] = 1.0
        v[5, 1] = 1e-4  # mass 1e-8 * weight 0.5
        ens = BranchEnsemble([1.0, 0.5], u, v)
        assert ens.support(1e-12) == 5
        assert ens.support(1e-6) == 2
        assert ens.support(10.0) == 1  # nothing above the tolerance

    def test_prune_is_a_mask(self):
        u = np.zeros((3, 3))
        u[0] = [1.0, 1e-8, 0.5]
        ens = BranchEnsemble([1.0, 1.0, 1.0], u, np.zeros((3, 3)))
        kept, dropped = prune_branches(ens)
        assert len(kept) == 2
        assert dropped == pytest.approx(1e-16)
        assert np.array_equal(kept.U[0], [1.0, 0.5])


class TestProjection:
    def test_input_state_block(self, bell_branch):
        rho = branches_to_projected(bell_branch)
        assert rho.p01 == pytest.approx(0.5)
        assert rho.p10 == pytest.approx(0.5)
        assert rho.d == pytest.approx(0.5)
        assert rho.p00 == rho.p11 == 0.0
        assert rho.off_x_max() == 0.0

    def test_single_photon_loss_closed_form(self, bell_branch):
        # r=0 with eta=0.81 on arm B: worked out by hand from two branches
        out = loss_on_branch(bell_branch, 0.81)
        rho = branches_to_projected(out)
        assert rho.p10 == pytest.approx(0.5, abs=1e-12)
        assert rho.p01 == pytest.approx(0.405, abs=1e-12)
        assert rho.p00 == pytest.approx(0.095, abs=1e-12)
        assert rho.d == pytest.approx(0.45, abs=1e-12)
        assert rho.p11 == 0.0
        assert rho.d_prime == 0.0

    def test_fused_projection_equals_expansion(self):
        rng = np.random.default_rng(11)
        for eta in (1.0, 0.93, 0.6):
            branches = random_branches(rng, count=3, dim=9)
            expanded = loss_on_branch(branches, eta, tail_tol=1e-30)
            direct = branches_to_projected(expanded)
            fused = project_through_loss(branches, eta)
            assert np.abs(direct.matrix - fused.matrix).max() < 1e-13

    def test_ensemble_trace_bound(self):
        rng = np.random.default_rng(5)
        branches = random_branches(rng, count=4, dim=7)
        total = branches.traces.sum()
        assert total <= 1.0 + 1e-12
        rho = branches_to_projected(branches)
        assert rho.trace <= total + 1e-12
