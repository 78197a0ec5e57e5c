"""Fock-engine tests: closed forms, squeeze unitary, loss channel, projection.

Expected amplitude values were frozen from 40-digit mpmath evaluation of the
squeezed-state series; channel algebra is checked against brute-force dense
Kraus matrices built independently with math.comb, and the squeeze
propagator against scipy.linalg.expm of the dense truncated generator.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from micromacro import (
    BranchEnsemble,
    SqueezePropagator,
    TruncationError,
    choose_n_max,
    loss_on_branch,
    mean_photon,
    project_through_loss,
    squeezed_one,
    squeezed_vacuum,
)

from micromacro import fock as fk
from micromacro import pipeline as pl
from micromacro.fock import _CHUNK_ENTRIES, get_propagator, prune_branches

from conftest import branches_to_projected, random_branches, spectator_split

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

    @pytest.mark.parametrize("tol", [1e-14, 1e-17])
    def test_chosen_n_max_passes_the_tail_check(self, tol):
        # a float 1 - sum(p) rounds at ~1e-16: it read 1.03e-14 for the one
        # family at r = 2 on choose_n_max(2, 1e-14)
        for r in (1.5, 2.0):
            n_max = choose_n_max(r, tol)
            assert len(squeezed_vacuum(r, n_max, tol)) == n_max + 1
            assert len(squeezed_one(r, None, tol)) == n_max + 1

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


def _padded_inverse_head(r: float, n_max: int, rows: int) -> np.ndarray:
    """Rows 0..rows-1 of S(r)^-1 on photon numbers 0..n_max, from expm of
    the dense generator on 4 n_max + 64 photons: the exact operator's entries,
    clear of the truncation's reflection off n_max."""
    return expm(-r * _dense_generator(4 * n_max + 64))[:rows, : n_max + 1]


class TestSqueezePropagator:
    # n_max 5..13 covers even- and odd-length parity chains (the zero mode);
    # 60 and 61 take both at the squeeze of n = 100
    @pytest.mark.parametrize("n_max", [0, 1, 2, 5, 6, 7, 8, 12, 13, 60, 61])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_dense_expm(self, n_max, sign):
        r = 2.65 if n_max >= 60 else 0.8
        oracle = expm(sign * r * _dense_generator(n_max))
        got = SqueezePropagator(r, n_max).apply_columns(np.eye(n_max + 1), sign)
        assert np.abs(got - oracle).max() < 1e-12

    # S^-1 S = I on the truncated space, across the truncations of n = 100 and
    # of the paper's largest n = 300, where the eigenvectors' orthogonality
    # errors add up the most
    @pytest.mark.parametrize("target_n", [100.0, 300.0])
    def test_round_trip_on_unit_columns(self, target_n):
        r = pl.solve_r_for_n(target_n)
        n_max = choose_n_max(r)
        cols = np.zeros((n_max + 1, 300))
        cols[np.linspace(0, n_max, 300).astype(int), np.arange(300)] = 1.0
        prop = SqueezePropagator(r, n_max)
        back = prop.apply_columns(prop.apply_columns(cols, +1), -1)
        assert np.abs(back - cols).max() < 1e-13

    def test_complex_stack_splits_into_parts(self):
        rng = np.random.default_rng(3)
        ens = random_branches(rng, count=4, dim=12)
        stack = np.concatenate([ens.amps[1], ens.amps[0]], axis=1)
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


def _mp_squeezed_columns(r: float, n_max: int, count: int) -> np.ndarray:
    """40-digit oracle of S(r)|j>, j < count, on rows 0..n_max: the squeezed
    vacuum in closed form, <0|S|j> = |<j|S|0>| for even j, and the row
    recurrence psi_j[m+1] = (sqrt(j) psi_{j-1}[m] - sinh r sqrt(m)
    psi_j[m-1]) / (cosh r sqrt(m+1)) stepped one row at a time."""
    with mpmath.workdps(40):
        x = mpmath.mpf(r)
        c, s, t = mpmath.cosh(x), mpmath.sinh(x), mpmath.tanh(x)

        def vacuum(n, sign):  # <n|S(+-r)|0>
            k = n // 2
            return (sign * t) ** k * mpmath.sqrt(mpmath.factorial(n)) / (
                2**k * mpmath.factorial(k) * mpmath.sqrt(c))

        cols = [[vacuum(n, -1) if n % 2 == 0 else 0 for n in range(n_max + 1)]]
        for j in range(1, count):
            col = [vacuum(j, +1) if j % 2 == 0 else mpmath.mpf(0)] + [0] * n_max
            for m in range(j % 2 == 0, n_max, 2):
                below = col[m - 1] if m else 0
                col[m + 1] = (mpmath.sqrt(j) * cols[-1][m] - s * mpmath.sqrt(m) * below) / (
                    c * mpmath.sqrt(m + 1))
            cols.append(col)
        return np.array([[float(v) for v in col] for col in cols]).T


class TestInverseHead:
    """The head of S^-1 a plain run's loss reads: at most 24 rows from the
    photon-number recurrence, taller heads from the propagator."""

    @pytest.mark.parametrize("target_n", [1.0, 10.0, 100.0, 300.0])
    def test_recurrence_matches_mpmath(self, target_n):
        # the recurrence for rows <= R reads only rows <= R, so the
        # comparison crops the chain at 400 photons
        r = pl.solve_r_for_n(target_n)
        rows, n_max = fk._RECURRENCE_ROWS, min(choose_n_max(r), 400)
        heads = fk._inverse_head(r, n_max, rows)
        full = fk._inverse_head(r, choose_n_max(r), rows)
        oracle = _mp_squeezed_columns(r, n_max, rows)
        for p in (0, 1):
            assert np.abs(heads[p] - oracle[p::2, p::2]).max() <= 2e-12
            assert np.array_equal(heads[p], full[p][: len(heads[p])])

    @pytest.mark.parametrize("n_max", [1, 2, 5, 6, 13, 32])
    @pytest.mark.parametrize("rows", [2, 7, 21, 24])
    def test_recurrence_head_matches_padded_expm(self, n_max, rows):
        r = 0.6 if n_max < 32 else pl.solve_r_for_n(1.0)
        rows = min(rows, n_max + 1)
        heads = fk._inverse_head(r, n_max, rows)
        oracle = _padded_inverse_head(r, n_max, rows)
        for p in (0, 1):
            assert np.abs(heads[p] - oracle[p::2, p::2].T).max() < 1e-13
            assert not heads[p].flags.writeable

    def test_route_turns_at_24_rows(self):
        # near the truncation the two routes differ by far more than their
        # error: 24 rows hold S(r)|j> cut at n_max, 25 rows the columns of
        # the unitary on the truncated space
        r, n_max = 0.8, 40
        exact = _padded_inverse_head(r, n_max, 25)
        truncated = expm(-r * _dense_generator(n_max))[:25]
        assert np.abs(exact - truncated).max() > 0.1
        for rows, oracle in ((24, exact[:24]), (25, truncated)):
            heads = fk._inverse_head(r, n_max, rows)
            for p in (0, 1):
                assert np.abs(heads[p] - oracle[p::2, p::2].T).max() < 1e-12, rows

    @pytest.mark.parametrize("r, n_max", [(0.0, 10), (1e-3, 400)])
    def test_degenerate_chains_are_propagated(self, r, n_max):
        # at r = 0, or where tanh(r)^(n_max/2) falls below e^-650, the
        # recurrence's homogeneous solution vanishes or underflows
        heads = fk._inverse_head(r, n_max, 6)
        oracle = expm(-r * _dense_generator(n_max))[:6]
        for p in (0, 1):
            assert np.abs(heads[p] - oracle[p::2, p::2].T).max() < 1e-13


def _forward(amps: np.ndarray, r: float) -> np.ndarray:
    """S(r) amps on the input's own truncation, which must hold the image:
    the last four rows carry no more than 1e-18 of its mass."""
    out = get_propagator(r, len(amps) - 1).apply_columns(amps, +1)
    assert np.sum(np.abs(out[-4:]) ** 2) <= 1e-18
    return out


class TestApplySqueeze:
    """The forward squeeze through the propagator, on a fixed truncation."""

    def test_matches_closed_form_on_vacuum(self):
        out = _forward(_fock(0, 400), 0.5)
        assert np.abs(out - squeezed_vacuum(0.5, 400)).max() < 1e-8

    def test_matches_closed_form_on_one(self):
        out = _forward(_fock(1, 400), 1.2)
        assert np.abs(out - squeezed_one(1.2, 400)).max() < 1e-8

    def test_odd_support_preserved(self):
        out = _forward(_fock(1, 400), 1.0)
        assert np.abs(out[::2]).max() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_random_state(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=21) + 1j * rng.normal(size=21)
        psi /= np.linalg.norm(psi)
        state = np.zeros(1200, dtype=complex)
        state[:21] = psi
        r = float(rng.uniform(0.2, 1.5))
        fwd = _forward(state, r)
        assert np.vdot(fwd, fwd).real == pytest.approx(1.0, abs=1e-8)
        back = get_propagator(r, 1199).apply_columns(fwd, -1)
        assert np.abs(back - state).max() < 1e-8


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
    return sum(a @ a.conj().T for a in ens.amps[::-1])


def _single(u, v) -> BranchEnsemble:
    return BranchEnsemble(np.stack([v, u])[:, :, None])


class TestLossChannel:
    def test_lossless_identity(self, bell_branch):
        out = loss_on_branch(bell_branch, 1.0)
        assert len(out) == 1
        assert out is bell_branch

    def test_single_photon_branches(self):
        out = loss_on_branch(_single(_fock(1, 4), np.zeros(5)), 0.9)
        assert len(out) == 2
        assert out.kraus_orders == (1,)
        assert out.amps[1, 1, 0] == pytest.approx(math.sqrt(0.9))
        assert out.amps[1, 0, 1] == pytest.approx(math.sqrt(0.1))
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

    def test_invalid_eta(self, bell_branch):
        for eta in (1.2, -0.1, math.nan):
            with pytest.raises(ValueError):
                loss_on_branch(bell_branch, eta)

    def test_eta_zero_dumps_to_vacuum(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log(0) in the Kraus table
            out = loss_on_branch(_single(_fock(3, 5), np.zeros(6)), 0.0)
        # E_k = |0><k|: only the k = 3 image carries trace, moved to vacuum,
        # and the loss emits it alone
        assert out.kraus_orders == (3,)
        assert np.abs(out.amps[1, 1:]).max() == 0.0
        assert np.flatnonzero(out.amps[1, 0]).tolist() == [0]
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
                assert np.abs(out.amps[1, :, j] - e_k @ ens.amps[1, :, b]).max() < 1e-14
                assert np.abs(out.amps[0, :, j] - e_k @ ens.amps[0, :, b]).max() < 1e-14

    @pytest.mark.parametrize("tail_tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9])
    def test_orders_are_minimal(self, eta, tail_tol):
        # branches that retire at different orders: a full complex column,
        # one cut at row 5, a geometric tail, an all-zero column pair, one
        # scaled by a zero weight and a single photon in V
        rng = np.random.default_rng(11)
        dim = 12
        U = rng.normal(size=(dim, 6)) + 1j * rng.normal(size=(dim, 6))
        V = rng.normal(size=(dim, 6)) + 1j * rng.normal(size=(dim, 6))
        U[6:, 1] = V[6:, 1] = 0.0
        U[:, 2] *= 0.1 ** np.arange(dim)
        V[:, 2] *= 0.1 ** np.arange(dim)
        U[:, 3] = V[:, 3] = 0.0
        U[:, 5], V[:, 5] = 0.0, _fock(2, dim - 1)
        weights = [0.3, 0.2, 0.25, 0.1, 0.0, 0.15]
        ens = BranchEnsemble(np.stack([V, U]) / 9.0 * np.sqrt(weights))
        out = loss_on_branch(ens, eta, tail_tol)

        total = ens.traces.sum()
        start = 0
        for b in range(len(ens)):
            share = max(tail_tol * ens.traces[b] / total, 1e-300)
            mass = np.abs(ens.amps[1, :, b]) ** 2 + np.abs(ens.amps[0, :, b]) ** 2
            top = int(np.flatnonzero(mass)[-1]) if mass.any() else 0
            images = []
            for k in range(dim):
                e_k = _dense_kraus(dim, k, eta)
                images.append((e_k @ ens.amps[1, :, b], e_k @ ens.amps[0, :, b]))
            per_order = [np.vdot(u, u).real + np.vdot(v, v).real for u, v in images]
            neglected = ens.traces[b] - np.cumsum(per_order)
            below = [k for k in range(top) if neglected[k] < share]
            assert out.kraus_orders[b] == (below[0] if below else top), b
            # the images of zero trace are not emitted
            for k in range(out.kraus_orders[b] + 1):
                if per_order[k] > 0.0:
                    assert np.abs(out.amps[1, :, start] - images[k][0]).max() < 1e-14
                    assert np.abs(out.amps[0, :, start] - images[k][1]).max() < 1e-14
                    start += 1
        assert start == len(out)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9])
    def test_chunks_match_dense_kraus(self, eta):
        # 40 photon numbers take the orders past the first chunk of 16, and
        # 240 branches make the entry budget, not the doubling, set the chunk
        # length; geometric tails and random cuts retire branches mid-chunk
        dim, count, tail_tol, r, rows = 40, 240, 1e-8, 0.7, 6
        assert 2 * dim * count * 16 > _CHUNK_ENTRIES
        rng = np.random.default_rng(17)
        amps = random_branches(rng, count=count, dim=dim).amps
        amps = amps * 0.7 ** (np.arange(dim)[:, None] * rng.uniform(0.0, 1.0, count))
        amps[:, np.arange(dim)[:, None] > rng.integers(0, dim, count)] = 0.0
        ens = BranchEnsemble(amps)
        full = loss_on_branch(ens, eta, tail_tol)
        cut = loss_on_branch(ens, eta, tail_tol, rows=rows)
        projected = loss_on_branch(ens, eta, tail_tol, r, rows)
        inverse = _padded_inverse_head(r, dim - 1, rows)
        dense = [_dense_kraus(dim, k, eta) for k in range(dim)]

        total = ens.traces.sum()
        start = 0
        for b in range(count):
            images = [ens.amps[:, :, b] @ e_k.T for e_k in dense]  # (2, dim) each
            per_order = np.array([np.vdot(img, img).real for img in images])
            neglected = ens.traces[b] - np.cumsum(per_order)
            share = max(tail_tol * ens.traces[b] / total, 1e-300)
            mass = np.abs(ens.amps[:, :, b]) ** 2
            top = int(np.flatnonzero(mass.sum(axis=0))[-1]) if mass.any() else 0
            below = [k for k in range(top) if neglected[k] < share]
            order = below[0] if below else top
            assert full.kraus_orders[b] == order, b
            # the images of zero trace are not emitted
            for k in np.flatnonzero(per_order[: order + 1]):
                assert np.abs(full.amps[:, :, start] - images[k]).max() < 1e-14
                assert np.abs(projected.amps[:, :, start] - images[k] @ inverse.T).max() < 1e-13
                assert full.traces[start] == pytest.approx(per_order[k], rel=1e-13, abs=1e-300)
                start += 1
        assert start == len(full) == len(cut) == len(projected)
        assert np.array_equal(cut.amps, full.amps[:, :rows])
        assert cut.kraus_orders == projected.kraus_orders == full.kraus_orders
        assert cut.neglected_mass == projected.neglected_mass == full.neglected_mass

    def test_zero_trace_branches_retire_at_order_zero(self):
        # and, carrying no trace, emit no image
        out = loss_on_branch(BranchEnsemble(np.zeros((2, 5, 2))), 0.5)
        assert out.kraus_orders == (0, 0)
        assert out.amps.shape == (2, 5, 0)
        assert out.neglected_mass == 0.0

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9])
    def test_emitted_images_and_neglected_mass_balance(self, eta):
        # random branches plus an all-zero column, a zero-weight column and a
        # one-parity column (odd orders of which carry no trace at eta = 0):
        # every image emitted carries trace, and the trace the loss leaves
        # out is what the emitted images miss of the input's
        tail_tol, r, dim = 1e-8, 0.7, 16
        weights = [0.2, 0.1, 0.3, 0.0, 0.15, 0.25]
        amps = random_branches(np.random.default_rng(31), count=6, dim=dim, weights=weights).amps
        amps[:, :, 4] = 0.0
        amps[:, 1::2, 5] = 0.0  # even photon numbers in both arm halves
        ens = BranchEnsemble(amps)
        total = ens.traces.sum()
        full = loss_on_branch(ens, eta, tail_tol)
        assert (full.traces > 0.0).all()
        slots = sum(order + 1 for order in full.kraus_orders)
        assert len(full) == slots - (2 if eta else 2 + (full.kraus_orders[5] + 1) // 2)
        assert full.neglected_mass == pytest.approx(total - full.traces.sum(), abs=1e-14 * total)
        assert full.neglected_mass < tail_tol
        for rows in (6, dim):
            projected = loss_on_branch(ens, eta, tail_tol, r, rows)
            assert len(projected) == len(full)
            assert projected.kraus_orders == full.kraus_orders
            assert projected.neglected_mass == full.neglected_mass

    def test_empty_ensemble_keeps_its_height(self):
        empty = BranchEnsemble(np.zeros((2, 5, 0)))
        for r, rows in ((None, None), (None, 3), (0.5, 3)):
            out = loss_on_branch(empty, 0.5, r=r, rows=rows)
            assert out.amps.shape == (2, 5 if rows is None else rows, 0)
            assert out.kraus_orders == ()
            assert len(out.traces) == 0

    @pytest.mark.parametrize("source", ["random", "squeezed"])
    def test_full_height_inverse_squeeze(self, source, monkeypatch):
        # rows = n_max + 1 is the propagator's inverse squeeze of every
        # assembled image, never a dense (n_max+1)-row head
        eta, tail_tol, r = 0.8, 1e-10, 0.9
        if source == "random":
            ens = random_branches(np.random.default_rng(29), count=5, dim=24)
        else:
            ens = pl._initial_ensemble(0.9, r, choose_n_max(r, tail_tol), tail_tol)
        plain = loss_on_branch(ens, eta, tail_tol)

        def refuse(*args):
            raise AssertionError("dense head at full height")

        monkeypatch.setattr(fk, "_inverse_head", refuse)
        full = loss_on_branch(ens, eta, tail_tol, r, ens.n_max + 1)
        prop = get_propagator(r, ens.n_max)
        oracle = np.stack([prop.apply_columns(half, -1) for half in plain.amps])
        assert np.abs(full.amps - oracle).max() <= 1e-13
        assert full.neglected_mass == plain.neglected_mass
        assert full.kraus_orders == plain.kraus_orders

    def test_spectator_loss(self, bell_branch):
        # arm A's loss on the block in closed form, against the spectator
        # split of complex branches read off as a block
        rho = project_through_loss(bell_branch, 1.0, 0.8)
        assert rho.p10 == pytest.approx(0.4)
        assert rho.p00 == pytest.approx(0.1)
        assert rho.d == pytest.approx(0.5 * math.sqrt(0.8))
        ens = random_branches(np.random.default_rng(21), count=4, dim=6)
        for eta_a in (0.0, 0.3, 0.8, 1.0):
            block = project_through_loss(ens, 1.0, eta_a).matrix
            oracle = branches_to_projected(spectator_split(ens, eta_a)).matrix
            assert np.abs(block - oracle).max() < 1e-14, eta_a

    def test_spectator_loss_after_arm_b_loss(self):
        # both arms' losses on the block against the split, expanded through
        # the arm-B Kraus channel and read off as a block
        ens = random_branches(np.random.default_rng(21), count=4, dim=6)
        for eta in (0.93, 0.6):
            for eta_a in (0.0, 0.3, 0.8, 1.0):
                block = project_through_loss(ens, eta, eta_a).matrix
                expanded = loss_on_branch(spectator_split(ens, eta_a), eta, tail_tol=1e-30)
                oracle = branches_to_projected(expanded).matrix
                assert np.abs(block - oracle).max() < 1e-14, (eta, eta_a)

        # the split itself against the dense amplitude-damping channel on A
        eta = 0.7
        dim = ens.n_max + 1
        kraus = [
            np.kron(np.diag([1.0, math.sqrt(eta)]), np.eye(dim)),
            np.kron([[0.0, math.sqrt(1.0 - eta)], [0.0, 0.0]], np.eye(dim)),
        ]

        def two_mode(e):
            b = e.amps.reshape(2 * dim, len(e))  # index i_A * dim + j_B
            return b @ b.conj().T

        oracle = sum(k @ two_mode(ens) @ k.T for k in kraus)
        assert np.abs(two_mode(spectator_split(ens, eta)) - oracle).max() < 1e-14


class TestParityParts:
    """The squeezed input holds one photon parity per arm half, and so does
    every Kraus image and every propagated column: the loss channel and the
    propagator work on those parts alone."""

    @pytest.mark.parametrize("eta1", [1.0, 0.9])
    @pytest.mark.parametrize("target_n", [1.0, 10.0])
    def test_squeezed_input_against_dense_kraus(self, target_n, eta1):
        eta, tail_tol, rows = 0.9, 1e-10, 7
        r = pl.solve_r_for_n(target_n)
        n_max = choose_n_max(r, tail_tol)
        ens = pl._initial_ensemble(eta1, r, n_max, tail_tol)
        full = loss_on_branch(ens, eta, tail_tol)
        cut = loss_on_branch(ens, eta, tail_tol, rows=rows)
        projected = loss_on_branch(ens, eta, tail_tol, r, rows)
        inverse = _padded_inverse_head(r, n_max, rows)
        assert cut.kraus_orders == projected.kraus_orders == full.kraus_orders
        start = 0
        for b, order in enumerate(full.kraus_orders):
            # each arm half holds one parity, or is empty
            parity = [set(np.flatnonzero(half) % 2) for half in ens.amps[:, :, b]]
            assert all(len(q) <= 1 for q in parity)
            for k in range(order + 1):
                image = ens.amps[:, :, b] @ _dense_kraus(n_max + 1, k, eta).T
                j = start + k
                assert np.abs(full.amps[:, :, j] - image).max() < 1e-14
                assert np.abs(cut.amps[:, :, j] - image[:, :rows]).max() < 1e-14
                assert np.abs(projected.amps[:, :, j] - image @ inverse.T).max() < 1e-13
                # the image of a parity-q half is exactly 0 off the rows of parity q + k
                for a, q in enumerate(parity):
                    allowed = {(q0 + k) % 2 for q0 in q}
                    for out in (full, cut, projected):
                        assert set(np.flatnonzero(out.amps[a, :, j]) % 2) <= allowed
            start += order + 1
        assert start == len(full)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n_max", [40, 41])
    def test_zero_sector_columns_are_skipped_exactly(self, n_max, sign):
        # full, even-only, odd-only and zero columns in one stack: each
        # sector propagates only the columns that are nonzero on it, as one
        # stack of just those columns does, and the others stay exactly 0
        rng = np.random.default_rng(5)
        cols = rng.normal(size=(n_max + 1, 8))
        cols[1::2, [1, 5]] = 0.0
        cols[0::2, [2, 6]] = 0.0
        cols[:, 3] = 0.0
        prop = SqueezePropagator(0.8, n_max)
        whole = prop.apply_columns(cols, sign)
        for p in (0, 1):
            live = np.flatnonzero(cols[p::2].any(axis=0))
            alone = prop.apply_columns(cols[:, live], sign)
            for j in range(cols.shape[1]):
                if j in live:
                    expected = alone[p::2, live.tolist().index(j)]
                else:
                    expected = np.zeros_like(whole[p::2, j])
                assert np.array_equal(whole[p::2, j], expected), (p, j)
        oracle = expm(sign * 0.8 * _dense_generator(n_max)) @ cols
        assert np.abs(whole - oracle).max() < 1e-12


class TestEnsemble:
    def test_len_is_branch_count(self):
        ens = random_branches(np.random.default_rng(1), count=5, dim=4)
        assert len(ens) == 5
        assert ens.n_max == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BranchEnsemble(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            BranchEnsemble(np.zeros((3, 4, 1)))
        with pytest.raises(ValueError):
            BranchEnsemble(np.zeros((1, 2, 4, 1)))
        assert BranchEnsemble(np.zeros((2, 4, 0))).n_max == 3

    def test_support_is_weighted_suffix_scan(self):
        amps = np.zeros((2, 8, 2))
        amps[1, 2, 0] = 1.0
        amps[0, 5, 1] = 1e-4 * math.sqrt(0.5)  # mass 1e-8 * weight 0.5
        ens = BranchEnsemble(amps)
        assert ens.support(1e-12) == 5
        assert ens.support(1e-6) == 2
        assert ens.support(10.0) == 1  # nothing above the tolerance

    def test_detection_eta_is_a_validated_pair(self):
        amps = np.zeros((2, 3, 1))
        assert BranchEnsemble(amps).detection_eta == (1.0, 1.0)
        assert BranchEnsemble(amps, detection_eta=(0, np.float64(0.5))).detection_eta == (0.0, 0.5)
        for bad in ((0.5,), (0.5, 0.5, 0.5), (1.2, 0.5), (0.5, -0.1), (0.5, math.nan)):
            with pytest.raises(ValueError):
                BranchEnsemble(amps, detection_eta=bad)

    def test_crop_and_prune_keep_every_field(self):
        # both used to rebuild BranchEnsemble(amps), which dropped the Kraus
        # orders and the neglected mass of a kept state
        amps = np.zeros((2, 4, 3))
        amps[1, 0] = [1.0, 1e-8, 0.5]
        ens = BranchEnsemble(amps, (3, 1), 2e-11, (0.9, 0.5))
        for out in (ens.truncated(2), prune_branches(ens)[0]):
            assert out.kraus_orders == (3, 1)
            assert out.neglected_mass == 2e-11
            assert out.detection_eta == (0.9, 0.5)
        assert ens.truncated(2).n_max == 2
        assert len(prune_branches(ens)[0]) == 2

    def test_prune_is_a_mask(self):
        amps = np.zeros((2, 3, 3))
        amps[1, 0] = [1.0, 1e-8, 0.5]
        ens = BranchEnsemble(amps)
        kept, dropped = prune_branches(ens)
        assert len(kept) == 2
        assert dropped == pytest.approx(1e-16)
        assert np.array_equal(kept.amps[1, 0], [1.0, 0.5])


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
