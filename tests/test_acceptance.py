"""Acceptance suite: one test per exit criterion, tolerances pinned.

Each test prints a CRITERION line (visible with pytest -s); the -v test
listing itself gives one PASS/FAIL row per criterion.  The engine-equivalence
grid is computed once and shared by the criteria that consume it.
"""

import math
import time

import numpy as np
import pytest

from micromacro import (
    BranchEnsemble,
    ExperimentConfig,
    concurrence_general,
    concurrence_xstate,
    loss_convolve,
    loss_on_branch,
    mean_photon,
    reconstruct,
    run,
    sample,
    squeeze_rescale,
    squeezed_one,
    squeezed_vacuum,
)
from micromacro.entanglement import ProjectedDensityMatrix
from micromacro.fock import get_propagator
from micromacro.wigner import GaussianPolyWigner, initial_wigner

BELL = np.zeros((4, 4), dtype=complex)
BELL[1, 1] = BELL[2, 2] = BELL[2, 1] = BELL[1, 2] = 0.5

GRID_N = (1.0, 10.0, 50.0, 100.0)
GRID_ETA = (0.99, 0.95, 0.9, 0.85)
GRID_ETA12 = (1.0, 0.9)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def equivalence_grid():
    """Both-engine runs over the full criterion-4 grid, keyed (n, eta, eta12)."""
    t0 = time.perf_counter()
    results = {}
    for n in GRID_N:
        for eta in GRID_ETA:
            for eta12 in GRID_ETA12:
                cfg = ExperimentConfig(
                    target_n=n, eta=eta, eta1=eta12, eta2=eta12, engine="both"
                )
                results[(n, eta, eta12)] = run(cfg)
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_01_lossless_identity():
    worst_gap, worst_time = 0.0, 0.0
    for r in (0.5, 1.5, 2.6515):
        t0 = time.perf_counter()
        res = run(ExperimentConfig(r=r, engine="both"))
        elapsed = time.perf_counter() - t0
        gap = np.abs(res.rho_p.matrix - BELL).max()
        worst_gap = max(worst_gap, gap)
        worst_time = max(worst_time, elapsed)
        assert gap <= 1e-8
        assert res.concurrence.value == pytest.approx(1.0, abs=1e-8)
        assert res.success_prob == pytest.approx(1.0, abs=1e-8)
        assert elapsed < 10.0
    report(
        "1 lossless-identity",
        True,
        f"max |rho - bell| = {worst_gap:.2e}, slowest point {worst_time:.2f}s",
    )


def test_criterion_02_mean_photon_closed_forms():
    worst_rel = 0.0
    for r in np.linspace(0.0, 2.7, 28):
        s2 = math.sinh(r) ** 2
        n0 = mean_photon(squeezed_vacuum(r))
        n1 = mean_photon(squeezed_one(r))
        if r == 0.0:
            assert n0 == 0.0
        else:
            worst_rel = max(worst_rel, abs(n0 - s2) / s2)
        worst_rel = max(worst_rel, abs(n1 - (1.0 + 3.0 * s2)) / (1.0 + 3.0 * s2))
        if r >= 2.0:
            assert 2.9 <= n1 / n0 <= 3.1
    assert worst_rel <= 1e-6
    report("2 mean-photon-closed-forms", True, f"worst relative error {worst_rel:.2e}")


def test_criterion_03_single_photon_loss_closed_form():
    res = run(ExperimentConfig(r=0.0, eta=0.81, engine="both"))
    assert res.concurrence.value == pytest.approx(0.9, abs=1e-9)
    assert res.diagnostics.disagreement < 1e-9
    report(
        "3 single-photon-loss",
        True,
        f"C = {res.concurrence.value:.12f} (target 0.9 +- 1e-9)",
    )


def test_criterion_04_engine_equivalence(equivalence_grid):
    worst = 0.0
    for key, res in equivalence_grid.items():
        if key == "elapsed":
            continue
        worst = max(worst, res.diagnostics.disagreement)
    assert worst <= 1e-6
    assert equivalence_grid["elapsed"] < 600.0
    report(
        "4 engine-equivalence",
        True,
        f"worst elementwise gap {worst:.2e}, grid in "
        f"{equivalence_grid['elapsed']:.1f}s",
    )


def test_criterion_05_concurrence_orderings(equivalence_grid):
    c_at = {
        key: res.concurrence.value
        for key, res in equivalence_grid.items()
        if key != "elapsed"
    }
    assert c_at[(100.0, 0.99, 1.0)] > 0.0
    for eta in GRID_ETA:
        series = [c_at[(n, eta, 1.0)] for n in GRID_N]
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    for n in GRID_N:
        by_loss = [c_at[(n, eta, 1.0)] for eta in GRID_ETA]  # eta decreasing
        assert all(a >= b - 1e-12 for a, b in zip(by_loss, by_loss[1:]))
    report(
        "5 concurrence-orderings",
        True,
        f"C(n=100, eta=0.99) = {c_at[(100.0, 0.99, 1.0)]:.4f} > 0, "
        "monotone in n and in loss",
    )


def test_criterion_06_outer_loss_robustness_and_sensitivity():
    def conc(eta, eta1, eta2):
        return run(
            ExperimentConfig(
                target_n=100.0, eta=eta, eta1=eta1, eta2=eta2, engine="phase_space"
            )
        ).concurrence.value

    c0 = conc(0.99, 0.9, 0.9)
    assert c0 > 0.0
    slope_eta = abs(c0 - conc(0.98, 0.9, 0.9)) / 0.01
    slope_eta1 = abs(c0 - conc(0.99, 0.89, 0.9)) / 0.01
    slope_eta2 = abs(c0 - conc(0.99, 0.9, 0.89)) / 0.01
    assert slope_eta > slope_eta1
    assert slope_eta > slope_eta2
    report(
        "6 outer-loss-robustness",
        True,
        f"C = {c0:.4f} > 0; |dC/deta| = {slope_eta:.2f} vs "
        f"|dC/deta1| = {slope_eta1:.2f}, |dC/deta2| = {slope_eta2:.2f}",
    )


def test_criterion_07_zero_structure(equivalence_grid):
    worst = 0.0
    for key, res in equivalence_grid.items():
        if key == "elapsed":
            continue
        for matrix in (
            res.diagnostics.fock_matrix,
            res.diagnostics.phase_space_matrix,
        ):
            worst = max(worst, ProjectedDensityMatrix(matrix).off_x_max())
    assert worst < 1e-10
    report("7 zero-structure", True, f"largest off-X element {worst:.2e}")


def test_criterion_08_success_probability(equivalence_grid):
    lossless = run(ExperimentConfig(r=1.5, engine="both"))
    assert lossless.success_prob == pytest.approx(1.0, abs=1e-10)
    probs = {
        key: res.success_prob
        for key, res in equivalence_grid.items()
        if key != "elapsed"
    }
    series = [probs[(n, 0.9, 1.0)] for n in GRID_N]
    assert all(a > b for a, b in zip(series, series[1:]))  # strictly decreasing
    assert all(0.0 < p <= 1.0 + 1e-12 for p in probs.values())
    report(
        "8 success-probability",
        True,
        f"P(eta=0.9) over n: {', '.join(f'{p:.3f}' for p in series)}",
    )


def test_criterion_09_concurrence_route_agreement():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        p = rng.dirichlet(np.ones(4))
        d = rng.uniform(0, 1) * math.sqrt(p[1] * p[2]) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
        dp = rng.uniform(0, 1) * math.sqrt(p[0] * p[3]) * np.exp(
            1j * rng.uniform(0, 2 * math.pi)
        )
        rho = ProjectedDensityMatrix.from_xstate(p[0], p[1], p[2], p[3], d, dp)
        gap = abs(
            concurrence_xstate(rho).value - concurrence_general(rho).value
        )
        worst = max(worst, gap)
    assert worst <= 1e-10
    report("9 concurrence-routes", True, f"worst |fast - eigenvalue| = {worst:.2e}")


def test_criterion_10_tomography_loop_closure():
    t0 = time.perf_counter()
    res = run(
        ExperimentConfig(r=1.0, eta=0.95, seed=2024, engine="fock"),
        keep_state=True,
    )
    ref = res.rho_p.matrix
    mean_se = {}
    worst_z = 0.0
    for n_samples in (10**4, 10**5, 10**6):
        record = sample(res.final_branches, n_samples, seed=2024)
        recon = reconstruct(record)
        mean_se[n_samples] = float((recon.se_real + recon.se_imag).mean())
        if n_samples == 10**6:
            for i in range(4):
                for j in range(4):
                    for part, se in (
                        (recon.estimate[i, j].real - ref[i, j].real,
                         recon.se_real[i, j]),
                        (recon.estimate[i, j].imag - ref[i, j].imag,
                         recon.se_imag[i, j]),
                    ):
                        if se > 0:
                            worst_z = max(worst_z, abs(part) / se)
                        else:
                            assert abs(part) < 1e-12
    assert worst_z <= 3.0
    for small, large in ((10**4, 10**5), (10**5, 10**6)):
        ratio = mean_se[small] / mean_se[large]
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        "10 tomography-loop",
        True,
        f"worst element z = {worst_z:.2f} (<= 3), SE scaling ~ 1/sqrt(N), "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_channel_algebra():
    # loss semigroup on the Fock side, exact Kraus expansion
    rng = np.random.default_rng(77)
    u = rng.normal(size=12)
    v = rng.normal(size=12)
    scale = math.sqrt(u @ u + v @ v) * 1.2
    branch = BranchEnsemble((np.stack([v, u]) / scale)[:, :, None])

    def reduced(ens):
        return sum(a @ a.conj().T for a in ens.amps[::-1])

    exact = dict(tail_tol=1e-30)
    step_ab = loss_on_branch(loss_on_branch(branch, 0.9, **exact), 0.8, **exact)
    one_shot = loss_on_branch(branch, 0.72, **exact)
    semigroup_gap = np.abs(reduced(step_ab) - reduced(one_shot)).max()
    assert semigroup_gap <= 1e-10

    # loss semigroup on the phase-space side, coefficientwise
    W = squeeze_rescale(initial_wigner(), 1.0, +1)
    two = loss_convolve(loss_convolve(W, 0.9), 0.8)
    one = loss_convolve(W, 0.72)
    wigner_gap = np.abs(two.coeffs - one.coeffs).max()
    assert wigner_gap <= 1e-10

    # vacuum fixed point, exact
    vac = GaussianPolyWigner(
        widths=np.ones(4),
        coeffs=np.full((1, 1, 1, 1), 1.0 / math.pi**2, dtype=complex),
    )
    fixed_gap = 0.0
    for eta in (0.99, 0.6, 0.25):
        out = loss_convolve(vac, eta)
        fixed_gap = max(
            fixed_gap,
            np.abs(out.coeffs - vac.coeffs).max(),
            np.abs(out.widths - vac.widths).max(),
        )
    assert fixed_gap <= 1e-12

    # squeeze round trip
    rng = np.random.default_rng(78)
    psi = rng.normal(size=21) + 1j * rng.normal(size=21)
    psi /= np.linalg.norm(psi)
    amps = np.zeros(1200, dtype=complex)
    amps[:21] = psi
    prop = get_propagator(1.4, 1199)
    forward = prop.apply_columns(amps, +1)
    # the truncation holds the squeezed image: no reflection off n_max
    assert np.sum(np.abs(forward[-4:]) ** 2) <= 1e-18
    back = prop.apply_columns(forward, -1)
    round_trip_gap = np.abs(back - amps).max()
    assert round_trip_gap <= 1e-8

    report(
        "11 channel-algebra",
        True,
        f"semigroup {max(semigroup_gap, wigner_gap):.2e}, vacuum fixed point "
        f"{fixed_gap:.2e}, round trip {round_trip_gap:.2e}",
    )
