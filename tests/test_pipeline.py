"""Experiment-pipeline tests: composition, engine agreement, sweeps, config."""

import math
from dataclasses import replace

import numpy as np
import pytest

from micromacro import (
    ExperimentConfig,
    amplified_mean_photons,
    branches_to_projected,
    load_config,
    run,
    solve_r_for_n,
    sweep,
)
from micromacro.pipeline import config_from_mapping, parse_kv_text

R_FOR_N100 = 2.6516400776387327  # asinh(sqrt(99.5/2)), mpmath


class TestSolveRForN:
    def test_minimum(self):
        assert solve_r_for_n(0.5) == 0.0

    def test_n_100(self):
        assert solve_r_for_n(100.0) == pytest.approx(R_FOR_N100, abs=1e-12)

    @pytest.mark.parametrize("target", [1.0, 10.0, 100.0, 300.0])
    def test_round_trip(self, target):
        r = solve_r_for_n(target)
        assert amplified_mean_photons(r)[2] == pytest.approx(target, abs=1e-9)

    def test_below_minimum(self):
        with pytest.raises(ValueError):
            solve_r_for_n(0.4)


class TestConfig:
    def test_requires_exactly_one_strength(self):
        with pytest.raises(ValueError):
            ExperimentConfig().validate()
        with pytest.raises(ValueError):
            ExperimentConfig(r=1.0, target_n=10.0).validate()

    def test_eta_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(r=1.0, eta=1.2).validate()

    @pytest.mark.parametrize(
        "field", ["r", "target_n", "eta1", "eta", "eta2", "tail_tol"]
    )
    def test_non_finite_rejected(self, field):
        base = {} if field in ("r", "target_n") else {"r": 1.0}
        for bad in (math.nan, math.inf, -math.inf):
            cfg = ExperimentConfig(**base, **{field: bad})
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                cfg.validate()

    def test_engine_resolution(self):
        assert ExperimentConfig(target_n=100.0).resolved_engine() == "phase_space"
        assert ExperimentConfig(r=0.5).resolved_engine() == "fock"
        assert ExperimentConfig(r=0.5, engine="both").resolved_engine() == "both"


class TestRun:
    def test_lossless_identity_small_r(self):
        for r in (0.5, 1.5):
            res = run(ExperimentConfig(r=r, engine="both"))
            expected = np.zeros((4, 4), dtype=complex)
            expected[1, 1] = expected[2, 2] = expected[2, 1] = expected[1, 2] = 0.5
            assert np.abs(res.rho_p.matrix - expected).max() < 1e-8
            assert res.concurrence.value == pytest.approx(1.0, abs=1e-8)
            assert res.success_prob == pytest.approx(1.0, abs=1e-10)
            assert res.diagnostics.disagreement < 1e-8

    def test_engine_agreement_with_losses(self):
        res = run(
            ExperimentConfig(target_n=10.0, eta=0.9, eta1=0.95, eta2=0.9, engine="both")
        )
        assert res.diagnostics.disagreement < 1e-6

    def test_zero_structure(self):
        res = run(ExperimentConfig(target_n=10.0, eta=0.9, engine="both"))
        assert res.rho_p.off_x_max() < 1e-10
        assert (
            np.abs(
                res.diagnostics.fock_matrix - res.diagnostics.phase_space_matrix
            ).max()
            < 1e-6
        )

    def test_photon_numbers_reported(self):
        res = run(ExperimentConfig(r=1.0, engine="fock"))
        assert res.n0 == pytest.approx(math.sinh(1.0) ** 2)
        assert res.n1 == pytest.approx(1.0 + 3.0 * math.sinh(1.0) ** 2)
        assert res.n == pytest.approx((res.n0 + res.n1) / 2.0)

    def test_deterministic(self):
        cfg = ExperimentConfig(target_n=10.0, eta=0.9, engine="fock")
        a = run(cfg)
        b = run(cfg)
        assert np.array_equal(a.rho_p.matrix, b.rho_p.matrix)
        assert a.concurrence.value == b.concurrence.value

    def test_keep_state_consistency(self):
        cfg = ExperimentConfig(r=1.0, eta=0.9, eta2=0.95, engine="fock")
        res = run(cfg, keep_state=True)
        assert res.final_branches is not None
        rebuilt = branches_to_projected(res.final_branches)
        assert np.abs(rebuilt.matrix - res.rho_p.matrix).max() < 1e-12
        fused = run(cfg, keep_state=False)
        assert np.abs(fused.rho_p.matrix - res.rho_p.matrix).max() < 1e-10

    def test_keep_state_phase_space(self):
        res = run(ExperimentConfig(r=1.0, eta=0.9, engine="phase_space"), keep_state=True)
        assert res.final_wigner is not None
        assert res.final_branches is None

    def test_loss_on_a_routes_agree(self):
        cfg = ExperimentConfig(
            r=1.0, eta=0.95, eta2=0.9, loss_on_a=True, engine="both"
        )
        res = run(cfg)
        assert res.diagnostics.disagreement < 1e-6
        # branch-level expansion (keep_state) must match the block-level map
        kept = run(replace(cfg, engine="fock"), keep_state=True)
        assert np.abs(kept.rho_p.matrix - res.diagnostics.fock_matrix).max() < 1e-10

    @pytest.mark.parametrize("field", ["eta1", "eta", "eta2"])
    @pytest.mark.parametrize("loss_on_a", [False, True])
    def test_eta_zero_runs_in_both_engines(self, field, loss_on_a):
        cfg = ExperimentConfig(r=1.0, loss_on_a=loss_on_a, engine="both")
        res = run(replace(cfg, **{field: 0.0}))
        assert res.diagnostics.disagreement < 1e-9
        kept = run(replace(cfg, engine="fock", **{field: 0.0}), keep_state=True)
        assert np.abs(kept.rho_p.matrix - res.diagnostics.fock_matrix).max() < 1e-10

    def test_eta_zero_auto_above_switch(self):
        res = run(ExperimentConfig(target_n=100.0, eta=0.0))
        assert res.engine == "phase_space"
        assert res.rho_p.p11 == pytest.approx(0.0, abs=1e-12)

    def test_loss_on_a_reduces_one_photon_populations(self):
        base = run(ExperimentConfig(r=1.0, eta=0.95, eta2=0.9, engine="fock"))
        with_a = run(
            ExperimentConfig(r=1.0, eta=0.95, eta2=0.9, loss_on_a=True, engine="fock")
        )
        assert with_a.rho_p.p10 < base.rho_p.p10
        assert with_a.rho_p.trace == pytest.approx(base.rho_p.trace, abs=1e-9)


class TestSweep:
    def test_single_value_equals_run(self):
        base = ExperimentConfig(r=1.0, eta=0.9, engine="phase_space")
        entries = sweep(base, "eta", [0.9])
        direct = run(base)
        assert len(entries) == 1
        assert entries[0].result.concurrence.value == pytest.approx(
            direct.concurrence.value, abs=1e-14
        )

    def test_rows_in_input_order(self):
        base = ExperimentConfig(target_n=1.0, eta=0.95, engine="phase_space")
        values = [10.0, 1.0, 50.0]
        entries = sweep(base, "n", values)
        assert [e.value for e in entries] == values
        assert all(e.result is not None for e in entries)

    def test_errors_collected_not_raised(self):
        base = ExperimentConfig(r=0.5, engine="phase_space")
        entries = sweep(base, "eta12", [0.9, 1.5, 0.8])
        assert entries[0].result is not None
        assert entries[1].result is None and "ValueError" in entries[1].error
        assert entries[2].result is not None

    def test_parallel_matches_serial(self):
        base = ExperimentConfig(target_n=1.0, eta=0.9, engine="phase_space")
        values = [1.0, 2.0, 5.0, 10.0]
        serial = sweep(base, "n", values, n_workers=1)
        parallel = sweep(base, "n", values, n_workers=4)
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.result.rho_p.matrix, p.result.rho_p.matrix)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(r=0.5), "gamma", [1.0])

    def test_empty_values(self):
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(r=0.5), "eta", [])


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "n = 100\n"
            "eta1 = 0.9\n"
            "eta = 0.99  # inline comment\n"
            "eta2 = 0.9\n"
            "engine = both\n"
            "loss_on_a = true\n"
            "tail_tol = 1e-11\n"
            "seed = 7\n"
        )
        cfg = load_config(path)
        assert cfg.target_n == 100.0
        assert cfg.eta == 0.99
        assert cfg.engine == "both"
        assert cfg.loss_on_a is True
        assert cfg.tail_tol == 1e-11
        assert cfg.seed == 7

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            config_from_mapping({"r": "1.0", "bogus": "2"})

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_kv_text("r 1.0")

    def test_bad_bool(self):
        with pytest.raises(ValueError):
            config_from_mapping({"r": "1.0", "loss_on_a": "maybe"})
