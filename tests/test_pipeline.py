"""Experiment-pipeline tests: composition, engine agreement, sweeps, config."""

import math
from dataclasses import replace

import numpy as np
import pytest

from micromacro import (
    ExperimentConfig,
    amplified_mean_photons,
    branches_to_projected,
    run,
    solve_r_for_n,
    sweep,
)
from micromacro import fock as fk
from micromacro import pipeline as pl
from micromacro.pipeline import parse_kv_text

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

    def test_seed_must_be_non_negative_integer(self):
        for bad in (-1, 1.5, "3"):
            with pytest.raises(ValueError, match="^seed must be"):
                ExperimentConfig(r=1.0, seed=bad).validate()
        ExperimentConfig(r=1.0, seed=np.int64(3)).validate()

    def test_loss_on_a_must_be_bool(self):
        # a truthy string would otherwise run with arm-A loss on
        for bad in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError, match="^loss_on_a must be a bool"):
                ExperimentConfig(r=1.0, loss_on_a=bad).validate()
        for good in (True, False, np.bool_(True)):
            ExperimentConfig(r=1.0, loss_on_a=good).validate()

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
        assert ExperimentConfig(r=0.5).resolved_engine() == "phase_space"
        assert ExperimentConfig(r=0.5, engine="fock").resolved_engine() == "fock"
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
        for r in (1.0, 1.5, 2.0):
            cfg = ExperimentConfig(r=r, eta=0.9, eta2=0.95, engine="fock")
            res = run(cfg, keep_state=True)
            assert res.final_branches is not None
            # the kept ensemble, expanded through the eta2 Kraus channel, must
            # reproduce the fused block that project_through_loss gives
            fused = run(cfg, keep_state=False)
            rebuilt = branches_to_projected(res.final_branches)
            assert np.abs(fused.rho_p.matrix - rebuilt.matrix).max() < 1e-10, r
            assert np.abs(fused.rho_p.matrix - res.rho_p.matrix).max() < 1e-10, r

    def test_dropped_mass_ignores_the_kept_state(self):
        # the kept ensemble is pruned again after the eta2 and spectator
        # expansions; the block does not depend on that mass
        cfg = ExperimentConfig(
            r=1.0, eta1=0.95, eta=0.95, eta2=0.95, loss_on_a=True, engine="fock"
        )
        kept = run(cfg, keep_state=True).diagnostics.dropped_mass
        assert kept == run(cfg).diagnostics.dropped_mass

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
        rebuilt = branches_to_projected(kept.final_branches)
        assert np.abs(rebuilt.matrix - res.diagnostics.fock_matrix).max() < 1e-10

    @pytest.mark.parametrize("field", ["eta1", "eta", "eta2"])
    @pytest.mark.parametrize("loss_on_a", [False, True])
    def test_eta_zero_runs_in_both_engines(self, field, loss_on_a):
        cfg = ExperimentConfig(r=1.0, loss_on_a=loss_on_a, engine="both")
        res = run(replace(cfg, **{field: 0.0}))
        assert res.diagnostics.disagreement < 1e-9
        kept = run(replace(cfg, engine="fock", **{field: 0.0}), keep_state=True)
        rebuilt = branches_to_projected(kept.final_branches)
        assert np.abs(rebuilt.matrix - res.diagnostics.fock_matrix).max() < 1e-10

    @pytest.mark.parametrize("loss_on_a", [False, True])
    @pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 5.0])
    def test_eta_one_concurrence_is_exact(self, r, loss_on_a):
        # without mid-stage loss the squeezers cancel and p11 is exactly 0, so
        # C = 2|d|/trace; a squeeze round trip leaves ~1e-17 in p11, which
        # sqrt(p00 p11) lifts to ~1e-8 in C.  No squeeze runs, so the Fock
        # engine needs photon numbers 0..2 only, even at r = 5.
        for engine in ("fock", "phase_space", "both"):
            res = run(
                ExperimentConfig(
                    r=r, eta1=0.8, eta2=0.7, loss_on_a=loss_on_a, engine=engine
                )
            )
            rho = res.rho_p
            assert res.concurrence.value == pytest.approx(
                2.0 * abs(rho.d) / rho.trace, abs=1e-15
            ), engine
            if engine != "phase_space":
                assert res.diagnostics.n_max == 2

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


def _full_unsqueeze_block(cfg: ExperimentConfig) -> np.ndarray:
    """The block through the whole un-squeezed ensemble: every row of the
    inverse squeeze, then project_through_loss (the oracle of the row
    projector)."""
    r = cfg.resolved_r()
    n_max = fk.choose_n_max(r, cfg.tail_tol)
    ens = pl._initial_ensemble(cfg.eta1, r, n_max, cfg.tail_tol)
    ens, _ = fk.prune_branches(fk.loss_on_branch(ens, cfg.eta, cfg.tail_tol))
    prop = fk.get_propagator(r, n_max)
    ens = fk.BranchEnsemble(np.stack([prop.apply_columns(a, -1) for a in ens.amps]))
    block = np.array(fk.project_through_loss(ens, cfg.eta2).matrix)
    if cfg.loss_on_a:
        # arm A never leaves {0, 1}: its photon's amplitudes scale by
        # sqrt(eta2) per side, and the decayed population joins the zero-A sector
        scale = np.sqrt([1.0, 1.0, cfg.eta2, cfg.eta2])
        decayed = (1.0 - cfg.eta2) * block[2:, 2:]
        block = block * np.outer(scale, scale)
        block[:2, :2] += decayed
    return block


class TestRowProjector:
    @pytest.mark.parametrize("loss_on_a", [False, True])
    @pytest.mark.parametrize("eta2", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("target_n", [1.0, 10.0, 100.0])
    def test_matches_full_unsqueeze(self, target_n, eta2, loss_on_a):
        cfg = ExperimentConfig(
            target_n=target_n, eta1=0.95, eta=0.9, eta2=eta2,
            loss_on_a=loss_on_a, engine="fock",
        )
        res = run(cfg)
        assert np.abs(res.rho_p.matrix - _full_unsqueeze_block(cfg)).max() < 1e-13
        if eta2 == 0.0:
            assert res.diagnostics.support_bound == res.diagnostics.n_max
        if eta2 == 1.0:
            assert res.diagnostics.support_bound == 1


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
        cfg = ExperimentConfig.from_file(path)
        assert cfg.target_n == 100.0
        assert cfg.eta == 0.99
        assert cfg.engine == "both"
        assert cfg.loss_on_a is True
        assert cfg.tail_tol == 1e-11
        assert cfg.seed == 7

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"r": "1.0", "bogus": "2"})

    def test_validates(self):
        for mapping in ({"r": "1.0", "eta": "1.5"}, {"r": "1.0", "seed": "-1"}, {}):
            with pytest.raises(ValueError):
                ExperimentConfig.from_mapping(mapping)

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_kv_text("r 1.0")

    def test_bad_bool(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"r": "1.0", "loss_on_a": "maybe"})
