"""Experiment-pipeline tests: composition, engine agreement, sweeps, config."""

import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # bool is an int, so seed=True used to run as seed 1
        for bad in (-1, 1.5, "3", True):
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
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                ExperimentConfig(**base, **{field: bad})

    @pytest.mark.parametrize(
        "field", ["r", "target_n", "eta1", "eta", "eta2", "tail_tol"]
    )
    @pytest.mark.parametrize("bad", ["1.0", "x", True, np.True_, 1j])
    def test_non_real_rejected(self, field, bad):
        # r=True used to run as r = 1, and a string raised a bare TypeError
        base = {} if field in ("r", "target_n") else {"r": 1.0}
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            ExperimentConfig(**base, **{field: bad})

    @pytest.mark.parametrize("bad", [0.0, -1e-12, 1.0, 10.0])
    def test_tail_tol_range(self, bad):
        # tail_tol=10 used to run in Fock with n_max 2 and a 0.22 disagreement
        with pytest.raises(ValueError, match=r"^tail_tol must lie in \(0, 1\)"):
            ExperimentConfig(r=1.0, eta=0.9, engine="both", tail_tol=bad)

    def test_fock_photon_cap_checked_at_validation(self):
        # target_n=1e4 used to validate and then raise TruncationError in run
        with pytest.raises(ValueError, match=r"^target_n=10000\.0 is beyond the Fock"):
            ExperimentConfig(target_n=1e4, eta=0.9, engine="fock")
        with pytest.raises(ValueError, match=r"^r=6\.0 is beyond the Fock"):
            ExperimentConfig(r=6.0, eta=0.5, engine="both")
        # the cap binds only where the squeezer pair acts, and only in Fock
        ExperimentConfig(target_n=1e4, eta=1.0, engine="fock")
        ExperimentConfig(target_n=1e4, eta=0.9, engine="phase_space")
        ExperimentConfig(target_n=1e4, eta=0.9)

    def test_kept_state_photon_cap_names_the_strength(self):
        # a kept Fock state is truncated at 1e-17, tighter than validation's
        # tail_tol: these configs validate, and their kept-state run used to
        # raise a bare TruncationError
        cases = (
            (ExperimentConfig(r=3.0, eta=0.9, engine="fock"), r"^r=3\.0 is beyond the Fock"),
            (ExperimentConfig(target_n=201.0, eta=0.9, engine="both"),
             r"^target_n=201\.0 is beyond the Fock"),
        )
        for cfg, message in cases:
            with pytest.raises(ValueError, match=message):
                run(cfg, keep_state=True)

    def test_replace_validates(self):
        cfg = ExperimentConfig(r=1.0)
        with pytest.raises(ValueError, match="^eta must lie"):
            replace(cfg, eta=1.5)

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


def _materialized(cfg: ExperimentConfig):
    """Block, Kraus orders and branch count through the whole expanded and
    un-squeezed ensemble: full-height Kraus images, pruning, every row of
    the inverse squeeze, the spectator loss and ``project_through_loss``."""
    r = cfg.resolved_r()
    n_max = fk.choose_n_max(r, cfg.tail_tol)
    ens = pl._initial_ensemble(cfg.eta1, r, n_max, cfg.tail_tol)
    expanded = fk.loss_on_branch(ens, cfg.eta, cfg.tail_tol)
    pruned, _ = fk.prune_branches(expanded)
    ens = pruned.unsqueezed(fk.get_propagator(r, n_max))
    if cfg.loss_on_a:
        ens = fk.loss_on_spectator(ens, cfg.eta2)
    block = fk.project_through_loss(ens, cfg.eta2).matrix
    return block, expanded.kraus_orders, len(pruned)


class TestRowProjector:
    @pytest.mark.parametrize("eta12", [1.0, 0.9, 0.3, 0.0])
    @pytest.mark.parametrize("eta", [0.99, 0.9, 0.5, 0.0])
    @pytest.mark.parametrize("target_n", [1.0, 10.0, 50.0])
    def test_projected_loss_matches_materialized(self, target_n, eta, eta12):
        # rows of S^-1 applied per Kraus chunk (every row at eta2 = 0),
        # against the full-height expansion un-squeezed afterwards
        for loss_on_a in (False, True):
            cfg = ExperimentConfig(target_n=target_n, eta1=eta12, eta=eta, eta2=eta12,
                                   loss_on_a=loss_on_a, engine="fock")
            diag = run(cfg).diagnostics
            block, orders, count = _materialized(cfg)
            assert np.abs(diag.fock_matrix - block).max() <= 1e-13 * np.abs(block).max()
            assert diag.kraus_orders == orders
            assert diag.branch_count == count

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

    def test_wall_time_is_the_share_of_the_pass(self):
        entries = sweep(ExperimentConfig(r=1.0, eta=0.9), "eta12", [0.9, 2.0, 0.8, 1.0])
        times = {e.result.wall_time for e in entries if e.result is not None}
        assert len(times) == 1 and times.pop() > 0.0
        assert entries[1].error.startswith("ValueError: eta1 must lie in [0, 1]")


def _row_config(base: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """The config a sweep row along ``axis`` runs at ``value``."""
    if axis == "n":
        return replace(base, target_n=value, r=None)
    if axis == "eta":
        return replace(base, eta=value)
    return replace(base, eta1=value, eta2=value)


class TestBatchedSweep:
    """A phase-space sweep runs its rows in one pass; each row must equal
    its own ``run``."""

    @pytest.mark.parametrize(
        "base, axis, values",
        [
            # eta = 1 skips the squeezer pair and the eta loss, eta < 1 needs both
            (ExperimentConfig(r=1.2, eta1=0.9, eta2=0.8), "eta", [1.0, 0.9, 0.0, 1.0, 0.5]),
            # n = 0.5 is r = 0, so the squeezer pair is an identity on that row
            (ExperimentConfig(r=1.0, eta=0.9, loss_on_a=True), "n", [0.5, 100.0, 0.5, 3.0]),
            (ExperimentConfig(r=0.0, eta=0.9, loss_on_a=True), "eta12", [1.0, 0.7, 0.0, 1.0]),
            (ExperimentConfig(target_n=100.0, eta=0.95, engine="auto"), "eta12", [1.0, 0.9]),
            # no row needs any stage
            (ExperimentConfig(r=1.0), "n", [0.5, 10.0, 1e4]),
        ],
    )
    def test_mixed_stages_equal_run_bit_for_bit(self, base, axis, values):
        for entry in sweep(base, axis, values):
            direct = run(_row_config(base, axis, entry.value))
            assert np.array_equal(entry.result.rho_p.matrix, direct.rho_p.matrix)
            assert entry.result.concurrence == direct.concurrence
            assert entry.result.success_prob == direct.success_prob
            assert (entry.result.n0, entry.result.n1, entry.result.n) == (
                direct.n0, direct.n1, direct.n
            )
            assert np.array_equal(
                entry.result.diagnostics.phase_space_matrix,
                direct.diagnostics.phase_space_matrix,
            )

    def test_closed_form_at_r_zero(self):
        # without a squeeze the photon survives all three losses with
        # amplitude sqrt(eta1 eta eta2): C = sqrt(eta1 eta eta2)
        eta1, eta2 = 0.8, 0.95
        values = [0.0, 1e-3, 0.3, 0.81, 0.99, 1.0]
        base = ExperimentConfig(r=0.0, eta1=eta1, eta2=eta2, loss_on_a=False)
        for entry in sweep(base, "eta", values):
            expected = math.sqrt(eta1 * entry.value * eta2)
            assert abs(entry.result.concurrence.value - expected) <= 1e-14

    @pytest.mark.parametrize("name", ["fig3_grid.cfg", "fig4_grid.cfg"])
    def test_shipped_figure_grids_match_run(self, name):
        grid = parse_kv_text(resources.files("micromacro.configs").joinpath(name).read_text())
        floats = lambda key: [float(v) for v in grid[key].split(",")]  # noqa: E731
        axis, values = ("n", floats("n_values")) if "n_values" in grid else (
            "eta12", floats("eta12_values"))
        # as `micromacro fig3`/`fig4` build it: the grid's config keys, and the
        # first n as the strength of an n sweep
        scalars = {k: v for k, v in grid.items() if k in pl.CONFIG_KEYS}
        scalars.setdefault("n", values[0])
        base = ExperimentConfig.from_mapping(scalars)
        for eta in floats("eta_values"):
            for entry in sweep(replace(base, eta=eta), axis, values):
                direct = run(_row_config(replace(base, eta=eta), axis, entry.value))
                gap = np.abs(entry.result.rho_p.matrix - direct.rho_p.matrix).max()
                assert gap <= 1e-15 * np.abs(direct.rho_p.matrix).max()
                assert abs(entry.result.concurrence.value - direct.concurrence.value) <= 1e-15


_ETAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# row values, some of which fail validation: n below 0.5, an eta outside [0, 1]
_ROW_VALUES = {
    "n": st.one_of(st.floats(0.5, 1e4), st.floats(0.0, 0.5, exclude_max=True)),
    "eta": st.one_of(_ETAS, st.floats(-0.5, 1.5)),
    "eta12": st.one_of(_ETAS, st.floats(-0.5, 1.5)),
}


@st.composite
def _phase_space_sweeps(draw):
    strength = draw(st.one_of(st.builds(dict, target_n=st.floats(0.5, 1e4)), st.just({"r": 0.0})))
    base = ExperimentConfig(
        **strength,
        eta1=draw(_ETAS),
        eta=draw(_ETAS),
        eta2=draw(_ETAS),
        loss_on_a=draw(st.booleans()),
        engine=draw(st.sampled_from(["phase_space", "auto"])),
    )
    axis = draw(st.sampled_from(pl.SWEEP_AXES))
    return base, axis, draw(st.lists(_ROW_VALUES[axis], min_size=1, max_size=8))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_phase_space_sweeps())
def test_sweep_rows_match_run(case):
    base, axis, values = case
    for entry in sweep(base, axis, values):
        try:
            direct = run(_row_config(base, axis, entry.value))
        except Exception as exc:  # noqa: BLE001 - the row must carry the same error
            assert entry.result is None
            assert entry.error == f"{type(exc).__name__}: {exc}"
            continue
        assert entry.error is None
        ref = direct.rho_p.matrix
        assert np.abs(entry.result.rho_p.matrix - ref).max() <= 1e-15 * np.abs(ref).max()
        assert abs(entry.result.concurrence.value - direct.concurrence.value) <= 1e-15


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

    def test_typed_values(self):
        # strings are parsed by their key's type; typed values are checked as given
        cfg = ExperimentConfig.from_mapping(
            {"n": 100.0, "eta": "0.9", "loss_on_a": True, "seed": 3}
        )
        assert cfg == ExperimentConfig(target_n=100.0, eta=0.9, loss_on_a=True, seed=3)
        for bad in ({"r": True}, {"r": 1.0, "seed": 1.5}, {"r": 1.0, "loss_on_a": 1}):
            with pytest.raises(ValueError, match="must be"):
                ExperimentConfig.from_mapping(bad)

    @pytest.mark.parametrize(
        "key, text", [("eta", "x"), ("seed", "1.5"), ("loss_on_a", "maybe")]
    )
    def test_parse_error_names_the_key(self, key, text):
        with pytest.raises(ValueError, match=f"^{key} must parse as"):
            ExperimentConfig.from_mapping({"r": "1.0", key: text})

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_kv_text("r 1.0")

    def test_bad_bool(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_mapping({"r": "1.0", "loss_on_a": "maybe"})
