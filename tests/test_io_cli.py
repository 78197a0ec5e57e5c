"""File-format and command-line tests, including golden files for
configurations whose outputs are known a priori (r=0 cases)."""

import argparse
import json
import math

import numpy as np
import pytest

from micromacro import ExperimentConfig, run
from micromacro.cli import _add_pipeline_flags, build_parser, main
from micromacro.io import (
    RESULT_COLUMNS,
    ResultRow,
    atomic_write_text,
    format_float,
    result_rows_csv_text,
)
from micromacro.pipeline import CONFIG_KEYS
from micromacro.tomography import TomographyRecord


class TestIo:
    def test_format_float_significant_digits(self):
        assert format_float(1.0) == "1"
        assert format_float(0.123456789012345) == "0.123456789012"
        assert format_float(None) == ""
        assert format_float(1e-11) == "1e-11"

    def test_result_row_csv(self):
        row = ResultRow.from_result(run(ExperimentConfig(r=0.0, engine="fock")))
        text = result_rows_csv_text([row])
        lines = text.splitlines()
        assert lines[0] == "# schema: result-row v1"
        assert lines[1] == ",".join(RESULT_COLUMNS)
        fields = lines[2].split(",")
        assert fields[0] == "0"  # r
        assert fields[7] == "1"  # concurrence
        assert fields[9] == "fock"

    def test_result_row_json_fields(self):
        row = ResultRow.from_result(run(ExperimentConfig(r=0.0, engine="both")))
        data = json.loads(row.to_json())
        assert set(data) == set(RESULT_COLUMNS)
        assert data["disagreement"] is not None

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        atomic_write_text(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert not [p for p in target.parent.iterdir() if p.suffix == ".tmp"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_trivial_point(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--r", "0", "--eta", "1")
        assert code == 0
        data = json.loads(out)
        assert data["concurrence"] == 1.0
        assert data["success_prob"] == 1.0

    def test_engine_both_reports_disagreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "100", "--eta", "0.99", "--engine", "both"
        )
        assert code == 0
        data = json.loads(out)
        assert data["disagreement"] < 1e-6
        assert data["concurrence"] > 0

    def test_validation_error_exit(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--r", "0", "--eta", "1.2")
        assert code != 0
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        code, _, err = run_cli(capsys, "tomo", "--r", "0.5", "--seed", "-1")
        assert code != 0
        assert json.loads(err)["message"].startswith("seed must be")
        code, _, err = run_cli(capsys, "simulate", "--r", "1", "--tail-tol", "1e-16")
        assert code == 1
        assert json.loads(err)["message"].startswith("tail_tol must lie in [1e-14, 1)")

    def test_missing_strength(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code != 0
        assert "required" in json.loads(err)["message"]

    def test_both_strength_flags_rejected(self, capsys):
        # one mapping takes both flags, so neither silently wins
        code, _, err = run_cli(capsys, "simulate", "--r", "0.5", "--n", "10")
        assert code != 0
        assert json.loads(err)["message"].startswith("exactly one of r / target_n")

    def test_config_flags_name_the_config_keys(self):
        parser = argparse.ArgumentParser()
        _add_pipeline_flags(parser)
        dests = set(vars(parser.parse_args([]))) - {"config"}
        assert "seed" in vars(build_parser().parse_args(["tomo"]))
        assert dests | {"seed"} == set(CONFIG_KEYS)

    def test_csv_format_and_output_file(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--r", "0", "--format", "csv", "--output", str(target),
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "# schema: result-row v1"
        assert len(lines) == 3

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("r = 0\neta = 0.81\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["concurrence"] == pytest.approx(0.9, abs=1e-9)
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--eta", "1"
        )
        assert json.loads(out)["concurrence"] == 1.0

    def test_strength_flag_replaces_file_strength(self, capsys, tmp_path):
        by_n = tmp_path / "by_n.cfg"
        by_n.write_text("n = 100\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(by_n), "--r", "0.5")
        assert code == 0
        assert json.loads(out)["r"] == 0.5
        by_r = tmp_path / "by_r.cfg"
        by_r.write_text("r = 1\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(by_r), "--n", "10")
        assert code == 0
        assert json.loads(out)["n"] == pytest.approx(10.0)

    def test_golden_json_r0(self, capsys):
        # all-unitary r=0 point: every physics field is known exactly
        code, out, _ = run_cli(
            capsys, "simulate", "--r", "0", "--engine", "fock"
        )
        data = json.loads(out)
        data.pop("wall_time")
        assert data == {
            "r": 0.0,
            "n0": 0.0,
            "n1": 1.0,
            "n": 0.5,
            "eta1": 1.0,
            "eta": 1.0,
            "eta2": 1.0,
            "concurrence": 1.0,
            "success_prob": 1.0,
            "engine": "fock",
            "disagreement": None,
        }


class TestSweepCommand:
    def test_rows_and_error_comments(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--r", "0.5", "--engine", "phase_space",
            "--axis", "eta", "--values", "0.9,1.5,0.8",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema: result-row v1"
        data_lines = [l for l in lines[2:] if not l.startswith("#")]
        error_lines = [l for l in lines if l.startswith("# error")]
        assert len(data_lines) == 2
        assert len(error_lines) == 1 and "eta=1.5" in error_lines[0]


class TestFigCommands:
    def test_fig2_files(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "fig2", "--r", "2.6", "--points", "11", "--outdir", str(tmp_path)
        )
        assert code == 0
        photon = (tmp_path / "fig2_photon_distribution.csv").read_text().splitlines()
        assert photon[0] == "# schema: fig2-photon-distribution v1"
        assert photon[1] == "n,p_s0,p_s1"
        values = np.array([line.split(",") for line in photon[2:]], dtype=float)
        even = values[values[:, 0] % 2 == 0]
        odd = values[values[:, 0] % 2 == 1]
        assert np.all(even[:, 2] == 0.0)  # squeezed one has no even support
        assert np.all(odd[:, 1] == 0.0)  # squeezed vacuum has no odd support
        for axis in ("x", "p"):
            section = tmp_path / f"fig2_wigner_section_{axis}.csv"
            assert section.exists()

    def test_fig2_golden_r0(self, capsys, tmp_path):
        # r=0: distributions are exactly |0> and |1>
        run_cli(capsys, "fig2", "--r", "0", "--points", "5", "--outdir", str(tmp_path))
        photon = (tmp_path / "fig2_photon_distribution.csv").read_text()
        assert photon == (
            "# schema: fig2-photon-distribution v1\n"
            "n,p_s0,p_s1\n"
            "0,1,0\n"
            "1,0,1\n"
        )
        section = (tmp_path / "fig2_wigner_section_x.csv").read_text().splitlines()
        x, w_s0, w_s1, ref0, ref1 = (
            np.array([line.split(",") for line in section[2:]], dtype=float).T
        )
        assert np.abs(w_s0 - np.exp(-(x**2)) / math.pi).max() < 1e-12
        assert np.abs(w_s0 - ref0).max() == 0.0
        assert np.abs(w_s1 - ref1).max() == 0.0

    def test_fig3_small_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "n_values = 1, 10, 50\n"
            "eta_values = 0.99, 0.9\n"
            "eta1 = 1.0\neta2 = 1.0\nengine = phase_space\n"
        )
        code, _, _ = run_cli(
            capsys, "fig3", "--grid-file", str(grid), "--outdir", str(tmp_path)
        )
        assert code == 0
        lines = (tmp_path / "fig3_concurrence_success.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 6
        cols = {name: i for i, name in enumerate(lines[1].split(","))}
        for eta in (0.99, 0.9):
            series = [r for r in rows if float(r[cols["eta"]]) == eta]
            conc = [float(r[cols["concurrence"]]) for r in series]
            assert conc == sorted(conc, reverse=True)  # decreasing in n

    def test_fig4_small_grid(self, capsys, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            "n = 100\n"
            "eta_values = 0.99, 0.95\n"
            "eta12_values = 0.9, 1.0\n"
            "engine = phase_space\n"
        )
        code, _, _ = run_cli(
            capsys, "fig4", "--grid-file", str(grid), "--outdir", str(tmp_path)
        )
        assert code == 0
        lines = (
            (tmp_path / "fig4_concurrence_vs_outer_loss.csv").read_text().splitlines()
        )
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        cols = {name: i for i, name in enumerate(lines[1].split(","))}
        # at every eta12 point, higher eta gives more concurrence
        for eta12 in (0.9, 1.0):
            series = {
                float(r[cols["eta"]]): float(r[cols["concurrence"]])
                for r in rows
                if float(r[cols["eta1"]]) == eta12
            }
            assert series[0.99] > series[0.95]

    def test_grid_missing_key(self, capsys, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("eta_values = 0.99\n")
        code, _, err = run_cli(
            capsys, "fig3", "--grid-file", str(grid), "--outdir", str(tmp_path)
        )
        assert code != 0
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "n_values" in payload["message"]

    def test_grid_bad_values(self, capsys, tmp_path):
        grid = tmp_path / "grid.cfg"
        for text, named in (
            ("n_values =\neta_values = 0.99\n", "comma-separated"),
            ("n_values = 1\neta_values = 0.99\neta1 = 1.5\n", "eta1 must lie"),
        ):
            grid.write_text(text)
            code, _, err = run_cli(
                capsys, "fig3", "--grid-file", str(grid), "--outdir", str(tmp_path)
            )
            assert code != 0
            assert named in json.loads(err)["message"]

    def test_grid_unknown_key(self, capsys, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("n_values = 1, 10\neta_values = 0.99\neta_1 = 0.9\n")
        code, _, err = run_cli(
            capsys, "fig3", "--grid-file", str(grid), "--outdir", str(tmp_path)
        )
        assert code != 0
        assert "eta_1" in json.loads(err)["message"]
        assert not (tmp_path / "fig3_concurrence_success.csv").exists()

    def test_outdir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MICROMACRO_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "fig2", "--r", "0", "--points", "5")
        assert code == 0
        assert (tmp_path / "fig2_photon_distribution.csv").exists()


class TestTomoCommand:
    def test_record_reproducible_and_reconstruction_schema(self, capsys, tmp_path):
        args = (
            "tomo", "--r", "0", "--samples", "4000", "--seed", "42",
            "--outdir", str(tmp_path),
        )
        assert run_cli(capsys, *args)[0] == 0
        first = (tmp_path / "tomo_record.csv").read_bytes()
        assert run_cli(capsys, *args)[0] == 0
        second = (tmp_path / "tomo_record.csv").read_bytes()
        assert first == second

        payload = json.loads((tmp_path / "tomo_reconstruction.json").read_text())
        assert payload["schema"] == "tomo-reconstruction v1"
        element = payload["elements"]["10,01"]
        assert {"estimate_re", "se_re", "reference_re"} <= set(element)
        assert element["reference_re"] == pytest.approx(0.5)
        assert payload["concurrence"]["reference"] == pytest.approx(1.0)

    def test_record_parses_back(self, capsys, tmp_path):
        run_cli(
            capsys,
            "tomo", "--r", "0", "--samples", "500", "--seed", "1",
            "--outdir", str(tmp_path),
        )
        rec = TomographyRecord.from_csv(tmp_path / "tomo_record.csv")
        assert len(rec) == 500
        assert rec.seed == 1

    def test_record_snapshot_rebuilds_the_config(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "tomo", "--r", "0.5", "--eta", "0.9", "--eta2", "0.9", "--loss-on-a",
            "--tail-tol", "1e-12", "--samples", "50", "--seed", "3",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        rec = TomographyRecord.from_csv(tmp_path / "tomo_record.csv")
        assert rec.config_snapshot["loss_on_a"] == "True"
        assert rec.config_snapshot["tail_tol"] == "1e-12"
        rebuilt = ExperimentConfig.from_mapping({**rec.config_snapshot, "seed": rec.seed})
        assert rebuilt == ExperimentConfig(
            r=0.5, eta=0.9, eta2=0.9, loss_on_a=True, tail_tol=1e-12, seed=3,
            engine="fock",
        )

    def test_phase_space_request_runs_fock(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "tomo", "--r", "0", "--samples", "10", "--engine", "phase_space",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "tomo_reconstruction.json").read_text())
        assert payload["engine"] == "fock"
        assert payload["requested_engine"] == "phase_space"


class TestOracleCheck:
    def test_quick_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--quick")
        assert code == 0
        assert "worst disagreement" in out
        assert "FAIL" not in out
