"""Command-line surface: simulate, sweep, fig2/fig3/fig4, tomo, oracle-check.

Single results print as JSON, sweeps and figure data as CSV with a schema
header line.  All files are written atomically.  Failures produce a
machine-readable JSON error on stderr and a nonzero exit code.  The default
output directory is $MICROMACRO_OUTDIR, falling back to the working
directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import io as mio
from . import pipeline as pl
from . import tomography as tomo
from .errors import MicroMacroError
from .fock import choose_n_max, squeezed_one, squeezed_vacuum
from .wigner import single_mode_wigner_section

OUTDIR_ENV = "MICROMACRO_OUTDIR"

_BASIS_LABELS = ("00", "01", "10", "11")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, default=None, help="squeeze parameter")
    parser.add_argument(
        "--n", type=float, default=None, help="target mean photon number (n0+n1)/2"
    )
    parser.add_argument("--eta1", type=float, default=None, help="loss before S")
    parser.add_argument("--eta", type=float, default=None, help="loss between S and S^-1")
    parser.add_argument("--eta2", type=float, default=None, help="loss after S^-1")
    parser.add_argument("--engine", choices=pl.ENGINES, default=None)
    parser.add_argument(
        "--loss-on-a",
        action="store_true",
        default=None,
        help="mirror the detection loss eta2 onto arm A",
    )
    parser.add_argument("--tail-tol", type=float, default=None, dest="tail_tol")
    parser.add_argument(
        "--config", default=None, help="key = value file; explicit flags override it"
    )


def _merge_config(args) -> pl.ExperimentConfig:
    # the file may leave the strength to the flags, so its fields are checked
    # only once merged
    fields = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            fields = pl._config_fields(pl.parse_kv_text(fh.read()))
    cfg = pl.ExperimentConfig(**fields)
    # a strength flag replaces the file's strength, whichever of r / n it set
    if args.r is not None:
        cfg = replace(cfg, r=args.r, target_n=None)
    if args.n is not None:
        cfg = replace(cfg, target_n=args.n, r=None)
    flags = {
        name: getattr(args, name, None)
        for name in ("eta1", "eta", "eta2", "engine", "loss_on_a", "tail_tol", "seed")
    }
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    if cfg.r is None and cfg.target_n is None:
        raise ValueError("one of --r / --n (or a config file setting) is required")
    cfg.validate()
    return cfg


def _outdir(args) -> str:
    out = getattr(args, "outdir", None) or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit(text: str, output: str | None) -> None:
    if output:
        mio.atomic_write_text(output, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    row = mio.ResultRow.from_result(pl.run(cfg))
    if args.format == "json":
        _emit(row.to_json(), args.output)
    else:
        _emit(mio.result_rows_csv_text([row]), args.output)
    return 0


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    entries = pl.sweep(cfg, args.axis, values)
    rows = [mio.ResultRow.from_result(e.result) for e in entries if e.result]
    text = mio.result_rows_csv_text(rows)
    for e in entries:
        if e.error:
            text += f"# error at {args.axis}={mio.format_float(e.value)}: {e.error}\n"
    _emit(text, args.output)
    return 0


def cmd_fig2(args) -> int:
    outdir = _outdir(args)
    r = args.r
    n_max = choose_n_max(r, tail_tol=1e-12)
    p0 = squeezed_vacuum(r, n_max) ** 2
    p1 = squeezed_one(r, n_max) ** 2
    hi = int(max(np.nonzero(p0 > 1e-8)[0].max(), np.nonzero(p1 > 1e-8)[0].max()))
    rows = [(n, p0[n], p1[n]) for n in range(hi + 1)]
    mio.atomic_write_text(
        os.path.join(outdir, "fig2_photon_distribution.csv"),
        mio.table_csv_text("fig2-photon-distribution v1", ("n", "p_s0", "p_s1"), rows),
    )
    # cross sections on each quadrature's natural scale; r=0 curves are the
    # vacuum / one-photon references shown dotted in the plot recipe
    for axis, label in (("x", "x"), ("p", "p")):
        lim = 4.0 * (np.exp(-r) if axis == "x" else np.exp(r))
        pts = np.linspace(-lim, lim, args.points)
        w0 = single_mode_wigner_section("S0", r, pts, axis=axis)
        w1 = single_mode_wigner_section("S1", r, pts, axis=axis)
        ref0 = single_mode_wigner_section("S0", 0.0, pts, axis=axis)
        ref1 = single_mode_wigner_section("S1", 0.0, pts, axis=axis)
        rows = list(zip(pts, w0, w1, ref0, ref1))
        mio.atomic_write_text(
            os.path.join(outdir, f"fig2_wigner_section_{label}.csv"),
            mio.table_csv_text(
                "fig2-wigner-section v1",
                (label, "w_s0", "w_s1", "w_vacuum_ref", "w_one_photon_ref"),
                rows,
            ),
        )
    return 0


# Grid-file schema per figure: key -> default text, None where the key is required.
_FIG3_GRID = {
    "n_values": None, "eta_values": None, "eta1": "1.0", "eta2": "1.0",
    "engine": "phase_space",
}
_FIG4_GRID = {
    "eta_values": None, "eta12_values": None, "n": "100.0", "engine": "phase_space",
}


def _load_grid(path_or_none, default_name, schema) -> dict[str, str]:
    """Grid file entries checked against ``schema``, with its defaults filled in."""
    if path_or_none:
        with open(path_or_none, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("micromacro.configs").joinpath(default_name).read_text()
    grid = pl.parse_kv_text(text)
    for key, default in schema.items():
        if default is None and key not in grid:
            raise ValueError(f"grid file lacks the required key {key!r}")
    unknown = sorted(set(grid) - set(schema))
    if unknown:
        raise ValueError(f"unknown grid key(s) {unknown}; allowed: {list(schema)}")
    return {**schema, **grid}


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_figure(args, name, base, axis, values, eta_values, filename) -> int:
    """Sweep ``axis`` once per mid-stage eta; any failed point aborts the figure."""
    rows = []
    for eta in eta_values:
        for e in pl.sweep(replace(base, eta=eta), axis, values):
            if e.error:
                raise MicroMacroError(
                    f"{name} point {axis}={e.value}, eta={eta}: {e.error}"
                )
            rows.append(mio.ResultRow.from_result(e.result))
    mio.write_result_rows(os.path.join(_outdir(args), filename), rows)
    return 0


def cmd_fig3(args) -> int:
    grid = _load_grid(args.grid_file, "fig3_grid.cfg", _FIG3_GRID)
    base = pl.ExperimentConfig(
        eta1=float(grid["eta1"]), eta2=float(grid["eta2"]), engine=grid["engine"]
    )
    return _write_figure(
        args, "fig3", base, "n", _float_list(grid["n_values"]),
        _float_list(grid["eta_values"]), "fig3_concurrence_success.csv",
    )


def cmd_fig4(args) -> int:
    grid = _load_grid(args.grid_file, "fig4_grid.cfg", _FIG4_GRID)
    base = pl.ExperimentConfig(target_n=float(grid["n"]), engine=grid["engine"])
    return _write_figure(
        args, "fig4", base, "eta12", _float_list(grid["eta12_values"]),
        _float_list(grid["eta_values"]), "fig4_concurrence_vs_outer_loss.csv",
    )


def cmd_tomo(args) -> int:
    cfg = _merge_config(args)
    requested_engine = cfg.engine
    # the homodyne sampler draws from the Fock branch ensemble
    if cfg.engine in ("auto", "phase_space"):
        cfg = replace(cfg, engine="fock")
    result = pl.run(cfg, keep_state=True)
    record = tomo.sample(
        result.final_branches,
        n_samples=args.samples,
        phase_policy=args.phase_policy,
        seed=cfg.seed,
        config_snapshot={
            "r": mio.format_float(cfg.resolved_r()),
            "eta1": mio.format_float(cfg.eta1),
            "eta": mio.format_float(cfg.eta),
            "eta2": mio.format_float(cfg.eta2),
        },
    )
    outdir = _outdir(args)
    record_path = os.path.join(outdir, "tomo_record.csv")
    mio.atomic_write_text(record_path, record.to_csv_text())

    recon = tomo.reconstruct(record)
    c_est, c_err = tomo.concurrence_with_uncertainty(recon)
    reference = result.rho_p.matrix
    elements = {}
    for row in range(4):
        for col in range(4):
            key = f"{_BASIS_LABELS[row]},{_BASIS_LABELS[col]}"
            elements[key] = {
                "estimate_re": recon.estimate[row, col].real,
                "estimate_im": recon.estimate[row, col].imag,
                "se_re": recon.se_real[row, col],
                "se_im": recon.se_imag[row, col],
                "reference_re": reference[row, col].real,
                "reference_im": reference[row, col].imag,
            }
    payload = {
        "schema": "tomo-reconstruction v1",
        "n_samples": args.samples,
        "seed": cfg.seed,
        "phase_policy": args.phase_policy,
        "engine": "fock",
        "requested_engine": requested_engine,
        "elements": elements,
        "concurrence": {
            "estimate": c_est,
            "uncertainty": c_err,
            "reference": result.concurrence.value,
        },
        "success_prob": {
            "estimate": float(np.trace(recon.estimate).real),
            "reference": result.success_prob,
        },
    }
    mio.atomic_write_text(
        os.path.join(outdir, "tomo_reconstruction.json"),
        json.dumps(payload, indent=2) + "\n",
    )
    return 0


def cmd_oracle_check(args) -> int:
    if args.quick:
        grid = ([1.0, 10.0], [0.99, 0.9], [1.0])
    else:  # n up to fig3's largest
        grid = ([1.0, 10.0, 50.0, 100.0, 300.0], [0.99, 0.95, 0.9, 0.85], [1.0, 0.9])
    worst = 0.0
    for n, eta, eta12 in itertools.product(*grid):
        cfg = pl.ExperimentConfig(
            target_n=n, eta=eta, eta1=eta12, eta2=eta12, engine="both"
        )
        gap = pl.run(cfg).diagnostics.disagreement
        worst = max(worst, gap)
        status = "ok" if gap < args.tol else "FAIL"
        print(f"n={n:g} eta={eta:g} eta12={eta12:g} disagreement={gap:.3e} {status}")
    print(f"worst disagreement {worst:.3e} (tolerance {args.tol:g})")
    return 1 if worst >= args.tol else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micromacro",
        description="Amplified/de-amplified single-photon entanglement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment point")
    _add_pipeline_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run one axis sweep")
    _add_pipeline_flags(p)
    p.add_argument("--axis", choices=pl.SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fig2", help="photon distributions and Wigner sections")
    p.add_argument("--r", type=float, default=2.6)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="concurrence and success probability vs n")
    p.add_argument("--grid-file", default=None, dest="grid_file")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="concurrence vs outer losses at n=100")
    p.add_argument("--grid-file", default=None, dest="grid_file")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_fig4)

    p = sub.add_parser("tomo", help="sample homodyne data and reconstruct")
    _add_pipeline_flags(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--phase-policy",
        choices=("uniform_random", "fixed_grid"),
        default="uniform_random",
        dest="phase_policy",
    )
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_tomo)

    p = sub.add_parser("oracle-check", help="cross-validate the two engines")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MicroMacroError, ValueError, OSError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
