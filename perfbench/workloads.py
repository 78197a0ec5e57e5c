"""The benchmark's three workloads, their seeded inputs and correctness checks.

Each workload repeats a unit of work ("pass") with fresh inputs; the inputs of
pass k come from (seed, k), so the same seed gives the same inputs, and no
configuration repeats within a run, so result memoisation cannot win.  Grid
values are jittered by at most 0.5 % in n and 0.002 in each eta below 1, which
moves the per-point work by a few percent; values of exactly 1 stay 1, since
a lossless stage is skipped altogether.  Seed 0 runs the unjittered grids in
its first pass, which are exactly those of ``micromacro oracle-check`` and the
shipped fig3/fig4 grid files.

Only public calls of the package are used.  Correctness checks run outside
the timed region, and every failed check or failed sweep row counts as one
failed operation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from micromacro import entanglement as ent
from micromacro import io as mio
from micromacro import pipeline as pl
from micromacro import tomography as tomo

N_JITTER = 0.005
ETA_JITTER = 0.002

#: oracle-check's own tolerance on the engine disagreement
ORACLE_TOL = 1e-6
#: zero structure of the projected block (acceptance criterion 7)
ZERO_TOL = 1e-10
#: agreement of concurrence_general with the X-state value.  The eigenvalue
#: route takes square roots of eigenvalues that are zero up to roundoff on
#: these blocks (p11 ~ 0), so it resolves them only to sqrt(machine epsilon):
#: criterion 9's 1e-10 holds on full-rank X states, not here
ROUTE_TOL = math.sqrt(np.finfo(float).eps)
#: tomography closure in standard errors; 5, not 3, so that a correct sampler
#: fails with negligible probability on any seed
TOMO_Z = 5.0


@dataclass
class Point:
    """Outcome of one pipeline.run call made directly by the benchmark."""

    result: object = None
    error: str | None = None


@dataclass
class PassResult:
    unit_s: float  # the workload's unit of work
    point_s: list[float] = field(default_factory=list)  # per timed operation
    outputs: list = field(default_factory=list)


def _rng(seed: int, k: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, stream])


def _jitter_n(values, rng, exact):
    if exact:
        return [float(v) for v in values]
    return [float(v) * (1.0 + rng.uniform(-N_JITTER, N_JITTER)) for v in values]


def _jitter_eta(values, rng, exact):
    if exact:
        return [float(v) for v in values]
    return [
        float(v) if v >= 1.0 else float(v) + rng.uniform(-ETA_JITTER, ETA_JITTER)
        for v in values
    ]


def _read_grid(name: str) -> dict[str, str]:
    """key = value pairs of a grid file shipped inside the package."""
    text = resources.files("micromacro.configs").joinpath(name).read_text()
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _at(base, axis: str, value: float):
    """The config a sweep along ``axis`` runs at ``value``."""
    if axis == "n":
        return replace(base, target_n=value, r=None)
    return replace(base, eta1=value, eta2=value)  # axis "eta12"


class OracleGrid:
    """``micromacro oracle-check``: 32 points with engine="both"."""

    name = "oracle_grid"
    min_passes = 3
    N_VALUES = (1.0, 10.0, 50.0, 100.0)
    ETA_VALUES = (0.99, 0.95, 0.9, 0.85)
    ETA12_VALUES = (1.0, 0.9)

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, k: int, trace: bool):
        exact = self.seed == 0 and k == 0
        rng = _rng(self.seed, k, 0)
        n_values = _jitter_n(self.N_VALUES, rng, exact)
        etas = _jitter_eta(self.ETA_VALUES, rng, exact)
        eta12s = _jitter_eta(self.ETA12_VALUES, rng, exact)
        # the paper's regime is the last n value; its points give the latency
        return [
            (pl.ExperimentConfig(target_n=n, eta1=e12, eta2=e12, engine="both"),
             etas, i == len(n_values) - 1)
            for i, n in enumerate(n_values)
            for e12 in eta12s
        ]

    def run_pass(self, inputs, tracer=None) -> PassResult:
        out = PassResult(0.0)
        t_pass = time.perf_counter()
        for base, etas, timed_point in inputs:
            for eta in etas:
                t0 = time.perf_counter()
                (entry,) = pl.sweep(base, "eta", [eta])
                dt = time.perf_counter() - t0
                if timed_point:
                    out.point_s.append(dt)
                out.outputs.append(entry)
        out.unit_s = time.perf_counter() - t_pass
        return out

    def check(self, outputs) -> tuple[int, int]:
        failed = 0
        for entry in outputs:
            gap = None if entry.error else entry.result.diagnostics.disagreement
            if gap is None or not gap < ORACLE_TOL:
                failed += 1
        return len(outputs), failed


class PhaseSpaceFigs:
    """The shipped fig3 (100 points) and fig4 (48 points) grids in phase_space.

    A pass runs both figures through ``pipeline.sweep`` and formats each to
    CSV text with ``io`` (the unit of work), then, untraced, times
    ``pipeline.run`` point by point on a second jittered copy of the grids.
    """

    name = "phase_space_figs"
    min_passes = 7  # >= 1000 point samples, so the tail is read at p99

    def __init__(self, seed: int):
        self.seed = seed
        self.fig3 = _read_grid("fig3_grid.cfg")
        self.fig4 = _read_grid("fig4_grid.cfg")

    def _grids(self, k: int, stream: int, exact: bool):
        rng = _rng(self.seed, k, stream)
        g3, g4 = self.fig3, self.fig4
        n3 = _jitter_n(_floats(g3["n_values"]), rng, exact)
        base3 = pl.ExperimentConfig(
            target_n=n3[0],
            eta1=float(g3.get("eta1", 1.0)),
            eta2=float(g3.get("eta2", 1.0)),
            engine=g3.get("engine", "phase_space"),
        )
        fig3 = [
            (replace(base3, eta=eta), "n", n3)
            for eta in _jitter_eta(_floats(g3["eta_values"]), rng, exact)
        ]
        base4 = pl.ExperimentConfig(
            target_n=_jitter_n([float(g4.get("n", 100.0))], rng, exact)[0],
            engine=g4.get("engine", "phase_space"),
        )
        eta12 = _jitter_eta(_floats(g4["eta12_values"]), rng, exact)
        fig4 = [
            (replace(base4, eta=eta), "eta12", eta12)
            for eta in _jitter_eta(_floats(g4["eta_values"]), rng, exact)
        ]
        return fig3, fig4

    def make_pass(self, k: int, trace: bool):
        figures = self._grids(k, 0, self.seed == 0 and k == 0)
        if trace:  # a traced run reports per-layer figures only
            return figures, []
        points = [
            _at(base, axis, value)
            for sweeps in self._grids(k, 1, False)
            for base, axis, values in sweeps
            for value in values
        ]
        return figures, points

    def run_pass(self, inputs, tracer=None) -> PassResult:
        figures, points = inputs
        out = PassResult(0.0)
        t0 = time.perf_counter()
        for sweeps in figures:
            entries = []
            for base, axis, values in sweeps:
                entries.extend(pl.sweep(base, axis, values))
            rows = [mio.ResultRow.from_result(e.result) for e in entries if e.result]
            out.outputs.append((entries, len(rows), mio.result_rows_csv_text(rows)))
        out.unit_s = time.perf_counter() - t0
        if points:
            done = []
            for cfg in points:
                t0 = time.perf_counter()
                try:
                    done.append(Point(result=pl.run(cfg)))
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    done.append(Point(error=f"{type(exc).__name__}: {exc}"))
                out.point_s.append(time.perf_counter() - t0)
            out.outputs.append((done, len(done), None))
        return out

    def check(self, outputs) -> tuple[int, int]:
        attempted = failed = 0
        for entries, n_rows, csv_text in outputs:
            for entry in entries:
                attempted += 1
                if entry.error or not self._block_ok(entry.result):
                    failed += 1
            if csv_text is not None:
                data = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
                failed += abs(len(data) - 1 - n_rows)
        return attempted, failed

    @staticmethod
    def _block_ok(result) -> bool:
        rho = result.rho_p
        try:
            general = ent.concurrence_general(rho).value
        except ValueError:
            return False
        return (
            rho.off_x_max() <= ZERO_TOL
            and abs(general - result.concurrence.value) <= ROUTE_TOL
        )


class TomographyLoop:
    """Fock state at r = 1, 10^5 homodyne samples, reconstruction, error bar."""

    name = "tomography_loop"
    min_passes = 3
    N_SAMPLES = 100_000

    def __init__(self, seed: int):
        self.seed = seed

    def make_pass(self, k: int, trace: bool):
        tomo_seed = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        return pl.ExperimentConfig(
            r=1.0, eta1=0.95, eta=0.95, eta2=0.95, loss_on_a=True,
            engine="fock", seed=tomo_seed,
        )

    def run_pass(self, cfg, tracer=None) -> PassResult:
        t0 = time.perf_counter()
        state_s = 0.0
        try:
            result = pl.run(cfg, keep_state=True)
            state_s = time.perf_counter() - t0
            record = tomo.sample(result.final_branches, self.N_SAMPLES, seed=cfg.seed)
            recon = tomo.reconstruct(record)
            c_est, c_err = tomo.concurrence_with_uncertainty(recon, seed=cfg.seed)
            outcome = (result, recon, c_est, c_err)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            outcome = f"{type(exc).__name__}: {exc}"
        unit_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.note_time("tomography.state", state_s)
        # the operation here is the whole loop: one state run per loop is too
        # few samples of a ~20 ms call for a steady latency
        return PassResult(unit_s, [unit_s], [outcome])

    def check(self, outputs) -> tuple[int, int]:
        failed = 0
        for outcome in outputs:
            if isinstance(outcome, str) or not self._closes(*outcome):
                failed += 1
        return len(outputs), failed

    @staticmethod
    def _closes(result, recon, c_est, c_err) -> bool:
        ref = result.rho_p.matrix
        diff = recon.estimate - ref
        for part, se in ((diff.real, recon.se_real), (diff.imag, recon.se_imag)):
            exact = se == 0
            if np.any(np.abs(part[exact]) > 1e-12):
                return False
            if np.any(np.abs(part[~exact]) > TOMO_Z * se[~exact]):
                return False
        return math.isfinite(c_err) and abs(
            c_est - result.concurrence.value
        ) <= TOMO_Z * c_err


WORKLOADS = {w.name: w for w in (OracleGrid, PhaseSpaceFigs, TomographyLoop)}
