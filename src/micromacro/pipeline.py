"""Composition of the full amplify/de-amplify experiment.

A run takes the beam-splitter input state through transmission eta1, the
squeezer, transmission eta, the inverse squeezer, transmission eta2 and the
projection onto the {0,1}x{0,1} photon block, in either the truncated Fock
engine, the closed-form phase-space engine, or both (cross-validated).
Losses act on arm B; optionally (``loss_on_a``) the detection loss eta2 is
mirrored onto the spectator arm A.  The squeezer pair acts iff r > 0 and
eta < 1 (otherwise it cancels); ``ExperimentConfig.pair_r`` is that rule,
for validation, ``run`` and ``sweep`` alike.
The Fock engine holds the state as one (2, n_max+1, K) amplitude array
(``BranchEnsemble``), starts it from the closed-form squeezed input and
takes the block from ``project_through_loss``, with the eta2 loss on arm B
and, with ``loss_on_a``, on arm A.  That block reads only the leading
photon numbers after the eta2 loss (``projection_rows``), so the eta loss
keeps only those rows of each Kraus image's inverse squeeze, and a plain
run never holds the expanded state.  With ``keep_state`` the eta loss keeps
every row of the un-squeezed images; the engine crops that state at its
support and prunes it once, and the sampler applies its ``detection_eta``.

An ``ExperimentConfig`` is checked once, when it is built, so ``run`` and
``sweep`` take any config as valid.  ``from_mapping``, keyed by
``CONFIG_KEYS``, is the one route from key/value pairs (config files, CLI
flags, figure grids) to a config.  A phase-space ``sweep`` stacks its rows and
runs each phase-space stage once for all of them, with the kernels ``run`` uses.

All runs are pure functions of the configuration, so results are bit-stable
for a given config on a given machine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import fock as fk
from . import wigner as wg
from .entanglement import (
    ConcurrenceResult,
    ProjectedDensityMatrix,
    concurrence_xstate,
    success_probability,
)
from .errors import TruncationError

ENGINES = ("auto", "fock", "phase_space", "both")

MIN_TARGET_N = 0.5
_MIN_TAIL_TOL = 1e-14

# the numeric fields' types, bool aside; cheaper to test than numbers.Real
_REAL_TYPES = (int, float, np.integer, np.floating)


def solve_r_for_n(target_n: float) -> float:
    """Invert n = (n0+n1)/2 = 2 sinh^2(r) + 1/2 for the squeeze parameter.

    The map has minimum value 1/2 at r=0; smaller targets raise ValueError.
    """
    if target_n < MIN_TARGET_N:
        raise ValueError(
            f"target mean photon number {target_n} below the minimum {MIN_TARGET_N}"
        )
    return math.asinh(math.sqrt((target_n - 0.5) / 2.0))


def amplified_mean_photons(r: float) -> tuple[float, float, float]:
    """(n0, n1, n) = (sinh^2 r, 1 + 3 sinh^2 r, their mean) at squeeze r."""
    s2 = math.sinh(r) ** 2
    return s2, 1.0 + 3.0 * s2, 2.0 * s2 + 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment point: squeeze strength, the three losses, and knobs.

    Exactly one of ``r`` / ``target_n`` must be set, and construction
    (``replace`` included) runs ``validate``.  ``engine='auto'``
    resolves to phase_space, the production engine; 'fock' runs the
    truncated Fock oracle, and 'both' runs the two engines and records their
    elementwise disagreement.  ``seed`` only feeds the tomography sampler.
    """

    r: float | None = None
    target_n: float | None = None
    eta1: float = 1.0
    eta: float = 1.0
    eta2: float = 1.0
    engine: str = "auto"
    loss_on_a: bool = False
    tail_tol: float = fk.DEFAULT_TAIL_TOL
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if (self.r is None) == (self.target_n is None):
            raise ValueError("exactly one of r / target_n is required")
        strength = "r" if self.r is not None else "target_n"
        for name in (strength, "eta1", "eta", "eta2", "tail_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.r is not None and self.r < 0:
            raise ValueError("r must be >= 0")
        if self.target_n is not None and self.target_n < MIN_TARGET_N:
            raise ValueError(f"target_n must be >= {MIN_TARGET_N}")
        for name in ("eta1", "eta", "eta2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if not isinstance(self.loss_on_a, (bool, np.bool_)):
            raise ValueError(f"loss_on_a must be a bool, got {self.loss_on_a!r}")
        # a tail bound of 1 or more certifies nothing, and below _MIN_TAIL_TOL
        # the loss expansion's retirement no longer resolves its share
        if not _MIN_TAIL_TOL <= self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in [{_MIN_TAIL_TOL:g}, 1), got {self.tail_tol}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        # the Fock engine's photon cap binds only where the squeezer pair acts
        if self.engine in ("fock", "both") and self.pair_r() > 0.0:
            self._fock_n_max(self.pair_r(), self.tail_tol)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Config from pairs keyed by ``CONFIG_KEYS``: a string is parsed by
        its key's type, any other value goes to ``validate`` as it is."""
        fields = {}
        for key, value in mapping.items():
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown configuration key {key!r}")
            typ = CONFIG_KEYS[key]
            if isinstance(value, str):
                try:
                    value = _BOOL_TEXTS[value.lower()] if typ is bool else typ(value)
                except (KeyError, ValueError):
                    msg = f"{key} must parse as {typ.__name__}, got {value!r}"
                    raise ValueError(msg) from None
            fields["target_n" if key == "n" else key] = value
        return cls(**fields)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Config from a plain-text ``key = value`` file (see ``from_mapping``)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(parse_kv_text(fh.read()))

    def _fock_n_max(self, r: float, tail_tol: float) -> int:
        """The Fock cutoff at squeeze ``r``, or a ValueError naming the strength."""
        try:
            return fk.choose_n_max(r, tail_tol)
        except TruncationError as exc:
            strength = "r" if self.r is not None else "target_n"
            value = getattr(self, strength)
            raise ValueError(f"{strength}={value} is beyond the Fock engine: {exc}") from None

    def resolved_r(self) -> float:
        return self.r if self.r is not None else solve_r_for_n(self.target_n)

    def pair_r(self) -> float:
        """The resolved r where the mid-stage loss acts (eta < 1), else 0:
        without it the squeezer pair cancels exactly."""
        return self.resolved_r() if self.eta < 1.0 else 0.0

    def resolved_engine(self) -> str:
        return "phase_space" if self.engine == "auto" else self.engine


@dataclass
class EngineDiagnostics:
    """Numerical bookkeeping of one run; the Fock fields stay unset in phase space.

    - ``n_max``: the Fock photon cutoff (2 when no squeeze runs).
    - ``kraus_orders``, ``neglected_mass``: per branch, the top Kraus order
      of the eta loss, and the trace those orders leave out.
    - ``support_bound``: the top photon number of the un-squeezed state the
      run keeps.  Plain runs keep the rows the block reads after the eta2
      loss (1 at eta2 = 1, ``n_max`` at eta2 = 0); ``keep_state`` runs crop
      the whole state at its support.
    - ``branch_count``: branches projected onto the block, every Kraus
      image of nonzero trace.
    - ``disagreement``: largest elementwise gap between ``fock_matrix`` and
      ``phase_space_matrix`` (``engine="both"``).
    """

    n_max: int | None = None
    kraus_orders: tuple[int, ...] = ()
    neglected_mass: float = 0.0
    support_bound: int | None = None
    branch_count: int | None = None
    disagreement: float | None = None
    fock_matrix: np.ndarray | None = None
    phase_space_matrix: np.ndarray | None = None


@dataclass
class ExperimentResult:
    """Projected matrix, metrics, closed-form photon numbers, diagnostics."""

    config: ExperimentConfig
    rho_p: ProjectedDensityMatrix
    concurrence: ConcurrenceResult
    success_prob: float
    n0: float
    n1: float
    n: float
    engine: str
    diagnostics: EngineDiagnostics
    wall_time: float = 0.0
    final_branches: fk.BranchEnsemble | None = None
    final_wigner: wg.GaussianPolyWigner | None = None


def _initial_ensemble(
    eta1: float, r: float, n_max: int, tail_tol: float
) -> fk.BranchEnsemble:
    """The squeezed input: the beam-splitter state after eta1 and S(r) on arm B.

    Arm B holds only |0> and |1> before the squeezer, so the eta1 loss has
    two exact branches (the photon survives with amplitude sqrt(eta1) or
    decays to vacuum), and S(r) maps them to the closed-form squeezed vacuum
    and squeezed single photon.
    """
    half = 1.0 / math.sqrt(2.0)
    s0 = fk.squeezed_vacuum(r, n_max, tail_tol)
    amps = np.zeros((2, n_max + 1, 1 if eta1 == 1.0 else 2))
    amps[1, :, 0] = half * s0
    amps[0, :, 0] = half * math.sqrt(eta1) * fk.squeezed_one(r, n_max, tail_tol)
    if eta1 < 1.0:
        amps[0, :, 1] = half * math.sqrt(1.0 - eta1) * s0
    return fk.BranchEnsemble(amps)


def _run_fock(
    cfg: ExperimentConfig, r: float, keep_state: bool
) -> tuple[ProjectedDensityMatrix, EngineDiagnostics, fk.BranchEnsemble | None]:
    """The Fock engine at the squeezer pair's r (``pair_r``)."""
    diag = EngineDiagnostics()
    # a kept state feeds amplitude-linear quantities (homodyne densities), so
    # its truncation bound must hold amplitudes to ~1e-8, not just mass
    trunc_tol = min(cfg.tail_tol, 1e-17) if keep_state else cfg.tail_tol
    # without the squeeze, arm B never leaves {0, 1}
    n_max = cfg._fock_n_max(r, trunc_tol) if r else 2
    diag.n_max = n_max
    ens = _initial_ensemble(cfg.eta1, r, n_max, trunc_tol)
    # amplitude ~1e-9: quantities linear in the amplitudes (e.g. homodyne
    # densities from the kept state) stay good to ~1e-8
    mass_tol = min(cfg.tail_tol * 1e-2, 1e-18)
    # the sampler reads the whole state, the block only its leading rows:
    # the eta loss keeps those rows of the un-squeezed images
    rows = n_max + 1 if keep_state else fk.projection_rows(cfg.eta2, n_max, mass_tol)
    if cfg.eta < 1.0:
        ens = fk.loss_on_branch(ens, cfg.eta, cfg.tail_tol, r, rows)
        diag.kraus_orders, diag.neglected_mass = ens.kraus_orders, ens.neglected_mass
    if keep_state:
        rows = min(max(ens.support(mass_tol), 3), n_max) + 1
    ens = ens.truncated(rows - 1)
    diag.support_bound = rows - 1
    diag.branch_count = len(ens)

    eta_a = cfg.eta2 if cfg.loss_on_a else 1.0
    rho = fk.project_through_loss(ens, cfg.eta2, eta_a)
    if not keep_state:
        return rho, diag, None
    # the block is taken: pruning the kept state touches only the sampler's input
    return rho, diag, fk.prune_branches(replace(ens, detection_eta=(eta_a, cfg.eta2)))[0]


def _run_phase_space(r, eta1, eta, eta2, loss_on_a: bool):
    """Block(s) and final Wigner function of one config (floats) or a stack
    (arrays), r = 0 where the squeezer pair cancels.  A stage runs if any row
    needs it; the others pass at eta = 1 or r = 0, exact identities."""
    W = wg.initial_wigner()
    if _any(eta1 < 1.0):
        W = wg.loss_convolve(W, eta1, mode="B")
    squeeze = _any(r > 0.0)
    if squeeze:
        W = wg.squeeze_rescale(W, r, sign=+1)
    if _any(eta < 1.0):
        W = wg.loss_convolve(W, eta, mode="B")
    if squeeze:
        W = wg.squeeze_rescale(W, r, sign=-1)
    if _any(eta2 < 1.0):
        W = wg.loss_convolve(W, eta2, mode="B")
        if loss_on_a:
            W = wg.loss_convolve(W, eta2, mode="A")
    return wg.extract_projected(W), W


def _any(need) -> bool:
    """Whether a stage is needed: ``need`` is one bool or an array of them."""
    return need if isinstance(need, bool) else bool(need.any())


def _result(cfg: ExperimentConfig, r: float, engine: str, rho_p, diag, **kept) -> ExperimentResult:
    """The result of one config from its block: metrics and photon numbers."""
    return ExperimentResult(cfg, rho_p, concurrence_xstate(rho_p), success_probability(rho_p),
                            *amplified_mean_photons(r), engine, diag, **kept)


def run(config: ExperimentConfig, keep_state: bool = False) -> ExperimentResult:
    """Execute one experiment point in the configured engine(s).

    With ``keep_state=True`` the Fock route also returns the final branch
    ensemble for the tomography sampler (the eta2 losses as its
    ``detection_eta``) and the phase-space route the final Wigner function.
    """
    t0 = time.perf_counter()
    r, pair_r = config.resolved_r(), config.pair_r()
    engine = config.resolved_engine()
    diag = EngineDiagnostics()
    final_branches = None
    final_wigner = None

    if engine in ("fock", "both"):
        rho_fock, diag, final_branches = _run_fock(config, pair_r, keep_state)
        diag.fock_matrix = rho_fock.matrix
    if engine in ("phase_space", "both"):
        block, W = _run_phase_space(
            pair_r, config.eta1, config.eta, config.eta2, config.loss_on_a
        )
        rho_ps = ProjectedDensityMatrix(block)
        if keep_state:
            final_wigner = W
        diag.phase_space_matrix = rho_ps.matrix

    if engine == "fock":
        rho_p = rho_fock
    elif engine == "phase_space":
        rho_p = rho_ps
    else:
        diag.disagreement = float(
            np.abs(rho_fock.matrix - rho_ps.matrix).max()
        )
        rho_p = rho_ps  # closed form carries no truncation error

    result = _result(config, r, engine, rho_p, diag, final_branches=final_branches,
                     final_wigner=final_wigner)
    result.wall_time = time.perf_counter() - t0
    return result


SWEEP_AXES = ("n", "eta", "eta12")


@dataclass
class SweepEntry:
    """One sweep row: the axis value plus either a result or an error string."""

    value: float
    result: ExperimentResult | None = None
    error: str | None = None


def _config_at(base: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "n":
        return replace(base, target_n=float(value), r=None)
    if axis == "eta":
        return replace(base, eta=float(value))
    return replace(base, eta1=float(value), eta2=float(value))  # "eta12"


def sweep(base: ExperimentConfig, axis: str, values) -> list[SweepEntry]:
    """Run one experiment per value, rows in input order, errors collected.

    Individual failures are recorded on their row and do not abort the
    sweep.  A phase-space sweep (engine ``phase_space`` or ``auto``)
    computes all its valid rows in one pass, each stage once for the whole
    stack, and each row's ``wall_time`` is its share of that pass; other
    engines run row by row.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep needs a non-empty value list")

    entries = [SweepEntry(value=v) for v in values]
    rows = [(e, _caught(e, _config_at, base, axis, e.value)) for e in entries]
    rows = [(entry, cfg) for entry, cfg in rows if cfg is not None]
    if base.resolved_engine() != "phase_space" or not rows:
        for entry, cfg in rows:
            entry.result = _caught(entry, run, cfg)
        return entries

    t0 = time.perf_counter()
    pair_r, eta1, eta, eta2 = np.array([(c.pair_r(), c.eta1, c.eta, c.eta2) for _, c in rows]).T
    blocks, _ = _run_phase_space(pair_r, eta1, eta, eta2, base.loss_on_a)
    # with no stage to run, the block is the input state's, without a row axis
    blocks = np.broadcast_to(blocks, pair_r.shape + (4, 4))
    for (entry, cfg), pair, block in zip(rows, pair_r.tolist(), blocks):
        rho_p = ProjectedDensityMatrix(block)
        diag = EngineDiagnostics(phase_space_matrix=rho_p.matrix)
        # pair_r is the resolved r wherever it is nonzero: one resolved_r per row
        r = pair or cfg.resolved_r()
        entry.result = _caught(entry, _result, cfg, r, "phase_space", rho_p, diag)
    share = (time.perf_counter() - t0) / len(rows)
    for result in filter(None, (entry.result for entry in entries)):
        result.wall_time = share
    return entries


def _caught(entry: SweepEntry, fn, *args):
    """fn(*args), or None with the error recorded on the sweep row."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - per-row error reporting
        entry.error = f"{type(exc).__name__}: {exc}"
        return None


# ---------------------------------------------------------------------------
# plain-text configuration files (key = value)
# ---------------------------------------------------------------------------

#: config-file keys and their types; "n" sets ``target_n``
CONFIG_KEYS = {
    "r": float,
    "n": float,
    "eta1": float,
    "eta": float,
    "eta2": float,
    "engine": str,
    "loss_on_a": bool,
    "tail_tol": float,
    "seed": int,
}

_BOOL_TEXTS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
