"""Simulation of micro-macro photon-number entanglement.

A single-photon entangled state (one photon delocalized over arms A and B)
has its B arm amplified by a single-mode squeezer, exposed to loss, and
de-amplified by the inverse squeezer.  The package carries the state through
that pipeline in two independent engines (truncated Fock space and exact
phase-space algebra), quantifies the surviving entanglement on the
{0,1}x{0,1} photon block, and simulates homodyne-tomography detection of the
final state.
"""

from .entanglement import (
    ProjectedDensityMatrix,
    concurrence_general,
    concurrence_xstate,
    success_probability,
    xstate_formula,
)
from .errors import (
    IllConditionedError,
    MicroMacroError,
    NotAnXStateError,
    TruncationError,
)
from .fock import (
    BranchEnsemble,
    SqueezePropagator,
    choose_n_max,
    loss_on_branch,
    mean_photon,
    project_through_loss,
    squeezed_one,
    squeezed_vacuum,
)
from .pipeline import (
    ExperimentConfig,
    amplified_mean_photons,
    run,
    solve_r_for_n,
    sweep,
)
from .tomography import (
    TomographyRecord,
    concurrence_with_uncertainty,
    hermite_functions,
    pattern_function,
    reconstruct,
    sample,
)
from .wigner import (
    GaussianPolyWigner,
    extract_projected,
    initial_wigner,
    loss_convolve,
    rotated_quadrature_pdf,
    single_mode_wigner_section,
    squeeze_rescale,
)

__version__ = "0.1.0"

__all__ = [
    "BranchEnsemble",
    "ExperimentConfig",
    "GaussianPolyWigner",
    "IllConditionedError",
    "MicroMacroError",
    "NotAnXStateError",
    "ProjectedDensityMatrix",
    "SqueezePropagator",
    "TomographyRecord",
    "TruncationError",
    "amplified_mean_photons",
    "choose_n_max",
    "concurrence_general",
    "concurrence_with_uncertainty",
    "concurrence_xstate",
    "extract_projected",
    "hermite_functions",
    "initial_wigner",
    "loss_convolve",
    "loss_on_branch",
    "mean_photon",
    "pattern_function",
    "project_through_loss",
    "reconstruct",
    "rotated_quadrature_pdf",
    "run",
    "sample",
    "single_mode_wigner_section",
    "solve_r_for_n",
    "squeeze_rescale",
    "squeezed_one",
    "squeezed_vacuum",
    "success_probability",
    "sweep",
    "xstate_formula",
]
