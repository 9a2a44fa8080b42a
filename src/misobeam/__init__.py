"""Minimum-power SINR-constrained precoding for the multiuser MISO downlink.

The package splits into:

* :mod:`misobeam.conic` - standard-form second-order cone programs and a
  self-contained interior-point solver;
* :mod:`misobeam.model` - channels, precoders, SINR/power evaluation and
  batched error sampling;
* :mod:`misobeam.design` - the nominal and the uncertainty-robust precoder
  designs, compiled by one program builder onto the cone solver;
* :mod:`misobeam.montecarlo` - seeded experiment harness (SINR CDFs, power
  sweeps, worst-case audits);
* :mod:`misobeam.cli` - the ``misobeam`` command-line front end.
"""

__version__ = "0.3.0"

from .conic import (
    ConeProgram,
    ConeProgramError,
    ConeResiduals,
    Nonnegative,
    SecondOrder,
    Solution,
    SolverSettings,
    SolveStatus,
    residuals,
    solve,
    validate,
)
from .design import (
    DesignResult,
    ProgramLayout,
    RobustProgramLayout,
    UncertaintySpec,
    build_nominal,
    build_robust,
    design_nominal,
    design_robust,
    extract_precoder,
)
from .model import (
    ChannelSet,
    Precoder,
    QosSpec,
    achieved_sinr,
    generate_channels,
    sample_error,
    transmit_power,
)
from .montecarlo import (
    ExperimentConfig,
    MethodReport,
    SimulationReport,
    WorstCaseReport,
    power_vs_delta_sweep,
    power_vs_gamma_sweep,
    sinr_cdf_experiment,
    worst_case_check,
)

__all__ = [
    "__version__",
    "ChannelSet", "Precoder", "QosSpec",
    "achieved_sinr", "generate_channels", "sample_error", "transmit_power",
    "ConeProgram", "ConeProgramError", "ConeResiduals", "Nonnegative",
    "SecondOrder", "Solution", "SolverSettings", "SolveStatus",
    "residuals", "solve", "validate",
    "DesignResult", "ProgramLayout", "RobustProgramLayout", "UncertaintySpec",
    "build_nominal", "build_robust", "design_nominal", "design_robust",
    "extract_precoder",
    "ExperimentConfig", "MethodReport", "SimulationReport", "WorstCaseReport",
    "power_vs_delta_sweep", "power_vs_gamma_sweep", "sinr_cdf_experiment",
    "worst_case_check",
]
