"""Spectral toolkit for the 1-D heat equation with memory.

Simulates the modal Volterra equations behind the memory heat flow, locates
their nodal sets, certifies backward uniqueness on finite instant sets, and
probes the two-sided sampling observability inequality: observability
constants, shrinking-ball probes, initial-data reconstruction, and the dual
impulse-control solve.
"""

__version__ = "0.1.0"

from .errors import (
    MemobsError,
    NumericalError,
    SeriesDivergenceError,
    StabilityError,
    ValidationError,
)
from .evolution import ModalCache, ResidualTable, decomposition_residual, propagate
from .inverse_control import (
    Certificate,
    ControlImpulse,
    ImpulseControlResult,
    ModeWitness,
    ObservationBlock,
    ObservationData,
    ReconstructionResult,
    backward_uniqueness_certificate,
    impulse_control,
    reconstruct_initial,
    simulate_controlled,
    simulate_observations,
)
from .kernels import (
    ConstantKernel,
    ExponentialKernel,
    LinearKernel,
    MemoryKernel,
    TabulatedKernel,
    UniformGrid,
    ZeroKernel,
    kernel_from_spec,
    kernel_series_K,
)
from .modal import (
    NodalSet,
    closed_form_exp,
    nodal_set_exp_closed,
    nodal_set_numeric,
    series_solution_grid,
    solve_modal_richardson,
    solve_modal_volterra,
)
from .regions import Interval, ObservationRegion, UncoveredSet, complement
from .sampling import (
    GeometricVerdict,
    ObservabilityConstants,
    ProbeResult,
    SamplingPlan,
    check_geometric_condition,
    check_kernel_nonvanishing,
    constants_table,
    observability_constants,
    observation_gram,
    probe_coefficients,
    probe_upper_bound,
)
from .spectral import SpectralBasis, SpectralField, overlap_matrix

__all__ = [
    "__version__",
    "MemobsError",
    "ValidationError",
    "NumericalError",
    "StabilityError",
    "SeriesDivergenceError",
    "SpectralBasis",
    "SpectralField",
    "overlap_matrix",
    "Interval",
    "ObservationRegion",
    "UncoveredSet",
    "complement",
    "MemoryKernel",
    "ZeroKernel",
    "ConstantKernel",
    "LinearKernel",
    "ExponentialKernel",
    "TabulatedKernel",
    "kernel_from_spec",
    "UniformGrid",
    "kernel_series_K",
    "NodalSet",
    "solve_modal_volterra",
    "solve_modal_richardson",
    "closed_form_exp",
    "series_solution_grid",
    "nodal_set_numeric",
    "nodal_set_exp_closed",
    "ModalCache",
    "propagate",
    "ResidualTable",
    "decomposition_residual",
    "SamplingPlan",
    "GeometricVerdict",
    "check_kernel_nonvanishing",
    "check_geometric_condition",
    "observation_gram",
    "ObservabilityConstants",
    "observability_constants",
    "constants_table",
    "ProbeResult",
    "probe_coefficients",
    "probe_upper_bound",
    "Certificate",
    "ModeWitness",
    "backward_uniqueness_certificate",
    "ObservationBlock",
    "ObservationData",
    "simulate_observations",
    "ReconstructionResult",
    "reconstruct_initial",
    "ControlImpulse",
    "ImpulseControlResult",
    "impulse_control",
    "simulate_controlled",
]
