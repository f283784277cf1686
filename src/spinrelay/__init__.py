"""Iterative measurement-based state transfer on d-level ferromagnetic
spin chains: one-excitation propagators, the evolve-measure protocol, a
dense brute-force oracle, and the standard sweeps and fits."""

from .analysis import (
    PowerLawFit,
    SweepTable,
    failure_curves,
    linear_fit,
    post_failure_distribution,
    powerlaw_fit,
    sweep_first_iteration,
)
from .full_oracle import (
    ChainOperator,
    FullState,
    cross_validate,
    evolve_full,
    measure_full,
    run_full_protocol,
)
from .protocol_engine import (
    IterationRecord,
    LogicalPayload,
    Outcome,
    OutcomeSource,
    PeakCriterion,
    ProtocolResult,
    SectorState,
    evolve,
    excitation_distribution,
    initialize,
    measure,
    optimize_series,
    optimize_time,
    phase_correction,
    run_iterative_protocol,
    schedule_regular,
    success_probability,
)
from .sector_dynamics import (
    ChainSpec,
    PropagatorMode,
    build_one_particle_hamiltonian,
    eigenpair_residual,
    gap_report,
    sector_basis,
)
from .spin_algebra import (
    SpinOperatorSet,
    SwapDecomposition,
    build_spin_operators,
    build_swap_operator,
    conserved_charge,
    solve_swap_coefficients,
)

__version__ = "0.1.0"
