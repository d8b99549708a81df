"""Simulation lab for knowledge-evidencing protocols on random qudit states."""

from .commitment import Commitment, CommitmentPhase, commit, sustain, unveil
from .estimation import EstimationResult, basis_measure_guess, covariant_estimate, mean_estimation_fsq
from .harness import (
    ComparisonReport,
    ExperimentSpec,
    Metric,
    TrialStats,
    compare_to_formula,
    formula_target,
    run_trials,
    sweep,
)
from .protocols import (
    AuditResult,
    BoundKind,
    Protocol,
    ProtocolOutcome,
    ProtocolParams,
    SecurityFigures,
    Verdict,
    a2b_soundness,
    closed_forms,
    eps_c_b2a_exact,
    hoeffding_bound,
    run_classical1,
    run_classical2,
    run_protocol,
    run_quantum_a2b,
    run_quantum_b2a,
    run_quantum_b2a_abort,
    soundness_floor_audit,
)
from .qudit import (
    MAXIMALLY_MIXED,
    HermitianOperator,
    MeasurementOutcome,
    PureState,
    fidelity_sq,
    haar_random,
    measure_basis,
    measure_binary,
    sym_dim,
    sym_outcome_probability,
    sym_projector,
    tensor_power,
)
from .spacetime import (
    AgentId,
    AgentSite,
    EventKind,
    SpacetimeEvent,
    TimingConfig,
    Transcript,
    causally_precedes,
    standard_configuration,
    validate_transcript,
)
from .strategies import AliceKind, AliceStrategy, BobKind, BobStrategy, alice_act, bob_act

__version__ = "0.1.0"
