"""Simulation lab for knowledge-evidencing protocols on random qudit states."""

from .commitment import commit, sustain, unveil
from .estimation import basis_measure_guess, covariant_estimate, mean_estimation_fsq
from .harness import (
    BoundKind,
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
    ALICE_PLAYS,
    BOB_PLAYS,
    AuditResult,
    Protocol,
    ProtocolOutcome,
    ProtocolParams,
    Verdict,
    a2b_soundness,
    check_players,
    eps_c_b2a_exact,
    hoeffding_bound,
    run_protocol,
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
)
from .spacetime import (
    AgentId,
    AgentSite,
    EventKind,
    SpacetimeEvent,
    Transcript,
    causally_precedes,
    validate_transcript,
)
from .strategies import AliceKind, AliceStrategy, BobKind, BobStrategy, alice_act, bob_act

__version__ = "0.1.0"
