"""Toolkit for auditing, monitoring, and intervening on black-box
sequential systems against temporal-logic behavioral constraints."""

from .intervention import (
    GuardedSession,
    GuardedStepOutcome,
    InterventionPolicy,
    PolicyError,
    guard_step,
    run_guarded,
    violation_rate,
)
from .ltl import (
    Formula,
    ParseError,
    TruthAssignment,
    Verdict,
    evaluate_lasso,
    parse,
    progress,
    render,
    simplify,
    verdict_of,
)
from .models import (
    BlackBoxModel,
    EndpointLabeler,
    EndpointModel,
    RuleLabeler,
    SampleParams,
    ScriptedModel,
    measure_labeler_accuracy,
)
from .monitor import (
    MonitorState,
    audit_log,
    new_state,
    run_monitor,
    score_f1,
    step,
)
from .predictive import (
    PATTERNS,
    RiskEstimate,
    estimate_risks,
)
from .trace import (
    LabelingFunction,
    StepRecord,
    Trace,
    VerdictReport,
    WitnessEntry,
    WitnessEpisode,
    apply_labeler,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BlackBoxModel",
    "EndpointLabeler",
    "EndpointModel",
    "Formula",
    "GuardedSession",
    "GuardedStepOutcome",
    "InterventionPolicy",
    "LabelingFunction",
    "MonitorState",
    "PATTERNS",
    "ParseError",
    "PolicyError",
    "RiskEstimate",
    "RuleLabeler",
    "SampleParams",
    "ScriptedModel",
    "StepRecord",
    "Trace",
    "TruthAssignment",
    "Verdict",
    "VerdictReport",
    "WitnessEntry",
    "WitnessEpisode",
    "apply_labeler",
    "audit_log",
    "estimate_risks",
    "evaluate_lasso",
    "guard_step",
    "load_trace",
    "measure_labeler_accuracy",
    "new_state",
    "parse",
    "progress",
    "render",
    "run_guarded",
    "run_monitor",
    "save_trace",
    "score_f1",
    "simplify",
    "step",
    "verdict_of",
    "violation_rate",
]
