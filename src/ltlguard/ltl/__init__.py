"""Temporal logic core: formulas, parsing, progression, rendering, oracle."""

from .ast import (
    FALSE,
    TRUE,
    And,
    Always,
    Eventually,
    FalseBool,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    TrueBool,
    TruthAssignment,
    Until,
    Verdict,
)
from .lasso import evaluate_lasso
from .parser import ParseError, parse, parse_written
from .progression import ProgressionCache, progress, simplify, verdict_of
from .render import render

__all__ = [
    "FALSE",
    "TRUE",
    "And",
    "Always",
    "Eventually",
    "FalseBool",
    "Formula",
    "Implies",
    "Next",
    "Not",
    "Or",
    "ParseError",
    "ProgressionCache",
    "Prop",
    "TrueBool",
    "TruthAssignment",
    "Until",
    "Verdict",
    "evaluate_lasso",
    "parse",
    "parse_written",
    "progress",
    "render",
    "simplify",
    "verdict_of",
]
