"""Guarded execution: predict violation risk, intervene, then monitor.

Each session step follows a fixed order: estimate per-constraint risk of
the upcoming continuation, obtain the model's output, intervene if any
risk reaches the threshold (resample the output, inject a compliance
reminder into the input and regenerate, or switch to a substitute
model), then label and monitor the final pair with reset-mode recovery.

All randomness is derived from the session seed, the step index, and a
purpose tag, so runs are reproducible and the baseline (strategy
``none``) is byte-identical to an unguarded run under the same seed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .ltl import Formula, Verdict, render
from .models import BlackBoxModel, SampleParams, derive_seed, load_template
from .monitor import MonitorState, ProgressionCache, new_state, run_states
from .predictive import MonitoringPattern, advance, estimate_risks, get_pattern, rollout
from .trace import LabelingFunction, StepRecord, Trace, VerdictReport

STRATEGIES = ("none", "resample", "inject", "switch")


class PolicyError(ValueError):
    """Invalid intervention policy or session configuration."""


def default_inject_template() -> str:
    return load_template("inject_template.txt")


@dataclass(frozen=True)
class InterventionPolicy:
    strategy: str = "none"
    tau: float = 0.5
    n: int = 5
    k: int = 3
    m: int = 5
    pattern: str = "contains_violated"
    inject_template: str | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise PolicyError(f"unknown strategy {self.strategy!r}; one of {STRATEGIES}")
        if not 0.0 <= self.tau <= 1.0:
            raise PolicyError(f"tau must be in [0, 1], got {self.tau}")
        if self.n < 1:
            raise PolicyError("n must be >= 1")
        if self.k < 1 or self.m < 1:
            raise PolicyError("k and m must be >= 1")
        try:
            get_pattern(self.pattern)
        except KeyError as err:
            raise PolicyError(err.args[0]) from None


@dataclass(frozen=True)
class GuardedStepOutcome:
    t: int
    input: str
    final_input: str
    original_output: str
    final_output: str
    intervened: bool
    strategy: str
    verdicts: Mapping[str, Verdict]
    residuals: Mapping[str, str]
    trigger_risk: Mapping[str, float] | None = None
    risk_original: Mapping[str, float] | None = None
    risk_after: Mapping[str, float] | None = None
    contract_ok: bool | None = None
    k: int | None = None
    m: int | None = None

    def to_dict(self) -> dict:
        def risks(value):
            return dict(sorted(value.items())) if value is not None else None

        return {
            "t": self.t,
            "input": self.input,
            "final_input": self.final_input,
            "original_output": self.original_output,
            "final_output": self.final_output,
            "intervened": self.intervened,
            "strategy": self.strategy,
            "verdicts": {cid: v._value_ for cid, v in sorted(self.verdicts.items())},
            "residuals": dict(sorted(self.residuals.items())),
            "trigger_risk": risks(self.trigger_risk),
            "risk_original": risks(self.risk_original),
            "risk_after": risks(self.risk_after),
            "contract_ok": self.contract_ok,
            "k": self.k,
            "m": self.m,
        }


class GuardedSession:
    """One strictly sequential guarded run against a set of constraints."""

    def __init__(
        self,
        model: BlackBoxModel,
        labeler: LabelingFunction,
        constraints: Mapping[str, Formula],
        policy: InterventionPolicy,
        substitute: BlackBoxModel | None = None,
        seed: int = 0,
        glosses: Mapping[str, str] | None = None,
        stop_token: str = "DONE",
        action_temperature: float = 0.2,
        sampling_temperature: float = 0.8,
        reset_mode: bool = True,
        cache: ProgressionCache | None = None,
    ):
        if policy.strategy == "switch" and substitute is None:
            raise PolicyError("strategy 'switch' requires a substitute model")
        self.model = model
        self.labeler = labeler
        self.policy = policy
        self.pattern: MonitoringPattern = get_pattern(policy.pattern)
        self.substitute = substitute
        self.seed = seed
        self.stop_token = stop_token
        self.action_temperature = action_temperature
        self.sampling_temperature = sampling_temperature
        # The session's residual automaton: ``cache``, such as the one its
        # config was parsed into, or a fresh one.
        cache = ProgressionCache() if cache is None else cache
        self.states: dict[str, MonitorState] = {
            cid: new_state(cid, constraints[cid], reset_mode, cache)
            for cid in sorted(constraints)
        }
        glosses = glosses or {}
        self.rules_text = "\n".join(
            f"- {glosses.get(cid) or render(state.objective, 'english')}"
            for cid, state in self.states.items()
        )
        self.steps: list[StepRecord] = []
        self.outcomes: list[GuardedStepOutcome] = []
        self.finished = False


def apply_inject(
    input: str, residuals: Sequence[tuple[str, Formula]], template: str
) -> str:
    """Suffix the input with the compliance reminder for at-risk residuals.

    Residuals are rendered in english, one line each, ordered by
    constraint id; with no residuals the input passes through unchanged.
    """
    if not residuals:
        return input
    ordered = sorted(residuals, key=lambda pair: pair[0])
    lines = "\n".join(render(phi, "english") for _, phi in ordered)
    reminder = template.replace("{constraints}", lines).rstrip("\n")
    if not input:
        return reminder
    return f"{input}\n{reminder}"


def _act(session: GuardedSession, model: BlackBoxModel, history: Sequence[StepRecord], input: str, t: int, purpose: str) -> str:
    """One output at the session's action temperature, seeded by step and purpose."""
    params = SampleParams(session.action_temperature, derive_seed(session.seed, t, purpose))
    return model.next_output(history, input, params)


def apply_switch(session: GuardedSession, t: int) -> str:
    """Query the substitute model with past actions and the session rules."""
    memory = "\n".join(
        f"{record.t}. {record.output}" for record in session.steps
    ) or "(none)"
    prompt = (
        load_template("switch_prompt.txt")
        .replace("{memory}", memory)
        .replace("{rules}", session.rules_text)
    )
    return _act(session, session.substitute, [], prompt, t, "switch")


def apply_resample(session: GuardedSession, input: str, n: int, t: int) -> str:
    """Best-of-n output selection by fewest predicted violations.

    Draws n candidates at the sampling temperature, each the first step of
    a rollout over the horizon, scores each by the terminal-violation
    count over its rollout (candidate step included), and returns the
    argmin; ties break on the earliest sample index.
    """

    def scored(j: int) -> tuple[int, int, str]:
        seed = derive_seed(session.seed, t, "resample", j)
        seeds = [seed, *(derive_seed(seed, "roll", i) for i in range(session.policy.k - 1))]
        steps, trail = rollout(
            session.states, session.model, session.labeler, session.steps, input, seeds,
            session.sampling_temperature,
        )
        violations = sum(st.last_verdict is Verdict.VIOLATED for states in trail[1:] for st in states.values())
        return violations, j, steps[len(session.steps)].output

    return min(map(scored, range(n)))[2]


def _risks(
    session: GuardedSession,
    states: Mapping[str, MonitorState],
    next_input: str,
    history: Sequence[StepRecord],
    seed: int,
) -> dict[str, float]:
    """Pattern probability per constraint under the session's estimator settings."""
    estimates = estimate_risks(
        states,
        session.model,
        session.labeler,
        session.pattern,
        session.policy.k,
        session.policy.m,
        next_input,
        history,
        seed,
        session.sampling_temperature,
    )
    return {cid: est.probability for cid, est in estimates.items()}


def _post_pair_risks(
    session: GuardedSession, input: str, output: str, seed: int
) -> dict[str, float]:
    """Estimated pattern risk after committing (input, output), the pair's
    own verdict included as the first element of each sequence."""
    steps = list(session.steps)
    progressed = advance(session.states, session.labeler, steps, input, output)
    return _risks(session, progressed, "", steps, seed)


def guard_step(session: GuardedSession, next_input: str) -> GuardedStepOutcome | None:
    """Run one guarded step; returns None once the stop token is emitted.

    On any model or labeler failure the exception propagates and the
    session is left at its pre-step state.
    """
    if session.finished:
        raise RuntimeError("session already finished")
    policy = session.policy
    t = len(session.steps) + 1
    trigger: dict[str, float] | None = None
    if policy.strategy != "none":
        predict_seed = derive_seed(session.seed, t, "predict")
        trigger = _risks(session, session.states, next_input, session.steps, predict_seed)
    original_output = _act(session, session.model, session.steps, next_input, t, "action")
    if original_output == session.stop_token:
        session.finished = True
        return None

    final_input, final_output = next_input, original_output
    intervened = False
    risk_original = risk_after = None
    contract_ok = None
    if trigger is not None and any(risk >= policy.tau for risk in trigger.values()):
        intervened = True
        if policy.strategy == "resample":
            final_output = apply_resample(session, next_input, policy.n, t)
        elif policy.strategy == "inject":
            at_risk = [
                (cid, session.states[cid].residual)
                for cid in session.states
                if trigger[cid] >= policy.tau
            ]
            template = policy.inject_template or default_inject_template()
            final_input = apply_inject(next_input, at_risk, template)
            final_output = _act(session, session.model, session.steps, final_input, t, "inject")
        elif policy.strategy == "switch":
            final_output = apply_switch(session, t)
        post_seed = derive_seed(session.seed, t, "post")
        risk_original = _post_pair_risks(session, next_input, original_output, post_seed)
        risk_after = _post_pair_risks(session, final_input, final_output, post_seed)
        contract_ok = all(
            risk_after[cid] <= risk_original[cid] for cid in session.states
        )

    session.states = advance(
        session.states, session.labeler, session.steps, final_input, final_output
    )
    outcome = GuardedStepOutcome(
        t=t,
        input=next_input,
        final_input=final_input,
        original_output=original_output,
        final_output=final_output,
        intervened=intervened,
        strategy=policy.strategy,
        verdicts={cid: state.last_verdict for cid, state in session.states.items()},
        residuals={
            cid: render(state.residual, "ascii", state.automaton.rendered)
            for cid, state in session.states.items()
        },
        trigger_risk=trigger or None,
        risk_original=risk_original,
        risk_after=risk_after,
        contract_ok=contract_ok,
        k=policy.k if trigger is not None else None,
        m=policy.m if trigger is not None else None,
    )
    session.outcomes.append(outcome)
    return outcome


def run_guarded(
    session: GuardedSession, max_steps: int, initial_input: str = ""
) -> tuple[Trace, list[GuardedStepOutcome], list[VerdictReport]]:
    """Run the closed loop until ``max_steps`` or the model's stop token.

    Returns the realized trace, the per-step outcomes, and per-constraint
    verdict reports: the reports of the realized trace from fresh states.
    """
    for t in range(1, max_steps + 1):
        next_input = initial_input if t == 1 else ""
        if guard_step(session, next_input) is None:
            break
    trace = Trace(
        tuple(session.steps),
        metadata={
            "seed": session.seed,
            "strategy": session.policy.strategy,
            "tau": session.policy.tau,
        },
    )
    fresh = [new_state(cid, st.objective, st.reset_mode, st.automaton) for cid, st in session.states.items()]
    return trace, list(session.outcomes), run_states(fresh, session.steps)


def violation_rate(reports: Sequence[VerdictReport]) -> float:
    """Total violations across constraints divided by monitored steps."""
    steps = max((len(r.verdicts) for r in reports), default=0)
    if steps == 0:
        return 0.0
    return sum(r.violations for r in reports) / steps
