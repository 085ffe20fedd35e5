"""Single-document JSON configuration for the command-line workflows.

One config file carries the constraints, the labeler and model wiring,
the intervention policy, seeds, and IO settings, so every run is
reproducible from the file plus the command line seed.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .intervention import InterventionPolicy
from .ltl import Formula, ParseError, ProgressionCache, parse_written
from .models import EndpointLabeler, EndpointModel, RuleLabeler, ScriptedModel
from .synthbench import AttributeEventLabeler
from .trace import LabelingFunction, checked, checked_items


class ConfigError(ValueError):
    """Invalid configuration document."""


def _config_errors(build):
    """Re-raise a missing key or a wrongly typed value as ``ConfigError``."""

    @functools.wraps(build)
    def wrapped(*args):
        try:
            return build(*args)
        except ConfigError:
            raise
        except KeyError as err:
            raise ConfigError(f"config is missing field {err}") from err
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(f"invalid config value: {err}") from err

    return wrapped


# The keys of the top level, of a constraint entry and of a nested endpoint
# spec.  Each model and labeler type's keys are declared beside its builder,
# in ``MODELS`` and ``LABELERS``.  The policy's keys are
# ``InterventionPolicy``'s fields, ``template_path`` and ``substitute_model``.
KEYS = frozenset({
    "constraints", "labeler", "model", "substitute_model", "policy", "mode", "seed",
    "initial_input", "stop_token", "action_temperature", "sampling_temperature",
})
CONSTRAINT_KEYS = frozenset({"id", "formula", "gloss"})
ENDPOINT_KEYS = frozenset({
    "type", "base_url", "model", "api_key_env", "system_prompt", "max_tokens", "timeout",
    "retries", "backoff", "audit_log_path",
})


def _known_keys(spec: Mapping, keys: frozenset[str], section: str) -> None:
    if unknown := sorted(spec.keys() - keys):
        raise ConfigError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")


def _typed_builder(spec: Mapping, table: Mapping[str, tuple], section: str):
    """A model or labeler spec's builder, once its type is one of ``table``'s
    and its keys are that type's."""
    kind = spec.get("type")
    if type(kind) is not str or kind not in table:
        raise ConfigError(f"unknown {section} type {kind!r}")
    keys, build = table[kind]
    _known_keys(spec, keys, f"{kind} {section}")
    return build


@dataclass
class Config:
    # Each constraint's objective, parsed straight into a state of ``automaton``.
    constraints: dict[str, Formula]
    # The proposition names each formula is written with, normalized away or not.
    propositions: dict[str, frozenset[str]]
    automaton: ProgressionCache = field(repr=False)
    glosses: dict[str, str]
    labeler_spec: Mapping | None
    model_spec: Mapping | None
    substitute_spec: Mapping | None
    policy: InterventionPolicy
    mode: str = "reset"
    seed: int = 0
    initial_input: str = ""
    stop_token: str = "DONE"
    action_temperature: float = 0.2
    sampling_temperature: float = 0.8


@_config_errors
def load_config(path: str | Path) -> Config:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    raw = checked(raw, "object", "config")
    _known_keys(raw, KEYS, "config")
    entries = checked(raw.get("constraints", []), "array", "constraints")
    if not entries:
        raise ConfigError("config needs a nonempty 'constraints' array")
    automaton = ProgressionCache()
    constraints: dict[str, Formula] = {}
    propositions: dict[str, frozenset[str]] = {}
    glosses: dict[str, str] = {}
    for i, entry in enumerate(entries, 1):
        _known_keys(checked(entry, "object", f"constraint #{i}"), CONSTRAINT_KEYS, f"constraint #{i}")
        if "id" not in entry or "formula" not in entry:
            raise ConfigError(f"constraint #{i} needs 'id' and 'formula' fields")
        cid = checked(entry["id"], "string", f"constraint #{i}: id")
        if cid in constraints:
            raise ConfigError(f"duplicate constraint id {cid!r}")
        try:
            constraints[cid], propositions[cid] = parse_written(
                checked(entry["formula"], "string", f"constraint {cid!r}: formula"), automaton
            )
        except ParseError as err:
            raise ConfigError(f"constraint {cid!r}: {err}") from err
        if gloss := checked(entry.get("gloss", ""), "string", f"constraint {cid!r}: gloss"):
            glosses[cid] = gloss

    policy_raw = dict(checked(raw.get("policy", {}), "object", "policy"))
    template_path = checked(policy_raw.pop("template_path", None), "string", "template_path", nullable=True)
    # A substitute model given in the policy takes the place of a top-level one.
    substitute_spec, top_substitute = (
        checked(spec, "object", "substitute_model", nullable=True)
        for spec in (policy_raw.pop("substitute_model", None), raw.get("substitute_model"))
    )
    if template_path is not None:
        try:
            policy_raw["inject_template"] = Path(template_path).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read inject template: {err}") from err
    policy = InterventionPolicy(**policy_raw)
    for spec, section in ((substitute_spec, "policy.substitute_model"), (top_substitute, "substitute_model")):
        if spec is not None:
            _typed_builder(spec, MODELS, section)

    # The session ends on the config's stop token, so a script must emit that one.
    stop_token = checked(raw.get("stop_token", "DONE"), "string", "stop_token")
    model_spec = checked(raw.get("model"), "object", "model", nullable=True)
    if model_spec is not None and _typed_builder(model_spec, MODELS, "model") is _scripted_model:
        if (script_stop := model_spec.get("stop_token", "DONE")) != stop_token:
            raise ConfigError(
                f"invalid config value: the scripted model's stop_token {script_stop!r}"
                f" differs from {stop_token!r}"
            )
    mode = raw.get("mode", "reset")
    if mode not in ("plain", "reset"):
        raise ConfigError(f"mode must be 'plain' or 'reset', got {mode!r}")

    labeler_spec = checked(raw.get("labeler"), "object", "labeler", nullable=True)
    if labeler_spec is not None:
        _typed_builder(labeler_spec, LABELERS, "labeler")

    return Config(
        constraints=constraints,
        propositions=propositions,
        automaton=automaton,
        glosses=glosses,
        labeler_spec=labeler_spec,
        model_spec=model_spec,
        substitute_spec=top_substitute if substitute_spec is None else substitute_spec,
        policy=policy,
        mode=mode,
        seed=checked(raw.get("seed", 0), "integer", "seed"),
        initial_input=checked(raw.get("initial_input", ""), "string", "initial_input"),
        stop_token=stop_token,
        action_temperature=float(checked(raw.get("action_temperature", 0.2), "number", "action_temperature")),
        sampling_temperature=float(
            checked(raw.get("sampling_temperature", 0.8), "number", "sampling_temperature")
        ),
    )


def _distribution(dist: object) -> tuple[tuple[str, float], ...]:
    """A scripted model's categorical distribution: an array of [text, weight] arrays."""
    return tuple(
        (checked(text, "string", "a distribution text"), float(checked(weight, "number", "a distribution weight")))
        for text, weight in checked_items(dist, "array", "a distribution")
    )


def _scripted_model(spec: Mapping) -> ScriptedModel:
    stop_token = checked(spec.get("stop_token", "DONE"), "string", "stop_token")
    if "outputs" in spec:
        outputs = tuple(checked_items(spec["outputs"], "string", "outputs"))
        return ScriptedModel(outputs=outputs, stop_token=stop_token)
    if "distributions" in spec:
        distributions = tuple(map(_distribution, checked(spec["distributions"], "array", "distributions")))
        return ScriptedModel(distributions=distributions, stop_token=stop_token)
    raise ConfigError("scripted model needs 'outputs' or 'distributions'")


def _endpoint_model(spec: Mapping) -> EndpointModel:
    return EndpointModel(
        base_url=checked(spec["base_url"], "string", "base_url"),
        model=checked(spec["model"], "string", "model"),
        api_key_env=checked(spec.get("api_key_env", "LTLGUARD_API_KEY"), "string", "api_key_env"),
        system_prompt=checked(spec.get("system_prompt"), "string", "system_prompt", nullable=True),
        max_tokens=checked(spec.get("max_tokens"), "integer", "max_tokens", nullable=True),
        timeout=checked(spec.get("timeout", 60.0), "number", "timeout"),
        retries=checked(spec.get("retries", 3), "integer", "retries"),
        backoff=checked(spec.get("backoff", 1.0), "number", "backoff"),
        audit_log_path=checked(spec.get("audit_log_path"), "string", "audit_log_path", nullable=True),
    )


# Each model type: the keys its spec may have, and its builder.
MODELS = {
    "scripted": (frozenset({"type", "outputs", "distributions", "stop_token"}), _scripted_model),
    "endpoint": (ENDPOINT_KEYS, _endpoint_model),
}


@_config_errors
def build_model(spec: Mapping | None) -> ScriptedModel | EndpointModel:
    if not spec:
        raise ConfigError("model specification must be a nonempty JSON object")
    return _typed_builder(spec, MODELS, "model")(spec)


@_config_errors
def endpoint_spec(spec: object, name: str) -> dict:
    """A nested endpoint model spec, such as the ``endpoint`` labeler's or a
    judge config, as a ``build_model`` spec: its ``type``, if present, must
    be ``endpoint``."""
    spec = checked(spec, "object", name)
    if spec.get("type", "endpoint") != "endpoint":
        raise ConfigError(
            f"invalid config value: {name}'s 'type' must be 'endpoint' or absent, got {spec['type']!r}"
        )
    _known_keys(spec, ENDPOINT_KEYS, name)
    return {**spec, "type": "endpoint"}


EMBEDDED = "embedded"


def _rule_labeler(spec: Mapping) -> RuleLabeler:
    rules = checked(spec["rules"], "object", "rules")
    try:
        return RuleLabeler(
            vocabulary=frozenset(checked_items(spec["vocabulary"], "string", "vocabulary")),
            rules={prop: checked(rx, "string", f"rule {prop!r}") for prop, rx in rules.items()},
        )
    except re.error as err:
        raise ConfigError(f"rule labeler: invalid regex {err.pattern!r}: {err}") from err


def _event_labeler(spec: Mapping) -> AttributeEventLabeler:
    return AttributeEventLabeler(
        entities=checked(spec.get("entities", 1), "integer", "entities"),
        tagged=checked(spec["tagged"], "boolean", "tagged") if "tagged" in spec else None,
    )


def _endpoint_labeler(spec: Mapping) -> EndpointLabeler:
    return EndpointLabeler(
        endpoint=build_model(endpoint_spec(spec["endpoint"], "endpoint")),
        vocabulary=frozenset(checked_items(spec["vocabulary"], "string", "vocabulary")),
        temperature=float(checked(spec.get("temperature", 0.0), "number", "temperature")),
        max_context_chars=checked(spec.get("max_context_chars", 8000), "integer", "max_context_chars"),
    )


# Each labeler type: the keys its spec may have, and its builder.
LABELERS = {
    EMBEDDED: (frozenset({"type"}), lambda spec: EMBEDDED),
    "rule": (frozenset({"type", "vocabulary", "rules"}), _rule_labeler),
    "event": (frozenset({"type", "entities", "tagged"}), _event_labeler),
    "endpoint": (
        frozenset({"type", "endpoint", "vocabulary", "temperature", "max_context_chars"}),
        _endpoint_labeler,
    ),
}


@_config_errors
def build_labeler(spec: Mapping | None) -> LabelingFunction | str:
    """Build the configured labeler; the string ``embedded`` means the
    trace's own ground-truth labels are used."""
    if spec is None:
        return EMBEDDED
    return _typed_builder(spec, LABELERS, "labeler")(spec)
