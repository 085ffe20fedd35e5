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


def read_json(path: str | Path, name: str) -> object:
    """The JSON document in the file at ``path``, called ``name`` in errors;
    ``NaN``, ``Infinity`` and ``-Infinity``, which JSON lacks, are rejected."""

    def non_finite(constant: str):
        raise ConfigError(f"{name} is not valid JSON: {constant} is not a JSON number")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=non_finite)
    except OSError as err:
        raise ConfigError(f"cannot read {name}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{name} is not valid JSON: {err}") from err


# Each section's keys, each with its JSON kind as ``trace.checked`` names it;
# a trailing ``?`` also allows null.  An absent key takes the default of the
# class its section builds.  Each model and labeler type's keys are declared
# beside its builder, in ``MODELS`` and ``LABELERS``.
KEYS = {
    "constraints": "array", "labeler": "object?", "model": "object?", "substitute_model": "object?",
    "policy": "object", "mode": "string", "seed": "integer", "initial_input": "string",
    "stop_token": "string", "action_temperature": "number", "sampling_temperature": "number",
}
CONSTRAINT_KEYS = {"id": "string", "formula": "string", "gloss": "string"}
POLICY_KEYS = {
    "strategy": "string", "tau": "number", "n": "integer", "k": "integer", "m": "integer",
    "pattern": "string", "inject_template": "string?", "template_path": "string?",
    "substitute_model": "object?",
}
ENDPOINT_KEYS = {
    "type": "string", "base_url": "string", "model": "string", "api_key_env": "string",
    "system_prompt": "string?", "max_tokens": "integer?", "timeout": "number", "retries": "integer",
    "backoff": "number", "audit_log_path": "string?",
}


def _read(spec: object, keys: Mapping[str, str], section: str, prefix: str = "") -> dict:
    """The keys ``spec`` has, with their values, once it is an object whose
    every key is one of ``keys`` and whose every value has its key's kind;
    a value of another kind is named by ``prefix`` and its key."""
    spec = checked(spec, "object", section)
    if unknown := sorted(spec.keys() - keys):
        raise ConfigError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")
    return {
        key: checked(spec[key], kind.rstrip("?"), prefix + key, nullable=kind.endswith("?"))
        for key, kind in keys.items()
        if key in spec
    }


def _typed(spec: Mapping, table: Mapping[str, tuple], section: str) -> tuple:
    """A model or labeler spec's builder, and its values but its ``type``,
    once the type is one of ``table``'s and the spec reads through that
    type's keys."""
    kind = spec.get("type")
    if type(kind) is not str or kind not in table:
        raise ConfigError(f"unknown {section} type {kind!r}")
    keys, build = table[kind]
    values = _read(spec, keys, f"{kind} {section}")
    del values["type"]
    return build, values


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

    def __post_init__(self) -> None:
        if self.mode not in ("plain", "reset"):
            raise ConfigError(f"mode must be 'plain' or 'reset', got {self.mode!r}")
        self.action_temperature = float(self.action_temperature)
        self.sampling_temperature = float(self.sampling_temperature)


@_config_errors
def load_config(path: str | Path) -> Config:
    raw = _read(read_json(path, "config"), KEYS, "config")
    if not (entries := raw.pop("constraints", None)):
        raise ConfigError("config needs a nonempty 'constraints' array")
    automaton = ProgressionCache()
    constraints: dict[str, Formula] = {}
    propositions: dict[str, frozenset[str]] = {}
    glosses: dict[str, str] = {}
    for i, entry in enumerate(entries, 1):
        # A wrong value is named by the constraint's id once the id is a string.
        cid = checked(entry, "object", f"constraint #{i}").get("id")
        prefix = f"constraint {cid!r}: " if type(cid) is str else f"constraint #{i}: "
        entry = _read(entry, CONSTRAINT_KEYS, f"constraint #{i}", prefix)
        if "id" not in entry or "formula" not in entry:
            raise ConfigError(f"constraint #{i} needs 'id' and 'formula' fields")
        if cid in constraints:
            raise ConfigError(f"duplicate constraint id {cid!r}")
        try:
            constraints[cid], propositions[cid] = parse_written(entry["formula"], automaton)
        except ParseError as err:
            raise ConfigError(f"constraint {cid!r}: {err}") from err
        if gloss := entry.get("gloss"):
            glosses[cid] = gloss

    policy = _read(raw.pop("policy", {}), POLICY_KEYS, "policy")
    # A substitute model given in the policy takes the place of a top-level one.
    substitute_spec, top_substitute = policy.pop("substitute_model", None), raw.pop("substitute_model", None)
    if (template_path := policy.pop("template_path", None)) is not None:
        try:
            policy["inject_template"] = Path(template_path).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read inject template: {err}") from err
    policy = InterventionPolicy(**policy)
    for spec, section in ((substitute_spec, "policy.substitute_model"), (top_substitute, "substitute_model")):
        if spec is not None:
            _typed(spec, MODELS, section)

    # The session ends on the config's stop token, so a script must emit that one.
    if (model_spec := raw.pop("model", None)) is not None:
        build, values = _typed(model_spec, MODELS, "model")
        script_stop = values.get("stop_token", ScriptedModel.stop_token)
        if build is _scripted_model and script_stop != (stop_token := raw.get("stop_token", Config.stop_token)):
            raise ConfigError(
                f"invalid config value: the scripted model's stop_token {script_stop!r}"
                f" differs from {stop_token!r}"
            )
    if (labeler_spec := raw.pop("labeler", None)) is not None:
        _typed(labeler_spec, LABELERS, "labeler")

    return Config(
        constraints=constraints,
        propositions=propositions,
        automaton=automaton,
        glosses=glosses,
        labeler_spec=labeler_spec,
        model_spec=model_spec,
        substitute_spec=top_substitute if substitute_spec is None else substitute_spec,
        policy=policy,
        **raw,
    )


def _distribution(dist: object) -> tuple[tuple[str, float], ...]:
    """A scripted model's categorical distribution: an array of [text, weight] arrays."""
    return tuple(
        (checked(text, "string", "a distribution text"), float(checked(weight, "number", "a distribution weight")))
        for text, weight in checked_items(dist, "array", "a distribution")
    )


def _scripted_model(values: dict) -> ScriptedModel:
    if "outputs" in values:
        values["outputs"] = tuple(checked_items(values["outputs"], "string", "outputs"))
    elif "distributions" in values:
        values["distributions"] = tuple(map(_distribution, values["distributions"]))
    else:
        raise ConfigError("scripted model needs 'outputs' or 'distributions'")
    return ScriptedModel(**values)


# Each model type: its keys with their kinds, and its builder.
MODELS = {
    "scripted": (
        {"type": "string", "outputs": "array", "distributions": "array", "stop_token": "string"}, _scripted_model
    ),
    "endpoint": (ENDPOINT_KEYS, lambda values: EndpointModel(**values)),
}


@_config_errors
def build_model(spec: Mapping | None) -> ScriptedModel | EndpointModel:
    if not spec:
        raise ConfigError("model specification must be a nonempty JSON object")
    build, values = _typed(spec, MODELS, "model")
    return build(values)


@_config_errors
def endpoint_spec(spec: object, name: str) -> dict:
    """A nested endpoint model spec, such as the ``endpoint`` labeler's or a
    judge config, as a ``build_model`` spec: its ``type``, if present, must
    be ``endpoint``."""
    if (kind := checked(spec, "object", name).get("type", "endpoint")) != "endpoint":
        raise ConfigError(f"invalid config value: {name}'s 'type' must be 'endpoint' or absent, got {kind!r}")
    return {**_read(spec, ENDPOINT_KEYS, name), "type": "endpoint"}


EMBEDDED = "embedded"


def _rule_labeler(values: dict) -> RuleLabeler:
    rules = {prop: checked(rx, "string", f"rule {prop!r}") for prop, rx in values["rules"].items()}
    try:
        return RuleLabeler(frozenset(checked_items(values["vocabulary"], "string", "vocabulary")), rules)
    except re.error as err:
        raise ConfigError(f"rule labeler: invalid regex {err.pattern!r}: {err}") from err


def _endpoint_labeler(values: dict) -> EndpointLabeler:
    values["endpoint"] = build_model(endpoint_spec(values["endpoint"], "endpoint"))
    values["vocabulary"] = frozenset(checked_items(values["vocabulary"], "string", "vocabulary"))
    return EndpointLabeler(**values)


# Each labeler type: its keys with their kinds, and its builder.
LABELERS = {
    EMBEDDED: ({"type": "string"}, lambda values: EMBEDDED),
    "rule": ({"type": "string", "vocabulary": "array", "rules": "object"}, _rule_labeler),
    "event": (
        {"type": "string", "entities": "integer", "tagged": "boolean"}, lambda values: AttributeEventLabeler(**values)
    ),
    "endpoint": (
        {"type": "string", "endpoint": "object", "vocabulary": "array", "temperature": "number",
         "max_context_chars": "integer"},
        _endpoint_labeler,
    ),
}


@_config_errors
def build_labeler(spec: Mapping | None) -> LabelingFunction | str:
    """Build the configured labeler; the string ``embedded`` means the
    trace's own ground-truth labels are used."""
    if spec is None:
        return EMBEDDED
    build, values = _typed(spec, LABELERS, "labeler")
    return build(values)
