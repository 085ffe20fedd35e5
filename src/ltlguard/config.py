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
from .trace import Keys, LabelingFunction, ShapeError, checked, read


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
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{name} is not valid JSON: {err}") from err


# Each section's keys, each with its JSON kind as ``trace.checked`` names it;
# a trailing ``?`` also allows null.  An absent optional key takes the default
# of the class its section builds.  Each model and labeler type's keys are
# declared beside its builder, in ``MODELS`` and ``LABELERS``.
KEYS = Keys(optional={
    "constraints": "array", "labeler": "object?", "model": "object?", "substitute_model": "object?",
    "policy": "object", "mode": "string", "seed": "integer", "initial_input": "string",
    "stop_token": "string", "action_temperature": "number", "sampling_temperature": "number",
})
CONSTRAINT_KEYS = Keys(required={"id": "string", "formula": "string"}, optional={"gloss": "string"})
POLICY_KEYS = Keys(optional={
    "strategy": "string", "tau": "number", "n": "integer", "k": "integer", "m": "integer",
    "pattern": "string", "inject_template": "string?", "template_path": "string?",
    "substitute_model": "object?",
})
ENDPOINT_KEYS = Keys(
    required={"base_url": "string", "model": "string"},
    optional={
        "type": "string", "api_key_env": "string", "system_prompt": "string?", "max_tokens": "integer?",
        "timeout": "number", "retries": "integer", "backoff": "number", "audit_log_path": "string?",
    },
)


def _read(spec: object, keys: Keys, section: str, prefix: str = "") -> dict:
    """``trace.read`` of ``spec`` once it is an object whose every key is
    one of ``keys``."""
    if unknown := sorted(checked(spec, "object", section).keys() - keys):
        raise ConfigError(f"unknown {section} key(s): {', '.join(map(repr, unknown))}")
    return read(spec, keys, section, prefix)


def _typed(spec: Mapping, table: Mapping[str, tuple], section: str) -> tuple:
    """A model or labeler spec's builder, and its values but its ``type``,
    once the type is one of ``table``'s and the spec reads through that
    type's keys."""
    if "type" not in spec:
        raise ShapeError(f"{section} is missing field 'type'")
    kind = spec["type"]
    if type(kind) is not str or kind not in table:
        raise ConfigError(f"unknown {section} type {kind!r}")
    keys, build = table[kind]
    values = _read(spec, keys, f"{kind} {section}")
    del values["type"]
    return build, values


def _model(spec: Mapping, section: str) -> tuple:
    """``_typed`` of a model spec.  A scripted model is also built, so its
    script is checked item by item wherever the config is read, and a
    config that ``audit`` accepts is one ``guard`` can run."""
    build, values = _typed(spec, MODELS, section)
    if build is _scripted_model:
        build(dict(values))
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

    def __post_init__(self) -> None:
        if self.mode not in ("plain", "reset"):
            raise ConfigError(f"mode must be 'plain' or 'reset', got {self.mode!r}")


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
        if not template_path:
            raise ValueError("template_path must name a file, got ''")
        if policy.get("inject_template") is not None:
            raise ConfigError("policy sets both 'inject_template' and 'template_path'; set at most one")
        try:
            policy["inject_template"] = Path(template_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read inject template {template_path}: {err}") from err
    # The session's run settings are written at the top level and kept on the policy.
    run = {key: raw.pop(key) for key in ("stop_token", "action_temperature", "sampling_temperature") if key in raw}
    policy = InterventionPolicy(**policy, **run)
    for spec, section in ((substitute_spec, "policy.substitute_model"), (top_substitute, "substitute_model")):
        if spec is not None:
            _model(spec, section)

    # The session ends on the config's stop token, so a script must emit that one.
    if (model_spec := raw.pop("model", None)) is not None:
        build, values = _model(model_spec, "model")
        script_stop = values.get("stop_token", ScriptedModel.stop_token)
        if build is _scripted_model and script_stop != policy.stop_token:
            raise ConfigError(
                f"invalid config value: the scripted model's stop_token {script_stop!r}"
                f" differs from {policy.stop_token!r}"
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
    pairs = checked(dist, "array[]", "a distribution")
    if odd := [pair for pair in pairs if len(pair) != 2]:
        raise ValueError(f"a distribution item must be a [text, weight] pair, got {odd[0]!r}")
    return tuple(
        (checked(text, "string", "a distribution text"), float(checked(weight, "number", "a distribution weight")))
        for text, weight in pairs
    )


def _scripted_model(values: dict) -> ScriptedModel:
    if "outputs" in values:
        values["outputs"] = tuple(checked(values["outputs"], "string[]", "outputs"))
    elif "distributions" in values:
        values["distributions"] = tuple(map(_distribution, values["distributions"]))
    else:
        raise ConfigError("scripted model needs 'outputs' or 'distributions'")
    return ScriptedModel(**values)


# Each model type: its keys with their kinds, and its builder.
MODELS = {
    "scripted": (
        Keys(optional={"type": "string", "outputs": "array", "distributions": "array", "stop_token": "string"}),
        _scripted_model,
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
        return RuleLabeler(frozenset(checked(values["vocabulary"], "string[]", "vocabulary")), rules)
    except re.error as err:
        raise ConfigError(f"rule labeler: invalid regex {err.pattern!r}: {err}") from err


def _endpoint_labeler(values: dict) -> EndpointLabeler:
    values["endpoint"] = build_model(endpoint_spec(values["endpoint"], "endpoint"))
    values["vocabulary"] = frozenset(checked(values["vocabulary"], "string[]", "vocabulary"))
    return EndpointLabeler(**values)


# Each labeler type: its keys with their kinds, and its builder.
LABELERS = {
    EMBEDDED: (Keys(optional={"type": "string"}), lambda values: EMBEDDED),
    "rule": (Keys(required={"vocabulary": "array", "rules": "object"}, optional={"type": "string"}), _rule_labeler),
    "event": (
        Keys(optional={"type": "string", "entities": "integer", "tagged": "boolean"}),
        lambda values: AttributeEventLabeler(**values),
    ),
    "endpoint": (
        Keys(
            required={"endpoint": "object", "vocabulary": "array"},
            optional={"type": "string", "temperature": "number", "max_context_chars": "integer"},
        ),
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
