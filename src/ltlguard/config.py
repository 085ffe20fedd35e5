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
from dataclasses import dataclass
from pathlib import Path

from .intervention import InterventionPolicy
from .ltl import Formula, ParseError, parse
from .models import EndpointLabeler, EndpointModel, RuleLabeler, ScriptedModel
from .synthbench import AttributeEventLabeler
from .trace import LabelingFunction


class ConfigError(ValueError):
    """Invalid configuration document."""


def _config_errors(build):
    """Re-raise a missing key or a wrongly typed value as ``ConfigError``."""

    @functools.wraps(build)
    def checked(*args):
        try:
            return build(*args)
        except ConfigError:
            raise
        except KeyError as err:
            raise ConfigError(f"config is missing field {err}") from err
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(f"invalid config value: {err}") from err

    return checked


@dataclass
class Config:
    constraints: dict[str, Formula]
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


def _integer(spec: Mapping, key: str, default: int) -> int:
    """``spec[key]``, or ``default`` when absent; a bool or any other non-integer is rejected."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value: object, name: str) -> float:
    """``value`` as a float if it is an integer or a float; a bool or anything else is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


@_config_errors
def load_config(path: str | Path) -> Config:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, Mapping):
        raise ConfigError("config must be a JSON object")

    entries = raw.get("constraints")
    if not entries or not isinstance(entries, list):
        raise ConfigError("config needs a nonempty 'constraints' array")
    constraints: dict[str, Formula] = {}
    glosses: dict[str, str] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping) or "id" not in entry or "formula" not in entry:
            raise ConfigError(f"constraint #{i + 1} needs 'id' and 'formula' fields")
        cid = entry["id"]
        if not isinstance(cid, str):
            raise ConfigError(f"constraint #{i + 1}: 'id' must be a string")
        if cid in constraints:
            raise ConfigError(f"duplicate constraint id {cid!r}")
        try:
            constraints[cid] = parse(entry["formula"])
        except ParseError as err:
            raise ConfigError(f"constraint {cid!r}: {err}") from err
        gloss = entry.get("gloss", "")
        if not isinstance(gloss, str):
            raise ConfigError(
                f"invalid config value: constraint {cid!r}: gloss must be a string, got {gloss!r}"
            )
        if gloss:
            glosses[cid] = gloss

    policy_raw = dict(raw.get("policy", {}))
    template_path = policy_raw.pop("template_path", None)
    substitute_spec = policy_raw.pop("substitute_model", None) or raw.get("substitute_model")
    if template_path:
        try:
            policy_raw["inject_template"] = Path(template_path).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read inject template: {err}") from err
    policy = InterventionPolicy(**policy_raw)

    for key, default in (("initial_input", ""), ("stop_token", "DONE")):
        if not isinstance(raw.get(key, default), str):
            raise ConfigError(f"invalid config value: {key} must be a string, got {raw[key]!r}")
    # The session ends on the config's stop token, so a script must emit that one.
    stop_token, model_spec = raw.get("stop_token", "DONE"), raw.get("model")
    if isinstance(model_spec, Mapping) and model_spec.get("type") == "scripted":
        if (script_stop := model_spec.get("stop_token", "DONE")) != stop_token:
            raise ConfigError(
                f"invalid config value: the scripted model's stop_token {script_stop!r}"
                f" differs from {stop_token!r}"
            )
    mode = raw.get("mode", "reset")
    if mode not in ("plain", "reset"):
        raise ConfigError(f"mode must be 'plain' or 'reset', got {mode!r}")

    return Config(
        constraints=constraints,
        glosses=glosses,
        labeler_spec=raw.get("labeler"),
        model_spec=model_spec,
        substitute_spec=substitute_spec,
        policy=policy,
        mode=mode,
        seed=_integer(raw, "seed", 0),
        initial_input=raw.get("initial_input", ""),
        stop_token=stop_token,
        action_temperature=_number(raw.get("action_temperature", 0.2), "action_temperature"),
        sampling_temperature=_number(raw.get("sampling_temperature", 0.8), "sampling_temperature"),
    )


@_config_errors
def build_model(spec: Mapping | None) -> ScriptedModel | EndpointModel:
    if not spec or not isinstance(spec, Mapping):
        raise ConfigError("model specification must be a nonempty JSON object")
    kind = spec.get("type")
    if kind == "scripted":
        if "outputs" in spec:
            outputs = tuple(spec["outputs"])
            if not all(isinstance(output, str) for output in outputs):
                raise ConfigError("scripted model outputs must be strings")
            return ScriptedModel(outputs=outputs, stop_token=spec.get("stop_token", "DONE"))
        if "distributions" in spec:
            distributions = tuple(
                tuple((text, _number(weight, "a distribution weight")) for text, weight in dist)
                for dist in spec["distributions"]
            )
            for dist in distributions:
                for text, _ in dist:
                    if not isinstance(text, str):
                        raise TypeError(f"a distribution text must be a string, got {text!r}")
            return ScriptedModel(
                distributions=distributions, stop_token=spec.get("stop_token", "DONE")
            )
        raise ConfigError("scripted model needs 'outputs' or 'distributions'")
    if kind == "endpoint":
        return EndpointModel(
            base_url=spec["base_url"],
            model=spec["model"],
            api_key_env=spec.get("api_key_env", "LTLGUARD_API_KEY"),
            system_prompt=spec.get("system_prompt"),
            max_tokens=spec.get("max_tokens"),
            timeout=spec.get("timeout", 60.0),
            retries=spec.get("retries", 3),
            backoff=spec.get("backoff", 1.0),
            audit_log_path=spec.get("audit_log_path"),
        )
    raise ConfigError(f"unknown model type {kind!r}")


EMBEDDED = "embedded"


@_config_errors
def build_labeler(spec: Mapping | None) -> LabelingFunction | str:
    """Build the configured labeler; the string ``embedded`` means the
    trace's own ground-truth labels are used."""
    if spec is not None and not isinstance(spec, Mapping):
        raise ConfigError("labeler specification must be a JSON object")
    if spec is None or spec.get("type") == "embedded":
        return EMBEDDED
    kind = spec.get("type")
    if kind == "rule":
        try:
            return RuleLabeler(
                vocabulary=frozenset(spec["vocabulary"]),
                rules=dict(spec["rules"]),
            )
        except re.error as err:
            raise ConfigError(f"rule labeler: invalid regex {err.pattern!r}: {err}") from err
    if kind == "event":
        if not isinstance(spec.get("tagged", False), bool):
            raise TypeError(f"tagged must be a boolean, got {spec['tagged']!r}")
        return AttributeEventLabeler(
            entities=_integer(spec, "entities", 1),
            tagged=spec.get("tagged"),
        )
    if kind == "endpoint":
        return EndpointLabeler(
            endpoint=build_model({"type": "endpoint", **spec["endpoint"]}),
            vocabulary=frozenset(spec["vocabulary"]),
            temperature=_number(spec.get("temperature", 0.0), "temperature"),
            max_context_chars=_integer(spec, "max_context_chars", 8000),
        )
    raise ConfigError(f"unknown labeler type {kind!r}")
