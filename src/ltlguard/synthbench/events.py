"""Attribute events: vocabulary, natural-language rendering, and labeling.

Each event carries one animal, shape, color, and number; a step describes
one event per entity.  Sentences come from a committed template set
cycled by step index, and the event labeler inverts them by vocabulary
lookup, so labeling is trivial by construction.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from types import MappingProxyType

from ..ltl import TruthAssignment
from ..trace import Memo, StepRecord

CATEGORIES = ("animal", "shape", "color", "number")


@lru_cache(maxsize=1)
def load_vocabulary() -> Mapping[str, tuple]:
    """Each category's values, keyed in ``CATEGORIES`` order; read-only,
    because the one cached mapping is shared by every caller."""
    raw = json.loads(
        resources.files("ltlguard.synthbench").joinpath("vocab.json").read_text("utf-8")
    )
    lo, hi = raw.pop("number_range")
    raw["numbers"] = range(lo, hi + 1)
    return MappingProxyType({category: tuple(raw[f"{category}s"]) for category in CATEGORIES})


def prop_name(entity: int | None, category: str, value: object) -> str:
    base = f"{category}_{value}"
    return base if entity is None else f"e{entity}_{base}"


def article(word: str) -> str:
    """Indefinite article for ``word``."""
    return "an" if word[:1].lower() in "aeiou" else "a"


@dataclass(frozen=True)
class AttributeEvent:
    entity: int
    animal: str
    shape: str
    color: str
    number: int

    def props(self, tagged: bool) -> frozenset[str]:
        entity = self.entity if tagged else None
        return frozenset(prop_name(entity, category, getattr(self, category)) for category in CATEGORIES)


SINGLE_TEMPLATES = (
    "Observed a {color} {shape} (number {number}) alongside a {animal}.",
    "A {color} {shape} marked {number} appeared near a {animal}.",
    "Spotted a {animal} beside a {color} {shape} numbered {number}.",
    "The log shows a {color} {shape} with tag {number} and a {animal} close by.",
)

ENTITY_TEMPLATES = (
    "Entity {entity}: a {color} {shape} (number {number}) beside a {animal}.",
    "Entity {entity}: observed a {color} {shape} numbered {number} and a {animal}.",
)


def render_step(events: Sequence[AttributeEvent], t: int, tagged: bool) -> str:
    if not tagged:
        return SINGLE_TEMPLATES[(t - 1) % len(SINGLE_TEMPLATES)].format_map(vars(events[0]))
    return " ".join(
        ENTITY_TEMPLATES[(t - 1 + event.entity - 1) % len(ENTITY_TEMPLATES)].format_map(vars(event))
        for event in events
    )


_ENTITY_SPLIT = re.compile(r"Entity (\d+):")
_NUMBER = re.compile(r"\b(\d+)\b")


class AttributeEventLabeler:
    """Recovers attribute propositions from rendered step sentences.

    Works by vocabulary lookup (the word lists are pairwise disjoint and
    never collide with template words), so it is deterministic and total;
    sentences mentioning no known value yield no propositions.
    """

    def __init__(self, entities: int = 1, tagged: bool | None = None):
        self.entities = entities
        self.tagged = entities > 1 if tagged is None else tagged
        vocab = load_vocabulary()
        self.vocabulary = frozenset(
            prop_name(entity if self.tagged else None, category, value)
            for entity in range(1, entities + 1)
            for category, values in vocab.items()
            for value in values
        )
        # Labels by output text: a step's labels depend on its output alone.
        # Numbers are found by pattern, the other categories by word lookup.
        words = {category: set(values) for category, values in vocab.items() if category != "number"}
        self._labels = Memo(partial(self._label, self.tagged, words, set(vocab["number"])))

    def __call__(self, steps: Sequence[StepRecord]) -> TruthAssignment:
        return self._labels[steps[-1].output]

    @staticmethod
    def _label(tagged: bool, words: Mapping[str, set[str]], numbers: set[int], text: str) -> TruthAssignment:
        if not tagged:
            return frozenset(_segment_props(words, numbers, None, text))
        props: set[str] = set()
        pieces = _ENTITY_SPLIT.split(text)
        # pieces = [lead, entity#, segment, entity#, segment, ...]
        for i in range(1, len(pieces) - 1, 2):
            props |= _segment_props(words, numbers, int(pieces[i]), pieces[i + 1])
        return frozenset(props)


def _segment_props(words: Mapping[str, set[str]], numbers: set[int], entity: int | None, text: str) -> set[str]:
    found = set(re.findall(r"[A-Za-z]+", text.lower()))
    props: set[str] = set()
    for category, values in words.items():
        for value in found & values:
            props.add(prop_name(entity, category, value))
    for match in _NUMBER.findall(text):
        number = int(match)
        if number in numbers:
            props.add(prop_name(entity, "number", number))
    return props
