"""Attribute events: vocabulary, natural-language rendering, and labeling.

Each event carries one animal, shape, color, and number; a step describes
one event per entity.  Sentences come from a committed template set
cycled by step index, and the event labeler inverts them by vocabulary
lookup, so labeling is trivial by construction.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from ..ltl import TruthAssignment
from ..trace import StepRecord

CATEGORIES = ("animal", "shape", "color", "number")


@dataclass(frozen=True)
class Vocabulary:
    animals: tuple[str, ...]
    shapes: tuple[str, ...]
    colors: tuple[str, ...]
    numbers: tuple[int, ...]


@lru_cache(maxsize=1)
def load_vocabulary() -> Vocabulary:
    raw = json.loads(
        resources.files("ltlguard.synthbench").joinpath("vocab.json").read_text("utf-8")
    )
    lo, hi = raw["number_range"]
    return Vocabulary(
        animals=tuple(raw["animals"]),
        shapes=tuple(raw["shapes"]),
        colors=tuple(raw["colors"]),
        numbers=tuple(range(lo, hi + 1)),
    )


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
        return frozenset(
            {
                prop_name(entity, "animal", self.animal),
                prop_name(entity, "shape", self.shape),
                prop_name(entity, "color", self.color),
                prop_name(entity, "number", self.number),
            }
        )


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
        event = events[0]
        template = SINGLE_TEMPLATES[(t - 1) % len(SINGLE_TEMPLATES)]
        return template.format(
            color=event.color, shape=event.shape, number=event.number, animal=event.animal
        )
    parts = []
    for event in events:
        template = ENTITY_TEMPLATES[(t - 1 + event.entity - 1) % len(ENTITY_TEMPLATES)]
        parts.append(
            template.format(
                entity=event.entity,
                color=event.color,
                shape=event.shape,
                number=event.number,
                animal=event.animal,
            )
        )
    return " ".join(parts)


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
        self._by_category = {
            "animal": set(vocab.animals),
            "shape": set(vocab.shapes),
            "color": set(vocab.colors),
        }
        self._numbers = set(vocab.numbers)
        props: set[str] = set()
        for entity in range(1, entities + 1):
            ent = entity if self.tagged else None
            for category in ("animal", "shape", "color"):
                for value in self._by_category[category]:
                    props.add(prop_name(ent, category, value))
            for value in vocab.numbers:
                props.add(prop_name(ent, "number", value))
        self.vocabulary = frozenset(props)

    def _segment_props(self, entity: int | None, text: str) -> set[str]:
        words = set(re.findall(r"[A-Za-z]+", text.lower()))
        props: set[str] = set()
        for category, values in self._by_category.items():
            for value in words & values:
                props.add(prop_name(entity, category, value))
        for match in _NUMBER.findall(text):
            number = int(match)
            if number in self._numbers:
                props.add(prop_name(entity, "number", number))
        return props

    def __call__(self, steps: Sequence[StepRecord]) -> TruthAssignment:
        text = steps[-1].output
        if not self.tagged:
            return frozenset(self._segment_props(None, text))
        props: set[str] = set()
        pieces = _ENTITY_SPLIT.split(text)
        # pieces = [lead, entity#, segment, entity#, segment, ...]
        for i in range(1, len(pieces) - 1, 2):
            props |= self._segment_props(int(pieces[i]), pieces[i + 1])
        return frozenset(props)
