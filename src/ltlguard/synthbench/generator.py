"""Seeded generators for synthetic attribute-event benchmark cases.

Every case is built so that its truth value is known at construction:
the target propositions occur exactly at their designated steps (in path
order, the configured gap apart) and nowhere else; distractor draws mask
out all target values.  A satisfied case places the full path; an
unsatisfied case omits the final fulfillment event, which for these
eventuality-shaped formulas leaves the monitor inconclusive forever.

Both families are trees of chained eventualities from one builder: a
simple formula is the depth-0 tree, a complex one the depth-4 tree.  The
non-path branch labels of a complex tree come from a reserved number
pool that the trace can never emit, so each constraint's truth depends
only on its own (pairwise disjoint) path.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace

from ..ltl import And, Eventually, Formula, Next, Or, Prop, parse, render
from ..models import derive_seed
from ..trace import Keys, StepRecord, Trace, read, read_jsonl, step_from_dict, step_to_dict, write_jsonl
from .events import (
    CATEGORIES,
    AttributeEvent,
    article,
    load_vocabulary,
    prop_name,
    render_step,
)

TREE_DEPTH = 4
# Each formula family is the depth of its eventuality tree.
FAMILIES = {"simple": 0, "complex": TREE_DEPTH}
# Each suite's knobs that seed its cases' draws, in seeding order.
SUITES = {
    "elasticity": ("suite", "family", "gap", "seed", "case"),
    "constraint": ("suite", "family", "n", "seed"),
    "proposition": ("suite", "family", "entities", "seed"),
}
# Number values reserved for never-occurring branch alternatives of
# complex formulas; excluded from every event draw.
ALT_POOL_SIZE = 40
DISTRACTOR_FLOOR = 2
DEFAULT_GAP = 10
COMPLEX_GAP_SCHEDULE = {1: 23, 5: 117, 10: 91, 20: 40}


class GenerationError(ValueError):
    """Invalid knobs, exhausted vocabulary, or a malformed case file."""


@dataclass(frozen=True)
class BenchConstraint:
    constraint_id: str
    formula: Formula
    informal: str
    precise: str
    path: tuple[str, ...]
    tree_paths: tuple[tuple[str, ...], ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.constraint_id,
            "formula": render(self.formula, "ascii"),
            "informal": self.informal,
            "precise": self.precise,
            "path": list(self.path),
            "tree_paths": [list(p) for p in self.tree_paths],
        }


@dataclass(frozen=True)
class BenchCase:
    trace: Trace
    constraints: tuple[BenchConstraint, ...]
    truth: tuple[bool, ...]
    knobs: Mapping[str, object]

    def to_dict(self) -> dict:
        return {
            "knobs": dict(sorted(self.knobs.items())),
            "truth": list(self.truth),
            "constraints": [c.to_dict() for c in self.constraints],
            "trace": {
                "metadata": dict(self.trace.metadata),
                "steps": [step_to_dict(s) for s in self.trace.steps],
            },
        }


CASE_KEYS = Keys(required={"knobs": "object", "truth": "boolean[]", "constraints": "array", "trace": "object"})
CONSTRAINT_KEYS = Keys(
    required={"id": "string", "formula": "string", "informal": "string", "precise": "string", "path": "string[]"},
    optional={"tree_paths": "string[][]"},
)
TRACE_KEYS = Keys(required={"steps": "array"}, optional={"metadata": "object"})
# The knobs a generator writes; a case may carry others.
KNOB_KEYS = Keys(optional={
    "suite": "string", "family": "string", "gap": "integer", "n": "integer", "entities": "integer",
    "length": "integer", "seed": "integer", "case": "integer",
})


def case_from_dict(obj: object) -> BenchCase:
    """Decode one case of a bench file.  A malformed one raises
    ``ShapeError``, a wrong value another ``ValueError``."""
    case = read(obj, CASE_KEYS, "case")
    constraints = tuple(
        BenchConstraint(
            c["id"], parse(c["formula"]), c["informal"], c["precise"], tuple(c["path"]),
            tuple(map(tuple, c.get("tree_paths", ()))),
        )
        for c in (read(c, CONSTRAINT_KEYS, "constraint") for c in case["constraints"])
    )
    if not constraints:
        raise GenerationError("a case needs at least one constraint")
    if len(case["truth"]) != len(constraints):
        raise GenerationError("'truth' must be an array of booleans, one per constraint")
    trace = read(case["trace"], TRACE_KEYS, "trace")
    # A step without labels carries the empty set: bench traces are fully labeled.
    steps = tuple(
        step if step.labels is not None else replace(step, labels=frozenset())
        for step in map(step_from_dict, trace["steps"])
    )
    read(case["knobs"], KNOB_KEYS, "knobs")
    return BenchCase(Trace(steps, trace.get("metadata", {})), constraints, tuple(case["truth"]), case["knobs"])


def save_cases(cases: Sequence[BenchCase], path) -> None:
    write_jsonl((case.to_dict() for case in cases), path)


def load_cases(path) -> list[BenchCase]:
    cases = []
    for n, obj in read_jsonl(path):
        try:
            cases.append(case_from_dict(obj))
        except ValueError as err:
            raise GenerationError(f"{path}: line {n}: {err}") from err
    if not cases:
        raise GenerationError(f"{path}: bench file has no cases")
    return cases


@dataclass
class _Pools:
    """Per-(entity, category) value pools for path assignment and distractors."""

    available: dict[tuple[int, str], list]
    alt_values: list[int]

    def capacity(self, key: tuple[int, str]) -> int:
        return len(self.available[key]) - DISTRACTOR_FLOOR

    def draw_path_value(self, rng: random.Random, keys: Sequence[tuple[int, str]]):
        # Never empty: ``_build_case`` checks the total capacity first.
        weighted = [(key, self.capacity(key)) for key in keys if self.capacity(key) > 0]
        total = sum(w for _, w in weighted)
        roll = rng.randrange(total)
        acc = 0
        for key, weight in weighted:
            acc += weight
            if roll < acc:
                pool = self.available[key]
                return key, pool.pop(rng.randrange(len(pool)))
        raise AssertionError("unreachable")

    def distractor(self, rng: random.Random, key: tuple[int, str]):
        pool = self.available[key]
        return pool[rng.randrange(len(pool))]


def _make_pools(entities: int, depth: int) -> _Pools:
    """A family of branching trees (``depth`` above 0) reserves the last
    ``ALT_POOL_SIZE`` numbers for its branch alternatives; no event draws them."""
    vocab = load_vocabulary()
    split = len(vocab["number"]) - (ALT_POOL_SIZE if depth else 0)
    emittable = {**vocab, "number": vocab["number"][:split]}
    available = {
        (entity, category): list(values) for entity in range(1, entities + 1) for category, values in emittable.items()
    }
    return _Pools(available=available, alt_values=list(vocab["number"][split:]))


def build_tree_formula(
    path_props: Sequence[str],
    alternatives: Iterator[str],
    rng: random.Random,
    depth: int = TREE_DEPTH,
) -> tuple[Formula, tuple[tuple[str, ...], ...]]:
    """Binary tree of chained eventualities; returns it with all its
    root-to-leaf label paths.  ``path_props`` labels one root-to-leaf
    path (placed on a random branch at each level) plus the shared leaf.
    """
    leaf = path_props[-1]

    def node(level: int, on_path: bool) -> tuple[Formula, list[tuple[str, ...]]]:
        label = path_props[level] if on_path else next(alternatives)
        if level == depth:
            return And(Prop(label), Next(Eventually(Prop(leaf)))), [(label, leaf)]
        path_side = rng.randrange(2) if on_path else 0
        children = []
        paths: list[tuple[str, ...]] = []
        for side in range(2):
            child, child_paths = node(level + 1, on_path and side == path_side)
            children.append(child)
            paths.extend((label, *p) for p in child_paths)
        return And(Prop(label), Next(Eventually(Or(children[0], children[1])))), paths

    root, paths = node(0, True)
    return Eventually(root), tuple(paths)


def _describe(prop: str) -> str:
    parts = prop.split("_")
    entity = None
    if parts[0].startswith("e") and parts[0][1:].isdigit():
        entity = int(parts[0][1:])
        parts = parts[1:]
    category, value = parts[0], "_".join(parts[1:])
    owner = f"Entity {entity}'s " if entity is not None else "the "
    if category == "number":
        return f"{owner}number is {value}"
    return f"{owner}{category} is {article(value)} {value}" if category != "color" else f"{owner}color is {value}"


def tree_wording(paths: Sequence[Sequence[str]], describe: Callable[[str], str]) -> str:
    """Nested wording of one ``build_tree_formula`` tree (or subtree) from
    its root-to-leaf label paths in order; ``describe`` words one label."""
    text = describe(paths[0][0])
    if len(paths[0]) == 1:
        return text
    rest = [path[1:] for path in paths]
    return f"{text}, and then at some strictly later time step, {branches_wording(rest, describe)}"


def branches_wording(paths: Sequence[Sequence[str]], describe: Callable[[str], str]) -> str:
    """Wording of the subtrees below one tree node, from their paths.  Below
    the last level that is the shared leaf alone; above it, two subtrees of
    one half of the paths each, split by position so that equal sibling
    labels still read as two branches."""
    if len(paths) == 1:
        return tree_wording(paths, describe)
    half = len(paths) // 2
    return (
        f"either: ({tree_wording(paths[:half], describe)}) "
        f"or ({tree_wording(paths[half:], describe)})"
    )


def _informal(paths: Sequence[Sequence[str]]) -> str:
    first, leaf = (_describe(prop) for prop in (paths[0][0], paths[0][-1]))
    if len(paths) == 1:
        return f"Eventually {first}, and then eventually {leaf}."
    b1, b2 = (_describe(prop) for prop in dict.fromkeys(path[1] for path in paths))
    return (
        f"At some point {first}, followed by either {b1} or "
        f"{b2}, branching further until finally {leaf}."
    )


def _place_positions(
    rng: random.Random,
    occupied: set[int],
    count: int,
    gap: int,
    length: int,
) -> list[int]:
    """A seeded start for ``count`` events ``gap`` apart on free steps; a
    trace whose free starts 10,000 tries all miss counts as too full."""
    span = (count - 1) * gap
    latest_start = length - span
    if latest_start < 1:
        raise GenerationError(
            f"trace length {length} cannot accommodate {count} events {gap} steps apart"
        )
    for _ in range(10000):
        start = rng.randint(1, latest_start)
        positions = [start + i * gap for i in range(count)]
        if not occupied.intersection(positions):
            occupied.update(positions)
            return positions
    raise GenerationError("could not place designated events without collisions")


def _build_case(knobs: Mapping[str, object], truths: Sequence[bool] | None = None) -> BenchCase:
    """The case that ``knobs`` describe: its ``family`` and ``gap``, ``n``
    constraints and ``entities`` per step (each 1 when absent), and its
    ``length`` (when absent, the path's own span plus a seeded margin).
    The knobs that ``SUITES`` names for the case's suite seed every draw."""
    family, gap = knobs["family"], knobs["gap"]
    n_constraints, entities = knobs.get("n", 1), knobs.get("entities", 1)
    if family not in FAMILIES:
        raise GenerationError(f"unknown formula family {family!r}")
    if gap < 1:
        raise GenerationError(f"gap must be >= 1, got {gap}")
    rng = random.Random(f"synthbench:{derive_seed(*(knobs[k] for k in SUITES[knobs['suite']]))}")
    tagged = knobs["suite"] == "proposition"
    depth = FAMILIES[family]
    path_len = depth + 2
    pools = _make_pools(entities, depth)

    total_capacity = sum(max(0, pools.capacity(k)) for k in pools.available)
    if n_constraints * path_len > total_capacity:
        raise GenerationError(
            f"{n_constraints} {family} constraints need {n_constraints * path_len} "
            f"target values; vocabulary provides {total_capacity}"
        )

    if truths is None:
        truth = tuple(rng.random() < 0.5 for _ in range(n_constraints))
    else:
        truth = tuple(truths)

    keys = sorted(pools.available)
    constraint_slots = [[pools.draw_path_value(rng, keys) for _ in range(path_len)] for _ in range(n_constraints)]

    constraints: list[BenchConstraint] = []
    for index, slots in enumerate(constraint_slots):
        path_props = tuple(
            prop_name(key[0] if tagged else None, key[1], value) for key, value in slots
        )
        needed = 2 ** (depth + 1) - 2 - depth  # off-path node count; none at depth 0
        alt_values = rng.sample(pools.alt_values, needed)
        entity_for = (
            (lambda: rng.randint(1, entities)) if tagged else (lambda: None)
        )
        alternatives = iter(
            [prop_name(entity_for(), "number", v) for v in alt_values]
        )
        formula, paths = build_tree_formula(path_props, alternatives, rng, depth)
        constraints.append(
            BenchConstraint(
                constraint_id=f"c{index + 1}",
                formula=formula,
                informal=_informal(paths),
                precise=f"At some time step, {tree_wording(paths, _describe)}.",
                path=path_props,
                tree_paths=paths if depth else (),
            )
        )

    # Designate event positions; satisfied cases place the full path,
    # unsatisfied ones omit the final fulfillment event.  Only the
    # single-constraint elasticity cases leave the length to the generator.
    length = knobs.get("length")
    if length is None:
        start = rng.randint(1, 6)
        tail = rng.randint(0, 5)
        length = start + (path_len - 1) * gap + tail
        positions_by_constraint = [
            [start + i * gap for i in range(path_len)]
        ]
    else:
        occupied: set[int] = set()
        positions_by_constraint = [
            _place_positions(rng, occupied, path_len, gap, length)
            for _ in range(n_constraints)
        ]

    designated: dict[int, tuple[tuple[int, str], object]] = {}
    for slots, positions, satisfied in zip(constraint_slots, positions_by_constraint, truth):
        placed = slots if satisfied else slots[:-1]
        for slot, position in zip(placed, positions):
            designated[position] = slot

    steps = []
    for t in range(1, length + 1):
        events = []
        for entity in range(1, entities + 1):
            slot = designated.get(t)
            fixed = {slot[0][1]: slot[1]} if slot is not None and slot[0][0] == entity else {}
            attributes = {
                category: fixed.get(category, pools.distractor(rng, (entity, category)))
                for category in CATEGORIES
            }
            events.append(AttributeEvent(entity=entity, **attributes))
        labels = frozenset().union(*(event.props(tagged) for event in events))
        steps.append(
            StepRecord(t=t, input="", output=render_step(events, t, tagged), labels=labels)
        )

    trace = Trace(tuple(steps), metadata=dict(knobs))
    return BenchCase(trace=trace, constraints=tuple(constraints), truth=truth, knobs=knobs)


def gen_elasticity(gap: int | None, family: str, seed: int, count: int) -> list[BenchCase]:
    """Balanced batch of single-constraint cases with the fulfillment event
    exactly ``gap`` steps after the trigger; trace length grows with the gap."""
    gap = DEFAULT_GAP if gap is None else gap
    if not 1 <= gap <= 1000:
        raise GenerationError(f"gap must be in [1, 1000], got {gap}")
    return [
        _build_case(
            {"suite": "elasticity", "family": family, "gap": gap, "seed": seed, "case": i},
            truths=(i % 2 == 0,),
        )
        for i in range(count)
    ]


def gen_constraint_scaling(
    n: int,
    family: str,
    seed: int,
    gap: int | None = None,
    length: int | None = None,
) -> BenchCase:
    """One case with ``n`` constraints over disjoint target propositions,
    each independently satisfied with probability one half."""
    if not 1 <= n <= 20:
        raise GenerationError(f"constraint count must be in [1, 20], got {n}")
    if family == "simple":
        gap = DEFAULT_GAP if gap is None else gap
        length = 500 if length is None else length
    else:
        if gap is None:
            eligible = [k for k in sorted(COMPLEX_GAP_SCHEDULE) if k <= n]
            gap = COMPLEX_GAP_SCHEDULE[eligible[-1]]
        length = 1000 if length is None else length
    return _build_case(
        {"suite": "constraint", "family": family, "n": n, "gap": gap, "length": length, "seed": seed}
    )


def gen_proposition_scaling(
    entities: int,
    family: str,
    seed: int,
    length: int = 100,
    gap: int | None = None,
) -> BenchCase:
    """One entity-tagged case; the constraint targets specific entities'
    attributes while the other entities act as distractors."""
    gap = DEFAULT_GAP if gap is None else gap
    if entities < 1:
        raise GenerationError(f"entities must be >= 1, got {entities}")
    return _build_case(
        {"suite": "proposition", "family": family, "entities": entities, "gap": gap, "length": length, "seed": seed}
    )


def extract_embedded_path(
    paths: Sequence[Sequence[str]], label_sets: Sequence[frozenset[str]]
) -> tuple[str, ...] | None:
    """First tree path embeddable in strictly increasing label positions."""
    for path in paths:
        position = -1
        for prop in path:
            position = next(
                (i for i in range(position + 1, len(label_sets)) if prop in label_sets[i]),
                -2,
            )
            if position == -2:
                break
        if position != -2:
            return tuple(path)
    return None
