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
from ..trace import (
    StepRecord, Trace, checked, checked_items, read_jsonl, step_from_dict, step_to_dict, write_jsonl
)
from .events import (
    CATEGORIES,
    AttributeEvent,
    article,
    load_vocabulary,
    prop_name,
    render_step,
)

TREE_DEPTH = 4
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


def case_from_dict(obj: Mapping, line_no: int) -> BenchCase:
    """Decode one case of a bench file; ``line_no`` is its line, for errors.
    A value of the wrong JSON type raises ``TypeError``."""
    obj = checked(obj, "object", "a case")
    constraints = tuple(
        BenchConstraint(
            constraint_id=checked(c["id"], "string", "id"),
            formula=parse(checked(c["formula"], "string", "formula")),
            informal=checked(c["informal"], "string", "informal"),
            precise=checked(c["precise"], "string", "precise"),
            path=tuple(checked_items(c["path"], "string", "path")),
            tree_paths=tuple(
                tuple(checked_items(p, "string", "a tree path"))
                for p in checked(c.get("tree_paths", []), "array", "tree_paths")
            ),
        )
        for c in checked_items(obj["constraints"], "object", "constraints")
    )
    truth = checked_items(obj["truth"], "boolean", "truth")
    if not constraints:
        raise GenerationError(f"line {line_no}: a case needs at least one constraint")
    if len(truth) != len(constraints):
        raise GenerationError(f"line {line_no}: 'truth' must be an array of booleans, one per constraint")
    trace = checked(obj["trace"], "object", "trace")
    # A step without labels carries the empty set: bench traces are fully labeled.
    steps = tuple(
        step if step.labels is not None else replace(step, labels=frozenset())
        for step in (step_from_dict(s, line_no) for s in checked(trace["steps"], "array", "steps"))
    )
    return BenchCase(
        trace=Trace(steps, checked(trace.get("metadata", {}), "object", "metadata")),
        constraints=constraints,
        truth=tuple(truth),
        knobs=checked(obj["knobs"], "object", "knobs"),
    )


def save_cases(cases: Sequence[BenchCase], path) -> None:
    write_jsonl((case.to_dict() for case in cases), path)


def load_cases(path) -> list[BenchCase]:
    cases = []
    for n, obj in read_jsonl(path):
        try:
            cases.append(case_from_dict(obj, n))
        except (KeyError, TypeError) as err:
            raise GenerationError(f"{path}: line {n}: malformed case: {err!r}") from err
    return cases


@dataclass
class _Pools:
    """Per-(entity, category) value pools for path assignment and distractors."""

    available: dict[tuple[int, str], list]
    alt_values: list[int]

    def capacity(self, key: tuple[int, str]) -> int:
        return len(self.available[key]) - DISTRACTOR_FLOOR

    def draw_path_value(self, rng: random.Random, keys: Sequence[tuple[int, str]]):
        weighted = [(key, self.capacity(key)) for key in keys if self.capacity(key) > 0]
        if not weighted:
            raise GenerationError("vocabulary exhausted: too many target propositions")
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


def _make_pools(entities: int, family: str) -> _Pools:
    vocab = load_vocabulary()
    numbers = list(vocab.numbers)
    if family == "complex":
        alt_values = numbers[-ALT_POOL_SIZE:]
        emittable_numbers = numbers[:-ALT_POOL_SIZE]
    else:
        alt_values = []
        emittable_numbers = numbers
    available: dict[tuple[int, str], list] = {}
    for entity in range(1, entities + 1):
        available[(entity, "animal")] = list(vocab.animals)
        available[(entity, "shape")] = list(vocab.shapes)
        available[(entity, "color")] = list(vocab.colors)
        available[(entity, "number")] = list(emittable_numbers)
    return _Pools(available=available, alt_values=alt_values)


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
    for start in range(1, latest_start + 1):
        positions = [start + i * gap for i in range(count)]
        if not occupied.intersection(positions):
            occupied.update(positions)
            return positions
    raise GenerationError("could not place designated events without collisions")


def _build_case(
    *,
    family: str,
    n_constraints: int,
    entities: int,
    gap: int,
    seed_material: tuple,
    knobs: Mapping[str, object],
    truths: Sequence[bool] | None = None,
    length: int | None = None,
    tagged: bool | None = None,
) -> BenchCase:
    if family not in ("simple", "complex"):
        raise GenerationError(f"unknown formula family {family!r}")
    if gap < 1:
        raise GenerationError(f"gap must be >= 1, got {gap}")
    rng = random.Random(f"synthbench:{derive_seed(*seed_material)}")
    tagged = entities > 1 if tagged is None else tagged
    depth = 0 if family == "simple" else TREE_DEPTH
    path_len = depth + 2
    pools = _make_pools(entities, family)

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
    constraint_slots: list[list[tuple[tuple[int, str], object]]] = []
    for _ in range(n_constraints):
        slots = [pools.draw_path_value(rng, keys) for _ in range(path_len)]
        constraint_slots.append(slots)

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
            fixed: dict[str, object] = {}
            slot = designated.get(t)
            if slot is not None and slot[0][0] == entity:
                fixed[slot[0][1]] = slot[1]
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
    cases = []
    for i in range(count):
        satisfied = i % 2 == 0
        knobs = {
            "suite": "elasticity",
            "family": family,
            "gap": gap,
            "seed": seed,
            "case": i,
        }
        cases.append(
            _build_case(
                family=family,
                n_constraints=1,
                entities=1,
                gap=gap,
                seed_material=("elasticity", family, gap, seed, i),
                knobs=knobs,
                truths=(satisfied,),
            )
        )
    return cases


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
    knobs = {
        "suite": "constraint",
        "family": family,
        "n": n,
        "gap": gap,
        "length": length,
        "seed": seed,
    }
    return _build_case(
        family=family,
        n_constraints=n,
        entities=1,
        gap=gap,
        seed_material=("constraint", family, n, seed),
        knobs=knobs,
        length=length,
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
    knobs = {
        "suite": "proposition",
        "family": family,
        "entities": entities,
        "gap": gap,
        "length": length,
        "seed": seed,
    }
    return _build_case(
        family=family,
        n_constraints=1,
        entities=entities,
        gap=gap,
        seed_material=("proposition", family, entities, seed),
        knobs=knobs,
        length=length,
        tagged=True,
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
