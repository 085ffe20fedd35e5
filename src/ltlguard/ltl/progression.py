"""Formula progression, syntactic simplification, and verdict extraction.

``progress`` rewrites a formula against one truth assignment into the
requirement on the rest of the trace.  It is total and returns the raw
rewrite; callers compose with ``simplify`` to reach the ``true``/``false``
literals that terminal verdicts are read from.  These two are the
reference semantics.  ``ProgressionCache`` computes the same composition
on hash-consed nodes, normalizing as it builds instead of in a second
pass, and memoizes it as a residual automaton.
"""

from __future__ import annotations

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


def progress(phi: Formula, sigma: TruthAssignment) -> Formula:
    """One progression step of ``phi`` under the truth assignment ``sigma``."""
    match phi:
        case TrueBool():
            return TRUE
        case FalseBool():
            return FALSE
        case Prop(name):
            return TRUE if name in sigma else FALSE
        case Not(child):
            return Not(progress(child, sigma))
        case And(left, right):
            return And(progress(left, sigma), progress(right, sigma))
        case Or(left, right):
            return Or(progress(left, sigma), progress(right, sigma))
        case Implies(left, right):
            # Progressed through its boolean definition; the Implies node
            # itself survives only inside the untouched temporal operands.
            return Or(Not(progress(left, sigma)), progress(right, sigma))
        case Next(child):
            return child
        case Until(left, right):
            return Or(progress(right, sigma), And(progress(left, sigma), phi))
        case Eventually(child):
            return Or(progress(child, sigma), phi)
        case Always(child):
            return And(progress(child, sigma), phi)
    raise TypeError(f"not a formula: {phi!r}")


def _flatten(kind: type, phi: Formula, out: list[Formula]) -> None:
    if isinstance(phi, kind):
        _flatten(kind, phi.left, out)  # type: ignore[attr-defined]
        _flatten(kind, phi.right, out)  # type: ignore[attr-defined]
    else:
        out.append(phi)


def _rebuild(kind: type, children: list[Formula]) -> Formula:
    node = children[-1]
    for child in reversed(children[:-1]):
        node = kind(child, node)
    return node


def _simplify_connective(
    kind: type, unit: Formula, zero: Formula, left: Formula, right: Formula
) -> Formula:
    # Flatten same-kind chains, drop units and duplicates, short-circuit on
    # the absorbing element.  Children arrive already simplified.
    flat: list[Formula] = []
    _flatten(kind, left, flat)
    _flatten(kind, right, flat)
    children: list[Formula] = []
    for child in flat:
        if child == zero:
            return zero
        if child == unit or child in children:
            continue
        children.append(child)
    if not children:
        return unit
    return _rebuild(kind, children)


def simplify(phi: Formula) -> Formula:
    """Apply the syntactic reduction rules to a fixed point.

    Purely structural: boolean identities, double negation, duplicate
    absorption under ``&``/``|``, and the temporal unit laws: ``X``, ``F``
    and ``G`` of ``true`` or ``false`` is that constant, ``φ U true`` is
    ``true`` and ``false U ψ`` is ``ψ``.  No semantic reasoning.
    """
    match phi:
        case TrueBool() | FalseBool() | Prop():
            return phi
        case Not(child):
            child = simplify(child)
            if child == TRUE:
                return FALSE
            if child == FALSE:
                return TRUE
            if isinstance(child, Not):
                return child.child
            return Not(child)
        case And(left, right):
            return _simplify_connective(And, TRUE, FALSE, simplify(left), simplify(right))
        case Or(left, right):
            return _simplify_connective(Or, FALSE, TRUE, simplify(left), simplify(right))
        case Implies(left, right):
            left, right = simplify(left), simplify(right)
            if left == TRUE:
                return right
            if left == FALSE:
                return TRUE
            return Implies(left, right)
        case Next(child):
            child = simplify(child)
            return child if isinstance(child, (TrueBool, FalseBool)) else Next(child)
        case Until(left, right):
            left, right = simplify(left), simplify(right)
            return right if isinstance(right, TrueBool) or isinstance(left, FalseBool) else Until(left, right)
        case Eventually(child):
            child = simplify(child)
            return child if isinstance(child, (TrueBool, FalseBool)) else Eventually(child)
        case Always(child):
            child = simplify(child)
            return child if isinstance(child, (TrueBool, FalseBool)) else Always(child)
    raise TypeError(f"not a formula: {phi!r}")


def _operands(kind: type, phi: Formula) -> list[Formula]:
    # Normal-form chains are right-nested and no left operand is itself of
    # the chain's kind, so walking the right spine flattens them.
    out = []
    while type(phi) is kind:
        out.append(phi.left)  # type: ignore[attr-defined]
        phi = phi.right  # type: ignore[attr-defined]
    out.append(phi)
    return out


class ProgressionCache:
    """The residual automaton of one monitored run, on hash-consed nodes.

    Each node is built once per automaton, keyed by its class and the
    identities of its children (a proposition by its name), so equal
    nodes of one automaton are the same object.  The constructors apply
    the ``simplify`` rules as they build: flatten same-kind chains, drop
    units and duplicates, short-circuit on the absorbing element, collapse
    double negation.  Hence ``normalize(phi)`` is ``simplify(phi)`` and
    ``progress_simplify(phi, sigma)`` is ``simplify(progress(phi, sigma))``,
    both as states of this automaton.  A state keeps the propositions it
    reads and its transitions found so far, keyed by the step's labels
    restricted to those propositions; a step is one lookup and a miss
    progresses the residual once.  The automaton keeps every node it built
    alive, which keeps the identities in its keys unique, and lives as long
    as its owner: one ``run_monitor`` call or guarded session.
    """

    __slots__ = ("_nodes", "_props", "_states")

    def __init__(self) -> None:
        self._nodes: dict[tuple, Formula] = {}
        self._props: dict[int, frozenset[str]] = {}  # id(node) -> props_of(node)
        # id(state) -> (its props, its transitions)
        self._states: dict[int, tuple[frozenset[str], dict[frozenset[str], Formula]]] = {}

    def _node(self, cls: type, *children: Formula) -> Formula:
        key = (cls, *map(id, children))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(*children)
        return node

    def _temporal(self, cls: type, *children: Formula) -> Formula:
        # The temporal unit laws: X, F and G of a constant and φ U true are
        # that constant, and false U ψ is ψ.
        if children[-1] is TRUE or children[0] is FALSE:
            return children[-1]
        return self._node(cls, *children)

    def _not(self, child: Formula) -> Formula:
        if child is TRUE:
            return FALSE
        if child is FALSE:
            return TRUE
        if type(child) is Not:
            return child.child
        return self._node(Not, child)

    def _and(self, left: Formula, right: Formula) -> Formula:
        return self._connective(And, TRUE, FALSE, left, right)

    def _or(self, left: Formula, right: Formula) -> Formula:
        return self._connective(Or, FALSE, TRUE, left, right)

    def _connective(
        self, kind: type, unit: Formula, zero: Formula, left: Formula, right: Formula
    ) -> Formula:
        # Both operands are normal: their chain operands are distinct and
        # neither unit nor zero, so only the operands themselves and
        # duplicates across the two chains need checking.
        if left is zero or right is zero:
            return zero
        if left is unit or left is right:
            return right
        if right is unit:
            return left
        children = _operands(kind, left)
        seen = set(map(id, children))
        children.extend(c for c in _operands(kind, right) if id(c) not in seen)
        node = children[-1]
        for child in reversed(children[:-1]):
            node = self._node(kind, child, node)
        return node

    def _normalize(self, phi: Formula) -> Formula:
        match phi:
            case TrueBool():
                return TRUE
            case FalseBool():
                return FALSE
            case Prop(name):
                return self._nodes.setdefault((Prop, name), phi)
            case Not(child):
                return self._not(self._normalize(child))
            case And(left, right):
                return self._and(self._normalize(left), self._normalize(right))
            case Or(left, right):
                return self._or(self._normalize(left), self._normalize(right))
            case Implies(left, right):
                left, right = self._normalize(left), self._normalize(right)
                if left is TRUE:
                    return right
                if left is FALSE:
                    return TRUE
                return self._node(Implies, left, right)
            case Next(child) | Eventually(child) | Always(child):
                return self._temporal(type(phi), self._normalize(child))
            case Until(left, right):
                return self._temporal(Until, self._normalize(left), self._normalize(right))
        raise TypeError(f"not a formula: {phi!r}")

    def props(self, phi: Formula) -> frozenset[str]:
        """``props_of(phi)`` for a node ``phi`` of this automaton, memoized per node."""
        found = self._props.get(id(phi))
        if found is None:
            match phi:
                case Prop(name):
                    found = frozenset((name,))
                case Not(child) | Next(child) | Eventually(child) | Always(child):
                    found = self.props(child)
                case And(left, right) | Or(left, right) | Implies(left, right) | Until(
                    left, right
                ):
                    found = self.props(left) | self.props(right)
                case _:
                    found = frozenset()
            self._props[id(phi)] = found
        return found

    def _register(self, phi: Formula) -> Formula:
        if id(phi) not in self._states:
            self._states[id(phi)] = (self.props(phi), {})
        return phi

    def normalize(self, phi: Formula) -> Formula:
        """``simplify(phi)`` as a state of this automaton; ``phi`` may be any formula."""
        return self._register(self._normalize(phi))

    def progress_simplify(self, phi: Formula, labels: TruthAssignment) -> Formula:
        """``simplify(progress(phi, labels))`` as a state of this automaton."""
        # Every formula this automaton returns is a state, so a lookup by
        # identity misses only on formulas from elsewhere.
        state = self._states.get(id(phi))
        if state is None:
            phi = self.normalize(phi)
            state = self._states[id(phi)]
        props, transitions = state
        key = props & labels
        successor = transitions.get(key)
        if successor is None:
            successor = transitions[key] = self._register(self._progress(phi, key))
        return successor

    def _progress(self, phi: Formula, sigma: TruthAssignment) -> Formula:
        # The transition table's miss: progress a node of this automaton
        # through the normalizing constructors, each shared subformula once.
        done: dict[int, Formula] = {}
        not_, and_, or_ = self._not, self._and, self._or

        def go(f: Formula) -> Formula:
            result = done.get(id(f))
            if result is not None:
                return result
            match f:
                case TrueBool() | FalseBool():
                    result = f
                case Prop(name):
                    result = TRUE if name in sigma else FALSE
                case Not(child):
                    result = not_(go(child))
                case And(left, right):
                    result = and_(go(left), go(right))
                case Or(left, right):
                    result = or_(go(left), go(right))
                case Implies(left, right):
                    result = or_(not_(go(left)), go(right))
                case Next(child):
                    result = child
                case Until(left, right):
                    result = or_(go(right), and_(go(left), f))
                case Eventually(child):
                    result = or_(go(child), f)
                case Always(child):
                    result = and_(go(child), f)
                case _:
                    raise TypeError(f"not a formula: {f!r}")
            done[id(f)] = result
            return result

        return go(phi)


def verdict_of(phi: Formula) -> Verdict:
    """Three-valued verdict of an already-simplified residual formula."""
    if isinstance(phi, FalseBool):
        return Verdict.VIOLATED
    if isinstance(phi, TrueBool):
        return Verdict.SATISFIED
    return Verdict.INCONCLUSIVE
