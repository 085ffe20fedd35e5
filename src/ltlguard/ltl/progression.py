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
    # Dispatch on the exact class: a chain of class tests is cheaper than
    # class patterns, and this is the oracle's whole per-node cost.
    kind = type(phi)
    if kind is Prop:
        return TRUE if phi.name in sigma else FALSE
    if kind is And:
        return And(progress(phi.left, sigma), progress(phi.right, sigma))
    if kind is Or:
        return Or(progress(phi.left, sigma), progress(phi.right, sigma))
    if kind is Always:
        return And(progress(phi.child, sigma), phi)
    if kind is Eventually:
        return Or(progress(phi.child, sigma), phi)
    if kind is Until:
        return Or(progress(phi.right, sigma), And(progress(phi.left, sigma), phi))
    if kind is Next:
        return phi.child
    if kind is Not:
        return Not(progress(phi.child, sigma))
    if kind is Implies:
        # Progressed through its boolean definition; the Implies node
        # itself survives only inside the untouched temporal operands.
        return Or(Not(progress(phi.left, sigma)), progress(phi.right, sigma))
    if kind is TrueBool:
        return TRUE
    if kind is FalseBool:
        return FALSE
    raise TypeError(f"not a formula: {phi!r}")


def _flatten(kind: type, phi: Formula, out: list[Formula]) -> None:
    # Simplified chains are right-nested and no left operand is itself of
    # the chain's kind, so walking the right spine flattens them in order.
    while type(phi) is kind:
        out.append(phi.left)  # type: ignore[attr-defined]
        phi = phi.right  # type: ignore[attr-defined]
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
    # the absorbing element.  Children arrive already simplified.  Any
    # instance of a constant's class is that constant, as under ``==``;
    # duplicates are found by structural ``==``, since reference nodes are
    # fresh objects.
    unit_kind, zero_kind = type(unit), type(zero)
    flat: list[Formula] = []
    _flatten(kind, left, flat)
    _flatten(kind, right, flat)
    children: list[Formula] = []
    for child in flat:
        child_kind = type(child)
        if child_kind is zero_kind:
            return zero
        if child_kind is unit_kind or child in children:
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
    # Dispatch on the exact class, and test constants by class: any
    # ``TrueBool``/``FalseBool`` instance is that constant.
    kind = type(phi)
    if kind is And:
        return _simplify_connective(And, TRUE, FALSE, simplify(phi.left), simplify(phi.right))
    if kind is Or:
        return _simplify_connective(Or, FALSE, TRUE, simplify(phi.left), simplify(phi.right))
    if kind is Prop or kind is TrueBool or kind is FalseBool:
        return phi
    if kind is Always or kind is Eventually or kind is Next:
        child = simplify(phi.child)
        child_kind = type(child)
        return child if child_kind is TrueBool or child_kind is FalseBool else kind(child)
    if kind is Not:
        child = simplify(phi.child)
        child_kind = type(child)
        if child_kind is TrueBool:
            return FALSE
        if child_kind is FalseBool:
            return TRUE
        if child_kind is Not:
            return child.child
        return Not(child)
    if kind is Until:
        left, right = simplify(phi.left), simplify(phi.right)
        return right if type(right) is TrueBool or type(left) is FalseBool else Until(left, right)
    if kind is Implies:
        left, right = simplify(phi.left), simplify(phi.right)
        left_kind = type(left)
        if left_kind is TrueBool:
            return right
        if left_kind is FalseBool:
            return TRUE
        return Implies(left, right)
    raise TypeError(f"not a formula: {phi!r}")


# Each composite node class's children, in field order.
_FIELDS = {cls: cls.__match_args__ for cls in (Not, And, Or, Implies, Next, Until, Eventually, Always)}


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
    double negation; ``build`` is one such step, over normal children, and
    the parser builds a formula through it.  Hence ``normalize(phi)`` is
    ``simplify(phi)`` and ``progress_simplify(phi, sigma)`` is
    ``simplify(progress(phi, sigma))``, both as states of this automaton.
    The automaton is a Moore machine: a
    node's propositions are set when it is built and a state's verdict when
    it is registered.  A state's transitions found so far are keyed by the
    step's labels restricted to its propositions, each to the successor and
    its verdict; a step is one lookup and a miss progresses the residual
    once.  The automaton keeps every node it built alive, which keeps the
    identities in its keys unique and makes ``rendered``, its memo of
    ascii renderings by node identity, sound.  It lives as long as its
    owner: a loaded config, one ``run_monitor`` call or a guarded session.
    """

    __slots__ = ("_nodes", "_props", "_states", "rendered")

    def __init__(self) -> None:
        self._nodes: dict[tuple, Formula] = {}
        self._props: dict[int, frozenset[str]] = {id(TRUE): frozenset(), id(FALSE): frozenset()}
        # id(state) -> (its props, its transitions, (state, its verdict)); a
        # transition maps projected labels to the successor's last entry.
        self._states: dict[int, tuple[frozenset[str], dict, tuple[Formula, Verdict]]] = {}
        self.rendered: dict[int, str] = {}  # id(node) -> render(node, "ascii")

    def _node(self, cls: type, *children: Formula) -> Formula:
        key = (cls, *map(id, children))
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(*children)
            props = self._props
            own = props[id(children[0])]
            if len(children) == 2:
                own = own | props[id(children[1])]
            props[id(node)] = own
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
        if type(left) is not kind and type(right) is not kind:
            return self._node(kind, left, right)  # two distinct single operands
        children = _operands(kind, left)
        seen = set(map(id, children))
        children.extend(c for c in _operands(kind, right) if id(c) not in seen)
        node = children[-1]
        for child in reversed(children[:-1]):
            node = self._node(kind, child, node)
        return node

    def build(self, cls: type, *children: Formula | str) -> Formula:
        """The node ``cls(*children)`` of this automaton's normal ``children``,
        normalized: one step of ``simplify``, with no walk of the children.
        A proposition's one child is its name."""
        # Dispatches on the exact class, as ``_progress`` does.
        if cls is And:
            return self._and(*children)
        if cls is Or:
            return self._or(*children)
        if cls is Not:
            return self._not(*children)
        if cls is Prop:
            (name,) = children
            node = self._nodes.get((Prop, name))
            if node is None:
                node = self._nodes[(Prop, name)] = Prop(name)
                self._props[id(node)] = frozenset(children)
            return node
        if cls is Next or cls is Eventually or cls is Always or cls is Until:
            return self._temporal(cls, *children)
        if cls is Implies:
            left, right = children
            if left is TRUE:
                return right
            if left is FALSE:
                return TRUE
            return self._node(Implies, left, right)
        raise TypeError(f"not a formula class: {cls!r}")

    def _normalize(self, phi: Formula) -> Formula:
        kind = type(phi)
        if kind is Prop:
            return self.build(Prop, phi.name)
        if kind is TrueBool:
            return TRUE
        if kind is FalseBool:
            return FALSE
        if kind not in _FIELDS:
            raise TypeError(f"not a formula: {phi!r}")
        return self.build(kind, *[self._normalize(getattr(phi, name)) for name in _FIELDS[kind]])

    def _state(self, phi: Formula) -> tuple:
        # A formula this automaton built (every node is kept alive, so its
        # identity is unique) is already normal; any other is normalized.
        state = self._states.get(id(phi))
        if state is None:
            node = phi if id(phi) in self._props else self._normalize(phi)
            state = self._states.get(id(node))
            if state is None:
                state = self._states[id(node)] = (self._props[id(node)], {}, (node, verdict_of(node)))
        return state

    def normalize(self, phi: Formula) -> Formula:
        """``simplify(phi)`` as a state of this automaton; ``phi`` may be any
        formula, and a state of this automaton is one lookup."""
        return self._state(phi)[2][0]

    def props(self, phi: Formula) -> frozenset[str]:
        """The propositions of ``normalize(phi)``: all a step of it can read."""
        return self._state(phi)[0]

    def transition(self, phi: Formula, labels: TruthAssignment) -> tuple[Formula, Verdict]:
        """``simplify(progress(phi, labels))`` as a state of this automaton, and its verdict."""
        # Every formula this automaton returns is a state, so a lookup by
        # identity misses only on formulas from elsewhere.
        state = self._states.get(id(phi))
        if state is None:
            state = self._state(phi)
        key = state[0] & labels
        successor = state[1].get(key)
        if successor is None:
            successor = state[1][key] = self._state(self._progress(state[2][0], key))[2]
        return successor

    def progress_simplify(self, phi: Formula, labels: TruthAssignment) -> Formula:
        """The successor of ``transition`` alone."""
        return self.transition(phi, labels)[0]

    def _progress(self, phi: Formula, sigma: TruthAssignment) -> Formula:
        # The transition table's miss: progress a node of this automaton
        # through the normalizing constructors, each shared subformula once.
        done: dict[int, Formula] = {}
        not_, and_, or_ = self._not, self._and, self._or

        def go(f: Formula) -> Formula:
            result = done.get(id(f))
            if result is not None:
                return result
            # Dispatch on the exact class: every node here was built by
            # this automaton, and a chain of class tests is cheaper than
            # class patterns on the miss path.
            kind = type(f)
            if kind is Prop:
                result = TRUE if f.name in sigma else FALSE
            elif kind is And:
                result = and_(go(f.left), go(f.right))
            elif kind is Or:
                result = or_(go(f.left), go(f.right))
            elif kind is Always:
                result = and_(go(f.child), f)
            elif kind is Eventually:
                result = or_(go(f.child), f)
            elif kind is Until:
                result = or_(go(f.right), and_(go(f.left), f))
            elif kind is Next:
                result = f.child
            elif kind is Not:
                result = not_(go(f.child))
            elif kind is Implies:
                result = or_(not_(go(f.left)), go(f.right))
            elif f is TRUE or f is FALSE:
                result = f
            else:
                raise TypeError(f"not a formula: {f!r}")
            done[id(f)] = result
            return result

        try:
            return go(phi)
        finally:
            # ``go`` refers to itself through its closure; breaking that cycle
            # lets reference counting free the automaton with its owner.
            del go


def verdict_of(phi: Formula) -> Verdict:
    """Three-valued verdict of an already-simplified residual formula."""
    kind = type(phi)
    if kind is FalseBool:
        return Verdict.VIOLATED
    if kind is TrueBool:
        return Verdict.SATISFIED
    return Verdict.INCONCLUSIVE
