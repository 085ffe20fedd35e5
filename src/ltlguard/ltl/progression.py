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
    both as states of this automaton.  The automaton is a Moore machine: a
    node's propositions are set when it is built and a state's verdict when
    it is registered.  A state's transitions found so far are keyed by the
    step's labels restricted to its propositions, each to the successor and
    its verdict; a step is one lookup and a miss progresses the residual
    once.  The automaton keeps every node it built alive, which keeps the
    identities in its keys unique and makes ``rendered``, its memo of
    ascii renderings by node identity, sound.  It lives as long as its
    owner: one ``run_monitor`` call or guarded session.
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
            props[id(node)] = props[id(children[0])].union(*(props[id(c)] for c in children[1:]))
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
        # Dispatches on the exact class, as ``_progress`` does.
        kind = type(phi)
        if kind is Prop:
            node = self._nodes.setdefault((Prop, phi.name), phi)
            self._props[id(node)] = frozenset((phi.name,))
            return node
        if kind is And:
            return self._and(self._normalize(phi.left), self._normalize(phi.right))
        if kind is Or:
            return self._or(self._normalize(phi.left), self._normalize(phi.right))
        if kind is Not:
            return self._not(self._normalize(phi.child))
        if kind is Next or kind is Eventually or kind is Always:
            return self._temporal(kind, self._normalize(phi.child))
        if kind is Until:
            return self._temporal(Until, self._normalize(phi.left), self._normalize(phi.right))
        if kind is Implies:
            left, right = self._normalize(phi.left), self._normalize(phi.right)
            if left is TRUE:
                return right
            if left is FALSE:
                return TRUE
            return self._node(Implies, left, right)
        if kind is TrueBool:
            return TRUE
        if kind is FalseBool:
            return FALSE
        raise TypeError(f"not a formula: {phi!r}")

    def _register(self, phi: Formula) -> tuple:
        state = self._states.get(id(phi))
        if state is None:
            state = self._states[id(phi)] = (self._props[id(phi)], {}, (phi, verdict_of(phi)))
        return state

    def normalize(self, phi: Formula) -> Formula:
        """``simplify(phi)`` as a state of this automaton; ``phi`` may be any formula."""
        return self._register(self._normalize(phi))[2][0]

    def transition(self, phi: Formula, labels: TruthAssignment) -> tuple[Formula, Verdict]:
        """``simplify(progress(phi, labels))`` as a state of this automaton, and its verdict."""
        # Every formula this automaton returns is a state, so a lookup by
        # identity misses only on formulas from elsewhere.
        state = self._states.get(id(phi))
        if state is None:
            state = self._register(self._normalize(phi))
        key = state[0] & labels
        successor = state[1].get(key)
        if successor is None:
            successor = state[1][key] = self._register(self._progress(state[2][0], key))[2]
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
    if isinstance(phi, FalseBool):
        return Verdict.VIOLATED
    if isinstance(phi, TrueBool):
        return Verdict.SATISFIED
    return Verdict.INCONCLUSIVE
