"""Formula progression, syntactic simplification, and verdict extraction.

``progress`` rewrites a formula against one truth assignment into the
requirement on the rest of the trace.  It is total and returns the raw
rewrite; callers compose with ``simplify`` to reach the ``true``/``false``
literals that terminal verdicts are read from.  These two are the
reference semantics.  ``simplify`` returns every node no rule changes as
itself, so a step that keeps a residual returns it as itself, or as an
equal copy where ``progress`` rebuilt a ``&``, ``|`` or ``!`` above it.
``ProgressionCache`` computes the same composition on hash-consed nodes,
normalizing as it builds instead of in a second pass, and memoizes it as
a residual automaton.
"""

from __future__ import annotations

from .ast import (
    FALSE,
    TRUE,
    And,
    Always,
    Eventually,
    Formula,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    TruthAssignment,
    Until,
    Verdict,
)
from .parser import parse
from .render import render


def progress(phi: Formula, sigma: TruthAssignment) -> Formula:
    """One progression step of ``phi`` under the truth assignment ``sigma``."""
    # Dispatch on the exact class: a chain of class tests is cheaper than
    # class patterns, and this is the oracle's whole per-node cost.
    kind = type(phi)
    if kind is Prop:
        return TRUE if phi.name in sigma else FALSE
    if kind is And or kind is Or:  # along the spine: a chain's width adds no depth
        operands = _operands(kind, phi)
        node = progress(operands.pop(), sigma)
        for operand in reversed(operands):
            node = kind(progress(operand, sigma), node)
        return node
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
    if phi is TRUE or phi is FALSE:
        return phi
    raise TypeError(f"not a formula: {phi!r}")


def simplify(phi: Formula) -> Formula:
    """Apply the syntactic reduction rules to a fixed point.

    Purely structural: boolean identities, double negation, duplicate
    absorption under ``&``/``|``, and the temporal unit laws: ``X``, ``F``
    and ``G`` of ``true`` or ``false`` is that constant, ``φ U true`` is
    ``true`` and ``false U ψ`` is ``ψ``.  No semantic reasoning.
    """
    # Dispatch on the exact class; a constant is its one instance.
    kind = type(phi)
    if kind is And or kind is Or:
        # One pass over the chain's operands, in this frame so that a chain
        # nests no deeper than its node: simplify each, flatten one that
        # comes back as a chain of this kind, drop units and repeats (by
        # ``in``: identity, then ``==``), and short-circuit on the absorbing
        # element.  Only a changed, dropped or flattened operand rebuilds
        # the chain, right-nested.
        unit, zero = (TRUE, FALSE) if kind is And else (FALSE, TRUE)
        kept: list[Formula] = []
        changed = False
        for operand in _operands(kind, phi):
            child = simplify(operand)
            changed = changed or child is not operand or type(child) is kind
            for part in _operands(kind, child):
                if part is zero:
                    return zero
                if part is unit or part in kept:
                    changed = True
                else:
                    kept.append(part)
        if not changed:
            return phi
        node = kept.pop() if kept else unit
        for child in reversed(kept):
            node = kind(child, node)
        return node
    if kind is Prop or phi is TRUE or phi is FALSE:
        return phi
    if kind is Always or kind is Eventually or kind is Next:
        child = simplify(phi.child)
        if child is TRUE or child is FALSE:
            return child
        return phi if child is phi.child else kind(child)
    if kind is Not:
        child = simplify(phi.child)
        if child is TRUE:
            return FALSE
        if child is FALSE:
            return TRUE
        if type(child) is Not:
            return child.child
        return phi if child is phi.child else Not(child)
    if kind is Until:
        left, right = simplify(phi.left), simplify(phi.right)
        if right is TRUE or left is FALSE:
            return right
        return phi if left is phi.left and right is phi.right else Until(left, right)
    if kind is Implies:
        left, right = simplify(phi.left), simplify(phi.right)
        if left is TRUE:
            return right
        if left is FALSE:
            return TRUE
        return phi if left is phi.left and right is phi.right else Implies(left, right)
    raise TypeError(f"not a formula: {phi!r}")


def _operands(kind: type, phi: Formula) -> list[Formula]:
    # The operands along ``phi``'s right spine of ``kind``; normal-form and
    # simplified chains have no left operand of that kind, so it flattens them.
    out = []
    while type(phi) is kind:
        out.append(phi.left)  # type: ignore[attr-defined]
        phi = phi.right  # type: ignore[attr-defined]
    out.append(phi)
    return out


class ProgressionCache:
    """The residual automaton of one monitored run, on hash-consed nodes.

    Each node is built once per automaton, keyed by its class and the
    identities of its children (a proposition by its name), so equal nodes of
    one automaton are the same object.  The constructors apply the
    ``simplify`` rules as they build: flatten same-kind chains, drop units and
    duplicates, short-circuit on the absorbing element, collapse double
    negation; ``build`` is one such step, over normal children, and the
    parser, the automaton's only door, builds a formula through it: a formula
    from elsewhere is parsed in from its ascii rendering.  Hence
    ``normalize(phi)`` is ``simplify(phi)`` and ``progress_simplify(phi,
    sigma)`` is ``simplify(progress(phi, sigma))``, both as states of this
    automaton.  The automaton is a Moore machine: a state's names, a superset
    of the propositions its step can read, and its verdict are set when it is
    registered; a node keeps no data of its own.  A state's transitions found
    so far are keyed by the step's labels restricted to its names, each to the
    successor and its verdict; a step is one lookup and a miss progresses the
    residual once.  The automaton keeps every node it built alive, which keeps
    the identities in its keys unique and makes ``rendered``, its memo of
    ascii renderings by node identity, sound.  It lives as long as its owner:
    a loaded config, one ``run_monitor`` call or a guarded session.
    """

    __slots__ = ("_nodes", "_states", "rendered")

    def __init__(self) -> None:
        self._nodes: dict[tuple, Formula] = {}
        # id(state) -> (its names, its transitions, (state, its verdict)); a
        # transition maps labels restricted to the names to the successor's
        # last entry.
        self._states: dict[int, tuple[frozenset[str], dict, tuple[Formula, Verdict]]] = {}
        self.rendered: dict[int, str] = {}  # id(node) -> render(node, "ascii")
        self._state(TRUE, frozenset())
        self._state(FALSE, frozenset())

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

    def _state(self, phi: Formula, names: frozenset[str] | None = None) -> tuple:
        # A state keeps a superset of the names its step can read: ``names``,
        # given with a node of this automaton (those its text was written
        # with, or its predecessor's, as progression adds none).  A formula
        # from elsewhere enters through the parser, from its ascii rendering,
        # of which the parser is the exact inverse.
        state = self._states.get(id(phi))
        if state is None:
            if names is None:
                return self._states[id(parse(render(phi), self))]
            state = self._states[id(phi)] = (names, {}, (phi, verdict_of(phi)))
        return state

    def normalize(self, phi: Formula) -> Formula:
        """``simplify(phi)`` as a state of this automaton; ``phi`` may be any
        formula, and a state of this automaton is one lookup.  Any other
        formula costs a render and a parse into this automaton."""
        return self._state(phi)[2][0]

    def props(self, phi: Formula) -> frozenset[str]:
        """A superset of the propositions of ``normalize(phi)``, which are all
        a step of it can read: the names of the text it was first parsed
        from (a formula from elsewhere, its rendering), or those of the
        state it was first reached from."""
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
            successor = state[1][key] = self._state(self._progress(state[2][0], key), state[0])[2]
        return successor

    def progress_simplify(self, phi: Formula, labels: TruthAssignment) -> Formula:
        """The successor of ``transition`` alone."""
        return self.transition(phi, labels)[0]

    def _progress(self, phi: Formula, sigma: TruthAssignment) -> Formula:
        # The transition table's miss: progress a node of this automaton
        # through the normalizing constructors, children before parents on
        # an explicit stack and each shared subformula once.  An ``X``
        # operand is the successor as it is, so the walk never enters one.
        done: dict[int, Formula] = {}
        not_, and_, or_ = self._not, self._and, self._or
        stack: list[tuple[Formula, bool]] = [(phi, False)]
        while stack:
            f, expanded = stack.pop()
            # Dispatch on the exact class: every node here was built by
            # this automaton, and a chain of class tests is cheaper than
            # class patterns on the miss path.
            kind = type(f)
            if expanded:
                if kind is And:
                    result = and_(done[id(f.left)], done[id(f.right)])
                elif kind is Or:
                    result = or_(done[id(f.left)], done[id(f.right)])
                elif kind is Always:
                    result = and_(done[id(f.child)], f)
                elif kind is Eventually:
                    result = or_(done[id(f.child)], f)
                elif kind is Until:
                    result = or_(done[id(f.right)], and_(done[id(f.left)], f))
                elif kind is Not:
                    result = not_(done[id(f.child)])
                else:  # Implies
                    result = or_(not_(done[id(f.left)]), done[id(f.right)])
            elif id(f) in done:
                continue
            elif kind is Prop:
                result = TRUE if f.name in sigma else FALSE
            elif kind is Next:
                result = f.child
            elif kind is And or kind is Or or kind is Until or kind is Implies:
                stack += ((f, True), (f.right, False), (f.left, False))
                continue
            elif kind is Always or kind is Eventually or kind is Not:
                stack += ((f, True), (f.child, False))
                continue
            elif f is TRUE or f is FALSE:
                result = f
            else:
                raise TypeError(f"not a formula: {f!r}")
            done[id(f)] = result
        return done[id(phi)]


def verdict_of(phi: Formula) -> Verdict:
    """Three-valued verdict of an already-simplified residual formula."""
    if phi is FALSE:
        return Verdict.VIOLATED
    if phi is TRUE:
        return Verdict.SATISFIED
    return Verdict.INCONCLUSIVE
