"""Query automaton — compile forward sub-queries into one DFA.

Following Green et al. (ICDT'03) — the construction the paper cites for
its states Q — every forward-only path query becomes an NFA over
element names, all queries are unioned, and the union is determinised
by subset construction.  The resulting DFA is the finite-control of the
pushdown transducer: start tags drive DFA transitions (pushing the
previous state), end tags pop.

NFA positions are ``(sub_id, steps_matched)``:

* a ``child`` step advances on its name test;
* a ``descendant`` step additionally self-loops on *any* tag (the
  ``(.)*`` of the regex view);
* position ``len(steps)`` is the accept position of the sub-query.

The DFA alphabet is the set of concrete names appearing in any query
plus a reserved OTHER symbol: all tags not mentioned by any query are
indistinguishable to every name test, so one transition entry covers
them all.  This keeps the transition tables proportional to query size,
not document vocabulary.

The number of DFA states grows with the number and complexity of
merged queries — this is precisely the effect that makes the
PP-Transducer baseline enumerate ever more execution paths (Figure 2 of
the paper), so the construction is shared verbatim by the baseline and
by GAP.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Axis, Path, WILDCARD, XPathError

__all__ = ["QueryAutomaton", "build_automaton", "minimize_automaton", "AutomatonTooLarge"]

#: reserved alphabet symbol standing for "any tag not named by a query"
OTHER = "\0other"

#: hard cap on DFA size — a guard rail, far above what the benchmarks need
MAX_DFA_STATES = 500_000


class AutomatonTooLarge(RuntimeError):
    """Raised when subset construction exceeds :data:`MAX_DFA_STATES`."""


@dataclass(slots=True)
class QueryAutomaton:
    """The determinised query automaton (the PDT's finite control).

    Attributes
    ----------
    initial:
        DFA start state (the state of the transducer before the
        document element).
    transitions:
        ``transitions[state]`` maps a concrete tag name to the next
        state; tags absent from the dict use ``other[state]``.
    other:
        Next state for any tag outside :attr:`alphabet`.
    accepts:
        ``accepts[state]`` is the sorted tuple of sub-query ids whose
        accept position is contained in the state (the sub-queries that
        *match* when this state is entered at a start tag).
    alphabet:
        Concrete tag names the automaton distinguishes.
    dead:
        The state with no live NFA positions, or ``-1`` if unreachable.
        It is the "state 0" of the paper's running example: the state
        that merely tracks unrelated structure.
    """

    initial: int
    transitions: list[dict[str, int]]
    other: list[int]
    accepts: list[tuple[int, ...]]
    alphabet: frozenset[str]
    dead: int

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def step(self, state: int, tag: str) -> int:
        """The DFA move for a start tag."""
        nxt = self.transitions[state].get(tag)
        if nxt is None:
            return self.other[state]
        return nxt

    def all_states(self) -> range:
        return range(len(self.transitions))

    def fa_pop_candidates(self, tag: str) -> frozenset[int]:
        """FA-only restriction of pop-divergence candidates (Ogden'13).

        States that could have been pushed under an open ``<tag>``
        judged from the automaton alone: every state whose ``tag``
        transition makes progress, *plus* the dead/unrelated state (an
        unrelated ``<tag>`` can appear anywhere) — the inclusion the
        paper notes makes this restriction weak (footnote 2).
        """
        out = {q for q in range(len(self.transitions)) if self.step(q, tag) != self.dead}
        if self.dead >= 0:
            out.add(self.dead)
        return frozenset(out)

    def stats(self) -> dict[str, int]:
        """Size summary used in benchmark reports."""
        return {
            "states": self.n_states,
            "alphabet": len(self.alphabet),
            "accepting_states": sum(1 for a in self.accepts if a),
        }


def minimize_automaton(automaton: QueryAutomaton) -> QueryAutomaton:
    """Moore partition refinement: the equivalent minimal DFA.

    States are initially partitioned by their accept tuples (two states
    emitting different matches can never merge) and refined until every
    block is closed under every alphabet symbol (plus OTHER).

    Minimisation is sound for the pushdown transducer semantics: the
    stack only ever holds states that are later *restored verbatim* by
    pops, so replacing every state with its equivalence-class
    representative preserves all transitions, accepts and therefore all
    emitted events.  No engine applies it: the workloads' merged
    automata are already minimal (EXPERIMENTS.md records this negative
    result), and the tests that call it here pin that.
    """
    n = automaton.n_states
    symbols = sorted(automaton.alphabet)

    # initial partition: by accept signature
    block_of = {}
    signature_to_block: dict[tuple[int, ...], int] = {}
    for q in range(n):
        sig = automaton.accepts[q]
        block = signature_to_block.setdefault(sig, len(signature_to_block))
        block_of[q] = block

    while True:
        # refine: states whose successors fall in different blocks split
        refined: dict[tuple, int] = {}
        new_block_of = {}
        for q in range(n):
            key = (
                block_of[q],
                tuple(block_of[automaton.step(q, s)] for s in symbols),
                block_of[automaton.other[q]],
            )
            new_block_of[q] = refined.setdefault(key, len(refined))
        if len(refined) == len(signature_to_block):
            break
        signature_to_block = refined  # only its size matters
        block_of = new_block_of

    n_blocks = len(signature_to_block)
    if n_blocks == n:
        return automaton

    # representative per block, in block order
    rep: list[int] = [-1] * n_blocks
    for q in range(n):
        b = block_of[q]
        if rep[b] == -1:
            rep[b] = q
    transitions: list[dict[str, int]] = []
    other: list[int] = []
    accepts: list[tuple[int, ...]] = []
    for b in range(n_blocks):
        q = rep[b]
        other_target = block_of[automaton.other[q]]
        row = {}
        for s in symbols:
            target = block_of[automaton.step(q, s)]
            if target != other_target:
                row[s] = target
        transitions.append(row)
        other.append(other_target)
        accepts.append(automaton.accepts[q])
    return QueryAutomaton(
        initial=block_of[automaton.initial],
        transitions=transitions,
        other=other,
        accepts=accepts,
        alphabet=automaton.alphabet,
        dead=block_of[automaton.dead] if automaton.dead >= 0 else -1,
    )


def build_automaton(subqueries: list[tuple[int, Path]]) -> QueryAutomaton:
    """Build the merged DFA for ``(sub_id, forward-only path)`` pairs."""
    for sid, path in subqueries:
        if not path.is_forward_only:
            raise XPathError(f"sub-query {sid} ({path}) is not forward-only")
        if not path.absolute:
            raise XPathError(f"sub-query {sid} ({path}) must be absolute")

    alphabet: set[str] = set()
    for _sid, path in subqueries:
        for step in path.steps:
            if step.name != WILDCARD:
                alphabet.add(step.name)

    # NFA positions are (index into subqueries, steps_matched); keep the
    # step tuples at hand for move computation.
    paths = [path.steps for _sid, path in subqueries]
    sids = [sid for sid, _path in subqueries]

    def moves(positions: frozenset[tuple[int, int]], tag: str | None) -> frozenset[tuple[int, int]]:
        """Successor position set for a concrete tag (None = OTHER)."""
        out: set[tuple[int, int]] = set()
        for qi, i in positions:
            steps = paths[qi]
            if i >= len(steps):
                continue
            step = steps[i]
            if step.axis == Axis.DESCENDANT:
                out.add((qi, i))  # self-loop: stay below, keep searching
            if step.name == WILDCARD or (tag is not None and step.name == tag):
                out.add((qi, i + 1))
        return frozenset(out)

    initial_set = frozenset((qi, 0) for qi in range(len(paths)))
    index: dict[frozenset[tuple[int, int]], int] = {initial_set: 0}
    order: list[frozenset[tuple[int, int]]] = [initial_set]
    transitions: list[dict[str, int]] = []
    other: list[int] = []

    def intern(s: frozenset[tuple[int, int]]) -> int:
        state = index.get(s)
        if state is None:
            state = len(order)
            if state >= MAX_DFA_STATES:
                raise AutomatonTooLarge(
                    f"query automaton exceeded {MAX_DFA_STATES} states; "
                    "reduce the number of merged queries"
                )
            index[s] = state
            order.append(s)
        return state

    frontier = 0
    while frontier < len(order):
        positions = order[frontier]
        frontier += 1
        row: dict[str, int] = {}
        other_target = intern(moves(positions, None))
        for tag in sorted(alphabet):  # sorted: state numbering is deterministic
            target = intern(moves(positions, tag))
            if target != other_target:
                row[tag] = target
        transitions.append(row)
        other.append(other_target)
        # `intern` may have appended states after `order[frontier:]`,
        # the loop naturally picks them up.

    accepts: list[tuple[int, ...]] = []
    for positions in order:
        done = sorted({sids[qi] for qi, i in positions if i == len(paths[qi])})
        accepts.append(tuple(done))

    dead = index.get(frozenset(), -1)
    return QueryAutomaton(
        initial=0,
        transitions=transitions,
        other=other,
        accepts=accepts,
        alphabet=frozenset(alphabet),
        dead=dead,
    )
