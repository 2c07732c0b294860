"""Appendix A: the self-join frontier beyond the dichotomy.

Theorem 1.1's dichotomy covers self-join-free queries.  With self-joins
the enumeration landscape is open, and the paper's Appendix A exhibits
the two sides with the queries

* ``ϕ1(x, y) = (Exx ∧ Exy ∧ Eyy)`` — *not* maintainable (Lemma A.1,
  OMv-hard; exercised in :mod:`repro.lowerbounds.reductions`), and
* ``ϕ2(x, y, z1, z2) = (Exx ∧ Exy ∧ Eyy ∧ Ez1z2)`` — maintainable with
  constant delay and constant update time (Lemma A.2) although it is
  not q-hierarchical.

:class:`Phi2Engine` implements Lemma A.2's two-phase trick: once a loop
``(c0, c0)`` exists, the ``|E|`` tuples ``(c0, c0) × E`` are streamed
immediately, and *while they stream* the ϕ1 adjacency structure is
built one edge per emitted tuple — by the time phase 1 ends the
structure is complete and the remaining pairs stream with constant
delay.

Deviation from the paper's sketch (documented in DESIGN.md): the
appendix preprocesses ϕ1 on ``D' = D − {(c0, c0)}`` and enumerates
``ϕ1(D') × E`` afterwards.  Deleting the loop would also delete
legitimate answers ``(c0, y)`` whose ``Exx``-witness is ``(c0, c0)``
itself, so we preprocess on ``D`` and skip the single already-emitted
pair ``(c0, c0)`` instead — which is what the interleaving argument
actually needs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cq.query import ConjunctiveQuery
from repro.errors import QueryStructureError
from repro.interface import DynamicEngine, register_engine
from repro.storage.database import Constant, Database, Row

__all__ = ["Phi2Engine", "match_phi2"]


def match_phi2(
    query: ConjunctiveQuery,
) -> Optional[Tuple[str, str, str, str, str]]:
    """Recognise ϕ2 up to variable naming and output order.

    Returns ``(x, y, z1, z2, relation)`` on success: ``x`` the looped
    source, ``y`` the looped target, ``(z1, z2)`` the independent edge
    atom, all four free.  ``None`` if the query has a different shape.
    """
    relations = query.relations
    if len(relations) != 1 or len(query.atoms) != 4:
        return None
    relation = next(iter(relations))
    if query.arity_of(relation) != 2:
        return None

    loops = [a for a in query.atoms if a.args[0] == a.args[1]]
    edges = [a for a in query.atoms if a.args[0] != a.args[1]]
    if len(loops) != 2 or len(edges) != 2:
        return None
    loop_vars = {a.args[0] for a in loops}
    bridge = next(
        (a for a in edges if set(a.args) == loop_vars), None
    )
    if bridge is None:
        return None
    x, y = bridge.args
    extra = next(a for a in edges if a is not bridge)
    z1, z2 = extra.args
    if {z1, z2} & {x, y}:
        return None
    if set(query.free) != {x, y, z1, z2}:
        return None
    return (x, y, z1, z2, relation)


@register_engine
class Phi2Engine(DynamicEngine):
    """Lemma A.2: constant-delay maintenance for the ϕ2 self-join query.

    Update time is O(1) (two dict operations).  ``count()`` is O(|E|)
    (the lemma does not claim constant-time counting — indeed
    Theorem 3.5 forbids it, since ϕ2 is its own non-q-hierarchical
    core); ``answer()`` is O(1).
    """

    name = "phi2_appendix"

    #: ``count()`` walks the edges.
    constant_reads = frozenset(("answer", "contains"))

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Optional[Database] = None,
    ):
        match = match_phi2(query)
        if match is None:
            raise QueryStructureError(
                f"{query.name!r} is not the Appendix-A query ϕ2; "
                "Phi2Engine is specific to Lemma A.2"
            )
        self._x, self._y, self._z1, self._z2, self._relation = match
        super().__init__(query, database)
        variable_order = (self._x, self._y, self._z1, self._z2)
        self._out_positions = tuple(
            variable_order.index(v) for v in query.free
        )
        # An output tuple's (x, y, z1, z2).
        self._variables_of = itemgetter(*(query.free.index(v) for v in variable_order))

    def _setup(self) -> None:
        # Insertion-ordered sets: dicts with None values.
        self._edges: Dict[Row, None] = {}
        self._loops: Dict[Constant, None] = {}

    # ------------------------------------------------------------------
    # updates — O(1)
    # ------------------------------------------------------------------

    def _on_insert(self, relation: str, row: Row) -> None:
        self._edges[row] = None
        if row[0] == row[1]:
            self._loops[row[0]] = None

    def _on_delete(self, relation: str, row: Row) -> None:
        self._edges.pop(row, None)
        if row[0] == row[1]:
            self._loops.pop(row[0], None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def answer(self) -> bool:
        """ϕ2(D) ≠ ∅ iff some loop exists (the loop itself supplies
        both ϕ1 and the independent edge atom)."""
        return bool(self._loops)

    def contains(self, row: Row) -> bool:
        """``(x, y, z1, z2) ∈ ϕ2(D)`` in O(1): both loops, the bridge
        ``(x, y)`` and the free edge ``(z1, z2)``."""
        if len(row) != 4:
            return False
        x, y, z1, z2 = self._variables_of(row)
        loops = self._loops
        edges = self._edges
        return x in loops and y in loops and (x, y) in edges and (z1, z2) in edges

    def count(self) -> int:
        """``|ϕ2(D)| = |ϕ1(D)| · |E|``, computed in O(|E|)."""
        loops = self._loops
        phi1 = sum(
            1 for (u, v) in self._edges if u in loops and v in loops
        )
        return phi1 * len(self._edges)

    def phi1_pairs(self) -> Iterator[Tuple[Constant, Constant]]:
        """Stream ``ϕ1(D)``: pairs with loops at both ends and an edge."""
        loops = self._loops
        for (u, v) in self._edges:
            if u in loops and v in loops:
                yield (u, v)

    def enumerate(self) -> Iterator[Row]:
        """Lemma A.2's interleaved two-phase constant-delay enumeration."""
        if not self._loops:
            return
        c0 = next(iter(self._loops))
        edges = self._edges
        loops = self._loops

        # Phase 1 streams (c0, c0) × E; each emitted tuple funds one
        # step of building the ϕ1 adjacency lists over the same E.
        adjacency: Dict[Constant, List[Constant]] = {}
        builder = iter(edges)
        for edge in edges:
            yield self._assemble(c0, c0, edge)
            pair = next(builder)  # exactly |E| steps for |E| yields
            if pair[0] in loops and pair[1] in loops:
                adjacency.setdefault(pair[0], []).append(pair[1])

        # Phase 2 streams the remaining ϕ1 pairs × E.
        for u, targets in adjacency.items():
            for v in targets:
                if u == c0 and v == c0:
                    continue  # already emitted in phase 1
                for edge in edges:
                    yield self._assemble(u, v, edge)

    def _assemble(self, x: Constant, y: Constant, edge: Row) -> Row:
        values = (x, y, edge[0], edge[1])
        return tuple(values[p] for p in self._out_positions)
