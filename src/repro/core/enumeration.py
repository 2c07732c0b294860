"""A literal, pointer-walking implementation of Algorithm 1.

:meth:`ComponentStructure.enumerate` streams results from a *generated*
walker (:func:`repro.core.plans.compile_walker`): one flat generator per
q-tree, its loop nest unrolled over the free document order.  This
module implements Algorithm 1 *exactly as printed* (the ``Set``
function and ``visit`` procedure, lines 1–28), advancing ``next``
pointers on the fit lists — the one hand-written fit-list walk in the
package, and the oracle the generated ones are held to: the test suite
checks both produce identical sequences, tuple for tuple, which is the
paper's Lemma 6.2 made executable.

``pinned`` extends the walk with the serving layer's free access
pattern: an ancestor-closed set of free variables is fixed to constants
and the visit loop treats their items as single-element lists (their
``next`` pointer is never followed).  The same cross-check then holds
against :meth:`ComponentStructure.enumerate_bound`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional

from repro.core.items import Item
from repro.core.structure import ComponentStructure
from repro.errors import QueryStructureError
from repro.storage.database import Constant, Row

__all__ = ["algorithm1"]


def algorithm1(
    structure: ComponentStructure,
    pinned: Optional[Mapping[str, Constant]] = None,
) -> Iterator[Row]:
    """Enumerate one component by walking fit-list pointers.

    Yields tuples over the component's free-variable order, in exactly
    the document-order sequence of Algorithm 1.  Boolean components
    yield ``()`` once when satisfied (the EOE message is the generator
    simply ending).

    ``pinned`` maps free variables to constants; the set must be
    *ancestor-closed* in the q-tree (every free ancestor of a pinned
    variable is pinned too — i.e. a prefix along each branch of the
    q-tree order), so each pinned item resolves with one array probe.
    """
    if pinned:
        unknown = [v for v in pinned if v not in structure.free]
        if unknown:
            raise QueryStructureError(
                f"cannot pin {sorted(unknown)}: not free variables of "
                f"component {structure.query.name!r}"
            )
    if not structure.query.free:
        if structure.c_start > 0:
            yield ()
        return

    order: List[str] = structure.free_order
    parent_of = structure.qtree.parent
    path_of = structure.qtree.path
    free_tuple = structure.query.free
    k = len(order)

    fixed: Dict[str, Item] = {}
    if pinned:
        for node in order:
            if node not in pinned:
                continue
            up = parent_of[node]
            if up is not None and up not in pinned:
                raise QueryStructureError(
                    f"pinned set is not ancestor-closed: {node!r} is "
                    f"pinned but its parent {up!r} is not"
                )
            item = structure.item(
                node, tuple(pinned[v] for v in path_of[node])
            )
            if item is None or not item.in_list:
                return  # the pinned prefix has no fit item
            fixed[node] = item

    def set_item(items: Dict[str, Item], mu: int) -> Optional[Item]:
        """Lines 11–15: first element of the μ-th node's list under the
        currently selected parent item (pinned nodes are their own
        single-element list)."""
        node = order[mu]
        anchored = fixed.get(node)
        if anchored is not None:
            return anchored
        parent_node = parent_of[node]
        assert parent_node is not None  # free subtree is rooted
        fit_list = items[parent_node].fit_list(node)
        return fit_list.head if fit_list is not None else None

    # Lines 4–8: bail out on an empty start list, else seed the items.
    root_item = fixed.get(order[0], structure.start.head)
    if root_item is None:
        return
    items: Dict[str, Item] = {order[0]: root_item}
    for mu in range(1, k):
        first = set_item(items, mu)
        if first is None:
            return  # only reachable under pinning: an unfit branch
        items[order[mu]] = first

    # Lines 17–28: visit() loop.
    while True:
        yield tuple(items[v].constant for v in free_tuple)

        j: Optional[int] = None
        for index in range(k - 1, -1, -1):
            if order[index] in fixed:
                continue  # a pinned item never advances
            if items[order[index]].next is not None:
                j = index
                break
        if j is None:
            return  # line 20–21: every item is last — EOE

        items[order[j]] = items[order[j]].next  # line 25
        for mu in range(j + 1, k):  # lines 26–27
            first = set_item(items, mu)
            assert first is not None, "fit parent with empty child list"
            items[order[mu]] = first
