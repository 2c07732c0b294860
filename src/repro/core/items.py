"""Items and fit lists — the building blocks of Section 6.2.

An *item* ``[v, α, a]`` is identified by a q-tree node ``v``, an
assignment ``α : path[v) → dom`` and a constant ``a``.  Since the
domain of ``α`` is always the root path above ``v``, we encode the pair
``(α, a)`` as the tuple of constants along ``path[v]`` — exactly the
index the paper uses for its RAM arrays ``Av[a1, ..., ad]``.

The paper keeps O(1) counters per item in those arrays; here each q-tree
node gets its own item class (:func:`node_classes`, built once per
structure), whose ``__slots__`` hold exactly that node's counters — no
item carries a dict.  Paper notation → slot names:

* ``C^i_ψ`` — the number of expansions of the item's assignment to
  ``vars(ψ)`` satisfying ``ψ``, one counter per atom of ``atoms(v)``:
  slots ``c0, c1, …`` in ``qtree.atoms_at[v]`` order
  (``atom_slot[ψ]`` names the slot; ``rep_slots`` are those of the
  represented atoms ``rep(v)``, the Lemma 6.3 guards);
* ``C^i`` — the number of expansions satisfying *all* of ``atoms(v)``,
  maintained via Lemma 6.3: ``weight``;
* ``C̃^i`` — the number of *free-variable projections* of those
  expansions, maintained via Lemma 6.4 (only for free ``v``):
  ``tweight``;
* ``C^i_u`` / ``C̃^i_u`` — the cached sums over the fit list ``L^i_u``
  of child ``u``: slots ``s{k}`` / ``t{k}`` for the ``k``-th child in
  ``qtree.children[v]`` order (``t{k}`` for free children only;
  ``child_slot[u]`` / ``tchild_slot[u]`` name them);
* ``L^i_u`` — the fit list of child ``u``: slot ``l{k}``
  (``list_slot[u]``), ``None`` until the first child item becomes fit;
* the zero-aware product decomposition of the Lemma 6.3/6.4 formulas,
  used by the compiled update path of :mod:`repro.core.plans`: ``nzp``
  is the product of the *nonzero* factors of ``C^i`` (the child sums
  ``C^i_u``; represented-atom guards contribute the neutral factor 1)
  and ``zf`` counts the factors that are zero (zero child sums plus
  unsatisfied represented atoms), so ``C^i = nzp`` iff ``zf == 0`` and
  ``0`` otherwise.  ``tnzp``/``tzf`` play the same roles for ``C̃^i``
  over the free children.  A one-factor delta updates the decomposition
  with O(1) arithmetic instead of re-multiplying every child;
* ``parent_item`` and the intrusive doubly-linked-list pointers
  ``in_list``/``prev``/``next`` of its (unique) fit list.

The generated runners, loaders, finalizers and walkers read and write
the slots by name; cold readers (``snapshot()``, validation, the
factorised export) go through the small accessors of :class:`Item`,
which map atom indices and child names to slots.

An item is **fit** iff ``weight > 0``; the fit lists contain exactly the
fit items, which is what gives enumeration its constant delay: no dead
branches are ever visited.
"""

from __future__ import annotations

from typing import AbstractSet, ClassVar, Dict, Iterator, Optional, Tuple, Type

from repro.core.qtree import QTree
from repro.storage.database import Constant, Row

__all__ = ["Item", "FitList", "node_classes"]


class Item:
    """One item ``[v, α, a]`` of the dynamic data structure.

    The base class holds the slots every node shares; the node's
    counters live in the slots of its class from :func:`node_classes`.
    """

    __slots__ = (
        "key",
        "weight",
        "tweight",
        "nzp",
        "zf",
        "tnzp",
        "tzf",
        "parent_item",
        "in_list",
        "prev",
        "next",
    )

    #: The q-tree node ``v``; the layout maps below are per node class.
    node: ClassVar[str] = ""
    #: atom index ψ ∈ atoms(v) → slot of ``C^i_ψ``.
    atom_slot: ClassVar[Dict[int, str]] = {}
    #: slots of the represented atoms rep(v) (the Lemma 6.3 guards).
    rep_slots: ClassVar[Tuple[str, ...]] = ()
    #: child u → slot of ``C^i_u``.
    child_slot: ClassVar[Dict[str, str]] = {}
    #: free child u → slot of ``C̃^i_u``.
    tchild_slot: ClassVar[Dict[str, str]] = {}
    #: child u → slot of ``L^i_u`` (``None`` until first needed).
    list_slot: ClassVar[Dict[str, str]] = {}
    #: every counter and sum slot (all start at 0).
    int_slots: ClassVar[Tuple[str, ...]] = ()

    def __init__(self, key: Row, parent_item: Optional["Item"]):
        self.key = key
        self.weight = 0
        self.tweight = 0
        self.nzp = 1
        self.zf = 0
        self.tnzp = 1
        self.tzf = 0
        self.parent_item = parent_item
        self.in_list = False
        self.prev: Optional[Item] = None
        self.next: Optional[Item] = None
        for name in self.int_slots:
            setattr(self, name, 0)
        for name in self.list_slot.values():
            setattr(self, name, None)

    @property
    def constant(self) -> Constant:
        """The item's own constant ``a`` (last component of the key)."""
        return self.key[-1]

    def atom_counts(self) -> Dict[int, int]:
        """The non-zero ``C^i_ψ`` by atom index (``snapshot()``'s view)."""
        counts = {}
        for atom_index, name in self.atom_slot.items():
            count = getattr(self, name)
            if count:
                counts[atom_index] = count
        return counts

    def atom_count(self, atom_index: int) -> int:
        """``C^i_ψ`` for ``ψ`` = atom ``atom_index`` of atoms(v)."""
        return getattr(self, self.atom_slot[atom_index])

    def add_atom_count(self, atom_index: int, delta: int) -> None:
        """``C^i_ψ += delta``."""
        name = self.atom_slot[atom_index]
        setattr(self, name, getattr(self, name) + delta)

    def has_support(self) -> bool:
        """Presence condition (a) of Section 6.4: some ``C^i_ψ > 0``."""
        return any(getattr(self, name) > 0 for name in self.atom_slot.values())

    def child_total(self, child: str) -> int:
        """``C^i_u``: the cached weight sum of the fit list of ``child``."""
        return getattr(self, self.child_slot[child])

    def add_child_total(self, child: str, delta: int) -> None:
        """``C^i_u += delta``."""
        name = self.child_slot[child]
        setattr(self, name, getattr(self, name) + delta)

    def tchild_total(self, child: str) -> int:
        """``C̃^i_u`` for a free ``child``."""
        return getattr(self, self.tchild_slot[child])

    def add_tchild_total(self, child: str, delta: int) -> None:
        """``C̃^i_u += delta``."""
        name = self.tchild_slot[child]
        setattr(self, name, getattr(self, name) + delta)

    def fit_list(self, child: str) -> Optional["FitList"]:
        """The fit list ``L^i_u`` of ``child``, if one was ever made."""
        return getattr(self, self.list_slot[child])

    def list_for(self, child: str) -> "FitList":
        """The fit list ``L^i_u`` for child variable ``u`` (lazily made)."""
        name = self.list_slot[child]
        existing = getattr(self, name)
        if existing is None:
            existing = FitList()
            setattr(self, name, existing)
        return existing

    def __repr__(self) -> str:
        return (
            f"Item[{self.node}, {self.key!r}, C={self.weight}, "
            f"C~={self.tweight}, fit={self.in_list}]"
        )


def node_classes(qtree: QTree, free: AbstractSet[str]) -> Dict[str, Type[Item]]:
    """One :class:`Item` subclass per node of ``qtree`` — the layout.

    Node ``v``'s class has one int slot per atom of atoms(v) (``c{k}``,
    ``qtree.atoms_at`` order) and, per child ``u`` (``qtree.children``
    order, index ``k``), a ``C^i_u`` slot ``s{k}``, a ``C̃^i_u`` slot
    ``t{k}`` when ``u`` is free, and a fit-list slot ``l{k}``.  This is
    the only place the layout is derived: every emitter of
    :mod:`repro.core.plans` and every accessor reads these maps.
    """
    classes: Dict[str, Type[Item]] = {}
    for node in qtree.parent:
        children = qtree.children.get(node, ())
        atom_slot = {a: f"c{k}" for k, a in enumerate(qtree.atoms_at[node])}
        child_slot = {u: f"s{k}" for k, u in enumerate(children)}
        tchild_slot = {u: f"t{k}" for k, u in enumerate(children) if u in free}
        list_slot = {u: f"l{k}" for k, u in enumerate(children)}
        int_slots = (
            tuple(atom_slot.values())
            + tuple(child_slot.values())
            + tuple(tchild_slot.values())
        )
        classes[node] = type(
            f"Item[{node}]",
            (Item,),
            {
                "__slots__": int_slots + tuple(list_slot.values()),
                "__module__": __name__,
                "node": node,
                "atom_slot": atom_slot,
                "rep_slots": tuple(atom_slot[a] for a in qtree.rep[node]),
                "child_slot": child_slot,
                "tchild_slot": tchild_slot,
                "list_slot": list_slot,
                "int_slots": int_slots,
            },
        )
    return classes


class FitList:
    """An intrusive doubly linked list of fit items (``L^i_u``/``L_start``).

    Append and remove are O(1); iteration follows ``next`` pointers, so
    the enumeration algorithm can resume from any item in O(1) — the
    property Algorithm 1's delay bound rests on.  Each item belongs to
    at most one fit list for its entire lifetime (its parent item's list
    for its own variable, or the start list for root items), which is
    why the pointers can live on the items themselves.
    """

    __slots__ = ("head", "tail", "length")

    def __init__(self) -> None:
        self.head: Optional[Item] = None
        self.tail: Optional[Item] = None
        self.length = 0

    def append(self, item: Item) -> None:
        """Add a (newly fit) item at the tail."""
        assert not item.in_list, "item already in its fit list"
        item.in_list = True
        item.prev = self.tail
        item.next = None
        if self.tail is None:
            self.head = item
        else:
            self.tail.next = item
        self.tail = item
        self.length += 1

    def remove(self, item: Item) -> None:
        """Unlink a (no longer fit) item."""
        assert item.in_list, "item not in its fit list"
        if item.prev is None:
            self.head = item.next
        else:
            item.prev.next = item.next
        if item.next is None:
            self.tail = item.prev
        else:
            item.next.prev = item.prev
        item.prev = None
        item.next = None
        item.in_list = False
        self.length -= 1

    def __iter__(self) -> Iterator[Item]:
        cursor = self.head
        while cursor is not None:
            yield cursor
            cursor = cursor.next

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.head is not None
