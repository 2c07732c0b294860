"""Compiled update plans and enumerators for the Section 6 data structure.

The paper's update procedure is parameterised by the updated atom: its
repeated-variable pattern, the root path of its representing node and,
per path node, the represented atoms, the child lists and the free
flag.  Algorithm 1 is parameterised by the free subtree.  The seed
resolved that *per update* (scanning ``query.atoms``, a binding dict per
tuple, the q-tree maps re-read at every level).  This module resolves
it **once per structure**, into one frozen :class:`Layout` whose
``cached_property`` tables every emitter reads:

* per q-tree node a :class:`LevelPlan`: its item class (whose slots are
  the node's counters, see :func:`repro.core.items.node_classes`), its
  number in document order, the free/leaf/exclusive flags and the
  zero-factor counts a new item starts with (one per represented atom
  and per child — everything is empty at birth);
* per atom an :class:`AtomLayout`: the relation, the root path of the
  representing node, the row→path permutation (``extract``), the
  repeated-position checks (``eq``, replacing the seed's binding dict)
  and ``free_depth``, the leading free levels of the path — the atom's
  *free chain* (free nodes only have free ancestors);
* the free document order with each free node's parent slot and
  fit-list slot (``walker_slots``), and the output positions of each
  ``contains`` probe key.

Every generated source is a function of the layout alone.  The
per-structure objects — item stores, start list, the structure itself —
reach generated code only as the globals its code object is ``exec``\\d
in (:func:`bind`), so each distinct source is compiled once per process
and a later structure of the same shape reuses the code (:func:`_code`).

* :func:`compile_runner` emits one atom's update: check ``eq``, permute
  the row through ``extract``, and walk the level chain updating the
  zero-aware counter decomposition (``Item.nzp``/``zf``/``tnzp``/``tzf``)
  in O(1) arithmetic per level.  The same source defines the atom's
  result delta, ``AtomPlan.emit_delta``.
* :func:`compile_walker` emits Algorithm 1 for one free document order
  as a single flat generator — nested ``while`` loops over the fit
  lists' ``next`` pointers, constants in locals, the output tuple
  written literally — for a component, a product of components, and
  every set of bound output variables callers use (:func:`bound_walk`).
* By Lemma 6.2 the result delta of an update and Algorithm 1 walk the
  same thing: nested loops over the fit lists of the free nodes, some
  nodes pinned.  Both are emitted by one nest emitter (:func:`_emit_nest`):
  the walker pins bound nodes with a store probe, the delta pins the
  atom's free chain by item.
* :func:`compile_relation_loader` and :func:`compile_finalizer` are the
  two passes of bulk preprocessing.

:class:`repro.core.structure.ComponentStructure` consumes the plans;
:class:`repro.core.engine.QHierarchicalEngine` flattens their runners
into a per-relation dispatch table.
:func:`repro.core.enumeration.algorithm1` stays the hand-written walk
the generated ones are tested against, order included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from types import CodeType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.items import FitList, Item, node_classes
from repro.core.qtree import QTree
from repro.cq.query import ConjunctiveQuery
from repro.errors import EngineStateError
from repro.storage.database import Row

__all__ = [
    "AtomPlan",
    "Layout",
    "LevelPlan",
    "bind",
    "compile_runner",
    "compile_walker",
    "bound_walk",
    "compile_relation_loader",
    "plan_summary",
]

#: Prefix-cache sentinel for generated loaders: compares unequal to
#: every constant, so the first row always misses.
_MISS = object()

#: What every generated function may call, besides its structures.
_HELPERS: Dict[str, object] = {
    "_new": Item.__new__,
    "_FitList": FitList,
    "_Err": EngineStateError,
    "_miss": _MISS,
    "_tz": 0,
    "_MISSING": (
        "delete touches missing item [{}, {!r}]; "
        "was the command filtered for set semantics?"
    ),
}


@lru_cache(maxsize=256)
def _code(source: str, label: str) -> CodeType:
    """The code object of one generated source.  A source is a function
    of a layout, so structures of one shape share its code."""
    return compile(source, label, "exec")


def _define(source: str, label: str, namespace: Dict[str, object]) -> Dict[str, object]:
    """``exec`` the code of ``source`` over a copy of ``namespace``;
    returns the filled namespace."""
    scope = dict(namespace)
    exec(_code(source, label), scope)
    return scope


def tuple_getter(indexes: Sequence[int]) -> "object":
    """``row → tuple(row[i] for i in indexes)`` as a C-level callable
    (``itemgetter`` returns a bare value for a single index, so that
    case wraps).  ``indexes`` must not be empty."""
    if len(indexes) == 1:
        single = itemgetter(indexes[0])
        return lambda row: (single(row),)
    return itemgetter(*indexes)


def _tuple_literal(parts: Sequence[str]) -> str:
    """Source of the tuple display over ``parts`` (``(a,)`` for one)."""
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


class LevelPlan(NamedTuple):
    """One q-tree node as the emitters see it.

    ``index`` numbers the node in document order (its store and class
    are the globals ``_S{c}_{index}`` / ``_I{c}_{index}``, see
    :func:`bind`); ``init_zf``/``init_tzf`` are the zero-factor counts
    of a newly created item: every represented atom and every child
    starts with count/sum 0, every free child with ``C̃``-sum 0.
    ``exclusive`` holds when exactly one atom mentions the node, i.e.
    only one plan ever writes its store — its loader may create items
    unconditionally (keys are unique per row by set semantics).
    """

    node: str
    index: int
    cls: Type[Item]
    is_free: bool
    is_leaf: bool
    exclusive: bool
    init_zf: int
    init_tzf: int


class AtomLayout(NamedTuple):
    """One atom as the emitters see it (see :class:`AtomPlan`)."""

    relation: str
    path: Tuple[str, ...]
    extract: Tuple[int, ...]
    eq: Tuple[Tuple[int, int], ...]
    levels: Tuple[LevelPlan, ...]
    free_depth: int


@dataclass(frozen=True, eq=False)
class Layout:
    """Every table the generated code of one component is a function
    of, derived once from the component and its q-tree."""

    query: ConjunctiveQuery
    qtree: QTree

    @cached_property
    def classes(self) -> Dict[str, Type[Item]]:
        """q-tree node → its item class (:func:`node_classes`)."""
        return node_classes(self.qtree, self.query.free_set)

    @cached_property
    def doc_order(self) -> Tuple[str, ...]:
        return tuple(self.qtree.document_order())

    @cached_property
    def free_order(self) -> Tuple[str, ...]:
        return tuple(self.qtree.free_document_order())

    @cached_property
    def levels(self) -> Dict[str, LevelPlan]:
        tree, free = self.qtree, self.query.free_set
        levels = {}
        for index, node in enumerate(self.doc_order):
            kids = tree.children.get(node, ())
            levels[node] = LevelPlan(
                node,
                index,
                self.classes[node],
                node in free,
                not kids,
                len(tree.atoms_at[node]) == 1,
                len(tree.rep[node]) + len(kids),
                sum(1 for u in kids if u in free),
            )
        return levels

    @cached_property
    def atoms(self) -> Tuple[AtomLayout, ...]:
        tree, free = self.qtree, self.query.free_set
        atoms = []
        for atom_index, atom in enumerate(self.query.atoms):
            path = tree.path[tree.rep_node_of(atom_index)]
            first: Dict[str, int] = {}
            eq = []
            for position, var in enumerate(atom.args):
                if var in first:
                    eq.append((first[var], position))
                else:
                    first[var] = position
            atoms.append(
                AtomLayout(
                    atom.relation,
                    path,
                    tuple(first[v] for v in path),
                    tuple(eq),
                    tuple(self.levels[v] for v in path),
                    sum(1 for v in path if v in free),
                )
            )
        return tuple(atoms)

    @cached_property
    def free_slot(self) -> Dict[str, int]:
        """Free node → its slot, its place in the free document order."""
        return {v: s for s, v in enumerate(self.free_order)}

    @cached_property
    def walker_slots(self) -> Tuple[Tuple[str, int, int, Optional[str]], ...]:
        """Per free slot: the node, its number, its parent's slot (-1 at
        the root) and the parent class's slot holding its fit list."""
        parent = self.qtree.parent
        return tuple(
            (
                v,
                self.levels[v].index,
                -1 if parent[v] is None else self.free_slot[parent[v]],
                None if parent[v] is None else self.classes[parent[v]].list_slot[v],
            )
            for v in self.free_order
        )

    @cached_property
    def contains_keys(self) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
        """Per free node, the output positions its root-path key is read
        from — free nodes only have free ancestors (Definition 4.1(2)),
        so every key is a projection of the output tuple."""
        return tuple(
            (v, self.positions_in(self.query.free, self.qtree.path[v]))
            for v in self.free_order
        )

    @cached_property
    def fused_nodes(self) -> FrozenSet[str]:
        """Leaves the bulk loader finalises itself (:func:`loader_fuses_leaf`)."""
        return frozenset(a.levels[-1].node for a in self.atoms if loader_fuses_leaf(a))

    def positions_in(
        self, order: Sequence[str], variables: Optional[Sequence[str]] = None
    ) -> Tuple[int, ...]:
        """Where ``variables`` (default: the component's output
        variables) land in an output tuple over ``order``."""
        index = {v: i for i, v in enumerate(order)}
        return tuple(index[v] for v in (self.query.free if variables is None else variables))


def bind(structures: Sequence[object]) -> Dict[str, object]:
    """The globals generated code runs over: per structure ``c`` the
    structure (``_st{c}``), its start list (``_start{c}``) and, per
    q-tree node numbered ``n``, the item store (``_S{c}_{n}``) and item
    class (``_I{c}_{n}``) — the only per-structure objects it reaches."""
    namespace = dict(_HELPERS)
    for c, structure in enumerate(structures):
        namespace[f"_st{c}"] = structure
        namespace[f"_start{c}"] = structure.start
        for level in structure.layout.levels.values():
            namespace[f"_S{c}_{level.index}"] = structure._items[level.node]
            namespace[f"_I{c}_{level.index}"] = level.cls
    return namespace


class AtomPlan:
    """One atom's update recipe, bound to its structure.

    The static part is the atom's :class:`AtomLayout`: ``extract[i]`` is
    the row position holding the value of the i-th path variable, ``eq``
    lists ``(s, t)`` row positions that must agree (the paper's side
    condition ``z_s = z_t ⇒ b_s = b_t`` for repeated variables, checked
    without building a binding), ``free_depth`` the length of the free
    chain.  ``namespace`` is the structure's :func:`bind`.

    :func:`compile_runner` fills in the generated parts:
    ``runner_source`` and ``emit_delta(report, out)``, which appends the
    result tuples one update of the atom changed
    (:meth:`ComponentStructure.apply_with_delta` argues why that is
    exact): the free chain pinned to the runner's report, the off-chain
    free nodes nested over their fit lists as in Algorithm 1.
    """

    __slots__ = (
        "atom_index",
        "relation",
        "path",
        "extract",
        "eq",
        "levels",
        "free_depth",
        "layout",
        "namespace",
        "runner_source",
        "loader_source",
        "emit_delta",
    )

    def __init__(self, layout: Layout, atom_index: int, namespace: Dict[str, object]):
        self.atom_index = atom_index
        (
            self.relation,
            self.path,
            self.extract,
            self.eq,
            self.levels,
            self.free_depth,
        ) = layout.atoms[atom_index]
        self.layout = layout
        self.namespace = namespace
        #: Filled by :func:`compile_runner` /
        #: :func:`compile_relation_loader` — the generated sources, for
        #: introspection and debugging.
        self.runner_source: str = ""
        self.loader_source: str = ""
        self.emit_delta: Optional[Callable[[Tuple[int, Item], List[Row]], None]] = None

    def matches(self, row: Row) -> bool:
        """The repeated-variable side condition, O(|eq|)."""
        for s, t in self.eq:
            if row[s] != row[t]:
                return False
        return True

    def values_of(self, row: Row) -> Row:
        """Permute a relation row into path order (no binding dict)."""
        return tuple(map(row.__getitem__, self.extract))

    def __repr__(self) -> str:
        return (
            f"AtomPlan(#{self.atom_index} {self.relation}, "
            f"path={'→'.join(self.path)})"
        )


def _emit_nest(
    emit,
    nest: Sequence[Tuple[int, str, bool]],
    out_slots: Sequence[int],
    body: Callable[[str], List[str]],
) -> None:
    """The loop nest of Algorithm 1, shared by walker and delta.

    ``nest`` lists the unpinned slots in nest order as ``(slot, first
    item, probed)``: a ``while`` over the fit list from the first item,
    or — probed — an ``if`` around the one item a store probe found.
    Slot ``s`` holds its item in ``i{s}`` and its constant in ``c{s}``
    (pinned slots set both before the nest); ``body`` gets the output
    tuple over ``out_slots`` and returns the innermost statements.
    """
    pad = "    "
    value = {s: f"c{s}" for s in out_slots}
    for s, head, probed in nest:
        emit(f"{pad}i{s} = {head}")
        if probed:
            emit(f"{pad}if i{s} is not None and i{s}.in_list:")
        else:
            emit(f"{pad}while i{s} is not None:")
        pad += "    "
        if s == nest[-1][0]:
            value[s] = f"i{s}.key[-1]"  # innermost: read once, in the tuple
        else:
            emit(f"{pad}c{s} = i{s}.key[-1]")
    for line in body(_tuple_literal([value[s] for s in out_slots])):
        emit(pad + line)
    for s, _head, probed in reversed(nest):
        if not probed:
            emit(f"{pad}i{s} = i{s}.next")
        pad = pad[:-4]


def _emit_item_fields(
    emit,
    pad: str,
    var: str,
    key_var: str,
    parent: str,
    level: LevelPlan,
    counted: Optional[str] = None,
    deferred: bool = False,
    tail: Optional[str] = None,
) -> None:
    """Emit an inline item-construction block into the level's store.

    Bypassing ``Item.__init__`` saves a Python frame per created item.
    The block writes exactly the slots of the node's class
    (``level.cls``): the common ones, every counter and sum at 0 — the
    one named ``counted`` at 1 — and every fit-list slot at ``None``.

    ``deferred=True`` (the bulk loader only) additionally skips the
    ``zf``/``tzf``/``tnzp`` counters: the phase-2 finalizer recomputes
    ``zf`` for every item, and sets ``tzf``/``tnzp`` for every free
    node — quantified nodes never have theirs read at all.  ``tail``
    (the loader's fused leaves only) births the item finalised instead:
    weight 1, fit, after the item ``tail`` in its fit list.
    """
    fit = tail is not None
    emit(f"{pad}{var} = _new(_I0_{level.index})")
    emit(f"{pad}{var}.key = {key_var}")
    emit(f"{pad}{var}.parent_item = {parent}")
    _emit_node_slots(emit, pad, var, level.cls, counted)
    emit(f"{pad}{var}.weight = {int(fit)}")
    emit(f"{pad}{var}.tweight = {int(fit and level.is_free)}")
    emit(f"{pad}{var}.nzp = 1")
    if fit:
        emit(f"{pad}{var}.zf = 0")
        if level.is_free:
            emit(f"{pad}{var}.tnzp = 1")
            emit(f"{pad}{var}.tzf = 0")
    elif not deferred:
        emit(f"{pad}{var}.zf = {level.init_zf}")
        emit(f"{pad}{var}.tnzp = 1")
        emit(f"{pad}{var}.tzf = {level.init_tzf}")
    emit(f"{pad}{var}.in_list = {fit}")
    emit(f"{pad}{var}.prev = {tail}")
    emit(f"{pad}{var}.next = None")
    emit(f"{pad}_S0_{level.index}[{key_var}] = {var}")


def _emit_node_slots(
    emit, pad: str, var: str, cls: Type[Item], counted: Optional[str]
) -> None:
    """Initialise the node-specific slots of a new item of ``cls``."""
    for name in cls.int_slots:
        emit(f"{pad}{var}.{name} = {1 if name == counted else 0}")
    for name in cls.list_slot.values():
        emit(f"{pad}{var}.{name} = None")


def _emit_list_for(emit, pad: str, target: str, up: str, list_slot: str) -> None:
    """``target = up.list_for(child)`` inlined over the list slot."""
    emit(f"{pad}{target} = {up}.{list_slot}")
    emit(f"{pad}if {target} is None:")
    emit(f"{pad}    {target} = {up}.{list_slot} = _FitList()")


def compile_runner(plan: AtomPlan) -> "object":
    """Generate a specialised update function for one atom plan.

    A generic loop over ``plan.levels`` would pay interpreter overhead
    for work that is constant per plan: the level count, the free
    flags, the equality checks, the store references.  This generator
    bakes all of it into straight-line source — one unrolled block per
    level, branches for quantified nodes and non-rep levels removed at
    compile time — and ``exec``\\s it over ``plan.namespace`` at
    structure construction.  The result is observationally identical
    to the seed's literal Section 6.4 loop (the test suite's reference
    oracle; the differential suite holds both to byte-identical state),
    several times faster, and its globals are only stable objects: the
    item stores, the start list, the node item classes and the
    structure itself (for ``version``/``C_start``/``C̃_start``).
    Counters are read and written as the slots the node classes name
    (``count = i2.c1 + delta``), never through a dict.

    The runner also *reports* the one thing about the result set it
    alone knows: whenever a free level's item enters or leaves its fit
    list it remembers the level (the walk is bottom-up, so the last one
    remembered is the shallowest), and returns ``(flip, item)`` — that
    level and the deepest free chain item it holds — or ``None`` when
    no free level flipped.  Callers that do not want the delta ignore
    the value; it costs them a local store and a compare per call.

    The same source defines ``_delta(report, out)``, installed as
    ``plan.emit_delta``: it pins the free chain *by item* — the
    reported item, then its ``parent_item``\\s, returning early if one
    above the flipped level is unfit — and nests the off-chain free
    nodes over their fit lists exactly as the walker does, appending
    each tuple to ``out`` (:meth:`ComponentStructure.apply_with_delta`).

    The generated source is kept on ``plan.runner_source`` so
    ``explain()`` consumers and debuggers can read what actually runs.
    """
    depth = len(plan.levels)
    last = depth - 1
    free_depth = plan.free_depth
    lines: List[str] = ["def _runner(is_insert, row):"]
    emit = lines.append

    # Repeated-variable equality checks, then the path-value extraction.
    for s, t in plan.eq:
        emit(f"    if row[{s}] != row[{t}]: return")
    for j, position in enumerate(plan.extract):
        emit(f"    v{j} = row[{position}]")
    emit("    _st0.version += 1")
    if free_depth:
        emit("    flip = -1")

    # Downward walk: locate or create the item chain.
    for j, level in enumerate(plan.levels):
        key = _tuple_literal([f"v{i}" for i in range(j + 1)])
        parent = f"i{j - 1}" if j else "None"
        n = level.index
        emit(f"    k{j} = {key}")
        emit(f"    i{j} = _S0_{n}.get(k{j})")
        emit(f"    if i{j} is None:")
        emit("        if not is_insert:")
        emit(f"            raise _Err(_MISSING.format(_I0_{n}.node, k{j}))")
        _emit_item_fields(emit, "        ", f"i{j}", f"k{j}", parent, level)
    emit("    delta = 1 if is_insert else -1")

    # Upward walk: one unrolled block per level.
    for j in range(last, -1, -1):
        level = plan.levels[j]
        i = f"i{j}"
        counter = level.cls.atom_slot[plan.atom_index]
        emit(f"    count = {i}.{counter} + delta")
        emit(f"    {i}.{counter} = count")
        if j == last:
            # The represented-atom guard lives at the rep node only.
            emit("    if (count > 0) != (count - delta > 0):")
            emit(f"        {i}.zf += -1 if count > 0 else 1")
        emit(f"    nw = {i}.nzp if {i}.zf == 0 else 0")
        emit(f"    wd = nw - {i}.weight")
        emit(f"    {i}.weight = nw")
        if level.is_free:
            emit(f"    ntw = _tz if (nw == 0 or {i}.tzf) else {i}.tnzp")
            emit(f"    twd = ntw - {i}.tweight")
            emit(f"    {i}.tweight = ntw")
        up_cls = plan.levels[j - 1].cls if j else None
        emit("    if nw > 0:")
        emit(f"        if not {i}.in_list:")
        if j == 0:
            emit(f"            _start0.append({i})")
        else:
            list_slot = up_cls.list_slot[level.node]
            _emit_list_for(emit, "            ", "fl", f"i{j - 1}", list_slot)
            emit(f"            fl.append({i})")
        if j < free_depth:
            emit(f"            flip = {j}")
        emit(f"    elif {i}.in_list:")
        if j == 0:
            emit(f"        _start0.remove({i})")
        else:
            emit(f"        i{j - 1}.{list_slot}.remove({i})")
        if j < free_depth:
            emit(f"        flip = {j}")
        if j == 0:
            emit("    if wd:")
            emit("        _st0.c_start += wd")
            if level.is_free:
                emit("    if twd:")
                emit("        _st0.t_start += twd")
        else:
            up = f"i{j - 1}"
            sums = [("wd", up_cls.child_slot[level.node], "zf", "nzp")]
            if level.is_free:
                sums.append(("twd", up_cls.tchild_slot[level.node], "tzf", "tnzp"))
            for d, sum_slot, zf, nzp in sums:
                emit(f"    if {d}:")
                emit(f"        olds = {up}.{sum_slot}")
                emit(f"        news = olds + {d}")
                emit(f"        {up}.{sum_slot} = news")
                emit("        if olds == 0:")
                emit(f"            {up}.{zf} -= 1")
                emit(f"            {up}.{nzp} *= news")
                emit("        elif news == 0:")
                emit(f"            {up}.{zf} += 1")
                emit(f"            {up}.{nzp} //= olds")
                emit("        else:")
                emit(f"            {up}.{nzp} = {up}.{nzp} // olds * news")
        support = " or ".join(
            ["count"]
            + [f"{i}.{name}" for name in level.cls.atom_slot.values() if name != counter]
        )
        emit(f"    if delta < 0 and not ({support}):")
        emit(f"        del _S0_{level.index}[{i}.key]")
    if free_depth:
        emit("    if flip >= 0:")
        emit(f"        return flip, i{free_depth - 1}")
        _emit_delta(emit, plan)

    source = "\n".join(lines)
    plan.runner_source = source
    scope = _define(
        source, f"<plan {plan.relation}#{plan.atom_index}>", plan.namespace
    )
    plan.emit_delta = scope.get("_delta")
    return scope["_runner"]


def _emit_delta(emit, plan: AtomPlan) -> None:
    """``_delta(report, out)`` of one plan (see :func:`compile_runner`).

    The free chain's slots are pinned by item, deepest first; a level
    above the flipped one (``flip > level``) did not flip, so an unfit
    item there means no result tuple changed.  Every other free slot is
    a nest level over its fit list: each hangs off an item that is (or,
    for the flipped items of a delete, just was) fit, so none is empty.
    """
    layout = plan.layout
    chain = [layout.free_slot[v] for v in plan.path[: plan.free_depth]]
    emit("def _delta(report, out):")
    emit(f"    flip, i{chain[-1]} = report")
    for level in range(len(chain) - 1, -1, -1):
        s = chain[level]
        if level < len(chain) - 1:
            emit(f"    i{s} = i{chain[level + 1]}.parent_item")
            emit(f"    if flip > {level} and not i{s}.in_list: return")
        emit(f"    c{s} = i{s}.key[-1]")
    nest = [
        (s, f"i{up}.{list_slot}.head", False)
        for s, (_node, _n, up, list_slot) in enumerate(layout.walker_slots)
        if s not in chain
    ]
    out = [layout.free_slot[v] for v in layout.query.free]
    _emit_nest(emit, nest, out, lambda row: [f"out.append({row})"])


_STALE_WALK = (
    "structure was updated during enumeration; restart the enumeration "
    "to observe the new result"
)


def compile_walker(
    structures: Sequence[object],
    free: Sequence[str],
    bound: Sequence[str] = (),
) -> "object":
    """Generate Algorithm 1 for one free document order — the
    enumeration counterpart of :func:`compile_runner`.

    ``structures`` are the component structures whose product is
    enumerated (one for a connected query), ``free`` the output
    variable order, ``bound`` the output variables fixed by the caller.
    The result is **one flat generator function** taking the bound
    values as positional arguments, in ``bound`` order:

    * one ``while item is not None`` loop per unbound free q-tree node,
      nested in document order, component after component, each
      following the ``next`` pointers of the fit list under its parent's
      current item — so the emitted sequence is tuple for tuple the one
      :func:`repro.core.enumeration.algorithm1` produces, and a
      multi-component product is the component nests concatenated;
    * every component gates on ``C_start > 0`` first, which is all a
      Boolean component contributes;
    * a bound node whose ancestors are all bound (an ancestor-closed,
      *pinned* prefix — the free-access-pattern primitive) is one store
      probe before the nest and no loop, so the delay stays O(k); a
      bound node below an unbound ancestor is one store probe per item
      of its parent, ``_S.get(parent.key + (wanted,))``, and no loop —
      the item is unique under its parent, so the order is the filtered
      fit list's;
    * constants live in locals and the output tuple is written
      literally in ``free`` order — no binding dict, no per-level
      generator frame, one resume per tuple;
    * the structures' ``version`` stamps are read at the first
      ``next()`` and re-checked after every resume, so a walk that
      outlives an update raises :class:`~repro.errors.EngineStateError`
      instead of following relinked pointers.

    The generated source is kept on the function's ``source`` attribute
    for ``explain()`` consumers and debuggers.
    """
    argument = {v: f"b{k}" for k, v in enumerate(bound)}
    lines: List[str] = [f"def _walk({', '.join(argument.values())}):"]
    emit = lines.append
    for c in range(len(structures)):
        emit(f"    if _st{c}.c_start <= 0: return")
    for c in range(len(structures)):
        emit(f"    ver{c} = _st{c}.version")
    stale = " or ".join(
        f"_st{c}.version != ver{c}" for c in range(len(structures))
    )

    # The slots of component c follow those of the components before
    # it.  Pinned slots resolve here, before the nest (their keys depend
    # on the arguments alone); every other slot is a nest level.
    slot: Dict[str, int] = {}
    pinned: set = set()
    nest: List[Tuple[int, str, bool]] = []
    for c, structure in enumerate(structures):
        layout = structure.layout
        base = len(slot)
        for s, (node, n, up, list_slot) in enumerate(layout.walker_slots, base):
            slot[node] = s
            up = up + base if up >= 0 else -1
            if node in argument and (up < 0 or up in pinned):
                pinned.add(s)
                key = _tuple_literal([argument[v] for v in layout.qtree.path[node]])
                emit(f"    i{s} = _S{c}_{n}.get({key})")
                emit(f"    if i{s} is None or not i{s}.in_list: return")
                emit(f"    c{s} = i{s}.key[-1]")
            elif node in argument:
                key = _tuple_literal([argument[node]])
                nest.append((s, f"_S{c}_{n}.get(i{up}.key + {key})", True))
            else:
                head = f"_start{c}" if up < 0 else f"i{up}.{list_slot}"
                nest.append((s, f"{head}.head", False))

    _emit_nest(
        emit,
        nest,
        [slot[v] for v in free],
        lambda row: [f"yield {row}", f"if {stale}: raise _Err({_STALE_WALK!r})"],
    )
    source = "\n".join(lines)
    label = ",".join(free) + ("|" + ",".join(bound) if bound else "")
    walker = _define(source, f"<walker {label}>", bind(structures))["_walk"]
    walker.source = source
    return walker


def bound_walk(
    walkers: Dict[Tuple[str, ...], object],
    structures: Sequence[object],
    free: Sequence[str],
    binding,
) -> Iterator[Row]:
    """Start the walker for ``binding``'s variable set on its values.

    ``walkers`` is the owner's cache, keyed by the bound variables in
    ``free`` order; a set seen for the first time is compiled here, so
    the compiled variants are exactly the access patterns callers use.
    ``binding`` must name variables of ``free`` only.
    """
    bound = tuple(v for v in free if v in binding)
    walker = walkers.get(bound)
    if walker is None:
        walker = walkers[bound] = compile_walker(structures, free, bound)
    return walker(*[binding[v] for v in bound])


def loader_fuses_leaf(plan: AtomLayout) -> bool:
    """Whether the bulk loader fully finalises this plan's leaf.

    True when the deepest level is an exclusive non-root leaf: every
    row then creates a fresh item that is certainly fit with
    ``C^i = 1``, so the loader links it into its parent's fit list
    directly and the phase-2 sweep skips the node.
    """
    level = plan.levels[-1]
    return len(plan.levels) > 1 and level.exclusive and level.is_leaf


class _TrieLevel:
    """One shared cached level of a merged relation loader.

    Plans of the same relation whose repeated-variable checks (``eq``)
    agree and whose cached levels read the same q-tree node from the
    same row position share the level's prefix cache — the item locate,
    the run counter, the flush — instead of re-walking it per atom.
    """

    __slots__ = (
        "ident",
        "parent",
        "pos",
        "level",
        "childmap",
        "plans",
        "fused",
        "terminals",
        "key_positions",
    )

    def __init__(self, ident, parent, pos, level):
        self.ident = ident
        self.parent = parent  # Optional[_TrieLevel]
        self.pos = pos  # row position feeding this level
        self.level = level  # the shared LevelPlan
        self.childmap: Dict[Tuple[str, int], "_TrieLevel"] = {}
        self.plans: List[int] = []  # plan indices walking through
        self.fused: List[int] = []  # fused-leaf plans parented here
        self.terminals: List[int] = []  # plans whose deepest level sits here
        up = parent.key_positions if parent is not None else ()
        self.key_positions: Tuple[int, ...] = up + (pos,)


def compile_relation_loader(plans: Sequence[AtomPlan]) -> "object":
    """Generate the phase-1 bulk loader of one relation: a single pass
    over its rows feeding ALL of its atom plans.

    Per row and plan the loader checks the repeated-variable pattern,
    walks the item trie top-down (creating missing items) and bumps the
    atom's ``C^i_ψ`` counter.  Weights, fit lists and sums are normally
    deferred to the phase-2 finalizers of
    :meth:`ComponentStructure.bulk_load`, which touch every item
    exactly once.  Beyond baking the per-plan constants into the source
    (as :func:`compile_runner` does), three bulk-specific tricks apply:

    * every non-leaf level caches the item of the previous row's key
      prefix, so a run of rows sharing a prefix touches the upper trie
      levels once per run, with the run's ``C^i_ψ`` contribution (and
      fused-leaf bookkeeping, below) flushed in one update per run;
    * a level whose node occurs in no other atom (``exclusive``) at the
      deepest position creates its item unconditionally — set semantics
      make the key unique per row, and nobody else writes the store;
    * when that exclusive level is a non-root leaf
      (:func:`loader_fuses_leaf`), the item is *born finalised*: weight
      1, fit, linked at the tail of its parent's fit list, with the
      parent's ``C^i_u``/``C̃^i_u`` sums and list length bumped once
      per run — phase 2 then skips the node entirely.

    Several plans over one relation (self-joins) share the row loop:

    * plans are grouped by their ``eq`` checks (one guard per group —
      plans with different repeated-variable patterns see different row
      subsets and cannot share state);
    * within a group, cached levels reading the same q-tree node from
      the same row position are unified into a :class:`_TrieLevel`, so
      a shared prefix is located once per run and its flush bumps every
      plan's ``C^i_ψ`` counter in one go;
    * each plan's deepest level keeps its own per-row block (fused
      leaf, exclusive creation, or get-or-create).

    Phase-1 work is commutative counter arithmetic, so the final state
    is the one a loader per plan would leave; only the extra row loops
    and the repeated prefix walks are saved.
    """
    plans = list(plans)
    relation = plans[0].relation

    trie_nodes: List[_TrieLevel] = []
    # eq tuple → (root childmap, root-attached terminal plan indices)
    groups: Dict[Tuple[Tuple[int, int], ...], Tuple[Dict, List[int]]] = {}

    def trie_child(container: Dict, parent, key, level) -> _TrieLevel:
        existing = container.get(key)
        if existing is None:
            existing = _TrieLevel(len(trie_nodes), parent, key[1], level)
            trie_nodes.append(existing)
            container[key] = existing
        return existing

    for index, plan in enumerate(plans):
        roots, root_terminals = groups.setdefault(plan.eq, ({}, []))
        depth = len(plan.levels)
        cursor: Optional[_TrieLevel] = None
        container = roots
        for j in range(depth - 1):
            cursor = trie_child(
                container,
                cursor,
                (plan.levels[j].node, plan.extract[j]),
                plan.levels[j],
            )
            cursor.plans.append(index)
            container = cursor.childmap
        if cursor is None:
            root_terminals.append(index)
        else:
            cursor.terminals.append(index)
            if loader_fuses_leaf(plan):
                cursor.fused.append(index)

    lines: List[str] = ["def _loader(rows):"]
    emit = lines.append
    for trie in trie_nodes:
        emit(f"    p{trie.ident} = _miss")
        emit(f"    i{trie.ident} = None")
        emit(f"    n{trie.ident} = 0")
    fused_plans = {index for trie in trie_nodes for index in trie.fused}
    for index in sorted(fused_plans):
        emit(f"    fl{index} = None")
        emit(f"    tl{index} = None")

    positions = sorted(
        {pos for plan in plans for pos in plan.extract}
        | {pos for plan in plans for pair in plan.eq for pos in pair}
    )
    emit("    for row in rows:")
    for pos in positions:
        emit(f"        r{pos} = row[{pos}]")

    def emit_flush(pad: str, trie: _TrieLevel) -> None:
        item = f"i{trie.ident}"
        run = f"n{trie.ident}"
        cls = trie.level.cls
        emit(f"{pad}if {run}:")
        for index in trie.plans:
            counter = cls.atom_slot[plans[index].atom_index]
            emit(f"{pad}    {item}.{counter} += {run}")
        for index in trie.fused:
            leaf = plans[index].levels[-1]
            emit(f"{pad}    {item}.{cls.child_slot[leaf.node]} += {run}")
            if leaf.is_free:
                emit(f"{pad}    {item}.{cls.tchild_slot[leaf.node]} += {run}")
            emit(f"{pad}    fl{index}.tail = tl{index}")
            emit(f"{pad}    fl{index}.length += n{trie.ident}")
        emit(f"{pad}    n{trie.ident} = 0")

    def descendants(trie: _TrieLevel) -> Iterator[_TrieLevel]:
        for child in trie.childmap.values():
            yield child
            yield from descendants(child)

    def key_tuple(key_positions: Sequence[int]) -> str:
        return _tuple_literal([f"r{pos}" for pos in key_positions])

    def emit_terminal(pad: str, index: int, parent: Optional[_TrieLevel]) -> None:
        plan = plans[index]
        leaf = plan.levels[-1]
        ai = plan.atom_index
        parent_var = f"i{parent.ident}" if parent is not None else "None"
        counter = leaf.cls.atom_slot[ai]
        emit(f"{pad}kl{index} = {key_tuple(plan.extract)}")
        if index in fused_plans:
            # Born finalised: weight 1, fit, linked at the list tail
            # (the parent's sums and list length fold in per run).
            _emit_item_fields(
                emit, pad, f"il{index}", f"kl{index}", parent_var, leaf,
                counter, tail=f"tl{index}",
            )
            emit(f"{pad}if tl{index} is None:")
            emit(f"{pad}    fl{index}.head = il{index}")
            emit(f"{pad}else:")
            emit(f"{pad}    tl{index}.next = il{index}")
            emit(f"{pad}tl{index} = il{index}")
        elif leaf.exclusive:
            _emit_item_fields(
                emit, pad, f"il{index}", f"kl{index}", parent_var, leaf,
                counter, deferred=True,
            )
        else:
            emit(f"{pad}il{index} = _S0_{leaf.index}.get(kl{index})")
            emit(f"{pad}if il{index} is None:")
            _emit_item_fields(
                emit, pad + "    ", f"il{index}", f"kl{index}", parent_var,
                leaf, deferred=True,
            )
            emit(f"{pad}il{index}.{counter} += 1")

    def emit_trie(pad: str, trie: _TrieLevel) -> None:
        ident = trie.ident
        parent_var = (
            f"i{trie.parent.ident}" if trie.parent is not None else "None"
        )
        emit(f"{pad}if r{trie.pos} != p{ident}:")
        inner = pad + "    "
        emit_flush(inner, trie)
        for below in descendants(trie):
            emit_flush(inner, below)
            emit(f"{inner}p{below.ident} = _miss")
        emit(f"{inner}p{ident} = r{trie.pos}")
        emit(f"{inner}k{ident} = {key_tuple(trie.key_positions)}")
        emit(f"{inner}i{ident} = _S0_{trie.level.index}.get(k{ident})")
        emit(f"{inner}if i{ident} is None:")
        _emit_item_fields(
            emit, inner + "    ", f"i{ident}", f"k{ident}", parent_var,
            trie.level, deferred=True,
        )
        for index in trie.fused:
            list_slot = trie.level.cls.list_slot[plans[index].levels[-1].node]
            _emit_list_for(emit, inner, f"fl{index}", f"i{ident}", list_slot)
            emit(f"{inner}tl{index} = fl{index}.tail")
        emit(f"{pad}n{ident} += 1")
        for index in trie.terminals:
            emit_terminal(pad, index, trie)
        for child in trie.childmap.values():
            emit_trie(pad, child)

    for eq, (roots, root_terminals) in groups.items():
        if eq:
            guard = " and ".join(f"r{s} == r{t}" for s, t in eq)
            emit(f"        if {guard}:")
            pad = "            "
        else:
            pad = "        "
        body_start = len(lines)
        for trie in roots.values():
            emit_trie(pad, trie)
        for index in root_terminals:
            emit_terminal(pad, index, None)
        if eq and len(lines) == body_start:
            emit(f"{pad}pass")  # unreachable, defensive

    # Flush the pending counter runs after the stream ends.
    for trie in trie_nodes:
        emit_flush("    ", trie)

    source = "\n".join(lines)
    for plan in plans:
        plan.loader_source = source
    return _define(
        source, f"<merged loader {relation}>", plans[0].namespace
    )["_loader"]


def compile_finalizer(
    layout: Layout, node: str, namespace: Dict[str, object]
) -> "object":
    """Generate the phase-2 finalizer for one q-tree node.

    Called by :meth:`ComponentStructure.bulk_load` in reverse document
    order, the finalizer sweeps a node's item store once and computes
    everything the loaders deferred: the zero-aware decomposition, the
    weights, fit-list membership (appends inlined — every item is new
    and goes to its list's tail) and the parent child-sums.  The
    represented-atom guards and per-child factor reads are unrolled
    over the slots of the node's class; a single-rep leaf collapses to
    the constant case ``C^i = 1``.  Root finalizers return the
    ``(C_start, C̃_start)`` totals.
    """
    cls = layout.classes[node]
    up = layout.qtree.parent[node]
    parent_cls = layout.classes[up] if up is not None else None
    node_free = layout.levels[node].is_free
    children = list(cls.child_slot.values())
    single_rep_leaf = not children and len(cls.rep_slots) == 1
    lines: List[str] = ["def _finalize(items):"]
    emit = lines.append
    emit("    c_total = 0")
    emit("    t_total = 0")
    emit("    for item in items:")

    # Weight side: C^i from the unrolled factors.
    if single_rep_leaf:
        emit("        item.zf = 0")
        emit("        item.weight = 1")
        weight = "1"
    else:
        emit("        zf = 0")
        for name in cls.rep_slots:
            emit(f"        if item.{name} <= 0: zf += 1")
        emit("        nzp = 1")
        if children:
            for name in children:
                emit(f"        s = item.{name}")
                emit("        if s == 0: zf += 1")
                emit("        else: nzp *= s")
            emit("        item.nzp = nzp")
        emit("        item.zf = zf")
        emit("        w = nzp if zf == 0 else 0")
        emit("        item.weight = w")
        weight = "w"

    # Free side: C̃^i (every free item needs tzf/tnzp for later updates).
    if node_free:
        if cls.tchild_slot:
            emit("        tzf = 0")
            emit("        tnzp = 1")
            for name in cls.tchild_slot.values():
                emit(f"        s = item.{name}")
                emit("        if s == 0: tzf += 1")
                emit("        else: tnzp *= s")
            emit("        item.tzf = tzf")
            emit("        item.tnzp = tnzp")
            emit(f"        tw = tnzp if ({weight} and tzf == 0) else 0")
        else:
            emit("        item.tzf = 0")
            emit("        item.tnzp = 1")
            emit(f"        tw = 1 if {weight} else 0")
        emit("        item.tweight = tw")

    # Fit-list membership and upward propagation (fit items only).
    body: List[str] = []
    push = body.append
    if parent_cls is None:
        push("tail = _start0.tail")
        push("item.prev = tail")
        push("item.in_list = True")
        push("if tail is None: _start0.head = item")
        push("else: tail.next = item")
        push("_start0.tail = item")
        push("_start0.length += 1")
        push(f"c_total += {weight}")
        if node_free:
            push("t_total += tw")
    else:
        push("up = item.parent_item")
        _emit_list_for(push, "", "fl", "up", parent_cls.list_slot[node])
        push("tail = fl.tail")
        push("item.prev = tail")
        push("item.in_list = True")
        push("if tail is None: fl.head = item")
        push("else: tail.next = item")
        push("fl.tail = item")
        push("fl.length += 1")
        push(f"up.{parent_cls.child_slot[node]} += {weight}")
        if node_free:
            push(f"up.{parent_cls.tchild_slot[node]} += tw")
    if single_rep_leaf:
        for line in body:
            emit("        " + line)
    else:
        emit("        if w:")
        for line in body:
            emit("            " + line)
    emit("    return c_total, t_total")

    source = "\n".join(lines)
    return _define(source, f"<finalizer {node}>", namespace)["_finalize"]


def plan_summary(plans: List[AtomPlan]) -> Dict[str, object]:
    """Aggregate plan statistics for ``explain()`` / benchmarks."""
    per_relation: Dict[str, int] = {}
    for plan in plans:
        per_relation[plan.relation] = per_relation.get(plan.relation, 0) + 1
    return {
        "atom_plans": len(plans),
        "max_path_depth": max((len(p.path) for p in plans), default=0),
        "eq_checks": sum(len(p.eq) for p in plans),
        "plans_per_relation": per_relation,
    }


#: plan_stats keys worth publishing as metrics — the static shape of
#: the compiled update procedure, i.e. the ``poly(ϕ)`` factor of the
#: paper's O(poly(ϕ)) update bound made scrapeable next to the
#: observed per-update latency it predicts.
_GAUGE_KEYS = ("atom_plans", "max_path_depth", "eq_checks", "components")


def publish_plan_gauges(registry, stats: Dict[str, object], **labels) -> None:
    """Publish an engine's plan-shape statistics as registry gauges.

    Called once from :meth:`repro.interface.DynamicEngine.instrument`
    with the engine's ``plan_stats()``; only numeric, known-static keys
    become ``repro_engine_plan_<key>`` gauges, so engine-specific
    extras (dispatch tables, nested dicts) stay JSON-only.
    """
    for key in _GAUGE_KEYS:
        value = stats.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            registry.gauge(f"repro_engine_plan_{key}", **labels).set(value)
