"""Compiled update plans and enumerators for the Section 6 data structure.

The paper's update procedure is parameterised by the updated atom: it
needs the atom's repeated-variable pattern, the root path of its
representing node, and — per path node — the represented atoms, the
child lists and the free flag.  The seed implementation resolved all of
that *per update* (scanning ``query.atoms``, allocating a binding dict
per tuple, re-reading the q-tree maps at every level).  This module
resolves it **once, at structure construction**:

* an :class:`AtomPlan` per atom: the owning relation, the row→path
  value permutation (``extract``), the repeated-position equality
  checks (``eq``, replacing the seed's per-tuple binding dict), and the
  per-level :class:`LevelPlan` chain, plus the static layout of the
  result delta one update of the atom can cause (``free_depth`` /
  ``delta_slots``: which free nodes sit on the atom's root path, which
  hang off it, and where each lands in the output tuple);
* a :class:`LevelPlan` per path node: a direct reference to the node's
  item store and item class (whose slots are the node's counters, see
  :func:`repro.core.items.node_classes`), the free flag, and the
  initial zero-factor counts a freshly created item starts with (one
  zero factor per represented atom and per child — everything is empty
  at birth).

With the plan in hand, one update is: check ``eq``, permute the row
through ``extract``, and walk the precompiled level chain updating the
zero-aware counter decomposition (``Item.nzp``/``zf``/``tnzp``/``tzf``)
in O(1) arithmetic per level — no dict allocation, no atom scan, no
product re-computation.  :class:`repro.core.structure.ComponentStructure`
consumes the plans; :class:`repro.core.engine.QHierarchicalEngine`
additionally flattens them into a per-relation dispatch table so an
update touches exactly the plans that mention the relation.

The *read* half is compiled the same way.  :func:`compile_walker` emits
Algorithm 1 for one free document order as a single flat generator —
nested ``while`` loops over the fit lists' ``next`` pointers, constants
in locals, the output tuple written literally, one resume per tuple —
for a component, for a product of components, and for every set of
bound output variables callers actually use (:func:`bound_walk` keeps
one walker per set; an ancestor-closed bound prefix is pinned with a
store probe per node, anything else filters its fit list inline).
:func:`repro.core.enumeration.algorithm1` stays the hand-written walk
the generated ones are tested against, order included.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.core.items import FitList, Item
from repro.core.qtree import QTree
from repro.cq.query import ConjunctiveQuery
from repro.errors import EngineStateError
from repro.storage.database import Row

__all__ = [
    "AtomPlan",
    "LevelPlan",
    "compile_plans",
    "compile_runner",
    "compile_walker",
    "bound_walk",
    "compile_relation_loader",
    "plan_summary",
]

#: Prefix-cache sentinel for generated loaders: compares unequal to
#: every constant, so the first row always misses.
_MISS = object()


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


class LevelPlan:
    """Per-path-node metadata resolved once at compile time.

    ``store`` is the node's item dict (shared with the owning
    structure), ``cls`` its item class, ``init_zf``/``init_tzf`` the
    zero-factor counts of a newly created item: every represented atom
    and every child starts with count/sum 0, every free child with
    ``C̃``-sum 0.
    """

    __slots__ = (
        "node",
        "store",
        "cls",
        "is_free",
        "is_leaf",
        "exclusive",
        "init_zf",
        "init_tzf",
    )

    def __init__(
        self,
        node: str,
        store: Dict[Row, Item],
        cls: Type[Item],
        is_free: bool,
        is_leaf: bool,
        exclusive: bool,
        init_zf: int,
        init_tzf: int,
    ):
        self.node = node
        self.store = store
        self.cls = cls
        self.is_free = is_free
        self.is_leaf = is_leaf
        #: True when exactly one atom mentions this node, i.e. only one
        #: plan ever writes the store — its loader may create items
        #: unconditionally (keys are unique per row by set semantics).
        self.exclusive = exclusive
        self.init_zf = init_zf
        self.init_tzf = init_tzf

    def __repr__(self) -> str:
        return f"LevelPlan({self.node!r}, free={self.is_free}, zf0={self.init_zf})"


class AtomPlan:
    """The flat update recipe for one atom occurrence.

    ``extract[i]`` is the row position holding the value of the i-th
    path variable; ``eq`` lists ``(s, t)`` row-position pairs that must
    agree (the paper's side condition ``z_s = z_t ⇒ b_s = b_t`` for
    repeated variables, checked without building a binding).

    ``free_depth`` is the number of leading free levels of the path —
    the atom's *free chain* (free nodes only have free ancestors, so
    they form a prefix).  ``delta_slots`` lays out the result tuples an
    update of this atom can add or remove: one ``(parent_slot,
    list_slot, output_position)`` entry per free node of the component
    (``list_slot`` names the node's fit list on its parent item), the
    ``free_depth`` chain nodes first (in path order), then the free
    nodes hanging off the chain in document order, each after its
    parent.  A delta tuple pins the chain slots to the update's own
    path values and ranges over the fit lists of the others
    (:meth:`ComponentStructure.apply_with_delta`).
    """

    __slots__ = (
        "atom_index",
        "relation",
        "extract",
        "eq",
        "levels",
        "path",
        "free_depth",
        "delta_slots",
        "runner_source",
        "loader_source",
    )

    def __init__(
        self,
        atom_index: int,
        relation: str,
        extract: Tuple[int, ...],
        eq: Tuple[Tuple[int, int], ...],
        levels: Tuple[LevelPlan, ...],
        path: Tuple[str, ...],
        free_depth: int,
        delta_slots: Tuple[Tuple[int, Optional[str], int], ...],
    ):
        self.atom_index = atom_index
        self.relation = relation
        self.extract = extract
        self.eq = eq
        self.levels = levels
        self.path = path
        self.free_depth = free_depth
        self.delta_slots = delta_slots
        #: Filled by :func:`compile_runner` /
        #: :func:`compile_relation_loader` — the generated sources, for
        #: introspection and debugging.
        self.runner_source: str = ""
        self.loader_source: str = ""

    def matches(self, row: Row) -> bool:
        """The repeated-variable side condition, O(|eq|)."""
        for s, t in self.eq:
            if row[s] != row[t]:
                return False
        return True

    def values_of(self, row: Row) -> Row:
        """Permute a relation row into path order (no binding dict)."""
        return tuple(map(row.__getitem__, self.extract))

    def emit_delta(self, report: Tuple[int, Item], out: List[Row]) -> None:
        """Append the result tuples one update of this atom changed.

        ``report`` is what the update loop returned: the shallowest
        flipped free level and the deepest free chain item (see
        :func:`compile_runner`).  The chain slots are pinned to that
        item's root path; the tuples are visible only if the unflipped
        ancestors above the flip are fit; the remaining slots range
        over their fit lists as they stand.  Why this is exact for
        inserts and deletes alike is argued in
        :meth:`ComponentStructure.apply_with_delta`.
        """
        flip, item = report
        slots = self.delta_slots
        frames: List[Optional[Item]] = [None] * len(slots)
        row: List[object] = [None] * len(slots)
        for level in range(self.free_depth - 1, -1, -1):
            if level < flip and not item.in_list:
                return
            frames[level] = item
            row[slots[level][2]] = item.key[-1]
            item = item.parent_item
        if self.free_depth == len(slots):
            out.append(tuple(row))
        else:
            _expand_slots(slots, self.free_depth, frames, row, out)

    def __repr__(self) -> str:
        return (
            f"AtomPlan(#{self.atom_index} {self.relation}, "
            f"path={'→'.join(self.path)})"
        )


def _expand_slots(
    slots: Sequence[Tuple[int, Optional[str], int]],
    slot: int,
    frames: List[Optional[Item]],
    row: List[object],
    out: List[Row],
) -> None:
    """Nested-loop product over the off-chain delta slots from ``slot``.

    Every list visited hangs off an item that is (or, for the flipped
    items of a delete, just was) fit, so none is empty and each step
    contributes to an emitted tuple.
    """
    parent, list_slot, position = slots[slot]
    item = getattr(frames[parent], list_slot).head
    if slot + 1 == len(slots):
        while item is not None:
            row[position] = item.key[-1]
            out.append(tuple(row))
            item = item.next
    else:
        while item is not None:
            frames[slot] = item
            row[position] = item.key[-1]
            _expand_slots(slots, slot + 1, frames, row, out)
            item = item.next


def compile_plans(
    query: ConjunctiveQuery,
    qtree: QTree,
    stores: Dict[str, Dict[Row, Item]],
    classes: Dict[str, Type[Item]],
) -> List[AtomPlan]:
    """Compile one :class:`AtomPlan` per atom of a connected component.

    ``stores`` maps each q-tree node to the item dict the plans should
    write into (the structure's ``_items``), ``classes`` to its item
    class.  Returns the plan list in atom order.
    """
    free = query.free_set
    children = qtree.children
    init: Dict[str, Tuple[int, int]] = {}
    for node in qtree.parent:
        kids = children.get(node, ())
        init[node] = (
            len(qtree.rep[node]) + len(kids),
            sum(1 for u in kids if u in free),
        )

    level_cache: Dict[str, LevelPlan] = {}

    def level_for(node: str) -> LevelPlan:
        plan = level_cache.get(node)
        if plan is None:
            init_zf, init_tzf = init[node]
            plan = LevelPlan(
                node,
                stores[node],
                classes[node],
                node in free,
                not children.get(node),
                len(qtree.atoms_at[node]) == 1,
                init_zf,
                init_tzf,
            )
            level_cache[node] = plan
        return plan

    out_position = {v: i for i, v in enumerate(query.free)}
    free_order = qtree.free_document_order()

    def delta_slots(
        chain: Tuple[str, ...]
    ) -> Tuple[Tuple[int, Optional[str], int], ...]:
        order = list(chain) + [v for v in free_order if v not in chain]
        slot_of = {v: i for i, v in enumerate(order)}
        slots = []
        for v in order:
            up = qtree.parent[v]
            list_slot = classes[up].list_slot[v] if up is not None else None
            slots.append((slot_of.get(up, -1), list_slot, out_position[v]))
        return tuple(slots)

    plans: List[AtomPlan] = []
    for atom_index, atom in enumerate(query.atoms):
        path = qtree.path[qtree.rep_node_of(atom_index)]
        free_depth = sum(1 for v in path if v in free)
        first_pos: Dict[str, int] = {}
        eq: List[Tuple[int, int]] = []
        for position, var in enumerate(atom.args):
            seen = first_pos.get(var)
            if seen is None:
                first_pos[var] = position
            else:
                eq.append((seen, position))
        plan = AtomPlan(
            atom_index=atom_index,
            relation=atom.relation,
            extract=tuple(first_pos[v] for v in path),
            eq=tuple(eq),
            levels=tuple(level_for(v) for v in path),
            path=path,
            free_depth=free_depth,
            delta_slots=delta_slots(path[:free_depth]) if free_depth else (),
        )
        plans.append(plan)
    return plans


def _emit_item_fields(
    emit,
    pad: str,
    var: str,
    class_const: str,
    key_var: str,
    store_var: str,
    parent: str,
    level: LevelPlan,
    counted: Optional[str] = None,
    deferred: bool = False,
) -> None:
    """Emit an inline item-construction block with explicit names.

    Bypassing ``Item.__init__`` saves a Python frame per created item.
    The block writes exactly the slots of the node's class
    (``level.cls``): the common ones, every counter and sum at 0 — the
    one named ``counted`` at 1 — and every fit-list slot at ``None``.

    ``deferred=True`` (the bulk loader only) additionally skips the
    ``zf``/``tzf``/``tnzp`` counters: the phase-2 finalizer recomputes
    ``zf`` for every item, and sets ``tzf``/``tnzp`` for every free
    node — quantified nodes never have theirs read at all.
    """
    emit(f"{pad}{var} = _new({class_const})")
    emit(f"{pad}{var}.key = {key_var}")
    emit(f"{pad}{var}.parent_item = {parent}")
    _emit_node_slots(emit, pad, var, level.cls, counted)
    emit(f"{pad}{var}.weight = 0")
    emit(f"{pad}{var}.tweight = 0")
    emit(f"{pad}{var}.nzp = 1")
    if not deferred:
        emit(f"{pad}{var}.zf = {level.init_zf}")
        emit(f"{pad}{var}.tnzp = 1")
        emit(f"{pad}{var}.tzf = {level.init_tzf}")
    emit(f"{pad}{var}.in_list = False")
    emit(f"{pad}{var}.prev = None")
    emit(f"{pad}{var}.next = None")
    emit(f"{pad}{store_var}[{key_var}] = {var}")


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


def compile_runner(plan: AtomPlan, structure) -> "object":
    """Generate a specialised update function for one atom plan.

    A generic loop over ``plan.levels`` would pay interpreter overhead
    for work that is constant per plan: the level count, the free
    flags, the equality checks, the store references.  This generator
    bakes all of it into straight-line source — one unrolled block per
    level, branches for quantified nodes and non-rep levels removed at
    compile time — and ``exec``\\s it once per plan at structure
    construction.  The result is observationally identical to the
    seed's literal Section 6.4 loop (the test suite's reference oracle;
    the differential suite holds both to byte-identical state), several
    times faster, and the closure carries only stable objects: the
    item stores, the start list, the node item classes and the structure
    itself (for ``version``/``C_start``/``C̃_start``).  Counters are
    read and written as the slots the node classes name
    (``count = i2.c1 + delta``), never through a dict.

    The runner also *reports* the one thing about the result set it
    alone knows: whenever a free level's item enters or leaves its fit
    list it remembers the level (the walk is bottom-up, so the last one
    remembered is the shallowest), and returns ``(flip, item)`` — that
    level and the deepest free chain item it holds — or ``None`` when
    no free level flipped.  Callers that do not want the delta ignore
    the value; it costs them a local store and a compare per call.
    :meth:`ComponentStructure.apply_with_delta` turns the pair into
    the added/removed result tuples.

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
    emit("    _st.version += 1")
    if free_depth:
        emit("    flip = -1")

    # Downward walk: locate or create the item chain.
    for j in range(depth):
        level = plan.levels[j]
        key = _tuple_literal([f"v{i}" for i in range(j + 1)])
        parent = f"i{j - 1}" if j else "None"
        emit(f"    k{j} = {key}")
        emit(f"    i{j} = _S{j}.get(k{j})")
        emit(f"    if i{j} is None:")
        emit("        if not is_insert:")
        emit(f"            raise _Err(_M{j}.format(k{j}))")
        _emit_item_fields(
            emit, "        ", f"i{j}", f"_I{j}", f"k{j}", f"_S{j}", parent, level
        )
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
            emit(f"            _start.append({i})")
        else:
            list_slot = up_cls.list_slot[level.node]
            _emit_list_for(emit, "            ", "fl", f"i{j - 1}", list_slot)
            emit(f"            fl.append({i})")
        if j < free_depth:
            emit(f"            flip = {j}")
        emit(f"    elif {i}.in_list:")
        if j == 0:
            emit(f"        _start.remove({i})")
        else:
            emit(f"        i{j - 1}.{list_slot}.remove({i})")
        if j < free_depth:
            emit(f"        flip = {j}")
        if j == 0:
            emit("    if wd:")
            emit("        _st.c_start += wd")
            if level.is_free:
                emit("    if twd:")
                emit("        _st.t_start += twd")
        else:
            up = f"i{j - 1}"
            sum_slot = up_cls.child_slot[level.node]
            emit("    if wd:")
            emit(f"        olds = {up}.{sum_slot}")
            emit("        news = olds + wd")
            emit(f"        {up}.{sum_slot} = news")
            emit("        if olds == 0:")
            emit(f"            {up}.zf -= 1")
            emit(f"            {up}.nzp *= news")
            emit("        elif news == 0:")
            emit(f"            {up}.zf += 1")
            emit(f"            {up}.nzp //= olds")
            emit("        else:")
            emit(f"            {up}.nzp = {up}.nzp // olds * news")
            if level.is_free:
                sum_slot = up_cls.tchild_slot[level.node]
                emit("    if twd:")
                emit(f"        olds = {up}.{sum_slot}")
                emit("        news = olds + twd")
                emit(f"        {up}.{sum_slot} = news")
                emit("        if olds == 0:")
                emit(f"            {up}.tzf -= 1")
                emit(f"            {up}.tnzp *= news")
                emit("        elif news == 0:")
                emit(f"            {up}.tzf += 1")
                emit(f"            {up}.tnzp //= olds")
                emit("        else:")
                emit(f"            {up}.tnzp = {up}.tnzp // olds * news")
        support = " or ".join(
            ["count"]
            + [f"{i}.{name}" for name in level.cls.atom_slot.values() if name != counter]
        )
        emit(f"    if delta < 0 and not ({support}):")
        emit(f"        del _S{j}[{i}.key]")
    if free_depth:
        emit("    if flip >= 0:")
        emit(f"        return flip, i{free_depth - 1}")

    source = "\n".join(lines)
    plan.runner_source = source
    namespace: Dict[str, object] = {
        "_st": structure,
        "_start": structure.start,
        "_new": Item.__new__,
        "_FitList": FitList,
        "_Err": EngineStateError,
        "_tz": 0,
    }
    for j, level in enumerate(plan.levels):
        namespace[f"_S{j}"] = level.store
        namespace[f"_I{j}"] = level.cls
        namespace[f"_M{j}"] = (
            f"delete touches missing item [{level.node}, {{!r}}]; "
            "was the command filtered for set semantics?"
        )
    exec(compile(source, f"<plan {plan.relation}#{plan.atom_index}>", "exec"), namespace)
    return namespace["_runner"]


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
    namespace: Dict[str, object] = {"_Err": EngineStateError}

    for c, structure in enumerate(structures):
        namespace[f"_st{c}"] = structure
        namespace[f"_start{c}"] = structure.start
        emit(f"    if _st{c}.c_start <= 0: return")
    for c in range(len(structures)):
        emit(f"    ver{c} = _st{c}.version")
    stale = " or ".join(
        f"_st{c}.version != ver{c}" for c in range(len(structures))
    )

    # Slot s = the s-th free node in nest order; i{s} holds its current
    # item, c{s} its constant.  Pinned slots resolve here, before the
    # nest (their keys depend on the arguments alone).  Every other
    # slot is a nest level (slot, first item, probed): a walk over its
    # fit list, or — bound below an unbound parent — an ``if`` around
    # the one item the probe finds.
    slot: Dict[str, int] = {}
    pinned: set = set()
    nest: List[Tuple[int, str, bool]] = []
    for c, structure in enumerate(structures):
        tree = structure.qtree
        for node in structure.free_order:
            s = slot[node] = len(slot)
            up = tree.parent[node]
            if node in argument and (up is None or up in pinned):
                pinned.add(node)
                namespace[f"_S{s}"] = structure._items[node]
                key = _tuple_literal([argument[v] for v in tree.path[node]])
                emit(f"    i{s} = _S{s}.get({key})")
                emit(f"    if i{s} is None or not i{s}.in_list: return")
                emit(f"    c{s} = i{s}.key[-1]")
            elif node in argument:
                namespace[f"_S{s}"] = structure._items[node]
                key = _tuple_literal([argument[node]])
                nest.append((s, f"_S{s}.get(i{slot[up]}.key + {key})", True))
            else:
                head = (
                    f"_start{c}"
                    if up is None
                    else f"i{slot[up]}.{structure.item_classes[up].list_slot[node]}"
                )
                nest.append((s, f"{head}.head", False))

    pad = "    "
    value = {s: f"c{s}" for s in slot.values()}
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
    emit(f"{pad}yield {_tuple_literal([value[slot[v]] for v in free])}")
    emit(f"{pad}if {stale}: raise _Err({_STALE_WALK!r})")
    for s, _head, probed in reversed(nest):
        if not probed:
            emit(f"{pad}i{s} = i{s}.next")
        pad = pad[:-4]

    source = "\n".join(lines)
    label = ",".join(free) + ("|" + ",".join(bound) if bound else "")
    exec(compile(source, f"<walker {label}>", "exec"), namespace)
    walker = namespace["_walk"]
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


def loader_fuses_leaf(plan: AtomPlan) -> bool:
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
            emit(f"{pad}il{index} = _new(_IL{index})")
            emit(f"{pad}il{index}.key = kl{index}")
            emit(f"{pad}il{index}.parent_item = {parent_var}")
            _emit_node_slots(emit, pad, f"il{index}", leaf.cls, counter)
            emit(f"{pad}il{index}.weight = 1")
            emit(f"{pad}il{index}.tweight = {1 if leaf.is_free else 0}")
            emit(f"{pad}il{index}.nzp = 1")
            emit(f"{pad}il{index}.zf = 0")
            if leaf.is_free:
                emit(f"{pad}il{index}.tnzp = 1")
                emit(f"{pad}il{index}.tzf = 0")
            emit(f"{pad}il{index}.in_list = True")
            emit(f"{pad}il{index}.prev = tl{index}")
            emit(f"{pad}il{index}.next = None")
            emit(f"{pad}if tl{index} is None:")
            emit(f"{pad}    fl{index}.head = il{index}")
            emit(f"{pad}else:")
            emit(f"{pad}    tl{index}.next = il{index}")
            emit(f"{pad}tl{index} = il{index}")
            emit(f"{pad}_L{index}[kl{index}] = il{index}")
        elif leaf.exclusive:
            _emit_item_fields(
                emit, pad, f"il{index}", f"_IL{index}", f"kl{index}",
                f"_L{index}", parent_var, leaf, counter, deferred=True,
            )
        else:
            emit(f"{pad}il{index} = _L{index}.get(kl{index})")
            emit(f"{pad}if il{index} is None:")
            _emit_item_fields(
                emit, pad + "    ", f"il{index}", f"_IL{index}", f"kl{index}",
                f"_L{index}", parent_var, leaf, deferred=True,
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
        emit(f"{inner}i{ident} = _S{ident}.get(k{ident})")
        emit(f"{inner}if i{ident} is None:")
        _emit_item_fields(
            emit, inner + "    ", f"i{ident}", f"_I{ident}", f"k{ident}",
            f"_S{ident}", parent_var, trie.level, deferred=True,
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
    namespace: Dict[str, object] = {
        "_new": Item.__new__,
        "_miss": _MISS,
        "_FitList": FitList,
    }
    for trie in trie_nodes:
        namespace[f"_S{trie.ident}"] = trie.level.store
        namespace[f"_I{trie.ident}"] = trie.level.cls
    for index, plan in enumerate(plans):
        leaf = plan.levels[-1]
        namespace[f"_L{index}"] = leaf.store
        namespace[f"_IL{index}"] = leaf.cls
        plan.loader_source = source
    exec(
        compile(source, f"<merged loader {relation}>", "exec"),
        namespace,
    )
    return namespace["_loader"]


def compile_finalizer(
    cls: Type[Item],
    parent_cls: Optional[Type[Item]],
    node_free: bool,
    start,
) -> "object":
    """Generate the phase-2 finalizer for one q-tree node.

    Called by :meth:`ComponentStructure.bulk_load` in reverse document
    order, the finalizer sweeps a node's item store once and computes
    everything the loaders deferred: the zero-aware decomposition, the
    weights, fit-list membership (appends inlined — every item is new
    and goes to its list's tail) and the parent child-sums.  ``cls`` is
    the node's item class and ``parent_cls`` its parent's (``None`` at
    the root); the represented-atom guards and per-child factor reads
    are unrolled over their slots; a single-rep leaf collapses to the
    constant case ``C^i = 1``.  Root finalizers return the
    ``(C_start, C̃_start)`` totals.
    """
    node = cls.node
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
        push("tail = _start.tail")
        push("item.prev = tail")
        push("item.in_list = True")
        push("if tail is None: _start.head = item")
        push("else: tail.next = item")
        push("_start.tail = item")
        push("_start.length += 1")
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
    namespace: Dict[str, object] = {"_start": start, "_FitList": FitList}
    exec(compile(source, f"<finalizer {node}>", "exec"), namespace)
    return namespace["_finalize"]


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
