"""Access patterns: bindings as one first-class, classified concept.

"Conjunctive Queries with Free Access Patterns under Updates"
(Kara/Nikolic/Olteanu/Zhang; see PAPERS.md) frames parameterized
serving as a *classification problem over (query, access pattern)
pairs*: the same view can answer some bound accesses with the full
Theorem 3.2 guarantees, others only through extra maintained state, and
the rest only by scanning.  This module is the shared vocabulary for
that frontier:

* :func:`normalize_binding` — the one way every surface
  (``View.cursor``, ``View.subscribe``, ``Server.open_cursor``, the
  cluster ops) turns the ``binding=`` dict / ``**variables`` keyword
  dual into a validated binding, with collision errors that name the
  colliding parameter and did-you-mean suggestions for typos.
* :func:`classify_access_pattern` — map a ``(query, engine, bound
  variables)`` triple onto one of four serving modes:

  =========  ==========================================================
  mode       meaning
  =========  ==========================================================
  pinned     the bound set is ancestor-closed in every component's
             q-tree — O(1) root-path item probes, no extra state
             (today's ``Plan.binding_orders`` prefix case)
  probed     q-hierarchical but not prefix-pinnable: a bound variable
             below an unbound ancestor is one item probe per item of
             the unbound levels — no extra state, so the update stays
             Theorem 3.2's O(1), but the delay is bounded by those
             levels' fit lists, not constant
  indexed    delta-IVM only: a hash index from bound-value tuples to
             output rows, patched where a maintained count crosses
             zero — O(1) lookup, +O(δ) inside the O(|δ|) update that
             engine already pays
  filter     no structural path (the Appendix engine): bound reads
             scan and filter the full result
  =========  ==========================================================

No engine on Theorem 3.2's side keeps state for a binding, so a bound
read never changes what an update costs.

* :class:`AccessPattern` — the classified pair, carried on the
  :class:`~repro.api.planner.Plan` so ``explain()`` renders one
  guarantee row per pattern next to the per-pattern observed delay
  percentiles (:mod:`repro.obs.probes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from typing import (
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.qtree import try_build_q_tree
from repro.errors import QueryStructureError

__all__ = [
    "AccessPattern",
    "classify_access_pattern",
    "normalize_binding",
    "normalize_access_declaration",
]


#: Per-mode complexity rows, phrased like the planner's ``_GUARANTEES``.
_MODE_GUARANTEES: Dict[str, Dict[str, str]] = {
    "pinned": {
        "lookup": "O(1) root-path item probes (ancestor-closed binding)",
        "delay": "O(poly(ϕ)) per tuple, constant in the data",
        "update": "no extra cost (reuses the q-tree items)",
    },
    "probed": {
        "lookup": "one item probe per item on the unbound ancestor levels",
        "delay": "bounded by the unbound ancestors' fit lists, not constant",
        "update": "no extra cost (no state kept for the binding)",
    },
    "indexed": {
        "lookup": "O(1) hash probe on the maintained binding index",
        "delay": "O(1) per tuple from the indexed bucket",
        "update": "+O(δ) index upkeep inside delta-IVM's O(|δ|) update",
    },
    "filter": {
        "lookup": "O(|result|) filtered scan (no index-backed path)",
        "delay": "proportional to tuples skipped",
        "update": "no extra cost",
    },
}


@dataclass(frozen=True)
class AccessPattern:
    """One classified (query, access pattern) pair.

    ``variables`` is the bound set in the view's output order — the
    canonical pattern key.  ``mode`` is ``"pinned"`` / ``"probed"`` /
    ``"indexed"`` / ``"filter"`` (see the module table), ``declared``
    whether the pattern came from ``Session.view(..., access=...)`` or
    was inferred from the first bound use, and the remaining fields are
    the guarantee row ``explain()`` prints.
    """

    variables: Tuple[str, ...]
    mode: str
    declared: bool
    reason: str
    lookup: str
    delay: str
    update: str

    @property
    def key(self) -> str:
        """Metrics/render label: the bound variables, comma-joined."""
        return ",".join(self.variables)

    def describe(self) -> str:
        origin = "declared" if self.declared else "inferred"
        return (
            f"({', '.join(self.variables)}) {self.mode} [{origin}]: "
            f"{self.reason}"
        )


def _suggest(name: str, candidates: Sequence[str]) -> Optional[str]:
    matches = get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


def normalize_binding(
    binding: Optional[Mapping[str, object]] = None,
    variables: Optional[Mapping[str, object]] = None,
    *,
    free: Optional[Sequence[str]] = None,
    context: str = "cursor()",
    parameters: Sequence[str] = ("binding", "snapshot"),
    flags: Optional[Mapping[str, object]] = None,
) -> Optional[Dict[str, object]]:
    """Merge the ``binding=`` dict / ``**variables`` dual into one dict.

    The single normalization path behind ``View.cursor``,
    ``View.subscribe``, ``Server.open_cursor``/``subscribe``, the
    cluster's ``open_cursor``/``subscribe`` ops and every
    ``enumerate_bound`` caller.  Returns the merged binding, or None
    when nothing is bound.

    * ``binding`` must be a mapping; anything else means a query
      variable named ``binding`` collided with the parameter, and the
      error says exactly how to disambiguate.
    * A variable bound through both spellings at once is rejected.
    * With ``free`` given, unknown names are rejected eagerly with a
      did-you-mean: the closest match among the output variables and
      the surface's ``parameters`` (so the typo ``dispacher`` suggests
      the *parameter* ``dispatcher``, not a variable).
    * ``flags`` carries reserved keyword parameters (e.g. the received
      ``snapshot`` value): when the view also has an output variable of
      that name and the caller passed a non-flag value, the collision
      is named instead of silently coercing to a truthy flag.
    """
    if binding is not None and not isinstance(binding, Mapping):
        raise QueryStructureError(
            f"{context} received binding={binding!r}: the 'binding' "
            "parameter takes a dict of variable bindings.  If the view "
            "has an output variable literally named 'binding', pass it "
            "inside the dict — binding={'binding': value} — to avoid "
            "colliding with the parameter name"
        )
    merged: Dict[str, object] = dict(binding or {})
    for name, value in (variables or {}).items():
        if name in merged and merged[name] != value:
            raise QueryStructureError(
                f"{context} binds {name!r} twice with different values "
                f"({merged[name]!r} via binding= and {value!r} as a "
                "keyword); bind it once"
            )
        merged[name] = value
    if free is not None:
        free_tuple = tuple(free)
        free_set = set(free_tuple)
        for name, value in (flags or {}).items():
            if name in free_set and not isinstance(value, bool):
                raise QueryStructureError(
                    f"output variable {name!r} collides with the "
                    f"{name!r} parameter of {context}; bind it through "
                    f"the dict instead: binding={{{name!r}: "
                    f"{value!r}}}"
                )
        unknown = [v for v in merged if v not in free_set]
        if unknown:
            name = sorted(unknown)[0]
            suggestion = _suggest(name, list(free_tuple) + list(parameters))
            if suggestion in set(parameters):
                hint = f"; did you mean the parameter {suggestion!r}?"
            elif suggestion is not None:
                hint = f"; did you mean the output variable {suggestion!r}?"
            else:
                hint = ""
            raise QueryStructureError(
                f"unknown keyword {name!r} for {context}: not an output "
                f"variable (free: {free_tuple}){hint}"
            )
    return merged or None


def normalize_access_declaration(
    access: object, free: Sequence[str], context: str
) -> Tuple[Tuple[str, ...], ...]:
    """Turn ``Session.view(..., access=...)`` input into pattern keys.

    Accepts one pattern (``"u"`` or an iterable of variable names, e.g.
    ``{"u"}`` / ``("u", "x")``) or several (an iterable of such
    patterns).  Every pattern is validated against ``free`` and
    canonicalised to the output-variable order.
    """
    free_tuple = tuple(free)
    free_set = set(free_tuple)

    def one(pattern: object) -> Tuple[str, ...]:
        if isinstance(pattern, str):
            names: Iterable[str] = (pattern,)
        else:
            names = tuple(pattern)  # type: ignore[arg-type]
        chosen: Set[str] = set()
        for name in names:
            if not isinstance(name, str):
                raise QueryStructureError(
                    f"{context}: access patterns are variable names, "
                    f"got {name!r}"
                )
            if name not in free_set:
                suggestion = _suggest(name, free_tuple)
                hint = (
                    f"; did you mean {suggestion!r}?" if suggestion else ""
                )
                raise QueryStructureError(
                    f"{context}: access pattern variable {name!r} is "
                    f"not an output variable (free: {free_tuple})"
                    f"{hint}"
                )
            chosen.add(name)
        if not chosen:
            raise QueryStructureError(
                f"{context}: an access pattern needs at least one "
                "bound variable"
            )
        return tuple(v for v in free_tuple if v in chosen)

    if isinstance(access, str):
        return (one(access),)
    items = tuple(access)  # type: ignore[arg-type]
    if items and all(not isinstance(item, str) for item in items):
        return tuple(one(item) for item in items)
    return (one(items),)


def _component_ancestor_closed(query, bound: Set[str]) -> Optional[bool]:
    """Whether ``bound`` is ancestor-closed in every component q-tree.

    None when some component has no q-tree (not q-hierarchical) — the
    caller then knows pinning is off the table entirely.
    """
    for component in query.connected_components():
        local = bound & set(component.free)
        if not local:
            continue
        tree = try_build_q_tree(component)
        if tree is None:
            return None
        for variable in local:
            # Free variables form a connected subtree containing the
            # root (Definition 4.1), so every ancestor of a free
            # variable is free; ancestor-closure is simply "the whole
            # root path above me is bound too".
            if any(up not in local for up in tree.path[variable][:-1]):
                return False
    return True


def classify_access_pattern(
    query,
    engine_name: str,
    variables: Sequence[str],
    declared: bool = False,
) -> AccessPattern:
    """Classify one ``(query, access pattern)`` pair for an engine.

    ``variables`` must be output variables of ``query`` (a CQ or a
    :class:`~repro.extensions.ucq.UnionOfCQs`); the returned pattern
    carries them in output order plus the mode and the guarantee row.
    """
    free = tuple(query.free)
    free_set = set(free)
    bound = set(variables)
    unknown = sorted(bound - free_set)
    if unknown:
        raise QueryStructureError(
            f"cannot bind {unknown}: not output variables of "
            f"{query.name!r} (free: {free})"
        )
    if not bound:
        raise QueryStructureError(
            "an access pattern needs at least one bound variable"
        )
    key = tuple(v for v in free if v in bound)

    if engine_name == "qhierarchical":
        if _component_ancestor_closed(query, bound):
            mode = "pinned"
            reason = (
                "ancestor-closed in every component q-tree — served by "
                "O(1) root-path item probes, no extra state"
            )
        else:
            mode = "probed"
            reason = (
                "not ancestor-closed in the q-tree (a bound variable "
                "sits below an unbound ancestor) — probed under each "
                "item of the unbound levels, no extra state"
            )
    elif engine_name == "ucq_union":
        position = {v: i for i, v in enumerate(free)}
        if all(
            _component_ancestor_closed(
                disjunct, {tuple(disjunct.free)[position[v]] for v in bound}
            )
            # a plain CQ served by the union engine is one disjunct
            for disjunct in getattr(query, "disjuncts", (query,))
        ):
            mode = "pinned"
            reason = (
                "ancestor-closed in every disjunct's q-tree — each "
                "disjunct pins with O(1) probes, the union folds "
                "them duplicate-free"
            )
        else:
            mode = "probed"
            reason = (
                "some disjunct cannot pin this pattern — it probes "
                "under its unbound levels, the union folds the "
                "disjuncts duplicate-free, no extra state"
            )
    elif engine_name == "delta_ivm":
        mode = "indexed"
        reason = (
            "materialised view — bound reads probe a hash index over "
            "the maintained result, patched where a count crosses zero"
        )
    else:
        mode = "filter"
        reason = (
            f"the {engine_name} engine has no structural bound path — "
            "bound reads filter the enumerated result"
        )
    row = _MODE_GUARANTEES[mode]
    return AccessPattern(
        variables=key,
        mode=mode,
        declared=declared,
        reason=reason,
        lookup=row["lookup"],
        delay=row["delay"],
        update=row["update"],
    )
