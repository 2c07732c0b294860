"""Classification-driven engine selection (the dichotomy as a planner).

:class:`Planner` maps a query — CQ or UCQ, text or object — onto the
best registered :class:`~repro.interface.DynamicEngine`:

=============================================  =================
query shape                                    chosen engine
=============================================  =================
q-hierarchical CQ                              ``qhierarchical``
UCQ, every disjunct q-hierarchical             ``ucq_union``
any other CQ                                   ``delta_ivm``
UCQ with a non-q-hierarchical disjunct         refused, with the
                                               violation witness
=============================================  =================

Forcing an engine by name picks from the same registry, which also
holds Lemma A.2's ``phi2_appendix`` for the Appendix-A query ϕ2.  The
recompute baseline is not a served engine and cannot be forced.

The returned :class:`Plan` is the ``explain()`` artefact: it records
the classification, the reason for the choice, and the paper's
complexity guarantees (preprocessing, update time, enumeration delay,
counting) for the selected engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from repro.api.access import AccessPattern
from repro.core.qtree import try_build_q_tree
from repro.cq.analysis import QueryClassification, classify, find_violation
from repro.cq.parser import parse_many
from repro.cq.query import ConjunctiveQuery
from repro.errors import (
    EngineStateError,
    NotQHierarchicalError,
    QuerySyntaxError,
)
from repro.extensions.ucq import UnionOfCQs, supports_exact_counting
from repro.interface import ENGINE_REGISTRY, DynamicEngine
from repro.storage.database import Database

__all__ = ["Plan", "Planner", "parse_view", "AccessPattern"]

QueryLike = Union[ConjunctiveQuery, UnionOfCQs]


def parse_view(text: str, name: Optional[str] = None) -> QueryLike:
    """Parse view text: one rule is a CQ, several rules are a UCQ.

    Rules are separated by newlines or ``;``; blank lines and ``#``
    comments are skipped, as in :func:`repro.cq.parser.parse_many`.
    """
    queries = parse_many(text.replace(";", "\n"))
    if not queries:
        raise QuerySyntaxError(f"no rules found in {text!r}")
    if len(queries) == 1:
        query = queries[0]
        if name is not None:
            return ConjunctiveQuery(query.atoms, query.free, name=name)
        return query
    return UnionOfCQs(queries, name=name or queries[0].name)


#: Complexity guarantees per engine, straight from the paper.  ``n`` is
#: the active-domain size, ϕ/Φ the (U)CQ, q the number of disjuncts.
_GUARANTEES: Dict[str, Dict[str, str]] = {
    "qhierarchical": {
        "preprocessing": "O(||D|| · poly(ϕ)) (bulk load)",
        "update": "O(poly(ϕ)) — constant in the data (Theorem 3.2)",
        "delay": "O(poly(ϕ)) per tuple, duplicate-free",
        "count": "O(1)",
        "answer": "O(1)",
        "delta": "O(poly(ϕ) + δ) per update, in the update's own single "
        "pass: the runners report the fit-list flips on the touched root "
        "paths (serving-layer subscriptions)",
    },
    "ucq_union": {
        "preprocessing": "O(2^q · ||D|| · poly(Φ))",
        "update": "O(2^q · poly(Φ)) — constant in the data",
        "delay": "O(q · poly(Φ)) per tuple (Durand–Strozecki union)",
        "count": "O(2^q) via inclusion–exclusion",
        "answer": "O(q)",
        "delta": "O(2^q · poly(Φ) + q · poly(Φ) · δ) per update "
        "(per-disjunct deltas, membership-deduplicated)",
    },
    "delta_ivm": {
        "preprocessing": "O(||D|| + eval(ϕ, D)) (bulk mirror + one "
        "evaluation)",
        "update": "Θ(delta join size) — can reach the Ω(n^{1-ε}) "
        "barrier of Theorems 3.3–3.5",
        "delay": "O(1) per tuple from the materialised view",
        "count": "O(1) (materialised distinct count)",
        "answer": "O(1)",
        "delta": "free with the update: sign flips of the touched "
        "valuation counts",
    },
    "phi2_appendix": {
        "preprocessing": "O(||D||) (edge and loop sets)",
        "update": "O(1) — two dict operations (Lemma A.2)",
        "delay": "O(1) per tuple (Lemma A.2's interleaved two phases)",
        "count": "O(|E|) (Theorem 3.5 rules out O(1))",
        "answer": "O(1)",
        "delta": "O(|result|) per update (result diff)",
    },
}

_UNSTATED = "no stated guarantee for this engine"


def _binding_orders(
    query: ConjunctiveQuery,
) -> Optional[Tuple[Tuple[str, ...], ...]]:
    """Per-component free-variable q-tree orders (cursor-binding hints).

    Only defined for q-hierarchical queries; Boolean components are
    skipped (nothing to bind).  Returns None when some component has no
    q-tree — callers only ask for plans that classified q-hierarchical,
    so that is purely defensive.
    """
    orders = []
    for component in query.connected_components():
        if not component.free:
            continue
        tree = try_build_q_tree(component)
        if tree is None:
            return None
        orders.append(tuple(tree.free_document_order()))
    return tuple(orders)


@dataclass(frozen=True)
class Plan:
    """An explainable engine choice for one view.

    Attributes
    ----------
    query:
        The parsed :class:`ConjunctiveQuery` or :class:`UnionOfCQs`.
    engine:
        Registry name of the selected engine class.
    kind:
        ``"cq"`` or ``"ucq"``.
    auto:
        False when the caller forced the engine.
    reason:
        Human-readable justification (includes the Definition 3.1
        violation witness when the fallback was chosen).
    guarantees:
        ``{"preprocessing" | "update" | "delay" | "count" | "answer":
        bound}`` for the chosen engine.
    classification:
        The full three-dichotomy classification (CQ plans only).
    counting_exact:
        Whether ``count()`` meets the stated O(1)/O(2^q) bound; False
        only for UCQs whose inclusion–exclusion intersections leave the
        q-hierarchical class (counting then degrades to enumeration).
    binding_orders:
        For q-hierarchical CQ plans: one tuple per connected component
        with free variables, listing that component's free variables in
        q-tree (document) order.  A cursor binding that is
        ancestor-closed — a prefix along each branch of these orders —
        is served with O(1) pinned probes by
        ``View.cursor(X=c)``; anything else degrades to a filtered
        scan.  None when the engine has no q-tree to pin against.
    stats:
        Execution-plan statistics reported by a *built* engine
        (compiled atom plans, dispatch width, delta arms, ...).  None
        on a plan that has not been attached to an engine yet;
        :meth:`repro.api.session.View.explain` fills it in.
    observed:
        Measured update-cost and per-tuple delay percentiles from the
        view's guarantee probe (:mod:`repro.obs.probes`), rendered next
        to the promised classes.  None before any traffic, or when the
        session runs with ``observe=False``.
    access_patterns:
        Classified ``(query, access pattern)`` pairs
        (:class:`repro.api.access.AccessPattern`) — declared via
        ``Session.view(..., access=...)`` or inferred from the first
        bound cursor/subscription.  Each renders as its own guarantee
        row: serving mode (pinned / probed / indexed / filter), the promised
        lookup/delay/update classes, and — when the session observes —
        the measured per-pattern delay percentiles.
    """

    query: QueryLike
    engine: str
    kind: str
    auto: bool
    reason: str
    guarantees: Dict[str, str] = field(repr=False)
    classification: Optional[QueryClassification] = field(default=None, repr=False)
    counting_exact: bool = True
    binding_orders: Optional[Tuple[Tuple[str, ...], ...]] = field(
        default=None, repr=False
    )
    stats: Optional[Dict[str, object]] = field(default=None, repr=False)
    observed: Optional[Dict[str, object]] = field(default=None, repr=False)
    access_patterns: Tuple[AccessPattern, ...] = field(
        default=(), repr=False
    )

    def build(self, database: Optional[Database] = None) -> DynamicEngine:
        """Instantiate the planned engine (preprocessing phase)."""
        return ENGINE_REGISTRY[self.engine](self.query, database)

    def render(self) -> str:
        """The ``explain()`` report as printable text."""
        lines = [
            f"view:   {self.query}",
            f"kind:   {self.kind}",
            f"engine: {self.engine} ({'auto-selected' if self.auto else 'forced by caller'})",
            f"reason: {self.reason}",
            "guarantees:",
        ]
        observed = self.observed or {}
        for aspect in ("preprocessing", "update", "delay", "count", "answer", "delta"):
            line = f"  {aspect:<14} {self.guarantees.get(aspect, _UNSTATED)}"
            cell = _format_observed_cell(observed.get(aspect))
            if cell:
                line += f"  | observed: {cell}"
            lines.append(line)
        drift = observed.get("drift")
        if drift:
            lines.append(
                f"  DRIFT          measured delay grew "
                f"{drift['delay_ratio']}x over a {drift['size_spread']}x "
                "result-size spread although the plan promised constant "
                "delay — investigate this view's serving path"
            )
        if self.binding_orders:
            orders = " × ".join(
                "(" + ", ".join(order) + ")" for order in self.binding_orders
            )
            lines.append(
                f"cursor bindings: ancestor-closed prefixes of {orders} "
                "pin in O(1)"
            )
        if self.access_patterns:
            lines.append("access patterns:")
            bound_observed = observed.get("access_patterns", {})
            for pattern in self.access_patterns:
                label = "(" + ", ".join(pattern.variables) + ")"
                origin = "declared" if pattern.declared else "inferred"
                line = (
                    f"  {label:<14} {pattern.mode} ({origin}) — "
                    f"lookup {pattern.lookup}; delay {pattern.delay}; "
                    f"update {pattern.update}"
                )
                cell = _format_observed_cell(bound_observed.get(pattern.key))
                if cell:
                    line += f"  | observed delay: {cell}"
                lines.append(line)
        if not self.counting_exact:
            lines.append(
                "  note           exact counting degrades to enumeration "
                "(a union intersection leaves the q-hierarchical class)"
            )
        if self.stats:
            lines.append("plan stats:")
            for key in sorted(self.stats):
                lines.append(f"  {key:<14} {self.stats[key]}")
        return "\n".join(lines)

    def with_stats(self, stats: Optional[Dict[str, object]]) -> "Plan":
        """A copy of this plan carrying a built engine's statistics."""
        if not stats:
            return self
        return replace(self, stats=stats)

    def with_observed(self, observed: Optional[Dict[str, object]]) -> "Plan":
        """A copy carrying a guarantee probe's measured percentiles."""
        if not observed:
            return self
        return replace(self, observed=observed)

    def with_access_patterns(
        self, patterns: Tuple[AccessPattern, ...]
    ) -> "Plan":
        """A copy carrying the view's classified access patterns."""
        if not patterns:
            return self
        return replace(self, access_patterns=tuple(patterns))


def _format_observed_cell(cell: Optional[Dict[str, object]]) -> Optional[str]:
    """``p50=2.1µs p95=5.0µs p99=9.8µs (n=123)`` or None when unmeasured."""
    if not cell:
        return None
    return (
        f"p50={cell['p50_us']}µs p95={cell['p95_us']}µs "
        f"p99={cell['p99_us']}µs (n={cell['n']})"
    )


#: The engine for a CQ outside the q-hierarchical class.
_FALLBACK = "delta_ivm"


class Planner:
    """Select engines by the paper's dichotomy; see the module table."""

    def plan(self, query: Union[str, QueryLike], engine: str = "auto") -> Plan:
        """Plan a view: classify ``query`` and pick (or validate) an engine."""
        if isinstance(query, str):
            query = parse_view(query)
        if isinstance(query, UnionOfCQs) and len(query.disjuncts) == 1:
            query = query.disjuncts[0]
        if engine != "auto":
            return self._forced(query, engine)
        if isinstance(query, UnionOfCQs):
            return self._plan_union(query)
        return self._plan_cq(query)

    # -- the three dichotomy branches -----------------------------------------

    def _plan_cq(self, query: ConjunctiveQuery) -> Plan:
        classification = classify(query)
        if classification.q_hierarchical:
            return Plan(
                query=query,
                engine="qhierarchical",
                kind="cq",
                auto=True,
                reason="q-hierarchical (Definition 3.1) → Theorem 3.2 "
                "constant-update engine",
                guarantees=dict(_GUARANTEES["qhierarchical"]),
                classification=classification,
                binding_orders=_binding_orders(query),
            )
        witness = classification.violation.describe()
        return Plan(
            query=query,
            engine=_FALLBACK,
            kind="cq",
            auto=True,
            reason=f"not q-hierarchical ({witness}); Theorems 3.3–3.5 rule "
            f"out constant-update maintenance → {_FALLBACK} baseline",
            guarantees=dict(_GUARANTEES[_FALLBACK]),
            classification=classification,
        )

    def _plan_union(self, union: UnionOfCQs) -> Plan:
        for query in union.disjuncts:
            violation = find_violation(query)
            if violation is not None:
                raise NotQHierarchicalError(
                    f"disjunct {query} of union {union.name!r} is not "
                    f"q-hierarchical: {violation.describe()} — no dynamic "
                    "union engine is available for it; maintain the "
                    "disjuncts as separate fallback views instead",
                    violation=violation,
                )
        counting_exact = supports_exact_counting(union)
        return Plan(
            query=union,
            engine="ucq_union",
            kind="ucq",
            auto=True,
            reason=f"union of {len(union.disjuncts)} q-hierarchical "
            "disjuncts → per-disjunct Theorem 3.2 engines with "
            "inclusion–exclusion counting",
            guarantees=dict(_GUARANTEES["ucq_union"]),
            counting_exact=counting_exact,
        )

    def _forced(self, query: QueryLike, engine: str) -> Plan:
        if engine not in ENGINE_REGISTRY:
            known = ", ".join(sorted(ENGINE_REGISTRY)) + ", auto"
            raise EngineStateError(f"unknown engine {engine!r}; known: {known}")
        cls = ENGINE_REGISTRY[engine]
        if isinstance(query, UnionOfCQs) and not getattr(cls, "accepts_unions", False):
            raise EngineStateError(
                f"engine {engine!r} maintains a single conjunctive query; "
                "use 'ucq_union' or 'auto' for a union"
            )
        kind = "ucq" if isinstance(query, UnionOfCQs) else "cq"
        classification = classify(query) if kind == "cq" else None

        # Refuse plans whose build() is statically known to raise, so a
        # forced plan never advertises guarantees it cannot deliver.
        if engine in ("qhierarchical", "ucq_union"):
            disjuncts = query.disjuncts if kind == "ucq" else (query,)
            for disjunct in disjuncts:
                violation = find_violation(disjunct)
                if violation is not None:
                    raise NotQHierarchicalError(
                        f"engine {engine!r} cannot maintain {disjunct}: "
                        f"{violation.describe()}",
                        violation=violation,
                    )

        counting_exact = True
        if isinstance(query, UnionOfCQs):
            counting_exact = supports_exact_counting(query)
        return Plan(
            query=query,
            engine=engine,
            kind=kind,
            auto=False,
            reason="engine forced by caller (no classification applied)",
            guarantees=dict(_GUARANTEES.get(engine, {})),
            classification=classification,
            counting_exact=counting_exact,
            binding_orders=(
                _binding_orders(query) if engine == "qhierarchical" else None
            ),
        )
