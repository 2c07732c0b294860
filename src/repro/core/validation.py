"""Exhaustive invariant checking for the Section 6 data structure.

:func:`check_structure` recomputes, from the engine's database and the
definitions of Section 6.2, everything the incremental code maintains —
presence of items, the counters ``C^i_ψ``, the weights ``C^i`` / ``C̃^i``,
fit flags, list sums and the start totals — and reports every
discrepancy.  O(||D||·poly(ϕ)) per call: this is a *debugging and
property-testing* tool, not a runtime path.

The property suite runs it after random update streams; if the O(1)
update procedure ever drifts from the paper's invariants, the report
pinpoints the first broken item.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.structure import ComponentStructure
from repro.cq.query import ConjunctiveQuery
from repro.eval_static.naive import evaluate_sources, sources_from_database
from repro.storage.database import Constant, Database, Row

__all__ = ["check_structure", "check_engine", "StructureReport"]


class StructureReport:
    """Accumulated invariant violations (empty == structure is sound)."""

    def __init__(self) -> None:
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        if self.ok:
            return "structure OK"
        head = f"{len(self.errors)} invariant violation(s):"
        return "\n".join([head] + [f"  - {e}" for e in self.errors[:20]])


def _expansion_count(
    query: ConjunctiveQuery,
    database: Database,
    atom_indices: List[int],
    binding: Dict[str, Constant],
) -> int:
    """Number of expansions of ``binding`` satisfying the given atoms
    (the cardinality of ``E^i`` when ``atom_indices = atoms(v)``)."""
    all_pairs = sources_from_database(query, database)
    pairs = [all_pairs[i] for i in atom_indices]
    counts = evaluate_sources(pairs, (), binding)
    return counts.get((), 0)


def _projected_count(
    query: ConjunctiveQuery,
    database: Database,
    atom_indices: List[int],
    binding: Dict[str, Constant],
    free: frozenset,
) -> int:
    """``|E~^i|``: distinct free-variable projections of ``E^i``."""
    all_pairs = sources_from_database(query, database)
    pairs = [all_pairs[i] for i in atom_indices]
    relevant = sorted(
        {v for i in atom_indices for v in query.atoms[i].variables} & free
    )
    counts = evaluate_sources(pairs, relevant, binding)
    return len(counts)


def check_structure(
    structure: ComponentStructure, database: Database
) -> StructureReport:
    """Validate one component structure against its database."""
    report = StructureReport()
    query = structure.query
    tree = structure.qtree
    free = query.free_set

    for node in tree.document_order():
        atom_indices = tree.atoms_at[node]
        path = tree.path[node]
        for item in structure.items_at(node):
            binding = dict(zip(path, item.key))
            label = f"[{node}, {item.key!r}]"

            # Presence: some C^i_ψ must be positive, and each counter
            # must equal the per-atom expansion count.
            for atom_index in atom_indices:
                expected = _expansion_count(
                    query, database, [atom_index], binding
                )
                stored = item.atom_count(atom_index)
                if stored != expected:
                    report.fail(
                        f"{label} C_psi[{query.atoms[atom_index]}] = "
                        f"{stored}, expected {expected}"
                    )
            if not item.has_support():
                report.fail(f"{label} present without supporting atom")

            # Weight: C^i = |E^i| over atoms(v).
            expected_weight = _expansion_count(
                query, database, atom_indices, binding
            )
            if item.weight != expected_weight:
                report.fail(
                    f"{label} C = {item.weight}, expected {expected_weight}"
                )

            # Fit flag and list membership.
            if item.in_list != (item.weight > 0):
                report.fail(
                    f"{label} in_list={item.in_list} but C={item.weight}"
                )

            # C̃ for free nodes: distinct free projections of E^i.
            if node in free:
                expected_t = _projected_count(
                    query, database, atom_indices, binding, free
                )
                if item.tweight != expected_t:
                    report.fail(
                        f"{label} C~ = {item.tweight}, expected {expected_t}"
                    )

            # Cached child sums match the fit lists.
            for child in tree.children.get(node, ()):
                fit_list = item.fit_list(child)
                total = sum(c.weight for c in fit_list) if fit_list else 0
                if item.child_total(child) != total:
                    report.fail(
                        f"{label} child_sum[{child}] = "
                        f"{item.child_total(child)}, lists say {total}"
                    )
                if child in free:
                    t_total = (
                        sum(c.tweight for c in fit_list) if fit_list else 0
                    )
                    if item.tchild_total(child) != t_total:
                        report.fail(
                            f"{label} tchild_sum[{child}] = "
                            f"{item.tchild_total(child)}, "
                            f"lists say {t_total}"
                        )

    # Start totals.
    start_weight = sum(item.weight for item in structure.start)
    if structure.c_start != start_weight:
        report.fail(
            f"C_start = {structure.c_start}, start list sums to {start_weight}"
        )
    if free:
        start_t = sum(item.tweight for item in structure.start)
        if structure.t_start != start_t:
            report.fail(
                f"C~_start = {structure.t_start}, start list sums to {start_t}"
            )

    # No item may be missed: every satisfying valuation's prefixes exist.
    for node in tree.document_order():
        atom_indices = tree.atoms_at[node]
        path = tree.path[node]
        seen = set()
        pairs_atoms = [query.atoms[i] for i in atom_indices]
        for atom_index in atom_indices:
            atom = query.atoms[atom_index]
            for row in database.relation(atom.relation).rows:
                binding: Optional[Dict[str, Constant]] = {}
                for var, value in zip(atom.args, row):
                    if binding is None:
                        break
                    existing = binding.get(var)
                    if existing is None:
                        binding[var] = value
                    elif existing != value:
                        binding = None
                if binding is None:
                    continue
                key = tuple(binding[v] for v in path if v in binding)
                if len(key) == len(path):
                    seen.add(key)
        for key in seen:
            if structure.item(node, key) is None:
                report.fail(f"missing item [{node}, {key!r}]")

    return report


def check_engine(engine) -> StructureReport:
    """Validate every component structure of a QHierarchicalEngine."""
    report = StructureReport()
    for structure in engine.structures:
        sub = check_structure(structure, engine.database)
        report.errors.extend(sub.errors)
    return report
