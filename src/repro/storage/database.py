"""In-memory relational storage with set semantics and update support.

This is the database substrate of Section 2: a σ-db is a finite set of
tuples per relation symbol over a countably infinite domain, updated by
single-tuple ``insert``/``delete`` commands.  Constants may be any
hashable Python values (the paper takes ``dom = N``, but nothing here
depends on that).

A :class:`Database` stores the relation sets and nothing else:
``|D|`` is a sum of relation lengths, and ``adom(D)`` (hence ``n``, the
parameter of all the paper's bounds) is computed when asked, in
O(||D||).  No update command touches any cross-relation state, so
threads writing disjoint relations of one store do not race.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SchemaError, UpdateError

__all__ = ["Constant", "Row", "Relation", "Schema", "Database"]

Constant = Hashable
Row = Tuple[Constant, ...]


class Schema:
    """A fixed mapping from relation names to arities."""

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int]):
        for name, arity in arities.items():
            if arity < 1:
                raise SchemaError(f"relation {name!r} needs arity >= 1, got {arity}")
        self._arities: Dict[str, int] = dict(arities)

    @classmethod
    def from_query(cls, query: "Any") -> "Schema":
        """Derive the schema a query needs (one entry per relation)."""
        return cls({rel: query.arity_of(rel) for rel in query.relations})

    def arity(self, relation: str) -> int:
        try:
            return self._arities[relation]
        except KeyError:
            raise SchemaError(f"unknown relation {relation!r}") from None

    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._arities))

    def __contains__(self, relation: str) -> bool:
        return relation in self._arities

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._arities == other._arities

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in sorted(self._arities.items()))
        return f"Schema({inner})"


class Relation:
    """A named finite set of equal-length tuples."""

    __slots__ = ("name", "arity", "_rows")

    def __init__(self, name: str, arity: int, rows: Iterable[Sequence[Constant]] = ()):
        if arity < 1:
            raise SchemaError(f"relation {name!r} needs arity >= 1, got {arity}")
        self.name = name
        self.arity = arity
        self._rows: Set[Row] = set()
        for row in rows:
            self.insert(tuple(row))

    def _check(self, row: Sequence[Constant]) -> Row:
        row = tuple(row)
        if len(row) != self.arity:
            raise UpdateError(
                f"tuple {row!r} has arity {len(row)}, relation "
                f"{self.name!r} expects {self.arity}"
            )
        return row

    def insert(self, row: Sequence[Constant]) -> bool:
        """Add a tuple; returns True iff the relation changed."""
        row = self._check(row)
        if row in self._rows:
            return False
        self._rows.add(row)
        return True

    def bulk_insert(
        self, rows: Iterable[Sequence[Constant]], checked: bool = False
    ) -> FrozenSet[Row]:
        """Add many tuples at once; returns the genuinely new ones.

        Deduplication against the present contents happens with one set
        difference instead of a membership test per row — the bulk
        half of the engines' preprocessing path.  ``checked=True``
        skips the per-row arity check and tuple copy; it requires
        ``rows`` to be a set of equal-arity tuples (e.g. another
        :class:`Relation`'s ``rows`` whose arity the caller verified).
        """
        if checked and isinstance(rows, (set, frozenset)):
            fresh = frozenset(rows - self._rows)
        else:
            candidate = {self._check(row) for row in rows}
            fresh = frozenset(candidate - self._rows)
        self._rows |= fresh
        return fresh

    def delete(self, row: Sequence[Constant]) -> bool:
        """Remove a tuple; returns True iff the relation changed."""
        row = self._check(row)
        if row not in self._rows:
            return False
        self._rows.remove(row)
        return True

    def __contains__(self, row: Sequence[Constant]) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> FrozenSet[Row]:
        return frozenset(self._rows)

    def copy(self) -> "Relation":
        clone = Relation(self.name, self.arity)
        clone._rows = set(self._rows)
        return clone

    def __repr__(self) -> str:
        return f"Relation({self.name}/{self.arity}, {len(self)} rows)"


class Database:
    """A σ-db: one :class:`Relation` per symbol.

    The schema is the set of relations present; :meth:`add_relation`
    grows it, so one store can serve queries registered over time.
    """

    def __init__(self, schema: Schema):
        self._relations: Dict[str, Relation] = {
            name: Relation(name, schema.arity(name)) for name in schema.relations()
        }

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        relations: Mapping[str, Iterable[Sequence[Constant]]],
        schema: Optional[Schema] = None,
    ) -> "Database":
        """Build a database from ``{name: iterable of tuples}``.

        Without an explicit schema, arities are inferred from the first
        tuple of each relation; empty relations require a schema.
        """
        if schema is None:
            arities: Dict[str, int] = {}
            for name, rows in relations.items():
                rows = list(rows)
                if not rows:
                    raise SchemaError(
                        f"cannot infer arity of empty relation {name!r}; "
                        "pass an explicit Schema"
                    )
                arities[name] = len(rows[0])
            schema = Schema(arities)
        db = cls(schema)
        for name, rows in relations.items():
            for row in rows:
                db.insert(name, row)
        return db

    @classmethod
    def empty_like(cls, query: "Any") -> "Database":
        """An empty database over the schema a query requires."""
        return cls(Schema.from_query(query))

    def copy(self) -> "Database":
        clone = Database(Schema({}))
        clone._relations = {
            name: relation.copy() for name, relation in self._relations.items()
        }
        return clone

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return Schema(
            {name: relation.arity for name, relation in self._relations.items()}
        )

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def add_relation(self, name: str, arity: int) -> None:
        """Add relation ``name``, empty, unless the store has it.

        The one way a store gains a relation: an engine built over a
        store — a session's, shared by all its views — adds the
        relations of its query here.  A present relation of another
        arity raises :class:`SchemaError`.
        """
        relation = self._relations.get(name)
        if relation is None:
            self._relations[name] = Relation(name, arity)
        elif relation.arity != arity:
            raise SchemaError(
                f"relation {name!r} has arity {relation.arity}, "
                f"query expects {arity}"
            )

    def remove_relation(self, name: str) -> None:
        """Give back relation ``name`` if it is present and empty — what
        a failed registration added over a shared store."""
        relation = self._relations.get(name)
        if relation is not None and not relation._rows:
            del self._relations[name]

    def relations(self) -> Tuple[Relation, ...]:
        return tuple(self._relations[name] for name in sorted(self._relations))

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, name: str, row: Sequence[Constant]) -> bool:
        """``insert R(a1, ..., ar)``; True iff the database changed.

        Inlined hot path: this runs once per update command — the
        session's one store write, or a standalone engine's gate — so
        the per-row work is a membership probe and a set add, no
        intermediate frames.
        """
        relation = self._relations.get(name)
        if relation is None:
            raise SchemaError(f"unknown relation {name!r}")
        row = tuple(row)
        rows = relation._rows
        if row in rows:
            return False
        if len(row) != relation.arity:
            raise UpdateError(
                f"tuple {row!r} has arity {len(row)}, relation "
                f"{name!r} expects {relation.arity}"
            )
        rows.add(row)
        return True

    def bulk_insert(
        self,
        name: str,
        rows: Iterable[Sequence[Constant]],
        checked: bool = False,
    ) -> FrozenSet[Row]:
        """Insert many tuples in one shot; returns the genuinely new ones.

        Equivalent to calling :meth:`insert` per row, but the
        deduplication is a single set difference.  ``checked`` is
        forwarded to :meth:`Relation.bulk_insert`.
        """
        return self.relation(name).bulk_insert(rows, checked=checked)

    def fold_stream(
        self, commands, grouped: Optional[Dict[str, Tuple[list, list]]] = None
    ) -> Tuple[int, Dict[str, Tuple[list, list]]]:
        """Apply a command stream with the sequential set-semantics
        filter in one pass; returns ``(effective_count, grouped)`` where
        ``grouped`` maps each touched relation to its effective
        ``(rows, flags)`` in stream order (flag ``True`` for an insert,
        ``False`` for a delete).

        Equivalent to calling :meth:`insert`/:meth:`delete` per command
        and keeping the ones that changed the database; the
        per-relation grouping
        :meth:`repro.core.engine.QHierarchicalEngine.apply_all` walks
        its runners over rides the same loop.  On a mid-stream error
        the commands already applied stay applied; a caller that must
        act on that prefix passes its own ``grouped`` dict, which is
        filled in place.
        """
        relations = self._relations
        if grouped is None:
            grouped = {}
        changed = 0
        for command in commands:
            name = command.relation
            relation = relations.get(name)
            if relation is None:
                raise SchemaError(f"unknown relation {name!r}")
            row = command.row
            rows = relation._rows
            if command.op == "insert":
                if row in rows:
                    continue
                if len(row) != relation.arity:
                    raise UpdateError(
                        f"tuple {row!r} has arity {len(row)}, relation "
                        f"{name!r} expects {relation.arity}"
                    )
                rows.add(row)
                is_insert = True
            else:
                if row not in rows:
                    if len(row) != relation.arity:
                        relation._check(row)  # precise arity error
                    continue
                rows.remove(row)
                is_insert = False
            changed += 1
            group = grouped.get(name)
            if group is None:
                group = ([], [])
                grouped[name] = group
            group[0].append(row)
            group[1].append(is_insert)
        return changed, grouped

    def delete(self, name: str, row: Sequence[Constant]) -> bool:
        """``delete R(a1, ..., ar)``; True iff the database changed."""
        relation = self._relations.get(name)
        if relation is None:
            raise SchemaError(f"unknown relation {name!r}")
        row = tuple(row)
        rows = relation._rows
        if row not in rows:
            if len(row) != relation.arity:
                relation._check(row)  # raise the precise arity error
            return False
        rows.remove(row)
        return True

    # ------------------------------------------------------------------
    # measures (Section 2, "Sizes and Cardinalities")
    # ------------------------------------------------------------------

    @property
    def active_domain(self) -> FrozenSet[Constant]:
        """``adom(D)`` as a frozen set, computed in O(||D||)."""
        return frozenset(
            chain.from_iterable(
                chain.from_iterable(
                    relation._rows for relation in self._relations.values()
                )
            )
        )

    @property
    def active_domain_size(self) -> int:
        """``n = |adom(D)|``, computed in O(||D||)."""
        return len(self.active_domain)

    @property
    def cardinality(self) -> int:
        """``|D|``: total number of stored tuples (O(|σ|))."""
        return sum(len(relation._rows) for relation in self._relations.values())

    @property
    def size(self) -> int:
        """``||D|| = |σ| + |adom(D)| + Σ_R ar(R) · |R^D|``."""
        total = len(self._relations) + self.active_domain_size
        for relation in self._relations.values():
            total += relation.arity * len(relation)
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if self.schema != other.schema:
            return False
        return all(
            self._relations[name].rows == other._relations[name].rows
            for name in self._relations
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"Database({parts}; n={self.active_domain_size})"
