"""Seeded input generators: the program receives nothing but these commands.

Every generator takes the seed and sizes only, and every command it emits
is *effective* on a store that applied all earlier commands of the same
:class:`StreamState` in order (inserts target absent rows, deletes live
ones), so ``acknowledged == effective`` and a ``False`` reply is an error.
Built on :func:`repro.workloads.streams.random_row` and
:class:`repro.workloads.distributions.UniformDomain`; the library's own
``mixed_stream`` is not used because its deletes sort the live pool per
command and its duplicate-avoidance gives up after 50 draws.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.storage.updates import UpdateCommand, delete, insert
from repro.workloads.distributions import UniformDomain
from repro.workloads.streams import random_row

Row = Tuple[int, ...]

#: values per position of the hot-key stream, and the live hot rows per
#: relation it hovers below (a full 16-value cross product would make the
#: star views' results explode past anything an oracle can enumerate).
HOT_DOMAIN = 16
HOT_POOL_CAP = 32


class _Pool:
    """A set of rows with O(1) uniform sampling and removal."""

    __slots__ = ("rows", "slot")

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self.slot: Dict[Row, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        return row in self.slot

    def add(self, row: Row) -> None:
        self.slot[row] = len(self.rows)
        self.rows.append(row)

    def remove(self, row: Row) -> None:
        index = self.slot.pop(row)
        last = self.rows.pop()
        if index < len(self.rows):
            self.rows[index] = last
            self.slot[last] = index

    def sample(self, rng: random.Random) -> Row:
        return self.rows[int(rng.random() * len(self.rows))]


class StreamState:
    """The generator's model of the store: live rows per relation.

    ``relations`` maps each relation name to ``(arity, domain)`` — the
    number of values per position of its dense rows.  A relation is kept
    at most half full, so drawing an absent row stays cheap and churn
    stays possible.  All streams drawn from one state continue each
    other, so a workload takes its preload and its measured commands
    from a single instance, in order.
    """

    def __init__(self, seed: int, relations: Mapping[str, Tuple[int, int]]):
        self.rng = random.Random(seed)
        self.names: Tuple[str, ...] = tuple(sorted(relations))
        self.arity = {name: arity for name, (arity, _) in relations.items()}
        self.dense = {
            name: UniformDomain(domain) for name, (_, domain) in relations.items()
        }
        self.hot_domain = UniformDomain(HOT_DOMAIN)
        self.live: Dict[str, _Pool] = {name: _Pool() for name in self.names}
        self.hot_live: Dict[str, _Pool] = {name: _Pool() for name in self.names}
        self.cap = {
            name: domain**arity // 2 for name, (arity, domain) in relations.items()
        }
        self.hot_cap = {
            name: min(HOT_POOL_CAP, HOT_DOMAIN**arity // 2)
            for name, arity in self.arity.items()
        }

    # -- bookkeeping ---------------------------------------------------------

    def _insert(self, name: str, row: Row) -> UpdateCommand:
        self.live[name].add(row)
        if max(row) < HOT_DOMAIN:
            self.hot_live[name].add(row)
        return insert(name, row)

    def _delete(self, name: str, row: Row) -> UpdateCommand:
        self.live[name].remove(row)
        if max(row) < HOT_DOMAIN:
            self.hot_live[name].remove(row)
        return delete(name, row)

    def _absent_row(self, name: str, domain: UniformDomain) -> Row:
        pool = self.live[name]
        arity = self.arity[name]
        rng = self.rng
        row = random_row(rng, arity, domain)
        while row in pool:
            row = random_row(rng, arity, domain)
        return row

    def replay(self, commands: Sequence[UpdateCommand]) -> None:
        """Follow commands generated elsewhere (an undo) in the model."""
        for command in commands:
            if command.is_insert:
                self._insert(command.relation, command.row)
            else:
                self._delete(command.relation, command.row)

    def rows(self) -> Dict[str, List[Row]]:
        """The live rows per relation (the state all emitted commands
        lead to) — what the oracle evaluates the views on."""
        return {name: list(pool.rows) for name, pool in self.live.items()}

    # -- streams -------------------------------------------------------------

    def inserts(self, count: int, names: Sequence[str] = ()) -> List[UpdateCommand]:
        """``count`` insertions of absent dense rows (the preload)."""
        names = tuple(names) or self.names
        room = sum(self.cap[name] - len(self.live[name]) for name in names)
        if count > room:
            raise ValueError(f"{count} inserts do not fit {names} ({room} free)")
        rng = self.rng
        out: List[UpdateCommand] = []
        while len(out) < count:
            name = names[int(rng.random() * len(names))]
            if len(self.live[name]) >= self.cap[name]:
                continue
            out.append(self._insert(name, self._absent_row(name, self.dense[name])))
        return out

    def mixed(
        self, count: int, delete_fraction: float, names: Sequence[str] = ()
    ) -> List[UpdateCommand]:
        """Interleaved dense inserts and deletes of live rows."""
        names = tuple(names) or self.names
        rng = self.rng
        out: List[UpdateCommand] = []
        for _ in range(count):
            name = names[int(rng.random() * len(names))]
            pool = self.live[name]
            if pool and (
                len(pool) >= self.cap[name] or rng.random() < delete_fraction
            ):
                out.append(self._delete(name, pool.sample(rng)))
            else:
                out.append(
                    self._insert(name, self._absent_row(name, self.dense[name]))
                )
        return out

    def hot(self, count: int, names: Sequence[str] = ()) -> List[UpdateCommand]:
        """Hot-key churn: rows over a 16-value domain, so a batch folds
        onto few distinct keys (the netting case of a batched kernel)."""
        names = tuple(names) or self.names
        rng = self.rng
        out: List[UpdateCommand] = []
        for _ in range(count):
            name = names[int(rng.random() * len(names))]
            pool = self.hot_live[name]
            if pool and (len(pool) >= self.hot_cap[name] or rng.random() < 0.5):
                out.append(self._delete(name, pool.sample(rng)))
            else:
                out.append(
                    self._insert(name, self._absent_row(name, self.hot_domain))
                )
        return out
