"""The four workloads: what they register, load and send, and why.

Sizes are constants here, not flags.  A workload's measured part is a
fixed number of identical *units* (scaled by ``--seconds`` so that the
run lasts about that long at the commit that defined the benchmark).
One unit is a forward stream ``F`` followed by its undo ``B`` (the
inverses of ``F`` in reverse order): every command is effective, the
store is back at the preloaded state after each unit, so every unit is
the same work on the same state and outputs can be checked against one
oracle evaluation at any unit boundary.

Units are short (0.1-0.2 s of writes on the served workloads) and many:
interference on the shared box comes in bursts of a few hundred
milliseconds, and the fast decile across units only finds the
undisturbed cost if some units fit between bursts.  With units four
times as long the run-to-run spread of ``cluster_stream`` was 8-31%,
with these 6-11% (ten interleaved runs each).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.cq import zoo
from repro.cq.analysis import find_violation
from repro.cq.query import Atom, ConjunctiveQuery
from repro.eval_static import evaluate_naive
from repro.storage.database import Database, Schema
from repro.storage.updates import UpdateCommand

from .streams import StreamState

Row = Tuple[int, ...]

#: commands per wire chunk of ``ClusterClient.apply_stream``
CHUNK = 256
#: commands per ``Session.apply_all`` call on ``session_batch``
BATCH = 8192
#: ``server_point`` reads after every this-many writes
READ_EVERY = 50
#: single writes of one delta probe (see Spec.delta_probe)
PROBE_WRITES = 64
#: effective single writes per second of the open-loop trickle
TRICKLE_RATE = 100


def renamed(
    query: ConjunctiveQuery, name: str, suffix: str = "", only: Sequence[str] = ()
) -> ConjunctiveQuery:
    """``query`` over suffixed relation names (all of them, or ``only``)."""
    atoms = [
        Atom(
            atom.relation + suffix if not only or atom.relation in only else atom.relation,
            atom.args,
        )
        for atom in query.atoms
    ]
    return ConjunctiveQuery(atoms, query.free, name=name)


@dataclass(frozen=True)
class Spec:
    """One workload: front door, views, data shape, unit of work."""

    name: str
    #: "cluster" (ShardCluster(workers=2) + ClusterClient), "server"
    #: (in-process Server(shards=2)) or "session" (embedded Session)
    door: str
    views: Tuple[Tuple[str, ConjunctiveQuery], ...]
    #: values per position of a relation's dense rows, by relation suffix
    #: or full name ("" is the default)
    domains: Dict[str, int]
    #: (relations, rows) groups inserted before anything is measured
    preload: Tuple[Tuple[Tuple[str, ...], int], ...]
    #: views with one push subscriber (a callback) each
    subscribed: Tuple[str, ...]
    #: the forward half of a unit: (write mode, stream kind, commands);
    #: the undo half is derived.  Modes: "stream" = apply_stream in
    #: CHUNK-command frames, "point" = one apply per command, "batch" =
    #: one apply_all per segment, "trickle" = paced single applies.
    forward: Tuple[Tuple[str, str, int], ...]
    #: measured units per ten seconds of ``--seconds``
    units_per_10s: int
    #: tuples per fetch
    page: int
    #: commands of the traced ladder's stream per ten seconds
    ladder_commands: int
    #: views a snapshot pins (the small ones)
    snapshot_views: Tuple[str, ...]
    #: views the read ladder and the paging reader walk (the large ones)
    paged_views: Tuple[str, ...]
    delete_fraction: float = 0.35
    #: a view to subscribe between units for a few single writes, on a
    #: workload whose own writes run without subscribers
    delta_probe: str = ""

    @property
    def delta_views(self) -> Tuple[str, ...]:
        return self.subscribed or (self.delta_probe,)

    def relations(self) -> Dict[str, Tuple[int, int]]:
        """relation -> (arity, domain)."""
        out: Dict[str, Tuple[int, int]] = {}
        for _name, query in self.views:
            for relation in sorted(query.relations):
                domain = (
                    self.domains.get(relation)
                    or self.domains.get("_" + relation.rpartition("_")[2])
                    or self.domains[""]
                )
                out[relation] = (query.arity_of(relation), domain)
        return out

    def relations_of(self, view: str) -> Set[str]:
        return set(dict(self.views)[view].relations)

    def views_of_relation(self) -> Dict[str, List[str]]:
        """relation -> the views a write to it touches."""
        out: Dict[str, List[str]] = {}
        for name, query in self.views:
            for relation in sorted(query.relations):
                out.setdefault(relation, []).append(name)
        return out


def _zoo_views() -> Tuple[Tuple[str, ConjunctiveQuery], ...]:
    """Every q-hierarchical query of the ``native_backend`` zoo, with
    relations suffixed only where arities clash (``R``/4 of FIGURE_1,
    ``S``/3 of EXAMPLE_6_1)."""
    picked = [
        (name, query)
        for name, query in zoo.PAPER_QUERIES.items()
        if find_violation(query) is None
    ]
    picked.append(("STAR_3", zoo.star_query(3, free_leaves=3)))
    picked.append(("STAR_5", zoo.star_query(5, free_leaves=5)))
    # Renaming also gives each query a head the parser accepts (the
    # zoo's own names, like ``phi_E-T_qf``, do not cross the wire).
    clash = {"FIGURE_1": ("4", ("R",)), "EXAMPLE_6_1": ("3", ("S",))}
    return tuple(
        (name, renamed(query, name, *clash.get(name, ()))) for name, query in picked
    )


_CLUSTER_VIEWS = (
    ("et_a", renamed(zoo.E_T_QF, "et_a", "_a")),
    ("et_b", renamed(zoo.E_T_QF, "et_b", "_b")),
    ("star", renamed(zoo.star_query(3, free_leaves=3), "star", "_s")),
    ("ex61", renamed(zoo.EXAMPLE_6_1, "ex61", "_x")),
)

SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="cluster_stream",
            door="cluster",
            views=_CLUSTER_VIEWS,
            domains={"": 1000, "_s": 1500, "_x": 20},
            preload=(
                (("E_a", "T_a"), 5000),
                (("E_b", "T_b"), 5000),
                (("S_s", "E1_s", "E2_s", "E3_s"), 6000),
                (("R_x", "S_x", "E_x"), 1200),
            ),
            subscribed=("et_a", "et_b", "star", "ex61"),
            forward=(("stream", "mixed", 1024),),
            units_per_10s=72,
            page=256,
            ladder_commands=2048,
            snapshot_views=("et_a", "ex61"),
            paged_views=("et_a", "star"),
        ),
        Spec(
            name="server_point",
            door="server",
            views=(
                ("et", renamed(zoo.E_T_QF, "et")),
                ("ex61", renamed(zoo.EXAMPLE_6_1, "ex61", "_x")),
            ),
            domains={"": 1000, "_x": 20},
            preload=((("E", "T"), 8000), (("R_x", "S_x", "E_x"), 1200)),
            subscribed=("et", "ex61"),
            forward=(("point", "mixed", 1024),),
            units_per_10s=60,
            page=64,
            ladder_commands=4096,
            snapshot_views=("et", "ex61"),
            paged_views=("et", "ex61"),
        ),
        Spec(
            name="session_batch",
            door="session",
            views=_zoo_views(),
            domains={
                "": 400,
                **{name: 4000 for name in ("S", "E1", "E2", "E3", "E4", "E5")},
                "R": 24,
                "S3": 24,
                "R4": 12,
            },
            preload=(((), 60000),),
            subscribed=(),
            delta_probe="E_T_QF",
            forward=(("batch", "mixed", BATCH), ("batch", "hot", BATCH)),
            units_per_10s=20,
            page=256,
            ladder_commands=2048,
            snapshot_views=("E_T_QF", "STAR_3"),
            paged_views=("STAR_5", "STAR_3"),
        ),
        Spec(
            name="cluster_reads",
            door="cluster",
            views=(
                ("star", renamed(zoo.star_query(3, free_leaves=3), "star", "_s")),
                ("et", renamed(zoo.E_T_QF, "et", "_e")),
                ("sm_a", renamed(zoo.E_T_QF, "sm_a", "_a")),
                ("sm_b", renamed(zoo.EXAMPLE_6_1, "sm_b", "_b")),
            ),
            domains={"": 400, "_s": 2000, "_e": 400, "_b": 20},
            preload=(
                (("S_s", "E1_s", "E2_s", "E3_s"), 13000),
                (("E_e", "T_e"), 12000),
                (("E_a", "T_a"), 4000),
                (("R_b", "S_b", "E_b"), 800),
            ),
            subscribed=("star", "et", "sm_a", "sm_b"),
            forward=(("trickle", "mixed", TRICKLE_RATE * 5),),
            units_per_10s=1,
            page=256,
            ladder_commands=1024,
            snapshot_views=("sm_a", "sm_b"),
            paged_views=("star", "et"),
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run feeds the program, generated from the seed."""

    spec: Spec
    preload: List[UpdateCommand]
    #: the unit: (write mode, commands) segments, forward then undo
    unit: List[Tuple[str, List[UpdateCommand]]]
    #: per view, the indices (into the unit's concatenated commands) of
    #: the commands that touch it — a view's epoch moves by one per entry
    touch: Dict[str, List[int]]
    #: the traced ladder's stream: a short forward stream of the same
    #: kinds plus its undo, effective from the preloaded state
    ladder: List[UpdateCommand]
    #: single writes (and their undo) on the delta-probe view
    probe: List[UpdateCommand]
    #: each view's result on the preloaded state (``eval_static.naive``)
    oracle: Dict[str, Set[Row]]
    database: Database
    #: per paged view, values of its first output variable to bind
    bind_values: Dict[str, List[int]] = field(default_factory=dict)
    #: per view, rows that are in the result (for ``contains``)
    present: Dict[str, List[Row]] = field(default_factory=dict)

    @property
    def commands(self) -> List[UpdateCommand]:
        return [command for _mode, segment in self.unit for command in segment]


def undo(commands: Sequence[UpdateCommand]) -> List[UpdateCommand]:
    return [command.inverse() for command in reversed(commands)]


def generate(spec: Spec, seed: int, seconds: float, scale: float = 1.0) -> Inputs:
    """Build a workload's inputs from the seed (same seed, same bytes).

    ``seconds`` sizes the paced trickle (the other workloads repeat
    their unit instead); ``scale`` shrinks the preload and the unit for
    the self-test — the benchmark itself always runs at 1.
    """
    relations = spec.relations()
    state = StreamState(seed, relations)
    preload: List[UpdateCommand] = []
    for names, rows in spec.preload:
        preload.extend(state.inserts(max(8, int(rows * scale)), names))
    database = Database(Schema({name: arity for name, (arity, _) in relations.items()}))
    for name, rows in state.rows().items():
        database.bulk_insert(name, rows, checked=True)
    oracle = {name: evaluate_naive(query, database) for name, query in spec.views}

    def draw(kind: str, count: int) -> List[UpdateCommand]:
        if kind == "hot":
            return state.hot(count)
        return state.mixed(count, spec.delete_fraction)

    share = max(32, int(spec.ladder_commands * seconds / 10 * scale) // 2) // len(spec.forward)
    ladder_forward = [c for _mode, kind, _n in spec.forward for c in draw(kind, share)]
    ladder = ladder_forward + undo(ladder_forward)
    state.replay(undo(ladder_forward))

    probe: List[UpdateCommand] = []
    if spec.delta_probe:
        probe_forward = state.mixed(
            PROBE_WRITES // 2, spec.delete_fraction, sorted(spec.relations_of(spec.delta_probe))
        )
        probe = probe_forward + undo(probe_forward)
        state.replay(undo(probe_forward))

    forward: List[Tuple[str, List[UpdateCommand]]] = []
    for mode, kind, count in spec.forward:
        count = int(count * scale)
        if mode == "trickle":
            count = int(count * seconds / 10)
        forward.append((mode, draw(kind, max(64, count))))
    unit = forward + [(mode, undo(commands)) for mode, commands in reversed(forward)]
    if len(unit) == 2 and unit[0][0] in ("stream", "point", "trickle"):
        unit = [(unit[0][0], unit[0][1] + unit[1][1])]

    touch: Dict[str, List[int]] = {name: [] for name, _ in spec.views}
    by_relation = spec.views_of_relation()
    index = 0
    for _mode, segment in unit:
        for command in segment:
            for name in by_relation[command.relation]:
                touch[name].append(index)
            index += 1

    inputs = Inputs(spec, preload, unit, touch, ladder, probe, oracle, database)
    for name in spec.paged_views:
        rows = sorted(oracle[name])
        step = max(1, len(rows) // 64)
        inputs.present[name] = rows[::step][:64]
        inputs.bind_values[name] = sorted({row[0] for row in inputs.present[name]})[:32]
    return inputs
