"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
classify "Q(x) :- E(x, y), T(y)"
    Print where the query falls in the paper's three dichotomies, the
    Definition 3.1 violation witness (if any) and the homomorphic core
    (if it differs from the query).

qtree "Q(x, y) :- R(x, y), S(y)"
    Print a q-tree per connected component, or the reason none exists.

plan "Q(x, y) :- R(x, y), S(y)"
    Run the Session planner: print the engine the dichotomy selects for
    the query (CQ, or UCQ given several ';'-separated rules) and the
    paper's complexity guarantees for it.

demo
    Run a 30-second self-contained demonstration: builds the Example
    6.1 database, prints the structure and enumerates Table 1.

metrics unix:/tmp/repro-w0.sock 127.0.0.1:9001 ...
    Scrape a running shard cluster's ``metrics`` op and print the
    merged registry snapshot (``--format prom`` for Prometheus text
    exposition, ``json`` for the full dump with spans and drift).
    ``--watch N`` re-scrapes every N seconds; ``--demo`` spins up a
    throwaway two-worker cluster, runs a scripted workload against it
    and scrapes that instead of needing addresses.
"""

from __future__ import annotations

import argparse
import sys

from repro.cq.analysis import classify, find_violation
from repro.cq.homomorphism import core as homomorphic_core
from repro.cq.parser import parse_query
from repro.core.qtree import try_build_q_tree
from repro.core.render import render_q_tree
from repro.errors import ReproError


def _verdict(value) -> str:
    if value is True:
        return "easy"
    if value is False:
        return "hard (conditional on OMv/OV)"
    return "open (self-join enumeration)"


def cmd_classify(text: str) -> int:
    query = parse_query(text)
    result = classify(query)
    print(f"query:            {query}")
    print(f"self-join free:   {result.self_join_free}")
    print(f"hierarchical:     {result.hierarchical}")
    print(f"q-hierarchical:   {result.q_hierarchical}")
    print(f"enumeration:      {_verdict(result.enumeration_tractable)}")
    print(f"boolean answering:{_verdict(result.boolean_tractable):>6s}")
    print(f"counting:         {_verdict(result.counting_tractable)}")
    violation = find_violation(query)
    if violation is not None:
        print(f"witness:          {violation.describe()}")
    folded = homomorphic_core(query)
    if frozenset(folded.atoms) != frozenset(query.atoms):
        print(f"homomorphic core: {folded}")
    from repro.lowerbounds.profiles import hardness_profile

    print()
    print(hardness_profile(query).render())
    return 0


def cmd_qtree(text: str) -> int:
    query = parse_query(text)
    status = 0
    for component in query.connected_components():
        tree = try_build_q_tree(component)
        if tree is None:
            violation = find_violation(component)
            print(f"component {component.name}: no q-tree")
            if violation is not None:
                print(f"  reason: {violation.describe()}")
            status = 1
        else:
            print(f"component {component.name}:")
            print(render_q_tree(tree, annotate=True))
    return status


def cmd_plan(text: str, engine: str) -> int:
    from repro.api import Planner, parse_view

    plan = Planner().plan(parse_view(text), engine=engine)
    # Build over an empty database so the report shows the compiled
    # execution shape: the engine's plan statistics.
    built = plan.build()
    print(plan.with_stats(built.plan_stats()).render())
    return 0


def _parse_address(text: str):
    """``unix:/path.sock`` | ``tcp:host:port`` | ``host:port`` → wire tuple."""
    if text.startswith("unix:"):
        return ("unix", text[len("unix:"):])
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad address {text!r}: expected unix:/path.sock or host:port"
        )
    return ("tcp", host or "127.0.0.1", int(port))


def _metrics_report(client) -> dict:
    return client.metrics()


def _print_metrics(report: dict, fmt: str) -> None:
    if fmt == "prom":
        from repro.obs.registry import render_prometheus

        print(render_prometheus(report["merged"]), end="")
    else:
        import json

        print(json.dumps(report, indent=2, sort_keys=True, default=str))


def cmd_metrics(addresses, fmt: str, watch: float, demo: bool) -> int:
    import time

    from repro.serve.cluster import ClusterClient, ShardCluster

    cluster = None
    if demo:
        # A throwaway cluster with a scripted workload, so the command
        # demonstrates the exposition formats without a deployment.
        cluster = ShardCluster(workers=2)
        client = cluster.client()
        client.view("pairs", "Q(x, y) :- R(x, y), S(y)")
        for i in range(32):
            client.insert("R", (f"a{i % 8}", f"b{i % 4}"))
            client.insert("S", (f"b{i % 4}",))
        for _ in range(8):
            client.count("pairs")
        client.fetch(client.open_cursor("pairs"), 16)
    else:
        if not addresses:
            print(
                "error: metrics needs worker addresses (or --demo)",
                file=sys.stderr,
            )
            return 2
        try:
            wire = [_parse_address(text) for text in addresses]
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        # The scrape client itself runs observe=False so the dump shows
        # only the cluster's own traffic, not the scraper's.
        client = ClusterClient(addresses=wire, observe=False)
    try:
        while True:
            _print_metrics(_metrics_report(client), fmt)
            if not watch:
                return 0
            time.sleep(watch)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()
        if cluster is not None:
            cluster.close()


def _demo() -> int:
    from repro.core.engine import QHierarchicalEngine
    from repro.core.render import render_structure
    from repro.cq import zoo

    engine = QHierarchicalEngine(zoo.EXAMPLE_6_1)
    for relation, rows in [
        ("E", [("a", "e"), ("a", "f"), ("b", "d"), ("b", "g"), ("b", "h")]),
        (
            "R",
            [
                ("a", "e", "a"), ("a", "e", "b"), ("a", "e", "c"),
                ("a", "f", "c"), ("b", "g", "a"), ("b", "g", "b"),
                ("b", "g", "c"), ("b", "p", "a"), ("b", "p", "b"),
                ("b", "p", "c"),
            ],
        ),
        (
            "S",
            [
                ("a", "e", "a"), ("a", "e", "b"), ("a", "f", "c"),
                ("b", "g", "b"), ("b", "p", "a"),
            ],
        ),
    ]:
        for row in sorted(rows):
            engine.insert(relation, row)
    print(f"Example 6.1: |ϕ(D0)| = {engine.count()} (paper: 23)\n")
    print(render_structure(engine.structures[0], include_unfit=False))
    print("\nfirst five tuples of Table 1:")
    for row, _ in zip(engine.enumerate(), range(5)):
        print("  ", row)
    engine.insert("E", ("b", "p"))
    print(f"\nafter insert E(b, p): |ϕ(D1)| = {engine.count()} (paper: 38)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Answering Conjunctive Queries under Updates (PODS'17)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser(
        "classify", help="classify a query against the dichotomies"
    )
    classify_parser.add_argument("query", help='e.g. "Q(x) :- E(x, y), T(y)"')

    qtree_parser = subparsers.add_parser(
        "qtree", help="print q-trees (Lemma 4.2) or the failure witness"
    )
    qtree_parser.add_argument("query")

    plan_parser = subparsers.add_parser(
        "plan", help="show the engine the dichotomy planner selects"
    )
    plan_parser.add_argument(
        "query", help="a CQ, or a UCQ as ';'- or newline-separated rules"
    )
    plan_parser.add_argument(
        "--engine",
        default="auto",
        help="force a registry engine instead of auto-selection",
    )

    subparsers.add_parser("demo", help="run the Example 6.1 walkthrough")

    metrics_parser = subparsers.add_parser(
        "metrics", help="scrape a running cluster's merged metrics"
    )
    metrics_parser.add_argument(
        "addresses",
        nargs="*",
        help="worker addresses: unix:/path.sock or host:port",
    )
    metrics_parser.add_argument(
        "--format",
        dest="format",
        choices=("prom", "json"),
        default="prom",
        help="Prometheus text exposition (default) or full JSON dump",
    )
    metrics_parser.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="N",
        help="re-scrape every N seconds until interrupted",
    )
    metrics_parser.add_argument(
        "--demo",
        action="store_true",
        help="spin up a scripted two-worker cluster and scrape that",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args.query)
        if args.command == "qtree":
            return cmd_qtree(args.query)
        if args.command == "plan":
            return cmd_plan(args.query, args.engine)
        if args.command == "metrics":
            return cmd_metrics(
                args.addresses, args.format, args.watch, args.demo
            )
        return _demo()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
