"""Live serving: cursors, delta subscriptions and a concurrent writer.

A miniature "social feed under write traffic" built on the serving
layer (:mod:`repro.serve`):

* one :class:`~repro.serve.Server` front door, thread-safe via its
  reader–writer protocol;
* a **subscription** streaming the O(δ) per-update result deltas of
  the feed view (what a push notifier consumes);
* **resumable cursors** paging the feed in constant delay per tuple —
  including a parameter-bound cursor (``author=...``) pinned via the
  q-tree, one (``user=...``) probed below the unbound root, and a
  snapshot cursor that keeps serving the pre-update result while a
  writer thread races it;
* a plain cursor **revalidating** across a burst of beyond-frontier
  writes (delta-aware: it re-anchors its walk and keeps serving the
  live result), then getting **precisely invalidated** by the one
  write that removes a tuple it already emitted;
* async dispatch: the push notifier's deltas are delivered by the
  server's worker pool instead of the writer thread.

Run with ``PYTHONPATH=src python examples/live_serving.py``.
"""

from __future__ import annotations

import random
import threading

from repro import CursorInvalidatedError, Server


def main() -> None:
    # 2 shards (this example has one view, so sharding is just shown
    # wired up) and 2 dispatch workers delivering deltas off-thread.
    server = Server(shards=2, dispatch_workers=2)
    # All three variables free keeps the query q-hierarchical, so the
    # view gets the Theorem 3.2 engine: O(1) counts, constant-delay
    # cursors, O(δ) subscription deltas.  (Project ``author`` away and
    # the planner would route to the delta-IVM fallback instead — same
    # serving surface, weaker guarantees.)
    feed = server.view(
        "feed",
        "Feed(author, user, post) :- Follows(user, author), Posted(author, post)",
    )
    print("=== plan (note the delta row and the cursor-binding hint) ===")
    print(server.explain("feed"))

    # Preload: everyone follows a few authors, authors post.
    rng = random.Random(7)
    users = [f"user{i}" for i in range(40)]
    authors = [f"author{i}" for i in range(12)]
    with server.session.batch() as batch:
        for user in users:
            for author in rng.sample(authors, 3):
                batch.insert("Follows", (user, author))
        for author in authors:
            for post in range(6):
                batch.insert("Posted", (author, f"{author}_p{post}"))
    print(f"\npreloaded: |feed| = {server.count('feed')}")

    # A subscriber sees every result change as an O(δ) delta.
    notifier = server.subscribe("feed")

    # A bound cursor: author3's slice of the feed.  ``author`` is the
    # q-tree root, so the binding is pinned with O(1) probes — the
    # free-access-pattern style of serving.
    bound = server.open_cursor("feed", binding={"author": "author3"})
    print(f"\nauthor3's slice, first page: {server.fetch(bound, 4)}")

    # A bound cursor on ``user``, which sits *below* the unbound root
    # ``author``: the read is probed — one item probe under each
    # author, in the unbound read's order — and keeps no state, so the
    # writes below still cost what Theorem 3.2 says.
    mine = server.open_cursor("feed", binding={"user": "user5"})
    rows = []
    while page := server.fetch(mine, 64):
        rows.extend(page)
    everything = server.open_cursor("feed")
    unbound = []
    while page := server.fetch(everything, 256):
        unbound.extend(page)
    assert rows and rows == [row for row in unbound if row[1] == "user5"]
    server.close_cursor(mine)
    server.close_cursor(everything)
    probed = [
        line for line in server.explain("feed").splitlines() if "probed" in line
    ]
    assert len(probed) == 1
    print(f"user5's slice: {len(rows)} tuples, the filtered unbound read's")
    print(probed[0])

    # Writer thread races the readers through the dispatcher.
    def writer() -> None:
        for step in range(30):
            author = rng.choice(authors)
            server.insert("Posted", (author, f"{author}_live{step}"))

    # A snapshot cursor pins the pre-write result; a plain cursor
    # revalidates across the inserts (their deltas land beyond its
    # frontier) and keeps serving the live result.
    snapshot = server.open_cursor("feed", snapshot=True)
    plain = server.open_cursor("feed")
    emitted = server.fetch(plain, 5)

    thread = threading.Thread(target=writer)
    thread.start()
    thread.join()

    pinned = []
    while True:
        page = server.fetch(snapshot, 256)
        if not page:
            break
        pinned.extend(page)
    print(f"\nsnapshot cursor served {len(pinned)} pre-write tuples")
    print(f"live view now has {server.count('feed')} tuples")

    server.fetch(plain, 5)  # survived all 30 writes
    state = server.cursor_state(plain)
    print(
        f"plain cursor revalidated {state.revalidations}x across the "
        "writer burst and kept paging"
    )

    # Deleting a tuple the cursor already emitted is the one genuinely
    # invalidating write — reported precisely.
    author, _user, post = emitted[0]
    server.delete("Posted", (author, post))
    try:
        server.fetch(plain, 5)
    except CursorInvalidatedError as error:
        print(f"\nplain cursor: {error.invalidation.describe()}")

    deltas = server.poll(notifier)
    moved = sum(d.size for d in deltas)
    print(
        f"\nnotifier drained {len(deltas)} deltas covering {moved} "
        f"result changes, e.g. {deltas[0]}"
    )

    print(f"\nserver stats: {server.stats()}")

    # The observability layer saw all of the above: per-view update
    # cost and page delay distributions, delta-dispatch lag, cursor
    # lifecycle counters — one registry, one scrape.
    from repro.obs.registry import snapshot_quantile

    snapshot = server.session.metrics.snapshot()
    print("\n=== metrics summary (repro.obs) ===")
    for key, value in sorted(snapshot["counters"].items()):
        if value:
            print(f"  {key} = {value}")
    for key, state in sorted(snapshot["histograms"].items()):
        if state["count"]:
            p50 = snapshot_quantile(state, 0.50)
            p95 = snapshot_quantile(state, 0.95)
            print(
                f"  {key}: n={state['count']} "
                f"p50={p50 * 1e6:.3g}µs p95={p95 * 1e6:.3g}µs"
            )
    print("\n=== observed vs promised (explain) ===")
    print(server.explain("feed"))


if __name__ == "__main__":
    main()
