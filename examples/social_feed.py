"""Scenario: a social feed served from a Session under heavy churn.

Run:  python examples/social_feed.py

The workload the paper's introduction motivates: a materialised view
(`who sees which post`) over relations that change constantly.  The
feed is a live view on a :class:`repro.Session` — the planner
recognises the query as q-hierarchical and auto-selects the Theorem 3.2
engine, so ``count()`` stays O(1) after every single update.  A
standalone :class:`repro.RecomputeEngine` over the same query serves as
the baseline on the identical stream, and the same stream replayed
through a ``session.batch()`` shows net-effect compression discarding
the churn that cancels out.
"""

import random
import time

from repro import RecomputeEngine, Session
from repro.storage.updates import UpdateCommand

QUERY = "Feed(user, author, post) :- Follows(user, author), Posted(author, post)"

USERS = 400
CHURN = 3000

rng = random.Random(42)


def random_command(live_follows, live_posts):
    """Draw one update: follow/unfollow/post/delete-post."""
    kind = rng.random()
    if kind < 0.35 or not live_follows:
        edge = (f"u{rng.randrange(USERS)}", f"u{rng.randrange(USERS)}")
        live_follows.add(edge)
        return UpdateCommand("insert", "Follows", edge)
    if kind < 0.5:
        edge = rng.choice(sorted(live_follows))
        live_follows.discard(edge)
        return UpdateCommand("delete", "Follows", edge)
    if kind < 0.85 or not live_posts:
        post = (f"u{rng.randrange(USERS)}", f"p{rng.randrange(10 * USERS)}")
        live_posts.add(post)
        return UpdateCommand("insert", "Posted", post)
    post = rng.choice(sorted(live_posts))
    live_posts.discard(post)
    return UpdateCommand("delete", "Posted", post)


def run(apply, count, commands, query_every=1):
    """Replay the stream, asking for the count after every update."""
    start = time.perf_counter()
    for index, command in enumerate(commands):
        apply(command)
        if index % query_every == 0:
            count()
    return time.perf_counter() - start


def main():
    live_follows, live_posts = set(), set()
    commands = [
        random_command(live_follows, live_posts) for _ in range(CHURN)
    ]

    fast_session = Session()
    fast = fast_session.view("feed", QUERY)  # auto → qhierarchical
    print(f"planner picked:          {fast.engine_name}")
    fast_time = run(fast_session.apply, fast.count, commands)

    slow = RecomputeEngine(fast.query)
    # Give the baseline a head start: only query every 50 updates.
    slow_time = run(slow.apply, slow.count, commands, query_every=50)

    assert fast.count() == slow.count()
    print(f"updates streamed:        {CHURN}")
    print(f"final |Feed|:            {fast.count()}")
    print(
        f"dynamic engine:          {fast_time:.3f}s "
        f"(count after EVERY update)"
    )
    print(
        f"recompute baseline:      {slow_time:.3f}s "
        f"(count only every 50th update)"
    )
    print(
        f"per-update cost:         "
        f"{fast_time / CHURN * 1e6:.1f}µs dynamic vs "
        f"{slow_time / (CHURN / 50) * 1e6:.1f}µs per recompute round"
    )

    # The same stream, batched: insert/delete pairs that cancel within
    # the window never reach the engine at all.
    batch_session = Session()
    batch_view = batch_session.view("feed", QUERY)
    with batch_session.batch() as batch:
        batch.apply_all(commands)
    assert batch_view.count() == fast.count()
    stats = batch.stats
    print(
        f"batched replay:          {stats['buffered']} commands → "
        f"{stats['net']} net changes ({stats['applied']} applied)"
    )

    # Constant-delay peek at the first few feed entries.
    print("sample of the live feed:")
    for row, _ in zip(fast.enumerate(), range(5)):
        print("  ", row)


if __name__ == "__main__":
    main()
