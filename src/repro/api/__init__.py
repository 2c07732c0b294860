"""The recommended public entry point: sessions, views and plans.

The paper's dichotomy is a *planner*: it tells us, per query, which
maintenance strategy is optimal — the Theorem 3.2 constant-update
engine for q-hierarchical CQs, the inclusion–exclusion union engine for
UCQs of q-hierarchical disjuncts, and the delta-IVM baseline beyond
that (where, by Theorems 3.3–3.5, no constant-update algorithm exists
conditional on OMv/OV).  This package turns that observation into an
API:

* :class:`Planner` — classify a query (text or object) and select the
  engine, with an explainable :class:`Plan` stating the paper's
  complexity guarantees.
* :class:`Session` — one shared database serving many named live
  :class:`View`\\ s; every update fans out exactly once per affected
  view.
* :class:`Session.batch` — a transactional :class:`Batch` context that
  buffers commands and applies only their *net effect* (insert/delete
  pairs cancelled, no-ops against the current state dropped).
* :mod:`repro.api.access` — parameterized views: bindings normalized
  once (:func:`normalize_binding`) and classified per
  ``(query, access pattern)`` pair (:class:`AccessPattern`), so
  ``view.cursor(u=3)`` / ``view.subscribe(u=3)`` ride an O(1) pinned
  path where the pattern is ancestor-closed in the q-tree and a probed
  one elsewhere — neither keeps state, so updates stay O(1).

Quickstart::

    from repro.api import Session

    session = Session()
    feed = session.view(
        "feed", "Feed(me, author, post) :- Follows(me, author), Posted(author, post)"
    )
    print(feed.explain().render())   # chosen engine + guarantees
    with session.batch() as batch:
        batch.insert("Follows", ("me", "ada"))
        batch.insert("Posted", ("ada", "p1"))
    print(feed.count())
"""

from repro.api.access import (
    AccessPattern,
    classify_access_pattern,
    normalize_binding,
)
from repro.api.planner import Plan, Planner, parse_view
from repro.api.session import Batch, Session, View

__all__ = [
    "AccessPattern",
    "Plan",
    "Planner",
    "parse_view",
    "Session",
    "View",
    "Batch",
    "classify_access_pattern",
    "normalize_binding",
]
