"""Constant delay (Theorem 3.2) as a count, not a timer.

The work between two output tuples is counted in Python ``call`` events
(``sys.setprofile``): a count repeats exactly, so the assertion is
equality across database sizes, not a slope fit over noisy clocks.  An
enumeration is one generated walker (``compile_walker``), so the count
is one generator resume per tuple; a
per-level generator frame or a per-value helper call creeping back onto
the read path changes it, and anything that makes it depend on ``|D|``
breaks the theorem.  (The update half of "Count the work" — ROADMAP —
is still open; this is the enumeration instalment.)
"""

import itertools

import pytest

from test_hot_path_budget import python_calls
from repro.core.engine import QHierarchicalEngine
from repro.cq import zoo
from repro.cq.analysis import is_q_hierarchical
from repro.storage.database import Database

SIZES = (10**2, 10**3, 10**4)
#: tuples read per measurement are PREFIX and twice that — fewer than
#: the smallest result, so the walk is suspended mid-result at every size
PREFIX = 16


def blocks_database(query, size):
    """About ``size`` rows: disjoint blocks of two values, every
    relation holding all rows over each block — so every fit list has
    two members, every block contributes results, and ``|D|`` grows in
    the number of blocks alone."""
    arities = {atom.relation: atom.arity for atom in query.atoms}
    per_block = sum(2**arity for arity in arities.values())
    database = Database.empty_like(query)
    for block in range(max(1, size // per_block)):
        values = (2 * block, 2 * block + 1)
        for relation, arity in arities.items():
            for row in itertools.product(values, repeat=arity):
                database.insert(relation, row)
    return database


def read_prefix(engine, length, out):
    out.extend(itertools.islice(engine.enumerate(), length))


@pytest.mark.parametrize(
    "name",
    [n for n, q in zoo.PAPER_QUERIES.items() if is_q_hierarchical(q)],
)
def test_calls_per_emitted_tuple_do_not_depend_on_database_size(name):
    query = zoo.PAPER_QUERIES[name]
    observed = set()
    for size in SIZES:
        engine = QHierarchicalEngine(query, blocks_database(query, size))
        profile = []
        for length in (PREFIX, 2 * PREFIX):
            rows = []
            calls = python_calls(read_prefix, engine, length, rows)
            assert rows and len(set(rows)) == len(rows)
            profile.append((len(rows), calls))
        observed.add(tuple(profile))
    assert len(observed) == 1, observed
    (short, short_calls), (long, long_calls) = observed.pop()
    if query.free:
        assert (short, long) == (PREFIX, 2 * PREFIX)
        # one flat walker: one generator resume per further tuple
        assert long_calls - short_calls == PREFIX
