"""The repo's end-to-end benchmark with a per-layer ledger.

``BENCHMARK.json`` at the repo root names the command, workloads and
metrics; ``README.md`` in this directory says how to run it and how to
read the output.  Everything here measures the program from outside:
it times calls into public functions and reads counters the public
``metrics()`` / ``stats()`` / ``cluster_stats()`` surfaces expose.
"""
