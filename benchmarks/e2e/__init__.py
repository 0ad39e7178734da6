"""The repo's one end-to-end benchmark: five named workloads at 10k entities.

Every performance claim in this repository is made against the workload and
metric names declared in :mod:`benchmarks.e2e.spec`.  The benchmark measures
each layer **from outside** — timing calls into public functions, reading the
counters the program exports, and, in a separate traced pass, collecting the
spans :mod:`repro.obs` emits.  ``README.md`` next to this file is the manual;
``python -m benchmarks.e2e --help`` is the entry point.
"""
