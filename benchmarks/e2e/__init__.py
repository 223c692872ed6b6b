"""The repo's end-to-end benchmark (see ``README.md`` in this directory).

``python3 -m benchmarks.e2e run --workload W --seed S --seconds N --trace 0|1``
prints every metric of ``BENCHMARK.json`` by name and unit, checks the
answers, and exits non-zero on a wrong one.  Every layer is measured
from outside, by timing calls into its public functions.
"""
