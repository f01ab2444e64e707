"""One bench per experiment in the DESIGN.md index: times the full
scenario build + measurement, prints the reproduced table and asserts
the paper's qualitative claims.

``pytest benchmarks/bench_experiments.py --benchmark-only -k E4`` times
one; ``--benchmark-disable`` runs the shape checks alone (CI).
"""

import pytest

from repro.bench import (
    ALL_EXPERIMENTS,
    run_a10_sharding,
    run_a11_shard_faults,
)

from conftest import run_and_report

#: A10 / A11 run between the suite scale `python -m repro.bench` uses
#: and their full defaults (both comparisons are scale-invariant).
RESIZED = {
    "A10": (run_a10_sharding, dict(names=100_000, resolutions=10_000)),
    "A11": (run_a11_shard_faults, dict(names=100_000, resolutions=10_000)),
}


@pytest.mark.parametrize("exp_id", ALL_EXPERIMENTS)
def test_experiment(benchmark, exp_id):
    runner, sizes = RESIZED.get(exp_id, (ALL_EXPERIMENTS[exp_id], {}))
    run_and_report(benchmark, runner, seed=0, **sizes)
