"""Determinism regression goldens for the optimized kernel.

The PR-6 hot-path optimization (slotted events/messages, tuple-ordered
heap, batched same-instant dispatch, lazy trace formatting) must be
*observationally invisible*: for a fixed seed the kernel has to
produce a byte-identical trace log and identical experiment outputs.
These tests pin sha256 digests captured on the pre-optimization seed
kernel; any event reordering, trace rewording, or RNG-draw shuffle
shows up as a digest mismatch.

Regenerate (only when a change is *intended* to alter observable
behaviour)::

    PYTHONPATH=src python tests/sim/test_determinism_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.sim.kernel import Simulator

SEEDS = (0, 1, 7, 42)

#: sha256 of the canonical kernel scenario's formatted trace log.
TRACE_GOLDENS = {
    0: "051e0bcaf40c092a3f9fd526a08a36acc2179d1fa27bb3519610561bfa86ffb8",
    1: "f5b4bb57bc9041e65ee12397907b5254270b8b31dd427c488dbdffafaca71765",
    7: "fab31dd8c828be5d6d7b77e3e6bd895ed5fa4df1c9da642994dda20518a8b379",
    42: "2f514fd5c30e29b22cbb4e80cbd14bcdaee2e3617269a61471e260834b81ae73",
}

#: sha256 of each experiment's full ``ExperimentResult.to_dict()``.
EXPERIMENT_GOLDENS = {
    ("A7", 0): "be9fd999636cf3cc4ff5fe1a512af5b0c2f3e269b2bb1175ad98c77bbdac4933",
    ("A7", 1): "2bd667b33e7c0043f72692f45c729864461600667a1303b3abec052a5fd85a0b",
    ("A7", 7): "2468428cef7a72fa91f0a410cc20a7501c88260f70735196383341d99222d3cc",
    ("A7", 42): "6e253af612e375c1ac4f0981069d305ef5b1f948dca408a4de8cdcc30fff6d60",
    ("A8", 0): "08720bd8e80d0f0daa0cfb4007d12b009ef5fcb92d120af6faa6c176b0e9a9b5",
    ("A8", 1): "474014baf28582725732df1208e5663bf8e5099c5f77f49e1ed75c63917c56fc",
    ("A8", 7): "0402a8e1f4b71df7ae4d84812fd8c35d0b6d40b2155fd6edf240c4ef34db92cf",
    ("A8", 42): "27ea830ec47b882ebd5e8990ab1457d2d2737ee623361c72e1c4fe821afa6165",
    ("A9", 0): "1c424abe7fb6625a6a84c93ba758807e9937ddaab16a23173bd0528733a74e3f",
    ("A9", 1): "21ad0439dbb3640cec19a0e9cda3ef424a9d5d596fff54a8f8757b4b1d75d252",
    ("A9", 7): "18f9e634d7f44a96e30cecb5a23d102dcb268d06eeee08e719a8b460ce1ac63c",
    ("A9", 42): "151b7513aeb0b0b7bbe47859334d7383b94c2ba476691428e30ed883dfc53982",
}


def run_canonical_scenario(seed: int) -> Simulator:
    """A fixed kernel workload touching every trace-producing path:
    topology, spawns, same-instant bursts, flaky links (seeded drops
    and latency spikes), partitions with healing, timers and
    cancellations, and a crashed machine."""
    simulator = Simulator(seed=seed, default_latency=1.0)
    lan = simulator.network("lan")
    wan = simulator.network("wan")
    m1 = simulator.machine(lan, label="m1")
    m2 = simulator.machine(lan, label="m2")
    m3 = simulator.machine(wan, label="m3")
    processes = [simulator.spawn(machine, label=f"p{index}")
                 for index, machine in enumerate(
                     (m1, m1, m2, m2, m3, m3))]
    child = processes[0].spawn_child(label="child")
    simulator.set_flaky_link(lan, wan, drop_prob=0.3, extra_latency=0.75)

    # Same-instant burst across both networks (flaky draws included).
    for index in range(60):
        sender = processes[index % 6]
        receiver = processes[(index + 2) % 6]
        sender.send(receiver, payload=index)
    child.send(processes[4], payload="hello")

    # Timers, half cancelled, one of them re-arming.
    ticks = []
    timers = [simulator.schedule(2.0 + 0.5 * index,
                                 lambda i=index: ticks.append(i),
                                 note=f"tick{index}")
              for index in range(10)]
    for index, timer in enumerate(timers):
        if index % 2:
            timer.cancel()

    # Mid-run partition + heal, a crash, and traffic through both.
    simulator.schedule(3.0, lambda: simulator.partition(lan, wan))
    simulator.schedule(3.5, lambda: processes[0].send(processes[5],
                                                      payload="blocked"))
    simulator.schedule(6.0, lambda: simulator.heal(lan, wan))
    simulator.schedule(6.5, lambda: processes[1].send(processes[4],
                                                      payload="after-heal"))

    def crash_m2() -> None:
        m2.alive = False
        processes[0].send(processes[2], payload="to-downed")

    simulator.schedule(7.0, crash_m2)
    simulator.run()
    return simulator


def trace_digest(simulator: Simulator) -> str:
    lines = [f"{entry.time:g}|{entry.kind}|{entry.detail}"
             for entry in simulator.trace]
    lines.append(f"sent={simulator.messages_sent}"
                 f"|delivered={simulator.messages_delivered}"
                 f"|dropped={simulator.messages_dropped}"
                 f"|t={simulator.clock.now:g}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def experiment_digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _experiment_runners():
    from repro.bench.experiments_availability import run_a8_availability
    from repro.bench.experiments_batch import run_a7_batch_resolution
    from repro.bench.experiments_leases import run_a9_leases
    return {"A7": run_a7_batch_resolution,
            "A8": run_a8_availability,
            "A9": run_a9_leases}


class TestTraceGoldens:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_log_matches_pinned_digest(self, seed):
        assert trace_digest(run_canonical_scenario(seed)) == \
            TRACE_GOLDENS[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeated_runs_are_bit_identical(self, seed):
        first = run_canonical_scenario(seed)
        second = run_canonical_scenario(seed)
        assert [entry.detail for entry in first.trace] == \
            [entry.detail for entry in second.trace]
        assert trace_digest(first) == trace_digest(second)


class TestExperimentGoldens:
    @pytest.mark.parametrize("exp_id,seed",
                             sorted(EXPERIMENT_GOLDENS))
    def test_experiment_rows_match_pinned_digest(self, exp_id, seed):
        runner = _experiment_runners()[exp_id]
        result = runner(seed=seed)
        assert result.all_checks_pass(), result.failed_checks()
        assert experiment_digest(result) == \
            EXPERIMENT_GOLDENS[(exp_id, seed)]


def _regenerate() -> None:  # pragma: no cover - maintenance helper
    print("TRACE_GOLDENS = {")
    for seed in SEEDS:
        print(f'    {seed}: "{trace_digest(run_canonical_scenario(seed))}",')
    print("}")
    print("EXPERIMENT_GOLDENS = {")
    for exp_id, runner in _experiment_runners().items():
        for seed in SEEDS:
            digest = experiment_digest(runner(seed=seed))
            print(f'    ("{exp_id}", {seed}): "{digest}",')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
