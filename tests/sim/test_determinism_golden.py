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
    ("A5", 0): "a0f94073ec95115f63535046e9c2188f3cbf3b423de19c173d8bbaed9685a79c",
    ("A5", 1): "269250064e5ccd1f5ec769901d6745c5945b6e8073d0a8d5749f5f590c2d2400",
    ("A5", 7): "c083b168772ffd12f5f54fa8ae5312b8b67c26bd8e8611e0ca2ea7290be7bed3",
    ("A5", 42): "b4a57093fa036a83c26bdaa3760caae9deb8d1256e5755c4b480263111776a0c",
    ("A7", 0): "35dc3ddd1f20538e98d63c641adc9144d5e2a89a344a285a879592b7bbabcb0e",
    ("A7", 1): "003d585adf8909729488b336df7741535590e511480114a96ea295a11aa9cc92",
    ("A7", 7): "f551dc523fa2010d51c51b6585523cfd08f68d8d3bed88fdf29b3c89a448d3ee",
    ("A7", 42): "f353b8a9ba0748523c01b20728d8e03e145340c0fe2d34c673ea8b05c2f699b9",
    ("A8", 0): "5703b3e409e557f82db0bef242505460cb9c422e26d707c459d3bd785f2a7b6d",
    ("A8", 1): "cbd11bc41c7470c3e1fdaba7f013b013281af85ccd9f06e6d5bd98423c5b768f",
    ("A8", 7): "af01ec5bae2e353da8ef48043cb8736a750641f5d3962d5db8cfd7531785574c",
    ("A8", 42): "7955d82503030571e23fb30a8d071a21eaddb3426fcf6138b6201d3514283633",
    ("A9", 0): "0fba344a451764ab9e1ee2792b0d2ffad3a08da9947bb1509c4f644eecb9f4a2",
    ("A9", 1): "34e540970a7db6393edda2806033ba429ab4435f099ea40682b52d1911dfedeb",
    ("A9", 7): "ff21a4f3d88dcaedf0f592e8ead983e6162188ed1a7147f7d5996e52e676ac0f",
    ("A9", 42): "0b4e61bab821ee45369772495ca9d728aba86a9a5f4e340d1a79d52eecc22b42",
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
    from repro.bench.experiments_cache import run_a5_cache_coherence
    from repro.bench.experiments_leases import run_a9_leases
    return {"A5": run_a5_cache_coherence,
            "A7": run_a7_batch_resolution,
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
