"""Self-checks of the benchmark (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (the
parent ``benchmarks/conftest.py`` imports the package).  The one slow
fixture is the ``--smoke`` run of all five workloads with tracing on,
shared by every test that needs real output.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from simloads import sim_workload  # noqa: E402
from tcploads import tcp_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- schema ------------------------------------------------------------------


def test_benchmark_json_is_the_projection_of_spec():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}


def test_names_units_and_limits_fit_the_contract():
    manifest = spec.manifest()
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert len(json.dumps(manifest)) < 64 * 1024


def test_the_ten_end_to_end_metrics_and_their_homes():
    assert len(spec.END_TO_END) == 10
    assert set(spec.DRIVER_GATED) <= {m.name for m in spec.END_TO_END}
    layer_names = {row[0] for row in spec.per_layer_metrics()}
    for metric in spec.END_TO_END:      # every one is printed somewhere
        assert (metric.name in spec.DRIVER_GATED) != (
            metric.name in layer_names)
    for row in spec.INTERACTIONS:
        assert set(row["on"]) <= {w.name for w in spec.WORKLOADS}
        assert set(row["moves"]) <= {m.name for m in spec.END_TO_END}


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS])
def test_scripts_are_a_function_of_the_seed(name):
    make = sim_workload if name in spec.SIM_WORKLOADS else tcp_workload
    load = make(name, True)
    assert load.script(7, 400, 20) == load.script(7, 400, 20)
    assert load.script(7, 400, 20) != load.script(8, 400, 20)


# -- shims -------------------------------------------------------------------


def _targets():
    rows = [t for targets in spec.LAYERS.values() for t in targets]
    rows += [row[:3] for row in tracing.COUNTED]
    return [(tracing._owner_of(module, owner), attr)
            for module, owner, attr in rows]


def test_restore_leaves_every_wrapped_attribute_identical():
    before = [vars(owner)[attr] for owner, attr in _targets()]
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        assert recorder.missing == []
        assert len(saved) == len(before)
        during = [vars(owner)[attr] for owner, attr in _targets()]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracing.restore(saved)
    after = [vars(owner)[attr] for owner, attr in _targets()]
    assert all(a is b for a, b in zip(before, after))


def test_self_time_arithmetic_on_a_synthetic_tree():
    """root[0,100] > a[10,40] > b[15,25]; root > c[50,90]; then a loose
    top-level d[200,230] outside any op."""
    ticks = iter([0, 10, 15, 25, 40, 50, 90, 100, 200, 230])
    recorder = tracing.Recorder(clock=lambda: next(ticks))
    recorder.active = True

    def wrap(layer, label, func, root=False):
        return tracing._sync_shim(recorder, layer, label, func, root, None)

    b = wrap("leaf", "b", lambda: None)
    a = wrap("mid", "a", lambda: b())
    c = wrap("leaf", "c", lambda: None)
    root = wrap("top", "root", lambda: (a(), c()), root=True)
    d = wrap("mid", "d", lambda: None)
    root()
    d()
    assert recorder.ops == 1
    assert dict(recorder.calls) == {"top": 1, "mid": 2, "leaf": 2}
    # root 100 - (30 + 40); a 30 - 10, d 30; b 10 + c 40
    assert dict(recorder.self_ns) == {"top": 30, "mid": 50, "leaf": 50}
    assert recorder.top_ns == 130
    rows = recorder.spans
    assert [row[4] for row in rows] == [-1, 0, 1, 0]    # d is unattributed
    assert tracing.self_times(rows) == {"top": 30, "mid": 20, "leaf": 50}
    assert sum(recorder.self_ns.values()) == recorder.top_ns


def test_an_inactive_recorder_records_nothing():
    recorder = tracing.Recorder(clock=lambda: 1 / 0)    # never consulted
    shim = tracing._sync_shim(recorder, "x", "f", lambda: 41 + 1, True, None)
    assert shim() == 42
    assert not recorder.calls and recorder.ops == 0


# -- agree -------------------------------------------------------------------


def _result_set(directory: Path, ops_per_s: float, smoke: bool = False):
    directory.mkdir()
    (directory / "w.json").write_text(json.dumps({
        "workload": "sim-zipf-sharded", "env": {"smoke": smoke},
        "end_to_end": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "failed_share": {"value": 0.0, "unit": "ratio"}}}))
    return directory


def test_agree_applies_each_metric_bound(tmp_path):
    bound = spec.metric_named("ops_per_s").bound
    base = _result_set(tmp_path / "a", 1000.0)
    near = _result_set(tmp_path / "b", 1000.0 * (1 + bound - 0.01))
    far = _result_set(tmp_path / "c", 1000.0 * (1 + bound + 0.01))
    assert run.agree(base, near) == 0
    assert run.agree(base, far) == 1
    assert run.agree(far, base) == 1
    assert run.agree(base, far, only=["failed_share"]) == 0
    smoke = _result_set(tmp_path / "d", 1000.0, smoke=True)
    assert run.agree(base, smoke) == 2      # smoke numbers never compare


# -- the real thing, at smoke size -------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e_smoke")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--smoke", "--trace", "1", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    reports = {w.name: json.loads((out / f"{w.name}.json").read_text())
               for w in spec.WORKLOADS}
    return done.stdout, reports, out


def test_smoke_prints_every_declared_metric_with_its_unit(smoke):
    stdout, reports, _out = smoke
    layer_units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
    for name, report in reports.items():
        assert report["env"]["smoke"] is True
        assert report["correct"] and report["failed"] == 0, report["problems"]
        assert report["attempted"] >= 1
        want = {m.name: m.unit for m in spec.end_to_end_for(name)}
        got = {k: v["unit"] for k, v in report["end_to_end"].items()}
        assert got == want
        assert {k: v["unit"] for k, v in report["per_layer"].items()} \
            == layer_units
        for key in ("git_commit", "python", "nproc", "loadavg_1m_start",
                    "loadavg_1m_end", "spin_rate_start", "noisy"):
            assert key in report["env"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == layer_units


def test_smoke_layers_work_where_meant_and_only_there(smoke):
    _stdout, reports, out = smoke
    for name, report in reports.items():
        assert report["layer_checks"] == [], (name, report["layer_checks"])
        rows = report["per_layer"]
        assert rows["tracing.overhead_x"]["value"] > 0
        assert abs(rows["tracing.coverage"]["value"] - 1.0) <= 0.05
        trace = json.loads((out / f"{name}.trace.json").read_text())
        assert trace["spans"] and trace["client"]["missing"] == []
        if name in spec.SIM_WORKLOADS:       # the stored tree adds up too
            totals = tracing.self_times([tuple(s) for s in trace["spans"]])
            roots = sum(s[3] - s[2] for s in trace["spans"] if s[4] == -1)
            assert sum(totals.values()) == roots


def test_untraced_line_carries_exactly_the_gated_metrics(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tcp-serial",
         "--smoke", "--trace", "0", "--seed", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    gated = {m["name"]: m["unit"] for m in spec.manifest()["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in last["metrics"].values())
