"""Tests for the experiment suite: every paper claim reproduces.

These are the repository's headline assertions: each experiment's
shape checks encode a claim from the paper, and all of them must hold.
"""

from __future__ import annotations

import pytest

import repro.bench
from repro.bench import ALL_EXPERIMENTS, run_all
from repro.bench.harness import ExperimentResult


@pytest.fixture(scope="session")
def results():
    """``results(seed)``: :func:`run_all` at *seed*, computed once per
    session and shared by every test that reads it."""
    computed: dict[int, dict[str, ExperimentResult]] = {}

    def results(seed: int = 0) -> dict[str, ExperimentResult]:
        if seed not in computed:
            computed[seed] = run_all(seed=seed)
        return computed[seed]
    return results


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment_shape_reproduces(results, exp_id):
    result = results(0)[exp_id]
    assert result.all_checks_pass(), (
        f"{exp_id} failed checks: {result.failed_checks()}\n"
        f"{result.render()}")


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_experiment_has_rows_and_checks(results, exp_id):
    result = results(0)[exp_id]
    assert result.rows, f"{exp_id} produced no table rows"
    assert result.checks, f"{exp_id} recorded no shape checks"
    assert result.exp_id == exp_id


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_experiments_hold_across_seeds(results, seed):
    """The claims are structural, not seed luck: every experiment's
    shape checks hold under other seeds too."""
    for exp_id, result in results(seed).items():
        assert result.all_checks_pass(), (
            f"{exp_id} seed={seed}: {result.failed_checks()}")


def test_run_all_covers_every_experiment(results):
    assert list(results(0)) == list(ALL_EXPERIMENTS)
    assert all(isinstance(r, ExperimentResult) for r in results(0).values())


def test_render_formats(results):
    result = results(0)["E2"]
    rendered = result.render()
    assert "E2" in rendered
    assert "[PASS]" in rendered
    assert "R(sender)" in rendered


def test_result_helpers():
    result = ExperimentResult(exp_id="X", title="t", headers=["a"])
    assert result.check("claim", True)
    assert not result.check("bad", False)
    assert result.failed_checks() == ["bad"]
    assert not result.all_checks_pass()
    assert "SHAPE MISMATCH" in str(result)


def test_e2_figures_match_paper_matrix(results):
    result = results(0)["E2"]
    assert result.figures[("R(sender)|global")] == 1.0
    assert result.figures[("R(sender)|non-global")] == 1.0
    assert result.figures[("R(receiver)|global")] == 1.0
    assert result.figures[("R(receiver)|non-global")] == 0.0


def test_a2_ordering_figures(results):
    result = results(0)["A2"]
    figures = result.figures
    assert figures["single-tree"] >= figures["shared-graph"] >= \
        figures["newcastle"]
    assert figures["shared-graph"] >= figures["cross-links"]


def test_e9_mapped_beats_raw(results):
    result = results(0)["E9"]
    assert result.figures["mapped_rate"] == 1.0
    assert result.figures["raw_rate"] < result.figures["mapped_rate"]


def test_to_dict_is_json_serialisable_for_every_experiment(results):
    import json

    for exp_id, result in results(0).items():
        document = result.to_dict()
        encoded = json.dumps(document)
        decoded = json.loads(encoded)
        assert decoded["exp_id"] == exp_id
        assert decoded["all_checks_pass"] is True
        assert decoded["rows"], exp_id


def test_run_all_json_tool(capsys, monkeypatch, results):
    import json
    import runpy
    import sys
    from pathlib import Path

    tool = (Path(__file__).resolve().parents[2] / "tools"
            / "run_all_json.py")
    # The tool runs as written; the suite it imports is the session's.
    monkeypatch.setattr(repro.bench, "run_all", results)
    argv = sys.argv
    sys.argv = [str(tool), "--seed", "0"]
    try:
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(str(tool), run_name="__main__")
    finally:
        sys.argv = argv
    assert excinfo.value.code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["all_reproduced"] is True
    assert set(document["experiments"]) == set(ALL_EXPERIMENTS)


def test_experiments_are_deterministic():
    """Same seed, same everything — rows, checks, figures."""
    for exp_id in ("E2", "E5", "E9", "A3", "A5"):
        first = ALL_EXPERIMENTS[exp_id](seed=11).to_dict()
        second = ALL_EXPERIMENTS[exp_id](seed=11).to_dict()
        assert first == second, exp_id
