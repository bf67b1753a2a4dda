"""The smoke gate and runner (`benchmarks/smoke.py`).

The gate is green on an all-identical run and red on mismatches, errored
rows, rows without an identity flag, runs with nothing to check (an empty
run must not read as a guarantee), committed rows missing from a run of
their group, speedups below the group floor, and malformed payloads.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "smoke", Path(__file__).resolve().parent.parent / "benchmarks" / "smoke.py"
)
smoke = importlib.util.module_from_spec(_SPEC)
sys.modules["smoke"] = smoke  # dataclasses look their module up by name
_SPEC.loader.exec_module(smoke)


def _row(scenario="a", group="checkpoint", **fields):
    return {
        "group": group,
        "scenario": scenario,
        "identical": True,
        "mismatches": [],
        "errors": [],
        **fields,
    }


def _payload_file(tmp_path, payload, name="payload.json") -> Path:
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def _gate(tmp_path, current, baseline=None) -> int:
    baseline_path = _payload_file(tmp_path, baseline, "baseline.json") if baseline else None
    return smoke.check_regression(_payload_file(tmp_path, current), baseline_path)


def test_identity_gate_green_on_identical_payload(tmp_path):
    assert _gate(tmp_path, {"results": [_row()]}) == 0


def test_identity_gate_red_on_mismatch(tmp_path):
    row = _row(identical=False, mismatches=["core0.cycles: 1 != 2"])
    assert _gate(tmp_path, {"results": [row]}) == 1


def test_identity_gate_red_on_empty_or_flagless_payloads(tmp_path):
    """No rows (or rows without identity flags) must fail, not pass."""
    assert _gate(tmp_path, {}) == 1
    assert _gate(tmp_path, {"results": []}) == 1
    assert _gate(tmp_path, {"results": [{"group": "checkpoint", "scenario": "a"}]}) == 1


def test_identity_gate_red_on_errored_jobs(tmp_path):
    assert _gate(tmp_path, {"results": [_row(errors=["KeyError: 'boom'"])]}) == 1


def test_cli_argument_validation():
    with pytest.raises(SystemExit):
        smoke.main(["--group", "no_such_group"])
    with pytest.raises(SystemExit):
        smoke.main(["only_baseline.json"])  # payload paths are not arguments


def test_flagless_row_fails_against_a_baseline(tmp_path):
    flagless = {"group": "checkpoint", "scenario": "a", "mismatches": [], "errors": []}
    assert _gate(tmp_path, {"results": [flagless]}, {"results": [_row()]}) == 1


def test_baseline_row_missing_from_a_run_of_its_group_fails(tmp_path):
    baseline = {"results": [_row("a", "trace"), _row("b", "trace"), _row("c", "engine")]}
    assert _gate(tmp_path, {"results": [_row("a", "trace")]}, baseline) == 1
    # A group that did not run owes no rows.
    current = {"results": [_row("a", "trace"), _row("b", "trace")]}
    assert _gate(tmp_path, current, baseline) == 0


@pytest.mark.parametrize(
    ("group", "floor"),
    [
        ("engine", 0.6),
        ("graphics", 0.6),
        ("timing", 0.6),
        ("fastforward", 0.6),
        ("trace", 0.6),
        ("service", 0.05),
    ],
)
def test_speedup_below_floor_times_baseline_fails(tmp_path, group, floor):
    assert smoke.FLOORS[group] == floor
    baseline = {"results": [_row(group=group, speedup=2.0)]}
    at_floor = {"results": [_row(group=group, speedup=2.0 * floor)]}
    below = {"results": [_row(group=group, speedup=2.0 * floor - 0.01)]}
    unmeasured = {"results": [_row(group=group, speedup=None)]}
    assert _gate(tmp_path, at_floor, baseline) == 0
    assert _gate(tmp_path, below, baseline) == 1
    assert _gate(tmp_path, unmeasured, baseline) == 1


def test_malformed_payload_exits_1_with_a_message(tmp_path, capsys):
    good = _payload_file(tmp_path, {"results": [_row()]}, "good.json")
    for text in ('{"benchmark": "no results"}', "not JSON {", '{"results": [1]}'):
        bad = _payload_file(tmp_path, text, "bad.json")
        assert smoke.check_regression(bad) == 1
        assert "bad.json" in capsys.readouterr().err
        assert smoke.check_regression(good, bad) == 1
        assert "bad.json" in capsys.readouterr().err


def test_committed_baseline_covers_the_registry():
    """Every scenario has a committed row; every timed one in a floored group a speedup."""
    rows = {
        (row["group"], row["scenario"]): row
        for row in json.loads(smoke.BASELINE.read_text())["results"]
    }
    keys = {(scenario.group, scenario.name) for scenario in smoke.SCENARIOS}
    assert set(rows) == keys
    for scenario in smoke.SCENARIOS:
        gated = scenario.timed and scenario.group in smoke.FLOORS
        assert (rows[scenario.group, scenario.name].get("speedup") is not None) == gated


def test_run_scenario_keeps_best_of_reps_and_records_errors():
    assert smoke.REPS == 3
    walls = iter([(3.0, 1.0), (2.0, 2.0), (4.0, 0.5)])

    def pair():
        reference, candidate = next(walls)
        return smoke.Leg(reference, None), smoke.Leg(candidate, None)

    def identical(ref, cand):
        return [], {}

    row = smoke.run_scenario(smoke.Scenario("g", "s", "r", "c", pair, identical, timed=True))
    assert row["identical"] and row["speedup"] == 4.0  # best 2.0 s over best 0.5 s

    def broken():
        raise RuntimeError("boom")

    row = smoke.run_scenario(smoke.Scenario("g", "s", "r", "c", broken, identical))
    assert not row["identical"] and row["errors"] == ["RuntimeError: boom"]
