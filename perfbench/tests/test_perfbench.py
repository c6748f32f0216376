"""The benchmark's own tests, at a tiny scale.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.05


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(name: str, seed: int = 3, trace: bool = False) -> tuple:
    lines: list = []
    result = harness.run(name, seed, 0.5, trace, scale=SCALE, log=lines.append)
    return result, lines


def test_spec_matches_harness():
    assert set(NAMES) == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert _units("end_to_end") == harness.END_TO_END_UNITS
    assert _units("per_layer") == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_cli_prints_every_metric_with_unit(name):
    spans = harness.span_file(name, 5)
    spans.unlink(missing_ok=True)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _cli("--workload", name, "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--scale", str(SCALE))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _units(section)
        for metric, unit in got.items():
            assert f"{metric} = " in proc.stdout and proc.stdout.count(unit)
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            events = json.loads(spans.read_text())["traceEvents"]
            assert events and {e["name"] for e in events} >= {"op", "db.sql.parse"}


def _inputs(workload) -> tuple:
    """What the seed generates: statements, table data (or its seed)."""
    return (workload.deck, getattr(workload, "data_seed", None),
            getattr(workload, "initial", None))


@pytest.mark.parametrize("name", NAMES)
def test_seed_is_honoured(name):
    first, _ = _run(name, seed=7)
    again, _ = _run(name, seed=7)
    other, _ = _run(name, seed=8)
    cycles = [r["metrics"]["sim_cycles_per_op"]["value"] for r in (first, again, other)]
    assert cycles[0] == cycles[1]
    assert _inputs(WORKLOADS[name](7, SCALE)) != _inputs(WORKLOADS[name](8, SCALE))
    assert all(r["correct"] and r["failed"] == 0 for r in (first, again, other))


def test_fabric_seed_changes_data():
    a, b = WORKLOADS["fabric-trace"](7, SCALE), WORKLOADS["fabric-trace"](8, SCALE)
    assert a.data_seed != b.data_seed
    assert not all(
        (a._arrays()[c] == b._arrays()[c]).all() for c in ("c0", "c1")
    )


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_cycles(name):
    untraced, _ = _run(name)
    traced, lines = _run(name, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    logged = [line for line in lines if line.startswith("sim_cycles_per_op=")]
    assert logged == [f"sim_cycles_per_op={untraced['metrics']['sim_cycles_per_op']['value']!r}"]
    unattributed = traced["metrics"]["bench.unattributed_frac"]["value"]
    assert 0.0 <= unattributed < 0.5


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_answer_counts_as_failed(name, monkeypatch):
    """A decode that returns a wrong first value must fail the checks."""
    import repro.db.table as table_mod

    real = table_mod.decode_frame_field

    def corrupt(frame, geometry, field):
        out = real(frame, geometry, field).copy()
        if out.dtype.kind in "iu" and len(out):
            out[0] ^= 1
            out[-1] ^= 1
        return out

    monkeypatch.setattr(table_mod, "decode_frame_field", corrupt)
    result, _ = _run(name)
    assert result["failed"] > 0 and result["correct"] is False


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
