"""The benchmark regression gate: flattening, tolerance rules, and the
bench_compare CLI exit codes."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.regress import (
    Tolerance,
    compare,
    flatten,
    load_spec,
    match_rule,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = [
    Tolerance("*seconds*", direction="ignore"),
    Tolerance("*bit_identical*", rel_tol=0.0, direction="higher_is_better"),
    Tolerance("*cycles*", rel_tol=0.10, direction="lower_is_better"),
    Tolerance("*", rel_tol=0.05, direction="both"),
]


# ----------------------------------------------------------------------
# Flattening.
# ----------------------------------------------------------------------
class TestFlatten:
    def test_nested_paths(self):
        doc = {"a": {"b": 1, "c": [2, {"d": 3}]}, "e": 4.5}
        assert flatten(doc) == {
            "a.b": 1.0,
            "a.c[0]": 2.0,
            "a.c[1].d": 3.0,
            "e": 4.5,
        }

    def test_bools_become_binary(self):
        assert flatten({"ok": True, "bad": False}) == {"ok": 1.0, "bad": 0.0}

    def test_strings_and_nulls_skipped(self):
        assert flatten({"name": "q6", "note": None, "n": 1}) == {"n": 1.0}


# ----------------------------------------------------------------------
# Rule matching and comparison.
# ----------------------------------------------------------------------
class TestCompare:
    def test_first_match_wins(self):
        rule = match_rule("scan.scalar_seconds", RULES)
        assert rule.direction == "ignore"
        assert match_rule("scan.cycles[0]", RULES).rel_tol == 0.10

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            Tolerance("*", direction="sideways")

    def test_twenty_percent_cycle_regression_fails(self):
        base = {"scan": {"cycles": 1000.0}}
        cur = {"scan": {"cycles": 1200.0}}
        report = compare("t", base, cur, RULES)
        assert report.failed
        (finding,) = report.regressions
        assert finding.path == "scan.cycles"
        assert finding.rel_delta == pytest.approx(0.20)

    def test_within_tolerance_passes(self):
        base = {"scan": {"cycles": 1000.0, "rows": 100}}
        cur = {"scan": {"cycles": 1030.0, "rows": 100}}
        report = compare("t", base, cur, RULES)
        assert not report.failed
        assert report.counts() == {"ok": 2}

    def test_improvement_is_noted_not_fatal(self):
        report = compare(
            "t", {"cycles": 1000.0}, {"cycles": 500.0}, RULES
        )
        assert not report.failed
        assert report.findings[0].status == "improved"

    def test_wall_clock_ignored_even_when_terrible(self):
        report = compare(
            "t", {"scalar_seconds": 0.1}, {"scalar_seconds": 99.0}, RULES
        )
        assert report.counts() == {"ignored": 1}

    def test_bit_identical_flip_is_fatal(self):
        report = compare(
            "t", {"bit_identical": True}, {"bit_identical": False}, RULES
        )
        assert report.failed

    def test_missing_metric_is_a_regression(self):
        report = compare("t", {"rows": 10, "gone": 5}, {"rows": 10}, RULES)
        assert report.failed
        assert report.regressions[0].path == "gone"

    def test_new_metric_is_noted(self):
        report = compare("t", {"rows": 10}, {"rows": 10, "fresh": 1}, RULES)
        assert not report.failed
        assert {f.status for f in report.findings} == {"ok", "new"}

    def test_zero_baseline_nonzero_current(self):
        report = compare("t", {"aborts": 0}, {"aborts": 3}, RULES)
        assert report.failed
        assert report.regressions[0].note == "baseline was zero"

    def test_load_spec_roundtrip(self, tmp_path):
        spec = tmp_path / "tol.json"
        spec.write_text(json.dumps({
            "rules": [{"pattern": "*seconds*", "direction": "ignore"}],
            "default": {"rel_tol": 0.02, "direction": "both"},
        }))
        rules = load_spec(str(spec))
        assert rules[0].direction == "ignore"
        assert rules[-1].pattern == "*" and rules[-1].rel_tol == 0.02


# ----------------------------------------------------------------------
# The CLI.
# ----------------------------------------------------------------------
class TestCli:
    def _run(self, tmp_path, current, baseline, spec=None):
        base_dir = tmp_path / "baselines"
        base_dir.mkdir(exist_ok=True)
        (base_dir / "BENCH_x.json").write_text(json.dumps(baseline))
        (base_dir / "tolerances.json").write_text(json.dumps(
            spec or {"rules": [{"pattern": "*seconds*", "direction": "ignore"}],
                     "default": {"rel_tol": 0.05, "direction": "both"}}
        ))
        cur = tmp_path / "BENCH_x.json"
        cur.write_text(json.dumps(current))
        report = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO, "scripts", "bench_compare.py"),
             "--baseline-dir", str(base_dir), "--report", str(report),
             str(cur)],
            capture_output=True, text=True,
        )
        return proc, report

    def test_pass_within_noise(self, tmp_path):
        proc, report = self._run(
            tmp_path, {"cycles": 1010.0}, {"cycles": 1000.0}
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert json.loads(report.read_text())[0]["failed"] is False

    def test_fail_on_degradation(self, tmp_path):
        proc, report = self._run(
            tmp_path, {"cycles": 1200.0}, {"cycles": 1000.0}
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stderr
        assert json.loads(report.read_text())[0]["failed"] is True

    def test_missing_baseline_is_usage_error(self, tmp_path):
        base_dir = tmp_path / "baselines"
        base_dir.mkdir()
        (base_dir / "tolerances.json").write_text(json.dumps({"rules": []}))
        cur = tmp_path / "BENCH_x.json"
        cur.write_text("{}")
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO, "scripts", "bench_compare.py"),
             "--baseline-dir", str(base_dir), str(cur)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_committed_spec_loads(self):
        rules = load_spec(
            os.path.join(REPO, "benchmarks", "baselines", "tolerances.json")
        )
        assert any(r.direction == "ignore" for r in rules)
        assert rules[-1].pattern == "*"


# ----------------------------------------------------------------------
# The metrics-JSON branch of the schema validator.
# ----------------------------------------------------------------------
class TestMetricsSchemaCheck:
    def _check(self, tmp_path, doc):
        path = tmp_path / "METRICS_x.json"
        path.write_text(json.dumps(doc))
        return subprocess.run(
            [sys.executable,
             os.path.join(REPO, "scripts", "check_trace_schema.py"), str(path)],
            capture_output=True, text=True,
        )

    def _valid_doc(self):
        return {
            "schema": "repro.metrics/v1",
            "interval_cycles": 100.0,
            "ticks": [100.0, 200.0],
            "series": {"a": [1.0, 2.0], "late": [None, 5.0]},
        }

    def test_valid_series_passes(self, tmp_path):
        proc = self._check(tmp_path, self._valid_doc())
        assert proc.returncode == 0, proc.stderr
        assert "2 series x 2 samples" in proc.stdout

    def test_ragged_series_fails(self, tmp_path):
        doc = self._valid_doc()
        doc["series"]["a"] = [1.0]
        assert self._check(tmp_path, doc).returncode == 1

    def test_non_increasing_ticks_fail(self, tmp_path):
        doc = self._valid_doc()
        doc["ticks"] = [200.0, 100.0]
        assert self._check(tmp_path, doc).returncode == 1

    def test_bad_interval_fails(self, tmp_path):
        doc = self._valid_doc()
        doc["interval_cycles"] = 0
        assert self._check(tmp_path, doc).returncode == 1

    # ------------------------------------------------------------------
    # SQL front-door series semantics.
    # ------------------------------------------------------------------
    def test_sql_counter_decrease_fails(self, tmp_path):
        doc = self._valid_doc()
        doc["series"] = {"sql_statements_total": [3.0, 2.0]}
        proc = self._check(tmp_path, doc)
        assert proc.returncode == 1
        assert "counter decreased" in proc.stderr

    def test_sql_decode_cache_miss_decrease_fails(self, tmp_path):
        doc = self._valid_doc()
        doc["series"] = {"sql_decode_cache_misses_total": [5.0, 4.0]}
        proc = self._check(tmp_path, doc)
        assert proc.returncode == 1
        assert "counter decreased" in proc.stderr

    def test_sql_negative_sample_fails(self, tmp_path):
        doc = self._valid_doc()
        doc["series"] = {"sql_rows_returned_total": [-1.0, 0.0]}
        assert self._check(tmp_path, doc).returncode == 1

    def test_sql_txn_open_must_be_binary(self, tmp_path):
        doc = self._valid_doc()
        doc["series"] = {"sql_txn_open": [0.0, 2.0]}
        proc = self._check(tmp_path, doc)
        assert proc.returncode == 1
        assert "0/1" in proc.stderr

    def test_clean_sql_series_passes(self, tmp_path):
        doc = self._valid_doc()
        doc["series"] = {
            "sql_statements_total": [1.0, 4.0],
            "sql_txn_open": [None, 1.0],
        }
        proc = self._check(tmp_path, doc)
        assert proc.returncode == 0, proc.stderr


class TestSqlSpanCheck:
    """A real statement trace must pass the checker, and ``sql.*`` spans
    stripped of their layer tag must fail it."""

    def _check(self, path):
        return subprocess.run(
            [sys.executable,
             os.path.join(REPO, "scripts", "check_trace_schema.py"), str(path)],
            capture_output=True, text=True,
        )

    def _statement_trace(self):
        from repro.db.sql.pipeline import Session
        from repro.obs import Tracer

        s = Session(tracer=Tracer())
        s.execute("CREATE TABLE t (id INT32, v INT32)")
        s.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
        s.execute("SELECT sum(v) AS s FROM t")
        trace = s.last_trace
        s.close()
        return trace

    def test_statement_trace_passes(self, tmp_path):
        path = tmp_path / "TRACE_sql.json"
        path.write_text(self._statement_trace().to_chrome_json())
        proc = self._check(path)
        assert proc.returncode == 0, proc.stderr
        assert "spans" in proc.stdout

    def test_sql_span_without_layer_fails(self, tmp_path):
        doc = json.loads(self._statement_trace().to_chrome_json())
        for event in doc["traceEvents"]:
            if event["name"].startswith("sql."):
                event["args"].pop("layer", None)
        path = tmp_path / "TRACE_sql.json"
        path.write_text(json.dumps(doc))
        proc = self._check(path)
        assert proc.returncode == 1
        assert "layer == 'sql'" in proc.stderr
