"""Engine mechanics: suppressions, parse errors, baselines, reports."""

import json

import pytest

from repro.checks import (
    Finding,
    check_source,
    compare,
    iter_python_files,
    load_baseline,
    render_json,
    render_text,
    run_checks,
    write_baseline,
)

BAD_DEFAULT = "def f(acc=[]):\n    return acc\n"


class TestSuppressions:
    def test_line_disable_suppresses(self):
        source = "def f(acc=[]):  # repro-check: disable=PY001\n    return acc\n"
        report = check_source(source, "x.py", rules=["PY001"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_line_disable_is_rule_specific(self):
        source = ("def f(acc=[]):  # repro-check: disable=SIM001\n"
                  "    return acc\n")
        report = check_source(source, "x.py", rules=["PY001"])
        assert len(report.findings) == 1

    def test_disable_all(self):
        source = ("def f(acc=[]):  # repro-check: disable=all\n"
                  "    return acc\n")
        assert check_source(source, "x.py").findings == []

    def test_file_level_disable(self):
        source = ("# repro-check: disable-file=PY001\n" + BAD_DEFAULT
                  + "def g(acc={}):\n    return acc\n")
        report = check_source(source, "x.py", rules=["PY001"])
        assert report.findings == []
        assert report.suppressed == 2

    def test_directive_inside_string_is_ignored(self):
        source = ('S = "# repro-check: disable-file=PY001"\n'
                  + BAD_DEFAULT)
        report = check_source(source, "x.py", rules=["PY001"])
        assert len(report.findings) == 1


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self):
        report = check_source("def broken(:\n", "bad.py")
        assert report.findings == []
        assert len(report.errors) == 1
        assert report.errors[0].path == "bad.py"
        assert "line 1" in report.errors[0].message


class TestFileDiscovery:
    def test_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "top.py").write_text("x = 1\n")
        found = iter_python_files([tmp_path])
        assert [p.name for p in found] == ["top.py", "a.py"] or \
               [p.name for p in found] == ["a.py", "top.py"]

    def test_explicit_file_always_included(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text(BAD_DEFAULT)
        report = run_checks([target], rules=["PY001"])
        assert report.files == 1
        assert len(report.findings) == 1


def _finding(key="f.acc", path="x.py", line=1):
    return Finding(path=path, line=line, col=0, rule="PY001", key=key,
                   message="mutable default")


class TestBaseline:
    def test_round_trip_and_partition(self, tmp_path):
        baseline_path = tmp_path / "base.json"
        old = _finding(key="f.acc")
        write_baseline(baseline_path, [old])
        baseline = load_baseline(baseline_path)
        new = _finding(key="g.acc")
        comparison = compare([old, new], baseline)
        assert comparison.baselined == [old]
        assert comparison.new == [new]
        assert comparison.stale == []

    def test_line_moves_do_not_invalidate_baseline(self, tmp_path):
        baseline_path = tmp_path / "base.json"
        write_baseline(baseline_path, [_finding(line=3)])
        comparison = compare([_finding(line=99)],
                             load_baseline(baseline_path))
        assert comparison.new == []

    def test_stale_entries_surface(self, tmp_path):
        baseline_path = tmp_path / "base.json"
        write_baseline(baseline_path, [_finding(key="gone.attr")])
        comparison = compare([], load_baseline(baseline_path))
        assert comparison.stale == ["PY001:x.py:gone.attr"]

    def test_multiplicity_honored(self):
        twice = [_finding(), _finding()]
        baseline = compare(twice, {})  # nothing baselined
        assert len(baseline.new) == 2
        write = {f.fingerprint: 1 for f in twice[:1]}
        comparison = compare(twice, write)
        assert len(comparison.baselined) == 1
        assert len(comparison.new) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)


class TestReports:
    def test_text_report_lists_new_findings_and_summary(self):
        report = check_source(BAD_DEFAULT, "x.py", rules=["PY001"])
        comparison = compare(report.findings, {})
        text = render_text(report, comparison)
        assert "x.py:1:10: PY001" in text
        assert "1 new finding(s)" in text

    def test_json_report_is_machine_readable(self):
        report = check_source(BAD_DEFAULT, "x.py", rules=["PY001"])
        comparison = compare(report.findings, {})
        payload = json.loads(render_json(report, comparison))
        assert payload["files"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "PY001"
        assert finding["fingerprint"] == "PY001:x.py:f.acc"

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError, match="NOPE"):
            check_source("x = 1\n", "x.py", rules=["NOPE"])


class TestStrictSuppressions:
    def test_stale_directive_reported(self):
        source = "def f(x):  # repro-check: disable=PY001\n    return x\n"
        report = check_source(source, "x.py", rules=["PY001"],
                              strict_suppressions=True)
        assert [f.rule for f in report.findings] == ["SUP001"]
        assert "PY001" in report.findings[0].message

    def test_used_directive_not_stale(self):
        source = ("def f(acc=[]):  # repro-check: disable=PY001\n"
                  "    return acc\n")
        report = check_source(source, "x.py", rules=["PY001"],
                              strict_suppressions=True)
        assert report.findings == []
        assert report.suppressed == 1

    def test_directive_for_unselected_rule_not_stale(self):
        # PY001 didn't run, so the engine can't know whether the
        # directive still suppresses anything — stay quiet.
        source = "def f(x):  # repro-check: disable=PY001\n    return x\n"
        report = check_source(source, "x.py", rules=["SIM002"],
                              strict_suppressions=True)
        assert report.findings == []

    def test_stale_file_level_directive_reported(self):
        source = "# repro-check: disable-file=PY001\nx = 1\n"
        report = check_source(source, "x.py", rules=["PY001"],
                              strict_suppressions=True)
        assert [f.key for f in report.findings] == [
            "stale:disable-file=PY001"]

    def test_off_by_default(self):
        source = "def f(x):  # repro-check: disable=PY001\n    return x\n"
        assert check_source(source, "x.py", rules=["PY001"]).findings == []
