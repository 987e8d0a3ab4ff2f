"""Tests for the whole-program contract pass (R011),
the E001 syntax-error diagnostic, report formats, baselines and the
static teeth test."""

import json
import textwrap

import pytest

from repro.check.lint import (
    RULES,
    RULE_INFO,
    default_lint_root,
    explain_rule,
    lint_paths,
    run_lint,
)
from repro.check.lint.selftest import STATIC_MUTATIONS, run_static_teeth_test


def _lint_sources(tmp_path, files):
    """Write {relpath: source} under tmp_path and lint the tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    violations, _ = lint_paths([str(tmp_path)])
    return violations


def _codes(violations):
    return sorted(v.code for v in violations)


class TestR011EphemeralPurity:
    def test_ungated_read_flagged(self, tmp_path):
        violations = _lint_sources(tmp_path, {"cpu/core.py": """
            class Core:
                def tick(self, now):
                    if self.params.check:
                        self.count = now
            """})
        assert _codes(violations) == ["R011"]
        assert "'check'" in violations[0].message
        assert "Core.tick" in violations[0].message

    def test_gated_read_is_clean(self, tmp_path):
        violations = _lint_sources(tmp_path, {"system/machine.py": """
            class Machine:
                def run(self, until):
                    armed = self.params.watchdog_cycles
                    return armed
            """})
        assert violations == []

    def test_non_ephemeral_field_read_is_clean(self, tmp_path):
        violations = _lint_sources(tmp_path, {"cpu/core.py": """
            class Core:
                def tick(self, now):
                    width = self.params.n_nodes
                    return width
            """})
        assert violations == []

    def test_bare_params_name_read_flagged(self, tmp_path):
        violations = _lint_sources(tmp_path, {"run/helper.py": """
            def helper(params):
                return params.watchdog_cycles
            """})
        assert _codes(violations) == ["R011"]

    def test_pragma_escape(self, tmp_path):
        violations = _lint_sources(tmp_path, {"run/helper.py": """
            def helper(params):
                return params.check  # repro-lint: disable=R011
            """})
        assert violations == []

    def test_params_py_must_declare_registry(self, tmp_path):
        violations = _lint_sources(tmp_path, {"params.py": """
            class SystemParams:
                check: bool = False
                watchdog_cycles: int = 0
                watchdog_node_cycles: int = 0
            """})
        assert _codes(violations) == ["R011"]
        assert "EPHEMERAL_FIELDS" in violations[0].message

    def test_params_py_registry_must_match(self, tmp_path):
        violations = _lint_sources(tmp_path, {"params.py": """
            EPHEMERAL_FIELDS = frozenset({"check"})


            class SystemParams:
                check: bool = False
                watchdog_cycles: int = 0
                watchdog_node_cycles: int = 0
            """})
        assert _codes(violations) == ["R011"]

    def test_real_params_module_is_consistent(self):
        import repro.params
        import repro.params_io
        from repro.check.lint.contracts import EPHEMERAL_REGISTRY

        assert repro.params.EPHEMERAL_FIELDS == EPHEMERAL_REGISTRY
        assert repro.params_io._EPHEMERAL == EPHEMERAL_REGISTRY


class TestSyntaxErrorDiagnostic:
    def test_e001_instead_of_traceback(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        violations, checked = lint_paths([str(tmp_path)])
        assert checked == 1
        assert _codes(violations) == ["E001"]
        assert violations[0].line == 1
        assert "syntax error" in violations[0].message

    def test_e001_is_not_suppressible(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("# repro-lint: disable-file=all\ndef broken(:\n")
        violations, _ = lint_paths([str(tmp_path)])
        assert _codes(violations) == ["E001"]

    def test_other_files_still_linted(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "worse.py").write_text("done = a / b\n")
        violations, checked = lint_paths([str(tmp_path)])
        assert checked == 2
        assert _codes(violations) == ["E001", "R004"]

    def test_run_lint_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        count = run_lint([str(bad)])
        out = capsys.readouterr().out
        assert count == 1
        assert "E001" in out and "bad.py:1:" in out


class TestReportFormats:
    def test_multiple_explicit_paths(self, tmp_path):
        a = tmp_path / "a.py"
        b = tmp_path / "b.py"
        a.write_text("done = x / y\n")
        b.write_text("import random\nv = random.random()\n")
        violations, checked = lint_paths([str(a), str(b)])
        assert checked == 2
        assert _codes(violations) == ["R001", "R004"]

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("done = a / b\n")
        count = run_lint([str(bad)], fmt="json")
        doc = json.loads(capsys.readouterr().out)
        assert count == 1
        assert doc["violation_count"] == 1
        assert doc["checked_files"] == 1
        assert doc["violations_by_code"] == {"R004": 1}
        assert doc["violations"][0]["code"] == "R004"
        assert doc["violations"][0]["line"] == 1

    def test_sarif_format_to_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("done = a / b\n")
        report = tmp_path / "report.sarif"
        count = run_lint([str(bad)], fmt="sarif", output=str(report))
        out = capsys.readouterr().out
        assert count == 1
        # stdout keeps the text diagnostics when writing to a file
        assert "R004" in out
        doc = json.loads(report.read_text())
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "R004"
        rule_ids = {r["id"] for r in
                    doc["runs"][0]["tool"]["driver"]["rules"]}
        assert rule_ids == set(RULES)

    def test_baseline_roundtrip(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("done = a / b\n")
        baseline = tmp_path / "baseline.json"
        assert run_lint([str(bad)],
                        write_baseline=str(baseline)) == 0
        capsys.readouterr()
        # grandfathered finding disappears...
        assert run_lint([str(bad)], baseline=str(baseline)) == 0
        capsys.readouterr()
        # ...but a new finding still fails
        bad.write_text("done = a / b\nimport random\n"
                       "v = random.random()\n")
        count = run_lint([str(bad)], baseline=str(baseline))
        out = capsys.readouterr().out
        assert count == 1
        assert "R001" in out and "R004" not in out

    def test_explain_known_rule(self):
        text = explain_rule("R011")
        assert text.startswith("R011")
        assert "EPHEMERAL_READ_GATES" in text
        assert "whole-program" in text

    def test_explain_unknown_rule(self):
        assert "unknown rule" in explain_rule("R999")

    def test_rule_metadata_complete(self):
        assert set(RULE_INFO) == set(RULES)
        for rule in RULE_INFO.values():
            assert rule.scope in ("file", "program")
            assert rule.explanation


class TestStaticTeeth:
    def test_all_seeded_violations_detected(self):
        results = run_static_teeth_test()
        assert len(results) == len(STATIC_MUTATIONS)
        missed = [r for r in results if not r.detected]
        assert missed == [], [str(r) for r in missed]

    def test_result_format(self):
        results = run_static_teeth_test(["raw-durable-write"])
        assert len(results) == 1
        assert str(results[0]).startswith("[DETECTED] raw-durable-write")
        assert "R013" in results[0].detail

    def test_real_tree_is_clean(self):
        violations, checked = lint_paths([default_lint_root()])
        assert violations == []
        assert checked > 40
