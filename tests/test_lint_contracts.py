"""Tests for the whole-program contract passes (R010/R011/R012),
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


class TestR010SnapshotCompleteness:
    def test_missed_tick_attribute_flagged(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self.count = now
                    self.lost = now + 1

                def snapshot(self):
                    return {"count": self.count}

                def restore(self, state):
                    self.count = state["count"]
            """})
        assert _codes(violations) == ["R010"]
        assert "self.lost" in violations[0].message

    def test_restore_recomputed_cache_is_covered(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self.count = now
                    self._cache = now * 2

                def snapshot(self):
                    return {"count": self.count}

                def restore(self, state):
                    self.count = state["count"]
                    self._cache = self.count * 2
            """})
        assert violations == []

    def test_cold_methods_do_not_count(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def __init__(self):
                    self.wiring = object()

                def reset_stats(self):
                    self.scratch = 0

                def tick(self, now):
                    self.count = now

                def snapshot(self):
                    return {"count": self.count}

                def restore(self, state):
                    self.count = state["count"]
            """})
        assert violations == []

    def test_closure_over_helper_calls(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self._helper(now)

                def _helper(self, now):
                    self.deep = now

                def snapshot(self):
                    return {}

                def restore(self, state):
                    pass
            """})
        assert _codes(violations) == ["R010"]
        assert "self.deep" in violations[0].message

    def test_restore_key_snapshot_never_writes(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self.count = now

                def snapshot(self):
                    return {"count": self.count}

                def restore(self, state):
                    self.count = state["count"]
                    self.other = state.get("other", 0)
            """})
        assert _codes(violations) == ["R010"]
        assert "'other'" in violations[0].message

    def test_snapshot_only_key_is_legal(self, tmp_path):
        # e.g. Process stores "pid" for external re-linking; restore
        # ignoring a snapshot key is not a violation.
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self.count = now

                def snapshot(self):
                    return {"count": self.count, "pid": 7}

                def restore(self, state):
                    self.count = state["count"]
            """})
        assert violations == []

    def test_declared_scratch_is_exempt(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class ProcessorCore:
                def tick(self, now):
                    self.count = now
                    self.tick_quiet = False

                def snapshot(self):
                    return {"count": self.count}

                def restore(self, state):
                    self.count = state["count"]
            """})
        assert violations == []

    def test_pragma_suppresses_at_write_site(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self.scratch = now  # repro-lint: disable=R010

                def snapshot(self):
                    return {}

                def restore(self, state):
                    pass
            """})
        assert violations == []

    def test_subscript_store_counts_as_mutation(self, tmp_path):
        violations = _lint_sources(tmp_path, {"widget.py": """
            class Widget:
                def tick(self, now):
                    self.table[now] = 1

                def snapshot(self):
                    return {}

                def restore(self, state):
                    pass
            """})
        assert _codes(violations) == ["R010"]
        assert "self.table" in violations[0].message


class TestR011EphemeralPurity:
    def test_ungated_read_flagged(self, tmp_path):
        violations = _lint_sources(tmp_path, {"cpu/core.py": """
            class Core:
                def tick(self, now):
                    if self.params.check:
                        self.count = now

                def snapshot(self):
                    return {"count": self.count}

                def restore(self, state):
                    self.count = state["count"]
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


class TestR012BackendSurfaces:
    def test_fast_only_write_flagged(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class ProcessorCore:
                def tick(self, now):
                    self.count = now

                def tick_fast(self, now):
                    self.count = now
                    self.extra = 1

                def settle(self, now):
                    pass
            """})
        assert _codes(violations) == ["R012"]
        assert "'extra'" in violations[0].message

    def test_reference_only_write_flagged(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class ProcessorCore:
                def tick(self, now):
                    self.count = now
                    self.only_ref = 1

                def tick_fast(self, now):
                    self.count = now

                def settle(self, now):
                    pass
            """})
        assert _codes(violations) == ["R012"]
        assert "'only_ref'" in violations[0].message

    def test_settle_completes_the_fast_surface(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class ProcessorCore:
                def tick(self, now):
                    self.count = now
                    self.gap = 0

                def tick_fast(self, now):
                    self.count = now

                def settle(self, now):
                    self.gap = 0
            """})
        assert violations == []

    def test_alias_resolved_dotted_write(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class ProcessorCore:
                def tick(self, now):
                    self.storebuf.flag = True

                def tick_fast(self, now):
                    sb = self.storebuf
                    sb.flag = True

                def settle(self, now):
                    pass
            """})
        assert violations == []

    def test_allowed_certification_scratch(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class ProcessorCore:
                def tick(self, now):
                    self.count = now

                def tick_fast(self, now):
                    self.count = now
                    self.tick_quiet = True
                    self.storebuf.drain_activity = False

                def settle(self, now):
                    pass
            """})
        assert violations == []

    def test_other_class_names_not_audited(self, tmp_path):
        violations = _lint_sources(tmp_path, {"core.py": """
            class SomethingElse:
                def tick(self, now):
                    self.count = now

                def tick_fast(self, now):
                    pass
            """})
        assert violations == []


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
        text = explain_rule("R010")
        assert text.startswith("R010")
        assert "snapshot" in text
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
        results = run_static_teeth_test(["fast-only-write"])
        assert len(results) == 1
        assert str(results[0]).startswith("[DETECTED] fast-only-write")
        assert "R012" in results[0].detail

    def test_real_tree_is_clean(self):
        violations, checked = lint_paths([default_lint_root()])
        assert violations == []
        assert checked > 40
