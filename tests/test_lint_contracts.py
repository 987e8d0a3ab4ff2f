"""Tests for R011 (ephemeral-parameter purity), the E001 syntax-error
diagnostic, the rule table and the static mutations."""

import textwrap

import repro.check.lint as lint_module
from repro.check.lint import RULES, lint_paths, run_lint
from repro.check.mutations import run_mutation_self_test


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

    def test_real_params_module_is_consistent(self):
        """One registry: the lint and serialization share
        ``repro.params.EPHEMERAL_FIELDS``, and it names real fields."""
        import dataclasses

        import repro.params
        import repro.params_io

        registry = repro.params.EPHEMERAL_FIELDS
        assert lint_module.EPHEMERAL_FIELDS is registry
        assert repro.params_io.EPHEMERAL_FIELDS is registry
        fields = {f.name for f in
                  dataclasses.fields(repro.params.SystemParams)}
        assert registry <= fields


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

    def test_rule_metadata_complete(self):
        """Each rule's contract is written once, in the module
        docstring's table."""
        table = lint_module.__doc__
        for code, summary in RULES.items():
            assert f"\n{code}    " in table, code
            assert summary


class TestStaticTeeth:
    def test_result_format(self):
        results = run_mutation_self_test(["static-raw-durable-write"])
        assert len(results) == 1
        assert str(results[0]).startswith(
            "[DETECTED] static-raw-durable-write")
        assert "R013" in results[0].detail
