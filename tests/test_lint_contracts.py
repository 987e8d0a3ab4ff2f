"""Tests for the cache key's coverage of the machine description, the
E001 syntax-error diagnostic, the rule table and the static
mutations."""

import dataclasses

import repro.check.lint as lint_module
from repro.check.lint import RULES, lint_paths, run_lint
from repro.check.mutations import run_mutation_self_test
from repro.params import SystemParams, Tools, default_system
from repro.params_io import params_to_dict


def _codes(violations):
    return sorted(v.code for v in violations)


class TestKeyCoversTheMachine:
    """Every field of the machine description is part of a job's key.
    The run's tooling (sanitizer, watchdogs) lives in ``Tools``, apart
    from ``SystemParams``, so no field can change a run while staying
    out of its cache key."""

    def test_every_params_field_is_serialized(self):
        fields = {f.name for f in dataclasses.fields(SystemParams)}
        assert fields == set(params_to_dict(default_system()))

    def test_tools_are_not_params_fields(self):
        fields = {f.name for f in dataclasses.fields(SystemParams)}
        assert fields.isdisjoint(f.name for f in dataclasses.fields(Tools))


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
