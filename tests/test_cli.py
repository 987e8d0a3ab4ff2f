"""Tests for the command-line interface."""

import pytest

import repro.cli as cli
import repro.run
from repro.core import figures as F


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch, tmp_path):
    monkeypatch.setitem(F.SIZES, "quick",
                        {"oltp": (3000, 3000), "dss": (3000, 3000)})
    # The CLI enables the persistent cache by default; keep test runs
    # isolated in a throwaway directory and restore the previous state.
    previous = (repro.run._jobs, repro.run._cache, repro.run._manifest,
                repro.run._policy, repro.run._resume)
    repro.run.configure(cache_dir=str(tmp_path / "cache"))
    yield
    (repro.run._jobs, repro.run._cache, repro.run._manifest,
     repro.run._policy, repro.run._resume) = previous


class TestCli:
    def test_characterize(self, capsys):
        assert cli.main(["--quick", "characterize"]) == 0
        out = capsys.readouterr().out
        assert "OLTP" in out and "DSS" in out
        assert "l1d_miss_rate" in out

    def test_figure_5(self, capsys):
        assert cli.main(["--quick", "figure", "5", "oltp"]) == 0
        out = capsys.readouterr().out
        assert "uniprocessor" in out and "multiprocessor" in out

    def test_figure_7b(self, capsys):
        assert cli.main(["--quick", "figure", "7b"]) == 0
        out = capsys.readouterr().out
        assert "flush" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            cli.main(["--quick", "figure", "99"])

    @pytest.mark.parametrize("argv, message", [
        (["2a", "dss"], "figure 2a is OLTP; DSS is figure 3a"),
        (["3c", "oltp"], "figure 3c is DSS; OLTP is figure 2c"),
        (["7b", "dss"], "figure 7b is OLTP; there is no DSS figure 7b"),
    ])
    def test_fixed_workload_figure_rejects_the_other(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            cli.main(["--quick", "figure", *argv])

    def test_report_runs_exactly_the_table(self, monkeypatch, capsys):
        monkeypatch.setitem(F.SIZES, "quick",
                            {"oltp": (600, 400), "dss": (700, 300)})
        calls = []
        real_run_many = F.run_many

        def spy(specs, **kwargs):
            calls.append([spec.to_dict() for spec in specs])
            return real_run_many(specs, **kwargs)

        monkeypatch.setattr(F, "run_many", spy)
        assert cli.main(["--quick", "--no-cache", "report"]) == 0
        expected = [
            [spec.to_dict() for spec in F.plan(
                key, *F.SIZES["quick"][F.FIGURES[key].workload])]
            for key in ("characterize",) + F.REPORT]
        assert calls == expected
        out = capsys.readouterr().out
        assert "FAILED" not in out and "l2_occupancy_reads" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main(["--quick"])

    def test_cache_dir_flag(self, tmp_path):
        target = tmp_path / "elsewhere"
        assert cli.main(["--cache-dir", str(target), "--quick",
                         "characterize"]) == 0
        assert target.is_dir() and any(target.iterdir())

    def test_sweep_status_without_cache_fails(self, capsys):
        assert cli.main(["--no-cache", "sweep-status"]) == 1
        assert "no manifest" in capsys.readouterr().out

    def test_sweep_status_reports_manifest_progress(self, tmp_path,
                                                    capsys):
        target = tmp_path / "sweep-cache"
        assert cli.main(["--cache-dir", str(target), "--quick",
                         "figure", "5", "oltp"]) == 0
        capsys.readouterr()
        assert cli.main(["--cache-dir", str(target),
                         "sweep-status"]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        assert "done" in out and "attempts" in out
        assert "cache:" in out

    def test_resilience_flags_configure_runner(self):
        assert cli.main(["--retries", "7", "--job-timeout", "120",
                         "--resume", "sweep-status"]) == 0
        state = repro.run.runner_state()
        assert state.policy.retries == 7
        assert state.policy.job_timeout == 120.0
        assert state.resume is True


class TestCheckCommands:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert cli.main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violations_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert cli.main(["lint", str(bad)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert cli.main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == \
            ["R001", "R002", "R003", "R004", "R013"]

    def test_lint_missing_path_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert cli.main(["lint", str(missing)]) != 0
        assert str(missing) in capsys.readouterr().err

    def test_check_exit_codes(self, monkeypatch):
        # The real suite runs in CI and tests/test_check_*; here we only
        # assert the CLI turns the suite verdict into the exit status.
        import repro.check
        monkeypatch.setattr(repro.check, "run_check_suite",
                            lambda verbose, self_test, durability: True)
        assert cli.main(["check"]) == 0
        monkeypatch.setattr(repro.check, "run_check_suite",
                            lambda verbose, self_test, durability: False)
        assert cli.main(["check", "--skip-mutations"]) == 1

    def test_validate_exit_codes(self, monkeypatch):
        import repro.core.validation as validation
        from repro.core.validation import ValidationResult
        monkeypatch.setattr(
            validation, "run_all",
            lambda verbose: [ValidationResult("x", True, "ok")])
        assert cli.main(["validate"]) == 0
        monkeypatch.setattr(
            validation, "run_all",
            lambda verbose: [ValidationResult("x", False, "bad")])
        assert cli.main(["validate"]) == 1
