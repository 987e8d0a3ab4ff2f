"""What each entry point imports, checked in fresh interpreters.

An in-process test cannot see a missing or an eager import: some other
test has already loaded the module.  Every check here starts a new
interpreter with only ``src`` on the path.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import cli

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _python(*argv, cwd=None, env=None):
    """Run a fresh interpreter on ``argv``; returns the completed run."""
    full_env = dict(os.environ, PYTHONPATH=SRC, **(env or {}))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=full_env,
                          capture_output=True, text=True, timeout=120)


def _loaded_after(code, **kwargs):
    """The ``repro`` modules loaded once ``code`` has run."""
    out = _python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
                  "n for n in sys.modules if n.split('.')[0] == 'repro')))",
                  **kwargs)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


class TestImportGraph:
    def test_import_repro_loads_only_the_package(self):
        assert _loaded_after("import repro") == {"repro"}

    def test_import_cli_loads_no_runner_or_model(self):
        assert _loaded_after("import repro.cli") == \
            {"repro", "repro.cli", "repro.run"}

    def test_public_names_still_resolve(self):
        loaded = _loaded_after(
            "import repro, repro.run\n"
            "for package in (repro, repro.run):\n"
            "    for name in package.__all__:\n"
            "        assert getattr(package, name) is not None, name")
        assert "repro.system.machine" in loaded

    def test_building_a_dss_machine_loads_only_its_path(self):
        loaded = _loaded_after(
            "import repro.cli\n"
            "from repro.params import default_system\n"
            "from repro.run.jobs import JobSpec, WorkloadSpec\n"
            "from repro.system.machine import Machine\n"
            "spec = JobSpec(default_system(), WorkloadSpec('dss'))\n"
            "Machine(spec.params, spec.workload.build().generators(\n"
            "    spec.params.n_nodes, seed=spec.seed))")
        unwanted = {f"repro.run.{name}" for name in (
            "executor", "cache", "manifest", "atomicio", "faults", "audit",
            "triage", "forkserver")}
        unwanted |= {"repro.core.figures", "repro.stats.render",
                     "repro.trace.oltp", "repro.trace.tpcc"}
        assert "repro.trace.dss" in loaded
        assert not loaded & unwanted
        assert not {n for n in loaded if n.startswith("repro.check")}

    def test_lint_list_rules_loads_no_model(self, tmp_path):
        loaded = _loaded_after(
            "from repro.cli import main\n"
            "assert main(['lint', '--list-rules']) == 0",
            cwd=str(tmp_path), env={"REPRO_CACHE_DIR": str(tmp_path)})
        assert "repro.check.lint" in loaded
        assert not {n for n in loaded
                    if n.split(".")[:2] in (["repro", "cpu"],
                                            ["repro", "mem"])}

    @staticmethod
    def _lint_list_rules(tmp_path, **env):
        """The modules ``python -m repro lint --list-rules`` loads."""
        return _loaded_after(
            "import sys\n"
            "sys.argv = ['repro', 'lint', '--list-rules']\n"
            "import runpy\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code",
            cwd=str(tmp_path), env={"REPRO_CACHE_DIR": str(tmp_path),
                                    **env})

    def test_lint_leaves_the_runner_unconfigured(self, tmp_path):
        """``lint`` reads no cache, so it neither opens nor imports it."""
        loaded = self._lint_list_rules(tmp_path)
        assert "repro.check.lint" in loaded
        assert not loaded & {"repro.run.cache", "repro.run.manifest"}

    def test_no_variable_opens_the_cache_at_import(self, tmp_path):
        """Importing ``repro.run`` opens no cache, whatever the
        environment says; only ``configure`` does."""
        loaded = self._lint_list_rules(tmp_path, REPRO_CACHE="1")
        assert not loaded & {"repro.run.cache", "repro.run.manifest"}

    def test_pool_workers_import_nothing_a_job_runs(self):
        """``get_pool`` loads the job path before it forks, so running a
        job of each workload kind in a worker imports no module."""
        out = _python(
            "-c",
            "import json, sys\n"
            "from repro.params import default_system\n"
            "from repro.run import forkserver\n"
            "from repro.run.jobs import JobSpec, WorkloadSpec\n"
            "def probe(job):\n"
            "    before = set(sys.modules)\n"
            "    outcome = forkserver.run_entry(job, 0, None, None)\n"
            "    new = sorted(n for n in set(sys.modules) - before\n"
            "                 if n.split('.')[0] == 'repro')\n"
            "    return outcome['ok'], new\n"
            "pool = forkserver.get_pool(2)\n"
            "if pool is None:\n"
            "    print(json.dumps(None)); sys.exit()\n"
            "runs = [pool.submit(probe, JobSpec(\n"
            "            default_system(), WorkloadSpec(kind),\n"
            "            instructions=1500, warmup=500).to_dict()).result()\n"
            "        for kind in ('oltp', 'dss', 'tpcc')]\n"
            "forkserver.recycle_pool()\n"
            "print(json.dumps(runs))")
        assert out.returncode == 0, out.stderr
        runs = json.loads(out.stdout.splitlines()[-1])
        if runs is None:
            pytest.skip("process pools are unavailable here")
        assert runs == [[True, []]] * 3


def _subcommands():
    parser = cli._build_parser()
    return sorted(parser._subparsers._group_actions[0].choices)


class TestSubcommandsInFreshInterpreters:
    """Each subcommand that runs no simulation, as a user starts it:
    the exit status is the documented one and nothing raises."""

    def repro(self, tmp_path, *args):
        return _python("-m", "repro", *args, cwd=str(tmp_path),
                       env={"REPRO_CACHE_DIR": str(tmp_path / "cache")})

    @pytest.mark.parametrize("command", [None] + _subcommands())
    def test_help(self, tmp_path, command):
        out = self.repro(tmp_path, *([command] if command else []),
                         "--help")
        assert out.returncode == 0, out.stderr
        assert "usage: repro" in out.stdout
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args, status", [
        (("lint", "--list-rules"), 0),
        (("--no-cache", "sweep-status"), 1),
        (("gc", "--dry-run"), 0),
        (("audit-state",), 0),
    ])
    def test_command_status(self, tmp_path, args, status):
        (tmp_path / "cache").mkdir()
        out = self.repro(tmp_path, *args)
        assert out.returncode == status, out.stdout + out.stderr
        assert "Traceback" not in out.stderr
