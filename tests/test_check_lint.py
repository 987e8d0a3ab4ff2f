"""Tests for the AST determinism linter (``repro lint``)."""

import os
import subprocess
import sys

import pytest

from repro.check.lint import (
    RULES,
    _FileLinter,
    default_lint_root,
    iter_python_files,
    lint_paths,
    run_lint,
)


def lint_source(source: str):
    return _FileLinter("<test>", source).run()


def codes(source: str):
    return [v.code for v in lint_source(source)]


class TestR001Random:
    def test_module_level_call(self):
        assert codes("import random\nx = random.randint(0, 5)\n") == ["R001"]

    def test_unseeded_random_instance(self):
        assert codes("import random\nrng = random.Random()\n") == ["R001"]

    def test_seeded_instance_is_clean(self):
        assert codes("import random\n"
                     "rng = random.Random(42)\n"
                     "value = rng.random()\n") == []

    def test_from_import(self):
        assert codes("from random import shuffle\nshuffle([1])\n") == ["R001"]

    def test_import_alias(self):
        assert codes("import random as rnd\nx = rnd.random()\n") == ["R001"]


class TestR002WallClock:
    def test_perf_counter(self):
        assert codes("import time\nt = time.perf_counter()\n") == ["R002"]

    def test_from_import_monotonic(self):
        assert codes("from time import monotonic\nt = monotonic()\n") == \
            ["R002"]

    def test_datetime_now(self):
        assert codes("from datetime import datetime\n"
                     "d = datetime.now()\n") == ["R002"]

    def test_time_sleep_is_clean(self):
        assert codes("import time\ntime.sleep(0)\n") == []


class TestR003SetIteration:
    def test_for_loop_over_set(self):
        assert codes("s = {1, 2}\nfor x in s:\n    pass\n") == ["R003"]

    def test_comprehension_over_set(self):
        assert codes("s = set()\nout = [x for x in s]\n") == ["R003"]

    def test_list_of_set(self):
        assert codes("s = {1}\nout = list(s)\n") == ["R003"]

    def test_set_difference_via_attribute(self):
        source = (
            "class A:\n"
            "    def __init__(self):\n"
            "        self.sharers: set = set()\n"
            "    def go(self, entry, node):\n"
            "        for s in entry.sharers - {node}:\n"
            "            pass\n")
        assert codes(source) == ["R003"]

    def test_sorted_wrapping_is_clean(self):
        assert codes("s = {1}\nfor x in sorted(s):\n    pass\n") == []

    def test_membership_and_len_are_clean(self):
        assert codes("s = {1}\nok = 1 in s\nn = len(s)\n") == []


class TestR004CycleDivision:
    def test_division_into_cycle_name(self):
        assert codes("done_at = x / y\n") == ["R004"]

    def test_division_into_now(self):
        assert codes("now = 0\nnow = now + total / 3\n") == ["R004"]

    def test_augmented_division(self):
        assert codes("latency = 4\nlatency /= 2\n") == ["R004"]

    def test_int_wrap_is_clean(self):
        assert codes("done_at = int(x / y)\n") == []

    def test_floor_division_is_clean(self):
        assert codes("cycles = a // b\n") == []

    def test_non_cycle_name_is_clean(self):
        assert codes("fraction = hits / total\n") == []


class TestR005SpecFields:
    def test_foreign_type_flagged(self):
        source = ("class JobSpec:\n"
                  "    instructions: int\n"
                  "    machine: Machine\n")
        violations = lint_source(source)
        assert [v.code for v in violations] == ["R005"]
        assert "Machine" in violations[0].message

    def test_allowed_types_clean(self):
        source = ("class WorkloadSpec:\n"
                  "    kind: str\n"
                  "    hints: MigratoryHints\n"
                  "    extra: Optional[Dict[str, float]]\n")
        assert codes(source) == []

    def test_other_classes_ignored(self):
        assert codes("class Anything:\n    machine: Machine\n") == []


class TestPragmaEdgeCases:
    """Lock in the pragma grammar the package refactor must preserve."""

    def test_multi_code_pragma_suppresses_both(self, tmp_path):
        # A hot-module tick body where one line trips R004 (division
        # into a cycle name) and R006 (list literal on the tick path).
        path = tmp_path / "cpu" / "core.py"
        path.parent.mkdir(parents=True)
        path.write_text("def tick(self):\n"
                        "    done_at = [a / b]  "
                        "# repro-lint: disable=R004,R006\n")
        violations, _ = lint_paths([str(path)])
        assert violations == []

    def test_multi_code_pragma_leaves_unlisted_codes(self, tmp_path):
        path = tmp_path / "cpu" / "core.py"
        path.parent.mkdir(parents=True)
        path.write_text("def tick(self):\n"
                        "    done_at = [a / b]  "
                        "# repro-lint: disable=R006\n")
        violations, _ = lint_paths([str(path)])
        assert [v.code for v in violations] == ["R004"]

    def test_multi_code_pragma_tolerates_spaces(self):
        assert codes("import time\n"
                     "t = time.perf_counter()  "
                     "# repro-lint: disable=R001, R002\n") == []

    def test_disable_file_before_the_violation(self):
        assert codes("# repro-lint: disable-file=R003\n"
                     "s = {1}\nfor x in s:\n    pass\n") == []

    def test_disable_file_after_the_violation(self):
        assert codes("s = {1}\nfor x in s:\n    pass\n"
                     "# repro-lint: disable-file=R003\n") == []

    def test_disable_file_multi_code(self):
        assert codes("import time\n"
                     "s = {1}\n"
                     "for x in s:\n"
                     "    t = time.perf_counter()\n"
                     "# repro-lint: disable-file=R002,R003\n") == []

    def test_pragma_on_parenthesized_continuation_line(self):
        # The Assign node spans all three lines; a pragma on any line in
        # the node's range suppresses it.
        assert codes("import time\n"
                     "t = (\n"
                     "    time.perf_counter()  "
                     "# repro-lint: disable=R002\n"
                     ")\n") == []

    def test_pragma_on_backslash_continuation_line(self):
        assert codes("done = a / \\\n"
                     "    b  # repro-lint: disable=R004\n") == []

    def test_pragma_anchors_to_the_violating_node_not_the_statement(self):
        # Suppression ranges over the *reported* node (here the Call on
        # line 3), not the whole enclosing statement: a pragma on the
        # statement's opening line does not reach it.  Put the pragma on
        # the line of the flagged expression.
        assert codes("import time\n"
                     "t = (  # repro-lint: disable=R002\n"
                     "    time.perf_counter()\n"
                     ")\n") == ["R002"]

    def test_pragma_outside_node_range_does_not_hide(self):
        assert codes("import time\n"
                     "# repro-lint: disable=R002\n"
                     "t = time.perf_counter()\n") == ["R002"]


class TestSuppressions:
    def test_line_pragma(self):
        assert codes("import time\n"
                     "t = time.perf_counter()  "
                     "# repro-lint: disable=R002\n") == []

    def test_line_pragma_wrong_code_does_not_hide(self):
        assert codes("import time\n"
                     "t = time.perf_counter()  "
                     "# repro-lint: disable=R001\n") == ["R002"]

    def test_file_pragma(self):
        assert codes("# repro-lint: disable-file=R003\n"
                     "s = {1}\nfor x in s:\n    pass\n") == []

    def test_disable_all(self):
        assert codes("import time\n"
                     "t = time.perf_counter()  "
                     "# repro-lint: disable=all\n") == []


class TestDriver:
    def test_repro_package_is_clean(self):
        violations, checked = lint_paths([default_lint_root()])
        assert checked > 40
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_file_order_is_deterministic(self):
        root = default_lint_root()
        first = list(iter_python_files([root]))
        second = list(iter_python_files([root]))
        assert first == second
        # within each directory the filenames come out sorted
        assert first.index(root + os.sep + "cli.py") < \
            first.index(root + os.sep + "params.py")

    def test_run_lint_counts(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert run_lint([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "bad.py" in out

    def test_violation_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("done = a / b\n")
        violations, _ = lint_paths([str(bad)])
        text = str(violations[0])
        assert text.startswith(str(bad) + ":1: R004")

    def test_rule_catalog(self):
        assert set(RULES) == {"R001", "R002", "R003", "R004", "R005",
                              "R006", "R007",
                              "R010", "R011", "R012", "R013"}


class TestR006HotPathAllocation:
    HOT = "cpu/core.py"

    def _codes(self, source, name="cpu/core.py", tmp_path=None):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        violations, _ = lint_paths([str(path)])
        return [v.code for v in violations]

    def test_list_in_tick_flagged(self, tmp_path):
        src = "def tick(self):\n    return [1, 2]\n"
        assert self._codes(src, tmp_path=tmp_path) == ["R006"]

    def test_dict_in_loop_flagged(self, tmp_path):
        src = ("def refill(self):\n"
               "    for i in range(4):\n"
               "        d = {'k': i}\n")
        assert self._codes(src, "mem/cache.py", tmp_path) == ["R006"]

    def test_comprehension_in_while_flagged(self, tmp_path):
        src = ("def drain(self):\n"
               "    while self.busy:\n"
               "        xs = [x for x in self.q]\n")
        assert self._codes(src, tmp_path=tmp_path) == ["R006"]

    def test_pragma_escape(self, tmp_path):
        src = ("def tick(self):\n"
               "    return [1]  # repro-lint: disable=R006\n")
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_cold_functions_exempt(self, tmp_path):
        src = ("def reset_stats(self):\n"
               "    for i in range(4):\n"
               "        y = [i]\n"
               "def __init__(self):\n"
               "    for i in range(4):\n"
               "        z = {i: 1}\n")
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_allocation_outside_loop_quiet(self, tmp_path):
        src = "def lookup(self):\n    return [1, 2]\n"
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_non_hot_module_quiet(self, tmp_path):
        src = "def tick(self):\n    return [1, 2]\n"
        assert self._codes(src, "stats/other.py", tmp_path) == []


class TestR007FastLoopLookups:
    """Membership tests and attribute chains in the Machine.run loop."""

    def _codes(self, source, name="system/machine.py", tmp_path=None):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        violations, _ = lint_paths([str(path)])
        return [v.code for v in violations]

    def test_membership_in_fast_loop_flagged(self, tmp_path):
        src = ("def run(self):\n"
               "    while True:\n"
               "        if now in self.pending:\n"
               "            break\n")
        assert self._codes(src, tmp_path=tmp_path) == ["R007"]

    def test_attribute_chain_in_fast_loop_flagged(self, tmp_path):
        src = ("def run(self):\n"
               "    for cpu in cpus:\n"
               "        w = self.params.n_nodes\n")
        assert self._codes(src, tmp_path=tmp_path) == ["R007"]

    def test_single_attribute_quiet(self, tmp_path):
        src = ("def run(self):\n"
               "    while True:\n"
               "        w = core.retired\n")
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_outside_loop_quiet(self, tmp_path):
        src = ("def run(self):\n"
               "    ping = self.memory._ping\n"
               "    ok = 0 in seen\n")
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_reference_loop_exempt(self, tmp_path):
        """Loops in machine.py outside ``run`` are off the hot path."""
        src = ("def _classify_wedge(self):\n"
               "    while True:\n"
               "        if now in self.pending:\n"
               "            w = self.params.n_nodes\n")
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_other_module_exempt(self, tmp_path):
        src = ("def run(self):\n"
               "    while True:\n"
               "        w = self.params.check\n")
        # R007 only applies to system/machine.py; the ephemeral read
        # still (correctly) trips the R011 contract pass.
        assert self._codes(src, "cpu/smt.py", tmp_path) == ["R011"]

    def test_pragma_escape(self, tmp_path):
        src = ("def run(self):\n"
               "    while True:\n"
               "        ok = now in seen  "
               "# repro-lint: disable=R007\n"
               "        break\n")
        assert self._codes(src, tmp_path=tmp_path) == []

    def test_batch_loop_covered(self, tmp_path):
        """The inner pass over a grid point's batch of due cores is
        inside the main loop too."""
        src = ("def run(self):\n"
               "    while True:\n"
               "        for cpu, core, step in stepped:\n"
               "            if cpu in self.pending:\n"
               "                break\n")
        assert self._codes(src, tmp_path=tmp_path) == ["R007"]


class TestNumpyFree:
    """The simulator is pure python: importing the CLI loads no numpy."""

    def test_cli_import_leaves_numpy_unloaded(self):
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
