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


class TestPragmaEdgeCases:
    """Lock in the pragma grammar."""

    # One line that trips R002 (wall-clock read) and R004 (division
    # into a cycle name).
    TWO_CODES = ("import time\n"
                 "done_at = time.perf_counter() / 2  "
                 "# repro-lint: disable={}\n")

    def test_multi_code_pragma_suppresses_both(self):
        assert codes(self.TWO_CODES.format("R002,R004")) == []

    def test_multi_code_pragma_leaves_unlisted_codes(self):
        assert codes(self.TWO_CODES.format("R002")) == ["R004"]

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
        assert set(RULES) == {"R001", "R002", "R003", "R004", "R013"}


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
