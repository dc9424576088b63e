#!/usr/bin/env python3
"""Selftest harness for tools/lint/genesys_lint.py.

Every rule has a violating fixture and a clean fixture in
tests/lint/fixtures/. Expected findings are declared *in* the
violating fixtures as `// finding: <rule-name>` markers, so the
expectation lives next to the code it describes; the harness copies
each fixture into a temp repo at a scan path that exercises the rule's
path scoping (e.g. the wall-clock fixture lands in src/env/, its clean
twin in the src/obs/ allowlist) and asserts the lint reports exactly
the marked (rule, line) set.

Run directly (`python3 tests/lint/test_genesys_lint.py`) or via ctest
(the `lint_selftest` test).
"""

import importlib.util
import os
import re
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.normpath(os.path.join(HERE, "..", ".."))
FIXTURES = os.path.join(HERE, "fixtures")
LINT_PY = os.path.join(REPO, "tools", "lint", "genesys_lint.py")

spec = importlib.util.spec_from_file_location("genesys_lint", LINT_PY)
genesys_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(genesys_lint)

FINDING_MARK = re.compile(r"//.*\bfinding:\s*([a-z][a-z0-9-]*)")

# fixture stem -> (rule, scan path for the bad twin, scan path for the
# clean twin). The clean path differs where the rule is path-scoped.
# A rule scoped to several trees lists a bad twin path for each.
FIXTURE_PLAN = {
    "foreign_rng": ("foreign-rng", "src/neat", "src/neat"),
    "wall_clock": ("wall-clock", "src/env", "src/obs"),
    "unordered_container": ("unordered-container", "src/core", "src/core"),
    "map_gene_storage": ("map-gene-storage",
                         ("src/neat", "bench/paper/neat", "bench/paper/nn"),
                         "src/neat"),
    "libm_hot_path": ("libm-in-hot-path", ("src/nn", "bench/paper/nn"),
                      "src/neat"),
    "raw_stdio": ("raw-stdio", "src/hw", "src/hw"),
    "using_namespace_header": ("using-namespace-header", "src/core",
                               "src/core"),
    "include_guard": ("include-guard", "src/core", "src/core"),
    "global_state": ("global-state", "src/core", "src/core"),
    "raw_mutex": ("raw-mutex", "src/exec", "src/exec"),
    "thread_spawn": ("thread-spawn", "src/core", "src/exec"),
    "volatile_state": ("volatile-state", "src/exec", "src/exec"),
}


def expected_findings(path):
    """The (rule, line) pairs declared by // finding: markers."""
    expected = set()
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            m = FINDING_MARK.search(line)
            if m:
                expected.add((m.group(1), lineno))
    return expected


class LintedFixture:
    """A fixture copied into a temp repo at its scan path and linted."""

    def __init__(self, fixture_file, scan_dir, disabled=()):
        self.tmp = tempfile.mkdtemp(prefix="genesys-lint-test-")
        dest_dir = os.path.join(self.tmp, scan_dir)
        os.makedirs(dest_dir, exist_ok=True)
        src = os.path.join(FIXTURES, fixture_file)
        self.dest = os.path.join(dest_dir, fixture_file)
        shutil.copy(src, self.dest)
        saved_root = genesys_lint.REPO_ROOT
        genesys_lint.REPO_ROOT = self.tmp
        try:
            self.findings = genesys_lint.lint_file(self.dest,
                                                   set(disabled))
        finally:
            genesys_lint.REPO_ROOT = saved_root
        shutil.rmtree(self.tmp, ignore_errors=True)

    def pairs(self):
        return {(f.rule, f.line) for f in self.findings}


class TestRuleFixtures(unittest.TestCase):
    """Each rule: the bad fixture is caught exactly, the clean one
    passes."""


def _add_fixture_tests():
    for stem, (rule, bad_dirs, clean_dir) in FIXTURE_PLAN.items():
        if isinstance(bad_dirs, str):
            bad_dirs = (bad_dirs,)
        bad_dir = bad_dirs[0]
        bad_file = next(
            n for n in os.listdir(FIXTURES)
            if n.startswith(stem + "_bad."))
        clean_file = next(
            n for n in os.listdir(FIXTURES)
            if n.startswith(stem + "_clean."))

        def test_bad(self, bad_file=bad_file, bad_dirs=bad_dirs,
                     rule=rule):
            expected = expected_findings(
                os.path.join(FIXTURES, bad_file))
            self.assertTrue(expected,
                            "%s declares no // finding: markers"
                            % bad_file)
            self.assertTrue(
                all(r == rule for r, _ in expected),
                "%s declares markers for foreign rules" % bad_file)
            for bad_dir in bad_dirs:
                with self.subTest(scan_path=bad_dir):
                    got = LintedFixture(bad_file, bad_dir).pairs()
                    self.assertEqual(expected, got)

        def test_clean(self, clean_file=clean_file,
                       clean_dir=clean_dir):
            got = LintedFixture(clean_file, clean_dir).pairs()
            self.assertEqual(set(), got)

        def test_disabled(self, bad_file=bad_file, bad_dir=bad_dir,
                          rule=rule):
            got = LintedFixture(bad_file, bad_dir,
                                disabled=[rule]).pairs()
            self.assertEqual(set(), got)

        setattr(TestRuleFixtures, "test_%s_bad" % stem, test_bad)
        setattr(TestRuleFixtures, "test_%s_clean" % stem, test_clean)
        setattr(TestRuleFixtures, "test_%s_disabled" % stem,
                test_disabled)


_add_fixture_tests()


class TestToolBehavior(unittest.TestCase):
    def lint_text(self, text, scan_path, disabled=()):
        tmp = tempfile.mkdtemp(prefix="genesys-lint-test-")
        try:
            dest = os.path.join(tmp, scan_path)
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            with open(dest, "w") as f:
                f.write(text)
            saved_root = genesys_lint.REPO_ROOT
            genesys_lint.REPO_ROOT = tmp
            try:
                return genesys_lint.lint_file(dest, set(disabled))
            finally:
                genesys_lint.REPO_ROOT = saved_root
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_rule_count_meets_floor(self):
        self.assertGreaterEqual(len(genesys_lint.RULES), 8)

    def test_list_rules_names_every_rule(self):
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = genesys_lint.main(["--list-rules"])
        self.assertEqual(status, 0)
        listing = out.getvalue()
        for name, _, _ in genesys_lint.RULES:
            self.assertIn(name, listing)

    def test_repo_lints_clean(self):
        import contextlib
        import io
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = genesys_lint.main([os.path.join(REPO, "src")])
        self.assertEqual(status, 0)

    def test_exit_nonzero_on_findings(self):
        import contextlib
        import io
        tmp = tempfile.mkdtemp(prefix="genesys-lint-test-")
        try:
            dest = os.path.join(tmp, "src", "core", "bad.cc")
            os.makedirs(os.path.dirname(dest))
            with open(dest, "w") as f:
                f.write("#include <random>\nstd::mt19937 gen;\n")
            saved_root = genesys_lint.REPO_ROOT
            genesys_lint.REPO_ROOT = tmp
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = genesys_lint.main([dest])
            finally:
                genesys_lint.REPO_ROOT = saved_root
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertEqual(status, 1)

    def test_same_line_suppression(self):
        text = ("#include <random>\n"
                "// genesys-lint: allow(foreign-rng, differential "
                "reference against libstdc++)\n"
                "std::mt19937 gen;\n")
        findings = self.lint_text(text, "src/core/x.cc")
        self.assertEqual([], [str(f) for f in findings])

    def test_suppression_reason_required(self):
        text = ("#include <random>\n"
                "std::mt19937 gen; // genesys-lint: allow(foreign-rng)\n")
        findings = self.lint_text(text, "src/core/x.cc")
        rules = sorted(f.rule for f in findings)
        # The bare allow() suppresses nothing and is itself flagged.
        self.assertEqual(["bad-suppression", "foreign-rng"], rules)

    def test_suppression_unknown_rule(self):
        text = "// genesys-lint: allow(no-such-rule, whatever)\nint x;\n"
        findings = self.lint_text(text, "src/core/x.cc")
        self.assertEqual(["bad-suppression"], [f.rule for f in findings])

    def test_comment_block_suppression_covers_next_code_line(self):
        text = ("#include <random>\n"
                "// genesys-lint: allow(foreign-rng, testing block "
                "comments)\n"
                "// ...continued prose about why...\n"
                "std::mt19937 gen;\n")
        findings = self.lint_text(text, "src/core/x.cc")
        self.assertEqual([], [str(f) for f in findings])

    def test_strings_and_comments_never_match(self):
        text = ('#include <string>\n'
                'const std::string kDoc =\n'
                '    "call rand() and std::cout << time(nullptr)";\n'
                '// rand() srand() std::mt19937 std::cout time(nullptr)\n'
                '/* volatile std::unordered_map<int,int> */\n')
        findings = self.lint_text(text, "src/core/x.cc")
        self.assertEqual([], [str(f) for f in findings])


if __name__ == "__main__":
    unittest.main(verbosity=2)
