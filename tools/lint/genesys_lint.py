#!/usr/bin/env python3
"""genesys-lint: project-specific determinism/concurrency checker.

GeneSys promises bit-identical results across thread counts, execution
modes and checkpoint/resume. Golden digests enforce that *after the
fact*; this pass enforces the coding contract that makes it true at
review time. Every rule encodes one way the promise has been broken (or
nearly broken) in practice:

  * all randomness flows through common::XorWow (seeded, serializable,
    stream-split) -- never libc/std engines;
  * wall-clock reads live only in the timing/telemetry allowlist, never
    in fitness or evolution logic;
  * nothing digest-relevant iterates an unordered container;
  * gene storage stays on the flat SoA maps (the PR-3 regression guard);
  * the src/nn/ eval path never calls libm transcendentals directly
    (the HwFaithful tier's vectorization contract; the reference
    activations in src/neat/ are the one sanctioned home for libm);
  * user-facing output goes through common/logging, not raw stdio;
  * headers keep include guards and never open namespaces;
  * mutable global state, manual mutex calls, ad-hoc threads and
    volatile-as-synchronization are all flagged unless annotated.

Findings print as `path:line: [rule] message`. A finding is suppressed
by an annotation on the same line or on a comment line directly above:

    // genesys-lint: allow(rule-name, why this site is legitimate)

The reason is mandatory; a bare allow() is itself a finding. Exit
status is nonzero when any unsuppressed finding remains.

Usage:
    genesys_lint.py [paths...]        # default: <repo>/src
    genesys_lint.py --list-rules
    genesys_lint.py --disable rule-a,rule-b [paths...]
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

SOURCE_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp", ".h")
HEADER_EXTENSIONS = (".hh", ".hpp", ".h")

ALLOW_RE = re.compile(
    r"//\s*genesys-lint:\s*allow\(\s*([A-Za-z0-9_-]+)\s*(?:,\s*([^)]*?)\s*)?\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes never match prose or quoted text."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def relpath(path):
    """Path relative to the repo root, with forward slashes."""
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return rel.replace(os.sep, "/")


# --- rule definitions -------------------------------------------------------
#
# A rule is (name, description, check); check(ctx) yields Findings.
# ctx fields: path (repo-relative), raw_lines, code_lines (comments and
# strings blanked), is_header.


class FileContext:
    def __init__(self, path, raw_text):
        self.path = path
        self.raw_lines = raw_text.splitlines()
        self.code_lines = strip_comments_and_strings(raw_text).splitlines()
        self.is_header = path.endswith(HEADER_EXTENSIONS)


def line_rule(pattern, message, path_filter=None, headers_only=False,
              flags=0):
    """A rule that flags every code line matching `pattern`."""
    compiled = re.compile(pattern, flags)

    def check(ctx):
        if headers_only and not ctx.is_header:
            return
        if path_filter is not None and not path_filter(ctx.path):
            return
        for lineno, line in enumerate(ctx.code_lines, start=1):
            if compiled.search(line):
                yield Finding(ctx.path, lineno, None, message)

    return check


# Wall-clock reads are legitimate only in telemetry and in the phase
# timing that feeds GenerationReport::phases. Everything else (fitness,
# evolution, environments, persistence) must be clock-free: a clock
# read in digest-relevant code is a nondeterminism bug by definition.
WALLCLOCK_ALLOWED_PREFIXES = ("src/obs/",)
WALLCLOCK_ALLOWED_FILES = (
    "src/core/genesys.cc",     # generation phase wall-clock
    "src/neat/population.cc",  # reproduce/speciate phase timing
    "src/neat/reproduction.cc",  # breed pass timing
    "src/nn/plan_cache.cc",    # compileNs accounting
    "src/exec/thread_pool.cc", # busy/wait accounting
)


def wallclock_allowed(path):
    return (path.startswith(WALLCLOCK_ALLOWED_PREFIXES)
            or path in WALLCLOCK_ALLOWED_FILES)


def check_foreign_rng(ctx):
    pat = re.compile(
        r"std::mt19937|std::minstd_rand|std::random_device|"
        r"std::default_random_engine|\bsrand\s*\(|\brand\s*\(\s*\)")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "randomness outside common::XorWow; libc/std engines are "
                "unseeded or non-serializable and break replay/resume")


def check_wall_clock(ctx):
    if wallclock_allowed(ctx.path):
        return
    pat = re.compile(
        r"::now\s*\(|\btime\s*\(\s*(nullptr|NULL|0)?\s*\)|"
        r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bclock\s*\(\s*\)")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "wall-clock read outside the timing/telemetry allowlist "
                "(src/obs/, phase timing in genesys.cc/population.cc/"
                "reproduction.cc/plan_cache.cc/thread_pool.cc); results "
                "must never depend on time")


def check_unordered_container(ctx):
    pat = re.compile(r"std::unordered_(map|set|multimap|multiset)\b")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "unordered container: iteration order is unspecified and "
                "varies across libstdc++ versions — digest-relevant code "
                "must iterate deterministically (sorted vector, std::map, "
                "or FlatGeneMap)")


# The NEAT and network code: the library's, and the paper models built
# on it (the CPPN and the weight tuner in bench/paper/).
GENE_CODE_DIRS = ("src/neat/", "src/nn/", "bench/paper/neat/",
                  "bench/paper/nn/")
NN_CODE_DIRS = ("src/nn/", "bench/paper/nn/")


def check_map_gene_storage(ctx):
    # Only gene-typed maps are the regression: species membership,
    # reproduction bookkeeping and the per-generation plan cache use
    # std::map legitimately (small, per-generation, key-ordered).
    if not ctx.path.startswith(GENE_CODE_DIRS):
        return
    pat = re.compile(
        r"std::(multi)?map\s*<[^;{]*\b(NodeGene|ConnectionGene|ConnKey)\b")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "std::map gene storage in NEAT/network code: genes moved "
                "to the flat SoA neat::FlatGeneMap in PR 3 (map "
                "iteration dominated plan compile); don't reintroduce "
                "node-per-gene containers")


def check_libm_in_hot_path(ctx):
    # The HwFaithful tier models the GeneSys datapath, which has no
    # libm: every sigmoid/tanh/exp under src/nn/ goes through the
    # branch-free rational/truncated-series function units in
    # src/nn/hw_activations.hh, whose output bits test_numerics_divergence
    # pins. A stray std::exp would make a hw plan's bits depend on the
    # host's libm instead of those units, and put a libm call back into
    # the per-node activation step of the plan kernel. The reference
    # formulas live in src/neat/activations.cc — outside this scope by
    # design — and nn code reaches them via neat::activate. The paper's
    # network models in bench/paper/nn/ follow the same rule.
    if not ctx.path.startswith(NN_CODE_DIRS):
        return
    pat = re.compile(r"\bstd::(tanh|exp|exp2|expm1|sigmoid)[fl]?\s*\(")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "libm transcendental in the network hot path: use the "
                "branch-free cores in nn/hw_activations.hh (hw tier) or "
                "neat::activate (reference tier); a raw libm call "
                "ties hw-tier bits to the host libm instead of the "
                "pinned function units. Annotate with "
                "genesys-lint: allow(libm-in-hot-path, <why>) if the "
                "site is off the per-step eval path")


def check_raw_stdio(ctx):
    if ctx.path.startswith(("src/common/logging", "examples/", "bench/",
                            "tests/")):
        return
    pat = re.compile(
        r"std::cout\b|std::cerr\b|\bprintf\s*\(|\bfprintf\s*\(|"
        r"\bputs\s*\(|\bfputs\s*\(")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "raw stdio in library code: route user-facing output "
                "through common/logging (inform/warn/fatal/panic) so "
                "GENESYS_LOG_LEVEL gating and test capture keep working")


def check_using_namespace_header(ctx):
    if not ctx.is_header:
        return
    pat = re.compile(r"\busing\s+namespace\b")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "using-namespace in a header leaks into every includer; "
                "qualify names instead")


def check_include_guard(ctx):
    if not ctx.is_header:
        return
    ifndef_name = None
    for line in ctx.code_lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#pragma") and "once" in stripped:
            return
        m = re.match(r"#ifndef\s+([A-Za-z_]\w*)", stripped)
        if m and ifndef_name is None:
            ifndef_name = m.group(1)
            continue
        if ifndef_name is not None:
            m = re.match(r"#define\s+([A-Za-z_]\w*)", stripped)
            if m and m.group(1) == ifndef_name:
                return  # guarded
            break  # first code after #ifndef wasn't the matching #define
        break  # first code line is neither pragma-once nor #ifndef
    yield Finding(
        ctx.path, 1, None,
        "header lacks an include guard (#ifndef/#define pair or "
        "#pragma once)")


def check_global_state(ctx):
    # Mutable static-storage state is where cross-thread and cross-run
    # nondeterminism hides; every site must justify itself with an
    # allow annotation. Heuristics (no full C++ parse): a declarator
    # line must complete (contain ; = or {) to count, and a '(' before
    # the first '=' or ';' means a function declaration, not data.
    # Namespace-scope atomics are recognized at column 0 (this
    # codebase's style indents class members); `static`/`thread_local`
    # data is flagged at any depth — class-static and function-local
    # statics are global state too.
    decl = re.compile(
        r"^\s*(static|thread_local)(\s+thread_local|\s+static)?\s+")
    immutable = re.compile(
        r"^\s*(static\s+|thread_local\s+)+(const\b|constexpr\b|"
        r"consteval\b|constinit\s+const\b)")
    atomic_def = re.compile(r"^std::atomic\s*<")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if not re.search(r"[;={]", line):
            continue  # declarator continues on a later line
        if atomic_def.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "namespace-scope atomic definition is mutable global "
                "state; annotate with genesys-lint: allow(global-state, "
                "<why>) if the sharing is intentional")
            continue
        if not decl.search(line):
            continue
        if immutable.search(line):
            continue
        body = re.sub(r"<[^<>]*>", "", line)  # drop template args
        paren = body.find("(")
        init = min((i for i in (body.find("="), body.find(";"),
                                body.find("{")) if i >= 0),
                   default=len(body))
        if 0 <= paren < init:
            continue  # function declaration/definition, not data
        yield Finding(
            ctx.path, lineno, None,
            "mutable static/thread_local state; annotate with "
            "genesys-lint: allow(global-state, <why>) if the lifetime "
            "and thread-safety are intentional")


def check_raw_mutex(ctx):
    pat = re.compile(r"\.\s*(lock|unlock)\s*\(\s*\)")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "manual lock()/unlock(): use std::lock_guard/"
                "std::unique_lock so exceptional paths can't leak a "
                "held mutex")


def check_thread_spawn(ctx):
    if ctx.path in ("src/exec/thread_pool.cc", "src/exec/thread_pool.hh"):
        return
    pat = re.compile(
        r"std::j?thread\b|\.\s*detach\s*\(\s*\)|std::async\b")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "ad-hoc thread creation outside exec::ThreadPool: all "
                "parallelism goes through the pool so scheduling stays "
                "deterministic and busy accounting stays truthful")


def check_volatile(ctx):
    pat = re.compile(r"\bvolatile\b")
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if pat.search(line):
            yield Finding(
                ctx.path, lineno, None,
                "volatile is not a synchronization primitive; use "
                "std::atomic with explicit memory ordering")


RULES = [
    ("foreign-rng",
     "Randomness must flow through common::XorWow; rand/srand, "
     "std::mt19937, std::random_device etc. are banned",
     check_foreign_rng),
    ("wall-clock",
     "Wall-clock reads (::now(), time(), clock_gettime...) only in the "
     "timing/telemetry allowlist, never in fitness/evolution logic",
     check_wall_clock),
    ("unordered-container",
     "No std::unordered_map/set in digest-relevant code: iteration "
     "order is unspecified",
     check_unordered_container),
    ("map-gene-storage",
     "No std::map gene storage reintroduced in src/neat/, src/nn/ or "
     "their bench/paper/ models (post-PR-3 flat SoA regression guard)",
     check_map_gene_storage),
    ("libm-in-hot-path",
     "No raw std::tanh/std::exp/std::sigmoid in src/nn/ or "
     "bench/paper/nn/: eval-path "
     "transcendentals go through nn/hw_activations.hh cores or "
     "neat::activate (reference TU src/neat/activations.cc is exempt)",
     check_libm_in_hot_path),
    ("raw-stdio",
     "No printf/std::cout/std::cerr outside src/common/logging (and "
     "examples//bench/); use inform/warn/fatal/panic",
     check_raw_stdio),
    ("using-namespace-header",
     "No using-namespace directives in headers",
     check_using_namespace_header),
    ("include-guard",
     "Every header carries an #ifndef/#define include guard or "
     "#pragma once",
     check_include_guard),
    ("global-state",
     "Mutable namespace-scope / static-storage state must carry a "
     "genesys-lint: allow(global-state, <why>) annotation",
     check_global_state),
    ("raw-mutex",
     "No manual mutex lock()/unlock(); RAII guards only",
     check_raw_mutex),
    ("thread-spawn",
     "No std::thread/std::async/detach outside exec::ThreadPool",
     check_thread_spawn),
    ("volatile-state",
     "No volatile: it does not synchronize; use std::atomic",
     check_volatile),
]

RULE_BY_NAME = {name: (desc, check) for name, desc, check in RULES}


# --- suppression ------------------------------------------------------------


def collect_suppressions(ctx, extra_findings):
    """Map (rule, line) -> True for every allow annotation. An
    annotation on a code line covers that line; an annotation inside a
    comment covers the first code line after the comment block.
    Malformed annotations (unknown rule, missing reason) become
    findings themselves."""
    raw_lines = ctx.raw_lines
    path = ctx.path

    def next_code_line(after):
        # 1-based line numbers; find the first following line that
        # still carries code once comments/strings are blanked.
        for ln in range(after + 1, len(ctx.code_lines) + 1):
            if ctx.code_lines[ln - 1].strip():
                return ln
        return after + 1

    suppressed = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            rule = m.group(1)
            reason = (m.group(2) or "").strip()
            if rule not in RULE_BY_NAME:
                extra_findings.append(Finding(
                    path, lineno, "bad-suppression",
                    "allow() names unknown rule \"%s\"" % rule))
                continue
            if not reason:
                extra_findings.append(Finding(
                    path, lineno, "bad-suppression",
                    "allow(%s) has no reason; a suppression must say "
                    "why the site is legitimate" % rule))
                continue
            suppressed[(rule, lineno)] = True
            # An annotation with no code on its own line covers the
            # first code line after the (possibly multi-line) comment.
            if not ctx.code_lines[lineno - 1].strip():
                suppressed[(rule, next_code_line(lineno))] = True
    return suppressed


# --- driver -----------------------------------------------------------------


def iter_source_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        yield os.path.join(dirpath, name)
        else:
            print("genesys-lint: no such path: %s" % p, file=sys.stderr)
            sys.exit(2)


def lint_file(path, disabled):
    rel = relpath(path)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print("genesys-lint: cannot read %s: %s" % (path, e),
              file=sys.stderr)
        sys.exit(2)

    ctx = FileContext(rel, raw)
    extra = []
    suppressed = collect_suppressions(ctx, extra)

    findings = list(extra)
    for name, _desc, check in RULES:
        if name in disabled:
            continue
        for finding in check(ctx):
            finding.rule = name
            if (name, finding.line) in suppressed:
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="genesys-lint",
        description="GeneSys determinism/concurrency static checks")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: <repo>/src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and exit")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULES",
                        help="comma-separated rule names to skip "
                             "(repeatable)")
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(name) for name, _, _ in RULES)
        for name, desc, _ in RULES:
            print("%-*s  %s" % (width, name, desc))
        return 0

    disabled = set()
    for chunk in args.disable:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in RULE_BY_NAME:
                print("genesys-lint: --disable names unknown rule "
                      "\"%s\"" % name, file=sys.stderr)
                return 2
            disabled.add(name)

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    all_findings = []
    files = 0
    for path in iter_source_files(paths):
        files += 1
        all_findings.extend(lint_file(path, disabled))

    for finding in all_findings:
        print(finding)
    if all_findings:
        print("genesys-lint: %d finding(s) in %d file(s)"
              % (len(all_findings), files), file=sys.stderr)
        return 1
    print("genesys-lint: clean (%d file(s), %d rule(s))"
          % (files, len(RULES) - len(disabled)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
