#!/usr/bin/env python3
"""Repo lint gate: project-specific rules clang-tidy cannot express.

Rules (each has an id; suppress a finding with a trailing or preceding
`// delex-lint: allow(<rule-id>)` comment):

  reinterpret-cast       reinterpret_cast is confined to src/storage/ (the
                         binary-format layer owns byte reinterpretation);
                         anywhere else in src/ needs an allow comment.
  bare-assert            src/ uses DELEX_CHECK / DELEX_CHECK_MSG, never the
                         NDEBUG-stripped assert(): invariants must hold in
                         Release builds too.
  nondeterminism         std::random_device / rand / srand / system_clock
                         are banned in deterministic code (everything under
                         src/ except src/obs/, which timestamps logs).
                         Seeded PRNGs live in common/random.h.
  relative-include       #include "../..." breaks the single src/-rooted
                         include space.
  bits-include           <bits/...> is a libstdc++ internal.
  simd-intrinsics        raw x86 intrinsics (<immintrin.h>, _mm*_, __m128/
                         256/512) are confined to src/common/simd.h — all
                         other code goes through the delex::simd dispatch
                         kernels so the scalar tier stays complete.
  header-guard           headers under src/ carry the canonical
                         DELEX_<PATH>_H_ guard, derived from the path.
  shard-storage-include  src/shard/ drives whole engines through the
                         DelexEngine API and must never include the
                         storage internals (reuse_file.h, result_cache.h,
                         record_file.h) directly — the shard layer has no
                         business decoding on-disk records.
  resource-probe         raw process-resource reads (getrusage, /proc/self)
                         and signal-handler installation (sigaction,
                         SIGPROF, setitimer) are confined to src/obs/ —
                         everything else goes through obs/mem.h and
                         obs/profiler.h so there is exactly one process
                         reader and one SIGPROF owner per process.
  raw-mutex              std::mutex / lock_guard / unique_lock /
                         scoped_lock / condition_variable are confined to
                         src/common/mutex.h — everything else uses
                         delex::Mutex / MutexLock / CondVar so the clang
                         thread-safety annotations and the runtime
                         lock-order detector see every lock in the
                         process.
  plan-walk              `case PlanKind::kJoin` is confined to
                         src/xlog/plan.cc: xlog::WalkPlan is the one walk
                         that evaluates an execution tree, and engines
                         differ only in their xlog::IEHook. A walk that
                         evaluates nothing (e.g. column provenance) needs
                         an allow comment.
  sigprof-safety         the body of DelexSigprofHandler in
                         src/obs/profiler.cc must stay async-signal-safe:
                         no allocation, locks, logging, or stdio between
                         the definition and its closing brace.
  env-knob-doc           EXPERIMENTS.md's knob table stays honest: every
                         DELEX_* knob that src/, bench/ or examples/ read
                         (getenv or the benches' EnvInt) has a row, and
                         every row names a knob the repo reads somewhere
                         (src/, bench/, examples/, ci/ or a
                         CMakeLists.txt).

Format rules (clang-format is not in the CI image, so the invariants that
matter are enforced here; .clang-format remains the source of truth for
developers with the binary):

  tab                    no hard tabs in C++ sources.
  trailing-whitespace    no trailing spaces.
  crlf                   LF line endings only.
  missing-final-newline  files end with exactly one newline.
  long-line              hard cap 100 columns (style target is 80; the cap
                         only guards against runaway lines).

Usage:
  ci/lint.py              lint the repo, exit 1 on any finding
  ci/lint.py --self-test  verify every rule fires on a violating input
"""

import argparse
import os
import re
import sys
import tempfile

CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
LINT_DIRS = ("src", "tests", "bench", "fuzz", "examples")
ALLOW_RE = re.compile(r"//\s*delex-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
MAX_COLUMNS = 100


def allowed_rules(lines, idx):
    """Rule ids suppressed at line index `idx` (same or preceding line)."""
    rules = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def strip_strings_and_comments(line):
    """Crude but sufficient: blank out string/char literals and // tails."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            out.append(" ")
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def expected_guard(rel_path):
    """src/delex/engine.h -> DELEX_DELEX_ENGINE_H_"""
    stem = rel_path[len("src/"):]
    return "DELEX_" + re.sub(r"[/.]", "_", stem).upper() + "_"


TOKEN_RULES = [
    # (rule id, regex, message, path predicate, match raw line)
    ("reinterpret-cast",
     re.compile(r"\breinterpret_cast\b"),
     "reinterpret_cast outside src/storage/ (byte punning stays in the "
     "format layer)",
     lambda p: p.startswith("src/") and not p.startswith("src/storage/"),
     False),
    ("bare-assert",
     re.compile(r"(?<![_A-Za-z0-9])assert\s*\("),
     "use DELEX_CHECK / DELEX_CHECK_MSG (assert vanishes under NDEBUG)",
     lambda p: p.startswith("src/"),
     False),
    ("nondeterminism",
     re.compile(r"std::random_device|(?<![_A-Za-z0-9])s?rand\s*\(|"
                r"system_clock"),
     "nondeterministic source in deterministic code (seed a PRNG from "
     "common/random.h instead)",
     lambda p: p.startswith("src/") and not p.startswith("src/obs/"),
     False),
    ("relative-include",
     re.compile(r"#\s*include\s+\"\.\./"),
     "relative include escapes the src/-rooted include space",
     lambda p: True,
     True),  # raw: the offending path is inside the quoted literal
    ("bits-include",
     re.compile(r"#\s*include\s+<bits/"),
     "libstdc++ internal header",
     lambda p: True,
     True),
    ("shard-storage-include",
     re.compile(r"#\s*include\s+\"storage/(reuse_file|result_cache|"
                r"record_file)\.h\""),
     "shard layer reaching into storage internals (go through the "
     "DelexEngine API)",
     lambda p: p.startswith("src/shard/"),
     True),  # raw: the offending path is inside the quoted literal
    ("resource-probe",
     re.compile(r"\bgetrusage\s*\(|/proc/self|\bsigaction\s*\(|"
                r"\bSIGPROF\b|\bsetitimer\s*\("),
     "raw resource probe / signal handler outside src/obs/ (use obs/mem.h "
     "and obs/profiler.h — one sampler, one SIGPROF owner per process)",
     lambda p: p.startswith("src/") and not p.startswith("src/obs/"),
     True),  # raw: /proc/self appears inside string literals
    ("simd-intrinsics",
     re.compile(r"#\s*include\s+<[a-z0-9]*intrin\.h>|_mm\d*_|"
                r"\b__m(128|256|512)i?\b"),
     "raw SIMD intrinsics outside src/common/simd.h (add a kernel to the "
     "delex::simd dispatch layer instead)",
     lambda p: p != "src/common/simd.h",
     True),  # raw: includes are matched inside the <...> literal
    ("raw-mutex",
     re.compile(r"std::[a-z_]*mutex\b|std::lock_guard\b|std::unique_lock\b|"
                r"std::scoped_lock\b|std::condition_variable(_any)?\b"),
     "raw standard-library lock outside src/common/mutex.h (use "
     "delex::Mutex / MutexLock / CondVar so the thread-safety annotations "
     "and the lock-order detector see every lock)",
     lambda p: p != "src/common/mutex.h",
     False),
    ("plan-walk",
     re.compile(r"\bcase\s+(?:xlog::)?PlanKind::kJoin\b"),
     "a second plan walk: evaluate through xlog::WalkPlan with an "
     "xlog::IEHook",
     lambda p: p.startswith("src/") and p != "src/xlog/plan.cc",
     False),
]

# --- SIGPROF handler safety (region rule) ----------------------------------
#
# The sampling profiler's signal handler runs on whatever thread the timer
# interrupts, possibly while that thread holds the malloc lock or a
# delex::Mutex. Only lock-free atomics are legal inside it. The scan covers
# the DelexSigprofHandler definition through its closing column-0 brace.

SIGPROF_FILE = "src/obs/profiler.cc"
SIGPROF_START_RE = re.compile(r"\bDelexSigprofHandler\s*\(\s*int\b")
SIGPROF_BANNED_RE = re.compile(
    r"\bnew\b|\bdelete\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"\bfree\s*\(|\bstd::string\b|\bpush_back\b|\bemplace\w*\b|"
    r"\bDELEX_LOG\b|\bfopen\s*\(|\bfwrite\s*\(|\bfprintf\s*\(|"
    r"\bprintf\s*\(|\bsnprintf\s*\(|\bMutex\b|\bmutex\b|\block\b|"
    r"\bLock\b|\bunlock\b|\bUnlock\b|\bcondition_variable\b|\bWait\b|"
    r"\bnotify\w*\b")


def lint_sigprof_region(rel_path, lines):
    findings = []
    in_region = False
    found = False
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        if not in_region:
            if SIGPROF_START_RE.search(code):
                in_region = found = True
            continue
        if line.startswith("}"):
            in_region = False
            continue
        m = SIGPROF_BANNED_RE.search(code)
        if m and "sigprof-safety" not in allowed_rules(lines, i):
            findings.append(
                (rel_path, i + 1, "sigprof-safety",
                 f"'{m.group(0)}' inside the SIGPROF handler (only lock-free "
                 "atomics are async-signal-safe here)"))
    if not found:
        findings.append(
            (rel_path, 1, "sigprof-safety",
             "DelexSigprofHandler definition not found — if the handler was "
             "renamed, update SIGPROF_START_RE so the safety scan still "
             "covers it"))
    return findings


def lint_file(rel_path, text):
    findings = []
    lines = text.split("\n")

    # --- format rules (raw text, never suppressible) ---
    if "\r" in text:
        findings.append((rel_path, 1, "crlf", "CRLF line ending"))
    if text and not text.endswith("\n"):
        findings.append((rel_path, len(lines), "missing-final-newline",
                         "no newline at end of file"))
    for i, line in enumerate(lines, 1):
        if "\t" in line:
            findings.append((rel_path, i, "tab", "hard tab"))
        if line.rstrip("\r") != line.rstrip():
            findings.append((rel_path, i, "trailing-whitespace",
                             "trailing whitespace"))
        if len(line.rstrip("\r")) > MAX_COLUMNS:
            findings.append((rel_path, i, "long-line",
                             f"line exceeds {MAX_COLUMNS} columns"))

    # --- token rules (string/comment-stripped, suppressible) ---
    for i, line in enumerate(lines):
        code = strip_strings_and_comments(line)
        for rule, pattern, message, applies, raw in TOKEN_RULES:
            if not applies(rel_path):
                continue
            haystack = line if raw else code
            if pattern.search(haystack) and rule not in allowed_rules(lines, i):
                findings.append((rel_path, i + 1, rule, message))

    # --- header guards ---
    if rel_path.startswith("src/") and rel_path.endswith((".h", ".hpp")):
        guard = expected_guard(rel_path)
        if (f"#ifndef {guard}" not in text or f"#define {guard}" not in text):
            findings.append((rel_path, 1, "header-guard",
                             f"missing canonical include guard {guard}"))

    # --- async-signal-safety of the profiler's SIGPROF handler ---
    if rel_path == SIGPROF_FILE:
        findings.extend(lint_sigprof_region(rel_path, lines))
    return findings


# --- knob table (repo-level rule) -------------------------------------------

KNOB_DOC = "EXPERIMENTS.md"
KNOB_TABLE_HEADER = "| knob | default | meaning |"
KNOB_RE = re.compile(r"\bDELEX_[A-Z0-9_]+\b")
KNOB_READ_RE = re.compile(r"\b(?:getenv|EnvInt)\(\s*\"(DELEX_[A-Z0-9_]+)\"")
KNOB_READ_DIRS = ("src", "bench", "examples")


def knob_table_rows(text):
    """(line number, knob) for every knob named in the first cell of the
    knob table's rows."""
    rows = []
    in_table = False
    for i, line in enumerate(text.split("\n"), 1):
        if line.strip() == KNOB_TABLE_HEADER:
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        rows.extend((i, knob) for knob in KNOB_RE.findall(first_cell))
    return rows


def walk_files(root, top):
    top_dir = os.path.join(root, top)
    for dirpath, dirnames, filenames in os.walk(top_dir):
        dirnames.sort()
        if os.path.basename(dirpath) == "corpus":
            dirnames[:] = []
            continue
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            yield os.path.relpath(path, root).replace(os.sep, "/"), path


def read_text(path):
    with open(path, encoding="utf-8", errors="replace", newline="") as f:
        return f.read()


def lint_knob_table(root):
    findings = []
    reads = {}  # knob -> (rel path, line) of its first read
    for top in KNOB_READ_DIRS:
        for rel, path in walk_files(root, top):
            if not rel.endswith(CXX_EXTENSIONS):
                continue
            text = read_text(path)
            for m in KNOB_READ_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                reads.setdefault(m.group(1), (rel, line))
    mentioned = set(reads)
    for rel, path in walk_files(root, "ci"):
        if rel != "ci/lint.py":  # its self-test cases name made-up knobs
            mentioned.update(KNOB_RE.findall(read_text(path)))
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith((".", "build"))]
        if "CMakeLists.txt" in filenames:
            mentioned.update(KNOB_RE.findall(
                read_text(os.path.join(dirpath, "CMakeLists.txt"))))

    doc_path = os.path.join(root, KNOB_DOC)
    rows = knob_table_rows(read_text(doc_path)) if os.path.exists(doc_path) else []
    documented = {knob for _line, knob in rows}
    for knob, (rel, line) in sorted(reads.items()):
        if knob not in documented:
            findings.append((rel, line, "env-knob-doc",
                             f"{knob} is read but has no row in "
                             f"{KNOB_DOC}'s knob table"))
    for line, knob in rows:
        if knob not in mentioned:
            findings.append((KNOB_DOC, line, "env-knob-doc",
                             f"{knob} has a knob-table row but nothing "
                             f"in the repo reads it"))
    return findings


def lint_tree(root):
    findings = []
    for top in LINT_DIRS:
        top_dir = os.path.join(root, top)
        if not os.path.isdir(top_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(top_dir):
            dirnames.sort()
            if os.path.basename(dirpath) == "corpus":
                dirnames[:] = []  # fuzz corpora are arbitrary bytes
                continue
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8", newline="") as f:
                    findings.extend(lint_file(rel, f.read()))
    return findings


# --- self-test -------------------------------------------------------------

SELF_TEST_CASES = {
    # rule id -> (relative path, file content) that must fire exactly it
    "reinterpret-cast": (
        "src/delex/bad.cc",
        "void f(char* p) { auto* q = reinterpret_cast<int*>(p); }\n"),
    "bare-assert": (
        "src/delex/bad2.cc",
        "#include <cassert>\nvoid f(int x) { assert(x > 0); }\n"),
    "nondeterminism": (
        "src/text/bad.cc",
        "#include <random>\nint f() { std::random_device rd; return rd(); }\n"),
    "relative-include": (
        "tests/bad_test.cc",
        "#include \"../src/delex/engine.h\"\n"),
    "bits-include": (
        "src/common/bad.h",
        "#ifndef DELEX_COMMON_BAD_H_\n#define DELEX_COMMON_BAD_H_\n"
        "#include <bits/stdc++.h>\n#endif\n"),
    "shard-storage-include": (
        "src/shard/bad.cc",
        "#include \"storage/reuse_file.h\"\n"),
    "resource-probe": (
        "src/delex/bad_rusage.cc",
        "#include <sys/resource.h>\n"
        "long f() { rusage ru; getrusage(0, &ru); return ru.ru_maxrss; }\n"),
    "simd-intrinsics": (
        "src/text/bad_simd.cc",
        "#include <immintrin.h>\n"
        "int f(const char* p) { __m256i v = _mm256_set1_epi8(*p); "
        "return _mm256_movemask_epi8(v); }\n"),
    "raw-mutex": (
        "src/delex/bad_mutex.cc",
        "#include <mutex>\n"
        "std::mutex g_mu;\n"
        "void f() { std::lock_guard<std::mutex> lock(g_mu); }\n"),
    "plan-walk": (
        "src/optimizer/bad_walk.cc",
        "int Arity(const xlog::PlanNode& node) {\n"
        "  switch (node.kind) {\n"
        "    case xlog::PlanKind::kJoin: return 2;\n"
        "    default: return 1;\n"
        "  }\n"
        "}\n"),
    "sigprof-safety": (
        "src/obs/profiler.cc",
        "extern \"C\" void DelexSigprofHandler(int) {\n"
        "  std::string s;  // allocates inside a signal handler\n"
        "  (void)s;\n"
        "}\n"),
    "header-guard": (
        "src/common/bad2.h",
        "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n"),
    "tab": ("src/delex/bad3.cc", "int\tx = 0;\n"),
    "trailing-whitespace": ("src/delex/bad4.cc", "int x = 0;  \n"),
    "crlf": ("src/delex/bad5.cc", "int x = 0;\r\n"),
    "missing-final-newline": ("src/delex/bad6.cc", "int x = 0;"),
    "long-line": ("src/delex/bad7.cc", "// " + "x" * MAX_COLUMNS + "\n"),
}

SELF_TEST_CLEAN = {
    # must produce NO findings: suppressions, storage-layer casts, strings
    "src/storage/ok.cc":
        "void f(char* p) { auto* q = reinterpret_cast<long*>(p); }\n",
    "src/obs/ok.cc":
        "#include <chrono>\n"
        "long now() { return std::chrono::system_clock::now()"
        ".time_since_epoch().count(); }\n",
    "src/delex/ok.cc":
        "// delex-lint: allow(reinterpret-cast)\n"
        "void f(char* p) { auto* q = reinterpret_cast<int*>(p); }\n"
        "const char* s = \"reinterpret_cast assert( rand( \";\n"
        "// comment mentioning assert(x) and rand() is fine\n",
    "src/common/ok.h":
        "#ifndef DELEX_COMMON_OK_H_\n#define DELEX_COMMON_OK_H_\n"
        "#endif  // DELEX_COMMON_OK_H_\n",
    "src/shard/ok.cc":
        "#include \"storage/snapshot.h\"\n"  # snapshot API is fair game
        "#include \"delex/engine.h\"\n",
    "src/obs/ok_probe.cc":
        "#include <sys/resource.h>\n"
        "long f() { rusage ru; getrusage(0, &ru); return ru.ru_maxrss; }\n"
        "const char* kStatm = \"/proc/self/statm\";\n",
    "src/common/simd.h":
        "#ifndef DELEX_COMMON_SIMD_H_\n#define DELEX_COMMON_SIMD_H_\n"
        "#include <immintrin.h>\n"
        "inline int f(const char* p) { __m128i v = _mm_set1_epi8(*p); "
        "return _mm_movemask_epi8(v); }\n"
        "#endif  // DELEX_COMMON_SIMD_H_\n",
    "src/xlog/plan.cc":
        "Result<Rows> WalkNode(const PlanNode& node) {\n"
        "  switch (node.kind) {\n"
        "    case PlanKind::kJoin: return EvalJoin(node);\n"
        "  }\n"
        "}\n",
    "src/common/mutex.h":
        "#ifndef DELEX_COMMON_MUTEX_H_\n#define DELEX_COMMON_MUTEX_H_\n"
        "#include <mutex>\n"
        "namespace delex { class Mutex { std::mutex mu_; }; }\n"
        "// a comment mentioning std::mutex is fine anywhere\n"
        "#endif  // DELEX_COMMON_MUTEX_H_\n",
}


KNOB_SELF_TEST_FIRING = {
    # an undocumented read and a row nothing reads: two findings
    "src/delex/knob.cc":
        "const char* v = std::getenv(\"DELEX_UNDOCUMENTED\");\n",
    KNOB_DOC:
        KNOB_TABLE_HEADER + "\n|---|---|---|\n"
        "| `DELEX_STALE_ROW` | 0 | nothing reads this |\n",
}

KNOB_SELF_TEST_CLEAN = {
    # every read documented, every row read somewhere
    "src/delex/knob.cc":
        "const char* v = std::getenv(\n    \"DELEX_SRC_KNOB\");\n",
    "bench/bench_knob.h":
        "int n = EnvInt(\"DELEX_BENCH_KNOB\", 3);\n",
    "ci/check.sh":
        "if [[ \"${DELEX_CI_KNOB:-0}\" == 1 ]]; then :; fi\n",
    "CMakeLists.txt":
        "option(DELEX_CMAKE_KNOB \"doc\" OFF)\n",
    KNOB_DOC:
        "intro\n\n" + KNOB_TABLE_HEADER + "\n|---|---|---|\n"
        "| `DELEX_SRC_KNOB` / `DELEX_BENCH_KNOB` | 1 | read in code |\n"
        "| `DELEX_CI_KNOB` | 0 | read by CI |\n"
        "| `DELEX_CMAKE_KNOB` (cmake) | OFF | a build option |\n"
        "\nText after the table naming DELEX_NOT_A_ROW.\n",
}


def write_tree(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path) or root, exist_ok=True)
        with open(path, "w", newline="") as f:
            f.write(content)


def self_test_knob_table():
    failures = []
    with tempfile.TemporaryDirectory(prefix="delex-lint-knobs-") as root:
        write_tree(root, KNOB_SELF_TEST_FIRING)
        fired = {(rel, rule) for rel, _line, rule, _msg in lint_knob_table(root)}
        for rel in ("src/delex/knob.cc", KNOB_DOC):
            if (rel, "env-knob-doc") not in fired:
                failures.append(f"rule 'env-knob-doc' did not fire on {rel}")
    with tempfile.TemporaryDirectory(prefix="delex-lint-knobs-") as root:
        write_tree(root, KNOB_SELF_TEST_CLEAN)
        for rel, line, rule, msg in lint_knob_table(root):
            failures.append(f"clean knob table drew {rule} at {rel}:{line}: {msg}")
    return failures


def self_test():
    failures = self_test_knob_table()
    with tempfile.TemporaryDirectory(prefix="delex-lint-selftest-") as root:
        for rule, (rel, content) in SELF_TEST_CASES.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", newline="") as f:
                f.write(content)
        for rel, content in SELF_TEST_CLEAN.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", newline="") as f:
                f.write(content)

        findings = lint_tree(root)
        fired = {}
        for rel, _line, rule, _msg in findings:
            fired.setdefault(rel, set()).add(rule)

        for rule, (rel, _content) in SELF_TEST_CASES.items():
            if rule not in fired.get(rel, set()):
                failures.append(f"rule '{rule}' did not fire on {rel}")
        for rel in SELF_TEST_CLEAN:
            if fired.get(rel):
                failures.append(
                    f"clean file {rel} drew findings: {sorted(fired[rel])}")

    if failures:
        for f in failures:
            print(f"lint self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"lint self-test OK: {len(SELF_TEST_CASES) + 1} rules fire, "
          f"{len(SELF_TEST_CLEAN)} clean files and a clean knob table "
          f"stay clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on a violating input")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = lint_tree(root) + lint_knob_table(root)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
