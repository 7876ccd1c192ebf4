#!/usr/bin/env python3
"""Repo lint: fast source-level checks that need no compiler.

Complements the clang legs (thread-safety analysis, clang-tidy): these are
the rules that are cheaper and more reliable to enforce textually, run on
every platform in seconds, and catch the whole file set (clang-tidy's
diff-aware mode only sees changed files).

Rules (docs/STATIC_ANALYSIS.md):

  raw-assert      src/ must not use raw assert(): it vanishes under
                  -DNDEBUG, which is the default Release build — use
                  MRTHETA_CHECK (always on) or MRTHETA_DCHECK (debug
                  only, but visibly so). static_assert is fine.
  randomness      rand()/srand()/time()/std::random_device are banned in
                  src/ outside src/common/rng.*: the determinism contract
                  (byte-identical outputs at any thread count) dies the
                  moment unseeded or wall-clock-seeded randomness leaks
                  into an operator. Deterministic streams come from
                  src/common/rng.h.
  naked-mutex     src/ must not use a std locking type directly: any of
                  the six std mutexes (plain, shared, recursive, timed,
                  shared_timed, recursive_timed), std::condition_variable
                  (and its _any), std::lock_guard, std::unique_lock,
                  std::shared_lock or std::scoped_lock. The annotated
                  wrappers in src/common/thread_annotations.h are what
                  make -Wthread-safety able to see locking at all.
  todo-tag        TODO comments must carry an issue tag — TODO(#123) —
                  anywhere in src/, tests/, examples/, bench/, scripts/.
                  Untracked TODOs rot.

Comments and string/char literals are stripped before the code rules run
(so docs may *mention* std::mutex); the todo-tag rule runs on raw text
because TODOs live in comments.

Exit status: 0 = clean, 1 = violations (one "path:line: [rule] message"
per finding), 2 = usage error.

Usage:
  scripts/lint.py [--root DIR] [--self-test]
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".h")

# Directories scanned per rule group (relative to the repo root).
CODE_RULE_DIRS = ("src",)
TODO_RULE_DIRS = ("src", "tests", "examples", "bench", "scripts")

# Files exempt from specific rules (relative, forward-slash paths).
RANDOMNESS_EXEMPT = ("src/common/rng.h", "src/common/rng.cc")
MUTEX_EXEMPT = ("src/common/thread_annotations.h",)
# The linter's own rule messages and self-test fixtures spell out the
# banned patterns literally.
TODO_EXEMPT = ("scripts/lint.py",)

RE_RAW_ASSERT = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
RE_RANDOMNESS = re.compile(
    r"(?<![A-Za-z0-9_])(?:rand|srand|time)\s*\(|std::random_device")
RE_NAKED_MUTEX = re.compile(
    r"std::(?:(?:shared_|recursive_)?(?:timed_)?mutex"
    r"|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|shared_lock|scoped_lock)"
    r"(?![A-Za-z0-9_])")
RE_TODO = re.compile(r"\bTODO\b")
RE_TODO_TAGGED = re.compile(r"\bTODO\(#\d+\)")


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literal *contents*
    blanked (newlines preserved, so line numbers survive)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c == '"' or c == "'":  # string / char literal
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1  # skip the escaped char
                elif text[i] == "\n":
                    out.append("\n")  # unterminated literal; keep lines
                i += 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        else:
            out.append(c)
            i += 1
            continue
        # fell out of a comment; keep the newline terminating a // comment
        if i < n and text[i] == "\n":
            out.append("\n")
            i += 1
    return "".join(out)


def iter_files(root, rel_dirs, extensions):
    for rel_dir in rel_dirs:
        base = os.path.join(root, rel_dir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(extensions):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def lint_tree(root):
    """Returns a list of (relpath, line, rule, message) violations."""
    findings = []

    for rel in iter_files(root, CODE_RULE_DIRS, CXX_EXTENSIONS):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw = f.read()
        code = strip_comments_and_strings(raw)
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = RE_RAW_ASSERT.search(line)
            if m and "static_assert" not in line[:m.start() + 6]:
                findings.append((rel, lineno, "raw-assert",
                                 "raw assert() vanishes under -DNDEBUG; use "
                                 "MRTHETA_CHECK or MRTHETA_DCHECK"))
            if rel not in RANDOMNESS_EXEMPT and RE_RANDOMNESS.search(line):
                findings.append((rel, lineno, "randomness",
                                 "rand()/time()/std::random_device break the "
                                 "determinism contract; use src/common/rng.h"))
            if rel not in MUTEX_EXEMPT and RE_NAKED_MUTEX.search(line):
                findings.append((rel, lineno, "naked-mutex",
                                 "use the annotated Mutex/MutexLock/CondVar "
                                 "from src/common/thread_annotations.h"))

    seen = set()
    for rel in iter_files(root, TODO_RULE_DIRS,
                          CXX_EXTENSIONS + (".py", ".cmake")):
        if rel in seen or rel in TODO_EXEMPT:
            continue
        seen.add(rel)
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            raw = f.read()
        for lineno, line in enumerate(raw.splitlines(), start=1):
            if RE_TODO.search(line) and not RE_TODO_TAGGED.search(line):
                findings.append((rel, lineno, "todo-tag",
                                 "TODO without an issue tag; write TODO(#N)"))

    findings.sort()
    return findings


# ---------------------------------------------------------------------------
# Self-test: synthetic files with known violations, run through the same
# pipeline. Guards the linter against regressions in the stripper (the
# subtle part) without needing fixture files in the repo.

SELF_TEST_CASES = [
    # (filename, contents, expected set of (line, rule))
    ("src/bad.cc",
     '#include <cassert>\n'
     'void f(int x) {\n'
     '  assert(x > 0);\n'            # line 3: raw-assert
     '  static_assert(sizeof(int) == 4, "ok");\n'
     '  int seed = time(nullptr);\n'  # line 5: randomness
     '  (void)seed;\n'
     '}\n',
     {(3, "raw-assert"), (5, "randomness")}),
    ("src/locks.h",
     '#include <mutex>\n'
     'struct S {\n'
     '  // std::mutex in a comment is fine\n'
     '  const char* s = "std::mutex in a string is fine";\n'
     '  std::mutex mu;\n'             # line 5: naked-mutex
     '  std::unique_lock<int>* l;\n'  # line 6: naked-mutex
     '};\n',
     {(5, "naked-mutex"), (6, "naked-mutex")}),
    ("src/more_locks.h",
     '#include <shared_mutex>\n'
     'struct T {\n'
     '  std::shared_mutex a;\n'              # line 3: naked-mutex
     '  std::recursive_mutex b;\n'           # line 4: naked-mutex
     '  std::timed_mutex c;\n'               # line 5: naked-mutex
     '  std::shared_timed_mutex d;\n'        # line 6: naked-mutex
     '  std::recursive_timed_mutex e;\n'     # line 7: naked-mutex
     '  std::shared_lock<int>* f;\n'         # line 8: naked-mutex
     '  std::condition_variable_any g;\n'    # line 9: naked-mutex
     '  std::mutex_like h;\n'                # a longer name is not a mutex
     '  my::shared_mutex i;\n'               # not the std one
     '};\n',
     {(3, "naked-mutex"), (4, "naked-mutex"), (5, "naked-mutex"),
      (6, "naked-mutex"), (7, "naked-mutex"), (8, "naked-mutex"),
      (9, "naked-mutex")}),
    ("src/strings.cc",
     '/* assert( in a block comment\n'
     '   spanning lines */\n'
     'const char* kMsg = "assert(x) and rand() and time(";\n'
     "const char kQuote = '\\'';\n"
     'int my_assertion(int x) { return x; }  // suffix, not assert(\n'
     'int rando(int x) { return x; }\n',
     set()),
    ("src/common/rng.cc",
     'unsigned Seed() { return std::random_device{}(); }\n',  # exempt file
     set()),
    ("tests/todo_test.cc",
     '// TODO: untagged\n'            # line 1: todo-tag
     '// TODO(#42): tagged ok\n'
     'int main() { return 0; }\n',
     {(1, "todo-tag")}),
]


def self_test():
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="lint_selftest_")
    try:
        for rel, contents, _ in SELF_TEST_CASES:
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        got = {}
        for rel, line, rule, _ in lint_tree(root):
            got.setdefault(rel, set()).add((line, rule))
        failures = []
        for rel, _, expected in SELF_TEST_CASES:
            actual = got.pop(rel, set())
            if actual != expected:
                failures.append(f"{rel}: expected {sorted(expected)}, "
                                f"got {sorted(actual)}")
        for rel, actual in got.items():
            failures.append(f"{rel}: unexpected findings {sorted(actual)}")
        if failures:
            for f in failures:
                print(f"lint.py self-test FAILED: {f}", file=sys.stderr)
            return 1
        print(f"lint.py self-test ok: {len(SELF_TEST_CASES)} cases")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own test cases and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint.py: no src/ under {root}", file=sys.stderr)
        return 2

    findings = lint_tree(root)
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"lint.py: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
