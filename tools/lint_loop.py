#!/usr/bin/env python3
"""Cross-TU loop-affinity and reentrancy lint for the reactor.

The reactor's threading model (DESIGN.md §15) gives the event-loop thread
sole ownership of some state: the stream connections it accepts and
frames, and the functions that touch them. Nothing hands work to the loop
thread, and nothing on the loop may block, because a blocked loop stops
every stream connection at once. Three review bugs in the since-removed
client engine were violations of this contract, fixed by hand; this lint
keeps the contract machine-checked, the same prose→lint promotion
DESIGN.md §13 did for the zero-copy lifetime rules:

  T1. LOOP-ONLY CALLS. Functions tagged `hcs:loop-only` (the cross-TU
      database is built from these tags in src/) may only be called from
      bodies that are themselves loop-only — named in the database or
      tagged at the definition site — or from sites tagged
      `hcs:on-loop(<reason>)`. Any other call site is a cross-thread touch
      of loop-owned state:

          void Reactor::SendOnConn(...) { CloseConn(conn); }   // T1
          // hcs:loop-only
          void Reactor::HandleConnEvent(...) { CloseConn(conn); }  // ok

  T2. NO BLOCKING ON THE LOOP. `Wait()`/`WaitFor()` (CondVar and the
      like), `sleep`/`usleep`/`nanosleep`/`sleep_for`/`sleep_until`, and
      the blocking `SendAndReceive` are forbidden inside loop-only bodies.

  T3. NO COMPLETION OR MUTATION UNDER ITERATION OR LOCK. Mutating a
      loop-owned container while iterating that same container, or
      invoking a completion (`.Complete(...)`, which runs callbacks and
      teardown) while iterating it, is the use-after-free shape of those
      review bugs: the element (or the whole container) can be erased
      under the iterator.
      Likewise a completion while a lint-visible `MutexLock` is still in
      scope runs callbacks under a lock. The sanctioned shapes pass
      untouched: snapshot-into-a-local-then-iterate, and dropping the lock
      scope before invoking the callback. `hcs:on-loop(<reason>)` is the
      audited escape for sites whose safety argument is out of textual
      reach (e.g. "the loop thread is joined").

  T4. TAGS MUST GIVE A REASON: `hcs:on-loop()` is rejected.

The tag is greppable — `git grep hcs:loop-only` lists every loop-owned
declaration, `git grep hcs:on-loop` audits every sanctioned exception.
The scan is textual and per-function like the sibling lints: conservative
on calls (transitive effects are not followed) and set-level on control
flow. The stripping / body walking / self-test plumbing lives in
lintlib.py, shared by every lint in tools/.

Exit status 0 = clean; 1 = violations (one per line); 2 = usage.

Usage: lint_loop.py [repo_root]
       lint_loop.py --self-test   (seeds violations, checks they fire)
"""

import os
import re
import sys

import lintlib
from lintlib import (function_defs, iter_files, line_of,
                     match_brace_block, strip_comments_and_strings)

# The database is built from src/; the rules are enforced everywhere code
# runs against the real reactor.
SRC_DIRS = ["src"]
SCAN_DIRS = ["src", "tests", "bench", "examples"]
TAG_DIRS = ["src", "tests", "bench", "examples", "tools"]

LOOP_ONLY_TAG = re.compile(r"hcs:loop-only")
ON_LOOP_TAG = re.compile(r"hcs:on-loop\(([^)]*)\)")
EMPTY_TAG = re.compile(r"hcs:on-loop\(\s*\)")

# Blocking operations forbidden in loop context (T2). Wait/WaitFor are
# receiver-anchored so epoll_wait and the like do not match.
BLOCKING_OPS = [
    (re.compile(r"(?:\.|->)\s*Wait\s*\("), "Wait()"),
    (re.compile(r"(?:\.|->)\s*WaitFor\s*\("), "WaitFor()"),
    (re.compile(r"\b(?:sleep|usleep|nanosleep)\s*\("), "sleep()"),
    (re.compile(r"\bsleep_(?:for|until)\s*\("), "std::this_thread::sleep_*"),
    (re.compile(r"(?:\.|->)\s*SendAndReceive\s*\("), "SendAndReceive()"),
]

# Completion invocations (T3): these run callbacks and teardown.
COMPLETION_CALL = re.compile(r"(?:\.|->)\s*(Complete)\s*\(")

# Mutators that invalidate iterators of the receiver container (T3).
MUTATOR = (r"(?:\.|->)\s*(erase|clear|insert|emplace|emplace_back|"
           r"push_back|pop_back|push_front|pop_front|resize)\s*\(")

CONTAINERISH = re.compile(r"\b(?:vector|map|unordered_map|deque|set|list)\s*<")

RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*([^;)]+)\)\s*\{")

LOCK_DECL = re.compile(r"\bMutexLock\s+\w+\s*[({]")

# Words that precede '(' in declarations without being the declared name.
NON_FUNCTION_WORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "void", "bool", "int", "char", "function", "atomic", "pair",
    "vector", "map", "unordered_map", "deque", "set", "list",
    "unique_ptr", "shared_ptr", "optional",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "size_t",
})


def has_on_loop_tag(raw_lines, lineno):
    return lintlib.has_tag(raw_lines, lineno, ON_LOOP_TAG)


def classify_decl(code):
    """Classifies the declaration carrying a hcs:loop-only tag: a function
    (name before the parameter list) or a data member (name before ';').
    Returns ('fn'|'member', name) or (None, None)."""
    fn_names = [n for n in re.findall(r"\b([A-Za-z_]\w*)\s*\(", code)
                if n not in NON_FUNCTION_WORDS]
    if fn_names:
        return "fn", fn_names[0]
    m = re.search(r"\b(\w+)\s*(?:=[^;]*|\{[^;]*\})?\s*;", code)
    if m:
        return "member", m.group(1)
    return None, None


def build_loop_db(root, errors):
    """Walks src/ for hcs:loop-only tags. Returns (fns, members,
    containers): loop-only function names, loop-owned member names, and
    the subset of members whose declared type is a container (the T3
    iteration set). An unparseable tag is itself a violation — a tag that
    names nothing protects nothing."""
    fns, members, containers = set(), set(), set()
    for path in iter_files(root, SRC_DIRS):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        for idx, line in enumerate(raw_lines):
            if not LOOP_ONLY_TAG.search(line):
                continue
            code = line.split("//")[0].strip()
            if not code:
                # Tag on its own line: the tagged declaration is the next
                # line carrying code.
                for nxt in raw_lines[idx + 1 : idx + 4]:
                    code = nxt.split("//")[0].strip()
                    if code:
                        break
            kind, name = classify_decl(code)
            if kind == "fn":
                fns.add(name)
            elif kind == "member":
                members.add(name)
                if CONTAINERISH.search(code):
                    containers.add(name)
            else:
                errors.append(
                    f"{rel}:{idx + 1}: hcs:loop-only tag does not precede a "
                    f"parseable function or member declaration")
    return fns, members, containers


def enclosing_scope_end(text, body_start, body_end, pos):
    """End of the innermost brace scope within the body containing pos
    (the extent of a MutexLock declared at pos)."""
    stack = []
    i = body_start
    while i < pos:
        c = text[i]
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            stack.pop()
        i += 1
    if stack:
        return match_brace_block(text, stack[-1])
    return body_end


def def_is_loop_only(raw_lines, text, sig_pos, name, loop_fns):
    if name in loop_fns:
        return True
    return lintlib.has_tag(raw_lines, line_of(text, sig_pos), LOOP_ONLY_TAG)


def check_file(path, rel, loop_fns, loop_containers, errors):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    text = strip_comments_and_strings(raw)

    loop_call = None
    if loop_fns:
        loop_call = re.compile(
            r"\b(" + "|".join(sorted(loop_fns)) + r")\s*\(")

    reported = set()

    def report(lineno, message):
        key = (lineno, message)
        if key not in reported:
            reported.add(key)
            errors.append(f"{rel}:{lineno}: {message}")

    for _, name, bstart, bend, sig_pos in function_defs(text):
        body_is_loop = def_is_loop_only(raw_lines, text, sig_pos, name,
                                        loop_fns)

        # T1: calls into the loop-only set from off-loop bodies.
        if loop_call is not None and not body_is_loop:
            for m in loop_call.finditer(text, bstart, bend):
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                report(lineno,
                       f"'{m.group(1)}' is hcs:loop-only but '{name}' runs "
                       f"off the loop thread — call it from a loop-only "
                       f"body, or tag // hcs:on-loop(reason) [T1]")

        # T2: blocking operations in loop-only bodies.
        if body_is_loop:
            for pattern, op in BLOCKING_OPS:
                for m in pattern.finditer(text, bstart, bend):
                    lineno = line_of(text, m.start())
                    if has_on_loop_tag(raw_lines, lineno):
                        continue
                    report(lineno,
                           f"{op} blocks inside loop-only function "
                           f"'{name}' — a blocked loop stalls every "
                           f"connection it owns; move the wait off the "
                           f"loop [T2]")

        # T3a: mutation / completion while iterating a loop-owned
        # container.
        for fm in RANGE_FOR.finditer(text, bstart, bend):
            container_words = re.findall(r"\w+", fm.group(1))
            if not container_words or container_words[-1] not in \
                    loop_containers:
                continue
            container = container_words[-1]
            iter_open = text.find("{", fm.end() - 1)
            iter_end = match_brace_block(text, iter_open)
            mutator = re.compile(r"\b" + re.escape(container) + MUTATOR)
            for m in mutator.finditer(text, iter_open, iter_end):
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                report(lineno,
                       f"'{container}.{m.group(1)}()' mutates loop-owned "
                       f"'{container}' while iterating it — snapshot into "
                       f"a local first [T3]")
            for m in COMPLETION_CALL.finditer(text, iter_open, iter_end):
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                report(lineno,
                       f"completion '{m.group(1)}()' invoked while iterating "
                       f"loop-owned '{container}' — completion runs "
                       f"callbacks/teardown that can erase the element "
                       f"under the iterator (a use-after-free); snapshot "
                       f"victims first [T3]")

        # T3b: completion while a lint-visible lock is in scope.
        for lm in LOCK_DECL.finditer(text, bstart, bend):
            scope_end = enclosing_scope_end(text, bstart, bend, lm.start())
            for m in COMPLETION_CALL.finditer(text, lm.end(),
                                              min(scope_end, bend)):
                lineno = line_of(text, m.start())
                if has_on_loop_tag(raw_lines, lineno):
                    continue
                report(lineno,
                       f"completion '{m.group(1)}()' invoked while a "
                       f"MutexLock is in scope — callbacks run under the "
                       f"lock; move the invocation past the lock scope "
                       f"[T3]")


def check_empty_tags(root, errors):
    """T4: a tag without a reason is an unaudited escape."""
    for path in iter_files(root, TAG_DIRS, exts=(".h", ".cc", ".py", ".sh")):
        if os.path.basename(path) == "lint_loop.py":
            continue  # this file names the pattern in its own docs
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if EMPTY_TAG.search(line):
                    errors.append(
                        f"{rel}:{lineno}: hcs:on-loop() has an empty "
                        f"reason — say why this site is exempt from the "
                        f"loop-threading rules [T4]")


def run_checks(root):
    errors = []
    loop_fns, _, loop_containers = build_loop_db(root, errors)
    for path in iter_files(root, SCAN_DIRS):
        rel = os.path.relpath(path, root)
        check_file(path, rel, loop_fns, loop_containers, errors)
    check_empty_tags(root, errors)
    return errors, loop_fns


def run(root):
    errors, loop_fns = run_checks(root)
    if not loop_fns:
        errors.append("src/: found no hcs:loop-only declarations "
                      "(wrong repo root?)")
    if errors:
        print(f"lint_loop: {len(errors)} violation(s):")
        for err in sorted(errors):
            print(f"  {err}")
        return 1
    print(f"lint_loop: clean ({len(loop_fns)} loop-only functions in the "
          f"cross-TU database)")
    return 0


# --- self test ---------------------------------------------------------------

SELF_TEST_HEADER = """
#include <deque>
#include <vector>
class Mutex {};
class MutexLock { public: explicit MutexLock(Mutex& m); };
class CondVar { public: void Wait(Mutex& m); bool WaitFor(Mutex& m, long ms); };
class Transport { public: int SendAndReceive(int req); };
struct Call { void Complete(int result); };
struct Conn {};
class Reactor {
 public:
  void Submit(int endpoint, void (*fn)());
  void SendOnConn(Conn* conn);
  // hcs:loop-only
  void CloseConn(Conn* conn);
};
class Engine {
 public:
  void StartCall(int x);
  void Pump();
 private:
  // hcs:loop-only
  void StartOnLoop(int x);
  // hcs:loop-only
  void FinishCall(Call* call, int result);
  // hcs:loop-only
  void DrainWaiters(int port);
  // hcs:loop-only
  Call* FindCall(long id);
  // hcs:loop-only
  void TryAssignStream(Call* call);
  std::vector<Conn*> conns_;  // hcs:loop-only
  std::deque<long> waiters_;  // hcs:loop-only
  Reactor reactor_;
  Transport* transport_;
  Mutex mu_;
  CondVar cv_;
};
"""

SELF_TEST_CASES = [
    # (name, file content, substring the lint must print)
    #
    # --- T1: loop-only calls from off-loop contexts -------------------------
    #
    # Review bug 3 reduced: the xid-registration race. Loop-owned call
    # state touched straight from the caller's thread (StartCall runs on
    # whatever thread the user owns) — two racing registrations can
    # overwrite the incumbent.
    ("review-bug3-offloop-registration",
     "void Engine::StartCall(int x) {\n  StartOnLoop(x);\n}\n",
     "is hcs:loop-only but 'StartCall' runs off the loop thread"),
    # A task handed to the workers does not run on the loop.
    ("t1-submitted-lambda-still-off-loop",
     "void Engine::Pump() {\n"
     "  reactor_.Submit(3, [this] { StartOnLoop(1); });\n"
     "}\n",
     "is hcs:loop-only but 'Pump' runs off the loop thread"),
    ("t1-reactor-member-off-loop",
     "void Reactor::SendOnConn(Conn* conn) {\n  CloseConn(conn);\n}\n",
     "'CloseConn' is hcs:loop-only"),
    ("t1-loop-to-loop-ok",
     "void Engine::DrainWaiters(int port) {\n"
     "  FinishCall(FindCall(port), 0);\n"
     "}\n",
     None),
    ("t1-def-site-tag-ok",
     "// hcs:loop-only\n"
     "void Engine::Pump() {\n  StartOnLoop(1);\n}\n",
     None),
    ("t1-on-loop-tagged-site-ok",
     "void Engine::StartCall(int x) {\n"
     "  // hcs:on-loop(loop not started yet; single-threaded setup)\n"
     "  StartOnLoop(x);\n}\n",
     None),
    ("t1-unsubmitted-lambda-still-off-loop",
     "void Engine::StartCall(int x) {\n"
     "  auto cb = [this] { StartOnLoop(1); };\n  (void)cb;\n}\n",
     "is hcs:loop-only but 'StartCall' runs off the loop thread"),
    #
    # --- T2: blocking in loop context ---------------------------------------
    #
    ("t2-wait-in-loop-body",
     "void Engine::DrainWaiters(int p) {\n  cv_.Wait(mu_);\n}\n",
     "Wait() blocks inside loop-only function"),
    ("t2-waitfor-in-loop-body",
     "void Engine::TryAssignStream(Call* call) {\n  cv_.WaitFor(mu_, 100);\n}\n",
     "WaitFor() blocks inside loop-only function"),
    ("t2-usleep-in-loop-body",
     "void Engine::DrainWaiters(int p) {\n  usleep(10);\n}\n",
     "sleep() blocks inside loop-only function"),
    ("t2-sleep-for-in-loop-body",
     "void Engine::TryAssignStream(Call* call) {\n"
     "  std::this_thread::sleep_for(x);\n}\n",
     "std::this_thread::sleep_* blocks inside loop-only function"),
    ("t2-send-and-receive-in-loop-body",
     "void Engine::StartOnLoop(int x) {\n"
     "  transport_->SendAndReceive(x);\n}\n",
     "SendAndReceive() blocks inside loop-only function"),
    ("t2-wait-off-loop-ok",
     "void Engine::StartCall(int x) {\n  cv_.Wait(mu_);\n}\n",
     None),
    ("t2-tagged-wait-ok",
     "void Engine::DrainWaiters(int p) {\n"
     "  // hcs:on-loop(deliberate: the loop waits out its own shutdown)\n"
     "  cv_.Wait(mu_);\n}\n",
     None),
    #
    # --- T3: completion / mutation under iteration or lock ------------------
    #
    # Review bug 1 reduced: inline teardown under the container's own
    # iteration — a connection torn down while its reader is still on the
    # stack.
    ("review-bug1-inline-drain-teardown",
     "void Engine::TryAssignStream(Call* call) {\n"
     "  for (Conn* c : conns_) {\n"
     "    conns_.erase(conns_.begin());\n"
     "    call->Complete(-1);\n"
     "  }\n}\n",
     "mutates loop-owned 'conns_' while iterating it"),
    # Review bug 2 reduced: completing (and freeing) an element under
    # the waiters_ iteration; the fix drained via a snapshot.
    ("review-bug2-complete-under-iteration",
     "void Engine::DrainWaiters(int port) {\n"
     "  for (long id : waiters_) {\n"
     "    Call* call = FindCall(id);\n"
     "    TryAssignStream(call);\n"
     "    call->Complete(1);\n"
     "  }\n}\n",
     "invoked while iterating loop-owned 'waiters_'"),
    ("t3-snapshot-then-complete-ok",
     "void Engine::DrainWaiters(int port) {\n"
     "  std::vector<long> victims;\n"
     "  for (long id : waiters_) {\n    victims.push_back(id);\n  }\n"
     "  waiters_.clear();\n"
     "  for (long id : victims) {\n"
     "    FindCall(id)->Complete(0);\n  }\n}\n",
     None),
    ("t3-tagged-iteration-ok",
     "void Engine::DrainWaiters(int port) {\n"
     "  for (long id : waiters_) {\n"
     "    // hcs:on-loop(completes exactly one call, then returns)\n"
     "    FindCall(id)->Complete(0);\n"
     "    return;\n  }\n}\n",
     None),
    ("t3-lock-held-completion",
     "void Engine::DrainWaiters(int p) {\n"
     "  MutexLock lock(mu_);\n"
     "  FindCall(1)->Complete(0);\n}\n",
     "invoked while a MutexLock is in scope"),
    ("t3-lock-scope-dropped-ok",
     "void Engine::DrainWaiters(int p) {\n"
     "  {\n    MutexLock lock(mu_);\n  }\n"
     "  FindCall(1)->Complete(0);\n}\n",
     None),
    ("t3-local-container-ok",
     "void Engine::DrainWaiters(int p) {\n"
     "  std::vector<long> batch;\n"
     "  for (long id : batch) {\n"
     "    batch.push_back(id);\n    FindCall(id)->Complete(0);\n  }\n}\n",
     None),
    #
    # --- T4 + database hygiene ----------------------------------------------
    #
    ("t4-empty-on-loop-tag",
     "void Engine::StartCall(int x) {\n"
     "  // hcs:on-loop()\n  StartOnLoop(x);\n}\n",
     "hcs:on-loop() has an empty reason"),
    ("db-unparseable-loop-tag",
     "void f() {\n}\n// hcs:loop-only\n",
     "does not precede a parseable function or member declaration"),
    ("plain-body-clean",
     "void Engine::StartCall(int x) {\n"
     "  int y = x + 1;\n  (void)y;\n}\n",
     None),
]


def self_test():
    return lintlib.run_self_test_cases(
        "lint_loop", SELF_TEST_HEADER, SELF_TEST_CASES,
        lambda root: run_checks(root)[0])


def main():
    if len(sys.argv) > 2:
        print(__doc__)
        return 2
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return self_test()
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    return run(root)


if __name__ == "__main__":
    sys.exit(main())
