"""Run tier-1 in process under a line trace of ``src/versalp`` and fail when
a statement line of the package runs in no test, unless ``ALLOWED`` names it.

Run from the repository root, with pytest installed:

    python tests/trace_statements.py [pytest arguments]

Only the standard library traces: ``sys.settrace`` and ``threading.settrace``
install a call hook that hands back a line hook for frames whose code lives in
``src/versalp`` and nothing for any other frame.  The lines a module can run
are those its compiled code objects map an instruction to (``co_lines()``);
the ``def`` line of a function runs when its module is imported.  The script
exits 1 when a line outside ``ALLOWED`` did not run or an ``ALLOWED`` entry
names no unrun line, and with pytest's status when tier-1 fails.  Everything
runs under the ``__main__`` check, since ``--doctest-modules`` imports every
module under ``tests/``.
"""

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "versalp")

# (module, function, statement) -> why tier-1 does not run it.  CI runs each
# of these in a subprocess of its own.
ALLOWED = {
    ("cli", "main", "argv = sys.argv[1:]"):
        "only the console entry point calls main() without argv",
    ("cli", "_write_stdout", "raise OSError(errno.EBADF, os.strerror(errno.EBADF))"):
        "stdout is None only when file descriptor 1 is closed at start-up (>&-)",
    ("cli", "_write_stdout", "except OSError:"):
        "a failed write to the real stdout (> /dev/full) would repoint fd 1",
    ("cli", "_write_stdout", "null = os.open(os.devnull, os.O_WRONLY)"):
        "a failed write to the real stdout, as above",
    ("cli", "_write_stdout", "os.dup2(null, out.fileno())"):
        "a failed write to the real stdout, as above",
    ("cli", "_write_stdout", "os.close(null)"):
        "a failed write to the real stdout, as above",
    ("cli", "_write_stdout", "raise"):
        "a failed write to the real stdout, as above",
    ("cli", "<module>", "sys.exit(main())"):
        "runs only as python -m versalp.cli",
}


def statement_lines(path):
    """{line: qualified name of the innermost code object running it} for
    every line that an instruction of the module at ``path`` maps to; a
    function's own first line, its ``def``, belongs to the enclosing code."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    owner = {}
    stack = [code]
    while stack:
        code = stack.pop()
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line and (line != code.co_firstlineno or code.co_name == "<module>"):
                owner[line] = name
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return owner


def run_traced(pytest_args):
    """pytest's exit status on ``pytest_args``, and {real path: lines run}
    for the files under ``PACKAGE``."""
    import pytest

    prefix = PACKAGE + os.sep
    inside, ran = {}, set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = os.path.realpath(name).startswith(prefix)
        return lines if hit else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file = {}
    for name, line in ran:
        by_file.setdefault(os.path.realpath(name), set()).add(line)
    return int(status), by_file


def main(argv):
    os.chdir(ROOT)
    status, by_file = run_traced(["-q", "--continue-on-collection-errors", *argv])
    if status:
        print(f"trace_statements: tier-1 failed (pytest status {status})")
        return status
    unrun, allowed = [], set()
    total = 0
    for entry in sorted(os.listdir(PACKAGE)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, entry)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        owner = statement_lines(path)
        total += len(owner)
        for line in sorted(set(owner) - by_file.get(path, set())):
            key = (entry[:-3], owner[line], source[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                unrun.append(f"src/versalp/{entry}:{line}: {key[1]}: {key[2]}")
    stale = [f"ALLOWED entry runs now or is gone: {key}" for key in ALLOWED if key not in allowed]
    for problem in unrun + stale:
        print(problem)
    print(f"trace_statements: {total} statement lines, {len(unrun)} unrun outside "
          f"ALLOWED, {len(allowed)} allowed, {len(stale)} stale allowlist entries")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
