"""List the statements of src/densq that the test suite never executes.

Runs the tier-1 pytest suite in this process under a `sys.settrace` hook (and
`threading.settrace`, for the sweeps' worker threads) that records line events
only in frames whose code lives under src/densq. A statement never ran when
its first line carries bytecode (it appears in some code object's
`co_lines()`) but produced no event. Standard library only, so it works where
`coverage` is not installed; the suite runs about 1.5 times slower than
without the hook.

    python tools/never_run.py                  # the whole suite
    python tools/never_run.py tests/test_cli.py -k energy

Run it from the repository root. Extra arguments go to pytest. Prints one
`path:line: source` per statement and a count, and exits with pytest's exit
code.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "densq"


def code_lines(code) -> set[int]:
    """Lines that carry bytecode in `code` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def never_run(path: Path, executed: set[int]) -> list[int]:
    """First lines of the statements of one file that carry bytecode and
    never ran, in file order."""
    source = path.read_text()
    runnable = code_lines(compile(source, str(path), "exec"))
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return sorted((starts & runnable) - executed)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}
    lock = threading.Lock()

    def local(frame, event, arg):
        if event == "line":
            with lock:
                executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        # called on every function entry; trace lines only inside the package
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for n in never_run(path, executed.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            total += 1
    print(f"{total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
