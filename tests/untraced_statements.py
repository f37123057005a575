"""List the statements of ``src/videal`` that the tier-1 suite never runs.

Run from the repository root, with any extra pytest arguments after it:

    PYTHONPATH=src python tests/untraced_statements.py

It installs a line tracer (``sys.settrace`` and ``threading.settrace``)
for frames whose code lies under ``src/videal``, runs the suite through
``pytest.main`` as tier-1 runs it, and then lists every statement that
``ast`` finds in those files and no traced line reached, as
``file:line``.  A function's docstring, ``global`` and ``nonlocal``
compile to no line of their own and are never listed.  The list goes to
the file named by ``GITHUB_STEP_SUMMARY`` when that is set, else to
stdout.  The exit status is 0 only when the suite passes and the list is
empty, so every statement of the library is one that tier-1 runs; pass
``--hypothesis-seed=0`` to make the list deterministic.  On CPython 3.11
the tracer makes the suite about 3.4 times slower.  pytest does not
collect this file.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "videal"


def statements(path: Path) -> list[int]:
    """The first line of every statement in path that compiles to code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.stmt) and id(node) not in docstrings
                   and not isinstance(node, (ast.Global, ast.Nonlocal))})


def main(args: list[str]) -> int:
    hits: set[tuple[str, int]] = set()
    ours: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def traced(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = str(path) if path.is_relative_to(SRC) else None
        return local if ours[filename] else None

    threading.settrace(traced)
    sys.settrace(traced)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [f"{path.relative_to(ROOT)}:{line}"
              for path in sorted(SRC.glob("*.py"))
              for line in statements(path) if (str(path), line) not in hits]
    report = [f"Statements of src/videal that tier-1 never runs (pytest exit {status}): "
              f"{len(missed)}", ""] + [f"- `{where}`" for where in missed]
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write("\n".join(report) + "\n")
    else:
        print("\n".join(report))
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
