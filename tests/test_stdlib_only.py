"""Static guard for the runtime's dependencies: the library is pure
standard library (``dependencies = []`` in pyproject.toml).

Every ``src/videal/*.py`` file is parsed with ``ast``, and the test fails
on any absolute import whose top-level module is neither in
``sys.stdlib_module_names`` nor ``videal`` itself.  Relative imports stay
inside the package and are not checked.  An import built at run time
(``importlib.import_module``, ``__import__``) is not seen.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "videal"
ALLOWED = set(sys.stdlib_module_names) | {"videal"}


def test_sources_import_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in ALLOWED:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, "third-party imports in the library: " + ", ".join(found)
