"""Static guard for exactness: no decision path in the library may use
floating point.

Every ``src/videal/*.py`` file is tokenized, and the test fails on any
float or complex literal and on the name ``float``.  It cannot see a
float made at run time by true division of two ints (``a / b``); only
the literals and the builtin's name are checked.
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "videal"


def test_sources_have_no_float_literal_or_float_name():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        with open(path, "rb") as handle:
            for tok in tokenize.tokenize(handle.readline):
                if tok.type == tokenize.NUMBER and isinstance(
                    ast.literal_eval(tok.string), (float, complex)
                ):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
                elif tok.type == tokenize.NAME and tok.string == "float":
                    found.append(f"{path.name}:{tok.start[0]}: float")
    assert not found, "floating point in the library: " + ", ".join(found)
