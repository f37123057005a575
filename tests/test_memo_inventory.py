"""Static guard for the library's memo policy: one memo per concept.

Every ``src/videal/*.py`` file is parsed with ``ast``.  The functions
decorated with ``functools.lru_cache`` (or ``functools.cache``) must be
exactly the eight memos the project keeps, and ``decomposition.py`` must
bind no dict, set or list at module level: per-ideal work lives in the
memos, never in a side table beside them.
The seventh, ``expansion._joined``, holds the joined ideal I+J of a
summand pair: every kind and k of the pair's verdicts reads it, and a
join costs a new ring, padded and sorted generators, a hash and an
equality test against the copy in ``filtration_member``'s slot.
The eighth, ``ideals._shared``, interns values: one object per value of
the generator exponent tuples of the ideals the library builds, the
supports it derives (the witness tables' keys and primes, the
components' radicals, a verdict row's p and q, the drop-by-one
witnesses' primes), the witness-table ``Monomial``s, the rows'
``RhsResult``s and the Newton facets, so the other memos and the reports
hold one object per distinct value, not one per ideal, table or row.
A memo built at run time (``lru_cache(f)`` called on a function) is not
seen.  ``oracles.memos``, the list the tests clear and CI reports on, is
found at run time and must name the same eight.
"""

import ast
from pathlib import Path

from oracles import memos

SRC = Path(__file__).resolve().parent.parent / "src" / "videal"
MEMOS = {
    "decomposition._decomposition",
    "decomposition.associated_primes",
    "expansion._joined",
    "expansion._verdict",
    "filtrations.filtration_member",
    "filtrations.integral_closure",
    "ideals._shared",
    "lp._newton_facets",
}
CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
CONTAINER_CALLS = {"dict", "set", "list", "defaultdict", "OrderedDict", "Counter", "deque",
                   "WeakKeyDictionary", "WeakValueDictionary"}


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def test_the_library_keeps_exactly_its_eight_memos():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
    assert found == MEMOS


def test_decomposition_binds_no_module_level_container():
    path = SRC / "decomposition.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and _decorator_name(value) in CONTAINER_CALLS
            ):
                found.append(f"decomposition.py:{node.lineno}")
    assert not found, "module-level containers: " + ", ".join(found)


def test_the_run_time_memo_list_names_the_same_eight():
    found = [f"{memo.__module__.removeprefix('videal.')}.{memo.__name__}" for memo in memos()]
    assert sorted(found) == sorted(MEMOS)
