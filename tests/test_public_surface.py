"""The public surface of ``videal`` is the README's contract.

README's "API" section lists every export by the module that provides
it, and must equal ``videal.__all__``, which holds no submodule.  Its
"Library use" example must run and print what it promises.  The library
calls that no CLI command and no part of the README needed stay gone.
"""

import contextlib
import importlib
import io
import re
import types
from pathlib import Path

import videal

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

REMOVED = {
    "expansion": ("binomial_expansion", "theorem_rhs"),
    "ideals": ("as_prime", "equals", "localize"),
    "randgen": ("random_ntf_pair",),
    "rings": ("degree", "divides", "embed", "gcd", "gcd_exp", "lcm", "monomials_of_degree",
              "monomials_up_to_degree", "mul", "quotient_by_gcd"),
}


def _section(title: str) -> str:
    match = re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no {title!r} section"
    return match.group(1)


def _api_list() -> dict[str, list[str]]:
    """README's API list: module name -> the names listed under it."""
    items = re.findall(r"^\* `videal\.(\w+)`:(.*?)(?=^\* |\Z)", _section("API"), re.M | re.S)
    assert items, "README's API section lists no module"
    return {module: re.findall(r"`(\w+)`", body) for module, body in items}


def test_the_readme_api_list_is_the_package_exports():
    exports = set(videal.__all__)
    listed = [name for names in _api_list().values() for name in names]
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) - exports == set(), "listed in README but not exported"
    assert exports - set(listed) == set(), "exported but not listed in README"


def test_no_export_is_a_module():
    modules = [name for name in videal.__all__
               if isinstance(getattr(videal, name), types.ModuleType)]
    assert modules == []
    namespace: dict = {}
    exec("from videal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(videal.__all__)


def test_each_listed_name_comes_from_its_module():
    for module, names in _api_list().items():
        source = importlib.import_module(f"videal.{module}")
        for name in names:
            assert getattr(source, name) is getattr(videal, name), (module, name)


def test_the_library_use_example_prints_what_it_promises():
    block = re.search(r"```python\n(.*?)```", _section("Library use"), re.S)
    assert block, "README's Library use section has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    assert out.getvalue() == "1\nTrue 4 4\n"


def test_the_removed_names_are_gone():
    for module, names in REMOVED.items():
        source = importlib.import_module(f"videal.{module}")
        for name in names:
            assert not hasattr(videal, name), name
            assert not hasattr(source, name), (module, name)
