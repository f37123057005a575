"""Per-layer tracing of videal from outside its source.

``Tracer`` wraps the public functions of each videal layer module, plus
``MonomialIdeal.contains`` and ``MonomialIdeal.contains_ideal``.  A name
bound by ``from .x import f`` is a separate module attribute that would
bypass a wrapper, so every ``videal.*`` module attribute holding an
original is rebound, and all of them are restored on exit.

Every wrapped call is a span with a name, a start, an end and a parent
(the innermost enclosing span; the harness opens one root span per
operation).  Traces hold millions of spans, so they are folded into a
table keyed by (span, parent) as they close: call count, inclusive time
and self time (duration minus the time its child spans cover).

The exponent-tuple kernels of ``videal.rings`` are not wrapped: they
are called millions of times for well under a microsecond each, so a
wrapper would cost more than the work and its time would be charged to
the caller anyway.  ``rings.exps_of_degree`` is a generator; it gets a
counting wrapper instead, which counts the vectors it yields inside
``integral_closure`` (the box points).
"""

import inspect
import sys
from time import perf_counter

from videal import decomposition, filtrations, ideals, rings

LAYERS = ("ideals", "decomposition", "vnumbers", "filtrations", "lp",
          "expansion", "parser", "cli")
ROOT = "op"
CACHED = (
    ("decomposition.associated_primes", decomposition.associated_primes),
    ("filtrations.filtration_member", filtrations.filtration_member),
    ("filtrations.integral_closure", filtrations.integral_closure),
)


def _layer_functions():
    """(span name, original) for every public function of every layer."""
    for layer in LAYERS:
        module = sys.modules[f"videal.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                yield f"{layer}.{attr}", obj


class Tracer:
    """Context manager: installs the wrappers on enter, restores every
    patched attribute on exit, and aggregates spans in between."""

    def __init__(self):
        # [name, child time] per open span; the harness's root span never closes.
        self.stack = [[ROOT, 0.0]]
        # (name, parent name) -> [calls, inclusive s, self s]
        self.edges: dict[tuple[str, str], list] = {}
        # name -> inclusive s of spans with no open ancestor of that name
        self.outer_s: dict[str, float] = {}
        self._open: dict[str, int] = {}
        self.box_points = 0
        self.components = 0
        self._restore: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn, on_result=None):
        stack = self.stack
        edges = self.edges
        outer_s = self.outer_s
        open_count = self._open

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            open_count[name] = open_count.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                row = edges.get(key)
                if row is None:
                    row = edges[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                open_count[name] -= 1
                if not open_count[name]:
                    outer_s[name] = outer_s.get(name, 0.0) + duration

        traced.__wrapped__ = fn
        return traced

    def _count_box_points(self, fn):
        stack = self.stack

        def counted(*args, **kwargs):
            for point in fn(*args, **kwargs):
                if stack[-1][0] == "filtrations.integral_closure":
                    self.box_points += 1
                yield point

        counted.__wrapped__ = fn
        return counted

    def _on_components(self, result) -> None:
        self.components += len(result)

    def __enter__(self):
        # Keyed by id(original); the originals stay alive, so ids are unique.
        wrappers = {}
        for name, fn in _layer_functions():
            hook = self._on_components if name == "decomposition.irreducible_decomposition" else None
            wrappers[id(fn)] = self._wrap(name, fn, hook)
        wrappers[id(rings.exps_of_degree)] = self._count_box_points(rings.exps_of_degree)
        for module in [m for n, m in sys.modules.items() if n == "videal" or n.startswith("videal.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for method in ("contains", "contains_ideal"):
            original = getattr(ideals.MonomialIdeal, method)
            self._patch(ideals.MonomialIdeal, method,
                        self._wrap(f"ideals.MonomialIdeal.{method}", original))
        for name, fn in CACHED:
            info = fn.cache_info()
            self._cache_start[name] = (info.hits, info.misses)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.hit_ratios = {}
        for name, fn in CACHED:
            info = fn.cache_info()
            hits = info.hits - self._cache_start[name][0]
            misses = info.misses - self._cache_start[name][1]
            self.hit_ratios[name] = hits / (hits + misses) if hits + misses else 0.0
        return False

    # --- aggregates ------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(row[0] for (n, _), row in self.edges.items() if n == name)

    def self_s(self, prefix: str) -> float:
        return sum((row[2] for (n, _), row in self.edges.items()
                    if n == prefix or n.startswith(prefix + ".")), 0.0)

    def under(self, names: tuple[str, ...], parent: str) -> float:
        return sum((row[1] for (n, p), row in self.edges.items()
                    if n in names and p == parent), 0.0)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        irr = "decomposition.irreducible_decomposition"
        ass = "decomposition.associated_primes"
        ic = "filtrations.integral_closure"
        return {
            "ideals.from_exps.calls": (self.calls("ideals.from_exps"), "count"),
            "ideals.from_exps.s": (self.outer_s.get("ideals.from_exps", 0.0), "s"),
            "ideals.self_s": (self.self_s("ideals"), "s"),
            "parser.parse_session.s": (self.outer_s.get("parser.parse_session", 0.0), "s"),
            "cli.self_s": (self.self_s("cli"), "s"),
            f"{ass}.hit_ratio": (self.hit_ratios[ass], "ratio"),
            "filtrations.filtration_member.hit_ratio": (
                self.hit_ratios["filtrations.filtration_member"], "ratio"),
            f"{irr}.calls": (self.calls(irr), "count"),
            "decomposition.split_s": (self.self_s(irr), "s"),
            "decomposition.redundancy_filter_s": (
                self.under(("ideals.MonomialIdeal.contains_ideal",), irr), "s"),
            "decomposition.intersect_back_s": (self.under(("ideals.intersect_all",), irr), "s"),
            "decomposition.ass_certify_s": (
                self.under(("vnumbers.local_v", "ideals.colon_monomial"), ass), "s"),
            "decomposition.components": (self.components, "count"),
            "vnumbers.local_v.calls": (self.calls("vnumbers.local_v"), "count"),
            "vnumbers.local_v.s": (self.outer_s.get("vnumbers.local_v", 0.0), "s"),
            f"{ic}.calls": (self.calls(ic), "count"),
            f"{ic}.self_s": (self.self_s(ic), "s"),
            f"{ic}.hit_ratio": (self.hit_ratios[ic], "ratio"),
            "filtrations.box_points": (self.box_points, "count"),
            "lp.maximize.calls": (self.calls("lp.maximize"), "count"),
            "lp.maximize.s": (self.outer_s.get("lp.maximize", 0.0), "s"),
            "expansion.direct_s": (self.outer_s.get("expansion.direct_term", 0.0), "s"),
            "expansion.formula_s": (
                self.outer_s.get("expansion.binomial_expansion", 0.0)
                + self.outer_s.get("expansion.theorem_rhs", 0.0), "s"),
            "expansion.self_s": (self.self_s("expansion"), "s"),
        }


def snapshot_attributes() -> dict:
    """Identity of every videal module attribute and of the wrapped
    MonomialIdeal methods, for checking that a Tracer restored them."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "videal" or name.startswith("videal."):
            for attr, obj in vars(module).items():
                state[(name, attr)] = id(obj)
    for method in ("contains", "contains_ideal"):
        state[("MonomialIdeal", method)] = id(getattr(ideals.MonomialIdeal, method))
    return state

