"""Variable contexts and exponent-vector monomials.

A Ring here is nothing more than an ordered list of distinct variable
names; no coefficient field is involved anywhere, so every computation
in the library is exact integer combinatorics on exponent vectors.
Every name is interned, so the rings a session builds, the joined rings
among them, share one string per name.
The fixed variable order is the basis of the canonical monomial order
(total degree first, ties broken lexicographically) that makes all
output deterministic.
"""

import sys
from dataclasses import dataclass
from operator import add, le
from typing import Iterator, Sequence

from .errors import RingMismatchError, VidealError


@dataclass(frozen=True, slots=True)
class Ring:
    """An ordered tuple of distinct variable names."""

    name: str
    vars: tuple[str, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "name", sys.intern(self.name))
            object.__setattr__(self, "vars", tuple(map(sys.intern, self.vars)))
        except TypeError:
            raise VidealError(
                f"ring and variable names must be strings, got {self.name!r} and {self.vars!r}"
            ) from None
        if not self.vars:
            raise VidealError(f"ring {self.name!r} needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise VidealError(f"ring {self.name!r} has duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise VidealError(f"ring {self.name!r} has no variable {var!r}") from None

    def __str__(self) -> str:
        return f"{self.name}[{', '.join(self.vars)}]"


def make_ring(name: str, vars: Sequence[str]) -> Ring:
    """Create a ring from an ordered sequence of distinct variable names."""
    return Ring(name, tuple(vars))


def join_rings(a: Ring, b: Ring) -> Ring:
    """Tensor two rings with disjoint variables: the joined variable list
    is ``a``'s variables followed by ``b``'s."""
    overlap = set(a.vars) & set(b.vars)
    if overlap:
        raise VidealError(
            f"rings {a.name!r} and {b.name!r} share variables {sorted(overlap)}"
        )
    return Ring(f"{a.name}*{b.name}", a.vars + b.vars)


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial as a vector of non-negative exponents over a ring.

    The all-zeros vector represents 1.
    """

    ring: Ring
    exp: tuple[int, ...]

    def __post_init__(self):
        if len(self.exp) != self.ring.nvars:
            raise VidealError(
                f"exponent vector of length {len(self.exp)} does not fit "
                f"ring {self.ring.name!r} with {self.ring.nvars} variables"
            )
        if any(e < 0 for e in self.exp):
            raise VidealError("monomial exponents must be non-negative")

    @property
    def degree(self) -> int:
        return sum(self.exp)

    def is_one(self) -> bool:
        return not any(self.exp)

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for var, e in zip(self.ring.vars, self.exp):
            if e == 1:
                parts.append(var)
            elif e > 1:
                try:
                    parts.append(f"{var}^{e}")
                except ValueError:  # more digits than sys.get_int_max_str_digits()
                    raise VidealError(f"the exponent of {var} has too many digits to print") from None
        return "*".join(parts)


def mono(ring: Ring, **exps: int) -> Monomial:
    """Convenience constructor: ``mono(R, x=2, y=1)`` is x^2*y in R."""
    vec = [0] * ring.nvars
    for var, e in exps.items():
        vec[ring.index(var)] = e
    return Monomial(ring, tuple(vec))


def check_same_ring(*objects) -> Ring:
    ring = objects[0].ring
    for obj in objects[1:]:
        if obj.ring != ring:
            raise RingMismatchError(
                f"operands live over different rings "
                f"({ring.name!r} vs {obj.ring.name!r})"
            )
    return ring


# Exponent-tuple kernels.  Hot loops throughout the library work on raw
# tuples and only wrap results in Monomial at API boundaries.

def divides_exp(u: tuple[int, ...], f: tuple[int, ...]) -> bool:
    return all(map(le, u, f))


def lcm_exp(u: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    # A two-argument max() call costs more than the comparison it makes.
    return tuple([a if a > b else b for a, b in zip(u, f)])


def mul_exp(u: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, u, f))


def quot_exp(u: tuple[int, ...], f: tuple[int, ...]) -> tuple[int, ...]:
    """u / gcd(u, f) componentwise: exp(u) - min(exp(u), exp(f))."""
    return tuple([a - b if a > b else 0 for a, b in zip(u, f)])


def canonical_sort(exps: list[tuple[int, ...]]) -> None:
    """Sort distinct equal-length exponent tuples into the canonical
    monomial order, in place.

    The canonical order is graded: lower total degree comes first.  Ties
    are broken lexicographically by the ring's variable order, the higher
    power of an earlier variable first; that is, decreasing lex order of
    the tuples.  So x_i^e precedes x_j^f exactly when (e, i) < (f, j).
    Two C-level sorts build it: decreasing lex, then a stable sort by
    degree.
    """
    exps.sort(reverse=True)
    exps.sort(key=sum)


def exps_of_degree(nvars: int, d: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors of total degree d, in canonical order (lex descending)."""
    vec = [d] + [0] * (nvars - 1)
    while True:
        yield tuple(vec)
        # The rightmost nonzero entry before the last gives one unit to the
        # entry after it, which also takes the last entry's whole value.
        i = nvars - 2
        while i >= 0 and not vec[i]:
            i -= 1
        if i < 0:
            return
        tail = vec[-1]
        vec[-1] = 0
        vec[i] -= 1
        vec[i + 1] = tail + 1

