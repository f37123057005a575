"""Monomial ideals with canonical minimal generating sets.

A MonomialIdeal stores its ring and the exponent tuples of its minimal
generators, and nothing else but its hash, once first asked for.  Every
constructor drops non-minimal generators eagerly, so two ideals are
equal exactly when their rings and exponent tuples are identical.  The tuples are kept in the canonical
graded-lex order and always form an antichain under divisibility.  The
zero ideal has no generators; the unit ideal is generated by the
all-zeros tuple (the monomial 1).  Monomial objects are built only on
request, by ``gens``.

Every ideal, an unpickled one too, is made one way: its candidate
generators, as exponent tuples (none for zero, unit vectors for a prime,
both generator sets for a sum, pairwise products or lcms, quotients for
a colon by a monomial), go to ``from_exps``, the one caller of the
``MonomialIdeal`` constructor, which keeps the minimal ones.  Exponents
stay tuples here; packed exponent lanes are ``decomposition``'s alone.

Values that many ideals, memos and reports hold equal copies of are
interned by one memo, ``_shared(cls, *fields)``, an ``lru_cache`` bounded
at 16,384 entries that returns ``cls(*fields)``: the exponent tuple of
every generator of an ideal the library builds, which enters only
through ``minimal_exps``, the sweep that every ``from_exps`` runs; every
prime it derives (the keys and primes of the witness tables, the
components' radicals, a verdict row's split parts P and Q, the
drop-by-one witnesses' primes, ``prime_support``), each witness-table
``Monomial``, each row's ``expansion.RhsResult`` and each
``lp._newton_facets`` facet.  ``PrimeSupport(ring, indices)`` stays the
public validated constructor.  Interning saves memory only: equal values
compare equal whatever their identity, two threads that miss together
can build two equal objects, a value evicted from the memo is built
again, and no code compares values with ``is``.  Reports whose values
seldom repeat (``VReport``, ``TheoremRow``) are not interned: a memo
entry costs more than the copy it would save.  Every number a caller
passes (a power, a filtration index, an exponent) must be an ``int``.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from operator import le
from typing import Iterable

from .errors import RingMismatchError, VidealError
from .rings import Monomial, Ring, canonical_sort, check_ints, check_same_ring
from .rings import divides_exp, lcm_exp, mul_exp, quot_exp


# An entry (key, link and table slot) takes about 150 bytes besides its
# value, so a full memo holds about 2.4 MB of entries.  The seed-1 timed
# benchmark plans intern 1,379-4,453 distinct values.
@lru_cache(maxsize=16384)
def _shared(cls: type, *fields):
    """cls(*fields), one object per value while it stays in the memo."""
    return cls(*fields)


def _shared_tuples(items: Iterable[tuple]) -> tuple[tuple, ...]:
    """The tuples items, in their order, each through ``_shared``."""
    return tuple([_shared(tuple, t) for t in items])


def minimal_exps(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Antichain of componentwise-minimal vectors, canonically sorted.

    The all-zeros vector (the monomial 1) divides everything, so its
    presence collapses the result to the unit ideal's generator set.

    The canonical order is graded, and a vector is divisible only by
    vectors of no greater degree, while two distinct vectors of equal
    degree never divide each other: so one sweep in that order, testing
    each vector against those kept before it, keeps the minimal vectors,
    and they inherit the order.  It runs on tuples, unlike the packed meet
    of ``decomposition._intersect_corners``: its inputs are used once, so
    packing them costs more than it saves.
    """
    candidates = list(set(exps))
    canonical_sort(candidates)
    kept: list[tuple[int, ...]] = []
    for e in candidates:
        for m in kept:
            # m divides e only if m <= e lexicographically: a cheap pre-test.
            if m <= e and all(map(le, m, e)):
                break
        else:
            kept.append(e)
    return _shared_tuples(kept)


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    """A monomial ideal: its ring and the canonical minimal exponent
    tuples of its generators.

    The constructor trusts the tuples to be minimal, canonically sorted
    and interned, and only ``from_exps``, which establishes all three,
    calls it; unpickling goes through ``from_exps`` too.
    """

    ring: Ring
    _exps: tuple[tuple[int, ...], ...]
    # Filled by the first __hash__: memo lookups hash the same ideal often.
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.ring, self._exps))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # String hashes differ between processes, so a pickle carries no hash.
        return from_exps, (self.ring, self._exps)

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as Monomials, in canonical order."""
        return tuple(Monomial(self.ring, e) for e in self._exps)

    def is_zero(self) -> bool:
        return not self._exps

    def is_unit(self) -> bool:
        return len(self._exps) == 1 and not any(self._exps[0])

    def is_proper_nonzero(self) -> bool:
        return bool(self._exps) and not self.is_unit()

    def exps(self) -> tuple[tuple[int, ...], ...]:
        return self._exps

    def contains(self, f: Monomial) -> bool:
        """Membership: some minimal generator divides f."""
        check_same_ring(self, f)
        fe = f.exp
        return any(divides_exp(u, fe) for u in self._exps)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff other is a subset of self (as sets of monomials)."""
        check_same_ring(self, other)
        return all(any(divides_exp(u, f) for u in self._exps) for f in other._exps)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def from_exps(ring: Ring, exps: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of ring generated by exps, unchecked: each tuple must hold
    exact ints >= 0, one per variable.  The one caller of ``MonomialIdeal``;
    not exported, as ``ideal()`` and the session parser are the checked routes."""
    return MonomialIdeal(ring, minimal_exps(exps))


def ideal(ring: Ring, gens: Iterable[Monomial]) -> MonomialIdeal:
    """The ideal generated by the given monomials, reduced to its minimal
    generators."""
    gens = tuple(gens)
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError(
                f"generator {g} lives in {g.ring.name!r}, not {ring.name!r}"
            )
    return from_exps(ring, (g.exp for g in gens))


def zero_ideal(ring: Ring) -> MonomialIdeal:
    return from_exps(ring, ())


def unit_ideal(ring: Ring) -> MonomialIdeal:
    return from_exps(ring, [(0,) * ring.nvars])


def sum_ideals(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    ring = check_same_ring(a, b)
    return from_exps(ring, a.exps() + b.exps())


def product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    ring = check_same_ring(a, b)
    return from_exps(ring, {mul_exp(u, v) for u in a.exps() for v in b.exps()})


def power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    check_ints(k=k)
    if k < 0:
        raise VidealError(f"negative ideal power {k}")
    if k == 0:
        return unit_ideal(a.ring)
    result = a
    for _ in range(k - 1):
        result = product(result, a)
    return result


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection of two ideals of one ring: (a) ∩ (b) is generated by
    the pairwise lcms of their generators."""
    ring = check_same_ring(a, b)
    return from_exps(ring, [lcm_exp(u, v) for u in a.exps() for v in b.exps()])


def intersect_all(ideals: Iterable[MonomialIdeal], ring: Ring) -> MonomialIdeal:
    """Intersection of a family, with the unit ideal as empty product."""
    parts = iter(ideals)
    result = next(parts, None)
    if result is None:
        return unit_ideal(ring)
    if result.ring != ring:
        raise RingMismatchError(
            f"operands live over different rings ({ring.name!r} vs {result.ring.name!r})"
        )
    for part in parts:
        result = intersect(result, part)
    return result


def colon_monomial(a: MonomialIdeal, f: Monomial) -> MonomialIdeal:
    """The colon ideal a : f, generated by u / gcd(u, f) over u in G(a).

    The zero ideal has no generators to quotient, so its colon by any
    monomial is again the zero ideal.
    """
    ring = check_same_ring(a, f)
    fe = f.exp
    return from_exps(ring, (quot_exp(u, fe) for u in a.exps()))


def colon_ideal(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The colon ideal a : b, the intersection of a : v over v in G(b)."""
    ring = check_same_ring(a, b)
    if b.is_zero():
        raise VidealError("colon by the zero ideal is the whole ring; not supported")
    return intersect_all((colon_monomial(a, v) for v in b.gens), ring)


@dataclass(frozen=True, slots=True)
class PrimeSupport:
    """A monomial prime, identified with its non-empty set of variables.

    Stored as the sorted tuple of variable indices in the ring's fixed
    order, which doubles as the canonical sort key for primes.
    """

    ring: Ring
    indices: tuple[int, ...]

    def __post_init__(self):
        if type(self.indices) is not tuple or any(type(i) is not int for i in self.indices):
            raise VidealError(f"prime support indices must be a tuple of ints, got {self.indices!r}")
        if not self.indices:
            raise VidealError("a monomial prime needs at least one variable")
        if list(self.indices) != sorted(set(self.indices)):
            raise VidealError("prime support indices must be sorted and distinct")
        if self.indices[0] < 0 or self.indices[-1] >= self.ring.nvars:
            raise VidealError("prime support index out of range")

    @property
    def var_names(self) -> tuple[str, ...]:
        names = self.ring.vars
        return tuple([names[i] for i in self.indices])

    def as_ideal(self) -> MonomialIdeal:
        n = self.ring.nvars
        return from_exps(self.ring, [(0,) * i + (1,) + (0,) * (n - i - 1) for i in self.indices])

    def __str__(self) -> str:
        return "(" + ", ".join(self.var_names) + ")"


def prime_support(ring: Ring, var_names: Iterable[str]) -> PrimeSupport:
    return _shared(PrimeSupport, ring, tuple(sorted(ring.index(v) for v in var_names)))


def is_squarefree(a: MonomialIdeal) -> bool:
    return all(e <= 1 for u in a.exps() for e in u)
