"""The Newton polyhedron NP(gens) = conv(gens) + nonnegative orthant as
integer facet inequalities w.u >= d, each certified to hold on every
generator once per generator set, as it is memoized: so every reader
reads certified facets.  ``_first_violated`` is the one test of a point
against them: for the certificate, for ``newton_member``, and for
``decomposition._is_closed`` on a power's corners, which decides whether
``integral_closure`` enumerates minimal lattice points at all.

The module keeps its name from the exact-rational simplex it once held
(now a test oracle), because the benchmark harness looks up each layer
module by name, ``videal.lp`` included.
"""

from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InternalError, VidealError
from .ideals import _shared_tuples


Facet = tuple[tuple[int, ...], int]  # the inequality w.u >= d as (w, d)


class NewtonMembership(NamedTuple):
    member: bool
    facet: Facet | None


@lru_cache(maxsize=4096)
def _newton_facets(gens: tuple[tuple[int, ...], ...]) -> tuple[Facet, ...]:
    """The facet inequalities w.u >= d, d > 0, of the Newton polyhedron
    of gens (a nonempty tuple of exponent vectors), from the double
    description, each checked to hold on every generator (a failure is
    an internal error).  Memoized: ``integral_closure(a, k)`` reads the
    facets of a for every k, and the check runs once per generator set.
    Generator sets share facets, so each comes from the intern
    ``ideals._shared``.
    """
    facets = _double_description(gens)
    for v in gens:
        if (cut := _first_violated(facets, v)) is not None:
            w, d = cut
            raise InternalError(f"Newton polyhedron facet {w}.u >= {d} cuts off a generator {v}")
    return _shared_tuples(facets)


def _first_violated(facets: Sequence[Facet], u: Sequence[int]) -> Facet | None:
    """The first facet (w, d) with w.u < d, or None when u satisfies all."""
    for w, d in facets:
        if sum(map(mul, w, u)) < d:
            return w, d
    return None


def _double_description(gens: tuple[tuple[int, ...], ...]) -> tuple[Facet, ...]:
    """The facet inequalities w.u >= d, d > 0, of the Newton polyhedron
    of gens (repeated or dominated vectors only add redundant
    inequalities to the cone below), unchecked.

    They are the extreme rays (w, d) with d > 0 of the cone
    C = {(w, d) : w >= 0, w.v >= d for every v in gens}; the rays with
    d <= 0 only restate u >= 0.  Double description (Fukuda-Prodon 1996):
    the cone cut out by w >= 0 and the first generator has the rays
    (e_i, v0_i) and (0, -1); each further generator v keeps the rays on
    its side of w.v >= d and joins every adjacent pair of rays on
    opposite sides.  Two rays are adjacent iff no third ray is tight on
    every inequality tight on both; tight sets are bit sets, with bit i
    for w_i >= 0 and bit t + j for the j-th generator.  All arithmetic is
    on integers, and each ray is kept divided by the gcd of its entries.
    """
    t = len(gens[0])
    v0 = gens[0]
    coords = (1 << t) - 1
    rays = [
        (tuple(1 if j == i else 0 for j in range(t)) + (v0[i],), coords & ~(1 << i) | 1 << t)
        for i in range(t)
    ]
    rays.append(((0,) * t + (-1,), coords))
    for j, v in enumerate(gens[1:], 1):
        bit = 1 << (t + j)
        kept, pos, neg = [], [], []
        for ray, tight in rays:
            h = sum(map(mul, ray, v)) - ray[t]  # w.v - d
            if h > 0:
                kept.append((ray, tight))
                pos.append((ray, tight, h))
            elif h < 0:
                neg.append((ray, tight, h))
            else:
                kept.append((ray, tight | bit))
        if not neg:
            rays = kept
            continue
        tights = [tight for _, tight in rays]
        for rp, tp, hp in pos:
            for rn, tn, hn in neg:
                common = tp & tn
                # Distinct extreme rays have distinct tight sets.
                if any(common & other == common and other not in (tp, tn) for other in tights):
                    continue
                ray = tuple(hp * b - hn * a for a, b in zip(rp, rn))
                g = gcd(*ray)
                kept.append((tuple(x // g for x in ray), common | bit))
        rays = kept
    return tuple((ray[:t], ray[t]) for ray, _ in rays if ray[t] > 0)


def newton_member(a: Sequence[int], gens: Sequence[Sequence[int]]) -> NewtonMembership:
    """Exact membership of the point a in the Newton polyhedron of gens
    (repeated, dominated and zero vectors allowed): a is a member iff it
    satisfies every facet, and a point outside comes with the first one
    it violates, (w, d) with w.a < d <= w.v for every generator v.
    """
    if not gens:
        raise VidealError("newton_member needs at least one generator")
    if any(len(v) != len(a) for v in gens):
        raise VidealError("newton_member dimension mismatch")
    # Facets are interned, so a 2.0 in gens would reach an int ideal's facets.
    if any(type(e) is not int for v in (a, *gens) for e in v):
        raise VidealError("newton_member's point and generators must have int coordinates")
    if any(e < 0 for e in a) or any(e < 0 for v in gens for e in v):
        raise VidealError("newton_member needs nonnegative exponents")
    facet = _first_violated(_newton_facets(tuple(map(tuple, gens))), a)
    return NewtonMembership(facet is None, facet)
