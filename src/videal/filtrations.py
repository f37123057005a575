"""Graded filtrations of a monomial ideal: ordinary powers, the two
symbolic-power variants, and integral closures of powers.

Symbolic powers need neither a saturation loop nor a localization.
Localizing a monomial ideal at a monomial prime p keeps exactly its
irreducible components whose support lies in p, and turns the others
into the whole ring (Cooper-Embree-Ha-Hoefel, Proc. Edinb. Math. Soc.
2017).  So a^(k) is the intersection of the components of a^k whose
support lies in some associated (or minimal) prime of a: ``decomposition``
reads them from the memoized, checked corners of a^k, built with the
witness table of a^k, and meets the kept ones.  Which are kept is
decided from Ass(a^k), the keys of that table and the only record of
the components' supports: a key inside none of the primes is dropped.
When none is, a^(k) is a^k itself, and no corner is read.

Integral closure goes through the Newton polyhedron NP(L) =
conv(exponents of G(L)) + nonnegative orthant: the closure of L is
generated by the componentwise-minimal lattice points of NP(L).  Its
facet inequalities are computed once, in integers, and certified on the
generators by ``lp``, and membership of a point is a handful of integer
dot products.  For L = a^k they come from a alone, since NP(a^k) =
k NP(a) (Huneke-Swanson, Integral Closure of Ideals, Rings, and Modules,
2006, ch. 1).

Most powers are already closed, and that is decided from the corners of
a^k with no lattice-point scan.  A monomial lies outside an ideal iff it
lies below some corner b of its irreducible decomposition: u_P <= b_P -
1 on the support P of b (Miller-Sturmfels, Combinatorial Commutative
Algebra, 2005, ch. 5).  So a^k is closed iff no corner b has its point
u = b - 1 on P and M off P inside NP(a^k), where M is the largest
constant k d of the facets (w, k d) of NP(a^k).  Proof: if some facet
fails at u, it has w_j = 0 for every j off P, since an integer w_j >= 1
there gives w.u >= M >= k d; so it fails at every point below b on P
too, and none of them is in the closure.  If every facet holds at u,
then u is a lattice point of NP(a^k), in the closure, outside a^k.
``decomposition`` runs the test on the memoized, checked corners of
a^k, the very entry that a verdict then reads as the closed member's
witness table.

When a^k is not closed, its minimal lattice points are solved one row
of the box at a time: along a row the first feasible point follows from
the facets, and the least last coordinate never increases.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, product
from math import comb
from operator import mul
from typing import Sequence

from .decomposition import _colon_witnesses, _components_inside, _is_closed
from .decomposition import _require_proper_nonzero
from .decomposition import associated_primes, minimal_primes
from .errors import InternalError, VidealError
from .ideals import MonomialIdeal, PrimeSupport, _shared, from_exps, is_squarefree, power
from .ideals import unit_ideal
from .ideals import product as ideal_product
from .lp import Facet, _newton_facets
from .rings import Monomial, check_ints, exps_of_degree


class FiltrationKind(str, Enum):
    ORDINARY = "ordinary"
    SYMBOLIC_ASS = "symb-ass"
    SYMBOLIC_MIN = "symb-min"
    INTEGRAL_CLOSURE = "intclos"

    def __str__(self) -> str:
        return self.value


def _minimal_points(facets: Sequence[Facet], bounds: Sequence[int]) -> list[tuple[int, ...]]:
    """The componentwise-minimal lattice points u >= 0 satisfying every
    facet inequality, given that all of them lie in the box u <= bounds.

    Solves for one coordinate, ``last`` (the one with the largest bound):
    for each q in the box of the other coordinates, c(q) is the least
    value of u_last with (q, c(q)) inside, or None when a facet without
    a u_last term (a wall) fails on q.  Then (q, c(q)) is minimal iff it
    lies in the box and, for every j with q_j > 0, q - e_j is outside or
    c(q - e_j) > c(q).  The points found form an antichain.

    The box of q is solved one row at a time, a row being the values of
    the innermost coordinate ``inner`` (the one with the next largest
    bound, which makes rows long) under one point p of the outer ones
    (project and lift, as in Bruns-Ichim, J. Algebra 2010).  Every
    weight is nonnegative, so along a row the walls turn from failing to
    holding once, at the least value each of them allows, and c(q) never
    increases: it is evaluated only from the first feasible value on, and
    once it reaches 0 the rest of the row is 0 too, and dominated.
    """
    t = len(bounds)
    last = max(range(t), key=bounds.__getitem__)
    if t == 1:
        return [(max(-(-d // w[0]) for w, d in facets),)]
    *outer, inner = sorted((i for i in range(t) if i != last), key=bounds.__getitem__)
    order = outer + [inner, last]
    position = [order.index(i) for i in range(t)]
    walls = [(tuple(w[i] for i in outer), w[inner], d) for w, d in facets if not w[last]]
    slopes = [(tuple(w[i] for i in outer), w[inner], d, w[last]) for w, d in facets if w[last]]
    # c(q) is stored at the position product() yields q at, row after
    # row: q - e_j sits strides[j] positions earlier.
    width = bounds[inner] + 1
    strides = [width] * len(outer)
    for k in range(len(outer) - 2, -1, -1):
        strides[k] = strides[k + 1] * (bounds[outer[k + 1]] + 1)
    bound_last = bounds[last]
    least: list[int | None] = []
    points = []
    for p in product(*(range(bounds[i] + 1) for i in outer)):
        start = 0  # the least value of u_inner that every wall allows
        for w, w_inner, d in walls:
            rest = d - sum(map(mul, w, p))
            if rest > 0:
                need = -(-rest // w_inner) if w_inner else width
                if need > start:
                    start = need
        if start >= width:
            least += [None] * width
            continue
        at = len(least)
        belows = [at - stride for pj, stride in zip(p, strides) if pj]
        rests = [(d - sum(map(mul, w, p)), w_inner, w_last) for w, w_inner, d, w_last in slopes]
        row: list[int | None] = [None] * start
        for s in range(start, width):
            c = 0
            for rest, w_inner, w_last in rests:
                need = -((w_inner * s - rest) // w_last)  # ceil((rest - w_inner * s) / w_last)
                if need > c:
                    c = need
            if c <= bound_last and (s == start or row[-1] > c):
                for below in belows:
                    below = least[below + s]
                    if below is not None and below <= c:
                        break
                else:
                    vals = p + (s, c)
                    points.append(tuple(vals[k] for k in position))
            row.append(c)
            if not c:
                row += [0] * (width - 1 - s)
                break
        least += row
    return points


@lru_cache(maxsize=4096)
def integral_closure(a: MonomialIdeal, k: int = 1) -> MonomialIdeal:
    """The integral closure of a^k (the whole ring for k = 0), for a monomial ideal a.

    a^k is the ordinary member ``filtration_member(ORDINARY, a, k)``, the
    same object, and a closed power is handed back itself.  The Newton
    polyhedron of a^k is k NP(a): the exponents of products of k
    generators have the convex hull k conv(G(a)).  So its facets are
    (w, k d) for the facets (w, d) of NP(a), which ``lp._newton_facets``
    computes once, in integers, from the fewer generators of a, and
    certifies on G(a) (each generator of a^k is a sum of k of them).
    Certified facets bound a polyhedron holding NP(a^k), so a closed
    verdict read from them is sound: ``decomposition._is_closed`` tests
    one point per corner of a^k (proof in the module docstring).  Only
    when a^k is not closed are the minimal lattice points found, row by
    row (``_minimal_points``).  Each of them is the ceiling of a point of
    conv(G(a^k)), hence lies in the box u_i <= max exponent of G(a^k) in
    coordinate i, and the closure they generate must contain a^k.
    """
    check_ints(k=k)
    if k < 1:
        return power(a, k)
    pk = filtration_member(FiltrationKind.ORDINARY, a, k)
    facets = [(w, k * d) for w, d in _newton_facets(a.exps())]
    if _is_closed(pk, facets):
        return pk
    bounds = [max(column) for column in zip(*pk.exps())]
    closure = from_exps(a.ring, _minimal_points(facets, bounds))
    if not closure.contains_ideal(pk):
        raise InternalError(f"integral closure of {pk} does not contain {pk}")
    return closure


@lru_cache(maxsize=8192)
def filtration_member(kind: FiltrationKind, a: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th member of the chosen filtration of a.

    Index 0 is the whole ring for every kind.  Symbolic powers keep the
    corners of a^k whose support lies in an associated (or minimal) prime
    of a, those of Min(a^k) = Min(a) among them, and return a^k itself,
    the ordinary member, when all are kept; integral closures close a^k.
    """
    check_ints(k=k)
    if k < 0:
        raise VidealError(f"negative filtration index {k}")
    # A str-enum member and its value share a memo slot, so both must work.
    try:
        kind = FiltrationKind(kind)
    except ValueError:
        raise VidealError(f"unknown filtration kind {kind!r}") from None
    if k == 0:
        return unit_ideal(a.ring)
    _require_proper_nonzero(a)
    if kind is FiltrationKind.ORDINARY:
        return power(a, k)
    if kind is FiltrationKind.INTEGRAL_CLOSURE:
        return integral_closure(a, k)
    primes = associated_primes(a) if kind is FiltrationKind.SYMBOLIC_ASS else minimal_primes(a)
    return _components_inside(filtration_member(FiltrationKind.ORDINARY, a, k), primes)


@dataclass(frozen=True, slots=True)
class PropertyCheckReport:
    """Outcome of the bounded drop-by-one check on a filtration member.

    For every monomial f up to the degree cap whose colon out of the k-th
    member is a prime, the witness must already lie in the (k-1)-st
    member.  This is an enumeration up to deg_cap, not a proof.
    ``witnesses`` lists each such f in increasing canonical order with its
    prime, read off the generators of the k-th member by the packed colon
    rule (``decomposition._colon_witnesses``), without building the colon
    ideal; ``violations`` lists those of them outside the (k-1)-st member.
    """

    kind: FiltrationKind
    k: int
    deg_cap: int
    witnesses: tuple[tuple[Monomial, PrimeSupport], ...]
    violations: tuple[Monomial, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


# About 3.5 s of enumeration and packed colon-rule checks, at 3.5 us a
# monomial: measured on the 10-generator square of a 4-generator ideal in
# 35 variables (658,008 monomials in 2.3 s, CPython 3.11 on one core of a
# shared 2-CPU Linux host).
MAX_PROPERTY_MONOMIALS = 1_000_000


def check_filtration_property(
    kind: FiltrationKind, a: MonomialIdeal, k: int, deg_cap: int
) -> PropertyCheckReport:
    """The bounded drop-by-one check of the k-th member of a's filtration
    up to degree deg_cap (``PropertyCheckReport``): the monomials are
    enumerated here, and ``decomposition._colon_witnesses`` picks out
    those whose colon is a prime."""
    check_ints(k=k, deg_cap=deg_cap)
    if k < 1:
        raise VidealError("the drop-by-one property needs k >= 1")
    if deg_cap < 0:
        raise VidealError("the degree cap of the drop-by-one check must be at least 0")
    _require_proper_nonzero(a)
    n = a.ring.nvars
    # At least one monomial has each degree, so a cap at the limit is past it;
    # below it, C(n + d, d) monomials have degree at most d (hockey stick).
    if deg_cap >= MAX_PROPERTY_MONOMIALS or comb(n + deg_cap, deg_cap) > MAX_PROPERTY_MONOMIALS:
        raise VidealError("check-property would enumerate more than "
                          f"{MAX_PROPERTY_MONOMIALS:,} monomials; lower the degree cap")
    member = filtration_member(kind, a, k)
    previous = filtration_member(kind, a, k - 1)
    monomials = chain.from_iterable(exps_of_degree(n, d) for d in range(deg_cap + 1))
    witnesses: list[tuple[Monomial, PrimeSupport]] = []
    violations: list[Monomial] = []
    for f, indices in _colon_witnesses(member.exps(), monomials):
        witness = Monomial(a.ring, f)
        witnesses.append((witness, _shared(PrimeSupport, a.ring, indices)))
        if not previous.contains(witness):
            violations.append(witness)
    return PropertyCheckReport(FiltrationKind(kind), k, deg_cap, tuple(witnesses),
                               tuple(violations))


def normally_torsion_free(a: MonomialIdeal, k_max: int) -> bool:
    """Bounded check that Ass(a^k) stays inside Ass(a) for k <= k_max.

    Only meaningful (and only accepted) for square-free proper ideals.
    The powers are one running product, a^k = a^(k - 1) a, so reaching
    k_max takes k_max - 1 products.
    """
    check_ints(k_max=k_max)
    if k_max < 1:
        raise VidealError("k_max must be at least 1")
    _require_proper_nonzero(a)
    if not is_squarefree(a):
        raise VidealError("normally-torsion-free check requires a square-free ideal")
    base = set(associated_primes(a))
    ak = a
    for _ in range(2, k_max + 1):
        ak = ideal_product(ak, a)
        if not set(associated_primes(ak)) <= base:
            return False
    return True
